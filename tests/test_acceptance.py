"""End-to-end checks at stated scales; one test per shipped guarantee.

Each test is tagged with a one-line label that the terminal summary prints
as PASS/FAIL after the run. The runtime ceilings of criteria 1 and 2 hold on
both backends.
"""

import json
import math
import random
import time

import pytest

from eprb import (
    ConstantNonlocalModel,
    FixedOutcomeModel,
    INFINITY,
    LinearStochasticModel,
    LocalSignModel,
    RiemannPoint,
    SettingBiasedSignModel,
    SettingsQuad,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    antipodal_contrast,
    bell_statistic,
    build_model,
    chsh_statistic,
    cross_term,
    delta_coefficients,
    estimate_joint,
    estimate_stochastic_correlation,
    impose_anticorrelation,
    make_correlation_oracle,
    maximize_chsh,
    pq_nonanalyticity_report,
    quantum_correlation,
    quantum_correlation_complex,
    random_coefficients,
    residual_report,
    series_correlation,
    sphere_sampler,
    stereographic_project,
    unit_from_plane_angle,
    wirtinger_residual,
)
from eprb.analyticity import Verdict
from eprb.cli import run as run_cli
from oracles_ref import TWO_SQRT_TWO

N = 100000


def random_unit(rng: random.Random) -> UnitVector3:
    while True:
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return UnitVector3(x / norm, y / norm, z / norm)


def random_quad(rng: random.Random) -> SettingsQuad:
    return SettingsQuad(
        a=random_unit(rng), b=random_unit(rng),
        a_prime=random_unit(rng), b_prime=random_unit(rng),
    )


@pytest.mark.criterion("1. chsh bound holds for 4 models x 100 random quads")
def test_chsh_bound_across_the_local_and_constant_zoo():
    rng = random.Random(20260817)
    quads = [random_quad(rng) for _ in range(100)]
    models = [
        build_model("local_sign"),
        build_model("coin"),
        build_model("linear"),
        build_model("constant"),
    ]
    start = time.monotonic()
    worst = -math.inf
    for model in models:
        oracle = make_correlation_oracle(model, sphere_sampler(seed=1), n=N)
        for quad in quads:
            report = chsh_statistic(oracle, quad)
            slack = report.s_value - (2.0 + 4.0 * report.stderr)
            worst = max(worst, slack)
            assert slack <= 0.0, (model, quad)
    elapsed = time.monotonic() - start
    print(f"\n  worst s - (2 + 4 sigma) = {worst:.6f}, {elapsed:.1f}s")
    assert elapsed < 60.0


@pytest.mark.criterion("2. settings search reaches 2*sqrt(2) on the quantum oracle")
def test_maximize_chsh_hits_the_quantum_ceiling():
    start = time.monotonic()
    result = maximize_chsh(quantum_correlation, budget=10**6, mode="coplanar")
    elapsed = time.monotonic() - start
    assert abs(result.s_value - TWO_SQRT_TWO) < 1e-6
    assert result.evaluations <= 10**6
    assert elapsed < 5.0


@pytest.mark.criterion("3. bell triple: quantum excess +0.5, sign model at the edge")
def test_bell_triple_zero_sixty_onetwenty():
    a = unit_from_plane_angle(0.0)
    b = unit_from_plane_angle(math.pi / 3.0)
    c = unit_from_plane_angle(2.0 * math.pi / 3.0)
    exact = bell_statistic(quantum_correlation, a, b, c)
    assert abs(exact.excess - 0.5) < 1e-12
    assert exact.violated
    oracle = make_correlation_oracle(LocalSignModel(), sphere_sampler(seed=3), n=N)
    sampled = bell_statistic(oracle, a, b, c)
    assert sampled.excess <= 4.0 * sampled.stderr
    assert not sampled.violated


@pytest.mark.criterion("4. sign-model curve matches -1 + 2 theta / pi at 19 angles")
def test_sign_model_curve_follows_the_line():
    s = sphere_sampler(seed=4)
    m = LocalSignModel()
    for k in range(19):
        theta = (k * math.pi) / 18.0
        est = make_correlation_oracle(m, s, n=N)(Z_AXIS, unit_from_plane_angle(theta))
        want = -1.0 + 2.0 * theta / math.pi
        assert abs(est.value - want) <= 4.0 * est.stderr + 1e-15, theta


@pytest.mark.criterion("5. linear model: -(a.b)/3 on 20 pairs; joint table identities")
def test_linear_model_third_of_quantum_and_joint_identities():
    rng = random.Random(5)
    m = LinearStochasticModel()
    s = sphere_sampler(seed=5)
    for _ in range(20):
        a, b = random_unit(rng), random_unit(rng)
        est = estimate_stochastic_correlation(m, a, b, s, N)
        assert abs(est.value - (-a.dot(b) / 3.0)) <= 4.0 * est.stderr + 1e-15
        table = estimate_joint(m, a, b, s, N)
        assert abs(table.total() - 1.0) < 1e-12
        assert abs(table.correlation() - est.value) < 1e-12


@pytest.mark.criterion("6. anticorrelated series: -(a.b)^2, exact -1, never positive")
def test_series_models_are_negative_where_quantum_is_positive():
    pair = impose_anticorrelation(delta_coefficients())
    s = sphere_sampler(seed=6)
    rng = random.Random(6)
    for _ in range(50):
        a, b = random_unit(rng), random_unit(rng)
        est = series_correlation(pair, a, b, s, N)
        assert abs(est.value - (-(a.dot(b)) ** 2)) < 1e-12
    for axis in (X_AXIS, Y_AXIS, Z_AXIS, -X_AXIS, -Y_AXIS, -Z_AXIS):
        assert series_correlation(pair, axis, axis, s, N).value == -1.0
    for seed in range(20):
        coeffs = random_coefficients(coeff_seed=seed, degree=3)
        est = series_correlation(
            impose_anticorrelation(coeffs), random_unit(rng), random_unit(rng), s, N
        )
        assert est.value <= 0.0
    contrast = antipodal_contrast(pair, random_unit(rng), s, N)
    assert contrast.quantum.value == 1.0
    assert contrast.series.value <= 0.0
    assert contrast.contradiction


@pytest.mark.criterion("7. complex-coordinate correlation agrees with the projection")
def test_complex_correlation_against_projected_dot_product():
    rng = random.Random(7)
    points = [
        RiemannPoint.finite(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        for _ in range(2010)
    ]
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range(1000)]
    pairs += [(z, INFINITY) for z in points[2000:2005]]
    pairs += [(INFINITY, z) for z in points[2005:2010]]
    pairs.append((INFINITY, INFINITY))
    for z, w in pairs:
        got = quantum_correlation_complex(z, w)
        want = -stereographic_project(z).dot(stereographic_project(w))
        assert abs(got - want) < 1e-12
    assert quantum_correlation_complex(INFINITY, INFINITY) == -1.0


@pytest.mark.criterion("8. analyticity: clean on analytic maps, 0.5 residual at z=1")
def test_analyticity_residual_suite():
    pts = [RiemannPoint.finite(0.3 * k - 1.2, 0.25 * k - 1.0) for k in range(9)]
    for f in (lambda z: z * z, lambda z: z**3 - 2.0 * z, lambda z: (0.5 + 0.25j) * z):
        rep = residual_report(f, pts, h=1e-4, tol=1e-5)
        assert rep.verdict is Verdict.ANALYTIC_WITHIN_TOL
        assert rep.max_residual < 1e-5
    for z in pts:
        assert wirtinger_residual(lambda w: w.conjugate(), z, 1e-4) == 1.0

    def pq(zc: complex) -> complex:
        return quantum_correlation_complex(RiemannPoint.from_complex(zc), INFINITY)

    at_one = abs(wirtinger_residual(pq, RiemannPoint.finite(1.0, 0.0), 1e-4))
    assert abs(at_one - 0.5) < 1e-6
    disc = pq_nonanalyticity_report(INFINITY, radius=1.0, k=21, h=1e-4, tol=1e-5)
    assert disc.verdict is Verdict.NON_ANALYTIC


@pytest.mark.criterion("9. cross term: 1000 exact zeros, one engineered |I| = 2")
def test_cross_term_zeros_and_witness():
    rng = random.Random(9)
    s = sphere_sampler(seed=9)
    lams = s.sample_batch(0, 1000)
    for i, lam in enumerate(lams):
        if i % 2 == 0:
            m = ConstantNonlocalModel(u=random_unit(rng), v=random_unit(rng))
        else:
            m = FixedOutcomeModel(
                alpha=rng.choice([1.0, -1.0]), beta=rng.choice([1.0, -1.0])
            )
        assert cross_term(m, random_quad(rng), lam) == 0.0
    witness = SettingBiasedSignModel(bias=0.1)
    q = SettingsQuad(
        a=Z_AXIS,
        b=unit_from_plane_angle(0.3),
        a_prime=unit_from_plane_angle(math.pi / 2.0),
        b_prime=unit_from_plane_angle(2.9),
    )
    assert abs(cross_term(witness, q, (0.0, 1.0, 0.0))) == 2.0


@pytest.mark.criterion("10. reruns and worker counts leave the JSON byte-identical")
def test_byte_identical_output_across_reruns_and_workers(tmp_path):
    commands = {
        "correlate": ["correlate", "--model", "local_sign",
                      "--a", "0,0,1", "--b", "1,0,0", "--n", str(N), "--seed", "5"],
        "sweep": ["sweep", "--model", "linear", "--steps", "5",
                  "--n", "40000", "--seed", "2"],
        "chsh": ["chsh", "--model", "local_sign",
                 "--a", "0,0,1", "--b", "0.7071067811865476,0,0.7071067811865476",
                 "--a-prime", "1,0,0",
                 "--b-prime", "0.7071067811865476,0,-0.7071067811865476",
                 "--n", "50000", "--seed", "9"],
        "bell": ["bell", "--model", "local_sign",
                 "--a", "0,0,1", "--b", "0.8660254037844386,0,0.5",
                 "--c", "0.8660254037844387,0,-0.5", "--n", "50000", "--seed", "4"],
        "maximize": ["chsh", "--model", "quantum", "--maximize",
                     "--budget", "20000"],
    }
    for name, args in commands.items():
        outputs = []
        for run_id, workers in (("first", 1), ("again", 1), ("many", 4)):
            path = tmp_path / f"{name}-{run_id}.json"
            code = run_cli(args + ["--workers", str(workers), "--output", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], name
        assert outputs[0] == outputs[2], name
        json.loads(outputs[0])  # stays parseable
