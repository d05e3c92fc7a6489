import collections
import dataclasses
import hashlib
import inspect
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eprb
import eprb.cli
from eprb import _backend, correlation
from eprb import (
    AntipodalContrast,
    BellReport,
    ChshReport,
    ConstantNonlocalModel,
    ContractViolationError,
    CorrelationEstimate,
    DeterministicEmbedding,
    FixedOutcomeModel,
    LinearStochasticModel,
    LocalSignModel,
    MaximizeResult,
    SettingBiasedSignModel,
    SettingsQuad,
    Z_AXIS,
    ask_pairs,
    bell_statistic,
    chsh_statistic,
    cross_term,
    cube_sampler,
    make_correlation_oracle,
    maximize_chsh,
    quantum_correlation,
    sphere_sampler,
    UnitVector3,
    unit_from_angles,
    unit_from_plane_angle,
)
from eprb.inequalities import _BudgetedOracle, _BudgetExhausted, _quad_from_angles, _scan_values
from oracles_ref import (
    TWO_SQRT_TWO,
    RefBudgetedOracle,
    RefBudgetExhausted,
    ref_grid_scan,
)

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)

CANONICAL = SettingsQuad(
    a=unit_from_plane_angle(0.0),
    b=unit_from_plane_angle(math.pi / 4.0),
    a_prime=unit_from_plane_angle(math.pi / 2.0),
    b_prime=unit_from_plane_angle(3.0 * math.pi / 4.0),
)


def sign_oracle(a, b) -> CorrelationEstimate:
    # the sign model's correlation in closed form, for coplanar settings;
    # atan2 keeps full precision where acos(dot) would lose ~1e-9 near
    # coincident settings
    d = abs(math.atan2(a.x, a.z) - math.atan2(b.x, b.z)) % (2.0 * math.pi)
    if d > math.pi:
        d = 2.0 * math.pi - d
    return CorrelationEstimate(
        value=-1.0 + 2.0 * d / math.pi, stderr=0.0, n=0
    )


def linear_oracle(a, b) -> CorrelationEstimate:
    return CorrelationEstimate(value=-a.dot(b) / 3.0, stderr=0.0, n=0)


def quad_from_angles(ta, tb, tap, tbp) -> SettingsQuad:
    return SettingsQuad(
        a=unit_from_plane_angle(ta),
        b=unit_from_plane_angle(tb),
        a_prime=unit_from_plane_angle(tap),
        b_prime=unit_from_plane_angle(tbp),
    )


def test_quantum_hits_the_tsirelson_value_at_the_canonical_quad():
    report = chsh_statistic(quantum_correlation, CANONICAL)
    assert abs(report.s_value - TWO_SQRT_TWO) < 1e-12
    assert report.stderr == 0.0
    assert report.violated
    assert report.bound == 2.0


def test_sign_model_reaches_exactly_two_at_the_canonical_quad():
    report = chsh_statistic(sign_oracle, CANONICAL)
    assert report.s_value == 2.0
    assert not report.violated  # 2 is not above 2


@settings(max_examples=60)
@given(angles, angles, angles, angles)
def test_closed_form_local_oracles_respect_the_bound(ta, tb, tap, tbp):
    q = quad_from_angles(ta, tb, tap, tbp)
    assert chsh_statistic(sign_oracle, q).s_value <= 2.0 + 1e-12
    assert chsh_statistic(linear_oracle, q).s_value <= 2.0 + 1e-12


@settings(max_examples=10, deadline=None)
@given(angles, angles, angles, angles, st.integers(min_value=0, max_value=2**32))
def test_sign_model_monte_carlo_respects_the_bound(ta, tb, tap, tbp, seed):
    oracle = make_correlation_oracle(LocalSignModel(), sphere_sampler(seed=seed), n=20000)
    report = chsh_statistic(oracle, quad_from_angles(ta, tb, tap, tbp))
    assert not report.violated
    assert report.s_value <= 2.0 + 4.0 * report.stderr


def test_chsh_report_json_shape():
    obj = chsh_statistic(quantum_correlation, CANONICAL).to_json()
    assert set(obj) == {
        "s_value", "term1", "term2", "correlations", "stderr",
        "bound", "violated", "quad",
    }
    assert [c["pair"] for c in obj["correlations"]] == [
        "ab", "ab_prime", "a_prime_b_prime", "a_prime_b",
    ]
    assert set(obj["quad"]) == {"a", "b", "a_prime", "b_prime"}


def test_bell_statistic_quantum_at_the_classic_triple():
    a = unit_from_plane_angle(0.0)
    b = unit_from_plane_angle(math.pi / 3.0)
    c = unit_from_plane_angle(2.0 * math.pi / 3.0)
    report = bell_statistic(quantum_correlation, a, b, c)
    assert abs(report.excess - 0.5) < 1e-12
    assert report.violated
    assert abs(report.p_ab.value + 0.5) < 1e-15
    assert abs(report.p_ac.value - 0.5) < 1e-15


def test_bell_statistic_sign_model_sits_exactly_on_the_edge():
    a = unit_from_plane_angle(0.0)
    b = unit_from_plane_angle(math.pi / 3.0)
    c = unit_from_plane_angle(2.0 * math.pi / 3.0)
    report = bell_statistic(sign_oracle, a, b, c)
    assert abs(report.excess) < 1e-12
    assert not report.violated


@settings(max_examples=60)
@given(angles, angles, angles)
def test_sign_model_never_goes_above_the_bell_edge(ta, tb, tc):
    report = bell_statistic(
        sign_oracle,
        unit_from_plane_angle(ta),
        unit_from_plane_angle(tb),
        unit_from_plane_angle(tc),
    )
    assert report.excess <= 1e-12


def test_bell_report_json_shape():
    report = bell_statistic(quantum_correlation, Z_AXIS, unit_from_plane_angle(1.0),
                            unit_from_plane_angle(2.0))
    obj = report.to_json()
    assert set(obj) == {"excess", "correlations", "stderr", "violated"}
    assert [c["pair"] for c in obj["correlations"]] == ["ab", "ac", "bc"]


def _field_names(obj):
    return [f.name for f in dataclasses.fields(obj)]


def test_reports_store_their_inputs_and_derive_the_rest():
    sampled = [CorrelationEstimate(v, e, 1000)
               for v, e in ((0.7, 0.01), (-0.5, 0.02), (0.25, 0.03), (0.5, 0.04))]
    chsh = ChshReport(*sampled, quad=CANONICAL)
    assert _field_names(chsh) == ["p_ab", "p_ab_prime", "p_a_prime_b_prime", "p_a_prime_b", "quad"]
    assert (chsh.term1, chsh.term2) == (abs(0.7 - -0.5), abs(0.25 + 0.5))
    assert chsh.s_value == abs(0.7 - -0.5) + abs(0.25 + 0.5)
    assert chsh.stderr == math.sqrt(0.01 ** 2 + 0.02 ** 2 + 0.03 ** 2 + 0.04 ** 2)
    assert chsh.bound == 2.0
    assert not chsh.violated

    # exact estimates: S == 2 keeps the bound, one ulp above breaks it
    def exact_chsh(*values):
        return ChshReport(*(CorrelationEstimate(v, 0.0, 0) for v in values), quad=CANONICAL)

    assert exact_chsh(1.0, -1.0, 0.0, 0.0).s_value == 2.0
    assert not exact_chsh(1.0, -1.0, 0.0, 0.0).violated
    above = exact_chsh(1.0, -1.0, math.ulp(2.0), 0.0)
    assert (above.s_value, above.stderr, above.violated) == (math.nextafter(2.0, 3.0), 0.0, True)

    bell = BellReport(*sampled[:3])
    assert _field_names(bell) == ["p_ab", "p_ac", "p_bc"]
    assert bell.excess == abs(0.7 - -0.5) - (1.0 + 0.25)
    assert bell.stderr == math.sqrt(0.01 ** 2 + 0.02 ** 2 + 0.03 ** 2)
    assert not bell.violated
    exact = [CorrelationEstimate(v, 0.0, 0) for v in (0.5, -0.5, -0.5)]
    assert (BellReport(*exact).excess, BellReport(*exact).violated) == (0.5, True)

    result = MaximizeResult(chsh, evaluations=7, grid_s_value=1.5)
    assert _field_names(result) == ["report", "evaluations", "grid_s_value"]
    assert (result.quad, result.s_value) == (CANONICAL, chsh.s_value)

    contrast = AntipodalContrast(Z_AXIS, sampled[1])
    assert _field_names(contrast) == ["a", "series"]
    assert contrast.quantum == quantum_correlation(Z_AXIS, -Z_AXIS)
    assert contrast.quantum.value == 1.0 and contrast.contradiction
    assert not AntipodalContrast(Z_AXIS, sampled[0]).contradiction


def test_an_estimate_is_exact_when_it_has_no_draws():
    assert [p.name for p in inspect.signature(CorrelationEstimate).parameters.values()] == [
        "value", "stderr", "n"]
    assert CorrelationEstimate(0.5, 0.0, 0).exact is True
    assert CorrelationEstimate(0.5, 0.1, 2).exact is False
    with pytest.raises(TypeError):
        CorrelationEstimate(0.5, 0.0, 0, exact=True)


def _overflowing_series_oracle():
    # its correlations overflow to -inf, so sums and differences of them are NaN
    return make_correlation_oracle(
        eprb.build_model("series_random", {"scale": 1e300, "degree": 3}), sphere_sampler(), 64)


A_TILTED, B_TILTED = UnitVector3(0.6, 0.0, 0.8), UnitVector3(0.0, 0.6, 0.8)


def test_chsh_statistic_rejects_a_non_finite_value():
    q = SettingsQuad(a=A_TILTED, b=B_TILTED, a_prime=Z_AXIS, b_prime=UnitVector3(1.0, 0.0, 0.0))
    with pytest.raises(ValueError) as info:
        chsh_statistic(_overflowing_series_oracle(), q)
    assert str(info.value) == "result field 's_value' is not finite: nan"


def test_bell_statistic_rejects_a_non_finite_excess():
    with pytest.raises(ValueError) as info:
        bell_statistic(_overflowing_series_oracle(), A_TILTED, B_TILTED, Z_AXIS)
    assert str(info.value) == "result field 'excess' is not finite: nan"


# --- the local bound on the sample ---

U = 2.0 ** -53  # unit roundoff of float64


def _local_slack(n: int, linear: bool) -> float:
    """Rounding allowance delta with S <= 2 + delta for every quad of a local
    or setting-constant model estimated on n shared draws. It follows from
    the operations that form S, not from statistics.

    On the sample itself the bound is exact: |m_A(a)(m_B(b) - m_B(b'))| +
    |m_A(a')(m_B(b') + m_B(b))| <= 2 M**2 on each draw, for per-draw
    outcome means bounded by M, and so for the sample means x. If each
    computed correlation v is within rho of its x, the three roundings in
    S = |v1 - v2| + |v3 + v4| give S <= (2 M**2 + 4 rho)(1 + U)**2.

    Sign kind (and the draw-independent 0 and +/-1): M = 1, every pair sum
    is an exact integer k and v = fl(k / n), so rho = U and delta is 8U plus
    O(U**2); 2 + delta rounds to 2 + 2 ulp(2), the largest S admitted.

    Linear kind: each side's factor p_plus - p_minus, from a dot product of
    a unit setting and a unit draw (each a few U off unit length), the two
    1 +/- d, halvings and a difference, is at most about 1 + 12U, so
    M = 1 + 16U. Each product is rounded once, and each passes through at
    most n - 1 of the left-to-right additions (within a chunk, then chunk
    sums in chunk order), so the sum is off by at most gamma(n - 1) times
    the sum of |products|; then v = fl(sum / n). delta is then about 9e-15
    at n = 2 and 4.4e-11 at n = 100000.
    """
    if not linear:
        m2, rho = 1.0, U
    else:
        m2 = (1.0 + 16.0 * U) ** 2
        gamma = (n - 1) * U / (1.0 - (n - 1) * U)
        rho = m2 * (U + gamma * (1.0 + U) + U * (1.0 + U) * (1.0 + gamma))
    # (2 M**2 + 4 rho)(1 + U)**2 - 2, each term formed on its own, as the
    # small ones would vanish beside 2
    return 2.0 * (m2 - 1.0) + 4.0 * rho + (2.0 * m2 + 4.0 * rho) * (2.0 * U + U * U)


LOCAL_AND_CONSTANT = {
    "local_sign": LocalSignModel(),
    "linear": LinearStochasticModel(),
    "coin": eprb.build_model("coin"),
    "constant": ConstantNonlocalModel(),
    "fixed": FixedOutcomeModel(),
    "embedded local_sign": DeterministicEmbedding(LocalSignModel()),
    "embedded constant": DeterministicEmbedding(ConstantNonlocalModel()),
}


@pytest.mark.parametrize("n", [2, 4097, 100000])
def test_local_and_constant_models_keep_the_bound_on_the_sample(n):
    # every quad of the 24-angle coplanar grid, and every quad of 8 random
    # directions, each from one batch over the same draws
    grid = [unit_from_plane_angle(k * 2.0 * math.pi / 24) for k in range(24)]
    rng = random.Random(n)
    scattered = [unit_from_angles(math.acos(rng.uniform(-1.0, 1.0)),
                                  rng.uniform(0.0, 2.0 * math.pi)) for _ in range(8)]
    for name, model in LOCAL_AND_CONSTANT.items():
        delta = _local_slack(n, model.kernel_kind == _backend.KIND_LINEAR)
        for seed in (1, 2, 3):
            oracle = make_correlation_oracle(model, sphere_sampler(seed=seed), n)
            for points in (grid, scattered):
                g = len(points)
                ests = ask_pairs(oracle, [(p, q) for p in points for q in points])
                s, _ = _scan_values(np.array([e.value for e in ests]).reshape(g, g))
                assert s <= 2.0 + delta, (name, seed, s, delta)


# --- cross term ---


def test_cross_term_vanishes_for_setting_constant_models():
    s = sphere_sampler(seed=13)
    for m in (ConstantNonlocalModel(), FixedOutcomeModel()):
        for lam in s.sample_batch(0, 200):
            assert cross_term(m, CANONICAL, lam) == 0.0


def test_cross_term_vanishes_for_factorized_local_models():
    # A(a, lam) B(b, lam) products cancel pairwise even with setting dependence
    s = sphere_sampler(seed=14)
    m = LocalSignModel()
    for lam in s.sample_batch(0, 200):
        assert cross_term(m, CANONICAL, lam) == 0.0


def test_cross_term_values_are_always_in_the_three_point_set():
    s = sphere_sampler(seed=15)
    m = SettingBiasedSignModel(bias=0.1)
    seen = set()
    for lam in s.sample_batch(0, 2000):
        value = cross_term(m, CANONICAL, lam)
        assert value in (-2.0, 0.0, 2.0)
        seen.add(value)
    assert seen != {0.0}  # the nonlocal witness actually moves


def test_cross_term_engineered_nonzero():
    # lam perpendicular to a and a' makes A = sign(a.b), and these four
    # angles give A(a,b) A(a',b') != A(a,b') A(a',b)
    m = SettingBiasedSignModel(bias=0.1)
    q = SettingsQuad(
        a=Z_AXIS,
        b=unit_from_plane_angle(0.3),
        a_prime=unit_from_plane_angle(math.pi / 2.0),
        b_prime=unit_from_plane_angle(2.9),
    )
    lam = (0.0, 1.0, 0.0)
    assert cross_term(m, q, lam) == 2.0


# --- settings search ---


def test_maximize_validation():
    with pytest.raises(ValueError, match="budget"):
        maximize_chsh(quantum_correlation, budget=99)
    # int() would truncate this to a valid budget
    with pytest.raises(ValueError, match="budget: expected a whole number"):
        maximize_chsh(quantum_correlation, budget=150.9)
    with pytest.raises(ValueError, match="mode"):
        maximize_chsh(quantum_correlation, budget=1000, mode="spiral")
    with pytest.raises(ValueError, match="full mode"):
        maximize_chsh(quantum_correlation, budget=1000, mode="full")


def test_maximize_without_a_number_on_the_grid_raises():
    def nan_oracle(a, b):
        return CorrelationEstimate(value=math.nan, stderr=0.0, n=0)

    for mode, budget in (("coplanar", 200), ("full", 5000)):
        with pytest.raises(ValueError, match="every grid quad's CHSH statistic is NaN"):
            maximize_chsh(nan_oracle, budget, mode=mode)


def test_maximize_rejects_an_infinite_statistic():
    # an overflowing series pair makes the best grid quad's statistic inf
    oracle = make_correlation_oracle(
        eprb.build_model("series_random", {"scale": 1e155}), sphere_sampler(), 64)
    with pytest.raises(ValueError, match="the best grid quad's CHSH statistic is inf"):
        maximize_chsh(oracle, 200)

    # finite on the 24 x 24 grid, inf at the first pair the search asks
    calls = []

    def late_overflow(a, b):
        calls.append((a, b))
        if len(calls) == 24 * 24 + 1:
            return CorrelationEstimate(value=math.inf, stderr=0.0, n=0)
        return quantum_correlation(a, b)

    with pytest.raises(ValueError, match="the searched quad's CHSH statistic is inf"):
        maximize_chsh(late_overflow, 10**4)


def test_maximize_quantum_finds_the_tsirelson_value():
    result = maximize_chsh(quantum_correlation, budget=10**6)
    assert abs(result.s_value - TWO_SQRT_TWO) < 1e-6
    assert result.evaluations <= 10**6
    assert result.grid_s_value <= result.s_value + 1e-15
    assert result.report.violated


def test_maximize_is_deterministic():
    r1 = maximize_chsh(quantum_correlation, budget=50000)
    r2 = maximize_chsh(quantum_correlation, budget=50000)
    assert r1.s_value == r2.s_value
    assert r1.evaluations == r2.evaluations
    assert r1.quad == r2.quad


def test_maximize_sign_model_stops_at_two():
    # the true maximum is a plateau at exactly 2; acos rounding in the
    # closed-form oracle can overshoot by an ulp
    result = maximize_chsh(sign_oracle, budget=10**5)
    assert abs(result.s_value - 2.0) < 1e-12


def test_maximize_linear_model_lands_on_its_own_ceiling():
    result = maximize_chsh(linear_oracle, budget=10**6)
    assert abs(result.s_value - TWO_SQRT_TWO / 3.0) < 1e-6


def test_maximize_full_mode_reaches_the_quantum_optimum():
    result = maximize_chsh(quantum_correlation, budget=10**6, mode="full")
    assert abs(result.s_value - TWO_SQRT_TWO) < 1e-6


def test_maximize_respects_a_tight_budget():
    result = maximize_chsh(quantum_correlation, budget=150)
    assert result.evaluations <= 150
    # even a tight search beats the classical bound for the quantum oracle
    assert result.s_value > 2.0


# sha256 of the repr of every (a, b) component 6-tuple the search sent to the
# oracle, in order, with the evaluation count, recorded from the search that
# built its grid and start point separately for each mode.
SEARCH_CALLS = {
    ("coplanar", 300): (300, "b6299cb50329a5b88bf14aa54ee32a9d3d2652eeb2894af05c748dc3f530bf08"),
    ("full", 4700): (2771, "b97947a940cc0a39aef7364c5355648e801dffa0619ea60c109837bab90a078b"),
}


@pytest.mark.parametrize("mode,budget", sorted(SEARCH_CALLS))
def test_search_asks_the_oracle_the_same_pairs_in_the_same_order(mode, budget):
    calls = []

    def P(a, b):
        calls.append((a.x, a.y, a.z, b.x, b.y, b.z))
        return quantum_correlation(a, b)

    result = maximize_chsh(P, budget, mode=mode)
    count, digest = SEARCH_CALLS[(mode, budget)]
    assert result.evaluations == len(calls) == count
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == digest


def test_quad_from_angles_reads_one_or_two_angles_per_setting():
    t = [0.1, 0.7, 1.9, 2.6]
    q = _quad_from_angles(t, "coplanar")
    assert (q.a, q.b, q.a_prime, q.b_prime) == tuple(unit_from_plane_angle(x) for x in t)
    tp = [0.1, 0.2, 0.7, 0.8, 1.9, 2.0, 2.6, 2.7]
    q = _quad_from_angles(tp, "full")
    assert (q.a, q.b, q.a_prime, q.b_prime) == tuple(
        unit_from_angles(tp[2 * k], tp[2 * k + 1]) for k in range(4))


# --- batched requests ---


class PairsRecorder:
    """An oracle with a ``pairs`` method that records every pair it is
    asked for, and the size of each batch."""

    def __init__(self):
        self.calls = []
        self.batches = []

    def __call__(self, a, b):
        raise AssertionError("a batched caller asked for one pair")

    def pairs(self, pairs):
        self.batches.append(len(pairs))
        self.calls.extend((a.x, a.y, a.z, b.x, b.y, b.z) for a, b in pairs)
        return [quantum_correlation(a, b) for a, b in pairs]


def _recording_callable(calls):
    def P(a, b):
        calls.append((a.x, a.y, a.z, b.x, b.y, b.z))
        return quantum_correlation(a, b)

    return P


@pytest.mark.parametrize("mode,budget", sorted(SEARCH_CALLS))
def test_batched_search_asks_the_pairs_the_plain_callable_asks(mode, budget):
    plain_calls = []
    plain = maximize_chsh(_recording_callable(plain_calls), budget, mode=mode)
    batched = PairsRecorder()
    result = maximize_chsh(batched, budget, mode=mode)
    count, digest = SEARCH_CALLS[(mode, budget)]
    assert batched.calls == plain_calls
    assert result.evaluations == plain.evaluations == len(batched.calls) == count
    assert hashlib.sha256(repr(batched.calls).encode()).hexdigest() == digest
    assert repr(result) == repr(plain)


def test_cli_search_makes_each_chunks_draws_at_most_twice(monkeypatch, capsys):
    made = collections.Counter()
    columns = _backend._lambda_columns

    def making(sampler_kind, seed, start, count, ncomp):
        made[start, count] += 1
        return columns(sampler_kind, seed, start, count, ncomp)

    monkeypatch.setattr(_backend, "_lambda_columns", making)
    assert eprb.cli.run(["chsh", "--maximize", "--model", "linear", "--n", "512"]) == 0
    assert json.loads(capsys.readouterr().out)["evaluations"] > 500
    assert made == {(0, 512): 2}


def _search_rows(monkeypatch):
    """Record, per batch an oracle's ``pairs`` serves, the (side, kernel
    row) keys it was asked for and the number of rows ``_dots`` computed,
    and after it the bytes of the draws and rows the oracle keeps."""
    asked, made, kept = [], [], []
    call, dots = correlation._KernelPairs.__call__, _backend._dots

    def recording(self, request):
        keys = set()
        for a, b in request:
            (u, c_a), (v, c_b), _ = self._model.kernel_rows(a, b)
            keys |= {(0, u.x, u.y, u.z, c_a), (1, v.x, v.y, v.z, c_b)}
        asked.append(keys)
        made.append(0)
        try:
            return call(self, request)
        finally:
            kept.append(sum(c.nbytes for cols in (self.draws or {}).values() for c in cols)
                        + sum(r.nbytes for r in self.rows.values() if r is not None))

    def counting(S, *cols):
        made[-1] += len(S)
        return dots(S, *cols)

    monkeypatch.setattr(correlation._KernelPairs, "__call__", recording)
    monkeypatch.setattr(_backend, "_dots", counting)
    return asked, made, kept


@pytest.mark.parametrize("model", ["linear", "local_sign"])
def test_cli_search_computes_each_setting_row_once_after_the_draws_are_kept(
        model, monkeypatch, capsys):
    # from the second batch on, a trial computes only the rows no earlier
    # trial did: at most one per (side, setting)
    asked, made, _ = _search_rows(monkeypatch)
    assert eprb.cli.run(["chsh", "--maximize", "--model", model, "--n", "512"]) == 0
    assert json.loads(capsys.readouterr().out)["evaluations"] > 600
    assert len(asked) > 50
    assert sum(made[1:]) == len(set().union(*asked[1:]))


@pytest.mark.parametrize("model", ["linear", "local_sign", "nonlocal_sign"])
def test_a_search_under_a_byte_cap_prints_the_same_bytes(model, monkeypatch, tmp_path):
    # the oldest rows are dropped to keep the draws and rows within the
    # cap; below the draws' 24 n bytes neither is kept
    n = 512
    argv = ["chsh", "--maximize", "--model", model, "--n", str(n), "--seed", "5"]

    def output(cap):
        monkeypatch.setattr(correlation, "_DRAW_CACHE_BYTES", cap)
        path = tmp_path / str(cap)
        assert eprb.cli.run(argv + ["--output", str(path)]) == 0
        return path.read_bytes()

    want = output(1 << 40)
    _, _, kept = _search_rows(monkeypatch)
    for cap in (24 * n + 3 * 8 * n, 24 * n + 8 * n, 24 * n, 24 * n - 1):
        kept.clear()
        assert output(cap) == want, cap
        assert len(kept) > 50 and max(kept) <= cap, cap
        if cap < 24 * n:
            assert kept == [0] * len(kept)
        else:
            assert max(kept) == cap - (cap - 24 * n) % (8 * n), cap


def _budget_requests():
    # a 24-point grid, then small requests with repeats and cached pairs,
    # drawn from 900 distinct pairs
    rng = random.Random(4)
    pool = [unit_from_plane_angle(2.0 * math.pi * k / 30) for k in range(30)]
    requests = [[(pool[i], pool[j]) for i in range(24) for j in range(24)]]
    for _ in range(300):
        requests.append([(rng.choice(pool), rng.choice(pool))
                         for _ in range(rng.randint(1, 6))])
    return requests


def _serve(oracle, requests, ask, exhausted):
    """Each request's values and the evaluation count after it, up to the
    request that ran out of budget."""
    log = []
    for request in requests:
        try:
            values = [e.value for e in ask(oracle, request)]
        except exhausted:
            log.append(("exhausted", oracle.evaluations))
            break
        log.append((values, oracle.evaluations))
    return log


def test_batched_budget_requests_make_the_per_pair_calls():
    requests = _budget_requests()
    for budget in range(100, 701):
        ref_calls = []
        ref = _serve(RefBudgetedOracle(_recording_callable(ref_calls), budget), requests,
                     lambda o, req: [o(a, b) for a, b in req], RefBudgetExhausted)
        assert ref[-1][0] == "exhausted"
        plain_calls = []
        plain = _serve(_BudgetedOracle(_recording_callable(plain_calls), budget), requests,
                       lambda o, req: o.pairs(req), _BudgetExhausted)
        batched = PairsRecorder()
        log = _serve(_BudgetedOracle(batched, budget), requests,
                     lambda o, req: o.pairs(req), _BudgetExhausted)
        # same values, same evaluations after every request, the same
        # request runs out, and the oracle saw the same pairs in order
        assert plain == ref and log == ref, budget
        assert plain_calls == ref_calls and batched.calls == ref_calls, budget
        assert len(ref_calls) == budget
        # the grid went as one batch, cut to the budget when it is smaller
        assert batched.batches[0] == min(budget, 576)


def test_batched_chsh_raises_the_first_bad_pairs_error():
    # on a cube stream the linear model is valid at (a, b) and goes bad at
    # (a, b'), (a', b') and (a', b); (a', b') goes bad at an earlier draw
    # than (a, b'), but (a, b') is asked first
    s = cube_sampler(dim=3, seed=0)
    oracle = make_correlation_oracle(LinearStochasticModel(), s, n=10000)
    q = SettingsQuad(
        a=Z_AXIS,
        b=UnitVector3(0.0, 1.0, 0.0),
        a_prime=UnitVector3(0.6, 0.48, 0.64),
        b_prime=UnitVector3(0.6, 0.0, 0.8),
    )

    def message(fn):
        with pytest.raises(ContractViolationError) as info:
            fn()
        return str(info.value)

    assert oracle(q.a, q.b).n == 10000
    second = message(lambda: oracle(q.a, q.b_prime))
    third = message(lambda: oracle(q.a_prime, q.b_prime))
    assert int(third.rsplit(" ", 1)[1]) < int(second.rsplit(" ", 1)[1])
    assert message(lambda: chsh_statistic(oracle, q)) == second
    assert message(lambda: chsh_statistic(lambda a, b: oracle(a, b), q)) == second


def test_grid_scan_matches_the_loop_it_replaced():
    # ties come from a handful of repeated values, signed zeros included;
    # a few matrices hold infinities, NaNs and values whose sums overflow
    rng = random.Random(23)
    few = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25]
    odd = few + [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308]
    for trial in range(2400):
        g = rng.randint(1, 14)
        pick = [
            lambda: rng.choice(few),
            lambda: rng.uniform(-1.0, 1.0),
            lambda: rng.choice(few) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0),
            lambda: rng.choice(odd),
        ][trial % 4]
        values = [[pick() for _ in range(g)] for _ in range(g)]
        got = _scan_values(np.array(values, dtype=np.float64))
        assert repr(got) == repr(ref_grid_scan(values)), values
