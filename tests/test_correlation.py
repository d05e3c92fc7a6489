import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprb import _backend as _k
from eprb import _mc, hidden_variables
from eprb import correlation as correlation_module
from eprb import (
    CoinModel,
    ConstantNonlocalModel,
    ContractViolationError,
    DeterministicEmbedding,
    DeterministicModel,
    FixedOutcomeModel,
    INFINITY,
    LinearStochasticModel,
    LocalSignModel,
    QuantumCorrelationModel,
    RealAnalyticCoefficients,
    RiemannPoint,
    SettingBiasedSignModel,
    SettingsQuad,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    antipodal_contrast,
    ask_pairs,
    build_model,
    chsh_statistic,
    correlation_sweep,
    cross_term,
    cube_sampler,
    delta_coefficients,
    estimate_correlation,
    estimate_joint,
    estimate_stochastic_correlation,
    impose_anticorrelation,
    integrate,
    make_correlation_oracle,
    quantum_correlation,
    quantum_correlation_complex,
    random_coefficients,
    series_correlation,
    sphere_sampler,
    stereographic_project,
    unit_from_angles,
    unit_from_plane_angle,
)
from eprb.correlation import CorrelationEstimate, JointTable, pair_needs_sampler
from eprb.hidden_variables import MonteCarloEstimate
from eprb.models import _BUILDERS
from oracles_ref import (
    linear_joint_quad,
    ref_accumulate4,
    ref_draw3,
    ref_fold4,
    ref_series_parts,
    ref_series_value,
    sign_curve_quad,
)

angles = st.floats(min_value=0.0, max_value=math.pi)
coords = st.floats(min_value=-3.0, max_value=3.0)


class NoKernelSign(LocalSignModel):
    kernel_kind = None


class NoKernelConstant(ConstantNonlocalModel):
    kernel_kind = None


class NoKernelLinear(LinearStochasticModel):
    kernel_kind = None


class NoKernelNonlocal(SettingBiasedSignModel):
    kernel_kind = None


class ShiftedNonlocal(SettingBiasedSignModel):
    """nonlocal_sign with A's offset a . b - 0.5: only its kernel rows say so."""

    def kernel_rows(self, a, b):
        (u, c_a), row_b, sigma_b = super().kernel_rows(a, b)
        return (u, c_a - 0.5), row_b, sigma_b


class NoKernelShiftedNonlocal(ShiftedNonlocal):
    kernel_kind = None


class PerDrawCoin(CoinModel):
    draw_independent = False


class PerDrawFixed(FixedOutcomeModel):
    draw_independent = False


def test_estimate_correlation_type_check():
    with pytest.raises(ValueError, match="deterministic"):
        estimate_correlation(CoinModel(), Z_AXIS, X_AXIS, sphere_sampler(), 100)
    with pytest.raises(ValueError, match="stochastic"):
        estimate_stochastic_correlation(LocalSignModel(), Z_AXIS, X_AXIS, sphere_sampler(), 100)
    with pytest.raises(ValueError, match="n must be"):
        estimate_correlation(LocalSignModel(), Z_AXIS, X_AXIS, sphere_sampler(), 1)


def test_estimator_and_oracle_errors_name_the_estimator_and_the_family():
    s = sphere_sampler()
    for estimator, model, message in (
        (estimate_correlation, CoinModel(),
         "estimate_correlation needs a deterministic model, got CoinModel"),
        (estimate_correlation, QuantumCorrelationModel(),
         "estimate_correlation needs a deterministic model, got QuantumCorrelationModel"),
        (estimate_stochastic_correlation, LocalSignModel(),
         "estimate_stochastic_correlation needs a stochastic model, got LocalSignModel"),
        (estimate_joint, FixedOutcomeModel(),
         "estimate_joint needs a stochastic model, got FixedOutcomeModel"),
    ):
        # the model is checked ahead of n and workers
        for n, workers in ((100, 1), (1, 1), (100, 0)):
            with pytest.raises(ValueError) as info:
                estimator(model, Z_AXIS, X_AXIS, s, n, workers)
            assert str(info.value) == message
    draw_dependent = impose_anticorrelation(delta_coefficients(), generator=_no_generator_call)
    for model, message in (
        (NoKernelSign(), "deterministic models need a sampler"),
        (FixedOutcomeModel(), "deterministic models need a sampler"),
        (CoinModel(), "stochastic models need a sampler"),
        (DeterministicEmbedding(LocalSignModel()), "stochastic models need a sampler"),
        (draw_dependent, "draw-dependent series pair needs a sampler"),
        (42, "no correlation estimator for int"),
    ):
        with pytest.raises(ValueError) as info:
            make_correlation_oracle(model)
        assert str(info.value) == message


def test_oracles_look_their_estimator_up_at_each_call(monkeypatch):
    # a wrapper installed on the module after the oracle was made is used
    s, calls = sphere_sampler(seed=2), []
    for name, model in (("estimate_correlation", NoKernelSign()),
                        ("estimate_correlation", LocalSignModel()),
                        ("estimate_stochastic_correlation", NoKernelLinear()),
                        ("estimate_stochastic_correlation", CoinModel())):
        oracle = make_correlation_oracle(model, s, 100)
        original = getattr(correlation_module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(correlation_module, name, counting)
        assert repr(oracle(Z_AXIS, X_AXIS)) == repr(original(model, Z_AXIS, X_AXIS, s, 100))
        monkeypatch.undo()
        assert calls.pop() == name and not calls


def _no_chunk_runs(*args, **kwargs):
    raise AssertionError("chunks ran for an n that should have been rejected")


def test_estimators_reject_n_past_the_int64_limit(monkeypatch):
    # rejected before any chunk is run
    monkeypatch.setattr(correlation_module, "run_chunk_jobs", _no_chunk_runs)
    monkeypatch.setattr(hidden_variables, "run_chunk_jobs", _no_chunk_runs)
    monkeypatch.setattr(_k, "reduce_pairs", _no_chunk_runs)
    pair = impose_anticorrelation(delta_coefficients())
    calls = [
        (estimate_correlation, LocalSignModel()),
        (estimate_correlation, FixedOutcomeModel()),
        (estimate_correlation, NoKernelSign()),
        (estimate_stochastic_correlation, LinearStochasticModel()),
        (estimate_stochastic_correlation, NoKernelLinear()),
        (estimate_stochastic_correlation, DeterministicEmbedding(FixedOutcomeModel())),
        (estimate_joint, LinearStochasticModel()),
        (estimate_joint, NoKernelLinear()),
        (estimate_joint, CoinModel()),
        (series_correlation, pair),
        (series_correlation, _UNCALLED_SERIES_PAIR),
    ]
    for estimator, m in calls:
        for n in (2**63, 10**30):
            with pytest.raises(ValueError, match=r"n must be <= 2\*\*63 - 1"):
                estimator(m, Z_AXIS, X_AXIS, sphere_sampler(), n)


def _no_generator_call(lam):
    raise AssertionError("the series generator ran for arguments that should have been rejected")


_UNCALLED_SERIES_PAIR = impose_anticorrelation(delta_coefficients(), generator=_no_generator_call)


_BELOW_ONE_CALLS = {
    "kernel": lambda s, w: estimate_correlation(LocalSignModel(), Z_AXIS, X_AXIS, s, 100, w),
    "kernel_joint": lambda s, w: estimate_joint(
        LinearStochasticModel(), Z_AXIS, X_AXIS, s, 100, w),
    "per_draw": lambda s, w: estimate_correlation(NoKernelSign(), Z_AXIS, X_AXIS, s, 100, w),
    "per_draw_stochastic": lambda s, w: estimate_stochastic_correlation(
        NoKernelLinear(), Z_AXIS, X_AXIS, s, 100, w),
    "per_draw_joint": lambda s, w: estimate_joint(NoKernelLinear(), Z_AXIS, X_AXIS, s, 100, w),
    "embedded_fixed_outcome": lambda s, w: estimate_joint(
        DeterministicEmbedding(FixedOutcomeModel()), Z_AXIS, X_AXIS, s, 100, w),
    "fixed_outcome": lambda s, w: estimate_correlation(
        FixedOutcomeModel(), Z_AXIS, X_AXIS, s, 100, w),
    "coin": lambda s, w: estimate_stochastic_correlation(
        CoinModel(), Z_AXIS, X_AXIS, s, 100, w),
    "coin_joint": lambda s, w: estimate_joint(CoinModel(), Z_AXIS, X_AXIS, s, 100, w),
    "series_delta": lambda s, w: series_correlation(
        impose_anticorrelation(delta_coefficients()), Z_AXIS, X_AXIS, s, 100, w),
    "series_generator": lambda s, w: series_correlation(
        _UNCALLED_SERIES_PAIR, Z_AXIS, X_AXIS, s, 100, w),
    "integrate": lambda s, w: integrate(lambda lam: lam[0], s, 100, w),
    "pairs": lambda s, w: make_correlation_oracle(LocalSignModel(), s, 100, w).pairs(
        [(Z_AXIS, X_AXIS)]),
}


@pytest.mark.parametrize("path", sorted(_BELOW_ONE_CALLS))
def test_workers_below_one_is_rejected_on_every_path(monkeypatch, path):
    # rejected before any chunk is run, also where no chunk would run
    monkeypatch.setattr(correlation_module, "run_chunk_jobs", _no_chunk_runs)
    monkeypatch.setattr(hidden_variables, "run_chunk_jobs", _no_chunk_runs)
    monkeypatch.setattr(_k, "reduce_pairs", _no_chunk_runs)
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _BELOW_ONE_CALLS[path](sphere_sampler(), workers)


def test_no_estimate_starts_a_thread(monkeypatch):
    # numpy chunks, per-draw Python draws and integrands hold the GIL, so
    # they run on the calling thread at any worker count
    pools = []

    class CountingPool(_mc.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(_mc, "ThreadPoolExecutor", CountingPool)
    s = sphere_sampler(seed=2)
    n = 3 * 4096
    integrate(lambda lam: lam[0], s, n, workers=2)
    estimate_correlation(build_model("nonlocal_sign"), Z_AXIS, X_AXIS, s, n, workers=2)
    estimate_correlation(LocalSignModel(), Z_AXIS, X_AXIS, s, n, workers=2)
    estimate_joint(LinearStochasticModel(), Z_AXIS, X_AXIS, s, n, workers=2)
    make_correlation_oracle(LocalSignModel(), s, n, workers=2).pairs([(Z_AXIS, X_AXIS)])
    estimate_correlation(NoKernelSign(), Z_AXIS, X_AXIS, s, n, workers=2)
    estimate_stochastic_correlation(NoKernelLinear(), Z_AXIS, X_AXIS, s, n, workers=2)
    estimate_joint(NoKernelLinear(), Z_AXIS, X_AXIS, s, n, workers=2)
    series_correlation(impose_anticorrelation(_BASE2, generator=_scaled_series),
                       Z_AXIS, X_AXIS, s, n, workers=2)
    assert pools == []


any_float = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]))
rows4 = st.lists(st.tuples(any_float, any_float, any_float, any_float), min_size=1, max_size=9)


@given(st.lists(rows4, min_size=2, max_size=5))
@settings(max_examples=100)
def test_four_column_fold_is_the_scalar_fold_per_column(chunks):
    # repr tells -0.0 from 0.0 and matches nan with nan
    parts = [tuple(zip(*_k.fold_rows(np.array(rows, dtype=np.float64).T))) for rows in chunks]
    assert repr(parts) == repr([ref_accumulate4(rows) for rows in chunks])
    n = sum(len(rows) for rows in chunks)
    want = [_mc._finalize(*f, n) for f in ref_fold4(parts)]
    assert repr(_mc.combine_vec4(parts, n)) == repr(want)


def test_aligned_sign_model_is_perfectly_anticorrelated():
    est = estimate_correlation(LocalSignModel(), Z_AXIS, Z_AXIS, sphere_sampler(), 5000)
    assert est.value == -1.0
    assert est.stderr == 0.0
    assert est.n == 5000 and not est.exact


def test_sign_model_matches_quadrature_curve():
    s = sphere_sampler(seed=2)
    for theta in (0.4, 1.1, 2.3):
        est = estimate_correlation(
            LocalSignModel(), Z_AXIS, unit_from_plane_angle(theta), s, 40000
        )
        assert abs(est.value - sign_curve_quad(theta)) < 4.0 * est.stderr + 1e-9


def test_kernel_and_python_paths_agree_bitwise():
    s = sphere_sampler(seed=4)
    a, b = Z_AXIS, unit_from_plane_angle(1.0)
    fast = estimate_correlation(LocalSignModel(), a, b, s, 8192)
    slow = estimate_correlation(NoKernelSign(), a, b, s, 8192)
    assert fast.value == slow.value
    assert fast.stderr == slow.stderr

    # the constant model is the sign kernel on its own axes (u, v): equal to
    # its per-draw path and to the sign model measured at (u, v), on sphere
    # and cube streams, over whole and partial chunks
    u, v = UnitVector3(0.36, 0.48, 0.8), unit_from_plane_angle(2.2)
    for stream in (sphere_sampler(seed=4), cube_sampler(dim=3, seed=9)):
        for n in (2, 4097):
            fast = estimate_correlation(ConstantNonlocalModel(u, v), a, b, stream, n)
            slow = estimate_correlation(NoKernelConstant(u, v), a, b, stream, n)
            sign = estimate_correlation(LocalSignModel(), u, v, stream, n)
            assert (fast.value, fast.stderr) == (slow.value, slow.stderr)
            assert (fast.value, fast.stderr) == (sign.value, sign.stderr)

    # the linear kernel, for the product and for the joint table
    fast = estimate_stochastic_correlation(LinearStochasticModel(), a, b, s, 4097)
    slow = estimate_stochastic_correlation(NoKernelLinear(), a, b, s, 4097)
    assert (fast.value, fast.stderr) == (slow.value, slow.stderr)
    fast = estimate_joint(LinearStochasticModel(), a, b, s, 4097)
    slow = estimate_joint(NoKernelLinear(), a, b, s, 4097)
    assert fast == slow

    # draw-independent models are evaluated once; walking every draw would
    # sum an exactly representable value n times and give the same bits
    for estimator, model, per_draw, value in (
        (estimate_stochastic_correlation, CoinModel(), PerDrawCoin(), 0.0),
        (estimate_correlation, FixedOutcomeModel(1.0, -1.0), PerDrawFixed(1.0, -1.0), -1.0),
        (estimate_correlation, FixedOutcomeModel(-1.0, -1.0), PerDrawFixed(-1.0, -1.0), 1.0),
    ):
        for n in (2, 3, 4097, 100000):
            est = estimator(model, a, b, s, n)
            assert est.to_json() == {"value": value, "stderr": 0.0, "n": n, "exact": False}
        walked = estimator(per_draw, a, b, s, 4097)
        assert walked == estimator(model, a, b, s, 4097)
    for n in (2, 3, 4097, 100000):
        table = estimate_joint(CoinModel(), a, b, s, n).to_json()
        for key in ("p_pp", "p_mm", "p_pm", "p_mp"):
            assert table[key] == {"value": 0.25, "stderr": 0.0}
        assert table["n"] == n
    walked = estimate_joint(PerDrawCoin(), a, b, s, 4097)
    assert walked == estimate_joint(CoinModel(), a, b, s, 4097)


def test_sign_kernel_offsets_and_embeddings_match_their_per_draw_twins():
    # nonlocal_sign is the sign kernel with offsets a . b and bias and B's
    # sign kept, and an embedding runs its inner model's kernel, for the
    # correlation and the joint table: the bits of the per-draw path, on
    # sphere and cube streams, at whole and partial chunks and any worker
    # count, one pair at a time and batched
    a, b = UnitVector3(0.36, 0.48, 0.8), unit_from_plane_angle(2.2)
    pairs = [(a, b), (b, a), (Z_AXIS, b), (a, -a), (a, b)]
    inners = [(LocalSignModel(), NoKernelSign()),
              (ConstantNonlocalModel(a, b), NoKernelConstant(a, b)),
              (SettingBiasedSignModel(0.1), NoKernelNonlocal(0.1)),
              (SettingBiasedSignModel(-0.3), NoKernelNonlocal(-0.3))]
    for stream in (sphere_sampler(seed=4), cube_sampler(dim=3, seed=9)):
        for n, workers in itertools.product((2, 3, 4097), (1, 2)):
            for inner, twin_inner in inners:
                fast, twin = DeterministicEmbedding(inner), DeterministicEmbedding(inner)
                twin.kernel_kind = None
                assert fast.kernel_kind == inner.kernel_kind is not None
                for model, per_draw, estimators in (
                    (inner, twin_inner, (estimate_correlation,)),
                    (fast, twin, (estimate_stochastic_correlation, estimate_joint)),
                ):
                    for estimator, (p, q) in itertools.product(estimators, pairs):
                        assert repr(estimator(model, p, q, stream, n, workers)) == repr(
                            estimator(per_draw, p, q, stream, n, workers)), (model, p, q, n)
                    batched = make_correlation_oracle(model, stream, n, workers).pairs(pairs)
                    assert [repr(e) for e in batched] == [
                        repr(estimators[0](per_draw, p, q, stream, n, workers)) for p, q in pairs]


def test_a_sign_model_that_overrides_only_its_kernel_rows_is_that_model_per_draw():
    # the kernel, the per-draw path of the kernel_kind = None twin, the
    # embedding's joint table and cross_term all read the overridden rows
    a, b = UnitVector3(0.36, 0.48, 0.8), unit_from_plane_angle(2.2)
    pairs = [(a, b), (b, a), (Z_AXIS, b), (a, -a)]
    s = sphere_sampler(seed=4)
    shifted, twin = ShiftedNonlocal(0.1), NoKernelShiftedNonlocal(0.1)
    for n, workers in itertools.product((2, 4097, 9000), (1, 2)):
        for p, q in pairs:
            want = repr(estimate_correlation(twin, p, q, s, n, workers))
            assert repr(estimate_correlation(shifted, p, q, s, n, workers)) == want, (p, q, n)
            joint = [estimate_joint(DeterministicEmbedding(m), p, q, s, n, workers)
                     for m in (shifted, twin)]
            assert repr(joint[0]) == repr(joint[1]), (p, q, n)
    assert estimate_correlation(shifted, a, b, s, 9000) != estimate_correlation(
        SettingBiasedSignModel(0.1), a, b, s, 9000)

    def product(p, q, lam):
        (u, c_a), (v, c_b), sigma_b = shifted.kernel_rows(p, q)
        d_a = u.x * lam[0] + u.y * lam[1] + u.z * lam[2] + c_a
        d_b = v.x * lam[0] + v.y * lam[1] + v.z * lam[2] + c_b
        return (1.0 if d_a >= 0.0 else -1.0) * sigma_b * (1.0 if d_b >= 0.0 else -1.0)

    q = SettingsQuad(a=a, b=b, a_prime=Z_AXIS, b_prime=unit_from_plane_angle(0.4))
    for lam in s.sample_batch(0, 2000):
        assert cross_term(shifted, q, lam) == (
            product(q.a, q.b, lam) * product(q.a_prime, q.b_prime, lam)
            - product(q.a, q.b_prime, lam) * product(q.a_prime, q.b, lam)), lam


def test_a_plain_deterministic_subclass_takes_the_per_draw_path(monkeypatch):
    class PlainSign(DeterministicModel):
        def outcomes(self, a, b, lam):
            return LocalSignModel().outcomes(a, b, lam)

    s, n = sphere_sampler(seed=3), 4097
    a, b = Z_AXIS, unit_from_plane_angle(1.3)
    want = repr(estimate_correlation(LocalSignModel(), a, b, s, n))
    want_joint = repr(estimate_joint(DeterministicEmbedding(LocalSignModel()), a, b, s, n))
    draws = []
    lambda_batch = _k.lambda_batch

    def counting(sampler_kind, dim, seed, start, count):
        draws.extend(range(start, start + count))
        return lambda_batch(sampler_kind, dim, seed, start, count)

    def no_kernel(*args):
        raise AssertionError("a kernel ran for a model without kernel_kind")

    for name in ("reduce_product", "reduce_joint", "reduce_pairs"):
        monkeypatch.setattr(_k, name, no_kernel)
    monkeypatch.setattr(_k, "lambda_batch", counting)
    oracle = make_correlation_oracle(PlainSign(), s, n)
    assert not hasattr(oracle, "pairs")
    assert repr(oracle(a, b)) == want and draws == list(range(n))
    assert repr(estimate_joint(DeterministicEmbedding(PlainSign()), a, b, s, n)) == want_joint


def test_worker_count_is_invisible():
    s = sphere_sampler(seed=6)
    a, b = Z_AXIS, unit_from_plane_angle(0.8)
    one = estimate_correlation(LocalSignModel(), a, b, s, 30000, workers=1)
    many = estimate_correlation(LocalSignModel(), a, b, s, 30000, workers=5)
    assert (one.value, one.stderr) == (many.value, many.stderr)


def test_coin_correlation_is_exactly_zero():
    est = estimate_stochastic_correlation(CoinModel(), Z_AXIS, X_AXIS, sphere_sampler(), 1000)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_linear_model_correlation_is_one_third_of_quantum():
    s = sphere_sampler(seed=8)
    for a, b in ((Z_AXIS, Z_AXIS), (Z_AXIS, unit_from_plane_angle(1.2))):
        est = estimate_stochastic_correlation(LinearStochasticModel(), a, b, s, 100000)
        want = -a.dot(b) / 3.0
        assert abs(est.value - want) < 4.0 * est.stderr + 1e-9
        assert abs(est.value - want) < 0.02


def test_linear_contract_violation_reports_first_bad_draw():
    a = UnitVector3(0.577350269189626, 0.577350269189626, 0.577350269189626)
    with pytest.raises(ContractViolationError, match="at draw 3"):
        estimate_stochastic_correlation(
            LinearStochasticModel(), a, Z_AXIS, cube_sampler(dim=3, seed=0), 4096
        )
    # the reported draw must not depend on the worker count
    with pytest.raises(ContractViolationError, match="at draw 3"):
        estimate_stochastic_correlation(
            LinearStochasticModel(), a, Z_AXIS, cube_sampler(dim=3, seed=0), 20000,
            workers=6,
        )


def test_embedding_reproduces_deterministic_estimator_bitwise():
    s = sphere_sampler(seed=10)
    a, b = Z_AXIS, unit_from_plane_angle(2.0)
    inner = LocalSignModel()
    direct = estimate_correlation(inner, a, b, s, 10000)
    embedded = estimate_stochastic_correlation(DeterministicEmbedding(inner), a, b, s, 10000)
    assert direct.value == embedded.value
    assert direct.stderr == embedded.stderr


def test_embedding_of_a_draw_independent_model_walks_no_draws(monkeypatch):
    # the embedding takes its inner model's draw independence, with the
    # bits of walking every draw (its 0 and +/-1 values sum exactly)
    a, b = Z_AXIS, unit_from_plane_angle(2.0)
    assert DeterministicEmbedding(FixedOutcomeModel()).draw_independent
    assert not DeterministicEmbedding(PerDrawFixed()).draw_independent
    assert not DeterministicEmbedding(LocalSignModel()).draw_independent
    cases = [(s, n, w, alpha, beta)
             for s in (sphere_sampler(seed=3), cube_sampler(dim=5, seed=4))
             for n, w in itertools.product((2, 4097), (1, 2))
             for alpha, beta in ((1.0, -1.0), (-1.0, -1.0))]
    walked = {}
    for s, n, w, alpha, beta in cases:
        per_draw = DeterministicEmbedding(PerDrawFixed(alpha, beta))
        walked[s, n, w, alpha, beta] = [
            repr(estimator(per_draw, a, b, s, n, w))
            for estimator in (estimate_stochastic_correlation, estimate_joint)]

    draws, lambda_batch = [], _k.lambda_batch

    def counting(sampler_kind, dim, seed, start, count):
        draws.extend(range(start, start + count))
        return lambda_batch(sampler_kind, dim, seed, start, count)

    monkeypatch.setattr(_k, "lambda_batch", counting)
    for s, n, w, alpha, beta in cases:
        model = DeterministicEmbedding(FixedOutcomeModel(alpha, beta))
        assert [repr(estimator(model, a, b, s, n, w))
                for estimator in (estimate_stochastic_correlation, estimate_joint)
                ] == walked[s, n, w, alpha, beta]
        assert make_correlation_oracle(model, s, n, w)(a, b).value == alpha * beta
    # one evaluation at draw 0 per estimate, the draw-independent model's
    assert draws == [0] * (3 * len(cases))


def test_draw_independent_int_outcomes_give_the_walked_floats():
    class IntFixed(DeterministicModel):
        draw_independent = True

        def outcomes(self, a, b, lam):
            return (1, -1)

    class IntFixedWalked(IntFixed):
        draw_independent = False

    s = sphere_sampler(seed=1)
    for estimator, model, walked in (
        (estimate_correlation, IntFixed(), IntFixedWalked()),
        (estimate_stochastic_correlation, DeterministicEmbedding(IntFixed()),
         DeterministicEmbedding(IntFixedWalked())),
        (estimate_joint, DeterministicEmbedding(IntFixed()),
         DeterministicEmbedding(IntFixedWalked())),
    ):
        assert repr(estimator(model, Z_AXIS, X_AXIS, s, 100)) == repr(
            estimator(walked, Z_AXIS, X_AXIS, s, 100))


def _per_draw_reference(value, s, n):
    """(mean, stderr) of each component of ``value(lam)`` over draws
    0..n-1, by the per-draw loop: accumulated in draw order within each
    4096-draw chunk, the chunks folded in chunk order."""
    parts = [ref_accumulate4([value(ref_draw3(s.kind_code, s.seed, i))
                              for i in range(start, min(n, start + 4096))])
             for start in range(0, n, 4096)]
    return [_mc._finalize(*f, n) for f in ref_fold4(parts)]


@pytest.mark.parametrize("workers", [1, 2])
def test_per_draw_estimates_are_the_per_draw_loop(workers):
    # every estimator's per-draw path and integrate share one chunk loop
    a, b = unit_from_angles(0.6, 1.2), unit_from_angles(2.4, -0.4)

    def product(m):
        def value(lam):
            alpha, beta = m.outcomes(a, b, lam)
            return (alpha * beta,)
        return value

    def joint(lam):
        p = LinearStochasticModel().probabilities(a, b, lam)
        return (p.p1_plus * p.p2_plus, p.p1_minus * p.p2_minus,
                p.p1_plus * p.p2_minus, p.p1_minus * p.p2_plus)

    def mean_product(lam):
        p = LinearStochasticModel().probabilities(a, b, lam)
        return ((p.p1_plus - p.p1_minus) * (p.p2_plus - p.p2_minus),)

    sign, nonlocal_sign = NoKernelSign(), NoKernelNonlocal(0.1)
    for s in (sphere_sampler(seed=11), cube_sampler(dim=3, seed=12)):
        for n in (2, 4096, 4097, 9000):
            cases = [
                (estimate_correlation(sign, a, b, s, n, workers), product(sign)),
                (estimate_correlation(nonlocal_sign, a, b, s, n, workers),
                 product(nonlocal_sign)),
                (estimate_stochastic_correlation(DeterministicEmbedding(nonlocal_sign),
                                                 a, b, s, n, workers), product(nonlocal_sign)),
            ]
            if s.kind == "uniform_sphere":
                cases += [
                    (estimate_stochastic_correlation(NoKernelLinear(), a, b, s, n, workers),
                     mean_product),
                    (estimate_joint(NoKernelLinear(), a, b, s, n, workers), joint),
                ]
            for est, value in cases:
                want = _per_draw_reference(value, s, n)
                if isinstance(est, CorrelationEstimate):
                    want = CorrelationEstimate(*want[0], n=n)
                else:
                    want = JointTable(*[m for m, _ in want], *[e for _, e in want], n=n)
                assert repr(est) == repr(want), (est, s, n)
            got = integrate(lambda lam: lam[0] * lam[1] - lam[2], s, n, workers)
            mean, stderr = _per_draw_reference(lambda lam: (lam[0] * lam[1] - lam[2],), s, n)[0]
            assert repr(got) == repr(MonteCarloEstimate(mean, stderr, n))


def test_joint_table_linear_aligned():
    t = estimate_joint(LinearStochasticModel(), Z_AXIS, Z_AXIS, sphere_sampler(seed=1), 100000)
    pp, mm, pm, mp = linear_joint_quad((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    assert abs(t.p_pp - pp) < 4.0 * t.stderr_pp + 1e-9
    assert abs(t.p_pm - pm) < 4.0 * t.stderr_pm + 1e-9
    assert abs(t.total() - 1.0) < 1e-12
    assert t.n == 100000


def test_joint_table_matches_product_estimator():
    s = sphere_sampler(seed=3)
    a, b = Z_AXIS, unit_from_plane_angle(0.9)
    t = estimate_joint(LinearStochasticModel(), a, b, s, 50000)
    est = estimate_stochastic_correlation(LinearStochasticModel(), a, b, s, 50000)
    assert abs(t.correlation() - est.value) < 1e-12


def test_joint_python_fallback_path():
    # an embedding of a model without a kernel takes the per-draw path
    s = sphere_sampler(seed=5)
    t = estimate_joint(DeterministicEmbedding(NoKernelSign()), Z_AXIS, X_AXIS, s, 5000)
    assert abs(t.total() - 1.0) < 1e-12
    direct = estimate_correlation(LocalSignModel(), Z_AXIS, X_AXIS, s, 5000)
    assert abs(t.correlation() - direct.value) < 1e-12


def test_joint_worker_invariance():
    s = sphere_sampler(seed=7)
    one = estimate_joint(LinearStochasticModel(), Z_AXIS, X_AXIS, s, 30000, workers=1)
    many = estimate_joint(LinearStochasticModel(), Z_AXIS, X_AXIS, s, 30000, workers=4)
    assert one == many


def test_quantum_correlation_closed_form():
    b = unit_from_plane_angle(1.0)
    est = quantum_correlation(Z_AXIS, b)
    assert est.exact and est.n == 0 and est.stderr == 0.0
    assert est.value == -Z_AXIS.dot(b)


def test_quantum_correlation_exact_limits():
    v = UnitVector3(0.36, 0.48, 0.8)
    assert quantum_correlation(v, v).value == -1.0
    assert quantum_correlation(v, -v).value == 1.0


@given(coords, coords, coords, coords)
def test_complex_correlation_matches_projection(zr, zi, wr, wi):
    z = RiemannPoint.finite(zr, zi)
    w = RiemannPoint.finite(wr, wi)
    got = quantum_correlation_complex(z, w)
    want = -stereographic_project(z).dot(stereographic_project(w))
    assert abs(got - want) < 1e-12
    assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


def test_complex_correlation_at_infinity():
    assert quantum_correlation_complex(INFINITY, INFINITY) == -1.0
    z = RiemannPoint.finite(0.5, 0.0)
    m = 0.25
    assert quantum_correlation_complex(z, INFINITY) == (1.0 - m) / (1.0 + m)
    assert quantum_correlation_complex(INFINITY, z) == (1.0 - m) / (1.0 + m)
    # overflowing |z|^2 lands on the infinity limit instead of nan:
    # effectively the south pole against the north pole, so +1
    huge = RiemannPoint.finite(1e300, 1e300)
    assert quantum_correlation_complex(huge, RiemannPoint.finite(0.0, 0.0)) == 1.0
    assert quantum_correlation_complex(huge, huge) == -1.0


def test_complex_correlation_antipodal_pair():
    # w = -1/conj(z) is the antipode; correlation must be +1
    z = complex(0.7, -0.3)
    w = -1.0 / z.conjugate()
    got = quantum_correlation_complex(
        RiemannPoint.from_complex(z), RiemannPoint.from_complex(w)
    )
    assert abs(got - 1.0) < 1e-12


def test_series_correlation_closed_form_path():
    pair = impose_anticorrelation(delta_coefficients())
    b = unit_from_plane_angle(0.7)
    est = series_correlation(pair, Z_AXIS, b, sphere_sampler(), 1000)
    assert est.exact and est.n == 0 and est.stderr == 0.0
    assert est.value == -(Z_AXIS.dot(b)) ** 2
    assert est.value <= 0.0


def test_series_correlation_draw_dependent_path():
    base = delta_coefficients()
    pair = impose_anticorrelation(base, generator=lambda lam: base)
    assert pair_needs_sampler(pair)
    b = unit_from_plane_angle(0.7)
    est = series_correlation(pair, Z_AXIS, b, sphere_sampler(), 10000)
    assert not est.exact and est.n == 10000
    # constant generator: every draw contributes the same value
    assert est.stderr == 0.0
    assert abs(est.value - -(Z_AXIS.dot(b)) ** 2) < 1e-14


_BASE2 = random_coefficients(coeff_seed=5, degree=2)
_BASES = {d: random_coefficients(coeff_seed=40 + d, degree=d) for d in range(1, 17)}


def _scaled_series(lam):
    # the seeded degree-2 table scaled by a factor in [0, 1] from the draw
    return RealAnalyticCoefficients(degree=2, table=_BASE2.table * (0.5 + 0.5 * lam[0]))


def _mixed_series(lam):
    # degrees 1, 2, 3 and 5 in one chunk, each with a constant term
    d = (1, 2, 3, 5)[int(4.0 * lam[0]) % 4]
    return RealAnalyticCoefficients(degree=d, table=_BASES[d].table * (lam[1] - 0.5),
                                    constant_term=lam[2] - 0.25, includes_constant_term=True)


_BASE16 = random_coefficients(coeff_seed=16, degree=16)


def _degree16_series(lam):
    return RealAnalyticCoefficients(degree=16, table=_BASE16.table * lam[2])


def _any_degree_series(lam):
    # every degree 1..16 in one chunk, a constant term on about half the draws
    d = 1 + int(16.0 * lam[1]) % 16
    c0 = lam[0] - 0.5 if lam[2] > 0.5 else 0.0
    return RealAnalyticCoefficients(degree=d, table=_BASES[d].table * (lam[0] - 0.5),
                                    constant_term=c0, includes_constant_term=c0 != 0.0)


# (generator, sampler, n, repr) recorded with the per-draw scalar loop.
_FROZEN_SERIES = [
    (_scaled_series, sphere_sampler(seed=7), 4097,
     "CorrelationEstimate(value=-0.000152241008242271, stderr=2.130636995790668e-06, "
     "n=4097, exact=False)"),
    (_scaled_series, sphere_sampler(seed=3), 4096,
     "CorrelationEstimate(value=-0.00015278004666112268, stderr=2.120538113521071e-06, "
     "n=4096, exact=False)"),
    (_mixed_series, cube_sampler(3, seed=11), 9000,
     "CorrelationEstimate(value=-0.14342949620982476, stderr=0.0016991315679710567, "
     "n=9000, exact=False)"),
    (_mixed_series, cube_sampler(3, seed=12), 2,
     "CorrelationEstimate(value=-0.21112203748111624, stderr=0.2039854443322186, "
     "n=2, exact=False)"),
]
_FROZEN_DEGREE16 = [
    (5, "CorrelationEstimate(value=-2.4673211778210677e-09, stderr=9.694100628638458e-10, "
        "n=5, exact=False)"),
    (4100, "CorrelationEstimate(value=-2.6191614606393417e-09, stderr=3.631671415900002e-11, "
           "n=4100, exact=False)"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_frozen_draw_dependent_series_estimates(workers):
    a, b = unit_from_plane_angle(0.3), unit_from_angles(2.1, 0.8)
    for generator, s, n, want in _FROZEN_SERIES:
        pair = impose_anticorrelation(_BASE2, generator=generator)
        assert repr(series_correlation(pair, a, b, s, n, workers)) == want
    a, b = unit_from_angles(0.9, 0.4), unit_from_angles(1.7, 2.5)
    pair = impose_anticorrelation(_BASE2, generator=_degree16_series)
    for n, want in _FROZEN_DEGREE16:
        assert repr(series_correlation(pair, a, b, sphere_sampler(seed=16), n, workers)) == want


def _series_reference(generator, a, b, s, n):
    parts = ref_series_parts(generator, a.as_tuple(), b.as_tuple(), s.kind_code, s.seed, n)
    mean, stderr = _mc.combine_scalar(parts, n)
    return CorrelationEstimate(value=mean, stderr=stderr, n=n, exact=False)


def test_draw_dependent_series_estimates_are_the_per_draw_loop():
    a, b = unit_from_angles(0.6, 1.2), unit_from_angles(2.4, -0.4)
    for generator, s in ((_mixed_series, cube_sampler(3, seed=4)),
                         (_scaled_series, sphere_sampler(seed=5))):
        pair = impose_anticorrelation(_BASE2, generator=generator)
        for n in (2, 4096, 4097, 9000):
            want = repr(_series_reference(generator, a, b, s, n))
            for workers in (1, 2):
                assert repr(series_correlation(pair, a, b, s, n, workers)) == want, (n, workers)


def test_series_chunks_of_every_degree_are_the_per_draw_loop(monkeypatch):
    # the default block holds a whole chunk up to degree 3 and fills
    # mid-chunk above it; a 100-coefficient block fills after every draw
    # of degree 4 and up and after a few draws of degrees 1 to 3
    a, b = unit_from_angles(1.1, 0.5), unit_from_angles(0.2, 2.9)
    s = sphere_sampler(seed=6)
    pair = impose_anticorrelation(_BASE2, generator=_any_degree_series)
    want = repr(_series_reference(_any_degree_series, a, b, s, 4097))
    for block in (correlation_module._SERIES_BLOCK, 100):
        monkeypatch.setattr(correlation_module, "_SERIES_BLOCK", block)
        for workers in (1, 2):
            assert repr(series_correlation(pair, a, b, s, 4097, workers)) == want, block


def test_series_chunk_values_keep_signed_zeros_infinities_and_nans():
    # per draw: a -0.0 constant over -0.0 coefficients (the sum stays
    # -0.0 at positive settings), coefficients whose sum overflows to +inf
    # or -inf, and settings off the unit sphere whose overflowing powers
    # give inf - inf = NaN
    tables = [np.full((1, 1, 3, 3), -0.0), np.full((1, 1, 3, 3), 1.7e308),
              np.full((2, 2, 3, 3), -1.7e308), np.ones((2, 2, 3, 3)),
              np.full((1, 1, 3, 3), 0.25)]
    signed = np.ones((2, 2, 3, 3))
    signed[0, 0, 0, 0] = -1.0
    tables.append(signed)

    def generator(lam):
        k = int(lam[0] * 1e6) % len(tables)
        return RealAnalyticCoefficients(degree=len(tables[k]), table=tables[k],
                                        constant_term=-0.0 if k == 0 else 0.5,
                                        includes_constant_term=True)

    pair = impose_anticorrelation(_BASE2, generator=generator)
    s = cube_sampler(3, seed=9)
    lams = s.sample_batch(0, 300)
    seen = set()
    for a, b in (((1.0, 0.5, 0.25), (0.5, 1.0, 0.75)), ((1e200, 0.5, 0.5), (1e200, -1e200, 0.5))):
        powers = _k.series_powers(*a, *b)
        got = correlation_module._series_chunk(pair, powers, lams, 0).tolist()
        want = []
        for lam in lams:
            c = generator(lam)
            want.append(ref_series_value(c.table.ravel().tolist(), c.degree,
                                         c.effective_constant(), a, b))
        assert repr(got) == repr(want)
        seen.update(repr(v) for v in want)
    assert {"-0.0", "inf", "-inf", "nan"} <= seen


def test_series_generator_must_return_coefficients():
    base = delta_coefficients()
    calls = []

    def generator(lam):
        calls.append(lam)
        return base.table if len(calls) == 4100 else base

    pair = impose_anticorrelation(base, generator=generator)
    with pytest.raises(ValueError, match="returned ndarray at draw 4099"):
        series_correlation(pair, Z_AXIS, X_AXIS, sphere_sampler(), 5000)
    assert len(calls) == 4100
    pair = impose_anticorrelation(base, generator=lambda lam: None)
    with pytest.raises(ValueError, match="returned NoneType at draw 0, expected "
                                         "RealAnalyticCoefficients"):
        series_correlation(pair, Z_AXIS, X_AXIS, sphere_sampler(), 5000, workers=2)


def test_series_correlation_type_check():
    with pytest.raises(ValueError, match="series"):
        series_correlation(CoinModel(), Z_AXIS, X_AXIS, sphere_sampler(), 100)


def test_oracle_dispatch():
    assert make_correlation_oracle(QuantumCorrelationModel()) is quantum_correlation
    s = sphere_sampler()
    est = make_correlation_oracle(LocalSignModel(), s, n=1000)(Z_AXIS, Z_AXIS)
    assert est.value == -1.0
    est = make_correlation_oracle(CoinModel(), s, n=1000)(Z_AXIS, X_AXIS)
    assert est.value == 0.0
    pair = impose_anticorrelation(delta_coefficients())
    est = make_correlation_oracle(pair)(Z_AXIS, Z_AXIS)
    assert est.value == -1.0
    with pytest.raises(ValueError, match="sampler"):
        make_correlation_oracle(LocalSignModel())
    with pytest.raises(ValueError, match="no correlation estimator"):
        make_correlation_oracle(42)


def _pair_requests(seed, count):
    rng = random.Random(seed)
    points = [unit_from_plane_angle(rng.uniform(0.0, 2.0 * math.pi)) for _ in range(12)]
    return [(rng.choice(points), rng.choice(points)) for _ in range(count)]


def test_oracle_pairs_give_the_per_pair_estimates(monkeypatch):
    # repeated settings and pairs; whole and partial chunks; group bounds
    # shrunk so one request splits into several kernel passes
    pairs = _pair_requests(3, 60)
    passes = []
    reduce_pairs = _k.reduce_pairs

    def recording(kind, A, B, I, J, *rest):
        passes.append((len(A), len(B), len(I)))
        return reduce_pairs(kind, A, B, I, J, *rest)

    monkeypatch.setattr(_k, "reduce_pairs", recording)
    for model in (LocalSignModel(), LinearStochasticModel()):
        for n, workers in ((2, 1), (3 * 4096 + 5, 1), (3 * 4096 + 5, 2)):
            oracle = make_correlation_oracle(model, sphere_sampler(seed=4), n, workers=workers)
            want = [repr(oracle(a, b)) for a, b in pairs]
            assert [repr(e) for e in oracle.pairs(pairs)] == want
            assert [repr(e) for e in ask_pairs(oracle, pairs)] == want
            with monkeypatch.context() as m:
                m.setattr(correlation_module, "_BATCH_SETTINGS", 3)
                passes.clear()
                assert [repr(e) for e in oracle.pairs(pairs)] == want
                assert max(max(a, b) for a, b, _ in passes) == 3


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_held_by_an_estimate_does_not_grow_with_n(monkeypatch):
    # each pair folds its chunks as they come, so 256 chunks hold no more
    # than 16 do; 12 pairs in two kernel passes of three settings a side.
    # Cube draws are the cheapest, and settings in the second and fourth
    # quadrants of the x-z plane keep the linear model's probabilities in
    # [0, 1] on the cube.
    monkeypatch.setattr(correlation_module, "_BATCH_SETTINGS", 3)
    points = [unit_from_plane_angle(math.pi / 2 + 0.3 * (k // 2) + math.pi * (k % 2))
              for k in range(12)]
    pairs = [(points[3 * g + i], points[6 + 3 * g + j])
             for g in range(2) for i in range(3) for j in range(2)]
    assert len(list(correlation_module._pair_groups(LocalSignModel(), pairs))) == 2
    s = cube_sampler(3, seed=1)
    calls = [lambda n: estimate_correlation(LocalSignModel(), Z_AXIS, X_AXIS, s, n)]
    for model in (LocalSignModel(), LinearStochasticModel()):
        calls.append(lambda n, m=model: make_correlation_oracle(m, s, n).pairs(pairs))
    for call in calls:
        call(2)
        small, large = (_peak_bytes(lambda: call(n)) for n in (2**16, 2**20))
        assert abs(large - small) < 32 << 10, (small, large)
    # the joint table folds its four rows the same way
    for model in (LinearStochasticModel(), DeterministicEmbedding(LocalSignModel())):
        estimate_joint(model, Z_AXIS, X_AXIS, s, 2)
        small, large = (_peak_bytes(lambda: estimate_joint(model, Z_AXIS, X_AXIS, s, n))
                        for n in (2**16, 2**20))
        assert abs(large - small) < 64 << 10, (small, large)


def test_the_bad_probability_raised_is_the_earliest_pairs_across_chunks_and_groups(monkeypatch):
    # late goes bad in chunk 5, early in chunk 0: the pair asked first
    # decides, in one kernel pass or in one pass per pair
    late = UnitVector3(math.sin(3e-4), 0.0, math.cos(3e-4))
    early = UnitVector3(math.sin(0.3), 0.0, math.cos(0.3))
    s = cube_sampler(3, seed=0)
    oracle = make_correlation_oracle(LinearStochasticModel(), s, 30000)
    late_bad = "probability 1.0000390244574922 outside [0, 1] at draw 22565"
    early_bad = "probability 1.0390326098568647 outside [0, 1] at draw 4"
    # the joint table raises the same earliest draw
    for a, message in ((late, late_bad), (early, early_bad)):
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            estimate_joint(LinearStochasticModel(), a, Y_AXIS, s, 30000)
    for request, message in (([(Z_AXIS, Y_AXIS), (late, Y_AXIS), (early, Y_AXIS)], late_bad),
                             ([(early, Y_AXIS), (late, Y_AXIS)], early_bad)):
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            for a, b in request:
                oracle(a, b)
        for settings_a_side in (64, 1):
            monkeypatch.setattr(correlation_module, "_BATCH_SETTINGS", settings_a_side)
            with pytest.raises(ContractViolationError, match=re.escape(message)):
                oracle.pairs(request)


def test_every_chunked_path_makes_one_driver_call(monkeypatch):
    # the pair path, the joint table and the per-draw fold all run their
    # chunks through run_chunk_jobs, once per call; draw-independent models
    # walk no chunks
    calls = []

    def counting(job, n):
        calls.append(n)
        return _mc.run_chunk_jobs(job, n)

    monkeypatch.setattr(correlation_module, "run_chunk_jobs", counting)
    monkeypatch.setattr(hidden_variables, "run_chunk_jobs", counting)
    s = sphere_sampler(seed=2)
    n = 3 * 4096 + 5
    pairs = [(Z_AXIS, X_AXIS), (X_AXIS, Y_AXIS), (Z_AXIS, Y_AXIS)]
    driven = [
        lambda: estimate_correlation(LocalSignModel(), Z_AXIS, X_AXIS, s, n),
        lambda: make_correlation_oracle(LocalSignModel(), s, n).pairs(pairs),
        lambda: estimate_joint(LinearStochasticModel(), Z_AXIS, X_AXIS, s, n),
        lambda: estimate_joint(DeterministicEmbedding(LocalSignModel()), Z_AXIS, X_AXIS, s, n),
        lambda: estimate_correlation(NoKernelSign(), Z_AXIS, X_AXIS, s, n),
        lambda: series_correlation(impose_anticorrelation(_BASE2, generator=_scaled_series),
                                   Z_AXIS, X_AXIS, s, n),
        lambda: integrate(lambda lam: lam[0], s, n),
    ]
    undriven = [
        lambda: estimate_correlation(FixedOutcomeModel(), Z_AXIS, X_AXIS, s, n),
        lambda: estimate_stochastic_correlation(CoinModel(), Z_AXIS, X_AXIS, s, n),
        lambda: estimate_joint(DeterministicEmbedding(FixedOutcomeModel()), Z_AXIS, X_AXIS, s, n),
        lambda: series_correlation(impose_anticorrelation(delta_coefficients()),
                                   Z_AXIS, X_AXIS, s, n),
    ]
    for call, want in [(call, [n]) for call in driven] + [(call, []) for call in undriven]:
        calls.clear()
        call()
        assert calls == want


def _record_draws(monkeypatch):
    """Record the ``draws`` mapping of every reduce_pairs call and every
    (start, count) whose draws are made."""
    seen, made = [], []
    reduce_pairs, columns = _k.reduce_pairs, _k._lambda_columns

    def recording(kind, A, B, I, J, sampler_kind, dim, seed, start, count, draws=None, *rest):
        seen.append(draws)
        return reduce_pairs(kind, A, B, I, J, sampler_kind, dim, seed, start, count, draws, *rest)

    def making(sampler_kind, seed, start, count, ncomp):
        made.append((start, count))
        return columns(sampler_kind, seed, start, count, ncomp)

    monkeypatch.setattr(_k, "reduce_pairs", recording)
    monkeypatch.setattr(_k, "_lambda_columns", making)
    return seen, made


def test_later_batches_read_the_draws_the_second_one_kept(monkeypatch):
    seen, made = _record_draws(monkeypatch)
    batches = [_pair_requests(seed, 7) for seed in range(5)]
    n = 3 * 4096 + 5
    for model in (LocalSignModel(), LinearStochasticModel()):
        for workers in (1, 2):
            want = [[repr(e) for e in make_correlation_oracle(
                model, sphere_sampler(seed=8), n, workers=workers).pairs(batch)]
                for batch in batches]
            seen.clear()
            made.clear()
            oracle = make_correlation_oracle(model, sphere_sampler(seed=8), n, workers=workers)
            assert [[repr(e) for e in oracle.pairs(batch)] for batch in batches] == want
            # the first batch keeps nothing, the second keeps every chunk,
            # and no chunk's draws are made a third time
            assert seen[:4] == [None] * 4
            assert len({id(d) for d in seen[4:]}) == 1
            assert len(seen[4]) == 4
            assert sorted(made) == sorted(list(_mc.chunk_ranges(n)) * 2)


def test_a_one_batch_oracle_keeps_no_draws(monkeypatch):
    seen, _ = _record_draws(monkeypatch)
    s = sphere_sampler(seed=2)
    correlation_sweep(LocalSignModel(), 9, s, n=5000)
    chsh_statistic(make_correlation_oracle(LinearStochasticModel(), s, 5000),
                   SettingsQuad(Z_AXIS, X_AXIS, X_AXIS, Z_AXIS))
    assert seen and seen == [None] * len(seen)


def test_an_oracle_past_the_byte_cap_keeps_no_draws(monkeypatch):
    seen, made = _record_draws(monkeypatch)
    n = 2 * 4096 + 3
    monkeypatch.setattr(correlation_module, "_DRAW_CACHE_BYTES", 24 * n - 1)
    batches = [_pair_requests(seed, 5) for seed in range(4)]
    for model in (LocalSignModel(), LinearStochasticModel()):
        oracle = make_correlation_oracle(model, sphere_sampler(seed=6), n)
        want = [[repr(oracle(a, b)) for a, b in batch] for batch in batches]
        seen.clear()
        made.clear()
        assert [[repr(e) for e in oracle.pairs(batch)] for batch in batches] == want
        assert seen == [None] * (3 * len(batches))
        assert len(made) == 3 * len(batches)
    # at the cap itself the draws are kept
    monkeypatch.setattr(correlation_module, "_DRAW_CACHE_BYTES", 24 * n)
    oracle = make_correlation_oracle(LocalSignModel(), sphere_sampler(seed=6), n)
    seen.clear()
    for batch in batches:
        oracle.pairs(batch)
    assert seen[3:] and None not in seen[3:]


def test_a_kept_chunk_raises_the_uncached_bad_probability(monkeypatch):
    # the linear model on a cube stream is valid at (a, b) and goes bad at
    # (a, b') a few draws in; the third batch reads the chunk the second kept
    seen, _ = _record_draws(monkeypatch)
    s = cube_sampler(dim=3, seed=0)
    a, b, b_prime = Z_AXIS, UnitVector3(0.0, 1.0, 0.0), UnitVector3(0.6, 0.0, 0.8)

    def message(fn):
        with pytest.raises(ContractViolationError) as info:
            fn()
        return str(info.value)

    want = message(lambda: make_correlation_oracle(
        LinearStochasticModel(), s, 10000).pairs([(a, b_prime)]))
    oracle = make_correlation_oracle(LinearStochasticModel(), s, 10000)
    oracle.pairs([(a, b)])
    oracle.pairs([(a, b)])
    assert message(lambda: oracle.pairs([(a, b), (a, b_prime)])) == want
    assert isinstance(seen[-1], dict) and seen[-1] is seen[-2]


def test_only_models_with_a_kernel_on_their_settings_answer_batches():
    # every kernel model whose product depends on the draw, the ones with
    # offsets or fixed axes included
    s = sphere_sampler(seed=5)
    pairs = _pair_requests(6, 9)
    for name in _BUILDERS:
        oracle = make_correlation_oracle(build_model(name), s, n=3000)
        assert hasattr(oracle, "pairs") == (
            name in ("local_sign", "linear", "constant", "nonlocal_sign")), name
        assert [repr(e) for e in ask_pairs(oracle, pairs)] == [
            repr(oracle(a, b)) for a, b in pairs]


def test_batched_oracle_keeps_the_estimator_argument_errors():
    for n, match in ((1, "n must be >= 2"), (2**63, r"n must be <= 2\*\*63 - 1")):
        oracle = make_correlation_oracle(LocalSignModel(), sphere_sampler(), n)
        with pytest.raises(ValueError, match=match):
            oracle.pairs([(Z_AXIS, X_AXIS)])
    oracle = make_correlation_oracle(LocalSignModel(), sphere_sampler(), 100, workers=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        oracle.pairs([(Z_AXIS, X_AXIS)])


def test_sweep_asks_once_and_matches_the_per_pair_estimates():
    s = sphere_sampler(seed=7)
    for model in (LinearStochasticModel(), LocalSignModel(), build_model("nonlocal_sign")):
        rows = correlation_sweep(model, 9, s, n=5000)
        oracle = make_correlation_oracle(model, s, 5000)
        assert [(t, repr(e)) for t, e in rows] == [
            (t, repr(oracle(Z_AXIS, unit_from_plane_angle(t)))) for t, _ in rows]


def test_oracle_dispatch_draw_dependent_pair_needs_sampler():
    base = delta_coefficients()
    pair = impose_anticorrelation(base, generator=lambda lam: base)
    with pytest.raises(ValueError, match="sampler"):
        make_correlation_oracle(pair)
    est = make_correlation_oracle(pair, sphere_sampler(), n=100)(Z_AXIS, Z_AXIS)
    assert abs(est.value - -1.0) < 1e-12


def test_antipodal_contrast_flags_the_contradiction():
    pair = impose_anticorrelation(delta_coefficients())
    report = antipodal_contrast(pair, Z_AXIS, sphere_sampler(), 1000)
    assert report.quantum.value == 1.0
    assert report.series.value == -1.0
    assert report.contradiction
    obj = report.to_json()
    assert obj["a"] == [0.0, 0.0, 1.0]
    assert obj["contradiction"] is True


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_antipodal_contrast_for_random_series(seed):
    pair = impose_anticorrelation(random_coefficients(coeff_seed=seed, degree=3))
    report = antipodal_contrast(pair, unit_from_plane_angle(0.3), sphere_sampler(), 100)
    assert report.series.value <= 0.0
    assert report.contradiction


def test_sweep_grid_and_endpoints():
    rows = correlation_sweep(QuantumCorrelationModel(), steps=5)
    assert len(rows) == 5
    assert rows[0][0] == 0.0
    assert abs(rows[-1][0] - math.pi) < 1e-15
    assert rows[0][1].value == -1.0
    assert rows[-1][1].value == 1.0
    for theta, est in rows:
        assert abs(est.value - -math.cos(theta)) < 1e-12


def test_sweep_validation():
    with pytest.raises(ValueError, match="steps"):
        correlation_sweep(QuantumCorrelationModel(), steps=1)


def test_sweep_accepts_zoo_models():
    rows = correlation_sweep(
        build_model("local_sign"), steps=3, s=sphere_sampler(), n=2000
    )
    assert rows[0][1].value == -1.0  # aligned settings anticorrelate exactly


def test_estimate_json_shapes():
    est = quantum_correlation(Z_AXIS, X_AXIS)
    assert est.to_json() == {"value": -0.0, "stderr": 0.0, "n": 0, "exact": True}
    t = estimate_joint(CoinModel(), Z_AXIS, X_AXIS, sphere_sampler(), 100)
    obj = t.to_json()
    assert set(obj) == {"p_pp", "p_mm", "p_pm", "p_mp", "n"}
    assert obj["p_pp"] == {"value": 0.25, "stderr": 0.0}
