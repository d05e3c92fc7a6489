import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprb import (
    AnticorrelatedSeriesPair,
    CoinModel,
    ConstantNonlocalModel,
    ContractViolationError,
    DeterministicEmbedding,
    DeterministicModel,
    FixedOutcomeModel,
    LinearStochasticModel,
    LocalSignModel,
    LocalityClass,
    MODEL_NAMES,
    QuantumCorrelationModel,
    RealAnalyticCoefficients,
    SettingBiasedSignModel,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    build_model,
    delta_coefficients,
    evaluate_deterministic,
    evaluate_series,
    evaluate_stochastic,
    impose_anticorrelation,
    mean_outcomes,
    random_coefficients,
    sphere_sampler,
    zoo,
)
from eprb import models as models_module
from oracles_ref import series_brute

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def unit(theta: float, phi: float = 0.0) -> UnitVector3:
    s = math.sin(theta)
    return UnitVector3(s * math.cos(phi), s * math.sin(phi), math.cos(theta))


def draws(seed: int, count: int):
    return sphere_sampler(seed=seed).sample_batch(0, count)


def test_zoo_catalog():
    entries = zoo()
    assert [e["name"] for e in entries] == list(MODEL_NAMES)
    assert len(entries) == 9
    for e in entries:
        assert e["locality_class"] in {c.value for c in LocalityClass}
        assert e["summary"]


def test_build_model_unknown_name_lists_known():
    with pytest.raises(ValueError, match="local_sign"):
        build_model("telepathy")


def test_build_model_rejects_leftover_params():
    with pytest.raises(ValueError, match="does not take parameters"):
        build_model("coin", {"bias": 0.2})


def test_build_model_routes_params():
    m = build_model("fixed", {"alpha": -1.0, "beta": -1.0})
    assert (m.alpha, m.beta) == (-1.0, -1.0)
    c = build_model("constant", {"u": [0.0, 0.0, 1.0], "v": [1.0, 0.0, 0.0]})
    assert c.u.as_tuple() == (0.0, 0.0, 1.0)
    nl = build_model("nonlocal_sign", {"bias": 0.25})
    assert nl.bias == 0.25
    sd = build_model("series_delta", {"degree": 2})
    assert sd.alpha.degree == 2
    sr = build_model("series_random", {"coeff_seed": 5, "degree": 2})
    assert sr.alpha.degree == 2


# Every registry row: the class it builds and, per parameter, a value given
# in a type the converter has to change and a check that it reached the model.
ROUTES = {
    "quantum": (QuantumCorrelationModel, {}),
    "local_sign": (LocalSignModel, {}),
    "coin": (CoinModel, {}),
    "linear": (LinearStochasticModel, {}),
    "constant": (ConstantNonlocalModel, {
        "u": ((0, 0, 1), lambda m: m.u.as_tuple() == (0.0, 0.0, 1.0)),
        "v": ([1, 0, 0], lambda m: m.v.as_tuple() == (1.0, 0.0, 0.0)),
    }),
    "fixed": (FixedOutcomeModel, {
        "alpha": (-1, lambda m: m.alpha == -1.0 and type(m.alpha) is float),
        "beta": ("1", lambda m: m.beta == 1.0),
    }),
    "nonlocal_sign": (SettingBiasedSignModel, {
        "bias": ("0.25", lambda m: m.bias == 0.25),
    }),
    "series_delta": (AnticorrelatedSeriesPair, {
        "degree": ("2", lambda m: m.alpha.degree == 2),
    }),
    "series_random": (AnticorrelatedSeriesPair, {
        "coeff_seed": ("5", lambda m: np.array_equal(
            m.alpha.table, random_coefficients(5, degree=2, scale=0.01).table)),
        "degree": (2.0, lambda m: m.alpha.degree == 2),
        "scale": (0.01, lambda m: np.abs(m.alpha.table).max() <= 0.01),
    }),
}


def test_every_registry_row_routes_its_parameters():
    assert set(ROUTES) == set(MODEL_NAMES)
    for name, (cls, params) in ROUTES.items():
        converters = models_module._BUILDERS[name][2]
        assert list(converters) == list(params), name
        m = build_model(name, {"psi": "triplet", **{k: v for k, (v, _) in params.items()}})
        assert type(m) is cls, name
        assert m.psi_label == "triplet"
        assert m.locality_class.value == next(e for e in zoo() if e["name"] == name)[
            "locality_class"]
        for key, (_, check) in params.items():
            assert check(m), (name, key)
        defaults = build_model(name)
        assert type(defaults) is cls and defaults.psi_label == "singlet"


def test_every_converter_names_its_parameter_on_a_wrong_type():
    for name, (_, params) in ROUTES.items():
        for key in params:
            bads = [[1], {"x": 1}, "junk"]
            if key != "scale":  # a null scale means the default one
                bads.append(None)
            if key in ("degree", "coeff_seed"):
                bads.append(math.inf)
            for bad in bads:
                with pytest.raises(ValueError, match=f"model '{name}' parameter '{key}'"):
                    build_model(name, {key: bad})


def test_bad_value_is_reported_ahead_of_a_leftover_key():
    with pytest.raises(ValueError, match="outcomes must be"):
        build_model("fixed", {"alpha": 0.5, "extra": 1})
    with pytest.raises(ValueError, match="parameter 'alpha'"):
        build_model("fixed", {"extra": 1, "alpha": "high"})
    with pytest.raises(ValueError, match="does not take parameters"):
        build_model("fixed", {"alpha": -1, "extra": 1})


def test_series_degree_out_of_range_is_a_value_error():
    for degree in (0, -1, 17, 10**300):
        for name in ("series_delta", "series_random"):
            with pytest.raises(ValueError, match="degree must be in 1..16"):
                build_model(name, {"degree": degree})
    with pytest.raises(ValueError, match="degree must be in"):
        delta_coefficients(0)


def test_local_sign_outcomes():
    m = LocalSignModel()
    for lam in draws(0, 50):
        alpha, beta = evaluate_deterministic(m, Z_AXIS, X_AXIS, lam)
        assert alpha in (1.0, -1.0) and beta in (1.0, -1.0)
        assert alpha == (1.0 if lam[2] >= 0.0 else -1.0)
    # same setting on both sides: perfect anticorrelation draw by draw
    for lam in draws(1, 50):
        alpha, beta = m.outcomes(Z_AXIS, Z_AXIS, lam)
        assert alpha * beta == -1.0


def test_sign_tie_convention():
    m = LocalSignModel()
    alpha, beta = m.outcomes(Z_AXIS, Z_AXIS, (0.5, 0.8, 0.0))
    assert alpha == 1.0 and beta == -1.0


def test_coin_probabilities():
    p = evaluate_stochastic(CoinModel(), Z_AXIS, X_AXIS, (0.0, 0.0, 1.0))
    assert (p.p1_plus, p.p1_minus, p.p2_plus, p.p2_minus) == (0.5, 0.5, 0.5, 0.5)
    assert p.mean_first() == 0.0 and p.mean_second() == 0.0


@given(angles, angles, angles)
def test_linear_probabilities_formula(ta, tb, tl):
    m = LinearStochasticModel()
    a, b, lam = unit(ta), unit(tb), unit(tl).as_tuple()
    p = evaluate_stochastic(m, a, b, lam)
    d1 = a.x * lam[0] + a.y * lam[1] + a.z * lam[2]
    d2 = b.x * lam[0] + b.y * lam[1] + b.z * lam[2]
    assert abs(p.p1_plus - 0.5 * (1.0 + d1)) < 1e-15
    assert abs(p.p2_plus - 0.5 * (1.0 - d2)) < 1e-15
    assert abs(p.p1_plus + p.p1_minus - 1.0) < 1e-15
    assert abs(p.p2_plus + p.p2_minus - 1.0) < 1e-15


@given(angles, angles, angles, angles)
def test_linear_first_party_ignores_remote_setting(ta, tb1, tb2, tl):
    # no-signaling: the first party's marginal cannot depend on b
    m = LinearStochasticModel()
    a, lam = unit(ta), unit(tl).as_tuple()
    p1 = evaluate_stochastic(m, a, unit(tb1), lam)
    p2 = evaluate_stochastic(m, a, unit(tb2), lam)
    assert p1.p1_plus == p2.p1_plus
    assert p1.p1_minus == p2.p1_minus


def test_linear_out_of_range_draw_is_a_contract_violation():
    m = LinearStochasticModel()
    a = UnitVector3(0.577350269189626, 0.577350269189626, 0.577350269189626)
    with pytest.raises(ContractViolationError):
        evaluate_stochastic(m, a, Z_AXIS, (0.9, 0.9, 0.9))


def test_constant_model_ignores_settings():
    m = ConstantNonlocalModel()
    for lam in draws(2, 100):
        base = m.outcomes(Z_AXIS, Z_AXIS, lam)
        for a, b in ((X_AXIS, Y_AXIS), (Y_AXIS, Z_AXIS), (-Z_AXIS, X_AXIS)):
            assert m.outcomes(a, b, lam) == base


def test_constant_model_defaults_and_params():
    m = ConstantNonlocalModel()
    assert m.u.as_tuple() == (1.0, 0.0, 0.0)
    assert m.v.as_tuple() == (0.0, 1.0, 0.0)
    # the sign kernel runs on the model's own axes, not on the settings
    assert m.kernel_kind == LocalSignModel.kernel_kind
    for a, b in ((X_AXIS, Y_AXIS), (Z_AXIS, -Z_AXIS)):
        assert m.kernel_rows(a, b) == ((m.u, 0.0), (m.v, 0.0), -1.0)


def test_fixed_model_validation_and_outcomes():
    with pytest.raises(ValueError):
        FixedOutcomeModel(alpha=0.5)
    m = FixedOutcomeModel(alpha=1.0, beta=-1.0)
    assert m.outcomes(X_AXIS, Y_AXIS, (0.0, 0.0, 0.0)) == (1.0, -1.0)
    assert m.locality_class is LocalityClass.CONSTANT_NONLOCAL


def test_setting_biased_model_sees_remote_setting():
    m = SettingBiasedSignModel(bias=0.1)
    assert m.locality_class is LocalityClass.GENERAL_NONLOCAL
    # pick a draw where a.lam is small so the a.b term decides A
    lam = (0.0, 1.0, 0.0)
    a_out_near = m.outcomes(Z_AXIS, Z_AXIS, lam)[0]
    a_out_far = m.outcomes(Z_AXIS, -Z_AXIS, lam)[0]
    assert a_out_near == 1.0 and a_out_far == -1.0


def test_deterministic_embedding_is_exact():
    inner = LocalSignModel()
    wrapped = DeterministicEmbedding(inner)
    assert wrapped.locality_class is inner.locality_class
    for lam in draws(3, 100):
        alpha, beta = inner.outcomes(Z_AXIS, X_AXIS, lam)
        p = evaluate_stochastic(wrapped, Z_AXIS, X_AXIS, lam)
        assert p.p1_plus in (0.0, 1.0) and p.p2_plus in (0.0, 1.0)
        assert mean_outcomes(wrapped, Z_AXIS, X_AXIS, lam) == (alpha, beta)


def test_evaluate_deterministic_rejects_rogue_outcomes():
    class Rogue(DeterministicModel):
        def outcomes(self, a, b, lam):
            return (0.5, 1.0)

    with pytest.raises(ContractViolationError):
        evaluate_deterministic(Rogue(), Z_AXIS, X_AXIS, (0.0, 0.0, 1.0))


def test_evaluate_stochastic_rejects_bad_normalization():
    class Rogue(LinearStochasticModel):
        def probabilities(self, a, b, lam):
            p = super().probabilities(a, b, lam)
            return type(p)(p.p1_plus, p.p1_minus + 1e-6, p.p2_plus, p.p2_minus)

    with pytest.raises(ContractViolationError):
        evaluate_stochastic(Rogue(), Z_AXIS, X_AXIS, (0.0, 0.0, 1.0))


def test_quantum_marker_has_no_kernel():
    m = QuantumCorrelationModel()
    assert m.kernel_kind is None
    assert m.locality_class is LocalityClass.GENERAL_NONLOCAL


# --- series coefficients ---


def test_coefficients_validation():
    with pytest.raises(ValueError):
        RealAnalyticCoefficients(degree=0, table=np.zeros((0, 0, 3, 3)))
    with pytest.raises(ValueError):
        RealAnalyticCoefficients(degree=1, table=np.zeros((1, 1, 3, 2)))
    with pytest.raises(ValueError):
        RealAnalyticCoefficients(degree=1, table=np.full((1, 1, 3, 3), math.nan))
    with pytest.raises(ValueError):
        RealAnalyticCoefficients(degree=1, table=np.zeros((1, 1, 3, 3)), constant_term=0.5)
    c = RealAnalyticCoefficients(
        degree=1, table=np.zeros((1, 1, 3, 3)), constant_term=0.5,
        includes_constant_term=True,
    )
    assert c.effective_constant() == 0.5


def test_coefficient_table_is_write_locked():
    c = delta_coefficients()
    with pytest.raises(ValueError):
        c.table[0, 0, 0, 0] = 2.0


def test_delta_series_is_the_dot_product():
    c = delta_coefficients()
    for ta, tb in ((0.0, 1.0), (0.3, 2.0), (1.2, 1.2)):
        a, b = unit(ta), unit(tb, phi=0.7)
        assert evaluate_series(c, a, b) == a.dot(b)


def test_negated_flips_value_exactly():
    c = random_coefficients(coeff_seed=3, degree=3)
    a, b = unit(0.4), unit(1.9, phi=2.0)
    assert evaluate_series(c.negated(), a, b) == -evaluate_series(c, a, b)


def test_flat_coefficients_are_the_table_floats():
    for degree in (1, 2, 4):
        c = random_coefficients(coeff_seed=degree, degree=degree)
        assert c._flat == tuple(float(x) for x in c.table.ravel())
        assert all(type(x) is float for x in c._flat)


def test_random_coefficients_reproducible_and_bounded():
    c1 = random_coefficients(coeff_seed=11, degree=2)
    c2 = random_coefficients(coeff_seed=11, degree=2)
    assert np.array_equal(c1.table, c2.table)
    assert not np.array_equal(c1.table, random_coefficients(coeff_seed=12, degree=2).table)
    # each of the 9 degree^2 terms is bounded by scale on unit vectors
    for seed in range(5):
        c = random_coefficients(coeff_seed=seed, degree=4)
        for ta, tb in ((0.1, 0.5), (1.0, 2.2), (2.8, 0.9)):
            assert abs(evaluate_series(c, unit(ta), unit(tb, phi=1.1))) <= 1.0


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=5),
       angles, angles, angles)
def test_series_value_matches_brute_force(seed, degree, ta, tb, phi):
    c = random_coefficients(coeff_seed=seed, degree=degree)
    a, b = unit(ta, phi=phi), unit(tb)
    got = evaluate_series(c, a, b)
    want = series_brute(c.table, 0.0, a.as_tuple(), b.as_tuple())
    assert abs(got - want) < 1e-12


def test_series_with_constant_term_matches_brute_force():
    c = RealAnalyticCoefficients(
        degree=2,
        table=random_coefficients(coeff_seed=8, degree=2).table,
        constant_term=0.125,
        includes_constant_term=True,
    )
    a, b = unit(0.6), unit(2.1, phi=0.3)
    want = series_brute(c.table, 0.125, a.as_tuple(), b.as_tuple())
    assert abs(evaluate_series(c, a, b) - want) < 1e-12


# --- anticorrelated pairs ---


def test_pair_requires_exact_negation():
    c = delta_coefficients()
    with pytest.raises(ValueError):
        AnticorrelatedSeriesPair(alpha=c, beta=c)
    tweaked = RealAnalyticCoefficients(degree=1, table=-c.table * (1.0 + 1e-15))
    with pytest.raises(ValueError):
        AnticorrelatedSeriesPair(alpha=c, beta=tweaked)


def test_pair_values_are_exact_mirrors():
    pair = impose_anticorrelation(random_coefficients(coeff_seed=4, degree=3))
    assert pair.lambda_independent
    for ta, tb in ((0.2, 1.4), (2.9, 0.1)):
        a, b = unit(ta), unit(tb, phi=1.0)
        assert pair.second_value(a, b) == -pair.first_value(a, b)


def test_pair_generator_keys_on_the_draw():
    def gen(lam):
        return random_coefficients(coeff_seed=int(lam[0] * 1e6) & 0xFFFF, degree=1)

    pair = impose_anticorrelation(delta_coefficients(), generator=gen)
    assert not pair.lambda_independent
    lam = (0.5, 0.1, 0.2)
    a, b = unit(0.3), unit(1.1)
    assert pair.first_value(a, b, lam) == evaluate_series(gen(lam), a, b)
    # no draw given: falls back to the base coefficients
    assert pair.first_value(a, b) == evaluate_series(pair.alpha, a, b)
