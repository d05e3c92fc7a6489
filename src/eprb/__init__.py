"""Simulation and verification toolkit for two-party correlation experiments
under hidden-variable models.

The pieces: measurement-direction geometry on the sphere and the extended
complex plane, reproducible hidden-variable sampling, a model zoo, Monte
Carlo and closed-form correlation estimators, inequality statistics with a
settings maximizer, and finite-difference analyticity diagnostics.

``import eprb`` loads none of these modules and no numpy: each public name
loads its module the first time it is read.
"""

import importlib

# Each public name, by the module that defines it. A name's module is
# imported (with numpy, when that module needs it) the first time the name
# is read; the value is then bound here and never looked up again.
_HOMES = {
    name: module
    for module, names in {
        "_backend": "BACKEND_NAME",
        "analyticity": "ResidualReport Verdict constancy_check pq_nonanalyticity_report "
                       "residual_report wirtinger_residual",
        "catalog": "LocalityClass MODEL_NAMES SAMPLER_KINDS zoo",
        "correlation": "AntipodalContrast CorrelationEstimate JointTable antipodal_contrast "
                       "ask_pairs correlation_sweep estimate_correlation estimate_joint "
                       "estimate_stochastic_correlation make_correlation_oracle "
                       "quantum_correlation series_correlation",
        "errors": "ContractViolationError",
        "geometry": "INFINITY RiemannPoint UnitVector3 X_AXIS Y_AXIS Z_AXIS angle_between "
                    "inverse_project quantum_correlation_complex stereographic_project "
                    "unit_from_angles unit_from_plane_angle",
        "hidden_variables": "LambdaSampler MonteCarloEstimate cube_sampler integrate "
                            "sphere_sampler",
        "inequalities": "BellReport ChshReport MaximizeResult SettingsQuad bell_statistic "
                        "chsh_statistic cross_term maximize_chsh",
        "models": "AnticorrelatedSeriesPair CoinModel ConstantNonlocalModel "
                  "DeterministicEmbedding DeterministicModel FixedOutcomeModel "
                  "LinearStochasticModel LocalSignModel QuantumCorrelationModel "
                  "RealAnalyticCoefficients SettingBiasedSignModel SingleProbabilities "
                  "StochasticModel build_model delta_coefficients evaluate_deterministic "
                  "evaluate_series evaluate_stochastic impose_anticorrelation mean_outcomes "
                  "random_coefficients",
    }.items()
    for name in names.split()
}

# Submodules that resolve as attributes after a bare ``import eprb``.
_SUBMODULES = {*_HOMES.values(), "_mc"}


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        return globals().setdefault(name, value)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})


__version__ = "0.1.0"

__all__ = ["__version__", *_HOMES]
