"""The hidden-variable model zoo.

Four families, mirroring the way such models are usually classified:

* deterministic dichotomic models, outcomes exactly +/-1 per draw;
* stochastic factorized models, per-party outcome probabilities per draw;
* setting-constant models, outcomes fixed by the draw alone;
* real-analytic series models, outcome functions given by truncated double
  power series in the setting components, optionally paired so that one
  side is exactly the negative of the other.

Every zoo member is constructible by name through ``build_model`` and is
immutable after construction. Hooks steer the estimators, which otherwise
call the evaluator on every draw: ``kernel_kind`` names the kernel (sign or
linear) that computes the model's per-draw product, on the rows
``kernel_rows(a, b)`` gives for each setting pair; ``draw_independent``
marks a model whose per-draw product never changes, so one evaluation gives
the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from . import _backend as _k
from .errors import ContractViolationError
from .geometry import UnitVector3, vector_from_list

__all__ = [
    "LocalityClass",
    "SingleProbabilities",
    "DeterministicModel",
    "StochasticModel",
    "LocalSignModel",
    "CoinModel",
    "LinearStochasticModel",
    "ConstantNonlocalModel",
    "FixedOutcomeModel",
    "SettingBiasedSignModel",
    "DeterministicEmbedding",
    "QuantumCorrelationModel",
    "RealAnalyticCoefficients",
    "AnticorrelatedSeriesPair",
    "evaluate_deterministic",
    "evaluate_stochastic",
    "mean_outcomes",
    "evaluate_series",
    "delta_coefficients",
    "random_coefficients",
    "impose_anticorrelation",
    "MODEL_NAMES",
    "build_model",
    "zoo",
]

# Stochastic outputs may stray this far outside [0, 1] before we call it a
# contract violation (matches the kernel's PROB_SLACK).
_PROB_SLACK = 1e-9
_NORM_TOL = 1e-12


class LocalityClass(Enum):
    """How a model's outcomes may depend on the measurement settings."""

    LOCAL = "local"
    CONSTANT_NONLOCAL = "constant_nonlocal"
    GENERAL_NONLOCAL = "general_nonlocal"


@dataclass(frozen=True)
class SingleProbabilities:
    """Per-party outcome probabilities for one hidden-variable draw.

    ``p1_*`` belongs to the first party, ``p2_*`` to the second; each pair
    must sum to 1.
    """

    p1_plus: float
    p1_minus: float
    p2_plus: float
    p2_minus: float

    def mean_first(self) -> float:
        return self.p1_plus - self.p1_minus

    def mean_second(self) -> float:
        return self.p2_plus - self.p2_minus


def _sign(d: float) -> float:
    # Tie convention: sign(0) = +1, matching the kernels.
    return 1.0 if d >= 0.0 else -1.0


def _dot3(v: UnitVector3, lam: Sequence[float]) -> float:
    if len(lam) < 3:
        raise ValueError(
            f"model dots a 3-vector against the draw; got {len(lam)} components"
        )
    return v.x * lam[0] + v.y * lam[1] + v.z * lam[2]


class DeterministicModel:
    """Base for models whose outcomes are exactly +/-1 per draw.

    Subclasses implement ``outcomes``. ``kernel_kind`` names the kernel
    that reproduces ``outcomes`` bit for bit on the rows ``kernel_rows``
    gives; None means estimators call ``outcomes`` per draw.
    ``draw_independent`` promises that the outcome product is the same on
    every draw, so one evaluation gives the estimate. A subclass that
    changes ``outcomes`` must reset the hooks it inherits.
    """

    psi_label: str = "singlet"
    locality_class: LocalityClass = LocalityClass.LOCAL
    kernel_kind: Optional[int] = None
    draw_independent: bool = False

    def __init__(self, psi_label: str = "singlet") -> None:
        self.psi_label = psi_label

    def kernel_rows(self, a: UnitVector3, b: UnitVector3) -> tuple:
        """The kernel's rows at settings (a, b): ((u, c_A), (v, c_B),
        sigma_B). The sign kernel's outcomes are A = sign(u . lam + c_A) and
        B = sigma_B * sign(v . lam + c_B), with sign(0) = +1; the linear one
        takes only the default offsets 0 and sigma_B = -1. The default is
        the settings themselves with those defaults."""
        return (a, 0.0), (b, 0.0), -1.0

    def outcomes(
        self, a: UnitVector3, b: UnitVector3, lam: Sequence[float]
    ) -> tuple[float, float]:
        raise NotImplementedError


class StochasticModel:
    """Base for factorized stochastic models.

    Subclasses implement ``probabilities``; the estimator hooks mean the
    same thing as on DeterministicModel, for the product of the per-draw
    outcome averages and for each joint-table entry.
    """

    psi_label: str = "singlet"
    locality_class: LocalityClass = LocalityClass.LOCAL
    kernel_kind: Optional[int] = None
    draw_independent: bool = False
    kernel_rows = DeterministicModel.kernel_rows

    def __init__(self, psi_label: str = "singlet") -> None:
        self.psi_label = psi_label

    def probabilities(
        self, a: UnitVector3, b: UnitVector3, lam: Sequence[float]
    ) -> SingleProbabilities:
        raise NotImplementedError


class LocalSignModel(DeterministicModel):
    """First party reports sign(a . lam), second reports -sign(b . lam)."""

    kernel_kind = _k.KIND_SIGN

    def outcomes(self, a, b, lam):
        return (_sign(_dot3(a, lam)), -_sign(_dot3(b, lam)))


class CoinModel(StochasticModel):
    """Both parties are fair coins regardless of settings and draw."""

    draw_independent = True

    def probabilities(self, a, b, lam):
        return SingleProbabilities(0.5, 0.5, 0.5, 0.5)


class LinearStochasticModel(StochasticModel):
    """Outcome probabilities linear in the setting-draw overlap.

    P1(+) = (1 + a . lam)/2 and P2(+) = (1 - b . lam)/2. On the unit sphere
    both overlaps stay in [-1, 1], so the probabilities are always valid;
    with a cube-supported draw they can leave [0, 1], which estimators
    surface as a contract violation rather than silently clamping.
    """

    kernel_kind = _k.KIND_LINEAR

    def probabilities(self, a, b, lam):
        d1 = _dot3(a, lam)
        d2 = _dot3(b, lam)
        return SingleProbabilities(
            0.5 * (1.0 + d1),
            0.5 * (1.0 - d1),
            0.5 * (1.0 - d2),
            0.5 * (1.0 + d2),
        )


class ConstantNonlocalModel(DeterministicModel):
    """Outcomes depend on the draw but not on either setting.

    A = sign(u . lam), B = -sign(v . lam) for fixed internal axes u, v. The
    settings are accepted and ignored, which is exactly what makes the
    four-correlation combination collapse to the trivial bound. It is the
    sign model evaluated at (u, v), so it runs on the sign kernel.
    """

    locality_class = LocalityClass.CONSTANT_NONLOCAL
    kernel_kind = _k.KIND_SIGN

    def __init__(
        self,
        u: UnitVector3 = UnitVector3(1.0, 0.0, 0.0),
        v: UnitVector3 = UnitVector3(0.0, 1.0, 0.0),
        psi_label: str = "singlet",
    ) -> None:
        self.u = u
        self.v = v
        self.psi_label = psi_label

    def kernel_rows(self, a, b):
        return (self.u, 0.0), (self.v, 0.0), -1.0

    def outcomes(self, a, b, lam):
        return (_sign(_dot3(self.u, lam)), -_sign(_dot3(self.v, lam)))


class FixedOutcomeModel(DeterministicModel):
    """Outcomes fixed once and for all: A = alpha, B = beta."""

    locality_class = LocalityClass.CONSTANT_NONLOCAL
    draw_independent = True

    def __init__(
        self, alpha: float = 1.0, beta: float = -1.0, psi_label: str = "singlet"
    ) -> None:
        alpha = float(alpha)
        beta = float(beta)
        if alpha not in (1.0, -1.0) or beta not in (1.0, -1.0):
            raise ValueError(f"outcomes must be +1 or -1, got {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta
        self.psi_label = psi_label

    def outcomes(self, a, b, lam):
        return (self.alpha, self.beta)


class SettingBiasedSignModel(DeterministicModel):
    """A deliberately nonlocal sign model used as the nonvanishing witness
    for the four-setting cross term.

    A = sign(a . b + a . lam) leaks the remote setting into the first
    party's outcome; B = sign(b . lam + bias) breaks the antipodal symmetry.
    It is the sign kernel with offsets a . b and bias and B's sign kept.
    """

    locality_class = LocalityClass.GENERAL_NONLOCAL
    kernel_kind = _k.KIND_SIGN

    def __init__(self, bias: float = 0.1, psi_label: str = "singlet") -> None:
        self.bias = float(bias)
        self.psi_label = psi_label

    def kernel_rows(self, a, b):
        return (a, a.dot(b)), (b, self.bias), 1.0

    def outcomes(self, a, b, lam):
        return (
            _sign(a.dot(b) + _dot3(a, lam)),
            _sign(_dot3(b, lam) + self.bias),
        )


class DeterministicEmbedding(StochasticModel):
    """A deterministic model viewed as a stochastic one.

    Probabilities are exactly 0 or 1, so mean outcomes reproduce the wrapped
    model's +/-1 outcomes bit for bit and the two correlation estimators
    agree exactly on a shared draw stream. It runs on the wrapped model's
    kernel, when it has one, for the correlation and the joint table.
    """

    def __init__(self, inner: DeterministicModel) -> None:
        self.inner = inner
        self.psi_label = inner.psi_label
        self.locality_class = inner.locality_class
        self.kernel_kind = inner.kernel_kind

    def kernel_rows(self, a, b):
        return self.inner.kernel_rows(a, b)

    def probabilities(self, a, b, lam):
        alpha, beta = evaluate_deterministic(self.inner, a, b, lam)
        return SingleProbabilities(
            1.0 if alpha > 0.0 else 0.0,
            0.0 if alpha > 0.0 else 1.0,
            1.0 if beta > 0.0 else 0.0,
            0.0 if beta > 0.0 else 1.0,
        )


class QuantumCorrelationModel:
    """Marker for the closed-form singlet correlation.

    Carries no hidden variables; the correlation module evaluates it
    directly from the settings.
    """

    psi_label: str
    locality_class = LocalityClass.GENERAL_NONLOCAL
    kernel_kind = None

    def __init__(self, psi_label: str = "singlet") -> None:
        self.psi_label = psi_label


def evaluate_deterministic(
    m: DeterministicModel, a: UnitVector3, b: UnitVector3, lam: Sequence[float]
) -> tuple[float, float]:
    """Outcomes of a deterministic model, checked to be exactly +/-1."""
    alpha, beta = m.outcomes(a, b, lam)
    if alpha not in (1.0, -1.0) or beta not in (1.0, -1.0):
        raise ContractViolationError(
            f"deterministic model produced non-dichotomic outcomes ({alpha!r}, {beta!r})"
        )
    return (alpha, beta)


def evaluate_stochastic(
    m: StochasticModel, a: UnitVector3, b: UnitVector3, lam: Sequence[float]
) -> SingleProbabilities:
    """Probabilities of a stochastic model, range and normalization checked."""
    p = m.probabilities(a, b, lam)
    for name in ("p1_plus", "p1_minus", "p2_plus", "p2_minus"):
        value = getattr(p, name)
        if not (-_PROB_SLACK <= value <= 1.0 + _PROB_SLACK):
            raise ContractViolationError(
                f"stochastic model produced {name} = {value!r} outside [0, 1]"
            )
    if abs(p.p1_plus + p.p1_minus - 1.0) > _NORM_TOL:
        raise ContractViolationError(
            f"first party's probabilities sum to {p.p1_plus + p.p1_minus!r}, not 1"
        )
    if abs(p.p2_plus + p.p2_minus - 1.0) > _NORM_TOL:
        raise ContractViolationError(
            f"second party's probabilities sum to {p.p2_plus + p.p2_minus!r}, not 1"
        )
    return p


def mean_outcomes(
    m: StochasticModel, a: UnitVector3, b: UnitVector3, lam: Sequence[float]
) -> tuple[float, float]:
    """Per-draw outcome averages (P(+) - P(-) for each party)."""
    p = evaluate_stochastic(m, a, b, lam)
    return (p.p1_plus - p.p1_minus, p.p2_plus - p.p2_minus)


@dataclass(frozen=True, eq=False)
class RealAnalyticCoefficients:
    """Coefficients of a truncated double power series in the settings.

    ``table[i-1, j-1, r-1, s-1]`` multiplies (a_r)^i (b_s)^j for powers
    i, j in 1..degree and components r, s in 1..3. The constant term is
    carried separately and only contributes when ``includes_constant_term``
    is set; the default series starts at first order.
    """

    degree: int
    table: np.ndarray
    constant_term: float = 0.0
    includes_constant_term: bool = False

    def __post_init__(self) -> None:
        degree = _checked_degree(self.degree)
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (degree, degree, 3, 3):
            raise ValueError(
                f"coefficient tensor must have shape {(degree, degree, 3, 3)}, "
                f"got {table.shape}"
            )
        if not np.all(np.isfinite(table)):
            raise ValueError("coefficient tensor must be finite")
        c0 = float(self.constant_term)
        if not self.includes_constant_term and c0 != 0.0:
            raise ValueError(
                "constant_term is only meaningful with includes_constant_term=True"
            )
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "constant_term", c0)
        # Kernel calls take the tensor flattened in (i, j, r, s) order.
        object.__setattr__(self, "_flat", tuple(table.ravel().tolist()))

    def negated(self) -> "RealAnalyticCoefficients":
        return RealAnalyticCoefficients(
            degree=self.degree,
            table=-self.table,
            constant_term=-self.constant_term,
            includes_constant_term=self.includes_constant_term,
        )

    def effective_constant(self) -> float:
        return self.constant_term if self.includes_constant_term else 0.0


def evaluate_series(
    c: RealAnalyticCoefficients, a: UnitVector3, b: UnitVector3
) -> float:
    """Value of the truncated series at settings (a, b).

    Not clamped to [-1, 1]: a truncated series is an honest polynomial and
    clamping would destroy the smooth structure the residual checks probe.
    """
    return _k.series_value(
        c._flat, c.degree, c.effective_constant(),
        a.x, a.y, a.z, b.x, b.y, b.z,
    )


def _checked_degree(value) -> int:
    degree = int(value)
    if degree < 1 or degree > _k.MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{_k.MAX_DEGREE}, got {value}")
    return degree


def delta_coefficients(degree: int = 1) -> RealAnalyticCoefficients:
    """First-order identity coupling: the series value is exactly a . b."""
    degree = _checked_degree(degree)
    table = np.zeros((degree, degree, 3, 3))
    for r in range(3):
        table[0, 0, r, r] = 1.0
    return RealAnalyticCoefficients(degree=degree, table=table)


def random_coefficients(
    coeff_seed: int, degree: int = 3, scale: Optional[float] = None
) -> RealAnalyticCoefficients:
    """Dense seeded coefficients, small enough that |value| <= 1 on unit
    vectors (each of the 9*degree^2 terms is bounded by ``scale``)."""
    degree = _checked_degree(degree)
    if scale is None:
        scale = 1.0 / (9.0 * degree * degree)
    scale = float(scale)
    seed = int(coeff_seed) & _k.MASK64
    # Coefficient t is scale * (2u - 1) for u component 0 of cube draw t.
    u = np.array(_k.lambda_batch(_k.SAMPLER_CUBE, 1, seed, 0, degree * degree * 9))
    return RealAnalyticCoefficients(
        degree=degree, table=(scale * (2.0 * u - 1.0)).reshape(degree, degree, 3, 3)
    )


@dataclass(frozen=True, eq=False)
class AnticorrelatedSeriesPair:
    """A series model pair with the second side pinned to minus the first.

    ``beta`` must be exactly the negation of ``alpha``; build pairs with
    ``impose_anticorrelation``. An optional ``generator`` keys the first
    side's coefficients on the draw; the default pair is draw-independent,
    in which case its correlation is a closed form.
    """

    alpha: RealAnalyticCoefficients
    beta: RealAnalyticCoefficients
    psi_label: str = "singlet"
    generator: Optional[Callable[[Sequence[float]], RealAnalyticCoefficients]] = None
    locality_class = LocalityClass.GENERAL_NONLOCAL

    def __post_init__(self) -> None:
        a, b = self.alpha, self.beta
        if (
            a.degree != b.degree
            or a.includes_constant_term != b.includes_constant_term
            or b.constant_term != -a.constant_term
            or not np.array_equal(b.table, -a.table)
        ):
            raise ValueError(
                "second-side coefficients must be exactly the negation of the first"
            )

    @property
    def lambda_independent(self) -> bool:
        return self.generator is None

    def alpha_at(self, lam: Optional[Sequence[float]] = None) -> RealAnalyticCoefficients:
        if self.generator is not None and lam is not None:
            return self.generator(lam)
        return self.alpha

    def first_value(
        self, a: UnitVector3, b: UnitVector3, lam: Optional[Sequence[float]] = None
    ) -> float:
        return evaluate_series(self.alpha_at(lam), a, b)

    def second_value(
        self, a: UnitVector3, b: UnitVector3, lam: Optional[Sequence[float]] = None
    ) -> float:
        return evaluate_series(self.alpha_at(lam).negated(), a, b)


def impose_anticorrelation(
    c: RealAnalyticCoefficients,
    psi_label: str = "singlet",
    generator: Optional[Callable[[Sequence[float]], RealAnalyticCoefficients]] = None,
) -> AnticorrelatedSeriesPair:
    """Pair coefficients with their exact negation so B(a,b) = -A(a,b) always."""
    return AnticorrelatedSeriesPair(
        alpha=c, beta=c.negated(), psi_label=psi_label, generator=generator
    )


def _series_delta(degree: int = 1, psi_label: str = "singlet") -> AnticorrelatedSeriesPair:
    return impose_anticorrelation(delta_coefficients(degree), psi_label=psi_label)


def _series_random(
    coeff_seed: int = 0, degree: int = 3, scale: Optional[float] = None,
    psi_label: str = "singlet",
) -> AnticorrelatedSeriesPair:
    return impose_anticorrelation(
        random_coefficients(coeff_seed, degree=degree, scale=scale), psi_label=psi_label
    )


def _optional_float(x) -> Optional[float]:
    return None if x is None else float(x)


# name -> (constructor, locality class, {parameter: converter}, summary).
# Parameters are converted in this order, each passed to the constructor
# under its own name; ``psi`` goes to every constructor as ``psi_label``.
_BUILDERS = {
    "quantum": (QuantumCorrelationModel, LocalityClass.GENERAL_NONLOCAL, {},
                "closed-form singlet correlation, no hidden variables"),
    "local_sign": (LocalSignModel, LocalityClass.LOCAL, {},
                   "A = sign(a.lam), B = -sign(b.lam)"),
    "coin": (CoinModel, LocalityClass.LOCAL, {},
             "all four outcome probabilities 1/2"),
    "linear": (LinearStochasticModel, LocalityClass.LOCAL, {},
               "P1(+) = (1 + a.lam)/2, P2(+) = (1 - b.lam)/2"),
    "constant": (ConstantNonlocalModel, LocalityClass.CONSTANT_NONLOCAL,
                 {"u": vector_from_list, "v": vector_from_list},
                 "A = sign(u.lam), B = -sign(v.lam); settings ignored"),
    "fixed": (FixedOutcomeModel, LocalityClass.CONSTANT_NONLOCAL,
              {"alpha": float, "beta": float},
              "A = alpha, B = beta; draw and settings ignored"),
    "nonlocal_sign": (SettingBiasedSignModel, LocalityClass.GENERAL_NONLOCAL,
                      {"bias": float},
                      "A = sign(a.b + a.lam), B = sign(b.lam + bias)"),
    "series_delta": (_series_delta, LocalityClass.GENERAL_NONLOCAL, {"degree": int},
                     "anticorrelated series pair with A(a,b) = a.b"),
    "series_random": (_series_random, LocalityClass.GENERAL_NONLOCAL,
                      {"coeff_seed": int, "degree": int, "scale": _optional_float},
                      "anticorrelated series pair, seeded dense coefficients"),
}

MODEL_NAMES = tuple(_BUILDERS)


def build_model(name: str, params: Optional[dict] = None):
    """Construct a zoo model from its registry name and a parameter dict.

    Parameters a model does not take are rejected only after it is built,
    so a bad value is reported ahead of a stray key.
    """
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown model {name!r}; known models: {', '.join(MODEL_NAMES)}"
        )
    params = dict(params or {})
    make, _, converters, _ = _BUILDERS[name]
    kwargs = {"psi_label": params.pop("psi", "singlet")}
    for key, convert in converters.items():
        if key in params:
            try:
                kwargs[key] = convert(params.pop(key))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"model {name!r} parameter {key!r}: {exc}") from None
    model = make(**kwargs)
    if params:
        raise ValueError(
            f"model {name!r} does not take parameters {sorted(params)}"
        )
    return model


def zoo() -> list[dict]:
    """Registry listing: name, locality class, one-line description."""
    return [
        {"name": name, "locality_class": cls.value, "summary": summary}
        for name, (_, cls, _, summary) in _BUILDERS.items()
    ]
