"""The hidden-variable model zoo.

Four families, mirroring the way such models are usually classified:

* deterministic dichotomic models, outcomes exactly +/-1 per draw;
* stochastic factorized models, per-party outcome probabilities per draw;
* setting-constant models, outcomes fixed by the draw alone;
* real-analytic series models, outcome functions given by truncated double
  power series in the setting components, paired so that the second side
  is the negation of the first by construction.

Every zoo member is constructible by name through ``build_model`` and is
immutable after construction; its locality class is only in ``catalog.ZOO``.
Hooks steer the estimators, which otherwise call the evaluator on every
draw: ``kernel_kind`` names the kernel (sign or linear) that computes the
model's per-draw product, on the rows ``kernel_rows(a, b)`` gives for each
setting pair; ``draw_independent`` marks a model (or a series pair without
a generator) whose per-draw product never changes, so one evaluation gives
the estimate. The sign models write their rule once, as ``kernel_rows``:
their per-draw ``outcomes`` are those rows evaluated at one draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _backend as _k
from .catalog import MODEL_NAMES, zoo
from .errors import ContractViolationError, whole_number
from .geometry import UnitVector3, vector_from_list

__all__ = [
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

_NORM_TOL = 1e-12


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
    every draw, so one evaluation gives the estimate. The sign models'
    ``outcomes`` are their ``kernel_rows`` evaluated per draw; a subclass
    that overrides ``outcomes`` must reset the hooks it inherits.
    """

    kernel_kind: Optional[int] = None
    draw_independent: bool = False

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

    kernel_kind: Optional[int] = None
    draw_independent: bool = False
    kernel_rows = DeterministicModel.kernel_rows

    def probabilities(
        self, a: UnitVector3, b: UnitVector3, lam: Sequence[float]
    ) -> SingleProbabilities:
        raise NotImplementedError


class _SignKernelModel(DeterministicModel):
    """A deterministic model that is the sign kernel on its ``kernel_rows``:
    its outcomes at one draw are A = sign(u . lam + c_A) and
    B = sigma_B * sign(v . lam + c_B), with sign(0) = +1."""

    kernel_kind = _k.KIND_SIGN

    def outcomes(self, a, b, lam):
        (u, c_a), (v, c_b), sigma_b = self.kernel_rows(a, b)
        d_a, d_b = _dot3(u, lam) + c_a, _dot3(v, lam) + c_b
        return (1.0 if d_a >= 0.0 else -1.0), sigma_b * (1.0 if d_b >= 0.0 else -1.0)


class LocalSignModel(_SignKernelModel):
    """First party reports sign(a . lam), second reports -sign(b . lam)."""


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


class ConstantNonlocalModel(_SignKernelModel):
    """Outcomes depend on the draw but not on either setting.

    A = sign(u . lam), B = -sign(v . lam) for fixed internal axes u, v. The
    settings are accepted and ignored, which is exactly what makes the
    four-correlation combination collapse to the trivial bound. It is the
    sign model evaluated at (u, v).
    """

    def __init__(
        self,
        u: UnitVector3 = UnitVector3(1.0, 0.0, 0.0),
        v: UnitVector3 = UnitVector3(0.0, 1.0, 0.0),
    ) -> None:
        self.u = u
        self.v = v

    def kernel_rows(self, a, b):
        return (self.u, 0.0), (self.v, 0.0), -1.0


class FixedOutcomeModel(DeterministicModel):
    """Outcomes fixed once and for all: A = alpha, B = beta."""

    draw_independent = True

    def __init__(self, alpha: float = 1.0, beta: float = -1.0) -> None:
        alpha = float(alpha)
        beta = float(beta)
        if alpha not in (1.0, -1.0) or beta not in (1.0, -1.0):
            raise ValueError(f"outcomes must be +1 or -1, got {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta

    def outcomes(self, a, b, lam):
        return (self.alpha, self.beta)


class SettingBiasedSignModel(_SignKernelModel):
    """A deliberately nonlocal sign model used as the nonvanishing witness
    for the four-setting cross term.

    A = sign(a . b + a . lam) leaks the remote setting into the first
    party's outcome; B = sign(b . lam + bias) breaks the antipodal symmetry.
    It is the sign kernel with offsets a . b and bias and B's sign kept.
    """

    def __init__(self, bias: float = 0.1) -> None:
        self.bias = float(bias)

    def kernel_rows(self, a, b):
        return (a, a.dot(b)), (b, self.bias), 1.0


class DeterministicEmbedding(StochasticModel):
    """A deterministic model viewed as a stochastic one.

    Probabilities are exactly 0 or 1, so mean outcomes reproduce the wrapped
    model's +/-1 outcomes bit for bit and the two correlation estimators
    agree exactly on a shared draw stream. It takes the wrapped model's
    hooks: its kernel, when it has one, for the correlation and the joint
    table, and its draw independence, whose 0 and +/-1 values keep exact
    n-fold sums. Like every model, it holds no locality class.
    """

    def __init__(self, inner: DeterministicModel) -> None:
        self.inner = inner
        self.kernel_kind = inner.kernel_kind
        self.draw_independent = inner.draw_independent

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
        if not (-_k.PROB_SLACK <= value <= 1.0 + _k.PROB_SLACK):
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
    i, j in 1..degree and components r, s in 1..3. ``constant_term`` is
    the zeroth-order term; the default series starts at first order.
    """

    degree: int
    table: np.ndarray
    constant_term: float = 0.0

    def __post_init__(self) -> None:
        degree = _checked_degree(self.degree)
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != (degree, degree, 3, 3):
            raise ValueError(
                f"coefficient tensor must have shape {(degree, degree, 3, 3)}, "
                f"got {table.shape}"
            )
        if not np.isfinite(table).all():
            raise ValueError("coefficient tensor must be finite")
        table = table.copy()
        table.setflags(write=False)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "constant_term", float(self.constant_term))

    def negated(self) -> "RealAnalyticCoefficients":
        return RealAnalyticCoefficients(self.degree, -self.table, -self.constant_term)


def evaluate_series(
    c: RealAnalyticCoefficients, a: UnitVector3, b: UnitVector3
) -> float:
    """Value of the truncated series at settings (a, b).

    Not clamped to [-1, 1]: a truncated series is an honest polynomial and
    clamping would destroy the smooth structure the residual checks probe.
    """
    pa, pb = _k.series_powers(a.x, a.y, a.z, b.x, b.y, b.z)
    return float(_k.series_values(c.table[None], c.constant_term, pa, pb)[0])


def _checked_degree(value) -> int:
    degree = whole_number(value, "degree")
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
    seed = whole_number(coeff_seed, "coeff_seed") & _k.MASK64
    # Coefficient t is scale * (2u - 1) for u component 0 of cube draw t.
    u = np.array(_k.lambda_batch(_k.SAMPLER_CUBE, 1, seed, 0, degree * degree * 9))
    return RealAnalyticCoefficients(
        degree=degree, table=(scale * (2.0 * u - 1.0)).reshape(degree, degree, 3, 3)
    )


@dataclass(frozen=True, eq=False)
class AnticorrelatedSeriesPair:
    """A series model pair: the first side A and, optionally, a
    ``generator`` that keys A's coefficients on the draw. The second side is
    B = -A by construction: it is A's coefficients negated, so no pair can
    break the anticorrelation. Without a generator the pair is
    draw-independent, and its correlation is a closed form.
    """

    alpha: RealAnalyticCoefficients
    generator: Optional[Callable[[Sequence[float]], RealAnalyticCoefficients]] = None

    @property
    def draw_independent(self) -> bool:
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
    generator: Optional[Callable[[Sequence[float]], RealAnalyticCoefficients]] = None,
) -> AnticorrelatedSeriesPair:
    """The pair with first side ``c`` (``generator``'s, at a draw): B = -A."""
    return AnticorrelatedSeriesPair(alpha=c, generator=generator)


def _series_delta(degree: int = 1) -> AnticorrelatedSeriesPair:
    return impose_anticorrelation(delta_coefficients(degree))


def _series_random(
    coeff_seed: int = 0, degree: int = 3, scale: Optional[float] = None
) -> AnticorrelatedSeriesPair:
    return impose_anticorrelation(random_coefficients(coeff_seed, degree=degree, scale=scale))


def _real(value) -> float:
    """``value`` as a float. A bool is refused: JSON true is not a number."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _optional_real(x) -> Optional[float]:
    return None if x is None else _real(x)


def _vector(values) -> UnitVector3:
    """``values`` as a UnitVector3; a bool component is refused like ``_real``'s."""
    vector = vector_from_list(values)
    for x in values:
        _real(x)
    return vector


# name -> (constructor, {parameter: converter}), keyed and ordered as
# ``catalog.ZOO``, the one table of each name's locality class.
# Parameters are converted in this order, each passed to the constructor
# under its own name; any other key is refused.
_BUILDERS = {
    name: (make, converters)
    for name, make, converters in (
        ("quantum", QuantumCorrelationModel, {}),
        ("local_sign", LocalSignModel, {}),
        ("coin", CoinModel, {}),
        ("linear", LinearStochasticModel, {}),
        ("constant", ConstantNonlocalModel, {"u": _vector, "v": _vector}),
        ("fixed", FixedOutcomeModel, {"alpha": _real, "beta": _real}),
        ("nonlocal_sign", SettingBiasedSignModel, {"bias": _real}),
        ("series_delta", _series_delta, {"degree": whole_number}),
        ("series_random", _series_random,
         {"coeff_seed": whole_number, "degree": whole_number, "scale": _optional_real}),
    )
}


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
    make, converters = _BUILDERS[name]
    kwargs = {}
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

