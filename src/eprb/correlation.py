"""Correlation estimators and closed-form correlations.

The measured quantity throughout is the expectation of the product of the
two parties' outcomes at settings (a, b): averaged over hidden-variable
draws for the zoo models, or in closed form for the singlet correlation
-a . b and for draw-independent series pairs.

Monte Carlo estimates inherit the chunked-reduction contract: for a fixed
sampler seed the result is bit-identical at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _backend as _k
from ._mc import combine_scalar, require_n, run_chunk_jobs
from ._mc import combine_vec4  # noqa: F401  (unused: perfbench's tracer wraps it here)
from .errors import ContractViolationError
from .geometry import RiemannPoint, UnitVector3, Z_AXIS, unit_from_plane_angle
from .hidden_variables import LambdaSampler, fold_draws
from .models import (
    AnticorrelatedSeriesPair,
    DeterministicModel,
    QuantumCorrelationModel,
    RealAnalyticCoefficients,
    StochasticModel,
    evaluate_deterministic,
    evaluate_series,
    evaluate_stochastic,
    mean_outcomes,
)

__all__ = [
    "CorrelationEstimate",
    "JointTable",
    "estimate_correlation",
    "estimate_stochastic_correlation",
    "estimate_joint",
    "quantum_correlation",
    "quantum_correlation_complex",
    "series_correlation",
    "make_correlation_oracle",
    "ask_pairs",
    "AntipodalContrast",
    "antipodal_contrast",
    "correlation_sweep",
]

# Largest number of angles a sweep evaluates, one estimate each.
MAX_STEPS = 100000

# Bound of one batched kernel pass: at most 64 distinct settings a side,
# so its per-setting factor arrays stay at most 64 x 4096 doubles a side.
_BATCH_SETTINGS = 64

# A draw-dependent series chunk holds at most this many coefficients of
# one degree before it evaluates them (4 MiB): a whole 4096-draw chunk up
# to degree 3, and 227 draws at a time at degree 16.
_SERIES_BLOCK = 1 << 19

# A batched oracle keeps its chunks' draws, three doubles a draw, only
# while they take at most this many bytes (n up to about 1.4 million).
_DRAW_CACHE_BYTES = 32 << 20


@dataclass(frozen=True)
class CorrelationEstimate:
    """A correlation value with its uncertainty.

    ``exact`` marks closed-form evaluations; those carry stderr 0 and n 0.
    """

    value: float
    stderr: float
    n: int
    exact: bool = False

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "n": self.n,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class JointTable:
    """Averaged joint outcome probabilities for one setting pair.

    Entry order is (+,+), (-,-), (+,-), (-,+); entries carry standard
    errors from the same draws.
    """

    p_pp: float
    p_mm: float
    p_pm: float
    p_mp: float
    stderr_pp: float
    stderr_mm: float
    stderr_pm: float
    stderr_mp: float
    n: int

    def total(self) -> float:
        return self.p_pp + self.p_mm + self.p_pm + self.p_mp

    def correlation(self) -> float:
        """Outcome-product expectation implied by the table."""
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp

    def to_json(self) -> dict:
        return {
            "p_pp": {"value": self.p_pp, "stderr": self.stderr_pp},
            "p_mm": {"value": self.p_mm, "stderr": self.stderr_mm},
            "p_pm": {"value": self.p_pm, "stderr": self.stderr_pm},
            "p_mp": {"value": self.p_mp, "stderr": self.stderr_mp},
            "n": self.n,
        }


def _checked_sums(accs, n):
    """(mean, stderr) of each row's ``run_chunk_jobs`` accumulator over ``n``
    draws, after raising the first row's bad probability: a row keeps its
    first bad part, and a kernel chunk stops at its first bad draw."""
    for acc in accs:
        if len(acc) > 4:
            raise ContractViolationError(
                f"stochastic model produced probability {acc[6]!r} outside [0, 1] "
                f"at draw {acc[5]}"
            )
    return [combine_scalar((acc,), n) for acc in accs]


# The estimator families, each with the word that names it in errors.
_FAMILIES = {DeterministicModel: "deterministic", StochasticModel: "stochastic"}


def _estimate(m, family, name, a, b, s, n, workers, joint=False):
    """The body of every Monte Carlo estimator ``name``: the mean over
    draws 0..n-1 of ``s`` of the per-draw outcome product of ``m`` at
    (a, b), as a CorrelationEstimate, or with ``joint`` the means of the
    four joint-probability products, as a JointTable.

    ``m`` must belong to ``family``, which picks the per-draw value: the
    checked outcome product of a deterministic model, the product of a
    stochastic model's outcome averages, or its four joint products. One
    of three paths runs, all giving the same bits:

    * a draw-independent model is evaluated once, at draw 0. Its values
      in the zoo (0, +/-1, 1/4) have exact n-fold sums, so summing every
      draw would give (x * n) / n = x with stderr 0.0, as a float also
      where a model's outcomes are ints: the stream is not walked;
    * a model with a kernel runs it on its ``kernel_rows(a, b)``: the
      correlation as the one-pair case of ``_estimate_pairs``, the joint
      table chunk by chunk through ``reduce_joint``;
    * any other model is evaluated on every draw by ``fold_draws``.

    Chunks are folded in chunk order.
    """
    if not isinstance(m, family):
        raise ValueError(f"{name} needs a {_FAMILIES[family]} model, got {type(m).__name__}")
    n = require_n(n, workers)
    if family is DeterministicModel:
        def value(lam):
            alpha, beta = evaluate_deterministic(m, a, b, lam)
            return (alpha * beta,)
    elif joint:
        def value(lam):
            p = evaluate_stochastic(m, a, b, lam)
            return (
                p.p1_plus * p.p2_plus,
                p.p1_minus * p.p2_minus,
                p.p1_plus * p.p2_minus,
                p.p1_minus * p.p2_plus,
            )
    else:
        def value(lam):
            mean_a, mean_b = mean_outcomes(m, a, b, lam)
            return (mean_a * mean_b,)

    kind = m.kernel_kind
    if m.draw_independent:
        pairs = [(float(x), 0.0) for x in value(s.sample(0))]
    elif kind is not None and not joint:
        [est] = _estimate_pairs(m, [(a, b)], s, n)
        return est
    elif kind is not None:
        (u, c_a), (v, c_b), sigma_b = m.kernel_rows(a, b)
        # Empty params (offsets 0, sigma_b = -1) skip the kernel's offset adds.
        params = (c_a, c_b, sigma_b) if c_a or c_b or sigma_b != -1.0 else ()

        def job(start, count):
            r = _k.reduce_joint(kind, params, u.x, u.y, u.z, v.x, v.y, v.z,
                                s.kind_code, s.dim, s.seed, start, count)
            return [row + r[4:] for row in zip(*r[:4])]

        pairs = _checked_sums(run_chunk_jobs(job, n), n)
    else:
        pairs = fold_draws(
            lambda lams, start: np.array([value(lam) for lam in lams], dtype=np.float64).T, s, n)
    means, stderrs = zip(*pairs)
    if joint:
        return JointTable(*means, *stderrs, n=n)
    return CorrelationEstimate(value=means[0], stderr=stderrs[0], n=n, exact=False)


def _pair_groups(m, pairs):
    """Split ``pairs`` in order into runs with at most _BATCH_SETTINGS
    distinct kernel rows a side and one sigma_B; each run as (A, B, I, J,
    params), the kernel's distinct settings, pair indices and params."""
    A, B, I, J, sigma = {}, {}, [], [], None
    for a, b in pairs:
        (u, c_a), (v, c_b), sigma_b = m.kernel_rows(a, b)
        ka, kb = (u.x, u.y, u.z, c_a), (v.x, v.y, v.z, c_b)
        if I and (sigma_b != sigma
                  or (ka not in A and len(A) == _BATCH_SETTINGS)
                  or (kb not in B and len(B) == _BATCH_SETTINGS)):
            yield _kernel_group(A, B, I, J, sigma)
            A, B, I, J = {}, {}, [], []
        sigma = sigma_b
        # Keys that differ only in a zero's sign share a row: the kernels
        # read a row only through sign(d + c) and 1 +/- d, for the dot d of
        # its setting with the draw and its offset c, which a zero's sign
        # cannot change.
        I.append(A.setdefault(ka, len(A)))
        J.append(B.setdefault(kb, len(B)))
    if I:
        yield _kernel_group(A, B, I, J, sigma)


def _kernel_group(A, B, I, J, sigma_b):
    """(A, B, I, J, params) for reduce_pairs from the distinct rows ``A``
    and ``B`` of a run, keyed by (x, y, z, offset)."""
    c_a, c_b = [k[3] for k in A], [k[3] for k in B]
    params = (c_a, c_b, sigma_b) if any(c_a) or any(c_b) or sigma_b != -1.0 else ()
    return [k[:3] for k in A], [k[:3] for k in B], I, J, params


def _estimate_pairs(m, pairs, s, n, draws=None):
    """The kernel path of ``_estimate`` for every (a, b) of ``pairs`` at
    once, in one pass of ``run_chunk_jobs``: ``reduce_pairs`` makes each
    chunk's draws once for a whole group of pairs (or reads them from
    ``draws``, which it fills), and each pair is a row of the driver with a
    running sum of its own, so a pair's estimate does not depend on the
    pairs asked with it, and the memory held does not depend on ``n``. The
    bad probability raised is that of the earliest pair that has one, as
    when the pairs are asked one at a time. ``n`` is a draw count already
    checked by ``require_n``."""
    groups = list(_pair_groups(m, pairs))

    def job(start, count):
        return [part for A, B, I, J, params in groups
                for part in _k.reduce_pairs(m.kernel_kind, A, B, I, J, s.kind_code, s.dim,
                                            s.seed, start, count, draws, params)]

    return [CorrelationEstimate(*est, n=n) for est in _checked_sums(run_chunk_jobs(job, n), n)]


def estimate_correlation(
    m: DeterministicModel,
    a: UnitVector3,
    b: UnitVector3,
    s: LambdaSampler,
    n: int,
    workers: int = 1,
) -> CorrelationEstimate:
    """Mean outcome product of a deterministic model over draws 0..n-1."""
    return _estimate(m, DeterministicModel, "estimate_correlation", a, b, s, n, workers)


def estimate_stochastic_correlation(
    m: StochasticModel,
    a: UnitVector3,
    b: UnitVector3,
    s: LambdaSampler,
    n: int,
    workers: int = 1,
) -> CorrelationEstimate:
    """Mean product of the two parties' per-draw outcome averages."""
    return _estimate(m, StochasticModel, "estimate_stochastic_correlation", a, b, s, n, workers)


def estimate_joint(
    m: StochasticModel,
    a: UnitVector3,
    b: UnitVector3,
    s: LambdaSampler,
    n: int,
    workers: int = 1,
) -> JointTable:
    """Averaged joint probabilities of a factorized stochastic model.

    On a shared draw stream the table reproduces the correlation estimator:
    p_pp + p_mm - p_pm - p_mp agrees with estimate_stochastic_correlation
    to within accumulation roundoff.
    """
    return _estimate(m, StochasticModel, "estimate_joint", a, b, s, n, workers, joint=True)


def quantum_correlation(a: UnitVector3, b: UnitVector3) -> CorrelationEstimate:
    """The singlet correlation -a . b, exact.

    Identical and antipodal settings short-circuit to -1 and +1 so that the
    perfect-(anti)correlation limits hold exactly even when the float dot
    product of a renormalized vector with itself is off by an ulp.
    """
    if a == b:
        return CorrelationEstimate(value=-1.0, stderr=0.0, n=0, exact=True)
    if a.x == -b.x and a.y == -b.y and a.z == -b.z:
        return CorrelationEstimate(value=1.0, stderr=0.0, n=0, exact=True)
    d = a.dot(b)
    if d > 1.0:
        d = 1.0
    elif d < -1.0:
        d = -1.0
    return CorrelationEstimate(value=-d, stderr=0.0, n=0, exact=True)


def quantum_correlation_complex(z: RiemannPoint, w: RiemannPoint) -> float:
    """The singlet correlation in stereographic coordinates.

    Evaluated from the rational expression in (z, zbar, w, wbar), with the
    point at infinity handled as its own case. Agreement with
    -project(z) . project(w) is a cross-check in the tests, not the
    implementation.
    """
    if z.is_infinite and w.is_infinite:
        return -1.0
    if z.is_infinite or w.is_infinite:
        finite = w if z.is_infinite else z
        m = finite.re * finite.re + finite.im * finite.im
        if math.isinf(m):
            # |z|^2 overflowed: the value is -1 to far below any tolerance.
            return -1.0
        return (1.0 - m) / (1.0 + m)
    zr, zi = z.re, z.im
    wr, wi = w.re, w.im
    mz = zr * zr + zi * zi
    mw = wr * wr + wi * wi
    if math.isinf(mz) and math.isinf(mw):
        return -1.0
    if math.isinf(mz):
        return (1.0 - mw) / (1.0 + mw)
    if math.isinf(mw):
        return (1.0 - mz) / (1.0 + mz)
    # (z + zbar)(w + wbar) - (zbar - z)(wbar - w) + (1 - |z|^2)(1 - |w|^2),
    # written out in real components, over (1 + |z|^2)(1 + |w|^2).
    num = 4.0 * (zr * wr + zi * wi) + (1.0 - mz) * (1.0 - mw)
    den = (1.0 + mz) * (1.0 + mw)
    return -num / den


def series_correlation(
    pair: AnticorrelatedSeriesPair,
    a: UnitVector3,
    b: UnitVector3,
    s: LambdaSampler,
    n: int,
    workers: int = 1,
) -> CorrelationEstimate:
    """Correlation of an anticorrelated series pair.

    The second side is exactly the negation of the first, so every per-draw
    product is -A^2 <= 0. Draw-independent pairs collapse to a closed form
    and come back exact. A draw-dependent pair calls its generator once per
    draw and evaluates the series a chunk at a time (``_series_chunk``),
    with the bits of one scalar evaluation per draw.
    """
    if not isinstance(pair, AnticorrelatedSeriesPair):
        raise ValueError(
            f"series_correlation needs an anticorrelated series pair, "
            f"got {type(pair).__name__}"
        )
    n = require_n(n, workers)
    if pair.lambda_independent:
        a_val = evaluate_series(pair.alpha, a, b)
        # Negating every coefficient negates the accumulated sum exactly,
        # so A * (-A) is bit-equal to evaluating the second side.
        value = a_val * (-a_val)
        return CorrelationEstimate(value=value, stderr=0.0, n=0, exact=True)

    powers = _k.series_powers(a.x, a.y, a.z, b.x, b.y, b.z)

    def rows(lams, start):
        v = _series_chunk(pair, powers, lams, start)
        return (v * -v)[None]

    [(mean, stderr)] = fold_draws(rows, s, n)
    return CorrelationEstimate(value=mean, stderr=stderr, n=n, exact=False)


def _series_chunk(pair, powers, lams, start):
    """The first side's series value at each draw of ``lams`` (draws
    ``start`` ...), as a float64 array in draw order.

    The generator is called once per draw, in draw order. Each result's
    coefficients and constant are copied into a buffer for its degree and
    the result is dropped; a buffer is evaluated by ``series_values`` when
    it is full (at most _SERIES_BLOCK coefficients) and at the end.
    """
    values = np.empty(len(lams))
    rows = {}  # degree -> (coefficients, constants, draw positions)

    def flush(degree):
        coeffs, c0, at = rows[degree]
        values[at] = _k.series_values(coeffs[:len(at)], c0[:len(at)], *powers)
        at.clear()

    for k, lam in enumerate(lams):
        c = pair.alpha_at(lam)
        if not isinstance(c, RealAnalyticCoefficients):
            raise ValueError(
                f"series generator returned {type(c).__name__} at draw {start + k}, "
                f"expected RealAnalyticCoefficients"
            )
        d = c.degree
        if d not in rows:
            cap = min(len(lams), max(1, _SERIES_BLOCK // (9 * d * d)))
            rows[d] = np.empty((cap, d, d, 3, 3)), np.empty(cap), []
        coeffs, c0, at = rows[d]
        coeffs[len(at)] = c.table
        c0[len(at)] = c.effective_constant()
        at.append(k)
        if len(at) == len(c0):
            flush(d)
    for d in rows:
        if rows[d][2]:
            flush(d)
    return values


def make_correlation_oracle(
    model,
    s: Optional[LambdaSampler] = None,
    n: int = 100000,
    workers: int = 1,
) -> Callable[[UnitVector3, UnitVector3], CorrelationEstimate]:
    """A (a, b) -> CorrelationEstimate closure for any zoo model.

    Routes to the matching estimator; the closed-form models ignore the
    sampler entirely.
    """
    if isinstance(model, QuantumCorrelationModel):
        return quantum_correlation
    if isinstance(model, AnticorrelatedSeriesPair):
        if pair_needs_sampler(model) and s is None:
            raise ValueError("draw-dependent series pair needs a sampler")
        sampler = s if s is not None else LambdaSampler()

        def series_oracle(a: UnitVector3, b: UnitVector3) -> CorrelationEstimate:
            return series_correlation(model, a, b, sampler, n, workers=workers)

        return series_oracle
    family = next((f for f in _FAMILIES if isinstance(model, f)), None)
    if family is None:
        raise ValueError(f"no correlation estimator for {type(model).__name__}")
    if s is None:
        raise ValueError(f"{_FAMILIES[family]} models need a sampler")

    def oracle(a: UnitVector3, b: UnitVector3) -> CorrelationEstimate:
        # Looked up at each call, so a wrapper installed later is used.
        estimator = (estimate_correlation if family is DeterministicModel
                     else estimate_stochastic_correlation)
        return estimator(model, a, b, s, n, workers=workers)

    return _with_pairs(oracle, model, s, n, workers)


def _with_pairs(oracle, model, s, n, workers):
    """Give ``oracle`` a ``pairs`` method that estimates a list of setting
    pairs in one pass over the draws, when the model runs a kernel and its
    product depends on the draw; any other model is asked pair by pair.

    From its second batch on, the method keeps each chunk's draws for the
    batches after it, as long as the oracle lives, so a settings search
    makes them at most twice; a one-batch caller (``chsh`` at one quad,
    ``bell``, a sweep) keeps none. Past _DRAW_CACHE_BYTES it keeps none and
    makes them for every batch."""
    if (getattr(model, "kernel_kind", None) is not None
            and not getattr(model, "draw_independent", False)):
        draws = None
        batches = 0

        def pairs(request):
            nonlocal draws, batches
            count = require_n(n, workers)
            batches += 1
            if batches == 2 and 24 * count <= _DRAW_CACHE_BYTES:
                draws = {}
            return _estimate_pairs(model, request, s, count, draws)

        oracle.pairs = pairs
    return oracle


def ask_pairs(P, pairs) -> list[CorrelationEstimate]:
    """Estimates for a list of (a, b) setting pairs, in order: one batch
    call when the oracle has a ``pairs`` method (as oracles from
    ``make_correlation_oracle`` for kernel models do), and otherwise one
    call of ``P`` per pair. Both give the same estimates."""
    batch = getattr(P, "pairs", None)
    if batch is not None:
        return batch(pairs)
    return [P(a, b) for a, b in pairs]


def pair_needs_sampler(pair: AnticorrelatedSeriesPair) -> bool:
    return not pair.lambda_independent


@dataclass(frozen=True)
class AntipodalContrast:
    """Series-pair correlation at antipodal settings next to the quantum value.

    Any anticorrelated series pair gives a nonpositive value at (a, -a)
    while the singlet correlation there is +1; ``contradiction`` records
    that mismatch.
    """

    a: UnitVector3
    series: CorrelationEstimate
    quantum: CorrelationEstimate
    contradiction: bool

    def to_json(self) -> dict:
        return {
            "a": [self.a.x, self.a.y, self.a.z],
            "series": self.series.to_json(),
            "quantum": self.quantum.to_json(),
            "contradiction": self.contradiction,
        }


def antipodal_contrast(
    pair: AnticorrelatedSeriesPair,
    a: UnitVector3,
    s: LambdaSampler,
    n: int,
    workers: int = 1,
) -> AntipodalContrast:
    """Evaluate a series pair against the quantum value at (a, -a)."""
    b = -a
    series = series_correlation(pair, a, b, s, n, workers=workers)
    quantum = quantum_correlation(a, b)
    return AntipodalContrast(
        a=a,
        series=series,
        quantum=quantum,
        contradiction=(series.value <= 0.0 < quantum.value),
    )


def correlation_sweep(
    model,
    steps: int,
    s: Optional[LambdaSampler] = None,
    n: int = 100000,
    workers: int = 1,
) -> list[tuple[float, CorrelationEstimate]]:
    """Correlation curve over the planar angle theta in [0, pi].

    The first setting is fixed at the z-axis; the second sweeps through
    ``steps`` equally spaced angles from it, endpoints included.
    """
    steps = int(steps)
    if steps < 2 or steps > MAX_STEPS:
        raise ValueError(f"steps must be in 2..{MAX_STEPS}, got {steps}")
    oracle = make_correlation_oracle(model, s, n, workers=workers)
    thetas = [(k * math.pi) / (steps - 1) for k in range(steps)]
    estimates = ask_pairs(oracle, [(Z_AXIS, unit_from_plane_angle(t)) for t in thetas])
    return list(zip(thetas, estimates))
