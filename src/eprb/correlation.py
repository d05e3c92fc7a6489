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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _backend as _k
from ._mc import CHUNK_SIZE, combine_scalar, require_n, run_chunk_jobs
from ._mc import combine_vec4  # noqa: F401  (unused: perfbench's tracer wraps it here)
from .errors import whole_number
from .geometry import UnitVector3, Z_AXIS, quantum_correlation_complex, unit_from_plane_angle
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

# A batched oracle keeps its chunks' draws, three doubles a draw, and an
# oracle of one chunk its setting rows, one double a draw each, only while
# they take at most this many bytes together (draws for n up to about 1.4
# million; at n = 512, 8,189 rows besides the draws).
_DRAW_CACHE_BYTES = 32 << 20


@dataclass(frozen=True)
class CorrelationEstimate:
    """A correlation value with its uncertainty.

    ``exact``, derived as n == 0, marks closed-form evaluations (stderr 0).
    """

    value: float
    stderr: float
    n: int
    exact: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exact", self.n == 0)

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


# The estimator families, each with the word that names it in errors.
_FAMILIES = {DeterministicModel: "deterministic", StochasticModel: "stochastic"}


def _require_family(m, family, name):
    if not isinstance(m, family):
        raise ValueError(f"{name} needs a {_FAMILIES[family]} model, got {type(m).__name__}")


def _estimate(m, family, a, b, s, n, joint=False):
    """The body of every Monte Carlo estimator: the mean over draws 0..n-1
    (checked by ``require_n``) of ``s`` of the per-draw outcome product of
    ``m`` at (a, b), as a CorrelationEstimate, or with ``joint`` the means
    of the four joint-probability products, as a JointTable.

    ``m`` must belong to ``family``, which picks the per-draw value: the
    checked outcome product of a deterministic model, the product of a
    stochastic model's outcome averages, or its four joint products. One
    of three paths runs, all giving the same bits:

    * a draw-independent model is evaluated once, at draw 0. Its values
      in the zoo (0, +/-1, 1/4) have exact n-fold sums, so summing every
      draw would give (x * n) / n = x with stderr 0.0, as a float also
      where a model's outcomes are ints: the stream is not walked;
    * a model with a kernel runs it on its ``kernel_rows(a, b)``, as the
      one-pair case of ``_estimate_pairs``: one row for the correlation,
      four for the joint table;
    * any other model is evaluated on every draw by ``fold_draws``.

    Chunks are folded in chunk order.
    """
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

    if m.draw_independent:
        pairs = [(float(x), 0.0) for x in value(s.sample(0))]
    elif m.kernel_kind is not None:
        pairs = _estimate_pairs(m, [(a, b)], s, n, joint=joint)
    else:
        pairs = fold_draws(
            lambda lams, start: np.array([value(lam) for lam in lams], dtype=np.float64).T, s, n)
    means, stderrs = zip(*pairs)
    if joint:
        return JointTable(*means, *stderrs, n=n)
    return CorrelationEstimate(value=means[0], stderr=stderrs[0], n=n)


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


def _estimate_pairs(m, pairs, s, n, draws=None, joint=False):
    """The kernel path of ``_estimate`` for every (a, b) of ``pairs`` at
    once, in one pass of ``run_chunk_jobs``: each chunk's draws are made
    once for all the pairs, kept in ``draws`` when given and otherwise only
    while the chunk's job runs, and each pair is a row of the driver with a
    running sum of its own (four rows, pp, mm, pm and mp, with ``joint``),
    so a pair's estimate does not depend on the pairs asked with it, and
    the memory held does not depend on ``n``. Returns one (mean, stderr)
    per row. The bad probability raised is that of the earliest pair that
    has one, as when the pairs are asked one at a time. ``n`` is a draw
    count already checked by ``require_n``."""
    groups = list(_pair_groups(m, pairs))

    def job(start, count):
        chunk = {} if draws is None else draws
        return [part for A, B, I, J, params in groups
                for part in _k.reduce_pairs(m.kernel_kind, A, B, I, J, s.kind_code, s.dim,
                                            s.seed, start, count, chunk, params, joint)]

    return [combine_scalar((acc,), n) for acc in run_chunk_jobs(job, n)]


def estimate_correlation(
    m: DeterministicModel,
    a: UnitVector3,
    b: UnitVector3,
    s: LambdaSampler,
    n: int,
    workers: int = 1,
) -> CorrelationEstimate:
    """Mean outcome product of a deterministic model over draws 0..n-1."""
    _require_family(m, DeterministicModel, "estimate_correlation")
    return _estimate(m, DeterministicModel, a, b, s, require_n(n, workers))


def estimate_stochastic_correlation(
    m: StochasticModel,
    a: UnitVector3,
    b: UnitVector3,
    s: LambdaSampler,
    n: int,
    workers: int = 1,
) -> CorrelationEstimate:
    """Mean product of the two parties' per-draw outcome averages."""
    _require_family(m, StochasticModel, "estimate_stochastic_correlation")
    return _estimate(m, StochasticModel, a, b, s, require_n(n, workers))


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
    _require_family(m, StochasticModel, "estimate_joint")
    return _estimate(m, StochasticModel, a, b, s, require_n(n, workers), joint=True)


def quantum_correlation(a: UnitVector3, b: UnitVector3) -> CorrelationEstimate:
    """The singlet correlation -a . b, exact.

    Identical and antipodal settings short-circuit to -1 and +1 so that the
    perfect-(anti)correlation limits hold exactly even when the float dot
    product of a renormalized vector with itself is off by an ulp.
    """
    # The dataclass __eq__ of a and b, component by component.
    if a.__class__ is b.__class__ and a.x == b.x and a.y == b.y and a.z == b.z:
        return CorrelationEstimate(value=-1.0, stderr=0.0, n=0)
    if a.x == -b.x and a.y == -b.y and a.z == -b.z:
        return CorrelationEstimate(value=1.0, stderr=0.0, n=0)
    d = a.dot(b)
    if d > 1.0:
        d = 1.0
    elif d < -1.0:
        d = -1.0
    return CorrelationEstimate(value=-d, stderr=0.0, n=0)


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
    if pair.draw_independent:
        a_val = evaluate_series(pair.alpha, a, b)
        # The value is -A^2, which equals A * B, B the second side
        # evaluated, except in the sign of a zero.
        value = a_val * (-a_val)
        return CorrelationEstimate(value=value, stderr=0.0, n=0)

    powers = _k.series_powers(a.x, a.y, a.z, b.x, b.y, b.z)

    def rows(lams, start):
        v = _series_chunk(pair, powers, lams, start)
        return (v * -v)[None]

    [(mean, stderr)] = fold_draws(rows, s, n)
    return CorrelationEstimate(value=mean, stderr=stderr, n=n)


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
        c0[len(at)] = c.constant_term
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
    sampler entirely. ``n`` and ``workers`` are checked at construction,
    for every model, the closed-form ones too. The closure of a kernel
    model that depends on the draw also has a ``pairs`` method
    (``_KernelPairs``), which estimates a list of setting pairs in one pass
    over the draws; from its second batch on it keeps the draws and, when
    n <= CHUNK_SIZE, each setting's kernel row, and serves small requests,
    such as a pattern trial's, from the kept rows.
    """
    n = require_n(n, workers)
    if isinstance(model, QuantumCorrelationModel):
        return quantum_correlation
    if isinstance(model, AnticorrelatedSeriesPair):
        if not model.draw_independent and s is None:
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

    if model.kernel_kind is not None and not model.draw_independent:
        oracle.pairs = _KernelPairs(model, s, n)
    return oracle


class _KernelPairs:
    """The ``pairs`` method of an oracle for a kernel model that depends on
    the draw: estimates for a list of setting pairs, in one pass over the
    draws.

    From its second batch on it keeps each chunk's draws in ``draws``, so a
    settings search makes them at most twice and a one-batch caller
    (``chsh`` at one quad, ``bell``, a sweep) none. An oracle of one chunk
    (n <= CHUNK_SIZE) also keeps each setting's row in ``rows``, keyed by
    side and kernel row (x, y, z, offset), and serves a request whose
    products fit in one _BLOCK from them (``_from_rows``), so a pattern
    trial computes only the rows its moved setting changes. Draws and rows
    together take at most _DRAW_CACHE_BYTES, the oldest rows going first;
    past it the oracle keeps neither.
    """

    def __init__(self, model, s, n):
        self._model, self._s, self._n = model, s, n
        self._batches = 0
        self.draws = None
        self.rows = {}
        self._row_cap = 0

    def __call__(self, request):
        n = self._n
        self._batches += 1
        if self._batches == 2 and 24 * n <= _DRAW_CACHE_BYTES:
            self.draws = {}
            # Every row, a None one too, counts 8 n bytes.
            self._row_cap = (_DRAW_CACHE_BYTES - 24 * n) // (8 * n)
        ests = None
        if self.draws is not None and n <= CHUNK_SIZE and len(request) * n <= _k._BLOCK:
            ests = self._from_rows(request)
        if ests is None:
            ests = _estimate_pairs(self._model, request, self._s, n, self.draws)
        return [CorrelationEstimate(*est, n=n) for est in ests]

    def _from_rows(self, request):
        """(mean, stderr) of each pair of ``request`` from the kept rows of
        the one chunk, computing only the missing rows: the bits of
        ``_estimate_pairs``. None when the request needs the batch path,
        which raises the errors: a pair with a bad draw, a second sigma_B,
        or kernel rows the kernel refuses."""
        m, s, n, rows = self._model, self._s, self._n, self.rows
        kind = m.kernel_kind
        keys, sigma = [], None
        for a, b in request:
            (u, c_a), (v, c_b), sigma_b = m.kernel_rows(a, b)
            if keys and sigma_b != sigma:
                return None
            sigma = sigma_b
            # Keys that differ only in a zero's sign share a row, as in
            # _pair_groups.
            keys.append(((0, u.x, u.y, u.z, c_a), (1, v.x, v.y, v.z, c_b)))
        # The params reduce_pairs's _check_args refuses.
        if sigma not in (1.0, -1.0) or kind == _k.KIND_LINEAR and (
                sigma != -1.0 or any(ka[4] or kb[4] for ka, kb in keys)):
            return None
        todo = {k: None for pair in keys for k in pair if k not in rows}
        if todo:
            cols = _k.draw_columns(s.kind_code, s.dim, s.seed, 0, n, self.draws)
            for side in (0, 1):
                ks = [k for k in todo if k[0] == side]
                if ks:
                    c = [k[4] for k in ks]
                    rows.update(zip(ks, _k.setting_rows(
                        kind, np.array([k[1:4] for k in ks]), np.array(c) if any(c) else None,
                        side, *cols)))
        RA = [rows[ka] for ka, _ in keys]
        RB = [rows[kb] for _, kb in keys]
        # The rows of one setting_rows call share one array and sit next to
        # each other here, so at most one array outlives some of its rows.
        while len(rows) > self._row_cap:
            del rows[next(iter(rows))]
        if any(r is None for r in RA + RB):
            return None
        return [combine_scalar((part,), n) for part in _k.pair_rows(kind, RA, RB, sigma)]


def ask_pairs(P, pairs) -> list[CorrelationEstimate]:
    """Estimates for a list of (a, b) setting pairs, in order: one batch
    call when the oracle has a ``pairs`` method (as oracles from
    ``make_correlation_oracle`` for kernel models do), and otherwise one
    call of ``P`` per pair. Both give the same estimates."""
    batch = getattr(P, "pairs", None)
    if batch is not None:
        return batch(pairs)
    return [P(a, b) for a, b in pairs]


@dataclass(frozen=True)
class AntipodalContrast:
    """Series-pair correlation at antipodal settings next to the quantum value.

    Any anticorrelated series pair gives a nonpositive value at (a, -a)
    while the singlet correlation there is +1; the derived ``quantum`` and
    ``contradiction`` record that mismatch.
    """

    a: UnitVector3
    series: CorrelationEstimate

    @property
    def quantum(self) -> CorrelationEstimate:
        return quantum_correlation(self.a, -self.a)

    @property
    def contradiction(self) -> bool:
        return self.series.value <= 0.0 < self.quantum.value

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
    return AntipodalContrast(a=a, series=series_correlation(pair, a, -a, s, n, workers=workers))


def correlation_sweep(
    model,
    steps: int,
    s: Optional[LambdaSampler] = None,
    n: int = 100000,
    workers: int = 1,
) -> list[tuple[float, CorrelationEstimate]]:
    """Correlation curve over the planar angle theta in [0, pi].

    The first setting is fixed at the z-axis; the second sweeps through
    ``steps`` equally spaced angles from it, endpoints included. ``n`` and
    ``workers`` are checked for every model, the closed-form ones too.
    """
    steps = whole_number(steps, "steps")
    if steps < 2 or steps > MAX_STEPS:
        raise ValueError(f"steps must be in 2..{MAX_STEPS}, got {steps}")
    oracle = make_correlation_oracle(model, s, n, workers)
    thetas = [(k * math.pi) / (steps - 1) for k in range(steps)]
    estimates = ask_pairs(oracle, [(Z_AXIS, unit_from_plane_angle(t)) for t in thetas])
    return list(zip(thetas, estimates))
