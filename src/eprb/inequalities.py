"""Two-party inequality statistics and setting optimization.

The central quantity is the four-correlation combination
|P(a,b) - P(a,b')| + |P(a',b') + P(a',b)|, bounded by 2 for the local and
setting-constant model classes and reaching 2*sqrt(2) for the singlet
correlation. A correlation oracle here is any callable mapping a setting
pair to a CorrelationEstimate; estimators from the correlation module and
exact closed forms both qualify. Each statistic asks for all its setting
pairs at once through ``ask_pairs``, so an oracle with a ``pairs`` method
serves them in one pass over the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .correlation import CorrelationEstimate, ask_pairs
from .errors import whole_number
from .geometry import UnitVector3, unit_from_angles, unit_from_plane_angle, vector_to_list
from .models import DeterministicModel, evaluate_deterministic

__all__ = [
    "CorrelationOracle",
    "SettingsQuad",
    "ChshReport",
    "chsh_statistic",
    "BellReport",
    "bell_statistic",
    "cross_term",
    "MaximizeResult",
    "maximize_chsh",
]

CorrelationOracle = Callable[[UnitVector3, UnitVector3], CorrelationEstimate]

# Acceptance band in standard errors for the violated/satisfied flags; an
# exact oracle has stderr 0, so the band degenerates to the strict bound.
_BAND = 4.0


@dataclass(frozen=True)
class SettingsQuad:
    """The four measurement directions entering the four-correlation sum."""

    a: UnitVector3
    b: UnitVector3
    a_prime: UnitVector3
    b_prime: UnitVector3

    def to_json(self) -> dict:
        return {
            "a": vector_to_list(self.a),
            "b": vector_to_list(self.b),
            "a_prime": vector_to_list(self.a_prime),
            "b_prime": vector_to_list(self.b_prime),
        }


def _chsh_terms(ests: Sequence[CorrelationEstimate]) -> tuple[float, float]:
    """(term1, term2) from the estimates at the ``_quad_pairs`` pairs:
    |P(a,b) - P(a,b')| and |P(a',b') + P(a',b)|, whose sum is S."""
    return abs(ests[0].value - ests[1].value), abs(ests[2].value + ests[3].value)


@dataclass(frozen=True)
class ChshReport:
    """The four-correlation statistic at one settings quad, derived from
    the estimates at its ``_quad_pairs`` pairs: the terms, S, the stderr
    (the four stderrs in quadrature) and ``violated``, true only when S
    exceeds the bound by more than 4 stderrs (strictly above 2 for exact
    oracles)."""

    p_ab: CorrelationEstimate
    p_ab_prime: CorrelationEstimate
    p_a_prime_b_prime: CorrelationEstimate
    p_a_prime_b: CorrelationEstimate
    quad: SettingsQuad

    bound = 2.0

    @property
    def _ests(self) -> tuple[CorrelationEstimate, ...]:
        return self.p_ab, self.p_ab_prime, self.p_a_prime_b_prime, self.p_a_prime_b

    @property
    def term1(self) -> float:
        return _chsh_terms(self._ests)[0]

    @property
    def term2(self) -> float:
        return _chsh_terms(self._ests)[1]

    @property
    def s_value(self) -> float:
        return sum(_chsh_terms(self._ests))

    @property
    def stderr(self) -> float:
        return math.sqrt(sum(e.stderr ** 2 for e in self._ests))

    @property
    def violated(self) -> bool:
        return self.s_value > self.bound + _BAND * self.stderr

    def to_json(self) -> dict:
        return {
            "s_value": self.s_value,
            "term1": self.term1,
            "term2": self.term2,
            "correlations": [
                {"pair": "ab", **self.p_ab.to_json()},
                {"pair": "ab_prime", **self.p_ab_prime.to_json()},
                {"pair": "a_prime_b_prime", **self.p_a_prime_b_prime.to_json()},
                {"pair": "a_prime_b", **self.p_a_prime_b.to_json()},
            ],
            "stderr": self.stderr,
            "bound": self.bound,
            "violated": self.violated,
            "quad": self.quad.to_json(),
        }


def _quad_pairs(q: SettingsQuad) -> list[tuple[UnitVector3, UnitVector3]]:
    """The statistic's four setting pairs: (a,b), (a,b'), (a',b'), (a',b)."""
    return [(q.a, q.b), (q.a, q.b_prime), (q.a_prime, q.b_prime), (q.a_prime, q.b)]


def _finite(report, name: str):
    """``report``, checked to have a finite ``name``: a statistic holding
    NaN or an infinity comes from overflowing correlations and is not a
    verdict."""
    value = getattr(report, name)
    if not math.isfinite(value):
        raise ValueError(f"result field {name!r} is not finite: {value!r}")
    return report


def chsh_statistic(P: CorrelationOracle, q: SettingsQuad) -> ChshReport:
    """The report of the four estimates ``P`` gives at ``q``'s pairs.

    Raises ValueError when S is NaN or infinite.
    """
    return _finite(ChshReport(*ask_pairs(P, _quad_pairs(q)), quad=q), "s_value")


@dataclass(frozen=True)
class BellReport:
    """The three-correlation inequality |P(a,b) - P(a,c)| <= 1 + P(b,c),
    derived from its estimates as the excess of the left side over the
    right, its stderr and ``violated``, as in ChshReport."""

    p_ab: CorrelationEstimate
    p_ac: CorrelationEstimate
    p_bc: CorrelationEstimate

    @property
    def excess(self) -> float:
        return abs(self.p_ab.value - self.p_ac.value) - (1.0 + self.p_bc.value)

    @property
    def stderr(self) -> float:
        return math.sqrt(self.p_ab.stderr ** 2 + self.p_ac.stderr ** 2 + self.p_bc.stderr ** 2)

    @property
    def violated(self) -> bool:
        return self.excess > _BAND * self.stderr

    def to_json(self) -> dict:
        return {
            "excess": self.excess,
            "correlations": [
                {"pair": "ab", **self.p_ab.to_json()},
                {"pair": "ac", **self.p_ac.to_json()},
                {"pair": "bc", **self.p_bc.to_json()},
            ],
            "stderr": self.stderr,
            "violated": self.violated,
        }


def bell_statistic(
    P: CorrelationOracle, a: UnitVector3, b: UnitVector3, c: UnitVector3
) -> BellReport:
    """The report of the estimates ``P`` gives at (a,b), (a,c) and (b,c).

    Raises ValueError when the excess is NaN or infinite.
    """
    return _finite(BellReport(*ask_pairs(P, [(a, b), (a, c), (b, c)])), "excess")


def cross_term(
    m: DeterministicModel, q: SettingsQuad, lam: Sequence[float]
) -> float:
    """The four-setting outcome-product cross term at one draw.

    (A B at (a,b)) * (A B at (a',b')) - (A B at (a,b')) * (A B at (a',b)).
    Always one of -2, 0, +2 for dichotomic outcomes, and identically 0 when
    outcomes do not depend on the settings, which is the hinge of the
    bound's derivation for the setting-constant class.
    """
    a1, b1 = evaluate_deterministic(m, q.a, q.b, lam)
    a2, b2 = evaluate_deterministic(m, q.a, q.b_prime, lam)
    a3, b3 = evaluate_deterministic(m, q.a_prime, q.b_prime, lam)
    a4, b4 = evaluate_deterministic(m, q.a_prime, q.b, lam)
    return (a1 * b1) * (a3 * b3) - (a2 * b2) * (a4 * b4)


class _BudgetExhausted(Exception):
    pass


class _BudgetedOracle:
    """Memoizing wrapper that charges only distinct setting pairs."""

    def __init__(self, P: CorrelationOracle, budget: int) -> None:
        self._oracle = P
        self._budget = budget
        self._cache: dict = {}
        self.evaluations = 0

    def pairs(self, pairs, keys=None) -> list[CorrelationEstimate]:
        """Estimates for ``pairs``, in order.

        ``keys`` holds each pair's (a.x, a.y, a.z, b.x, b.y, b.z), built
        from the pairs when not given; a caller that keeps each setting's
        (x, y, z) passes them, so that no key is read back from the
        vectors. The distinct uncached pairs are charged and evaluated in
        request order, as one batch through ``ask_pairs``. When they outrun
        the budget, the ones that fit are evaluated and cached and the
        request raises, so the oracle sees the same pairs in the same order
        as when they are asked one at a time.
        """
        if keys is None:
            keys = [(a.x, a.y, a.z, b.x, b.y, b.z) for a, b in pairs]
        todo: dict = {}
        for key, pair in zip(keys, pairs):
            if key not in self._cache:
                todo.setdefault(key, pair)
        fresh = list(todo)[:max(0, self._budget - self.evaluations)]
        if fresh:
            self._cache.update(zip(fresh, ask_pairs(self._oracle, [todo[k] for k in fresh])))
            self.evaluations += len(fresh)
        if len(fresh) < len(todo):
            raise _BudgetExhausted
        return [self._cache[key] for key in keys]


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of the settings search: the best quad's report, and the cost."""

    report: ChshReport
    evaluations: int
    grid_s_value: float

    @property
    def quad(self) -> SettingsQuad:
        return self.report.quad

    @property
    def s_value(self) -> float:
        return self.report.s_value


# Angles per setting in each search mode (see ``_vector``).
_ANGLES = {"coplanar": 1, "full": 2}


def _vector(coords: Sequence[float], mode: str) -> UnitVector3:
    """The setting at one search point: (theta,) in the x-z plane in
    coplanar mode, (theta, phi) in full mode."""
    return unit_from_plane_angle(*coords) if mode == "coplanar" else unit_from_angles(*coords)


def _quad_from_angles(angles: Sequence[float], mode: str) -> SettingsQuad:
    d = _ANGLES[mode]
    return SettingsQuad(*(_vector(angles[d * k:d * (k + 1)], mode) for k in range(4)))


def _grid_scan(P: _BudgetedOracle, points: list[UnitVector3]):
    """Best statistic over all quads drawn from ``points``, asking the
    oracle for every pair of points in one batch."""
    g = len(points)
    xyz = [(p.x, p.y, p.z) for p in points]
    ests = P.pairs([(pa, pb) for pa in points for pb in points],
                   [ka + kb for ka in xyz for kb in xyz])
    return _scan_values(np.array([e.value for e in ests], dtype=np.float64).reshape(g, g))


def _scan_values(values: np.ndarray):
    """Best statistic over all index quads of ``values[i, j]``, the
    correlation at (points[i], points[j]).

    The two absolute terms share no setting once (b, b') is fixed, so each
    is maximized independently over a and a', one b column at a time,
    turning the quartic scan into a cubic one. Ties resolve to the
    lexicographically smallest index tuple (ia, ib, ia_prime, ib_prime),
    and a NaN term never wins, as in a loop of strict comparisons; with no
    finite winner the result is (-inf, None).
    """
    g = values.shape[0]
    cols = np.arange(g)
    rows = []
    # Overflow gives inf and inf - inf gives NaN quietly, as with Python floats.
    with np.errstate(over="ignore", invalid="ignore"):
        for jb in range(g):
            col = values[:, jb:jb + 1]
            t1 = np.abs(col - values)  # t1[ia, jbp] = |P(a, b) - P(a, b')|
            t2 = np.abs(values + col)  # t2[iap, jbp] = |P(a', b') + P(a', b)|
            t1[np.isnan(t1)] = -math.inf
            t2[np.isnan(t2)] = -math.inf
            ia, iap = t1.argmax(axis=0), t2.argmax(axis=0)
            rows.append((t1[ia, cols] + t2[iap, cols], ia, iap))
    s, ia, iap = (np.array(r) for r in zip(*rows))
    s[np.isnan(s)] = -math.inf
    best = s.max()
    if best == -math.inf:
        return -math.inf, None
    return float(best), min(
        (int(ia[jb, jbp]), int(jb), int(iap[jb, jbp]), int(jbp))
        for jb, jbp in zip(*np.nonzero(s == best))
    )


def _pattern_search(
    P: _BudgetedOracle,
    angles: list[float],
    s_start: float,
    step: float,
    mode: str,
) -> tuple[list[float], float]:
    """Greedy +/-step coordinate polling with step halving.

    Only strict improvements move; the step halves after any sweep with no
    accepted move and the search ends below 1e-7 or when the oracle budget
    runs out. Each setting is kept as its vector and (x, y, z), built once
    per coordinate tuple, and a trial asks ``P.pairs`` for its quad's pairs
    with their keys: it moves one coordinate, so it builds at most the one
    vector that coordinate belongs to, and no quad.
    """
    d = _ANGLES[mode]
    built: dict = {}

    def setting(coords):
        # Coordinates are never -0.0 (the grid's are >= 0, and x - x rounds
        # to +0.0), so equal tuples build equal vectors.
        got = built.get(coords)
        if got is None:
            v = _vector(coords, mode)
            got = built[coords] = (v, (v.x, v.y, v.z))
        return got

    current = list(angles)
    settings = [setting(tuple(current[d * j:d * (j + 1)])) for j in range(4)]
    s_current = s_start
    try:
        while step >= 1e-7:
            improved = False
            for k in range(len(current)):
                j = k // d
                for direction in (1.0, -1.0):
                    trial = list(current)
                    trial[k] = trial[k] + direction * step
                    moved = list(settings)
                    moved[j] = setting(tuple(trial[d * j:d * (j + 1)]))
                    # The _quad_pairs pairs of the quad (a, b, a', b').
                    (a, ka), (b, kb), (a_p, ka_p), (b_p, kb_p) = moved
                    ests = P.pairs([(a, b), (a, b_p), (a_p, b_p), (a_p, b)],
                                   [ka + kb, ka + kb_p, ka_p + kb_p, ka_p + kb])
                    s_trial = sum(_chsh_terms(ests))
                    if s_trial > s_current:
                        current = trial
                        settings = moved
                        s_current = s_trial
                        improved = True
                        break
            if not improved:
                step *= 0.5
    except _BudgetExhausted:
        pass
    return current, s_current


def maximize_chsh(
    P: CorrelationOracle, budget: int, mode: str = "coplanar"
) -> MaximizeResult:
    """Search measurement settings for the largest four-correlation sum.

    ``budget`` caps the number of distinct setting pairs sent to the
    oracle (repeat pairs are memoized for free). Coarse grid first, then
    coordinate pattern search from the best grid point; for a fixed oracle
    and budget the outcome is deterministic.

    Coplanar mode searches one angle per setting in the x-z plane; full
    mode searches polar and azimuthal angles per setting. When every grid
    quad's statistic is NaN there is no start point, and ValueError is
    raised; so it is when the best grid statistic or the final one is
    infinite, a sum of overflowing correlations and not a violation.
    """
    budget = whole_number(budget, "budget")
    if budget < 100:
        raise ValueError(f"budget must be >= 100 oracle evaluations, got {budget}")
    if not (isinstance(mode, str) and mode in _ANGLES):
        raise ValueError(f"mode must be coplanar or full, got {mode!r}")

    oracle = _BudgetedOracle(P, budget)

    # Grid points are coordinate tuples, one coordinate per angle of a setting.
    if mode == "coplanar":
        # Spend at most half the budget on the grid, capped at 24 angles.
        m = min(24, max(2, math.isqrt(budget // 2)))
        grid = [((k * 2.0 * math.pi) / m,) for k in range(m)]
        step = (2.0 * math.pi) / m
    else:
        n_theta, n_phi = 6, 8
        need = 2 * (n_theta * n_phi) ** 2
        if budget < need:
            raise ValueError(
                f"full mode needs a budget of at least {need}, got {budget}"
            )
        grid = [
            ((kt * math.pi) / (n_theta - 1), (kp * 2.0 * math.pi) / n_phi)
            for kt in range(n_theta)
            for kp in range(n_phi)
        ]
        step = math.pi / (n_theta - 1)
    grid_s, idx = _grid_scan(oracle, [_vector(coords, mode) for coords in grid])
    if idx is None:
        raise ValueError("every grid quad's CHSH statistic is NaN: the oracle "
                         "returned NaN or infinite correlations")
    if not math.isfinite(grid_s):
        raise ValueError("the best grid quad's CHSH statistic is inf: the oracle's "
                         "correlations overflow")
    start = [x for i in idx for x in grid[i]]

    best_angles, best_s = _pattern_search(oracle, start, grid_s, step, mode)
    # A NaN trial is never accepted, so best_s is finite or inf.
    if not math.isfinite(best_s):
        raise ValueError(f"the searched quad's CHSH statistic is {best_s!r}: "
                         "the oracle's correlations overflow")
    # Accepted states were always evaluated in full, so the report below is
    # served from cache, cannot blow the budget and has S = best_s.
    report = chsh_statistic(oracle, _quad_from_angles(best_angles, mode))
    return MaximizeResult(report=report, evaluations=oracle.evaluations, grid_s_value=grid_s)
