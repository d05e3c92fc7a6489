"""Reference values computed by deliberately different means than the package.

Quadrature instead of Monte Carlo, a from-scratch word mixer instead of the
kernel one, per-draw scalar loops instead of the chunk-array kernels,
brute-force polynomial loops instead of the array series evaluator, a dense
numpy scan instead of the pattern search. test_oracles.py pins each of these
against closed forms before any other module trusts them; test_backends.py
holds the kernels to the per-draw loops bit for bit. The scalar series
loop is the plain form of the array series evaluator, which
test_backends.py holds to it, and the per-draw series estimate built on it
is the plain form of the chunked one, which test_correlation.py holds to
it. The grid-scan loop and the one-pair-at-a-time budget wrapper are the
plain forms of the settings search's numpy scan and batched wrapper, which
test_inequalities.py holds to them. The per-point disc report is the plain form of the analyticity
module's whole-grid stencil, which test_analyticity.py holds to it.
"""

import functools
import math

import numpy as np

from eprb._backend import KIND_SIGN, PROB_SLACK, SAMPLER_SPHERE
from eprb.analyticity import wirtinger_residual
from eprb.correlation import quantum_correlation_complex
from eprb.geometry import RiemannPoint

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

TWO_SQRT_TWO = 2.8284271247461903


def ref_mix64(x: int) -> int:
    x &= MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def ref_stream_word(seed: int, i: int, j: int) -> int:
    x = ref_mix64((seed + GOLDEN) & MASK)
    x = ref_mix64((x + (i + 1) * GOLDEN) & MASK)
    return ref_mix64((x + (j + 1) * GOLDEN) & MASK)


def ref_uniform01(seed: int, i: int, j: int) -> float:
    return (ref_stream_word(seed, i, j) >> 11) * 2.0 ** -53


def ref_sphere_point(seed: int, i: int) -> tuple:
    z = 2.0 * ref_uniform01(seed, i, 0) - 1.0
    phi = 2.0 * math.pi * ref_uniform01(seed, i, 1)
    s = math.sqrt(1.0 - z * z)
    return (s * math.cos(phi), s * math.sin(phi), z)


def ref_cube_point(seed: int, i: int, dim: int) -> tuple:
    return tuple(ref_uniform01(seed, i, j) for j in range(dim))


@functools.lru_cache(maxsize=None)
def ref_draw3(sampler_kind: int, seed: int, i: int) -> tuple:
    """Components 0..2 of draw i, the only ones the model kernels read.
    Memoized: the references ask for the same draws case after case."""
    if sampler_kind == SAMPLER_SPHERE:
        return ref_sphere_point(seed, i)
    return ref_cube_point(seed, i, 3)


def _ref_accumulate(acc: list, x: float) -> None:
    # acc = [sum, sum_sq, min, max], updated in draw order
    acc[0] += x
    acc[1] += x * x
    if x < acc[2]:
        acc[2] = x
    if x > acc[3]:
        acc[3] = x


def _ref_linear_probabilities(lam, a, b):
    """(p1_plus, p1_minus, p2_plus, p2_minus) of the linear model, and the
    first of them outside [0, 1] beyond PROB_SLACK, or None."""
    d1 = a[0] * lam[0] + a[1] * lam[1] + a[2] * lam[2]
    d2 = b[0] * lam[0] + b[1] * lam[1] + b[2] * lam[2]
    probs = (0.5 * (1.0 + d1), 0.5 * (1.0 - d1), 0.5 * (1.0 - d2), 0.5 * (1.0 + d2))
    lo, hi = -PROB_SLACK, 1.0 + PROB_SLACK
    bad = next((p for p in probs if not lo <= p <= hi), None)
    return probs, bad


def ref_reduce_product(kind, params, ax, ay, az, bx, by, bz,
                       sampler_kind, dim, seed, start, count):
    """The reduce_product kernel written as a loop over draws: same
    arguments, same result tuple (argument checks left out): the sums, or
    (draw index, probability) at the first bad draw."""
    a, b = (ax, ay, az), (bx, by, bz)
    acc = [0.0, 0.0, math.inf, -math.inf]
    for i in range(start, start + count):
        lam = ref_draw3(sampler_kind, seed, i)
        if kind == KIND_SIGN:
            d1 = ax * lam[0] + ay * lam[1] + az * lam[2]
            d2 = bx * lam[0] + by * lam[1] + bz * lam[2]
            # sign(0) = +1
            x = (1.0 if d1 >= 0.0 else -1.0) * -(1.0 if d2 >= 0.0 else -1.0)
        else:
            (p1p, p1m, p2p, p2m), bad = _ref_linear_probabilities(lam, a, b)
            if bad is not None:
                return (i, bad)
            x = (p1p - p1m) * (p2p - p2m)
        _ref_accumulate(acc, x)
    return tuple(acc)


def _ref_sign_probabilities(lam, a, b, params):
    """(p1_plus, p1_minus, p2_plus, p2_minus) of the sign kind seen as a
    stochastic model, 0 or 1: A = sign(a . lam + c_A) and B = sigma_B *
    sign(b . lam + c_B), with sign(0) = +1 and params (c_A, c_B, sigma_B)."""
    c_a, c_b, sigma = params or (0.0, 0.0, -1.0)
    d1 = a[0] * lam[0] + a[1] * lam[1] + a[2] * lam[2] + c_a
    d2 = b[0] * lam[0] + b[1] * lam[1] + b[2] * lam[2] + c_b
    p1 = 1.0 if d1 >= 0.0 else 0.0
    p2 = 1.0 if sigma * (1.0 if d2 >= 0.0 else -1.0) > 0.0 else 0.0
    return p1, 1.0 - p1, p2, 1.0 - p2


def ref_reduce_joint(kind, params, ax, ay, az, bx, by, bz,
                     sampler_kind, dim, seed, start, count):
    """The reduce_joint kernel (entries ++, --, +-, -+) written as a loop
    over draws: the linear model, or the sign kind with its 0/1
    probabilities. The four columns' sums, or (draw index, probability)
    at the first bad draw."""
    a, b = (ax, ay, az), (bx, by, bz)
    accs = [[0.0, 0.0, math.inf, -math.inf] for _ in range(4)]
    for i in range(start, start + count):
        lam = ref_draw3(sampler_kind, seed, i)
        if kind == KIND_SIGN:
            (p1p, p1m, p2p, p2m), bad = _ref_sign_probabilities(lam, a, b, params), None
        else:
            (p1p, p1m, p2p, p2m), bad = _ref_linear_probabilities(lam, a, b)
        if bad is not None:
            return (i, bad)
        for acc, x in zip(accs, (p1p * p2p, p1m * p2m, p1p * p2m, p1m * p2p)):
            _ref_accumulate(acc, x)
    return tuple(zip(*accs))


def ref_sign_outcome_sums(outcomes, lams) -> tuple:
    """The sign kernels' sums from a model's per-draw outcomes, called on
    each draw of ``lams`` in order: (sum, sum_sq, min, max) of alpha * beta,
    and the joint-table accumulators of the 0/1 probabilities the
    outcomes give, entries ++, --, +-, -+."""
    acc = [0.0, 0.0, math.inf, -math.inf]
    rows = []
    for lam in lams:
        alpha, beta = outcomes(lam)
        _ref_accumulate(acc, alpha * beta)
        p1, p2 = (1.0 if alpha > 0.0 else 0.0), (1.0 if beta > 0.0 else 0.0)
        rows.append((p1 * p2, (1.0 - p1) * (1.0 - p2), p1 * (1.0 - p2), (1.0 - p1) * p2))
    return tuple(acc), ref_accumulate4(rows)


def ref_accumulate4(rows) -> tuple:
    """(sums, sums of squares, minima, maxima) of 4-tuples, all four
    columns updated together row by row."""
    accs = [[0.0, 0.0, math.inf, -math.inf] for _ in range(4)]
    for row in rows:
        for acc, x in zip(accs, row):
            _ref_accumulate(acc, x)
    return tuple(zip(*accs))


def ref_fold4(parts) -> list:
    """Per-column (sum, sum_sq, min, max) of per-chunk 4-way accumulators,
    all four columns folded together chunk by chunk."""
    folded = [[0.0, 0.0, math.inf, -math.inf] for _ in range(4)]
    for ps, ps2, pmn, pmx in parts:
        for k, f in enumerate(folded):
            f[0] += ps[k]
            f[1] += ps2[k]
            if pmn[k] < f[2]:
                f[2] = pmn[k]
            if pmx[k] > f[3]:
                f[3] = pmx[k]
    return folded


def sphere_second_moment(r: int, s: int, nodes: int = 64, n_phi: int = 256) -> float:
    """E[lam_r lam_s] over the uniform sphere, Gauss-Legendre in z times a
    trapezoid rule in the azimuth (spectrally accurate on the periodic
    factor). Indices are 0..2 for x, y, z."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    comps = [
        np.outer(rho, np.cos(phi)),
        np.outer(rho, np.sin(phi)),
        np.outer(z, np.ones(n_phi)),
    ]
    vals = comps[r] * comps[s]
    return float(np.sum(w[:, None] * vals) / (2.0 * n_phi))


def sign_curve_quad(theta: float, nodes: int = 200) -> float:
    """E[sign(a.lam) * (-sign(b.lam))] for a on the z-axis and b tilted by
    theta in the x-z plane, by quadrature.

    The azimuth average of sign(v cos(phi) + u) is 2 acos(clip(-u/v)) / pi - 1,
    leaving a 1-D polar integral with kinks at z = 0 and |z| = sin(theta);
    splitting at the kinks makes plain Gauss-Legendre converge fast.
    """
    st, ct = math.sin(theta), math.cos(theta)
    cuts = sorted({-1.0, -abs(st), 0.0, abs(st), 1.0})
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        z = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        v = st * np.sqrt(np.maximum(1.0 - z * z, 0.0))
        u = ct * z
        safe = np.where(v > 0.0, v, 1.0)
        az = np.where(
            v > 0.0,
            2.0 * np.arccos(np.clip(-u / safe, -1.0, 1.0)) / math.pi - 1.0,
            np.where(u >= 0.0, 1.0, -1.0),
        )
        sz = np.where(z >= 0.0, 1.0, -1.0)
        total += 0.5 * (hi - lo) * float(np.sum(w * sz * (-az)))
    return 0.5 * total


def linear_joint_quad(a, b, nodes: int = 64, n_phi: int = 256) -> tuple:
    """(pp, mm, pm, mp) for outcome probabilities (1 + a.lam)/2 on one side
    and (1 - b.lam)/2 on the other, integrated over the sphere."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    lx = np.outer(rho, np.cos(phi))
    ly = np.outer(rho, np.sin(phi))
    lz = np.outer(z, np.ones(n_phi))
    da = a[0] * lx + a[1] * ly + a[2] * lz
    db = b[0] * lx + b[1] * ly + b[2] * lz
    p1p, p1m = (1.0 + da) / 2.0, (1.0 - da) / 2.0
    p2p, p2m = (1.0 - db) / 2.0, (1.0 + db) / 2.0

    def avg(grid):
        return float(np.sum(w[:, None] * grid) / (2.0 * n_phi))

    return (avg(p1p * p2p), avg(p1m * p2m), avg(p1p * p2m), avg(p1m * p2p))


def series_brute(table, constant: float, a, b) -> float:
    """Brute-force series value: different loop order, ** powers, fsum."""
    table = np.asarray(table)
    degree = table.shape[0]
    terms = [constant]
    for r in range(3):
        for s in range(3):
            for i in range(1, degree + 1):
                for j in range(1, degree + 1):
                    terms.append(table[i - 1, j - 1, r, s] * a[r] ** i * b[s] ** j)
    return math.fsum(terms)


def ref_series_value(coeffs, degree: int, c0: float, a, b) -> float:
    """The scalar series loop the array evaluator reproduces bit for bit:
    powers by iterated multiply, each term (coeff * a_r^i) * b_s^j added
    to c0 in (i, j, r, s) order; ``coeffs`` flattened C-order."""
    pa = [[0.0] * (degree + 1) for _ in range(3)]
    pb = [[0.0] * (degree + 1) for _ in range(3)]
    for r in range(3):
        pa[r][1] = a[r]
        pb[r][1] = b[r]
        for i in range(2, degree + 1):
            pa[r][i] = pa[r][i - 1] * a[r]
            pb[r][i] = pb[r][i - 1] * b[r]
    acc = c0
    t = 0
    for i in range(1, degree + 1):
        for j in range(1, degree + 1):
            for r in range(3):
                for s in range(3):
                    acc += float(coeffs[t]) * pa[r][i] * pb[s][j]
                    t += 1
    return acc


def ref_series_parts(generator, a, b, sampler_kind: int, seed: int, n: int) -> list:
    """Per-chunk (sum, sum_sq, min, max) of the draw-dependent series
    product -A^2 over draws 0..n-1, by the per-draw loop: the generator's
    coefficients at each draw evaluated by ref_series_value, accumulated in
    draw order within each 4096-draw chunk."""
    parts = []
    for start in range(0, n, 4096):
        acc = [0.0, 0.0, math.inf, -math.inf]
        for i in range(start, min(n, start + 4096)):
            c = generator(ref_draw3(sampler_kind, seed, i))
            v = ref_series_value(c.table.ravel().tolist(), c.degree, c.constant_term,
                                 a, b)
            _ref_accumulate(acc, v * -v)
        parts.append(tuple(acc))
    return parts


def chsh_scan_coplanar(grid: int = 720) -> float:
    """Dense independent scan of the four-correlation sum for P = -cos."""
    t = 2.0 * math.pi * np.arange(grid) / grid
    C = -np.cos(np.subtract.outer(t, t))
    best = 0.0
    for jb in range(grid):
        col_b = C[:, jb]
        for jbp in range(grid):
            col_bp = C[:, jbp]
            s = np.max(np.abs(col_b - col_bp)) + np.max(col_bp + col_b)
            if s > best:
                best = s
    return float(best)


def ref_grid_scan(values):
    """Best four-correlation sum over all index quads of the value matrix
    ``values[i][j]``, as the settings search's grid phase computed it with
    a pure-Python cubic loop: for each (b, b') each absolute term is
    maximized over its own first setting with strict comparisons, and ties
    go to the lexicographically smallest (ia, jb, iap, jbp)."""
    g = len(values)
    best = -math.inf
    best_idx = None
    for jb in range(g):
        for jbp in range(g):
            t1_best = -math.inf
            ia_best = 0
            for ia in range(g):
                t1 = abs(values[ia][jb] - values[ia][jbp])
                if t1 > t1_best:
                    t1_best = t1
                    ia_best = ia
            t2_best = -math.inf
            iap_best = 0
            for iap in range(g):
                t2 = abs(values[iap][jbp] + values[iap][jb])
                if t2 > t2_best:
                    t2_best = t2
                    iap_best = iap
            s = t1_best + t2_best
            idx = (ia_best, jb, iap_best, jbp)
            if s > best or (s == best and best_idx is not None and idx < best_idx):
                best = s
                best_idx = idx
    return best, best_idx


class RefBudgetExhausted(Exception):
    pass


class RefBudgetedOracle:
    """The settings search's memoizing budget wrapper, asked one setting
    pair at a time: a cached pair is free, and an uncached one raises once
    ``budget`` distinct pairs have been evaluated."""

    def __init__(self, P, budget):
        self._oracle = P
        self._budget = budget
        self._cache = {}
        self.evaluations = 0

    def __call__(self, a, b):
        key = (a.x, a.y, a.z, b.x, b.y, b.z)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.evaluations >= self._budget:
            raise RefBudgetExhausted
        est = self._oracle(a, b)
        self.evaluations += 1
        self._cache[key] = est
        return est


def pq_axis_curve(x: float) -> float:
    """Singlet correlation at (z, infinity) restricted to the real axis."""
    return (1.0 - x * x) / (1.0 + x * x)


def ref_pq_report(w, radius: float, k: int, h: float, tol: float) -> tuple:
    """The singlet disc report one point at a time: (rows, max_residual,
    verdict value), rows being (re, im, residual) in grid order.

    Non-finite residuals are kept as they come, so a caller can find the
    first one; the stencil's own errors (a vanishing step, a point off the
    finite plane) raise as they did per point.
    """
    # The disc test on x, y and R scaled by 2**-e, where R = m * 2**e.
    m, e = math.frexp(radius)
    points = []
    for iy in range(k):
        y = -radius + (2.0 * radius * iy) / (k - 1)
        for ix in range(k):
            x = -radius + (2.0 * radius * ix) / (k - 1)
            sx, sy = math.ldexp(x, -e), math.ldexp(y, -e)
            if sx * sx + sy * sy <= m * m:
                points.append(RiemannPoint.finite(x, y))
    if not points:
        raise ValueError("need at least one point")

    def f(z: complex) -> float:
        return quantum_correlation_complex(RiemannPoint.from_complex(z), w)

    rows = []
    max_residual = 0.0
    for z in points:
        mag = abs(wirtinger_residual(f, z, h))
        rows.append((z.re, z.im, mag))
        if mag > max_residual:
            max_residual = mag
    verdict = "non_analytic" if max_residual > tol else "analytic_within_tol"
    return rows, max_residual, verdict
