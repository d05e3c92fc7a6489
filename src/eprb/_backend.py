"""The kernel backend: the draw stream and the chunk reductions, as numpy
arrays.

Every draw comes from one array stream: ``lambda_batch``, ``reduce_pairs``,
``reduce_product`` and ``reduce_joint`` compute a whole index range (one
chunk of at most 4096 draws) as uint64/float64 arrays, and ``lambda_at``,
which is ``LambdaSampler.sample``, is the one-draw case of ``lambda_batch``.
uint64 products wrap mod 2**64 exactly like masked integer arithmetic, and
each array operation rounds like its scalar counterpart, so a draw has the
same bits in any range that holds it. ``fold_rows`` is the one fold of
chunk values into (sum, sum_sq, min, max): sums run left to right.
``series_values`` evaluates many series of one degree at one pair of
settings, one term at a time over all of them, with the bits of the scalar
loop per series.
A chunk's kernel rows for many setting pairs come from one pair of steps,
which every kernel estimate takes: ``setting_rows`` computes each side's
row for each distinct setting, in row blocks of at most _BLOCK elements so
a side with many settings stays in cache, and ``pair_rows`` reduces each
pair from its two rows, to one row for the outcome product or, with
``joint``, four for the joint-outcome probabilities. A caller may keep a
range's draws (``draw_columns``) and its setting rows, and reuse them.
Sign-kind products are +/-1, so their sums are exact integers in any
order: ``pair_rows`` takes them all, and the joint counts, from one matrix
product of the two sides' halved signs. ``reduce_pairs`` is the two steps
on one range's draws, and ``reduce_product`` and ``reduce_joint`` are its
one-pair cases, which nothing else in eprb calls. The readable per-draw
loops they reproduce, and the tests that hold them to it, are in
``tests/oracles_ref.py`` and ``tests/test_backends.py``.

There are two model kernels. KIND_SIGN is the product of
A = sign(a . lam + c_A) and B = sigma_B * sign(b . lam + c_B), with
sign(0) = +1; ``params`` holds (c_A, c_B, sigma_B), and the empty default
means (0, 0, -1). KIND_LINEAR is the linear stochastic model with its
probability-range check; it takes no ``params``. A kernel row is a chunk's
(sum, sum_sq, min, max), or (draw index, probability) at the row's first
probability outside [0, 1] in the chunk, which only the linear kind
reports: ``eprb._mc.run_chunk_jobs`` reads that record and raises it.
Other models are evaluated per draw in ``eprb.correlation``, and models
whose per-draw value does not depend on the draw need no kernel at all.

Hidden-variable draws are counter-addressed: component ``j`` of sample ``i``
is a pure function of ``(seed, i, j)`` obtained by absorbing each word into
a SplitMix64-style avalanche mix. Nothing is streamed, so any partition of
an index range reproduces identical values.
"""

from __future__ import annotations

from math import inf

import numpy as np

from ._mc import CHUNK_SIZE

BACKEND_NAME = "python"

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, exact
_TWO_PI = 6.283185307179586

# uint64 scalar forms of the mixing constants and shift counts: a uint64
# array combined with one stays uint64 on numpy 1.x too, where a Python int
# operand would promote it to float64.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX_M1_U64 = np.uint64(_MIX_M1)
_MIX_M2_U64 = np.uint64(_MIX_M2)
_SHIFT_U64 = {k: np.uint64(k) for k in (11, 27, 30, 31)}

SAMPLER_SPHERE = 0
SAMPLER_CUBE = 1

KIND_SIGN = 1
KIND_LINEAR = 2

MAX_DIM = 64
MAX_DEGREE = 16

# Band allowed around [0, 1] before a probability counts as a contract
# violation, here and in eprb.models' per-draw check.
PROB_SLACK = 1e-9


def lambda_at(sampler_kind, dim, seed, index):
    """One hidden-variable draw as a tuple of floats: the one-draw case of
    lambda_batch."""
    return lambda_batch(sampler_kind, dim, seed, index, 1)[0]


def lambda_batch(sampler_kind, dim, seed, start, count):
    """Draws ``start .. start + count - 1`` as a list of tuples of floats,
    computed one chunk of arrays at a time."""
    out = []
    for lo in range(start, start + count, CHUNK_SIZE):
        cols = _lambda_columns(sampler_kind, seed, lo, min(CHUNK_SIZE, start + count - lo), dim)
        out.extend(zip(*(c.tolist() for c in cols)))
    return out


def _mix64_array(x):
    """The SplitMix64 finalizer, a bijective 64-bit avalanche mix, of every
    entry of a uint64 array, in place, or of one np.uint64 (returned).
    A scalar's wrapping products warn unless overflow is ignored."""
    x ^= x >> _SHIFT_U64[30]
    x *= _MIX_M1_U64
    x ^= x >> _SHIFT_U64[27]
    x *= _MIX_M2_U64
    x ^= x >> _SHIFT_U64[31]
    return x


def _stream_words(seed, start, count, ncomp):
    """The 64-bit words backing components 0 .. ncomp - 1 of draws
    start .. start + count - 1, as an (ncomp, count) uint64 array.

    Word (j, i) is mix64(mix64(mix64(seed + G) + (i + 1) G) + (j + 1) G),
    every sum and product taken mod 2**64, with mix64 the finalizer of
    _mix64_array and G the golden-ratio constant _GOLDEN.
    """
    with np.errstate(over="ignore"):
        base = _mix64_array(np.uint64((seed + _GOLDEN) & MASK64))
        h = np.arange(count, dtype=np.uint64)
        h += np.uint64((start + 1) & MASK64)
        h *= _GOLDEN_U64
        h += base
        _mix64_array(h)
        # One row per component, mixed together.
        w = h + np.array([((j + 1) * _GOLDEN) & MASK64 for j in range(ncomp)],
                         dtype=np.uint64)[:, None]
        return _mix64_array(w)


def _uniform_columns(seed, start, count, ncomp):
    """Uniform doubles in [0, 1) from the top 53 bits of the stream words,
    one float64 array per component j < ncomp (the rows of one 2-D array)."""
    w = _stream_words(seed, start, count, ncomp)
    w >>= _SHIFT_U64[11]
    return list(w.astype(np.float64) * _INV_2_53)


def _lambda_columns(sampler_kind, seed, start, count, ncomp):
    """Components 0 .. ncomp - 1 of draws start .. start + count - 1, one
    float64 array per component.

    A sphere draw is the inverse-CDF point: z = 2 u0 - 1 uniform on [-1, 1),
    azimuth 2 pi u1, radius sqrt(1 - z * z) in the xy-plane. A cube draw's
    components are the uniforms themselves.
    """
    if sampler_kind == SAMPLER_SPHERE:
        u0, u1 = _uniform_columns(seed, start, count, 2)
        z = 2.0 * u0 - 1.0
        phi = _TWO_PI * u1
        s = np.sqrt(1.0 - z * z)
        return [s * np.cos(phi), s * np.sin(phi), z][:ncomp]
    if sampler_kind == SAMPLER_CUBE:
        return _uniform_columns(seed, start, count, ncomp)
    raise ValueError(f"unknown sampler kind code {sampler_kind}")


def draw_columns(sampler_kind, dim, seed, start, count, draws=None):
    """The three columns (l0, l1, l2) of draws start .. start + count - 1.

    ``draws``, when given, is a mapping from (sampler_kind, dim, seed,
    start, count) to a range's columns: they are read from it when present
    and stored in it when made.
    """
    if draws is None:
        return _lambda_columns(sampler_kind, seed, start, count, 3)
    key = (sampler_kind, dim, seed, start, count)
    cols = draws.get(key)
    if cols is None:
        cols = draws[key] = _lambda_columns(sampler_kind, seed, start, count, 3)
    return cols


def fold_rows(x):
    """(sum, sum_sq, min, max) of each row of the 2-D float64 array ``x``,
    one tuple per row, with the bits of a loop that starts from (0.0, 0.0,
    inf, -inf), adds the row's values and their squares left to right and
    keeps a value as min (max) when it is strictly below (above) the one
    kept so far.

    cumsum adds left to right like the loop (np.sum would add pairwise);
    the leading 0.0 + is the loop's starting value, which turns an all
    -0.0 sum into +0.0. argmin/argmax pick the first extreme like the
    loop's strict comparisons; a NaN, which no comparison keeps, reads as
    +inf (-inf) there, so a row of NaNs keeps the starting inf (-inf). A
    NaN makes its row's sum NaN, so NaNs are looked for only then.
    Overflow and inf - inf give their IEEE values without a warning.
    """
    if x.shape[1] == 0:
        return [(0.0, 0.0, inf, -inf)] * len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (0.0 + x.cumsum(axis=1)[:, -1]).tolist()
        sums_sq = (0.0 + (x * x).cumsum(axis=1)[:, -1]).tolist()
    lo = hi = x
    if any(v != v for v in sums):
        nan = np.isnan(x)
        lo, hi = np.where(nan, inf, x), np.where(nan, -inf, x)
    r = np.arange(len(x))
    return list(zip(sums, sums_sq, lo[r, lo.argmin(axis=1)].tolist(),
                    hi[r, hi.argmax(axis=1)].tolist()))


def _check_args(kind, params, sampler_kind, dim):
    if dim < 1 or dim > MAX_DIM:
        raise ValueError(f"sampler dimension {dim} outside 1..{MAX_DIM}")
    if kind != KIND_SIGN and kind != KIND_LINEAR:
        raise ValueError(f"unknown model kind code {kind}")
    if params and (kind == KIND_LINEAR or params[2] not in (1.0, -1.0)):
        raise ValueError(f"params {params!r} do not fit model kind code {kind}")
    if sampler_kind != SAMPLER_SPHERE and dim < 3:
        raise ValueError("model dots a 3-vector against the draw; sampler dimension must be >= 3")


# Most elements of one block of a settings-by-draws or pairs-by-draws
# array: factors are computed, and linear pair products reduced, this many
# at a time, so the transient arrays stay small enough for the cache
# whatever the number of settings or pairs.
_BLOCK = 1 << 13


def _row_blocks(nrows, count, whole=1):
    """Slices of at most _BLOCK elements' worth of rows, covering the rows
    of an (nrows, count) array, in runs of ``whole`` rows: a block holds at
    least one run, whatever its size."""
    step = whole * max(1, _BLOCK // max(1, whole * count))
    return [slice(lo, lo + step) for lo in range(0, nrows, step)]


def _dots(S, l0, l1, l2):
    """s . lam for every row s of ``S`` and every draw: one row per setting."""
    # (s0 * l0 + s1 * l1) + s2 * l2, added in place
    d = S[:, 0:1] * l0
    d += S[:, 1:2] * l1
    d += S[:, 2:3] * l2
    return d


def setting_rows(kind, S, c, flip, l0, l1, l2, joint=False):
    """One side's rows for the settings, the rows of the (g, 3) array ``S``,
    on one range's draws, computed in row blocks, and where the linear
    kind's probabilities first leave [0, 1].

    The sign kind's row is half of sign(s . lam + c), with sign(0) = +1:
    0.5 or -0.5 at each draw. ``c`` holds one offset per row, or is None
    when every offset is 0 (nothing is added). The linear kind's row is
    p_plus - p_minus; with ``joint`` the rows are p_plus for each setting
    and then p_minus for each. ``flip`` marks side B, whose outcome is
    negated: p_plus = (1 - d) / 2 there. The second item maps each setting
    with a probability outside [0, 1] beyond PROB_SLACK in the range to
    its first such draw, counted from the range's start, and the first
    offending probability there, p_plus before p_minus.
    """
    g, count = len(S), len(l0)
    f = np.empty((1 + (joint and kind == KIND_LINEAR), g, count))
    c = None if c is None else np.asarray(c, dtype=np.float64)
    bad = {}
    for rows in _row_blocks(g, count):
        d = _dots(S[rows], l0, l1, l2)
        if kind == KIND_SIGN:
            if c is not None:
                d += c[rows, None]
            np.subtract(d >= 0.0, 0.5, out=f[0, rows])
            continue
        hi_side, lo_side = 0.5 * (1.0 + d), 0.5 * (1.0 - d)
        plus, minus = (lo_side, hi_side) if flip else (hi_side, lo_side)
        if joint:
            f[0, rows], f[1, rows] = plus, minus
        else:
            np.subtract(plus, minus, out=f[0, rows])
        if (np.abs(d) <= 1.0).all():
            # 1 +/- d then rounds into [0, 2], so no probability is bad (a
            # NaN fails this test and takes the full one).
            continue
        # NaN fails both comparisons, as in the per-draw chained test.
        ok_plus = (plus >= -PROB_SLACK) & (plus <= 1.0 + PROB_SLACK)
        ok_minus = (minus >= -PROB_SLACK) & (minus <= 1.0 + PROB_SLACK)
        is_bad = ~(ok_plus & ok_minus)
        for r in np.flatnonzero(is_bad.any(axis=1)).tolist():
            k = int(is_bad[r].argmax())
            bad[rows.start + r] = k, float(plus[r, k] if not ok_plus[r, k] else minus[r, k])
    return f.reshape(len(f) * g, count), bad


def _sign_sums(s, count):
    """Sign-kind rows, one per float of the list ``s``: sigma_B times a
    pair's sum of products of halved signs over ``count`` draws.

    A product of halves is +/-1/4, so every partial sum is a multiple of 1/4
    far below 2**53, and any summation order gives it exactly; 4 s, exact
    too, is the loop's integer sum of +/-1 products (0.0 + turns a -0.0 into
    the loop's +0.0). Then sum_sq = count, and a -1 (+1) product exists when
    4 s < count (4 s > -count).
    """
    c = float(count)
    return [(x, c, -1.0 if x < c else 1.0, 1.0 if x > -c else -1.0)
            for x in [0.0 + 4.0 * v for v in s]]


def _first_bad_draws(bad_a, bad_b, I, J, start):
    """Per pair (A[I[p]], B[J[p]]): (draw index, probability) of its first
    bad draw in the range that starts at draw ``start``, or None when it
    has none, from the sides' maps of ``setting_rows``; None for the whole
    list when neither side has a bad draw.

    A pair's first bad draw is the earlier of its sides' and reports side
    A's probability when A is bad there, because p1_plus and p1_minus are
    tested before p2_plus and p2_minus.
    """
    if not bad_a and not bad_b:
        return None
    out = []
    for i, j in zip(I, J):
        a, b = bad_a.get(i), bad_b.get(j)
        first = a if b is None or a is not None and a[0] <= b[0] else b
        out.append(first and (start + first[0], first[1]))
    return out


def pair_rows(kind, RA, RB, I, J, sigma, start, bad_a, bad_b, joint=False):
    """One kernel row per pair (A[I[p]], B[J[p]]) of settings, from the
    sides' rows ``RA`` and ``RB`` and bad-draw maps of ``setting_rows`` on
    the range that starts at draw ``start``: ``(sum, sum_sq, min, max)``,
    or ``(draw index, probability)`` when one of the pair's probabilities
    first leaves [0, 1] beyond PROB_SLACK in the range. With ``joint`` a
    pair gives four rows, the sums of its joint-outcome probabilities
    ordered (pp, mm, pm, mp), or four copies of its first bad draw.
    ``sigma`` is the sign kind's sigma_B.

    The sign kind's pair sums are entries of one matrix product of the two
    sides' halved signs (see _sign_sums), and its joint counts follow from
    them. The linear kind's pair products, and its joint entries, products
    of the sides' p_plus and p_minus rows, are reduced in blocks of at most
    _BLOCK elements, every row left to right along the draws.
    """
    count = RA.shape[1]
    if kind == KIND_SIGN:
        # sign(a . lam + c_A) * sigma_B * sign(b . lam + c_B), each pair's
        # entry taken from the matrix product by its flat index.
        P = RA.dot(RB.T)
        s = [sigma * v for v in P.take([i * len(RB) + j for i, j in zip(I, J)]).tolist()]
        if not joint:
            return _sign_sums(s, count)
        c = float(count)
        # A side's outcome is + where its halved sign (times sigma_B on
        # side B) is +1/2, so it has n+ = (sum of halves) + count/2 of them,
        # and pp, the sum of (h_A + 1/2)(h_B + 1/2), is s + (n+_A + n+_B)/2
        # - count/4. Every term is a multiple of 1/4: the counts are exact.
        s = np.array(s)
        na = RA.sum(axis=1)[I] + c / 2
        nb = sigma * RB.sum(axis=1)[J] + c / 2
        pp = s + (na + nb) / 2 - c / 4
        counts = np.stack((pp, c - na - nb + pp, na - pp, nb - pp), axis=1)
        return [(k, k, 0.0 if k < c else 1.0, 1.0 if k else 0.0)
                for k in counts.ravel().tolist()]
    bad = _first_bad_draws(bad_a, bad_b, I, J, start)
    if joint:
        # Rows pp, mm, pm, mp of a pair multiply A's p_plus or p_minus row
        # (the latter len(RA) / 2 rows on) by B's.
        ga, gb = len(RA) // 2, len(RB) // 2
        I = [i + d for i in I for d in (0, ga, 0, ga)]
        J = [j + d for j in J for d in (0, gb, gb, 0)]
        bad = bad and [first for first in bad for _ in range(4)]
    out = []
    for rows in _row_blocks(len(I), count, 4 if joint else 1):
        out.extend(fold_rows(RA.take(I[rows], axis=0) * RB.take(J[rows], axis=0)))
    if bad is None:
        return out
    return [acc if first is None else first for acc, first in zip(out, bad)]


def reduce_pairs(kind, A, B, I, J, sampler_kind, dim, seed, start, count, draws=None,
                 params=(), joint=False):
    """reduce_product for many setting pairs over one index range, with the
    draws made once; with ``joint``, reduce_joint's four sums for each.

    ``A`` and ``B`` hold the distinct settings of each side as (g, 3)
    arrays and pair ``p`` is (A[I[p]], B[J[p]]). Each side's rows are
    computed once per setting (``setting_rows``) and the pairs reduced
    from them (``pair_rows``), the path of every kernel estimate. Returns
    one row per pair, bit-identical to the single-pair call, as
    ``pair_rows`` gives them.

    ``draws`` is the mapping of ``draw_columns``, or None. ``params`` is the
    sign kind's (c_A, c_B, sigma_B) with one offset per row of ``A`` and one
    per row of ``B``, or empty.
    """
    _check_args(kind, params, sampler_kind, dim)
    cols = draw_columns(sampler_kind, dim, seed, start, count, draws)
    if count == 0:
        return [(0.0, 0.0, inf, -inf)] * (4 * len(I) if joint else len(I))
    c_a, c_b, sigma = params or (None, None, -1.0)
    RA, bad_a = setting_rows(kind, np.asarray(A, dtype=np.float64).reshape(-1, 3), c_a, False,
                             *cols, joint)
    RB, bad_b = setting_rows(kind, np.asarray(B, dtype=np.float64).reshape(-1, 3), c_b, True,
                             *cols, joint)
    return pair_rows(kind, RA, RB, I, J, float(sigma), start, bad_a, bad_b, joint)


def reduce_product(kind, params, ax, ay, az, bx, by, bz,
                   sampler_kind, dim, seed, start, count):
    """Reduction of per-sample outcome products over one index range.

    Returns ``(sum, sum_sq, min, max)``, or ``(draw index, probability)``
    at the first draw where a stochastic model's probability leaves [0, 1]
    beyond PROB_SLACK. ``params`` is the sign kind's (c_A, c_B, sigma_B),
    or ``()``. The one-pair case of reduce_pairs.
    """
    _check_args(kind, params, sampler_kind, dim)
    return reduce_pairs(kind, ((ax, ay, az),), ((bx, by, bz),), (0,), (0,),
                        sampler_kind, dim, seed, start, count, None,
                        params and ((params[0],), (params[1],), params[2]))[0]


def reduce_joint(kind, params, ax, ay, az, bx, by, bz,
                 sampler_kind, dim, seed, start, count):
    """Like reduce_product but accumulating the four joint-outcome
    probabilities (++, --, +-, -+) of a factorized stochastic model: the
    linear model, or a sign model seen as one, whose probabilities are 0
    or 1. The one-pair joint case of reduce_pairs.

    Returns ``(sums, sum_sqs, mins, maxs)``, each a 4-tuple ordered (pp,
    mm, pm, mp), or reduce_product's ``(draw index, probability)``.
    """
    _check_args(kind, params, sampler_kind, dim)
    rows = reduce_pairs(kind, ((ax, ay, az),), ((bx, by, bz),), (0,), (0,),
                        sampler_kind, dim, seed, start, count, None,
                        params and ((params[0],), (params[1],), params[2]), joint=True)
    return rows[0] if len(rows[0]) == 2 else tuple(zip(*rows))


def series_powers(ax, ay, az, bx, by, bz):
    """The setting powers a series reads: (pa, pb), (3, MAX_DEGREE) arrays
    with pa[r, i - 1] = a_r ** i and pb[s, j - 1] = b_s ** j. cumprod
    multiplies along the power axis in order, so each power is the iterated
    product a_r * a_r * ... of a loop."""
    x = np.array([ax, ay, az, bx, by, bz], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.cumprod(np.repeat(x[:, None], MAX_DEGREE, axis=1), axis=1)
    return p[:3], p[3:]


def series_values(coeffs, c0, pa, pb):
    """Truncated double power series at one pair of settings, one value per
    series, as a float64 array.

    Row k of the (m, degree, degree, 3, 3) array ``coeffs`` is one series'
    coefficients and ``c0`` its constant (one float, or one per row):
    value_k = c0 + sum over i, j in 1..degree and r, s in 1..3 of
    coeffs[k, i-1, j-1, r, s] * (a_r)^i * (b_s)^j, with the powers read
    from ``pa`` and ``pb`` of series_powers. Each term is
    (coeff * a_r^i) * b_s^j, and the terms are added to c0 one at a time
    in (i, j, r, s) order (cumsum along the term axis adds in order): the
    bits of the scalar loop. Overflow and inf - inf give their IEEE values
    without a warning.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    degree = coeffs.shape[1] if coeffs.ndim == 5 else 0
    if degree < 1 or degree > MAX_DEGREE:
        raise ValueError(f"series degree {degree} outside 1..{MAX_DEGREE}")
    if coeffs.shape[2:] != (degree, 3, 3):
        raise ValueError(
            f"expected (m, {degree}, {degree}, 3, 3) coefficients, got {coeffs.shape}")
    shape = (degree, degree, 3, 3)
    fa = np.broadcast_to(pa[:, :degree].T[:, None, :, None], shape).reshape(-1, 1)
    fb = np.broadcast_to(pb[:, :degree].T[None, :, None, :], shape).reshape(-1, 1)
    # One row per term after the constant's row, one column per series.
    t = np.empty((1 + fa.size, len(coeffs)))
    t[0] = c0
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(coeffs.reshape(len(coeffs), -1).T, fa, out=t[1:])
        t[1:] *= fb
        return np.cumsum(t, axis=0)[-1]
