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
``series_value`` stays a scalar function: it evaluates one series side at
one pair of settings.
``reduce_pairs`` serves many setting pairs from one set of draws, which a
caller may keep in a mapping it passes back, and ``reduce_product`` is its
one-pair case. Sign-kind products are +/-1, so their sums are exact integers
in any order: ``reduce_pairs`` takes them all from one matrix product of
the two sides' factors. Per-setting factors are computed in row blocks of
at most _BLOCK elements, so a side with many settings stays in cache. The
readable per-draw loops they reproduce, and the tests that hold them to it,
are in ``tests/oracles_ref.py`` and ``tests/test_backends.py``.

There are two model kernels. KIND_SIGN is the product of
A = sign(a . lam + c_A) and B = sigma_B * sign(b . lam + c_B), with
sign(0) = +1; ``params`` holds (c_A, c_B, sigma_B), and the empty default
means (0, 0, -1). KIND_LINEAR is the linear stochastic model with its
probability-range check; it takes no ``params``. Other models are evaluated
per draw in ``eprb.correlation``, and models whose per-draw value does not
depend on the draw need no kernel at all.

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
# violation; matches the stochastic-model tolerance used in eprb.models.
PROB_SLACK = 1e-9

STATUS_OK = 0
STATUS_BAD_PROBABILITY = 1


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
    +inf (-inf) there, so a row of NaNs keeps the starting inf (-inf).
    Overflow and inf - inf give their IEEE values without a warning.
    """
    if x.shape[1] == 0:
        return [(0.0, 0.0, inf, -inf)] * len(x)
    r = np.arange(len(x))
    nan = np.isnan(x)
    lo, hi = (np.where(nan, inf, x), np.where(nan, -inf, x)) if nan.any() else (x, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return list(zip(
            (0.0 + np.cumsum(x, axis=1)[:, -1]).tolist(),
            (0.0 + np.cumsum(x * x, axis=1)[:, -1]).tolist(),
            lo[r, lo.argmin(axis=1)].tolist(),
            hi[r, hi.argmax(axis=1)].tolist(),
        ))


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


def _row_blocks(nrows, count):
    """Slices of at most _BLOCK elements' worth of rows, covering the rows
    of an (nrows, count) array."""
    step = max(1, _BLOCK // max(1, count))
    return [slice(lo, lo + step) for lo in range(0, nrows, step)]


def _dots(S, l0, l1, l2):
    """s . lam for every row s of ``S`` and every draw: one row per setting."""
    # (s0 * l0 + s1 * l1) + s2 * l2, added in place
    d = S[:, 0:1] * l0
    d += S[:, 1:2] * l1
    d += S[:, 2:3] * l2
    return d


def _sign_halves(S, c, l0, l1, l2):
    """Half of sign(s . lam + c) for every row s of ``S`` and every draw,
    with sign(0) = +1: 0.5 or -0.5, one row per setting. ``c`` holds one
    offset per row, or is None when every offset is 0 (nothing is added)."""
    h = np.empty((len(S), len(l0)))
    for rows in _row_blocks(len(S), len(l0)):
        d = _dots(S[rows], l0, l1, l2)
        if c is not None:
            d += c[rows, None]
        np.subtract(d >= 0.0, 0.5, out=h[rows])
    return h


def _side_probabilities(S, l0, l1, l2, flip):
    """The linear model's (p_plus, p_minus) of one side, one row per row of
    ``S``, and where they first leave [0, 1].

    ``flip`` marks side B, whose outcome is negated: p_plus = (1 - d) / 2
    there. The third item is None when no probability can leave [0, 1],
    and otherwise (first, values): each row's first draw with one outside
    [0, 1] beyond PROB_SLACK (the count when it has none) and the first
    offending probability there, p_plus before p_minus.
    """
    d = _dots(S, l0, l1, l2)
    hi_side, lo_side = 0.5 * (1.0 + d), 0.5 * (1.0 - d)
    plus, minus = (lo_side, hi_side) if flip else (hi_side, lo_side)
    if (np.abs(d) <= 1.0).all():
        # 1 +/- d then rounds into [0, 2], so no probability is bad (a NaN
        # fails this test and takes the full one).
        return plus, minus, None
    # NaN fails both comparisons, as in the per-draw chained test.
    ok_plus = (plus >= -PROB_SLACK) & (plus <= 1.0 + PROB_SLACK)
    ok_minus = (minus >= -PROB_SLACK) & (minus <= 1.0 + PROB_SLACK)
    bad = ~(ok_plus & ok_minus)
    any_bad = bad.any(axis=1)
    first = np.where(any_bad, bad.argmax(axis=1), bad.shape[1])
    values = [0.0] * len(S)
    for r in np.flatnonzero(any_bad).tolist():
        k = first[r]
        values[r] = float(plus[r, k] if not ok_plus[r, k] else minus[r, k])
    return plus, minus, (first, values)


def _side_factors(S, l0, l1, l2, flip):
    """p_plus - p_minus of one side of the linear model, one row per row of
    ``S``, computed in row blocks, and where its probabilities first leave
    [0, 1], as the third item of _side_probabilities."""
    f = np.empty((len(S), len(l0)))
    bad = None
    for rows in _row_blocks(len(S), len(l0)):
        p_plus, p_minus, block_bad = _side_probabilities(S[rows], l0, l1, l2, flip)
        np.subtract(p_plus, p_minus, out=f[rows])
        if block_bad is not None:
            if bad is None:
                bad = np.full(len(S), len(l0)), [0.0] * len(S)
            bad[0][rows], bad[1][rows] = block_bad
    return f, bad


def _pair_stops(bad_a, bad_b, I, J, start, count):
    """Per pair (A[I[p]], B[J[p]]): the number of draws its sums cover and
    the (status, bad_index, bad_value) tail of its result; None when
    neither side has a bad draw.

    A pair stops at the earlier of its sides' first bad draws and reports
    side A's probability when A is bad there, because p1_plus and p1_minus
    are tested before p2_plus and p2_minus.
    """
    if bad_a is None and bad_b is None:
        return None
    ka = bad_a[0][I] if bad_a else np.full(len(I), count)
    kb = bad_b[0][J] if bad_b else np.full(len(J), count)
    return [
        (k, (STATUS_OK, -1, 0.0) if k == count else (
            STATUS_BAD_PROBABILITY, start + k, bad_a[1][i] if a == k else bad_b[1][j]))
        for i, j, a, k in zip(I, J, ka.tolist(), np.minimum(ka, kb).tolist())
    ]


def reduce_pairs(kind, A, B, I, J, sampler_kind, dim, seed, start, count, draws=None,
                 params=()):
    """reduce_product for many setting pairs over one index range, with the
    draws made once.

    ``A`` and ``B`` hold the distinct settings of each side as (g, 3)
    arrays and pair ``p`` is (A[I[p]], B[J[p]]). Each side's factor is
    computed once per setting. The sign kind's pair sums are the entries
    of one matrix product of the two sides' halved signs; the linear kind's
    pair products are reduced in blocks of at most _BLOCK elements, every
    row left to right along the draws. Returns one
    ``(sum, sum_sq, min, max, status, bad_index, bad_value)`` per pair,
    bit-identical to the single-pair call.

    ``draws``, when given, is a mapping from (sampler_kind, dim, seed,
    start, count) to the range's (l0, l1, l2) columns: the draws are read
    from it when present and stored in it when made. ``params`` is the sign
    kind's (c_A, c_B, sigma_B) with one offset per row of ``A`` and one per
    row of ``B``, or empty.
    """
    _check_args(kind, params, sampler_kind, dim)
    if draws is None:
        l0, l1, l2 = _lambda_columns(sampler_kind, seed, start, count, 3)
    else:
        key = (sampler_kind, dim, seed, start, count)
        cols = draws.get(key)
        if cols is None:
            cols = draws[key] = _lambda_columns(sampler_kind, seed, start, count, 3)
        l0, l1, l2 = cols
    I = np.asarray(I, dtype=np.intp)
    J = np.asarray(J, dtype=np.intp)
    if count == 0:
        return [(0.0, 0.0, inf, -inf, STATUS_OK, -1, 0.0)] * len(I)
    A = np.asarray(A, dtype=np.float64).reshape(-1, 3)
    B = np.asarray(B, dtype=np.float64).reshape(-1, 3)
    if kind == KIND_SIGN:
        # sign(a . lam + c_A) * sigma_B * sign(b . lam + c_B). h holds half
        # of each side's sign, both sides in one pass, so a product of
        # halves is +/-1/4: every partial sum is a multiple of 1/4 far below
        # 2**53, and any summation order, the matrix product's included,
        # gives it exactly. Scaling by 4 sigma_B is exact too, so S is the
        # loop's integer sum (0.0 + turns a -0.0 into the loop's +0.0).
        # Then sum_sq = count, and a -1 (+1) product exists when S < count
        # (S > -count).
        offsets, sigma = None, -1.0
        if params:
            offsets = np.concatenate((params[0], params[1]))
            sigma = float(params[2])
        h = _sign_halves(np.concatenate((A, B)), offsets, l0, l1, l2)
        c = float(count)
        return [(s, c, -1.0 if s < c else 1.0, 1.0 if s > -c else -1.0, STATUS_OK, -1, 0.0)
                for s in (0.0 + 4.0 * sigma * (h[:len(A)] @ h[len(A):].T)[I, J]).tolist()]
    fa, bad_a = _side_factors(A, l0, l1, l2, False)
    fb, bad_b = _side_factors(B, l0, l1, l2, True)
    stops = _pair_stops(bad_a, bad_b, I, J, start, count)
    out = []
    for rows in _row_blocks(len(I), count):
        out.extend(fold_rows(fa[I[rows]] * fb[J[rows]]))
    if stops is None:
        return [acc + (STATUS_OK, -1, 0.0) for acc in out]
    # A pair that stops early sums the draws before its first bad one.
    return [
        acc + tail if k == count else fold_rows(fa[i:i + 1, :k] * fb[j:j + 1, :k])[0] + tail
        for acc, i, j, (k, tail) in zip(out, I, J, stops)
    ]


def reduce_product(kind, params, ax, ay, az, bx, by, bz,
                   sampler_kind, dim, seed, start, count):
    """Reduction of per-sample outcome products over one index range.

    Returns ``(sum, sum_sq, min, max, status, bad_index, bad_value)``.
    ``status`` is nonzero when a stochastic model produced a probability
    outside [0, 1] beyond PROB_SLACK; the offending sample index and value
    are reported and the sums cover the draws before it. ``params`` is the
    sign kind's (c_A, c_B, sigma_B), or ``()``. The one-pair case of
    reduce_pairs.
    """
    return reduce_pairs(kind, ((ax, ay, az),), ((bx, by, bz),), (0,), (0,),
                        sampler_kind, dim, seed, start, count, None,
                        params and ((params[0],), (params[1],), params[2]))[0]


def reduce_joint(kind, params, ax, ay, az, bx, by, bz,
                 sampler_kind, dim, seed, start, count):
    """Like reduce_product but accumulating the four joint-outcome
    probabilities (++, --, +-, -+) of a factorized stochastic model: the
    linear model, or a sign model seen as one, whose probabilities are 0
    or 1.

    Returns ``(sums, sum_sqs, mins, maxs, status, bad_index, bad_value)``
    where the first four entries are 4-tuples ordered (pp, mm, pm, mp).
    """
    _check_args(kind, params, sampler_kind, dim)
    l0, l1, l2 = _lambda_columns(sampler_kind, seed, start, count, 3)
    if kind == KIND_SIGN:
        # Each entry is 0 or 1 on every draw, so its sum is an exact count:
        # pp = #(A+ and B+), pm = #A+ - pp, mp = #B+ - pp, mm the rest.
        c_a, c_b, sigma = params or (0.0, 0.0, -1.0)
        h = _sign_halves(np.array([[ax, ay, az], [bx, by, bz]]),
                         np.array([c_a, c_b], dtype=np.float64) if params else None,
                         l0, l1, l2)
        plus_a, plus_b = h[0] > 0.0, (h[1] > 0.0) == (sigma > 0.0)
        pp, na, nb = (int(np.count_nonzero(x)) for x in (plus_a & plus_b, plus_a, plus_b))
        accs = [(float(k), float(k), 0.0 if k < count else 1.0, 1.0 if k else 0.0)
                if count else (0.0, 0.0, inf, -inf)
                for k in (pp, count - na - nb + pp, na - pp, nb - pp)]
        return tuple(zip(*accs)) + (STATUS_OK, -1, 0.0)
    p1_plus, p1_minus, bad_a = _side_probabilities(np.array([[ax, ay, az]]), l0, l1, l2, False)
    p2_plus, p2_minus, bad_b = _side_probabilities(np.array([[bx, by, bz]]), l0, l1, l2, True)
    [(k, tail)] = _pair_stops(bad_a, bad_b, [0], [0], start, count) or [(count, (STATUS_OK, -1, 0.0))]
    x = np.concatenate((p1_plus * p2_plus, p1_minus * p2_minus,
                        p1_plus * p2_minus, p1_minus * p2_plus))
    return tuple(zip(*fold_rows(x[:, :k]))) + tail


def series_value(coeffs, degree, c0, ax, ay, az, bx, by, bz):
    """Truncated double power series in the setting components.

    value = c0 + sum over i,j in 1..degree and r,s in 1..3 of
    coeffs[i,j,r,s] * (a_r)^i * (b_s)^j, with coeffs flattened C-order.
    Accumulation order (i, j, r, s) and left-associated products are part of
    the backend contract.
    """
    if degree < 1 or degree > MAX_DEGREE:
        raise ValueError(f"series degree {degree} outside 1..{MAX_DEGREE}")
    n = degree * degree * 9
    if len(coeffs) != n:
        raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
    # pa[r][i] = component_r ** i by iterated multiply, i = 1..degree
    pa = [[0.0] * (degree + 1) for _ in range(3)]
    pb = [[0.0] * (degree + 1) for _ in range(3)]
    comps_a = (ax, ay, az)
    comps_b = (bx, by, bz)
    for r in range(3):
        pa[r][1] = comps_a[r]
        pb[r][1] = comps_b[r]
        for i in range(2, degree + 1):
            pa[r][i] = pa[r][i - 1] * comps_a[r]
            pb[r][i] = pb[r][i - 1] * comps_b[r]
    acc = c0
    t = 0
    for i in range(1, degree + 1):
        for j in range(1, degree + 1):
            for r in range(3):
                for s in range(3):
                    acc += float(coeffs[t]) * pa[r][i] * pb[s][j]
                    t += 1
    return acc
