# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled compute kernels.

Twin of ``_pykernels.py``: same arithmetic, same operation order, same libm
calls, so results agree bit for bit with the pure-Python backend. Compiled
with -O2 only (no fast-math, no FMA contraction) to keep IEEE semantics.
The same two model kernels as the twin: KIND_SIGN and KIND_LINEAR. The C
file is generated from this one at build time and is not kept in the tree.
"""

from libc.math cimport INFINITY, cos, sin, sqrt
from libc.stdint cimport int64_t, uint64_t

MASK64 = (1 << 64) - 1

cdef uint64_t _GOLDEN = 0x9E3779B97F4A7C15ULL
cdef uint64_t _MIX_M1 = 0xBF58476D1CE4E5B9ULL
cdef uint64_t _MIX_M2 = 0x94D049BB133111EBULL
cdef double _INV_2_53 = 1.0 / 9007199254740992.0
cdef double _TWO_PI = 6.283185307179586

SAMPLER_SPHERE = 0
SAMPLER_CUBE = 1

KIND_SIGN = 1
KIND_LINEAR = 2

MAX_DIM = 64
MAX_DEGREE = 16

PROB_SLACK = 1e-9

STATUS_OK = 0
STATUS_BAD_PROBABILITY = 1

cdef int _SAMPLER_SPHERE = 0
cdef int _SAMPLER_CUBE = 1
cdef int _KIND_SIGN = 1
cdef int _KIND_LINEAR = 2
cdef double _PROB_SLACK = 1e-9


cdef inline uint64_t _mix64(uint64_t x) noexcept nogil:
    x = (x ^ (x >> 30)) * _MIX_M1
    x = (x ^ (x >> 27)) * _MIX_M2
    return x ^ (x >> 31)


cdef inline uint64_t _stream_word(uint64_t seed, uint64_t index, uint64_t component) noexcept nogil:
    cdef uint64_t h = _mix64(seed + _GOLDEN)
    h = _mix64(h + (index + 1) * _GOLDEN)
    h = _mix64(h + (component + 1) * _GOLDEN)
    return h


cdef inline double _uniform01(uint64_t seed, uint64_t index, uint64_t component) noexcept nogil:
    return <double> (_stream_word(seed, index, component) >> 11) * _INV_2_53


cdef inline void _lambda_fill(int sampler_kind, int dim, uint64_t seed,
                              uint64_t i, double* lam) noexcept nogil:
    cdef double u0, u1, z, phi, s
    cdef int j
    if sampler_kind == _SAMPLER_SPHERE:
        u0 = _uniform01(seed, i, 0)
        u1 = _uniform01(seed, i, 1)
        z = 2.0 * u0 - 1.0
        phi = _TWO_PI * u1
        s = sqrt(1.0 - z * z)
        lam[0] = s * cos(phi)
        lam[1] = s * sin(phi)
        lam[2] = z
    else:
        for j in range(dim):
            lam[j] = _uniform01(seed, i, j)


cdef inline double _sign(double d) noexcept nogil:
    return 1.0 if d >= 0.0 else -1.0


def mix64(x):
    """SplitMix64 finalizer: a bijective 64-bit avalanche mix."""
    return _mix64(<uint64_t> (x & MASK64))


def stream_word(seed, index, component):
    """The 64-bit word backing component ``component`` of draw ``index``."""
    return _stream_word(<uint64_t> (seed & MASK64), <uint64_t> index, <uint64_t> component)


def uniform01(seed, index, component):
    """Uniform double in [0, 1) from the top 53 bits of the stream word."""
    return _uniform01(<uint64_t> (seed & MASK64), <uint64_t> index, <uint64_t> component)


def lambda_at(sampler_kind, dim, seed, index):
    """One hidden-variable draw as a tuple of floats."""
    cdef int kind_c = sampler_kind
    cdef int dim_c = dim
    cdef double lam[64]
    if kind_c != _SAMPLER_SPHERE and kind_c != _SAMPLER_CUBE:
        raise ValueError(f"unknown sampler kind code {sampler_kind}")
    if dim_c < 1 or dim_c > 64:
        raise ValueError(f"sampler dimension {dim} outside 1..64")
    if kind_c == _SAMPLER_SPHERE:
        dim_c = 3
    _lambda_fill(kind_c, dim_c, <uint64_t> (seed & MASK64), <uint64_t> index, lam)
    return tuple(lam[j] for j in range(dim_c))


def lambda_batch(sampler_kind, dim, seed, start, count):
    return [lambda_at(sampler_kind, dim, seed, start + k) for k in range(count)]


def reduce_product(kind, params, ax, ay, az, bx, by, bz,
                   sampler_kind, dim, seed, start, count):
    """Serial reduction of per-sample outcome products over one index range.

    Same contract as the pure-Python twin: returns
    ``(sum, sum_sq, min, max, status, bad_index, bad_value)``.
    """
    cdef int kind_c = kind
    cdef int sampler_c = sampler_kind
    cdef int dim_c = dim
    cdef uint64_t seed_c = <uint64_t> (seed & MASK64)
    cdef int64_t start_c = start
    cdef int64_t count_c = count
    if dim_c < 1 or dim_c > 64:
        raise ValueError(f"sampler dimension {dim} outside 1..64")
    if kind_c != _KIND_SIGN and kind_c != _KIND_LINEAR:
        raise ValueError(f"unknown model kind code {kind}")
    if sampler_c != _SAMPLER_SPHERE and dim_c < 3:
        raise ValueError("model dots a 3-vector against the draw; sampler dimension must be >= 3")

    cdef double ax_c = ax, ay_c = ay, az_c = az
    cdef double bx_c = bx, by_c = by, bz_c = bz
    cdef double s = 0.0, s2 = 0.0, mn = INFINITY, mx = -INFINITY
    cdef double x, d1, d2, mean_a, mean_b
    cdef double p1_plus, p1_minus, p2_plus, p2_minus
    cdef double lam[64]
    cdef double lo = -_PROB_SLACK
    cdef double hi = 1.0 + _PROB_SLACK
    cdef int status = 0
    cdef int64_t i, bad_index = -1
    cdef double bad_value = 0.0

    with nogil:
        if kind_c == _KIND_SIGN:
            for i in range(start_c, start_c + count_c):
                _lambda_fill(sampler_c, dim_c, seed_c, <uint64_t> i, lam)
                d1 = ax_c * lam[0] + ay_c * lam[1] + az_c * lam[2]
                d2 = bx_c * lam[0] + by_c * lam[1] + bz_c * lam[2]
                x = _sign(d1) * (-_sign(d2))
                s += x
                s2 += x * x
                if x < mn:
                    mn = x
                if x > mx:
                    mx = x
        else:
            for i in range(start_c, start_c + count_c):
                _lambda_fill(sampler_c, dim_c, seed_c, <uint64_t> i, lam)
                d1 = ax_c * lam[0] + ay_c * lam[1] + az_c * lam[2]
                d2 = bx_c * lam[0] + by_c * lam[1] + bz_c * lam[2]
                p1_plus = 0.5 * (1.0 + d1)
                p1_minus = 0.5 * (1.0 - d1)
                p2_plus = 0.5 * (1.0 - d2)
                p2_minus = 0.5 * (1.0 + d2)
                if not (lo <= p1_plus <= hi and lo <= p1_minus <= hi
                        and lo <= p2_plus <= hi and lo <= p2_minus <= hi):
                    status = 1
                    bad_index = i
                    if not lo <= p1_plus <= hi:
                        bad_value = p1_plus
                    elif not lo <= p1_minus <= hi:
                        bad_value = p1_minus
                    elif not lo <= p2_plus <= hi:
                        bad_value = p2_plus
                    else:
                        bad_value = p2_minus
                    break
                mean_a = p1_plus - p1_minus
                mean_b = p2_plus - p2_minus
                x = mean_a * mean_b
                s += x
                s2 += x * x
                if x < mn:
                    mn = x
                if x > mx:
                    mx = x

    return (s, s2, mn, mx, status, bad_index, bad_value)


def reduce_pairs(kind, A, B, I, J, sampler_kind, dim, seed, start, count, draws=None):
    """reduce_product for every setting pair (A[I[p]], B[J[p]]), one result
    tuple per pair; twin of the pure version, one pair at a time. ``draws``
    is accepted for the pure version's signature and ignored: each pair
    makes its own draws."""
    return [
        reduce_product(kind, (), A[i][0], A[i][1], A[i][2], B[j][0], B[j][1], B[j][2],
                       sampler_kind, dim, seed, start, count)
        for i, j in zip(I, J)
    ]


def reduce_joint(kind, params, ax, ay, az, bx, by, bz,
                 sampler_kind, dim, seed, start, count):
    """Joint-outcome accumulation (pp, mm, pm, mp); twin of the pure version."""
    cdef int kind_c = kind
    cdef int sampler_c = sampler_kind
    cdef int dim_c = dim
    cdef uint64_t seed_c = <uint64_t> (seed & MASK64)
    cdef int64_t start_c = start
    cdef int64_t count_c = count
    if dim_c < 1 or dim_c > 64:
        raise ValueError(f"sampler dimension {dim} outside 1..64")
    if kind_c != _KIND_LINEAR:
        raise ValueError(f"model kind code {kind} has no joint-table fast path")
    if sampler_c != _SAMPLER_SPHERE and dim_c < 3:
        raise ValueError("model dots a 3-vector against the draw; sampler dimension must be >= 3")

    cdef double ax_c = ax, ay_c = ay, az_c = az
    cdef double bx_c = bx, by_c = by, bz_c = bz
    cdef double s0 = 0.0, s1 = 0.0, s2a = 0.0, s3 = 0.0
    cdef double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0
    cdef double mn0 = INFINITY, mn1 = INFINITY, mn2 = INFINITY, mn3 = INFINITY
    cdef double mx0 = -INFINITY, mx1 = -INFINITY, mx2 = -INFINITY, mx3 = -INFINITY
    cdef double x0, x1, x2, x3, d1, d2
    cdef double p1_plus, p1_minus, p2_plus, p2_minus
    cdef double lam[64]
    cdef double lo = -_PROB_SLACK
    cdef double hi = 1.0 + _PROB_SLACK
    cdef int status = 0
    cdef int64_t i, bad_index = -1
    cdef double bad_value = 0.0

    with nogil:
        for i in range(start_c, start_c + count_c):
            _lambda_fill(sampler_c, dim_c, seed_c, <uint64_t> i, lam)
            d1 = ax_c * lam[0] + ay_c * lam[1] + az_c * lam[2]
            d2 = bx_c * lam[0] + by_c * lam[1] + bz_c * lam[2]
            p1_plus = 0.5 * (1.0 + d1)
            p1_minus = 0.5 * (1.0 - d1)
            p2_plus = 0.5 * (1.0 - d2)
            p2_minus = 0.5 * (1.0 + d2)
            if not (lo <= p1_plus <= hi and lo <= p1_minus <= hi
                    and lo <= p2_plus <= hi and lo <= p2_minus <= hi):
                status = 1
                bad_index = i
                if not lo <= p1_plus <= hi:
                    bad_value = p1_plus
                elif not lo <= p1_minus <= hi:
                    bad_value = p1_minus
                elif not lo <= p2_plus <= hi:
                    bad_value = p2_plus
                else:
                    bad_value = p2_minus
                break
            x0 = p1_plus * p2_plus
            x1 = p1_minus * p2_minus
            x2 = p1_plus * p2_minus
            x3 = p1_minus * p2_plus
            s0 += x0; q0 += x0 * x0
            if x0 < mn0: mn0 = x0
            if x0 > mx0: mx0 = x0
            s1 += x1; q1 += x1 * x1
            if x1 < mn1: mn1 = x1
            if x1 > mx1: mx1 = x1
            s2a += x2; q2 += x2 * x2
            if x2 < mn2: mn2 = x2
            if x2 > mx2: mx2 = x2
            s3 += x3; q3 += x3 * x3
            if x3 < mn3: mn3 = x3
            if x3 > mx3: mx3 = x3

    return ((s0, s1, s2a, s3), (q0, q1, q2, q3),
            (mn0, mn1, mn2, mn3), (mx0, mx1, mx2, mx3),
            status, bad_index, bad_value)


def series_value(coeffs, degree, c0, ax, ay, az, bx, by, bz):
    """Truncated double power series; twin of the pure version."""
    cdef int degree_c = degree
    if degree_c < 1 or degree_c > 16:
        raise ValueError(f"series degree {degree} outside 1..16")
    cdef int n = degree_c * degree_c * 9
    if len(coeffs) != n:
        raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
    cdef double cbuf[2304]
    cdef int t
    for t in range(n):
        cbuf[t] = coeffs[t]
    cdef double pa[3][17]
    cdef double pb[3][17]
    cdef double comps_a[3]
    cdef double comps_b[3]
    comps_a[0] = ax; comps_a[1] = ay; comps_a[2] = az
    comps_b[0] = bx; comps_b[1] = by; comps_b[2] = bz
    cdef double acc = c0
    cdef int i, j, r, s
    with nogil:
        for r in range(3):
            pa[r][1] = comps_a[r]
            pb[r][1] = comps_b[r]
            for i in range(2, degree_c + 1):
                pa[r][i] = pa[r][i - 1] * comps_a[r]
                pb[r][i] = pb[r][i - 1] * comps_b[r]
        t = 0
        for i in range(1, degree_c + 1):
            for j in range(1, degree_c + 1):
                for r in range(3):
                    for s in range(3):
                        acc += cbuf[t] * pa[r][i] * pb[s][j]
                        t += 1
    return acc
