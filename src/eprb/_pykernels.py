"""Pure-Python compute kernels.

Reference implementation of the compiled extension in ``_kernels.pyx``.
Both backends perform the same floating-point operations in the same order
and call the same libm routines, so their results agree bit for bit; the
cross-checks live in ``tests/test_backends.py``. This module is the slow
path, kept for installs without a C toolchain and as the readable statement
of the arithmetic contract.

There are two model kernels: KIND_SIGN, the product sign(a . lam) times
-sign(b . lam), and KIND_LINEAR, the linear stochastic model with its
probability-range check. Other models are evaluated per draw in
``eprb.correlation``, and models whose per-draw value does not depend on
the draw need no kernel at all.

Hidden-variable draws are counter-addressed: component ``j`` of sample ``i``
is a pure function of ``(seed, i, j)`` obtained by absorbing each word into
a SplitMix64-style avalanche mix. Nothing is streamed, so any partition of
an index range reproduces identical values.
"""

from __future__ import annotations

from math import cos, inf, sin, sqrt

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53, exact
_TWO_PI = 6.283185307179586

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


def mix64(x):
    """SplitMix64 finalizer: a bijective 64-bit avalanche mix."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX_M1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX_M2) & MASK64
    return x ^ (x >> 31)


def stream_word(seed, index, component):
    """The 64-bit word backing component ``component`` of draw ``index``."""
    h = mix64((seed + _GOLDEN) & MASK64)
    h = mix64((h + ((index + 1) * _GOLDEN)) & MASK64)
    h = mix64((h + ((component + 1) * _GOLDEN)) & MASK64)
    return h


def uniform01(seed, index, component):
    """Uniform double in [0, 1) from the top 53 bits of the stream word."""
    return (stream_word(seed, index, component) >> 11) * _INV_2_53


def _sphere_lambda(seed, i):
    # Inverse-CDF sphere point: z uniform on [-1, 1), azimuth uniform.
    u0 = uniform01(seed, i, 0)
    u1 = uniform01(seed, i, 1)
    z = 2.0 * u0 - 1.0
    phi = _TWO_PI * u1
    s = sqrt(1.0 - z * z)
    return (s * cos(phi), s * sin(phi), z)


def _cube_lambda(seed, i, dim):
    return tuple(uniform01(seed, i, j) for j in range(dim))


def lambda_at(sampler_kind, dim, seed, index):
    """One hidden-variable draw as a tuple of floats."""
    if sampler_kind == SAMPLER_SPHERE:
        return _sphere_lambda(seed, index)
    if sampler_kind == SAMPLER_CUBE:
        return _cube_lambda(seed, index, dim)
    raise ValueError(f"unknown sampler kind code {sampler_kind}")


def lambda_batch(sampler_kind, dim, seed, start, count):
    return [lambda_at(sampler_kind, dim, seed, start + k) for k in range(count)]


def _sign(d):
    # Tie convention: sign(0) = +1.
    return 1.0 if d >= 0.0 else -1.0


def reduce_product(kind, params, ax, ay, az, bx, by, bz,
                   sampler_kind, dim, seed, start, count):
    """Serial reduction of per-sample outcome products over one index range.

    Returns ``(sum, sum_sq, min, max, status, bad_index, bad_value)``.
    ``status`` is nonzero when a stochastic model produced a probability
    outside [0, 1] beyond PROB_SLACK; the offending sample index and value
    are reported and the reduction stops there. ``params`` is unused by
    both kinds; callers pass ``()``.
    """
    if dim < 1 or dim > MAX_DIM:
        raise ValueError(f"sampler dimension {dim} outside 1..{MAX_DIM}")
    if kind != KIND_SIGN and kind != KIND_LINEAR:
        raise ValueError(f"unknown model kind code {kind}")
    if sampler_kind != SAMPLER_SPHERE and dim < 3:
        raise ValueError("model dots a 3-vector against the draw; sampler dimension must be >= 3")
    s = 0.0
    s2 = 0.0
    mn = inf
    mx = -inf
    status = STATUS_OK
    bad_index = -1
    bad_value = 0.0
    lo = -PROB_SLACK
    hi = 1.0 + PROB_SLACK

    if kind == KIND_SIGN:
        for i in range(start, start + count):
            lam = lambda_at(sampler_kind, dim, seed, i)
            d1 = ax * lam[0] + ay * lam[1] + az * lam[2]
            d2 = bx * lam[0] + by * lam[1] + bz * lam[2]
            x = _sign(d1) * (-_sign(d2))
            s += x
            s2 += x * x
            if x < mn:
                mn = x
            if x > mx:
                mx = x
    else:
        for i in range(start, start + count):
            lam = lambda_at(sampler_kind, dim, seed, i)
            d1 = ax * lam[0] + ay * lam[1] + az * lam[2]
            d2 = bx * lam[0] + by * lam[1] + bz * lam[2]
            p1_plus = 0.5 * (1.0 + d1)
            p1_minus = 0.5 * (1.0 - d1)
            p2_plus = 0.5 * (1.0 - d2)
            p2_minus = 0.5 * (1.0 + d2)
            if not (lo <= p1_plus <= hi and lo <= p1_minus <= hi
                    and lo <= p2_plus <= hi and lo <= p2_minus <= hi):
                status = STATUS_BAD_PROBABILITY
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


def reduce_joint(kind, params, ax, ay, az, bx, by, bz,
                 sampler_kind, dim, seed, start, count):
    """Like reduce_product but accumulating the four joint-outcome
    probabilities (++, --, +-, -+) of a factorized stochastic model.

    Returns ``(sums, sum_sqs, mins, maxs, status, bad_index, bad_value)``
    where the first four entries are 4-tuples ordered (pp, mm, pm, mp).
    """
    if dim < 1 or dim > MAX_DIM:
        raise ValueError(f"sampler dimension {dim} outside 1..{MAX_DIM}")
    if kind != KIND_LINEAR:
        raise ValueError(f"model kind code {kind} has no joint-table fast path")
    if sampler_kind != SAMPLER_SPHERE and dim < 3:
        raise ValueError("model dots a 3-vector against the draw; sampler dimension must be >= 3")
    s = [0.0, 0.0, 0.0, 0.0]
    s2 = [0.0, 0.0, 0.0, 0.0]
    mn = [inf, inf, inf, inf]
    mx = [-inf, -inf, -inf, -inf]
    status = STATUS_OK
    bad_index = -1
    bad_value = 0.0
    lo = -PROB_SLACK
    hi = 1.0 + PROB_SLACK

    for i in range(start, start + count):
        lam = lambda_at(sampler_kind, dim, seed, i)
        d1 = ax * lam[0] + ay * lam[1] + az * lam[2]
        d2 = bx * lam[0] + by * lam[1] + bz * lam[2]
        p1_plus = 0.5 * (1.0 + d1)
        p1_minus = 0.5 * (1.0 - d1)
        p2_plus = 0.5 * (1.0 - d2)
        p2_minus = 0.5 * (1.0 + d2)
        if not (lo <= p1_plus <= hi and lo <= p1_minus <= hi
                and lo <= p2_plus <= hi and lo <= p2_minus <= hi):
            status = STATUS_BAD_PROBABILITY
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
        _acc4(s, s2, mn, mx, x0, x1, x2, x3)

    return (tuple(s), tuple(s2), tuple(mn), tuple(mx), status, bad_index, bad_value)


def _acc4(s, s2, mn, mx, x0, x1, x2, x3):
    s[0] += x0
    s2[0] += x0 * x0
    if x0 < mn[0]:
        mn[0] = x0
    if x0 > mx[0]:
        mx[0] = x0
    s[1] += x1
    s2[1] += x1 * x1
    if x1 < mn[1]:
        mn[1] = x1
    if x1 > mx[1]:
        mx[1] = x1
    s[2] += x2
    s2[2] += x2 * x2
    if x2 < mn[2]:
        mn[2] = x2
    if x2 > mx[2]:
        mx[2] = x2
    s[3] += x3
    s2[3] += x3 * x3
    if x3 < mn[3]:
        mn[3] = x3
    if x3 > mx[3]:
        mx[3] = x3


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
