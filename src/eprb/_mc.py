"""Chunked Monte Carlo reductions with worker-count-invariant results.

Sums are accumulated serially inside fixed-size chunks (by the kernels, or
by ``_backend.fold_rows`` on per-draw values), and the one chunk driver,
``run_chunk_jobs``, folds each row's chunk sums into a running sum in chunk
order: every bit of a result is fixed by ``n`` alone, and a row's memory
does not depend on ``n``. Chunk jobs (numpy kernels, per-draw Python code,
a Python integrand) hold the GIL for most of their time, so all run on the
calling thread, where extra threads would add start-up cost and memory but
no speed. The public ``workers`` arguments are checked by ``require_n`` and
otherwise change nothing.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

# ThreadPoolExecutor is unused here. perfbench's tracer counts thread pools
# by wrapping this name, until it reads a trace the program writes itself
# (ROADMAP item 2).

CHUNK_SIZE = 4096

# Largest draw count an estimate accepts: draw indices stay int64 values,
# and the numpy kernels' uint64 index arithmetic stays exact.
MAX_N = 2**63 - 1


def require_n(n, workers=1):
    """``n`` as an int, checked to be a draw count an estimate can use, and
    then ``workers`` checked to be at least 1."""
    n = int(n)
    if n < 2:
        raise ValueError(f"n must be >= 2 to estimate a standard error, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be <= 2**63 - 1, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return n


def chunk_count(n):
    """Number of chunks covering range(n)."""
    return max(0, -(-int(n) // CHUNK_SIZE))


def chunk_ranges(n, first=0):
    """(start, count) of chunk ``first`` and every later chunk of range(n),
    generated lazily; all of them by default."""
    for c in range(first, chunk_count(n)):
        start = c * CHUNK_SIZE
        yield start, min(CHUNK_SIZE, n - start)


def run_chunk_jobs(job, n):
    """Run ``job(start, count)`` over every chunk, in chunk order, on the
    calling thread, and return one running accumulator per row.

    A job returns one part per row: (sum, sum_sq, min, max), optionally
    followed by (status, bad_index, bad_value). Each row folds its parts
    with ``fold_part`` until a part with a nonzero status replaces its
    sums; the row then keeps that 7-field part and ignores its later ones.
    The first failing chunk's exception propagates.
    """
    accs = []
    for start, count in chunk_ranges(n):
        parts = job(start, count)
        accs = [acc if len(acc) > 4 else part if any(part[4:5]) else fold_part(acc, part[:4])
                for acc, part in zip(accs or [NO_SUMS] * len(parts), parts)]
    return accs


# The (sum, sum_sq, min, max) of no draws, where every fold starts.
NO_SUMS = (0.0, 0.0, math.inf, -math.inf)


def fold_part(acc, part):
    """``acc`` (sum, sum_sq, min, max) with the next chunk's ``part`` folded in."""
    s, s2, mn, mx = acc
    ps, ps2, pmn, pmx = part
    return s + ps, s2 + ps2, pmn if pmn < mn else mn, pmx if pmx > mx else mx


def combine_scalar(parts, n):
    """Fold per-chunk (sum, sum_sq, min, max) into (mean, stderr)."""
    return _finalize(*functools.reduce(fold_part, parts, NO_SUMS), n)


def combine_vec4(parts, n):
    """Fold per-chunk 4-way accumulators into four (mean, stderr) pairs,
    each column by ``combine_scalar``."""
    return [combine_scalar(column, n) for column in zip(*(zip(*part) for part in parts))]


def _finalize(s, s2, mn, mx, n):
    mean = s / n
    if mn == mx:
        # Constant sample: the unbiased variance is exactly zero, and the
        # cancellation-prone formula below must not manufacture noise.
        return mean, 0.0
    var = (s2 - (s * s) / n) / (n - 1)
    if var < 0.0:
        var = 0.0
    return mean, math.sqrt(var / n)

