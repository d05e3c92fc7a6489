"""Chunked Monte Carlo reductions with worker-count-invariant results.

Sums are accumulated serially inside fixed-size chunks and the per-chunk
partial sums are folded in chunk order by a single combiner. Workers only
ever compute whole chunks, so the float operation sequence, and therefore
every bit of the result, is independent of how many threads ran. Only the
compiled kernels release the GIL for a whole chunk, so only their chunk jobs
are spread over threads; every other job (the numpy kernels, per-draw
Python code, a Python integrand) runs in chunk order on the calling thread,
where extra threads would add start-up cost and memory but no speed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

CHUNK_SIZE = 4096

# Largest draw count an estimate accepts: the compiled kernels index draws
# with int64, and it keeps the numpy kernels' uint64 index arithmetic exact.
MAX_N = 2**63 - 1


def require_n(n):
    """``n`` as an int, checked to be a draw count an estimate can use."""
    n = int(n)
    if n < 2:
        raise ValueError(f"n must be >= 2 to estimate a standard error, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be <= 2**63 - 1, got {n}")
    return n


def chunk_count(n):
    """Number of chunks covering range(n)."""
    return max(0, -(-int(n) // CHUNK_SIZE))


def chunk_ranges(n, first=0, last=None):
    """(start, count) of chunks ``first`` .. ``last - 1`` of range(n),
    generated lazily; all of them by default."""
    if last is None:
        last = chunk_count(n)
    for c in range(first, last):
        start = c * CHUNK_SIZE
        yield start, min(CHUNK_SIZE, n - start)


def _run_group(job, n, first, last):
    return [job(start, count) for start, count in chunk_ranges(n, first, last)]


def pool_size(workers, nchunks):
    """Threads to run ``nchunks`` chunks on for a request of ``workers``.

    Never more than the CPUs this process may run on, nor than the chunks,
    so a large ``--workers`` costs nothing. Raises ValueError below 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus, nchunks))


def run_chunk_jobs(job, n, workers=1, threaded=False):
    """Run ``job(start, count)`` over every chunk, in chunk order.

    Results come back as a list ordered by chunk index regardless of
    ``workers``. Only a ``threaded`` job, one that releases the GIL, runs
    on a thread pool (see ``pool_size``); any other job runs on the calling
    thread. Exceptions surface in chunk order too: the serial path stops at
    the first failing chunk, and the threaded path raises the
    earliest-submitted group's error first. ``workers`` below 1 is a
    ValueError whether or not threads would start.
    """
    nchunks = chunk_count(n)
    nworkers = pool_size(workers, nchunks)
    if nworkers == 1 or not threaded:
        return _run_group(job, n, 0, nchunks)
    # Contiguous groups keep error ordering aligned with chunk order.
    per = -(-nchunks // nworkers)
    firsts = range(0, nchunks, per)
    parts = []
    with ThreadPoolExecutor(max_workers=len(firsts)) as pool:
        futures = [pool.submit(_run_group, job, n, k, min(k + per, nchunks)) for k in firsts]
        for fut in futures:
            parts.extend(fut.result())
    return parts


def combine_scalar(parts, n):
    """Fold per-chunk (sum, sum_sq, min, max) into (mean, stderr)."""
    s = 0.0
    s2 = 0.0
    mn = math.inf
    mx = -math.inf
    for ps, ps2, pmn, pmx in parts:
        s += ps
        s2 += ps2
        if pmn < mn:
            mn = pmn
        if pmx > mx:
            mx = pmx
    return _finalize(s, s2, mn, mx, n)


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


def accumulate(xs):
    """(sum, sum_sq, min, max) of the values in ``xs``, added in order.

    The accumulation order matches the kernels: serial sum, sum of squares,
    running min/max.
    """
    s = 0.0
    s2 = 0.0
    mn = math.inf
    mx = -math.inf
    for x in xs:
        s += x
        s2 += x * x
        if x < mn:
            mn = x
        if x > mx:
            mx = x
    return s, s2, mn, mx


def accumulate4(rows):
    """Same as accumulate for 4-tuples of values, column by column."""
    return tuple(zip(*(accumulate(col) for col in zip(*rows))))
