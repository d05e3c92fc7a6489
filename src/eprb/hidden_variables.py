"""Hidden-variable sampling and Monte Carlo integration.

Draws are counter-based: sample ``i`` of a given sampler is a pure function
of ``(seed, i)``, so any index range can be generated independently, in any
order, on any worker, and the numbers never change. That is what makes the
estimates in this package exactly reproducible run to run and invariant in
the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _backend as _k
from ._mc import combine_scalar, require_n, run_chunk_jobs
from .catalog import SAMPLER_KINDS
from .errors import whole_number

__all__ = [
    "SAMPLER_KINDS",
    "LambdaSampler",
    "MonteCarloEstimate",
    "integrate",
]

_KIND_CODES = {
    "uniform_sphere": _k.SAMPLER_SPHERE,
    "uniform_cube": _k.SAMPLER_CUBE,
}


@dataclass(frozen=True)
class LambdaSampler:
    """A reproducible stream of hidden-variable draws.

    kind:
        "uniform_sphere" draws uniformly on the unit sphere in R^3
        (dim must be 3); "uniform_cube" draws uniformly from [0, 1]^dim.
    dim:
        Number of components per draw, 1..64.
    seed:
        Stream selector; reduced mod 2^64 so any Python int is accepted.
    """

    kind: str = "uniform_sphere"
    dim: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise ValueError(
                f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}"
            )
        dim = whole_number(self.dim, "dim")
        if dim < 1 or dim > _k.MAX_DIM:
            raise ValueError(f"dim must be in 1..{_k.MAX_DIM}, got {self.dim}")
        if self.kind == "uniform_sphere" and dim != 3:
            raise ValueError("uniform_sphere draws live in R^3; dim must be 3")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "seed", whole_number(self.seed, "seed") & _k.MASK64)

    @property
    def kind_code(self) -> int:
        return _KIND_CODES[self.kind]

    def sample(self, index: int) -> tuple[float, ...]:
        """Draw number ``index`` (0-based) of this stream: the one-draw case
        of ``sample_batch``, which is far cheaper per draw for reading many
        consecutive draws."""
        index = whole_number(index, "index")
        if index < 0:
            raise ValueError(f"sample index must be >= 0, got {index}")
        if index > _k.MASK64:
            raise ValueError(f"sample index must be < 2**64, the stream's period, got {index}")
        return _k.lambda_at(self.kind_code, self.dim, self.seed, index)

    def sample_batch(self, start: int, count: int) -> list[tuple[float, ...]]:
        """Draws ``start .. start + count - 1`` as a list of tuples, computed
        a 4096-draw chunk of arrays at a time: the fast way to read many
        draws, with the bits of ``sample`` called on each index."""
        start = whole_number(start, "start")
        count = whole_number(count, "count")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if start + count > _k.MASK64 + 1:
            raise ValueError(
                f"start + count must be <= 2**64, the stream's period, got {start + count}")
        return _k.lambda_batch(self.kind_code, self.dim, self.seed, start, count)

    def to_json(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "LambdaSampler":
        if not isinstance(obj, dict):
            raise ValueError(f"expected a sampler object, got {obj!r}")
        extra = set(obj) - {"kind", "dim", "seed"}
        if extra:
            raise ValueError(f"unknown sampler fields {sorted(extra)}")
        return cls(
            kind=obj.get("kind", "uniform_sphere"),
            dim=obj.get("dim", 3),
            seed=obj.get("seed", 0),
        )


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error over n draws."""

    mean: float
    stderr: float
    n: int

    def interval(self, width: float = 3.0) -> tuple[float, float]:
        """mean +/- width standard errors."""
        w = float(width) * self.stderr
        return (self.mean - w, self.mean + w)


def integrate(
    f: Callable[[Sequence[float]], float],
    sampler: LambdaSampler,
    n: int,
    workers: int = 1,
) -> MonteCarloEstimate:
    """Monte Carlo mean of ``f(lam)`` over ``n`` draws from ``sampler``.

    ``f`` may be any Python callable taking one draw (a tuple of floats) and
    returning a float. The reduction is chunked, and ``workers`` (at
    least 1) changes no bit of the result.
    """
    n = require_n(n, workers)
    [(mean, stderr)] = fold_draws(
        lambda lams, start: np.array([[float(f(lam)) for lam in lams]]), sampler, n)
    return MonteCarloEstimate(mean=mean, stderr=stderr, n=n)


def fold_draws(rows, s, n):
    """(mean, stderr) of each row of per-draw values over draws 0..n-1 of
    ``s``: the one loop of every estimate that evaluates Python code per
    draw.

    ``rows(lams, start)`` gets one chunk's draws (draw ``start`` first, as
    ``lambda_batch`` makes them) and returns a float64 array with one row
    per quantity and one column per draw. Each row's chunk sums, by
    ``fold_rows``, are folded as they come by ``run_chunk_jobs``.
    ``n`` is a draw count already checked by ``require_n``.
    """
    def job(start, count):
        return _k.fold_rows(rows(_k.lambda_batch(s.kind_code, s.dim, s.seed, start, count), start))

    return [combine_scalar((acc,), n) for acc in run_chunk_jobs(job, n)]


def sphere_sampler(seed: int = 0) -> LambdaSampler:
    """Shorthand for the default 3-sphere stream."""
    return LambdaSampler(kind="uniform_sphere", dim=3, seed=seed)


def cube_sampler(dim: int, seed: int = 0) -> LambdaSampler:
    """Shorthand for a [0, 1]^dim stream."""
    return LambdaSampler(kind="uniform_cube", dim=dim, seed=seed)
