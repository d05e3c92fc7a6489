"""Numerical complex-analysis diagnostics.

The working tool is the conjugate-coordinate derivative estimated by
central differences: it vanishes exactly where a function satisfies the
Cauchy-Riemann equations and its magnitude is a direct witness of
non-analyticity. On top of it sit a constancy certificate for real-valued
functions (real + analytic on a connected domain forces constant) and a
grid report showing the singlet correlation's conjugate dependence in
stereographic coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .correlation import quantum_correlation_complex
from .geometry import RiemannPoint, riemann_to_obj

__all__ = [
    "Verdict",
    "ResidualReport",
    "wirtinger_residual",
    "residual_report",
    "constancy_check",
    "pq_nonanalyticity_report",
    "DEFAULT_H",
    "DEFAULT_TOL",
]

DEFAULT_H = 1e-4
DEFAULT_TOL = 1e-5
# Largest lattice resolution per axis: k * k points, about 785k inside the disc.
MAX_GRID = 1000


class Verdict(Enum):
    ANALYTIC_WITHIN_TOL = "analytic_within_tol"
    NON_ANALYTIC = "non_analytic"


@dataclass(frozen=True)
class ResidualReport:
    """Conjugate-derivative magnitudes over a point set.

    ``verdict`` is NON_ANALYTIC exactly when ``max_residual`` exceeds
    ``tol``.
    """

    points: tuple[tuple[RiemannPoint, float], ...]
    max_residual: float
    h: float
    tol: float
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "verdict": self.verdict.value,
            "points": [
                {"z": riemann_to_obj(z), "residual": r} for z, r in self.points
            ],
        }


def wirtinger_residual(
    f: Callable[[complex], complex], z: RiemannPoint, h: float
) -> complex:
    """Central-difference estimate of the conjugate-coordinate derivative.

    Second-order accurate for smooth f, and exact (in floats) on functions
    linear in x and y because the quotients divide by the realized step
    ``(z.re + h) - (z.re - h)`` rather than the nominal 2h.
    """
    if z.is_infinite:
        raise ValueError("residual stencil needs a finite point")
    h = float(h)
    if not (h > 0.0) or math.isinf(h):
        raise ValueError(f"step must be a positive finite real, got {h!r}")
    x, y = z.re, z.im
    xp = x + h
    xm = x - h
    yp = y + h
    ym = y - h
    if xp == xm or yp == ym:
        raise ValueError(f"step {h!r} vanishes against the point {z!r}")
    fx = (complex(f(complex(xp, y))) - complex(f(complex(xm, y)))) / (xp - xm)
    fy = (complex(f(complex(x, yp))) - complex(f(complex(x, ym)))) / (yp - ym)
    return 0.5 * (fx + 1j * fy)


def residual_report(
    f: Callable[[complex], complex],
    points: Sequence[RiemannPoint],
    h: float = DEFAULT_H,
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Residual magnitudes of ``f`` over ``points`` with the verdict."""
    if not points:
        raise ValueError("need at least one point")
    tol = float(tol)
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    rows = []
    max_residual = 0.0
    for z in points:
        mag = abs(wirtinger_residual(f, z, h))
        rows.append((z, mag))
        if mag > max_residual:
            max_residual = mag
    verdict = (
        Verdict.NON_ANALYTIC
        if max_residual > tol
        else Verdict.ANALYTIC_WITHIN_TOL
    )
    return ResidualReport(
        points=tuple(rows),
        max_residual=max_residual,
        h=float(h),
        tol=tol,
        verdict=verdict,
    )


def constancy_check(
    f: Callable[[complex], complex],
    samples: Sequence[RiemannPoint],
    tol: float = DEFAULT_TOL,
    h: float = DEFAULT_H,
) -> tuple[Verdict, float, ResidualReport]:
    """Certify a real-valued function as flat via its residuals.

    Returns (verdict, spread, report): residual verdict over the samples
    and the spread max f - min f. A function that is real everywhere and
    residual-flat should show spread at the same scale, which is the
    numerical content of the constancy theorem; a non-real value anywhere
    is a precondition failure, not a verdict.
    """
    if len(samples) < 2:
        raise ValueError("need at least two sample points")
    lo = math.inf
    hi = -math.inf
    for z in samples:
        if z.is_infinite:
            raise ValueError("samples must be finite points")
        value = complex(f(z.to_complex()))
        if abs(value.imag) > 1e-12:
            raise ValueError(
                f"function is not real-valued at {z!r}: imaginary part {value.imag!r}"
            )
        if value.real < lo:
            lo = value.real
        if value.real > hi:
            hi = value.real
    spread = hi - lo
    report = residual_report(f, samples, h=h, tol=tol)
    return report.verdict, spread, report


def _disc_grid(radius: float, k: int) -> list[RiemannPoint]:
    # k x k lattice over the bounding square, kept where |z| <= radius.
    points = []
    for iy in range(k):
        y = -radius + (2.0 * radius * iy) / (k - 1)
        for ix in range(k):
            x = -radius + (2.0 * radius * ix) / (k - 1)
            if x * x + y * y <= radius * radius:
                points.append(RiemannPoint.finite(x, y))
    return points


def pq_nonanalyticity_report(
    w: RiemannPoint,
    radius: float = 1.0,
    k: int = 21,
    h: float = DEFAULT_H,
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Residuals of z -> singlet correlation at (z, w) over a disc grid.

    The map is real-valued yet visibly non-flat, so a NON_ANALYTIC verdict
    is the expected outcome for every w.
    """
    radius = float(radius)
    if not (radius > 0.0) or math.isinf(radius):
        raise ValueError(f"radius must be a positive finite real, got {radius!r}")
    k = int(k)
    if k < 2 or k > MAX_GRID:
        raise ValueError(f"grid resolution must be in 2..{MAX_GRID}, got {k}")

    def f(z: complex) -> complex:
        return quantum_correlation_complex(RiemannPoint.from_complex(z), w)

    return residual_report(f, _disc_grid(radius, k), h=h, tol=tol)
