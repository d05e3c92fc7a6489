"""Numerical complex-analysis diagnostics.

The working tool is the conjugate-coordinate derivative estimated by
central differences: it vanishes exactly where a function satisfies the
Cauchy-Riemann equations and its magnitude is a direct witness of
non-analyticity. On top of it sit a constancy certificate for real-valued
functions (real + analytic on a connected domain forces constant) and a
grid report showing the singlet correlation's conjugate dependence in
stereographic coordinates.

The generic tools take any Python callable and run one point at a time.
The singlet grid report runs the same four-point stencil as numpy arrays
over the whole disc: the lattice and its ``|z| <= R`` mask, the shifted
coordinates ``x +- h`` and ``y +- h``, the rational singlet formula with its
overflow branches and the difference quotients are the per-point float
operations in the same order, so every residual equals the per-point
one bit for bit. A report's rows are one (m, 3) array of
``(re, im, residual)``, so the grid report and its writers build no point
objects.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .catalog import DEFAULT_H
from .errors import whole_number
from .geometry import RiemannPoint, quantum_correlation_complex

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

DEFAULT_TOL = 1e-5
# Largest lattice resolution per axis: k * k points, about 785k inside the disc.
MAX_GRID = 1000


class Verdict(Enum):
    ANALYTIC_WITHIN_TOL = "analytic_within_tol"
    NON_ANALYTIC = "non_analytic"


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Conjugate-derivative magnitudes over a point set.

    ``points`` is an (m, 3) float64 array with one row ``(re, im,
    residual)`` per point, in the order given. ``verdict`` is NON_ANALYTIC
    exactly when ``max_residual`` exceeds ``tol``.
    """

    points: np.ndarray
    h: float
    tol: float

    @property
    def max_residual(self) -> float:
        return float(self.points[:, 2].max())

    @property
    def verdict(self) -> Verdict:
        if self.max_residual > self.tol:
            return Verdict.NON_ANALYTIC
        return Verdict.ANALYTIC_WITHIN_TOL

    def summary(self) -> dict:
        return {
            "h": self.h,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "verdict": self.verdict.value,
        }

    def to_json(self) -> dict:
        return {
            **self.summary(),
            "points": [
                {"z": {"re": x, "im": y}, "residual": r} for x, y, r in self.points.tolist()
            ],
        }


def _step(h: float) -> float:
    h = float(h)
    if not (h > 0.0) or math.isinf(h):
        raise ValueError(f"step must be a positive finite real, got {h!r}")
    return h


def _finite_residual(z: RiemannPoint, mag: float, h: float) -> float:
    # A NaN would slip past every `>` comparison and read as analytic.
    if not math.isfinite(mag):
        raise ValueError(
            f"residual at {z!r} is {mag!r} with step {h!r}: "
            "the stencil overflowed or lost its precision there"
        )
    return mag


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
    h = _step(h)
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
    """Residual magnitudes of ``f`` over ``points`` with the verdict.

    A residual that is NaN or infinite raises ValueError naming its point.
    """
    if not points:
        raise ValueError("need at least one point")
    tol = _tolerance(tol)
    rows = []
    for z in points:
        mag = _finite_residual(z, abs(wirtinger_residual(f, z, h)), h)
        rows.append((z.re, z.im, mag))
    return ResidualReport(np.array(rows, dtype=np.float64), float(h), tol)


def _tolerance(tol: float) -> float:
    tol = float(tol)
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    return tol


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


def _disc_grid(radius: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of the k x k lattice over the bounding square, kept where
    |z| <= radius, in row-major order (im outer, re inner).

    The test x*x + y*y <= R*R runs on x, y and R scaled by 2**-e, where
    R = m * 2**e with m in [0.5, 1), so its squares neither overflow nor
    underflow at any radius. Scaling by a power of two is exact, so where
    the unscaled squares are normal numbers the same points are kept.
    A kept point that is not finite raises, and so does a finite lattice
    whose k steps are not strictly increasing (at a subnormal radius they
    can round onto each other), since its points would repeat.
    """
    m, e = math.frexp(radius)
    with np.errstate(all="ignore"):
        steps = -radius + (2.0 * radius * np.arange(k, dtype=np.float64)) / (k - 1)
        scaled = np.ldexp(steps, -e)
        sq = scaled * scaled
        iy, ix = np.nonzero(sq[:, None] + sq[None, :] <= m * m)
    re, im = steps[ix], steps[iy]
    lost = ~(np.isfinite(re) & np.isfinite(im))
    if lost.any():
        first = int(np.argmax(lost))
        RiemannPoint.finite(re[first], im[first])  # raises: not a finite point
    if np.isfinite(steps).all() and not (np.diff(steps) > 0.0).all():
        raise ValueError(f"the {k} x {k} lattice over radius {radius!r} repeats points: its "
                         "steps round onto each other; use a larger radius or a smaller grid")
    return re, im


def _pq_values(x: np.ndarray, y: np.ndarray, w: RiemannPoint) -> np.ndarray:
    """quantum_correlation_complex(x + iy, w) elementwise, branch for branch."""
    m = x * x + y * y
    far = np.isinf(m)
    if w.is_infinite or math.isinf(w.re * w.re + w.im * w.im):
        return np.where(far, -1.0, (1.0 - m) / (1.0 + m))
    wr, wi = w.re, w.im
    mw = wr * wr + wi * wi
    num = 4.0 * (x * wr + y * wi) + (1.0 - m) * (1.0 - mw)
    den = (1.0 + m) * (1.0 + mw)
    return np.where(far, (1.0 - mw) / (1.0 + mw), -num / den)


def pq_nonanalyticity_report(
    w: RiemannPoint,
    radius: float = 1.0,
    k: int = 21,
    h: float = DEFAULT_H,
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Residuals of z -> singlet correlation at (z, w) over a disc grid.

    The map is real-valued yet visibly non-flat, so a NON_ANALYTIC verdict
    is the expected outcome for every w. The stencil runs on the whole grid
    at once and equals ``residual_report`` over the same points bit for bit,
    errors included: the first point in grid order whose step vanishes,
    whose stencil leaves the finite plane or whose residual is not finite
    raises the same ValueError.
    """
    radius = float(radius)
    if not (radius > 0.0) or math.isinf(radius):
        raise ValueError(f"radius must be a positive finite real, got {radius!r}")
    k = whole_number(k, "k")
    if k < 2 or k > MAX_GRID:
        raise ValueError(f"grid resolution must be in 2..{MAX_GRID}, got {k}")
    re, im = _disc_grid(radius, k)
    if not len(re):
        raise ValueError("need at least one point")
    tol = _tolerance(tol)
    h = _step(h)
    with np.errstate(all="ignore"):
        xp, xm, yp, ym = re + h, re - h, im + h, im - h
        fx = (_pq_values(xp, im, w) - _pq_values(xm, im, w)) / (xp - xm)
        fy = (_pq_values(re, yp, w) - _pq_values(re, ym, w)) / (yp - ym)
        # abs(0.5 * (fx + 1j * fy)) of the per-point stencil, whose complex
        # parts are exactly 0.5 * fx and 0.5 * fy when both are finite.
        residual = np.hypot(0.5 * fx, 0.5 * fy)
    bad = (xp == xm) | (yp == ym) | ~np.isfinite(residual)
    for shifted in (xp, xm, yp, ym):
        bad |= ~np.isfinite(shifted)
    if bad.any():
        # The per-point stencil raises this point's error, message and all.
        first = int(np.argmax(bad))
        z = RiemannPoint.finite(re[first], im[first])
        residual_report(
            lambda c: quantum_correlation_complex(RiemannPoint.from_complex(c), w),
            [z], h=h, tol=tol,
        )
        raise AssertionError(f"grid and per-point stencils disagree at {z!r}")
    return ResidualReport(np.stack((re, im, residual), axis=1), h, tol)
