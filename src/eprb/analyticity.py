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
one bit for bit. Its rows stay arrays (``GridPoints``) until a caller asks
for them, and ``ResidualReport.json_pieces`` writes the report's JSON from
those arrays, byte for byte as ``json.dumps(..., indent=2)`` would.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .correlation import quantum_correlation_complex
from .geometry import RiemannPoint, riemann_to_obj

__all__ = [
    "Verdict",
    "ResidualReport",
    "GridPoints",
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
# Rows per piece of JSON text, so a large report is written without holding
# all of its text at once.
_JSON_ROWS = 8192
# One row of a report's "points" array as json.dumps(..., indent=2) lays it
# out, from the coordinates' repr texts and the residual; repr of a finite
# float is the encoder's float.__repr__.
_JSON_ROW = (
    '    {\n      "z": {\n        "re": %s,\n        "im": %s\n      },\n'
    '      "residual": %r\n    }'
)


class GridPoints(Sequence):
    """The (point, residual) rows of a grid report, held as three arrays.

    A row becomes a ``(RiemannPoint, float)`` pair only when it is read, so
    counting the rows or writing the report's JSON builds no point objects.
    Compares equal to any sequence holding the same rows.
    """

    __slots__ = ("re", "im", "residual")

    def __init__(self, re: np.ndarray, im: np.ndarray, residual: np.ndarray) -> None:
        self.re = re
        self.im = im
        self.residual = residual

    def __len__(self) -> int:
        return len(self.residual)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return (RiemannPoint.finite(self.re[index], self.im[index]),
                float(self.residual[index]))

    def __iter__(self) -> Iterator[tuple[RiemannPoint, float]]:
        for x, y, r in zip(self.re.tolist(), self.im.tolist(), self.residual.tolist()):
            yield RiemannPoint.finite(x, y), r

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"GridPoints({len(self)} rows)"


class Verdict(Enum):
    ANALYTIC_WITHIN_TOL = "analytic_within_tol"
    NON_ANALYTIC = "non_analytic"


@dataclass(frozen=True)
class ResidualReport:
    """Conjugate-derivative magnitudes over a point set.

    ``verdict`` is NON_ANALYTIC exactly when ``max_residual`` exceeds
    ``tol``. ``points`` is a tuple from ``residual_report`` and a
    ``GridPoints`` from ``pq_nonanalyticity_report``.
    """

    points: Sequence[tuple[RiemannPoint, float]]
    max_residual: float
    h: float
    tol: float
    verdict: Verdict

    def _summary(self) -> dict:
        return {
            "h": self.h,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "verdict": self.verdict.value,
        }

    def to_json(self) -> dict:
        return {
            **self._summary(),
            "points": [
                {"z": riemann_to_obj(z), "residual": r} for z, r in self.points
            ],
        }

    def json_pieces(self, head: dict) -> Iterator[str]:
        """The text of ``json.dumps({**head, **self.to_json()}, indent=2)``,
        in pieces of at most ``_JSON_ROWS`` rows, without the point dicts.

        Every coordinate and residual of a report is finite (the reports
        reject non-finite residuals), which is where ``%r`` and the encoder
        agree.
        """
        text = json.dumps({**head, **self._summary()}, indent=2)
        if not self.points:
            yield text[:-2] + ',\n  "points": []\n}'
            return
        yield text[:-2] + ',\n  "points": [\n'
        if isinstance(self.points, GridPoints):
            re, im, res = self.points.re, self.points.im, self.points.residual
        else:
            re = np.array([z.re for z, _ in self.points], dtype=np.float64)
            im = np.array([z.im for z, _ in self.points], dtype=np.float64)
            res = np.array([r for _, r in self.points], dtype=np.float64)
        for start in range(0, len(res), _JSON_ROWS):
            rows = slice(start, start + _JSON_ROWS)
            piece = ",\n".join(map(_JSON_ROW.__mod__, zip(
                _reprs(re[rows]), _reprs(im[rows]), res[rows].tolist())))
            yield piece if start == 0 else ",\n" + piece
        yield "\n  ]\n}"


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float, made once per distinct bit pattern (0.0 and -0.0
    stay apart). A lattice has k distinct coordinates, so this skips most
    of the float formatting, the costliest step of writing a report."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


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
    max_residual = 0.0
    for z in points:
        mag = _finite_residual(z, abs(wirtinger_residual(f, z, h)), h)
        rows.append((z, mag))
        if mag > max_residual:
            max_residual = mag
    return _report(tuple(rows), max_residual, float(h), tol)


def _tolerance(tol: float) -> float:
    tol = float(tol)
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    return tol


def _report(points, max_residual: float, h: float, tol: float) -> ResidualReport:
    verdict = (
        Verdict.NON_ANALYTIC
        if max_residual > tol
        else Verdict.ANALYTIC_WITHIN_TOL
    )
    return ResidualReport(
        points=points, max_residual=max_residual, h=h, tol=tol, verdict=verdict
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
    k = int(k)
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
    return _report(GridPoints(re, im, residual), float(residual.max()), h, tol)
