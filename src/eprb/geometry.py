"""Measurement-direction geometry.

Detector settings are unit vectors in R^3. Their complexified counterparts
live on the extended complex plane C u {inf}, and the stereographic
projection identifies the two pictures: 0 maps to the north pole, the unit
circle to the equator, and infinity to the south pole. Keeping infinity as
an explicit variant (never a big-number sentinel) is what lets the rest of
the package treat it as an ordinary point. The singlet correlation in
stereographic coordinates is closed-form, so it lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "UnitVector3",
    "RiemannPoint",
    "INFINITY",
    "X_AXIS",
    "Y_AXIS",
    "Z_AXIS",
    "stereographic_project",
    "inverse_project",
    "quantum_correlation_complex",
    "angle_between",
    "unit_from_plane_angle",
    "unit_from_angles",
    "vector_to_list",
    "vector_from_list",
    "parse_vector_text",
    "riemann_to_obj",
    "parse_riemann_text",
]

# Inputs this far from unit length get renormalized; farther means the
# caller most likely passed a non-direction and should hear about it.
_UNIT_SLACK = 1e-9


@dataclass(frozen=True)
class UnitVector3:
    """A direction on the unit sphere.

    Construction renormalizes float drift (norm within 1e-9 of 1) and
    rejects anything farther off instead of silently rescaling it.
    """

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        x = float(self.x)
        y = float(self.y)
        z = float(self.z)
        norm = math.sqrt(x * x + y * y + z * z)
        if not math.isfinite(norm) or abs(norm - 1.0) > _UNIT_SLACK:
            raise ValueError(
                f"not a unit vector (norm {norm!r}): ({x!r}, {y!r}, {z!r})"
            )
        object.__setattr__(self, "x", x / norm)
        object.__setattr__(self, "y", y / norm)
        object.__setattr__(self, "z", z / norm)

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def __neg__(self) -> "UnitVector3":
        return UnitVector3(-self.x, -self.y, -self.z)


X_AXIS = UnitVector3(1.0, 0.0, 0.0)
Y_AXIS = UnitVector3(0.0, 1.0, 0.0)
Z_AXIS = UnitVector3(0.0, 0.0, 1.0)


class RiemannPoint:
    """A point of the extended complex plane C u {inf}.

    Infinity is a first-class value here (the south pole of the sphere), so
    it is carried as an explicit variant rather than encoded as some large
    magnitude that arithmetic could mangle.
    """

    __slots__ = ("_z",)

    def __init__(self, value: complex | None) -> None:
        if value is not None:
            value = complex(value)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(
                    f"finite point must have finite parts, got {value!r}; "
                    "use RiemannPoint(None) / INFINITY for the point at infinity"
                )
        self._z = value

    @classmethod
    def finite(cls, re: float, im: float = 0.0) -> "RiemannPoint":
        return cls(complex(float(re), float(im)))

    @classmethod
    def from_complex(cls, z: complex) -> "RiemannPoint":
        return cls(complex(z))

    @property
    def is_infinite(self) -> bool:
        return self._z is None

    @property
    def re(self) -> float:
        if self._z is None:
            raise ValueError("the point at infinity has no real part")
        return self._z.real

    @property
    def im(self) -> float:
        if self._z is None:
            raise ValueError("the point at infinity has no imaginary part")
        return self._z.imag

    def to_complex(self) -> complex:
        if self._z is None:
            raise ValueError("the point at infinity is not a complex number")
        return self._z

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RiemannPoint):
            return NotImplemented
        return self._z == other._z

    def __hash__(self) -> int:
        return hash(("RiemannPoint", self._z))

    def __repr__(self) -> str:
        if self._z is None:
            return "RiemannPoint(inf)"
        return f"RiemannPoint({self._z!r})"


INFINITY = RiemannPoint(None)


def stereographic_project(p: RiemannPoint) -> UnitVector3:
    """Map a Riemann-sphere point to the unit sphere.

    z = x + iy goes to (2x, 2y, 1 - |z|^2) / (1 + |z|^2); infinity goes to
    the south pole (0, 0, -1).
    """
    if p.is_infinite:
        return UnitVector3(0.0, 0.0, -1.0)
    x = p.re
    y = p.im
    m = x * x + y * y
    if math.isinf(m):
        # Coordinates too large to square: switch to the reciprocal chart
        # w = 1/z, which is numerically tiny there. Same map, no overflow.
        wx = x / m
        wy = -y / m
        mw = wx * wx + wy * wy
        d = 1.0 + mw
        return UnitVector3(2.0 * wx / d, -2.0 * wy / d, -(1.0 - mw) / d)
    d = 1.0 + m
    return UnitVector3(2.0 * x / d, 2.0 * y / d, (1.0 - m) / d)


def inverse_project(v: UnitVector3) -> RiemannPoint:
    """Inverse of stereographic_project: z = (x + iy) / (1 + v_z).

    The south pole maps to the explicit point at infinity.
    """
    if v.z == -1.0:
        return INFINITY
    d = 1.0 + v.z
    return RiemannPoint.finite(v.x / d, v.y / d)


def quantum_correlation_complex(z: RiemannPoint, w: RiemannPoint) -> float:
    """The singlet correlation in stereographic coordinates.

    Evaluated from the rational expression in (z, zbar, w, wbar), with the
    point at infinity handled as its own case. Agreement with
    -project(z) . project(w) is a cross-check in the tests, not the
    implementation.
    """
    if z.is_infinite and w.is_infinite:
        return -1.0
    if z.is_infinite or w.is_infinite:
        finite = w if z.is_infinite else z
        m = finite.re * finite.re + finite.im * finite.im
        if math.isinf(m):
            # |z|^2 overflowed: the value is -1 to far below any tolerance.
            return -1.0
        return (1.0 - m) / (1.0 + m)
    zr, zi = z.re, z.im
    wr, wi = w.re, w.im
    mz = zr * zr + zi * zi
    mw = wr * wr + wi * wi
    if math.isinf(mz) and math.isinf(mw):
        return -1.0
    if math.isinf(mz):
        return (1.0 - mw) / (1.0 + mw)
    if math.isinf(mw):
        return (1.0 - mz) / (1.0 + mz)
    # (z + zbar)(w + wbar) - (zbar - z)(wbar - w) + (1 - |z|^2)(1 - |w|^2),
    # written out in real components, over (1 + |z|^2)(1 + |w|^2).
    num = 4.0 * (zr * wr + zi * wi) + (1.0 - mz) * (1.0 - mw)
    den = (1.0 + mz) * (1.0 + mw)
    return -num / den


def angle_between(a: UnitVector3, b: UnitVector3) -> float:
    """Angle in [0, pi] between two directions.

    The dot product is clamped to [-1, 1] first so float drift at
    (anti)parallel settings cannot push acos out of its domain.
    """
    d = a.dot(b)
    if d > 1.0:
        d = 1.0
    elif d < -1.0:
        d = -1.0
    return math.acos(d)


def unit_from_plane_angle(theta: float) -> UnitVector3:
    """Direction at angle theta from the z-axis inside the x-z plane."""
    theta = float(theta)
    return UnitVector3(math.sin(theta), 0.0, math.cos(theta))


def unit_from_angles(theta: float, phi: float) -> UnitVector3:
    """Direction with polar angle theta and azimuth phi."""
    theta = float(theta)
    phi = float(phi)
    st = math.sin(theta)
    return UnitVector3(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def vector_to_list(v: UnitVector3) -> list[float]:
    return [v.x, v.y, v.z]


def vector_from_list(values) -> UnitVector3:
    if not isinstance(values, (list, tuple)) or len(values) != 3:
        raise ValueError(f"expected a 3-element number array, got {values!r}")
    return UnitVector3(float(values[0]), float(values[1]), float(values[2]))


def parse_vector_text(text: str) -> UnitVector3:
    """Parse the CLI form 'x,y,z' (decimal, '.' radix)."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'x,y,z', got {text!r}")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"expected 'x,y,z' with decimal components, got {text!r}") from None
    return UnitVector3(nums[0], nums[1], nums[2])


def riemann_to_obj(p: RiemannPoint):
    """JSON form: {'re': ..., 'im': ...} for finite points, 'inf' otherwise."""
    if p.is_infinite:
        return "inf"
    return {"re": p.re, "im": p.im}


def parse_riemann_text(text: str) -> RiemannPoint:
    """Parse the CLI form 'inf' or 're,im'."""
    stripped = text.strip()
    if stripped == "inf":
        return INFINITY
    parts = stripped.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'inf' or 're,im', got {text!r}")
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"expected decimal 're,im', got {text!r}") from None
    return RiemannPoint.finite(re, im)
