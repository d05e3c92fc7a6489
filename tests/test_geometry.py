import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprb.geometry import (
    INFINITY,
    RiemannPoint,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    angle_between,
    inverse_project,
    parse_riemann_text,
    parse_vector_text,
    riemann_to_obj,
    stereographic_project,
    unit_from_angles,
    unit_from_plane_angle,
    vector_from_list,
    vector_to_list,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
components = st.floats(min_value=-1.0, max_value=1.0)


def norm(v: UnitVector3) -> float:
    return math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)


@given(components, components, components)
def test_constructor_renormalizes_or_rejects(x, y, z):
    raw = math.sqrt(x * x + y * y + z * z)
    if abs(raw - 1.0) <= 1e-9:
        assert abs(norm(UnitVector3(x, y, z)) - 1.0) < 1e-12
    else:
        with pytest.raises(ValueError):
            UnitVector3(x, y, z)


def test_axes_and_negation():
    assert Z_AXIS.as_tuple() == (0.0, 0.0, 1.0)
    assert (-Z_AXIS).as_tuple() == (0.0, 0.0, -1.0)
    assert X_AXIS.dot(Y_AXIS) == 0.0
    assert X_AXIS.dot(X_AXIS) == 1.0


def test_slightly_off_unit_input_is_renormalized():
    v = UnitVector3(1.0 + 5e-10, 0.0, 0.0)
    assert v.x == 1.0 and v.y == 0.0


def test_nonfinite_vector_rejected():
    with pytest.raises(ValueError):
        UnitVector3(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        UnitVector3(math.inf, 0.0, 0.0)


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_plane_angle_direction_is_unit_and_planar(theta):
    v = unit_from_plane_angle(theta)
    assert abs(norm(v) - 1.0) < 1e-12
    assert v.y == 0.0
    assert abs(v.z - math.cos(theta)) < 1e-12


@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_unit_from_angles_matches_spherical_coordinates(theta, phi):
    v = unit_from_angles(theta, phi)
    assert abs(norm(v) - 1.0) < 1e-12
    assert abs(v.z - math.cos(theta)) < 1e-12


def test_angle_between_limits():
    assert angle_between(Z_AXIS, Z_AXIS) == 0.0
    assert angle_between(Z_AXIS, -Z_AXIS) == math.pi
    assert abs(angle_between(Z_AXIS, X_AXIS) - math.pi / 2.0) < 1e-15


def test_riemann_point_variants():
    p = RiemannPoint.finite(0.5, -2.0)
    assert not p.is_infinite
    assert p.to_complex() == complex(0.5, -2.0)
    assert INFINITY.is_infinite
    assert RiemannPoint(None) == INFINITY
    assert p != INFINITY
    assert hash(RiemannPoint.finite(0.5, -2.0)) == hash(p)
    with pytest.raises(ValueError):
        INFINITY.to_complex()
    with pytest.raises(ValueError):
        RiemannPoint(complex(math.inf, 0.0))


def test_projection_landmarks():
    assert stereographic_project(RiemannPoint.finite(0.0, 0.0)).as_tuple() == (0.0, 0.0, 1.0)
    assert stereographic_project(INFINITY).as_tuple() == (0.0, 0.0, -1.0)
    # unit circle lands on the equator
    eq = stereographic_project(RiemannPoint.finite(1.0, 0.0))
    assert eq.as_tuple() == (1.0, 0.0, 0.0)


@given(finite_floats, finite_floats)
def test_projection_round_trip(x, y):
    z = RiemannPoint.finite(x, y)
    v = stereographic_project(z)
    assert abs(norm(v) - 1.0) < 1e-12
    back = inverse_project(v)
    # near the south pole the chart loses a factor |z|^2 of precision,
    # so the bound has to carry (1 + |z|^2)
    err = abs(complex(back.re, back.im) - complex(x, y))
    scale = max(1.0, math.hypot(x, y))
    m = x * x + y * y
    assert err / scale <= 8.0 * 2.22e-16 * (1.0 + m) + 1e-15


def test_inverse_project_south_pole_is_infinity():
    assert inverse_project(UnitVector3(0.0, 0.0, -1.0)) is INFINITY


def test_projection_survives_huge_coordinates():
    # |z|^2 overflows the square; the reciprocal chart must take over
    z = RiemannPoint.finite(1e300, 1e300)
    v = stereographic_project(z)
    assert abs(norm(v) - 1.0) < 1e-12
    assert v.z < -1.0 + 1e-12


def test_vector_text_round_trip():
    v = UnitVector3(0.36, 0.48, 0.8)
    assert parse_vector_text("0.36,0.48,0.8").as_tuple() == v.as_tuple()
    assert vector_from_list(vector_to_list(v)).as_tuple() == v.as_tuple()


def test_parse_vector_text_errors():
    for bad in ("1,0", "1,0,0,0", "a,b,c", "2,0,0"):
        with pytest.raises(ValueError):
            parse_vector_text(bad)
    with pytest.raises(ValueError):
        vector_from_list([1.0, 0.0])


def test_riemann_to_obj():
    assert riemann_to_obj(RiemannPoint.finite(1.25, -0.5)) == {"re": 1.25, "im": -0.5}
    assert riemann_to_obj(INFINITY) == "inf"


def test_parse_riemann_text():
    assert parse_riemann_text("inf") is INFINITY
    assert parse_riemann_text("0.5,-1.5") == RiemannPoint.finite(0.5, -1.5)
    for bad in ("x,y", "1", "1,2,3"):
        with pytest.raises(ValueError):
            parse_riemann_text(bad)
