import cmath
import itertools
import json
import math

import numpy as np
import pytest
import sympy

from eprb import (
    INFINITY,
    RiemannPoint,
    Verdict,
    constancy_check,
    pq_nonanalyticity_report,
    quantum_correlation_complex,
    residual_report,
    wirtinger_residual,
)
from eprb import analyticity
from eprb.analyticity import DEFAULT_H, DEFAULT_TOL, GridPoints, ResidualReport, _disc_grid
from oracles_ref import ref_pq_report


def pq_at_infinity(z: complex) -> complex:
    return quantum_correlation_complex(RiemannPoint.from_complex(z), INFINITY)


def sympy_pq_dzbar():
    # symbolic conjugate derivative of (1 - z zbar)/(1 + z zbar)
    z, zb = sympy.symbols("z zbar")
    f = (1 - z * zb) / (1 + z * zb)
    d = sympy.diff(f, zb)
    return sympy.lambdify((z, zb), d, "mpmath")


def test_residual_rejects_bad_arguments():
    with pytest.raises(ValueError, match="finite"):
        wirtinger_residual(lambda z: z, INFINITY, 1e-4)
    for h in (0.0, -1e-4, math.inf):
        with pytest.raises(ValueError, match="step"):
            wirtinger_residual(lambda z: z, RiemannPoint.finite(0.0, 0.0), h)


def test_conjugate_map_has_residual_exactly_one():
    for z in (RiemannPoint.finite(0.0, 0.0), RiemannPoint.finite(1.0, -2.0),
              RiemannPoint.finite(0.3, 0.7)):
        assert wirtinger_residual(lambda w: w.conjugate(), z, 1e-4) == 1.0


def test_real_part_has_residual_exactly_half():
    for z in (RiemannPoint.finite(0.5, 0.5), RiemannPoint.finite(-2.0, 1.0)):
        assert wirtinger_residual(lambda w: w.real, z, 1e-4) == 0.5


def test_analytic_map_residual_shrinks_like_h_squared():
    z = RiemannPoint.finite(0.7, -0.4)
    r1 = abs(wirtinger_residual(lambda w: w**3, z, 1e-3))
    r2 = abs(wirtinger_residual(lambda w: w**3, z, 5e-4))
    assert r1 < 1e-5
    assert 3.8 < r1 / r2 < 4.2  # second-order stencil


def test_identity_map_residual_is_zero():
    z = RiemannPoint.finite(0.3, 0.9)
    assert wirtinger_residual(lambda w: w, z, 1e-4) == 0.0


def test_pq_residual_matches_symbolic_derivative():
    d = sympy_pq_dzbar()
    for zc in (0.3 + 0.1j, -0.5 + 0.4j, 0.9 - 0.2j, 1.0 + 0.0j):
        got = wirtinger_residual(pq_at_infinity, RiemannPoint.from_complex(zc), 1e-4)
        want = complex(d(zc, zc.conjugate()))
        assert abs(got - want) < 5e-7


def test_pq_residual_magnitude_peaks_inside_the_disc():
    # |d/dzbar| = 2r/(1+r^2)^2 peaks at r = 1/sqrt(3)
    r_star = 1.0 / math.sqrt(3.0)
    peak = 2.0 * r_star / (1.0 + r_star * r_star) ** 2
    got = abs(wirtinger_residual(pq_at_infinity, RiemannPoint.finite(r_star, 0.0), 1e-5))
    assert abs(got - peak) < 1e-8
    assert abs(peak - 3.0 * math.sqrt(3.0) / 8.0) < 1e-15


def test_residual_report_verdicts():
    pts = [RiemannPoint.finite(0.2, 0.1), RiemannPoint.finite(-0.4, 0.5)]
    rep = residual_report(lambda w: w**2, pts)
    assert rep.verdict is Verdict.ANALYTIC_WITHIN_TOL
    assert rep.max_residual < DEFAULT_TOL
    rep = residual_report(pq_at_infinity, pts)
    assert rep.verdict is Verdict.NON_ANALYTIC
    assert len(rep.points) == 2


def test_residual_report_validation():
    with pytest.raises(ValueError, match="point"):
        residual_report(lambda w: w, [])
    with pytest.raises(ValueError, match="tolerance"):
        residual_report(lambda w: w, [RiemannPoint.finite(0.0, 0.0)], tol=0.0)


def test_residual_report_json_shape():
    rep = residual_report(lambda w: w, [RiemannPoint.finite(0.25, -1.0)])
    obj = rep.to_json()
    assert set(obj) == {"h", "tol", "max_residual", "verdict", "points"}
    assert obj["verdict"] == "analytic_within_tol"
    assert obj["points"][0]["z"] == {"re": 0.25, "im": -1.0}
    assert obj["h"] == DEFAULT_H


def test_constancy_check_on_a_constant():
    pts = [RiemannPoint.finite(x / 4.0, y / 4.0) for x in range(-2, 3) for y in range(-2, 3)]
    verdict, spread, report = constancy_check(lambda w: 0.75, pts)
    assert verdict is Verdict.ANALYTIC_WITHIN_TOL
    assert spread == 0.0
    assert report.max_residual == 0.0


def test_constancy_check_flags_a_non_flat_real_map():
    pts = [RiemannPoint.finite(x / 4.0, 0.0) for x in range(-2, 3)]
    verdict, spread, _ = constancy_check(pq_at_infinity, pts)
    assert verdict is Verdict.NON_ANALYTIC
    assert spread > 0.1


def test_constancy_check_validation():
    one = [RiemannPoint.finite(0.0, 0.0)]
    with pytest.raises(ValueError, match="two"):
        constancy_check(lambda w: 1.0, one)
    pts = [RiemannPoint.finite(0.0, 0.0), RiemannPoint.finite(0.5, 0.0)]
    with pytest.raises(ValueError, match="not real-valued"):
        constancy_check(lambda w: w + 1j * 1e-6, pts)
    with pytest.raises(ValueError, match="finite"):
        constancy_check(lambda w: 1.0, [RiemannPoint.finite(0.0, 0.0), INFINITY])


def test_disc_grid_stays_inside_the_radius():
    re, im = _disc_grid(1.0, 9)
    pts = list(zip(re.tolist(), im.tolist()))
    assert all(x ** 2 + y ** 2 <= 1.0 + 1e-15 for x, y in pts)
    assert len(pts) < 81  # corners clipped
    assert (0.0, 0.0) in pts
    assert (1.0, 0.0) in pts


def test_disc_grid_clips_the_corners_at_extreme_radii():
    # R*R overflows at 1e200 and underflows at 1e-200; the square is still
    # clipped to the same 13 of 25 points as at R = 1
    for radius in (1e200, 1e-200):
        re, im = _disc_grid(radius, 5)
        assert len(re) == len(_disc_grid(1.0, 5)[0]) == 13
        assert all(math.hypot(x, y) <= radius for x, y in zip(re.tolist(), im.tolist()))


def test_disc_grid_rejects_a_lattice_that_repeats_points():
    # at R = 5e-324 the 5 steps round to -R, -R, 0, R, R: 9 points, 5 distinct
    with pytest.raises(ValueError, match="5 x 5 lattice over radius 5e-324 repeats points"):
        _disc_grid(5e-324, 5)
    # a subnormal radius whose steps stay distinct keeps every point
    re, im = _disc_grid(1e-310, 64)
    assert len(set(zip(re.tolist(), im.tolist()))) == len(re) == 3096


def test_pq_nonanalyticity_report_at_infinity():
    rep = pq_nonanalyticity_report(INFINITY, radius=1.0, k=9)
    assert rep.verdict is Verdict.NON_ANALYTIC
    assert rep.max_residual > 0.4


def test_pq_nonanalyticity_report_for_finite_w():
    rep = pq_nonanalyticity_report(RiemannPoint.finite(0.0, 0.0), radius=1.0, k=9)
    assert rep.verdict is Verdict.NON_ANALYTIC


def test_pq_nonanalyticity_report_validation():
    with pytest.raises(ValueError, match="radius"):
        pq_nonanalyticity_report(INFINITY, radius=0.0)
    with pytest.raises(ValueError, match="radius"):
        pq_nonanalyticity_report(INFINITY, radius=math.inf)
    with pytest.raises(ValueError, match="grid"):
        pq_nonanalyticity_report(INFINITY, k=1)


def test_exp_is_analytic_everywhere_sampled():
    pts = [RiemannPoint.finite(0.1 * k, 0.05 * k) for k in range(-5, 6)]
    rep = residual_report(cmath.exp, pts)
    assert rep.verdict is Verdict.ANALYTIC_WITHIN_TOL


def test_residual_report_rejects_a_non_finite_residual_at_its_first_point():
    pts = [RiemannPoint.finite(x, 0.0) for x in (0.0, 0.5, 1.0, 1.5)]
    for bad in (math.nan, math.inf, -math.inf):
        def f(z, bad=bad):
            return bad if z.real > 0.75 else z.real
        with pytest.raises(ValueError, match=r"residual at RiemannPoint\(\(1\+0j\)\) is"):
            residual_report(f, pts)


def _outcome(fn):
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


def _grid_outcome(w, radius, k, h):
    def report():
        rep = pq_nonanalyticity_report(w, radius=radius, k=k, h=h, tol=DEFAULT_TOL)
        rows = list(zip(rep.points.re.tolist(), rep.points.im.tolist(),
                        rep.points.residual.tolist()))
        return rows, rep.max_residual, rep.verdict.value
    return _outcome(report)


W_POINTS = [INFINITY, RiemannPoint.finite(0.0, 0.0), RiemannPoint.finite(0.3, -0.7),
            RiemannPoint.finite(-1.2, 0.4), RiemannPoint.finite(1e10, 0.0),
            RiemannPoint.finite(1e200, 0.0)]
# (radius, h): ordinary discs, a radius whose square underflows to 0 (its
# grid clipped like any other), radii at the edge of |z|^2 overflow with a
# step that still moves them or that straddles the edge, steps that vanish
# against the point, a radius whose lattice overflows and a step that
# carries the stencil off the plane.
DISCS = [(1e-3, DEFAULT_H), (1.0, DEFAULT_H), (2.5, 1e-3), (1e5, DEFAULT_H),
         (1e-200, DEFAULT_H), (1.3e154, 1e140), (1.3e154, 1e153), (1e200, 1e190),
         (1.0, 1e-300), (1e200, DEFAULT_H), (1e308, DEFAULT_H), (8e307, 1e308)]


def _parity_cases():
    for w, (radius, h), k in itertools.product(W_POINTS, DISCS, (2, 3, 5, 21)):
        yield w, radius, k, h
    for w, radius, h in ((INFINITY, 1.0, DEFAULT_H), (RiemannPoint.finite(0.3, -0.7), 2.5, 1e-3),
                         (RiemannPoint.finite(1e10, 0.0), 1e5, DEFAULT_H)):
        yield w, radius, 195, h


def test_grid_report_equals_the_per_point_reference():
    finite, errors = 0, 0
    for w, radius, k, h in _parity_cases():
        case = (w, radius, k, h)
        got = _grid_outcome(w, radius, k, h)
        want = _outcome(lambda: ref_pq_report(w, radius, k, h, DEFAULT_TOL))
        if want[0] == "ok" and not all(math.isfinite(r) for _, _, r in want[1][0]):
            continue  # the grid report rejects it: see the non-finite test
        assert got[0] == want[0], case
        if got[0] == "error":
            assert got[1] == want[1], case
            errors += 1
            continue
        (rows, top, verdict), (ref_rows, ref_top, ref_verdict) = got[1], want[1]
        assert rows == ref_rows, case
        assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r)) for r in ref_rows], case
        assert top == ref_top and verdict == ref_verdict, case
        finite += 1
    assert finite >= 100 and errors >= 100  # both outcomes are exercised


def test_grid_report_names_the_first_non_finite_residual():
    cases = [(RiemannPoint.finite(1e10, 0.0), 1e150, 5, 1e140)]
    cases += [(w, 1.3e154, k, 1e140) for w in W_POINTS for k in (3, 5, 21)]
    flagged = 0
    for w, radius, k, h in cases:
        rows, _, _ = ref_pq_report(w, radius, k, h, DEFAULT_TOL)
        first = next((r for r in rows if not math.isfinite(r[2])), None)
        if first is None:
            continue
        point = RiemannPoint.finite(first[0], first[1])
        with pytest.raises(ValueError) as grid_error:
            pq_nonanalyticity_report(w, radius=radius, k=k, h=h)
        with pytest.raises(ValueError) as scalar_error:
            residual_report(lambda c: quantum_correlation_complex(RiemannPoint.from_complex(c), w),
                            [RiemannPoint.finite(x, y) for x, y, _ in rows], h=h)
        assert str(grid_error.value) == str(scalar_error.value)
        assert str(grid_error.value).startswith(f"residual at {point!r} is {first[2]!r}")
        flagged += 1
    assert flagged >= 2


def test_grid_points_read_as_the_per_point_rows():
    rep = pq_nonanalyticity_report(RiemannPoint.finite(0.3, -0.7), radius=2.5, k=9)
    rows, _, _ = ref_pq_report(RiemannPoint.finite(0.3, -0.7), 2.5, 9, DEFAULT_H, DEFAULT_TOL)
    want = tuple((RiemannPoint.finite(x, y), r) for x, y, r in rows)
    assert isinstance(rep.points, GridPoints) and len(rep.points) == len(want)
    assert rep.points == want and tuple(rep.points) == want
    assert rep.points[0] == want[0] and rep.points[-1] == want[-1]
    assert rep.points[2:5] == want[2:5]
    assert hash(rep.points) == hash(want)
    assert rep.to_json()["points"] == [{"z": {"re": x, "im": y}, "residual": r} for x, y, r in rows]


def _pieces_text(report, head):
    return "".join(report.json_pieces(head))


def test_json_pieces_write_what_json_dumps_writes(monkeypatch):
    head = {"command": "analyticity", "w": "inf", "grid": {"R": 1.0, "k": 5}}
    odd = [0.0, -0.0, 5e-324, 1e-5, 0.1, 1.0 / 3.0, 1e16, -1e16, 1e308, 123456789.0]
    pts = [RiemannPoint.finite(x, y) for x, y in zip(odd, reversed(odd))]
    rep = ResidualReport(points=tuple((z, r) for z, r in zip(pts, odd[::-1])),
                         max_residual=1e308, h=DEFAULT_H, tol=DEFAULT_TOL,
                         verdict=Verdict.NON_ANALYTIC)
    grid = pq_nonanalyticity_report(RiemannPoint.finite(-1.2, 0.4), radius=2.5, k=21)
    empty = ResidualReport(points=(), max_residual=0.0, h=DEFAULT_H, tol=DEFAULT_TOL,
                           verdict=Verdict.ANALYTIC_WITHIN_TOL)
    for rows_per_piece in (3, 8192):  # pieces joined mid-array, and one piece
        monkeypatch.setattr(analyticity, "_JSON_ROWS", rows_per_piece)
        for report in (rep, grid, empty):
            want = json.dumps({**head, **report.to_json()}, indent=2)
            assert _pieces_text(report, head) == want


def test_grid_report_builds_no_point_objects_until_read(monkeypatch):
    class Forbidden:
        @classmethod
        def finite(cls, *args):
            raise AssertionError("built a RiemannPoint")

    def forbidden(*args):
        raise AssertionError("called a per-point function")

    rep = pq_nonanalyticity_report(INFINITY, radius=1.0, k=21)
    text = _pieces_text(rep, {})
    monkeypatch.setattr(analyticity, "RiemannPoint", Forbidden)
    monkeypatch.setattr(analyticity, "riemann_to_obj", forbidden)
    monkeypatch.setattr(analyticity, "quantum_correlation_complex", forbidden)
    again = pq_nonanalyticity_report(INFINITY, radius=1.0, k=21)
    assert len(again.points) == len(rep.points) == 313
    assert _pieces_text(again, {}) == text
    assert np.array_equal(again.points.residual, rep.points.residual)
