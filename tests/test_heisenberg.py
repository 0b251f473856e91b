"""Tests for the group algebra, vertical projections, and the reduction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomlab.heisenberg import (CORE_PROJ_CONST, HPoint, Plane,
                                VerticalPlanePoint, dilate,
                                dist_to_horizontal_line, h_inv,
                                h_mul, horizontal_fiber, koranyi_dist,
                                koranyi_norm,
                                measure_core_projection_constant, proj_x,
                                proj_y, project_fiber_to_line,
                                reduce_to_incidences, tube_inclusion_check)
from geomlab.planar import LineAB, Scale

coord = st.floats(-1.0, 1.0)
ORIGIN = HPoint(0.0, 0.0, 0.0)


def hp(draw_triplet):
    return HPoint(*draw_triplet)


triples = st.tuples(coord, coord, coord)


def close(p: HPoint, q: HPoint, tol=1e-12):
    return (abs(p.x - q.x) <= tol and abs(p.y - q.y) <= tol
            and abs(p.t - q.t) <= tol)


def test_group_law_examples():
    p = HPoint(0.3, -0.2, 0.7)
    assert h_mul(p, ORIGIN) == p
    assert h_mul(HPoint(1, 0, 0), HPoint(0, 1, 0)) == HPoint(1, 1, 0.5)
    assert h_mul(HPoint(1, 1, 0), HPoint(-1, -1, 0)) == HPoint(0, 0, 0.0)


def test_inverse_examples():
    assert h_inv(ORIGIN) == HPoint(-0.0, -0.0, -0.0)
    assert h_inv(HPoint(1, 2, 3)) == HPoint(-1, -2, -3)


@given(triples)
def test_inverse_is_two_sided(t):
    q = hp(t)
    assert close(h_mul(h_inv(q), q), ORIGIN)
    assert close(h_mul(q, h_inv(q)), ORIGIN)


@given(triples, triples, triples)
def test_associativity(a, b, c):
    p, q, r = hp(a), hp(b), hp(c)
    assert close(h_mul(h_mul(p, q), r), h_mul(p, h_mul(q, r)))


def test_dilation_examples():
    p = HPoint(0.5, -0.25, 0.125)
    assert dilate(1.0, p) == p
    assert dilate(2.0, HPoint(1, 1, 1)) == HPoint(2, 2, 4)
    with pytest.raises(ValueError):
        dilate(0.0, p)


@given(st.floats(0.1, 4.0), triples, triples)
def test_dilation_is_a_homomorphism(lam, a, b):
    p, q = hp(a), hp(b)
    lhs = dilate(lam, h_mul(p, q))
    rhs = h_mul(dilate(lam, p), dilate(lam, q))
    assert close(lhs, rhs, tol=1e-11)


def test_projection_formulas():
    w = proj_x(HPoint(0.4, 0.0, -0.3))
    assert w == VerticalPlanePoint(Plane.W_X, 0.4, -0.3)
    assert proj_y(HPoint(1, 1, 0)) == VerticalPlanePoint(Plane.W_Y, 1, 0.5)
    assert proj_x(HPoint(1, 1, 0)) == VerticalPlanePoint(Plane.W_X, 1, -0.5)


@given(triples)
def test_unique_decomposition(t):
    p = hp(t)
    w = proj_x(p)
    rec = h_mul(w.embed(), HPoint(0.0, p.y, 0.0))
    assert close(rec, p)


@given(triples, st.floats(0.1, 3.0))
def test_dilations_commute_with_projections(t, lam):
    p = hp(t)
    w = proj_x(p)
    lhs = proj_x(dilate(lam, p))
    rhs = VerticalPlanePoint(w.plane, lam * w.u, lam * lam * w.t)
    assert lhs.plane == rhs.plane
    assert abs(lhs.u - rhs.u) <= 1e-12 and abs(lhs.t - rhs.t) <= 1e-12


@given(st.sampled_from([Plane.W_X, Plane.W_Y]), coord, coord)
def test_projection_retracts_embedding(plane, u, t):
    w = VerticalPlanePoint(plane, u, t)
    back = proj_x(w.embed()) if plane == Plane.W_X else proj_y(w.embed())
    assert back == w


def test_fiber_examples():
    f0 = horizontal_fiber(VerticalPlanePoint(Plane.W_X, 0.0, 0.0))
    assert f0(1.0) == HPoint(0.0, 1.0, 0.0)
    f1 = horizontal_fiber(VerticalPlanePoint(Plane.W_X, 1.0, 0.0))
    assert f1(1.0) == HPoint(1.0, 1.0, 0.5)
    # the projection is constant along its fibers
    w = VerticalPlanePoint(Plane.W_X, 0.3, -0.6)
    for s in np.linspace(-1, 1, 17):
        q = horizontal_fiber(w)(float(s))
        back = proj_x(q)
        assert abs(back.u - w.u) <= 1e-15 and abs(back.t - w.t) <= 1e-12


def test_project_fiber_to_line():
    assert project_fiber_to_line(VerticalPlanePoint(Plane.W_X, 0, 0)) == LineAB(0, 0)
    assert project_fiber_to_line(
        VerticalPlanePoint(Plane.W_X, 0.5, 0.25)) == LineAB(0.5, 0.25)
    with pytest.raises(ValueError):
        project_fiber_to_line(VerticalPlanePoint(Plane.W_X, 1.5, 0.0))


def test_fiber_projects_onto_the_line():
    w = VerticalPlanePoint(Plane.W_X, 0.7, -0.4)
    line = project_fiber_to_line(w)
    for s in np.linspace(-1, 1, 33):
        q = proj_y(horizontal_fiber(w)(float(s)))
        # (y, t) coordinates of the projection lie on {t = a y + b}
        assert abs(line.a * q.u + line.b - q.t) <= 1e-14


@given(coord, coord, coord, coord)
def test_fiber_line_map_is_an_isometry(a1, b1, a2, b2):
    w1 = VerticalPlanePoint(Plane.W_X, a1, b1)
    w2 = VerticalPlanePoint(Plane.W_X, a2, b2)
    from geomlab.planar import line_metric
    d_lines = line_metric(project_fiber_to_line(w1), project_fiber_to_line(w2))
    d_plane = math.hypot(a1 - a2, b1 - b2)
    assert d_lines == d_plane


def test_koranyi_norm():
    assert koranyi_norm(ORIGIN) == 0.0
    assert koranyi_norm(HPoint(1, 0, 0)) == 1.0
    p = HPoint(0.3, -0.7, 0.2)
    assert koranyi_norm(h_inv(p)) == koranyi_norm(p)
    assert koranyi_norm(dilate(3.0, p)) == pytest.approx(3 * koranyi_norm(p),
                                                         rel=1e-12)


def test_koranyi_dist_left_invariant():
    p, q, g = HPoint(0.1, 0.2, 0.3), HPoint(-0.4, 0.5, -0.6), HPoint(0.7, 0.8, 0.9)
    d0 = koranyi_dist(p, q)
    d1 = koranyi_dist(h_mul(g, p), h_mul(g, q))
    assert d1 == pytest.approx(d0, rel=1e-12)


def test_tube_inclusion_constants():
    # the preimage tube of a delta-ball hugs the horizontal line: the
    # measured neighborhood constant is at least ~1 (the ball itself) and
    # bounded by a small absolute constant, uniformly over delta
    for dexp in (4, 6, 8, 10):
        s = Scale(2.0 ** -dexp)
        a1 = tube_inclusion_check(VerticalPlanePoint(Plane.W_X, 0.0, 0.0), s)
        assert 0.9 <= a1 <= 8.0
        w = VerticalPlanePoint(Plane.W_X, 0.31, -0.47)
        assert tube_inclusion_check(w, s) <= 8.0
        wy = VerticalPlanePoint(Plane.W_Y, -0.2, 0.6)
        assert tube_inclusion_check(wy, s) <= 8.0


def test_core_projection_constant_within_default():
    measured = measure_core_projection_constant(Scale(2.0 ** -6))
    assert measured <= CORE_PROJ_CONST


def test_reduce_to_incidences():
    s = Scale(2.0 ** -5)
    P_x = [VerticalPlanePoint(Plane.W_X, 0.0, 0.0)]
    P_y = [VerticalPlanePoint(Plane.W_Y, 0.25, 0.25)]
    red = reduce_to_incidences(P_x, P_y, s)
    assert len(red.lines) == 1 and red.lines[0] == LineAB(0.0, 0.0)
    assert red.scale.multiplier == 1.0 + CORE_PROJ_CONST
    # separation transfers exactly: the line metric equals the plane metric
    P_x2 = [VerticalPlanePoint(Plane.W_X, 0.0, 0.0),
            VerticalPlanePoint(Plane.W_X, 0.5, 0.125)]
    red2 = reduce_to_incidences(P_x2, P_y, s)
    from geomlab.planar import validate_separation
    assert validate_separation(red2.lines).ok
    # mixed planes and separation violations are rejected
    with pytest.raises(ValueError):
        reduce_to_incidences(P_y, P_y, s)
    close_pair = [VerticalPlanePoint(Plane.W_X, 0.0, 0.0),
                  VerticalPlanePoint(Plane.W_X, 0.001, 0.0)]
    with pytest.raises(ValueError):
        reduce_to_incidences(close_pair, P_y, s)


def test_reduced_instance_save_stamps_multiplier(tmp_path):
    import json
    s = Scale(2.0 ** -5)
    P_x = [VerticalPlanePoint(Plane.W_X, 0.0, 0.0),
           VerticalPlanePoint(Plane.W_X, 0.5, 0.25)]
    P_y = [VerticalPlanePoint(Plane.W_Y, 0.25, -0.25)]
    red = reduce_to_incidences(P_x, P_y, s)
    red.save(tmp_path, seed=3)
    meta = json.loads((tmp_path / "lines.csv.meta.json").read_text())
    assert meta["multiplier"] == red.scale.multiplier
    meta_p = json.loads((tmp_path / "points.csv.meta.json").read_text())
    assert meta_p["multiplier"] == red.scale.multiplier


def test_packing_count_tracks_projected_area():
    # covering step of the reduction: a maximal delta-separated subset of a
    # projected region has delta^2 * cardinality within a constant of the
    # region's area (measured ratios 1.02-1.19, shrinking with delta)
    from geomlab.acceptance import _maximal_plane_packing
    from geomlab.measure import Box, project_voxels, voxelize
    box = Box((0, 0, 0), (0.25, 0.25, 0.0625))
    ratios = []
    for dexp in (4, 5, 6):
        delta = 2.0 ** -dexp
        K = voxelize(box, h=delta / 4.0)
        reg = project_voxels(K, "x")
        P = _maximal_plane_packing(reg, delta, Plane.W_X)
        ratios.append(delta ** 2 * len(P) / reg.area())
    assert max(ratios) <= 1.5
    assert ratios[-1] <= ratios[0]


def test_dist_to_horizontal_line():
    w = VerticalPlanePoint(Plane.W_X, 0.5, 0.0)
    fiber = horizontal_fiber(w)
    pts = np.array([[q.x, q.y, q.t] for q in map(fiber, np.linspace(-1, 1, 9))])
    assert np.all(dist_to_horizontal_line(pts, w) <= 1e-14)
    off = pts + np.array([[0.0, 0.0, 0.1]])
    d = dist_to_horizontal_line(off, w)
    assert np.all(d > 0.09) and np.all(d <= 0.1 + 1e-12)
