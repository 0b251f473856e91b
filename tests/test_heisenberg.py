"""Tests for the group algebra, vertical projections, and the reduction."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from geomlab import acceptance as A
from geomlab import heisenberg as H
from geomlab.heisenberg import (CORE_PROJ_CONST, Plane, VerticalPlanePoint,
                                dilate, dist_to_horizontal_line, gauge4,
                                h_inv, h_mul, measure_core_projection_constant,
                                proj_x, proj_y, reduce_to_incidences,
                                tube_inclusion_check)
from geomlab.planar import Scale

coord = st.floats(-1.0, 1.0)
triples = st.tuples(coord, coord, coord)
ORIGIN = (0.0, 0.0, 0.0)


def close(p, q, tol=1e-12):
    return bool(np.all(np.abs(np.subtract(p, q)) <= tol))


def test_group_law_examples():
    p = (0.3, -0.2, 0.7)
    assert h_mul(p, ORIGIN) == p
    assert h_mul((1, 0, 0), (0, 1, 0)) == (1, 1, 0.5)
    assert h_mul((1, 1, 0), (-1, -1, 0)) == (0, 0, 0.0)


def test_group_law_broadcasts():
    # a (3, n) array is n points; a triple of floats broadcasts against it
    P = np.array([[0.3, 1.0], [-0.2, 0.0], [0.7, 0.0]])
    x, y, t = h_mul(P, (0.0, 1.0, 0.0))
    assert x.tolist() == [0.3, 1.0] and y.tolist() == [0.8, 1.0]
    assert t.tolist() == [0.7 + 0.15, 0.5]
    assert [a.tolist() for a in h_inv(P)] == (-P).tolist()


def test_inverse_examples():
    assert h_inv(ORIGIN) == (-0.0, -0.0, -0.0)
    assert h_inv((1, 2, 3)) == (-1, -2, -3)


@given(triples)
def test_inverse_is_two_sided(q):
    assert close(h_mul(h_inv(q), q), ORIGIN)
    assert close(h_mul(q, h_inv(q)), ORIGIN)


@given(triples, triples, triples)
def test_associativity(p, q, r):
    assert close(h_mul(h_mul(p, q), r), h_mul(p, h_mul(q, r)))


def _matrix(p):
    """The upper unitriangular matrix of p, [[1, x, t + xy/2], [0, 1, y],
    [0, 0, 1]]: a faithful representation of the group."""
    x, y, t = p
    return np.array([[1.0, x, t + x * y / 2.0], [0.0, 1.0, y], [0.0, 0.0, 1.0]])


@given(triples, triples)
def test_product_is_matrix_multiplication(p, q):
    # checks the twist's sign and factor against a formula that shares
    # nothing with h_mul's
    assert np.allclose(_matrix(h_mul(p, q)), _matrix(p) @ _matrix(q),
                       rtol=0, atol=1e-12)
    assert np.allclose(_matrix(h_inv(p)), np.linalg.inv(_matrix(p)),
                       rtol=0, atol=1e-12)


def test_dilation_examples():
    p = (0.5, -0.25, 0.125)
    assert dilate(1.0, p) == p
    assert dilate(2.0, (1, 1, 1)) == (2, 2, 4)
    with pytest.raises(ValueError):
        dilate(0.0, p)


@given(st.floats(0.1, 4.0), triples, triples)
def test_dilation_is_a_homomorphism(lam, p, q):
    lhs = dilate(lam, h_mul(p, q))
    rhs = h_mul(dilate(lam, p), dilate(lam, q))
    assert close(lhs, rhs, tol=1e-11)


def test_projection_formulas():
    assert proj_x((0.4, 0.0, -0.3)) == (0.4, -0.3)
    assert proj_y((1, 1, 0)) == (1, 0.5)
    assert proj_x((1, 1, 0)) == (1, -0.5)


@given(triples)
def test_unique_decomposition(p):
    u, t = proj_x(p)
    rec = h_mul((u, 0.0, t), (0.0, p[1], 0.0))
    assert close(rec, p)


@given(triples, st.floats(0.1, 3.0))
def test_dilations_commute_with_projections(p, lam):
    u, t = proj_x(p)
    assert close(proj_x(dilate(lam, p)), (lam * u, lam * lam * t))


@given(coord, coord)
def test_projection_retracts_embedding(u, t):
    assert proj_x((u, 0.0, t)) == (u, t)
    assert proj_y((0.0, u, t)) == (u, t)


def test_fiber_examples():
    # the fiber of w = (u, 0, t) in W_x is s -> w * (0, s, 0)
    assert h_mul(ORIGIN, (0.0, 1.0, 0.0)) == (0.0, 1.0, 0.0)
    assert h_mul((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == (1.0, 1.0, 0.5)
    # the projection is constant along its fibers
    s = np.linspace(-1, 1, 17)
    u, t = proj_x(h_mul((0.3, 0.0, -0.6), (0.0, s, 0.0)))
    assert np.all(np.abs(u - 0.3) <= 1e-15) and close(t, -0.6)


def _fiber_lines(*P_x):
    """The (a, b) parameters of the lines reduce_to_incidences makes of the
    W_x points P_x, at a scale they are all separated at."""
    return reduce_to_incidences(P_x, [], Scale(2.0 ** -40)).lines.params


def test_project_fiber_to_line():
    assert _fiber_lines(VerticalPlanePoint(Plane.W_X, 0, 0),
                        VerticalPlanePoint(Plane.W_X, 0.5, 0.25)
                        ).tolist() == [[0, 0], [0.5, 0.25]]
    with pytest.raises(ValueError, match=r"\(1.5, 0.0\) outside the unit"):
        _fiber_lines(VerticalPlanePoint(Plane.W_X, 1.5, 0.0))


def test_fiber_projects_onto_the_line():
    w = VerticalPlanePoint(Plane.W_X, 0.7, -0.4)
    (a, b), = _fiber_lines(w)
    y, t = proj_y(h_mul((w.u, 0.0, w.t), (0.0, np.linspace(-1, 1, 33), 0.0)))
    # (y, t) coordinates of the projection lie on {t = a y + b}
    assert np.all(np.abs(a * y + b - t) <= 1e-14)


@given(coord, coord, coord, coord)
def test_fiber_line_map_is_an_isometry(a1, b1, a2, b2):
    assume(math.hypot(a1 - a2, b1 - b2) >= 2.0 ** -40)
    w1 = VerticalPlanePoint(Plane.W_X, a1, b1)
    w2 = VerticalPlanePoint(Plane.W_X, a2, b2)
    (u1, v1), (u2, v2) = _fiber_lines(w1, w2)
    d_lines = math.hypot(u1 - u2, v1 - v2)
    d_plane = math.hypot(a1 - a2, b1 - b2)
    assert d_lines == d_plane


def test_koranyi_norm():
    # gauge4 is the fourth power of the Koranyi norm
    assert gauge4(ORIGIN) == 0.0
    assert gauge4((1, 0, 0)) == 1.0 and gauge4((0, 0, 0.25)) == 1.0
    p = (0.3, -0.7, 0.2)
    assert gauge4(h_inv(p)) == gauge4(p)
    assert gauge4(dilate(3.0, p)) == pytest.approx(3 ** 4 * gauge4(p),
                                                   rel=1e-12)


def test_koranyi_dist_left_invariant():
    p, q, g = (0.1, 0.2, 0.3), (-0.4, 0.5, -0.6), (0.7, 0.8, 0.9)
    d0 = gauge4(h_mul(h_inv(q), p))
    d1 = gauge4(h_mul(h_inv(h_mul(g, q)), h_mul(g, p)))
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
    assert red.lines.params.tolist() == [[0.0, 0.0]]
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
    fiber = h_mul((w.u, 0.0, w.t), (0.0, np.linspace(-1, 1, 9), 0.0))
    pts = np.column_stack(np.broadcast_arrays(*fiber))
    assert np.all(dist_to_horizontal_line(pts, w) <= 1e-14)
    off = pts + np.array([[0.0, 0.0, 0.1]])
    d = dist_to_horizontal_line(off, w)
    assert np.all(d > 0.09) and np.all(d <= 0.1 + 1e-12)


def test_criterion_6_fails_on_a_sign_slip(monkeypatch):
    # criterion 6 checks the library's own product and projections: a twist
    # of the wrong sign in either fails it
    assert A.criterion_6().passed

    def mul_flipped(p, q):
        (x, y, t), (u, v, s) = p, q
        return x + u, y + v, t + s - 0.5 * (x * v - y * u)

    def proj_x_flipped(p):
        x, y, t = p
        return x, t + x * y / 2.0

    for name, slip in (("h_mul", mul_flipped), ("proj_x", proj_x_flipped)):
        with monkeypatch.context() as m:
            m.setattr(H, name, slip)
            assert not A.criterion_6().passed, name
