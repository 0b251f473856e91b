"""Heisenberg group algebra on R^3 and the reduction to planar incidences.

Group law: (x, y, t) * (x', y', t') = (x+x', y+y', t+t' + (x y' - y x')/2).
Anisotropic dilations (lam x, lam y, lam^2 t) are automorphisms.  The two
vertical planes W_x = {(x, 0, t)} and W_y = {(0, y, t)} carry the
projections

    proj_x(x, y, t) = (x, 0, t - xy/2),   proj_y(x, y, t) = (0, y, t + xy/2),

whose fibers are the left cosets of the horizontal axes.  The fiber of a
W_x point w = (a, 0, b) projects under proj_y onto the straight line
{(y, a y + b)} of the (y, t)-plane, which is what turns projection
questions into planar incidence counting.

The homogeneous gauge used for balls is ((x^2 + y^2)^2 + 16 t^2)^{1/4};
the factor 16 is a convention (it makes the gauge a metric) and nothing
downstream depends on it quantitatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from .planar import (LineFamily, PointSet, Scale, _check_unit_square,
                     validate_separation)
from .rng import Stream

# Q0 in the group is the cube [-1, 1]^3
CUBE = 1.0

# Default constant for the core-projection inclusion
#   proj_y(preimage tube of a delta-ball) subset line-neighborhood(A delta):
# the vertical deviation over the ball is |dt + du*y| <= delta*sqrt(1+y^2)
# <= sqrt(2)*delta inside the cube, so A = 2 is a safe rounded-up ceiling.
# measure_core_projection_constant() re-derives it empirically.
CORE_PROJ_CONST = 2.0


class Plane(str, Enum):
    W_X = "Wx"
    W_Y = "Wy"


@dataclass(frozen=True)
class VerticalPlanePoint:
    """Point of a vertical plane: (u, 0, t) in W_x or (0, u, t) in W_y."""

    plane: Plane
    u: float
    t: float


# The group law on arrays.  A point p is a triple (x, y, t) of arrays or
# floats that broadcast together (a (3, n) array unpacks as one); every
# result is a tuple of arrays.  Criterion 6 checks these functions, and the
# kernels that compute the same floats call them.

def h_mul(p, q):
    """The product p * q."""
    (x, y, t), (u, v, s) = p, q
    return x + u, y + v, t + s + 0.5 * (x * v - y * u)


def h_inv(p):
    """The inverse of p, -p."""
    x, y, t = p
    return -x, -y, -t


def dilate(lam: float, p):
    """The dilation (lam x, lam y, lam^2 t), lam > 0."""
    if lam <= 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    x, y, t = p
    return lam * x, lam * y, lam * lam * t


def proj_x(p):
    """proj_x p = (x, 0, t - x y / 2), as its coordinates (u, t) in W_x."""
    x, y, t = p
    return x, t - x * y / 2.0


def proj_y(p):
    """proj_y p = (0, y, t + x y / 2), as its coordinates (u, t) in W_y."""
    x, y, t = p
    return y, t + x * y / 2.0


def gauge4(p):
    """The quartic gauge (x^2 + y^2)^2 + 16 t^2: the fourth power of the
    gauge norm, so the gauge ball of radius r is gauge4 <= r^4."""
    x, y, t = p
    return (x * x + y * y) ** 2 + 16.0 * t * t


@dataclass
class ReducedInstance:
    points: PointSet
    lines: LineFamily
    scale: Scale  # carries the incidence multiplier 1 + A


def reduce_to_incidences(P_x: Sequence[VerticalPlanePoint],
                         P_y: Sequence[VerticalPlanePoint],
                         s: Scale,
                         core_const: float = CORE_PROJ_CONST) -> ReducedInstance:
    """Turn delta-separated plane point sets into the planar instance whose
    (1 + A) delta-incidences dominate pairs of intersecting preimage tubes.

    P_x points (a, 0, b) become the lines {(y, a y + b)}: proj_y maps the
    fiber w * L_y of w = (a, 0, b) onto that line of the (y, t)-plane.  P_y
    points are re-read as planar points (y, t).  Parameter distances equal
    the plane distances, so separations transfer exactly.  Raises
    ValueError for a P_x point outside the unit square, whose line leaves
    the parameter square.
    """
    for w in P_x:
        if w.plane != Plane.W_X:
            raise ValueError("P_x must contain W_x points")
    for w in P_y:
        if w.plane != Plane.W_Y:
            raise ValueError("P_y must contain W_y points")
    lines = LineFamily([(w.u, w.t) for w in P_x], epsilon=s.delta)
    _check_unit_square(lines.params, "plane point")
    points = PointSet([(w.u, w.t) for w in P_y], delta=s.delta)
    for obj, name in ((points, "P_y"), (lines, "P_x")):
        rep = validate_separation(obj)
        if not rep.ok:
            raise ValueError(f"{name} not {s.delta:g}-separated: pair "
                             f"{rep.pair} at distance {rep.min_distance:g}")
    return ReducedInstance(points, lines,
                           Scale(s.delta, s.epsilon, 1.0 + core_const))


# ---------------------------------------------------------------------------
# Tube geometry

def _line_through(w: VerticalPlanePoint) -> Tuple[np.ndarray, np.ndarray]:
    """Anchor point and direction of the horizontal line w * (axis)."""
    if w.plane == Plane.W_X:
        # {(a, s, b + a s / 2)}
        return (np.array([w.u, 0.0, w.t]), np.array([0.0, 1.0, w.u / 2.0]))
    # {(s, c, d - c s / 2)}
    return (np.array([0.0, w.u, w.t]), np.array([1.0, 0.0, -w.u / 2.0]))


def dist_to_horizontal_line(pts: np.ndarray, w: VerticalPlanePoint) -> np.ndarray:
    """Euclidean distance in R^3 from pts (n, 3) to the line w * (axis)."""
    anchor, direction = _line_through(w)
    d = direction / np.linalg.norm(direction)
    rel = pts - anchor[None, :]
    proj = rel @ d
    perp = rel - proj[:, None] * d[None, :]
    return np.linalg.norm(perp, axis=1)


def tube_inclusion_check(w: VerticalPlanePoint, s: Scale, samples: int = 20000,
                         seed: int = 7) -> float:
    """Sample the preimage tube proj^{-1}(B(w, delta)) inside the unit cube
    and return max distance to the horizontal line through w, divided by
    delta: an empirical lower bound for the tube constant A1."""
    stream = Stream(seed)
    # uniform points of the delta-disk around (u, t) in the plane
    ang = stream.uniform(samples, 0.0, 2.0 * math.pi)
    rad = s.delta * np.sqrt(stream.uniform(samples))
    du, dt = rad * np.cos(ang), rad * np.sin(ang)
    axis = stream.uniform(samples, -1.0, 1.0)
    u, t = w.u + du, w.t + dt
    # the fiber point (u, 0, t) * (0, axis, 0) projects to (u, 0, t), and
    # (0, u, t) * (axis, 0, 0) to (0, u, t)
    if w.plane == Plane.W_X:
        pts = np.column_stack(h_mul((u, 0.0, t), (0.0, axis, 0.0)))
    else:
        pts = np.column_stack(h_mul((0.0, u, t), (axis, 0.0, 0.0)))
    inside = np.all(np.abs(pts) <= CUBE, axis=1)
    pts = pts[inside]
    if pts.shape[0] == 0:
        return 0.0
    return float(dist_to_horizontal_line(pts, w).max() / s.delta)


def measure_core_projection_constant(s: Scale, samples: int = 20000,
                                     seed: int = 11) -> float:
    """Empirical constant A of the inclusion proj_y(preimage tube of
    B(w_x, delta)) subset (A delta)-neighborhood of the projected line:
    max over sampled tube points of dist(proj_y(p), line) / delta."""
    stream = Stream(seed)
    out = 0.0
    for trial in range(8):
        a = float(stream.uniform(1, -1.0, 1.0)[0])
        b = float(stream.uniform(1, -1.0, 1.0)[0])
        w = VerticalPlanePoint(Plane.W_X, a, b)
        ang = stream.uniform(samples, 0.0, 2.0 * math.pi)
        rad = s.delta * np.sqrt(stream.uniform(samples))
        du, dt = rad * np.cos(ang), rad * np.sin(ang)
        ys = stream.uniform(samples, -1.0, 1.0)
        # the tube point (a + du, 0, b + dt) * (0, y, 0), projected by proj_y
        _, proj_t = proj_y(h_mul((a + du, 0.0, b + dt), (0.0, ys, 0.0)))
        # distance to {(y, a y + b)} in the (y, t)-plane
        vert = np.abs(a * ys + b - proj_t)
        dist = vert / math.hypot(1.0, a)
        out = max(out, float(dist.max() / s.delta))
    return out
