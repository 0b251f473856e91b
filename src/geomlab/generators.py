"""Deterministic generators for every named configuration family.

All families are built from square-lattice packings (separation is exact
by construction, at the cost of ~15% density versus hexagonal packings)
and all randomness flows through the seeded splitmix64 stream of
:mod:`geomlab.rng`, so identical parameters give byte-identical output.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .incidence import _greedy_separated
from .planar import (GridTooLarge, LineFamily, Point2, PointSet, _runs,
                     threshold)
from .rng import Stream, rank_keys, substream_seed

Region = Tuple[float, float, float, float]  # xmin, xmax, ymin, ymax

UNIT_REGION: Region = (-1.0, 1.0, -1.0, 1.0)


# Most points of one lattice: 8 MiB of float64.  The largest lattice of
# the defaults and criteria has 4097 points (star-bound's candidate slopes
# at epsilon = 2^-8), and star-bound at its smallest epsilon,
# acceptance.STAR_EPSILON_MIN, asks for 2^16 + 1
LATTICE_CAP = 2 ** 20
# Most points of one 2-D lattice: 256 MiB of (x, y) pairs.  The largest
# lattice of the defaults, criteria and benchmark has 257^2 = 66,049
# points (the rectangle family's lines at 2^-7)
LATTICE_2D_CAP = 2 ** 24


def _lattice_1d(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi; GridTooLarge past LATTICE_CAP points."""
    if hi < lo:
        return np.empty(0)
    steps = (hi - lo) / step + 1e-9
    if not steps < LATTICE_CAP:  # also refuses inf and nan
        raise GridTooLarge(f"a lattice of step {step:g} over [{lo:g}, "
                           f"{hi:g}] would hold more than {LATTICE_CAP} "
                           f"points")
    return lo + step * np.arange(int(math.floor(steps)) + 1)


def _lattice_2d(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (x, y) pairs of xs x ys in row-major order, one a row;
    GridTooLarge past LATTICE_2D_CAP pairs."""
    if xs.size * ys.size > LATTICE_2D_CAP:
        raise GridTooLarge(f"a lattice of {xs.size} x {ys.size} points "
                           f"would hold more than {LATTICE_2D_CAP}")
    out = np.empty((xs.size, ys.size, 2))
    out[:, :, 0] = xs[:, None]
    out[:, :, 1] = ys
    return out.reshape(-1, 2)


def gen_grid_packing(delta: float, region: Region = UNIT_REGION) -> PointSet:
    """Square lattice of spacing exactly delta clipped to the region.

    Separation is exact for grid-exact (dyadic) spacings; spacings whose
    square is not a float-exact product may validate one ulp short.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    xmin, xmax, ymin, ymax = region
    return PointSet(_lattice_2d(_lattice_1d(xmin, xmax, delta),
                                _lattice_1d(ymin, ymax, delta)), delta)


def gen_tube_example(delta: float) -> Tuple[PointSet, LineFamily]:
    """Sharpness family: a delta-packing of a sqrt(delta) x delta tube and
    ~delta^{-1/2} lines through the tube's center, all mutually incident.

    Points sit on the tube's horizontal center line with spacing delta;
    lines pass exactly through the tube center with slopes quantized in
    steps of 2*delta inside [-sqrt(delta), sqrt(delta)], which keeps the
    dual parameters >= 2*delta apart and every point within delta/2 of
    every line.  A tube of more than LATTICE_CAP points raises GridTooLarge:
    every point meets every line, and at delta = 2^-38 (2^19 + 1 points)
    an incidence-sweep row took 6.9 s.
    """
    if delta > 2.0 ** -4:
        raise ValueError(f"delta must be <= 2^-4 so the tube holds >= 4 points")
    w = math.sqrt(delta)
    if not 1.0 / w < LATTICE_CAP:
        raise GridTooLarge(f"the tube would hold more than {LATTICE_CAP} "
                           f"points")
    n_pts = int(math.floor(1.0 / w))  # = floor(delta^{-1/2})
    xs = delta * np.arange(n_pts + 1)
    pts = np.column_stack([xs, np.full(xs.size, delta / 2.0)])
    xc, yc = w / 2.0, delta / 2.0
    m = int(math.floor(0.5 / w))  # floor(delta^{-1/2} / 2)
    slopes = 2.0 * delta * np.arange(-m, m + 1)
    intercepts = yc - slopes * xc
    lines = np.column_stack([slopes, intercepts])
    return PointSet(pts, delta), LineFamily(lines, delta)


def _dual_region_mask(a: np.ndarray, b: np.ndarray, r: float, s: float) -> np.ndarray:
    """Lines y = a x + b meeting the rectangle [0, r] x [0, s]."""
    e1, e2 = b, b + a * r
    return (np.maximum(e1, e2) >= 0.0) & (np.minimum(e1, e2) <= s)


def gen_rectangle_example(delta: float, r: float, s: float,
                          epsilon: Optional[float] = None
                          ) -> Tuple[PointSet, LineFamily]:
    """Sharpness family: a delta-packing of the rectangle [0, r] x [0, s]
    against a packing of the dual region of lines meeting the rectangle.
    Lines are packed at spacing epsilon (default delta)."""
    if not (delta <= s <= r <= 1.0):
        raise ValueError(f"need delta <= s <= r <= 1, got {delta}, {s}, {r}")
    eps = delta if epsilon is None else epsilon
    if eps < delta:
        raise ValueError("epsilon must be >= delta")
    pts = _lattice_2d(_lattice_1d(0.0, r, delta), _lattice_1d(0.0, s, delta))
    lattice = _lattice_1d(-1.0, 1.0, eps)
    lines = _lattice_2d(lattice, lattice)
    lines = lines[_dual_region_mask(lines[:, 0], lines[:, 1], r, s)]
    return PointSet(pts, delta), LineFamily(lines, eps)


def gen_kstar(k: int, m: int, delta: float,
              epsilon: Optional[float] = None) -> Tuple[PointSet, LineFamily]:
    """m centers, each lying on exactly k lines of the family.

    Each star owns a disjoint slope window; within a window the slopes
    step by max(epsilon, 2*delta) and every line passes exactly through
    its center, so dual parameters are separated both within and across
    stars with no perturbation needed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    eps = delta if epsilon is None else epsilon
    if eps < delta:
        raise ValueError("epsilon must be >= delta")
    step = max(eps * (1.0 + 1e-9), 2.0 * delta)
    gap = step
    # in floats, where the int m (k - 1) of a huge k could not be converted;
    # for k, m < 2^53 both round the same exact product
    budget = m * float(k - 1) * step + (m - 1) * gap
    if budget > 2.0:
        raise ValueError(
            f"infeasible k-star: m={m} windows of {k} slopes at step {step:g} "
            f"need slope budget {budget:g} > 2")
    # centers on a horizontal lattice, spread over [-1/2, 1/2]
    span = 1.0
    spacing = span / m
    if m > 1 and spacing < 2.0 * delta * k:
        raise ValueError(
            f"infeasible k-star: centers at spacing {spacing:g} "
            f"cannot be {2 * delta * k:g}-separated")
    cx = -span / 2.0 + spacing * (np.arange(m) + 0.5)
    # row c: star c's k slopes and their intercepts through (cx[c], 0);
    # 0.0 - x, not -x, so that an intercept of 0 is +0.0
    a0 = -budget / 2.0
    window = (k - 1) * step + gap
    a = a0 + np.arange(m)[:, None] * window + step * np.arange(k)
    b = 0.0 - a * cx[:, None]
    lines = np.column_stack([a.ravel(), b.ravel()])
    pts = np.column_stack([cx, np.zeros(m)])
    return PointSet(pts, delta), LineFamily(lines, eps)


def gen_concurrent_star(n: int, epsilon: float,
                        through: Point2 = Point2(0.0, 0.0)) -> LineFamily:
    """n lines passing exactly through a common point, with dual parameters
    exactly epsilon-separated along the dual line of the point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x0, y0 = through.x, through.y
    da = epsilon / math.hypot(1.0, x0) * (1.0 + 1e-9)
    a = da * (np.arange(n) - (n - 1) / 2.0)
    b = y0 - a * x0
    if np.any(np.abs(a) > 1.0) or np.any(np.abs(b) > 1.0):
        raise ValueError(f"star of {n} lines at epsilon={epsilon:g} leaves the "
                         f"parameter square")
    return LineFamily(np.column_stack([a, b]), epsilon)


def gen_greedy_concurrent(epsilon: float, delta: float,
                          through: Point2 = Point2(0.0, 0.0)) -> LineFamily:
    """Greedy maximal epsilon-separated family of lines delta-incident to a
    common point: candidates on a fine grid of the dual strip of the point,
    scanned column-major and kept when >= epsilon from all kept lines."""
    x0, y0 = through.x, through.y
    step = epsilon / 8.0
    a = _lattice_1d(-1.0, 1.0, step)
    half = threshold(a, delta)
    bc = y0 - a * x0
    lo = np.maximum(-1.0, bc - half)
    hi = np.minimum(1.0, bc + half)
    # per column the lattice of _lattice_1d(lo, hi, step)
    lens = np.where(hi < lo, 0,
                    np.floor((hi - lo) / step + 1e-9).astype(np.int64) + 1)
    col = np.repeat(np.arange(a.size), lens)
    j = _runs(np.zeros_like(lens), lens)  # index within the column
    cands = np.column_stack([a[col], lo[col] + step * j])
    kept = _greedy_separated(cands, epsilon * (1.0 + 1e-9))
    return LineFamily(cands[kept], epsilon)


def _jittered_cells(n: int, delta: float, stream: Stream) -> np.ndarray:
    """n points in distinct cells of the 2*delta lattice of the unit square,
    jittered by at most delta/4 per coordinate."""
    if 1.0 / delta == math.inf:
        raise ValueError(f"1/delta overflows a float at delta={delta:g}")
    ncell = int(math.floor(1.0 / delta))
    total = ncell * ncell
    if n > total:
        raise ValueError(f"cannot place {n} points in {total} cells at "
                         f"delta={delta:g}")
    chosen = rank_keys(int(stream.u64(1)[0]), total, n)
    ci, cj = chosen // ncell, chosen % ncell
    cx = -1.0 + 2.0 * delta * (ci + 0.5)
    cy = -1.0 + 2.0 * delta * (cj + 0.5)
    jit = stream.uniform(2 * n, -delta / 4.0, delta / 4.0)
    return np.column_stack([cx + jit[:n], cy + jit[n:]])


def gen_random(n_points: int, n_lines: int, delta: float,
               seed: int) -> Tuple[PointSet, LineFamily]:
    """Seeded jittered-lattice sampling; separation >= 1.29 * delta holds by
    construction and the output is fully determined by the seed."""
    if n_points < 0 or n_lines < 0:
        raise ValueError("counts must be nonnegative")
    for name, n in (("n_points", n_points), ("n_lines", n_lines)):
        if n * delta * delta > 4.0:
            raise ValueError(f"{name}={n} infeasible at delta={delta:g}")
    pts = (_jittered_cells(n_points, delta, Stream(substream_seed(seed, 1)))
           if n_points else np.empty((0, 2)))
    lns = (_jittered_cells(n_lines, delta, Stream(substream_seed(seed, 2)))
           if n_lines else np.empty((0, 2)))
    return PointSet(pts, delta), LineFamily(lns, delta)
