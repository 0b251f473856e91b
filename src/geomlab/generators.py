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
from .planar import LineFamily, Point2, PointSet, _runs
from .rng import Stream, rank_keys, substream_seed

Region = Tuple[float, float, float, float]  # xmin, xmax, ymin, ymax

UNIT_REGION: Region = (-1.0, 1.0, -1.0, 1.0)


def _lattice_1d(lo: float, hi: float, step: float) -> np.ndarray:
    if hi < lo:
        return np.empty(0)
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def gen_grid_packing(delta: float, region: Region = UNIT_REGION) -> PointSet:
    """Square lattice of spacing exactly delta clipped to the region.

    Separation is exact for grid-exact (dyadic) spacings; spacings whose
    square is not a float-exact product may validate one ulp short.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    xmin, xmax, ymin, ymax = region
    xs = _lattice_1d(xmin, xmax, delta)
    ys = _lattice_1d(ymin, ymax, delta)
    if xs.size == 0 or ys.size == 0:
        return PointSet(np.empty((0, 2)), delta)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return PointSet(np.column_stack([gx.ravel(), gy.ravel()]), delta)


def gen_tube_example(delta: float) -> Tuple[PointSet, LineFamily]:
    """Sharpness family: a delta-packing of a sqrt(delta) x delta tube and
    ~delta^{-1/2} lines through the tube's center, all mutually incident.

    Points sit on the tube's horizontal center line with spacing delta;
    lines pass exactly through the tube center with slopes quantized in
    steps of 2*delta inside [-sqrt(delta), sqrt(delta)], which keeps the
    dual parameters >= 2*delta apart and every point within delta/2 of
    every line.
    """
    if delta > 2.0 ** -4:
        raise ValueError(f"delta must be <= 2^-4 so the tube holds >= 4 points")
    w = math.sqrt(delta)
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
    xs = _lattice_1d(0.0, r, delta)
    ys = _lattice_1d(0.0, s, delta)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    la = _lattice_1d(-1.0, 1.0, eps)
    lb = _lattice_1d(-1.0, 1.0, eps)
    ga, gb = np.meshgrid(la, lb, indexing="ij")
    ga, gb = ga.ravel(), gb.ravel()
    keep = _dual_region_mask(ga, gb, r, s)
    lines = np.column_stack([ga[keep], gb[keep]])
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
    budget = m * (k - 1) * step + (m - 1) * gap
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
    cy = np.zeros(m)
    slopes = []
    intercepts = []
    a0 = -budget / 2.0
    for c in range(m):
        a = a0 + c * ((k - 1) * step + gap) + step * np.arange(k)
        slopes.append(a)
        intercepts.append(cy[c] - a * cx[c])
    lines = np.column_stack([np.concatenate(slopes), np.concatenate(intercepts)])
    pts = np.column_stack([cx, cy])
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
    half = delta * np.array([math.hypot(1.0, ai) for ai in a])
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
