"""Reference implementations the tests compare the library's kernels
against: each computes the same result the slow, direct way."""

import math
from typing import List, Optional

import numpy as np

from geomlab.incidence import RichnessField, _clipped, count_bucketed
from geomlab.measure import (Shape, VoxelSet, _gauge_inside, _grid_box,
                             _pack3, project_voxels)
from geomlab.planar import LineFamily, PointSet, Scale, _runs
from geomlab.sobolev import (GridFunction, LevelCheck, bump, field_X,
                             field_Y, sample_to_grid, sheared_fn,
                             smoothed_box)

# bounding-box centers _voxelize_dense tests at a time
_CHUNK = 4_000_000


def _grid_candidates(L: LineFamily, delta: float, radius: float) -> np.ndarray:
    """Grid points of the delta-lattice of the unit square lying within
    `radius` (plus one lattice step) of at least one line; returned in
    row-major (ix, iy) order as an (n, 2) coordinate array."""
    npts = int(math.floor(2.0 / delta)) + 1
    la, lb = L.params[:, 0], L.params[:, 1]
    xs = -1.0 + delta * np.arange(npts)
    marked = np.zeros(npts * npts, dtype=bool)
    chunk = max(1, int(2e6) // npts)
    for lo in range(0, len(L), chunk):
        a = la[lo:lo + chunk, None]
        b = lb[lo:lo + chunk, None]
        yc = a * xs[None, :] + b
        half = radius * np.sqrt(1.0 + a * a) + delta
        jlo = _clipped(np.ceil((yc - half + 1.0) / delta), 0, npts)
        jhi = _clipped(np.floor((yc + half + 1.0) / delta), -1, npts - 1)
        lens = np.maximum(jhi - jlo + 1, 0).ravel()
        jj = _runs(jlo.ravel(), lens)
        ii = np.repeat(np.tile(np.arange(npts, dtype=np.int64), a.shape[0]), lens)
        marked[ii * npts + jj] = True
    flat = np.nonzero(marked)[0]
    ii, jj = flat // npts, flat % npts
    return np.column_stack([xs[ii], xs[jj]])


def _grid_richness_reference(L: LineFamily, s: Scale) -> RichnessField:
    """grid_richness by marking the band rows of _grid_candidates and
    counting them with count_bucketed: the oracle of the lattice scan (it
    sees only the band, see grid_richness)."""
    used = s.multiplier + 1.0
    cand = (_grid_candidates(L, s.delta, used * s.delta) if len(L)
            else np.empty((0, 2)))
    if cand.shape[0] == 0:
        return RichnessField(cand, np.zeros(0, dtype=np.int64), used)
    rep = count_bucketed(PointSet(cand, s.delta), L,
                         Scale(s.delta, s.epsilon, used))
    return RichnessField(cand, rep.richness, used)


def _greedy_separated_reference(coords: np.ndarray, delta: float) -> np.ndarray:
    """_greedy_separated as a per-row loop over a dict of cells: the oracle
    of the batched version."""
    kept: List[int] = []
    cells: dict = {}
    inv = 1.0 / delta
    for i in range(coords.shape[0]):
        x, y = coords[i]
        ci, cj = int(math.floor(x * inv)), int(math.floor(y * inv))
        ok = True
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for j in cells.get((ci + di, cj + dj), ()):
                    if math.hypot(x - coords[j, 0], y - coords[j, 1]) < delta:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            kept.append(i)
            cells.setdefault((ci, cj), []).append(i)
    return np.asarray(kept, dtype=np.int64)


def _voxelize_dense(shape: Shape, h: float,
                    ht: Optional[float] = None) -> VoxelSet:
    """voxelize by testing every center of the bounding box, _CHUNK at a
    time: the oracle of the column path."""
    ht = h if ht is None else ht
    box = _grid_box(shape, h, ht)
    if box is None:
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    i0, i1, j0, j1, k0, k1 = box
    xs = (np.arange(i0, i1) + 0.5) * h
    ys = (np.arange(j0, j1) + 0.5) * h
    slab = max(1, _CHUNK // max(1, xs.size * ys.size))
    chunks = []
    for ka in range(k0, k1, slab):
        kb = min(k1, ka + slab)
        ts = (np.arange(ka, kb) + 0.5) * ht
        gx, gy, gt = np.meshgrid(xs, ys, ts, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel(), gt.ravel()])
        mask = shape.contains(pts)
        if mask.any():
            ii, jj, kk = np.unravel_index(np.nonzero(mask)[0],
                                          (xs.size, ys.size, kb - ka))
            chunks.append(np.column_stack([ii + i0, jj + j0, kk + ka]))
    if not chunks:
        return VoxelSet(np.empty((0, 3), dtype=np.int64), h, ht)
    return VoxelSet(np.vstack(chunks), h, ht)


_MASK64 = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _MASK64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _rank_keys_reference(seed: int, n: int, k: int) -> np.ndarray:
    """rank_keys one index at a time in Python ints, from the formulas of
    its docstring and of the rng module's: the oracle of the vectorized
    Feistel rounds and cycle walk."""
    h = max(1, ((n - 1).bit_length() + 1) // 2)
    mask = (1 << h) - 1
    keys = [_mix64_int((seed + (i + 1) * 0x9E3779B97F4A7C15) & _MASK64)
            for i in range(4)]

    def pi(x):
        left, right = x >> h, x & mask
        for key in keys:
            left, right = right, left ^ (_mix64_int(right ^ key) & mask)
        return (left << h) | right

    out = []
    for x in range(min(k, n)):
        y = pi(x)
        while y >= n:
            y = pi(y)
        out.append(y)
    return np.array(out, dtype=np.int64)


_NEIGHBORS6 = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                        [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.int64)


def _boundary_reference(E: VoxelSet) -> VoxelSet:
    """boundary by looking up all six neighbors of every voxel: the oracle
    of the span kernel."""
    if len(E) == 0:
        return E
    keys = _pack3(E.occupied)
    on_boundary = np.zeros(len(E), dtype=bool)
    for shift in _NEIGHBORS6:
        nb = _pack3(E.occupied + shift[None, :])
        pos = np.searchsorted(keys, nb)
        present = pos < keys.size
        present[present] &= keys[pos[present]] == nb[present]
        on_boundary |= ~present
    return VoxelSet(E.occupied[on_boundary], E.h, E.ht)


def _h3_surrogate_reference(B: VoxelSet) -> float:
    """h3_surrogate testing every center against each new ball: the oracle
    of the batched version."""
    if len(B) == 0:
        return 0.0
    rho = 2.0 * math.sqrt(B.ht)
    centers = B.centers()
    covered = np.zeros(len(B), dtype=bool)
    n_balls = 0
    for i in range(len(B)):
        if covered[i]:
            continue
        n_balls += 1
        covered |= _gauge_inside(*centers[i], *centers.T, rho)
    return n_balls * rho ** 3


def _level_mask(absvals: np.ndarray, k: int) -> np.ndarray:
    return (absvals >= 2.0 ** (k - 1)) & (absvals <= 2.0 ** k)


def _levelset_lemma_check_reference(f: GridFunction, k: int,
                                    which: str = "x", slack: float = 1.25,
                                    oversample: int = 2) -> LevelCheck:
    """levelset_lemma_check from whole-grid level masks and fields
    recomputed on each call: the oracle of LevelDecomposition."""
    a = np.abs(f.values)
    mask_k = _level_mask(a, k)
    if not mask_k.any():
        raise ValueError(f"level {k} is empty")
    origin = np.asarray(f.origin, dtype=np.int64)
    fk = VoxelSet(np.argwhere(mask_k) + origin[None, :], f.h)
    lhs = project_voxels(fk, which, oversample).area()
    grad = field_Y(f) if which == "x" else field_X(f)
    mask_km1 = _level_mask(a, k - 1)
    rhs = 2.0 ** (-k + 2) * float(np.abs(grad.values[mask_km1]).sum()) * f.h ** 3
    return LevelCheck(k, lhs, rhs, bool(lhs <= slack * rhs))


def _function_zoo_reference(h: float) -> dict:
    """The function zoo sampled all at once, as a name -> GridFunction
    dict: the oracle of the lazy FUNCTION_ZOO table."""
    specs = {
        "bump": (bump((0.75, 0.75, 0.5)), (0.8, 0.8, 0.55)),
        "narrow_bump": (bump((0.4, 0.4, 0.3)), (0.45, 0.45, 0.35)),
        "aniso_bump": (bump((0.8, 0.45, 0.35)), (0.85, 0.5, 0.4)),
        "sheared_bump": (sheared_fn(bump((0.6, 0.6, 0.35))), (0.65, 0.65, 0.6)),
        "smoothed_box": (smoothed_box((0.5, 0.5, 0.25), 0.25), (0.7, 0.7, 0.4)),
    }
    return {name: sample_to_grid(fn, h, ext) for name, (fn, ext) in specs.items()}
