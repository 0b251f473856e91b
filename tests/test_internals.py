"""Targeted tests for pruning, greedy extraction, and chunked code paths.

These guard properties the acceptance sweeps cannot observe: a pruning
bug that silently drops candidates would only shrink measured counts,
so supersetness is asserted here against brute-force oracles.
"""

import math

import numpy as np
import pytest

from geomlab.generators import gen_grid_packing, gen_random
from geomlab.incidence import (_greedy_separated, _grid_candidates,
                               count_bucketed, count_naive, grid_richness)
from geomlab.measure import VoxelSet, load_voxelset, save_voxelset
from geomlab.planar import LineFamily, PointSet, Scale
from geomlab.rng import Stream


def test_grid_candidate_pruning_is_a_superset():
    # brute force: richness of every delta-grid point of the square
    delta = 2.0 ** -4
    _, L = gen_random(40, 40, delta, seed=9)
    fam = LineFamily(L.params, epsilon=delta)
    s = Scale(delta)
    used = s.multiplier + 1.0
    grid = gen_grid_packing(delta)
    brute = count_naive(PointSet(grid.coords, delta), fam,
                        Scale(delta, multiplier=used))
    field = grid_richness(fam, s)
    # every grid point with positive richness must appear among candidates
    cand_keys = {(round(x, 12), round(y, 12)) for x, y in field.coords}
    for (x, y), r in zip(grid.coords, brute.richness):
        if r > 0:
            assert (round(x, 12), round(y, 12)) in cand_keys
    # and candidate richness agrees with brute force
    lookup = {(round(x, 12), round(y, 12)): rr
              for (x, y), rr in zip(field.coords, field.richness)}
    for (x, y), r in zip(grid.coords, brute.richness):
        key = (round(x, 12), round(y, 12))
        if key in lookup:
            assert lookup[key] == r


def test_greedy_separated_is_separated_and_maximal():
    stream = Stream(17)
    pts = np.column_stack([stream.uniform(500, -1, 1),
                           stream.uniform(500, -1, 1)])
    delta = 0.12
    kept = _greedy_separated(pts, delta)
    kp = pts[kept]
    d = np.sqrt(((kp[:, None, :] - kp[None, :, :]) ** 2).sum(axis=2))
    d[np.arange(len(kp)), np.arange(len(kp))] = np.inf
    assert d.min() >= delta
    # maximality: every input point is within delta of some kept point
    gaps = np.sqrt(((pts[:, None, :] - kp[None, :, :]) ** 2).sum(axis=2)
                   ).min(axis=1)
    assert gaps.max() < delta


def test_bucketed_numpy_path_multi_chunk():
    # 17k points split across chunks of count_bucketed, pairs included
    delta = 2.0 ** -6
    P = gen_grid_packing(delta)
    L = LineFamily(gen_grid_packing(2.0 ** -4).coords, epsilon=2.0 ** -4)
    s = Scale(delta)
    a = count_naive(P, L, s, with_pairs=True)
    b = count_bucketed(P, L, s, with_pairs=True)
    assert a.same_as(b)
    assert len(P) > 15625  # above one chunk (8192 points)


def test_rle_empty_round_trip(tmp_path):
    K = VoxelSet(np.empty((0, 3)), h=0.25, ht=0.125)
    save_voxelset(K, tmp_path / "e.vxl")
    K2 = load_voxelset(tmp_path / "e.vxl")
    assert len(K2) == 0 and K2.h == 0.25 and K2.ht == 0.125
