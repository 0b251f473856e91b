"""Tests for the configuration-family generators."""

import hashlib
import math

import numpy as np
import pytest

from geomlab.acceptance import rich_points, sweep_family
from geomlab import generators
from geomlab.generators import (LATTICE_2D_CAP, LATTICE_CAP, _lattice_1d,
                                _lattice_2d, gen_concurrent_star,
                                gen_grid_packing, gen_greedy_concurrent,
                                gen_kstar, gen_random, gen_rectangle_example,
                                gen_tube_example)
from geomlab.incidence import count_naive, max_concurrency
from geomlab.planar import (BadInput, GridTooLarge, LineFamily, Point2,
                            Scale, validate_separation)
from geomlab.rng import Stream, mix64, rank_keys, substream_seed
from oracles import _rank_keys_reference, traced_peak


def test_grid_packing_counts():
    assert len(gen_grid_packing(0.5)) == 25
    assert len(gen_grid_packing(1.0 - 1e-12)) == 9
    assert len(gen_grid_packing(2.0 ** -3, region=(0, 0.25, 0, 0.125))) == 6


def test_lattice_refuses_more_points_than_its_cap():
    assert _lattice_1d(0.0, LATTICE_CAP - 1.0, 1.0).size == LATTICE_CAP
    for lo, hi, step in ((0.0, LATTICE_CAP, 1.0), (0.0, 1.0, 1e-9),
                         (-1.0, 1.0, 5e-324)):
        with pytest.raises(GridTooLarge, match="more than 1048576 points"):
            _lattice_1d(lo, hi, step)
    # the rectangle family at delta = 1e-9 asked numpy for 7.45 GiB
    with pytest.raises(GridTooLarge, match="step 1e-09 over"):
        gen_rectangle_example(1e-9, 1.0, math.sqrt(1e-9))


def test_2d_lattice_refuses_more_points_than_its_cap(monkeypatch):
    # the rectangle family at delta = 2^-14 meshgridded 32769^2 lines,
    # 8 GiB, before this cap
    assert LATTICE_2D_CAP == 2 ** 24
    with pytest.raises(GridTooLarge, match="a lattice of 32769 x 32769 "
                       "points would hold more than 16777216"):
        gen_rectangle_example(2.0 ** -14, 1.0, 2.0 ** -7)
    monkeypatch.setattr(generators, "LATTICE_2D_CAP", 12)
    got = _lattice_2d(np.arange(3.0), np.arange(4.0))
    assert got.tolist() == [[x, y] for x in range(3) for y in range(4)]
    assert _lattice_2d(np.arange(12.0), np.empty(0)).shape == (0, 2)
    for nx, ny in ((13, 1), (1, 13), (4, 4)):
        with pytest.raises(GridTooLarge, match="more than 12"):
            _lattice_2d(np.arange(float(nx)), np.arange(float(ny)))


def test_kstar_of_more_slopes_than_floats_hold_is_infeasible():
    # m (k - 1) step, an int times a float, raised OverflowError as
    # m (k - 1) passed the float range
    for delta in (2.0 ** -8, 5e-324):
        with pytest.raises(ValueError, match="need slope budget inf > 2"):
            gen_kstar(10 ** 308, 2, delta)


def test_grid_packing_empty_region():
    assert len(gen_grid_packing(0.25, region=(0.5, 0.4, 0, 1))) == 0


def test_tube_example_sizes_and_counts():
    delta = 2.0 ** -8
    P, L = gen_tube_example(delta)
    assert 12 <= len(P) <= 20
    assert 12 <= len(L) <= 20
    assert validate_separation(P).ok and validate_separation(L).ok
    count = count_naive(P, L, Scale(delta)).count
    assert 0.25 / delta <= count <= 4.0 / delta
    ratio = count_naive(P, L, Scale(delta)).normalized_ratio
    assert 0.05 <= ratio <= 20.0
    with pytest.raises(ValueError):
        gen_tube_example(0.25)


def test_rectangle_example():
    delta = 2.0 ** -6
    P, L = gen_rectangle_example(delta, 1.0, delta)  # degenerates to a 1 x delta tube
    assert 0.5 / delta <= len(P) <= 4.0 / delta
    assert validate_separation(P).ok and validate_separation(L).ok
    with pytest.raises(ValueError):
        gen_rectangle_example(delta, 0.5, 0.7)  # s > r
    # full square: both sides are near-maximal packings
    P2, L2 = gen_rectangle_example(2.0 ** -4, 1.0, 1.0)
    assert len(P2) == 17 ** 2
    assert len(L2) > 0.5 / (2.0 ** -4) ** 2


def test_rectangle_lines_all_meet_rectangle():
    delta, r, s = 2.0 ** -5, 0.5, 0.25
    _, L = gen_rectangle_example(delta, r, s)
    xs = np.linspace(0.0, r, 257)
    for a, b in L.params[::7]:
        ys = a * xs + b
        assert np.any((ys >= -1e-12) & (ys <= s + 1e-12))


def test_kstar_smallest():
    delta = 2.0 ** -6
    P, L = gen_kstar(2, 1, delta)
    assert len(P) == 1 and len(L) == 2
    assert count_naive(P, L, Scale(delta)).count == 2


def test_kstar_planted_incidences():
    delta = 2.0 ** -10
    P, L = gen_kstar(16, 8, delta)
    assert len(L) == 128
    assert count_naive(P, L, Scale(delta)).count >= 128
    assert validate_separation(L).ok
    # every center sees exactly its own k lines at radius delta
    for x, y in P.coords.tolist():
        assert max_concurrency(L, Point2(x, y), Scale(delta)) >= 16


def test_kstar_infeasible_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        gen_kstar(16, 4, 2.0 ** -4, epsilon=16 * 2.0 ** -4)


def test_concurrent_star_and_greedy():
    eps = 2.0 ** -6
    star = gen_concurrent_star(32, eps)
    assert len(star) == 32
    assert validate_separation(star).ok
    fam = gen_greedy_concurrent(eps, eps / 4.0)
    assert 0.5 / eps <= len(fam) <= 4.0 / eps
    assert validate_separation(fam).ok
    assert max_concurrency(fam, Point2(0, 0), Scale(eps / 4.0, eps)) == len(fam)


def _greedy_concurrent_loop(epsilon, delta, through=Point2(0.0, 0.0)):
    """Reference: the candidate-by-candidate scan against every kept line."""
    x0, y0 = through.x, through.y
    step = epsilon / 8.0
    kept_a, kept_b = [], []
    thr = epsilon * (1.0 + 1e-9)
    for a in _lattice_1d(-1.0, 1.0, step):
        half = delta * math.sqrt(1.0 + a * a)
        bc = y0 - a * x0
        for b in _lattice_1d(max(-1.0, bc - half), min(1.0, bc + half), step):
            if all(math.hypot(a - ka, b - kb) >= thr
                   for ka, kb in zip(kept_a, kept_b)):
                kept_a.append(a)
                kept_b.append(b)
    return LineFamily(np.column_stack([kept_a, kept_b]).reshape(-1, 2), epsilon)


@pytest.mark.parametrize("eexp, ratio, through", [
    (4, 0.25, Point2(0.0, 0.0)), (5, 0.25, Point2(0.0, 0.0)),
    (6, 0.25, Point2(0.0, 0.0)), (7, 0.25, Point2(0.0, 0.0)),
    (5, 1.0, Point2(0.0, 0.0)), (6, 0.5, Point2(0.3, -0.2)),
    pytest.param(math.log2(10.0), 0.25, Point2(0.0, 0.0), id="eps-0.1"),
])
def test_greedy_concurrent_equals_reference_loop(eexp, ratio, through):
    eps = 2.0 ** -eexp
    fam = gen_greedy_concurrent(eps, ratio * eps, through)
    ref = _greedy_concurrent_loop(eps, ratio * eps, through)
    assert fam.params.shape == ref.params.shape
    assert fam.params.tobytes() == ref.params.tobytes()
    assert fam.epsilon == ref.epsilon


@pytest.mark.parametrize("seed, n, k", [
    (0, 1, 1), (9, 2, 5), (5, 16, 16), (5, 17, 17), (2 ** 64 - 1, 4096, 300),
    (12345, 4097, 4097), (7, 1000, 0), (99, 2 ** 40, 50), (3, 2 ** 62, 20),
])
def test_rank_keys_equals_scalar_reference(seed, n, k):
    # n = 16 and 4096 fill the Feistel domain 2^(2h); n = 17 and 4097 are
    # one more, the most cycle walking per index
    got = rank_keys(seed, n, k)
    assert got.dtype == np.int64
    assert np.array_equal(got, _rank_keys_reference(seed, n, k))


def test_rank_keys_is_a_prefix_stable_permutation():
    for n in list(range(301)) + [4096, 4097, 65536, 100003]:
        seed = 1000 + n
        got = rank_keys(seed, n, n)
        assert np.array_equal(np.sort(got), np.arange(n)), n
        for k in (0, 1, n // 3, max(0, n - 1), n + 5):
            assert np.array_equal(rank_keys(seed, n, k), got[:k]), n
        assert np.array_equal(rank_keys(seed, n, n), got)
        if n >= 8:  # another seed, another of the n! orders
            assert not np.array_equal(rank_keys(seed + 1, n, n), got)
    for n, k in ((10, -1), (-1, 0), (2 ** 62 + 1, 1), (2 ** 80, 10)):
        with pytest.raises(ValueError):
            rank_keys(1, n, k)


def test_rank_keys_uniform_over_quadrants_and_parities():
    # 100,000 of the 1024 x 1024 cells: each class of a quarter of the cells
    # gets 25,000 +- 500, about 3.8 standard deviations
    cells = rank_keys(123, 2 ** 20, 100_000)
    row, col = cells >> 10, cells & 1023
    for a, b in ((row >= 512, col >= 512), (row & 1, col & 1)):
        for i in (0, 1):
            for j in (0, 1):
                assert abs(np.sum((a == i) & (b == j)) - 25_000) <= 500


def test_mix64_keeps_its_input_and_scalar_type():
    z = Stream(4).u64(1000)
    before = z.copy()
    out = mix64(z)
    assert np.array_equal(z, before)
    assert isinstance(mix64(z[5]), np.uint64)
    assert mix64(z[5]) == out[5]


@pytest.mark.parametrize("args, digest", [
    ((500, 500, 2.0 ** -10, 12345), "181d86307cb975ca"),
    ((2000, 2000, 2.0 ** -11, 7), "c13a72cf155f00d6"),
    ((1, 1, 2.0 ** -4, 0), "4b53218be661e91d"),
])
def test_random_matches_recorded_fingerprints(args, digest):
    P, L = gen_random(*args)
    blob = P.coords.tobytes() + L.params.tobytes()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


def test_random_memory_does_not_grow_with_cell_count():
    # 2^24 lattice cells for 10 points and 10 lines: ranking every cell at
    # once took a 256 MB peak here
    _, peak = traced_peak(lambda: gen_random(10, 10, 2.0 ** -12, seed=3))
    assert peak < 64 * 2 ** 20


def test_random_at_a_tiny_delta_takes_its_ranked_cells():
    # 2^60 lattice cells: hashing every cell to rank them never ended
    delta, seed = 2.0 ** -30, 77
    P, L = gen_random(10, 10, delta, seed)
    for tag, coords in ((1, P.coords), (2, L.params)):
        want = rank_keys(int(Stream(substream_seed(seed, tag)).u64(1)[0]),
                         2 ** 60, 10)
        ci, cj = np.rint((coords + 1.0) / (2.0 * delta) - 0.5).astype(np.int64).T
        got = (ci << 30) + cj
        assert np.array_equal(got, want)
        assert np.unique(got).size == 10
        assert (0 <= ci).all() and (ci < 2 ** 30).all()
        assert (0 <= cj).all() and (cj < 2 ** 30).all()


def test_random_empty_and_feasibility():
    P, L = gen_random(0, 0, 0.1, seed=1)
    assert len(P) == 0 and len(L) == 0
    with pytest.raises(ValueError):
        gen_random(10 ** 6, 1, 2.0 ** -4, seed=1)


def test_random_separation_and_determinism():
    P1, L1 = gen_random(1000, 1000, 2.0 ** -8, seed=2024)
    P2, L2 = gen_random(1000, 1000, 2.0 ** -8, seed=2024)
    assert validate_separation(P1).ok and validate_separation(L1).ok
    # bit-identical coordinates, signed zeros included
    assert P1.coords.tobytes() == P2.coords.tobytes()
    assert L1.params.tobytes() == L2.params.tobytes()
    P3, _ = gen_random(1000, 1000, 2.0 ** -8, seed=2025)
    assert not np.array_equal(P1.coords, P3.coords)


def test_sweep_family_reads_only_its_keys():
    P, L = sweep_family("k_star", k=3, m=2)(0, 2.0 ** -8)
    assert (len(P), len(L)) == (2, 6)
    P, L = sweep_family("random", seed=4, n_points=7)(1, 2.0 ** -6)
    assert (len(P), len(L)) == (7, 500)
    for name, params, needle in [("nope", {}, "unknown family 'nope'"),
                                 ("tube", {"r": 1.0}, "reads no 'r'"),
                                 ("k_star", {"k": 3}, "needs m")]:
        with pytest.raises(ValueError, match=needle):
            sweep_family(name, **params)


def test_rich_points_refuses_an_unknown_family():
    # it raised UnboundLocalError: no generator ran, so no lines were set
    with pytest.raises(BadInput, match="unknown family 'nope'"):
        rich_points([2.0 ** -4], [1], [2], "nope")


@pytest.mark.parametrize("make", [
    lambda: gen_tube_example(2.0 ** -7),
    lambda: gen_rectangle_example(2.0 ** -5, 0.5, 0.25),
    lambda: gen_kstar(4, 3, 2.0 ** -8),
    lambda: gen_random(200, 150, 2.0 ** -6, seed=55),
])
def test_every_generator_output_is_separated(make):
    P, L = make()
    assert validate_separation(P).ok
    assert validate_separation(L).ok
