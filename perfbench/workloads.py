"""Seeded task lists of the geomlab benchmark, and the reference each task's
output is checked against.

A task is one call chain that gives one experiment row: generate a family
and count it, or voxelize a shape and compute its ratios.  `build` turns a
workload name and seed into the fixed task list of one pass; the library
sees only the parameters generated here.  Importing this module imports
geomlab (and with it numpy and scipy); that import plus `build` is the
set-up a user pays on every CLI run, and is what `setup_s` measures.

Every task returns `(instance, result)`.  The benchmark fingerprints
`result` right after the task (`Task.digest`), keeps the first pass's
`instance`, and after all passes compares each fingerprint with
`Task.reference(instance)`:

* incidence tasks are recounted with the brute-force engine `count_naive`
  (count, richness and, where asked for, the pair list);
* generator outputs that do not depend on the seed, and all measure and
  Sobolev values, are compared with fingerprints recorded by `record.py`
  in `digests.json`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy  # noqa: F401  -- part of the measured set-up, as for the CLI

import geomlab  # noqa: F401
from geomlab import acceptance as A
from geomlab import generators as G
from geomlab import heisenberg as H
from geomlab import incidence as I
from geomlab import measure as M
from geomlab import planar as PL
from geomlab import sobolev as S
from geomlab.rng import Stream, substream_seed

DIGESTS = Path(__file__).with_name("digests.json")

WHY = {
    "planar-large": "a few large count-only incidence instances, so the "
                    "incidence kernel, rank_keys and the dense cell table "
                    "dominate wall time and memory",
    "planar-many": "over 100 small instances counted with pair lists, so "
                   "per-call set-up, pair emission and the greedy star loop "
                   "dominate",
    "heisenberg-measure": "default configs of reduce-pipeline, lw-sweep, "
                          "isoperimetric and sobolev-check, so project_voxels "
                          "and the Sobolev fields dominate",
}

# Sizes per workload.  "full" is what the benchmark measures; "tiny" only
# keeps the self-test fast and exercises the same call chains.
SIZES = {
    "full": {
        "large_random": (20000, 8), "large_grid": 5, "large_rect": 7,
        "large_rich": (6, (2, 4, 8, 16)), "large_sparse": (2000, 11),
        "many_random": 84, "many_tubes": range(6, 13),
        "many_rects": (4, 5, 6), "many_greedy": (4, 5, 6, 7),
        "many_kstars": ((8, 4), (8, 16), (9, 4), (9, 16), (10, 4), (10, 16)),
        "reduce": (4, 5, 6, 7), "lw": (1.0 / 48, 1.0 / 64),
        "iso": (400, 100, 1.0 / 24), "sobolev": 1.0 / 64,
    },
    "tiny": {
        "large_random": (2000, 6), "large_grid": 3, "large_rect": 5,
        "large_rich": (4, (2, 4)), "large_sparse": (200, 8),
        "many_random": 14, "many_tubes": range(6, 9),
        "many_rects": (4,), "many_greedy": (4,), "many_kstars": ((8, 4),),
        "reduce": (4, 5), "lw": (1.0 / 16,),
        "iso": (40, 10, 1.0 / 16), "sobolev": 1.0 / 16,
    },
}

_MASK64 = (1 << 64) - 1


@dataclass
class Task:
    name: str
    run: Callable[[dict], Tuple[Any, Any]]  # timed; gets the pass context
    digest: Callable[[Any, Any], str]       # fingerprint of (instance, result)
    reference: Callable[[Any], str]         # expected fingerprint
    # what record.py stores for this task, for outputs that the seed does
    # not change; None when the reference is computed from the instance
    record: Optional[Callable[[Any, Any], str]] = None


def fingerprint(*parts) -> str:
    """Exact fingerprint of arrays, floats (bit patterns) and small values."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, float):
            h.update(float.hex(p).encode())
        elif isinstance(p, (list, tuple)):
            h.update(fingerprint(*p).encode())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:24]


# reference fingerprints written by record.py (absent only while it runs)
RECORDED = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# ---------------------------------------------------------------------------
# Incidence tasks

@dataclass
class Incidence:
    P: PL.PointSet
    L: PL.LineFamily
    s: PL.Scale
    with_pairs: bool


def _report_fp(rep) -> str:
    pairs = (None if rep.pairs is None
             else np.asarray(rep.pairs, dtype=np.int64).reshape(-1, 2))
    return fingerprint(rep.count, rep.richness.astype(np.int64), pairs)


def _instance_fp(inst: Incidence) -> str:
    return fingerprint(inst.P.coords, inst.L.params)


def count_task(name: str, make: Callable[[], Tuple[PL.PointSet, PL.LineFamily]],
               s: PL.Scale, with_pairs: bool, pinned: bool) -> Task:
    """Generate a family and count it.  `pinned` families do not depend on
    the seed, so their generator output is also checked against digests."""

    def run(ctx):
        P, L = make()
        inst = Incidence(P, L, s, with_pairs)
        return inst, I.count_incidences(P, L, s, with_pairs=with_pairs)

    def digest(inst, rep):
        return fingerprint(_instance_fp(inst), _report_fp(rep))

    def reference(inst):
        gen = RECORDED[name] if pinned else _instance_fp(inst)
        naive = I.count_naive(inst.P, inst.L, inst.s, with_pairs=with_pairs)
        return fingerprint(gen, _report_fp(naive))

    return Task(name, run, digest, reference,
                (lambda inst, rep: _instance_fp(inst)) if pinned else None)


@dataclass
class RichScan:
    L: PL.LineFamily
    s: PL.Scale
    coords: np.ndarray
    used_multiplier: float


def rich_scan_task(dexp: int, ks: Sequence[int]) -> Task:
    """grid_richness on the rectangle family, then k_rich_points per k."""
    delta = 2.0 ** -dexp
    s = PL.Scale(delta)
    name = f"rich-scan d=2^-{dexp}"

    def run(ctx):
        _, L = G.gen_rectangle_example(delta, 1.0, math.sqrt(delta))
        fld = I.grid_richness(L, s)
        pts = [I.k_rich_points(L, k, s, field=fld).points.coords for k in ks]
        return (RichScan(L, s, fld.coords, fld.used_multiplier),
                (fld.richness, pts))

    def digest(inst, res):
        richness, pts = res
        return fingerprint(fingerprint(inst.L.params), inst.coords,
                           richness.astype(np.int64), pts)

    def reference(inst):
        bumped = PL.Scale(delta, s.epsilon, inst.used_multiplier)
        rich = I.count_naive(PL.PointSet(inst.coords, delta), inst.L,
                             bumped).richness
        fld = I.RichnessField(inst.coords, rich, inst.used_multiplier)
        pts = [I.k_rich_points(inst.L, k, s, field=fld).points.coords
               for k in ks]
        return fingerprint(RECORDED[name], inst.coords,
                           rich.astype(np.int64), pts)

    return Task(name, run, digest, reference,
                lambda inst, res: fingerprint(inst.L.params))


def greedy_star_task(eexp: int) -> Task:
    """The star-bound row: greedy concurrent family plus max_concurrency."""
    eps = 2.0 ** -eexp
    s = PL.Scale(eps / 4.0, eps)
    name = f"greedy-star eps=2^-{eexp}"
    origin = PL.Point2(0.0, 0.0)

    def run(ctx):
        fam = G.gen_greedy_concurrent(eps, eps / 4.0)
        return fam, I.max_concurrency(fam, origin, s)

    def digest(fam, mc):
        return fingerprint(fingerprint(fam.params), mc)

    def reference(fam):
        pt = PL.PointSet(np.zeros((1, 2)), s.delta)
        return fingerprint(RECORDED[name], I.count_naive(pt, fam, s).count)

    return Task(name, run, digest, reference,
                lambda fam, mc: fingerprint(fam.params))


def _seeded_random(n: int, m: int, dexp: int, gen_seed: int,
                   with_pairs: bool) -> Task:
    delta = 2.0 ** -dexp
    return count_task(f"random {n}x{m} d=2^-{dexp}",
                      lambda: G.gen_random(n, m, delta, gen_seed),
                      PL.Scale(delta), with_pairs, pinned=False)


def planar_large(seed: int, z: dict) -> List[Task]:
    n, dexp = z["large_random"]
    gd = 2.0 ** -z["large_grid"]
    rd = 2.0 ** -z["large_rect"]
    sn, sdexp = z["large_sparse"]

    def grid_x_grid():
        P = G.gen_grid_packing(gd)
        return P, PL.LineFamily(P.coords, gd)

    rich_dexp, ks = z["large_rich"]
    return [
        _seeded_random(n, n, dexp, substream_seed(seed, 1), False),
        count_task(f"grid-x-grid d=2^-{z['large_grid']}", grid_x_grid,
                   PL.Scale(gd), False, pinned=True),
        count_task(f"rectangle d=2^-{z['large_rect']}",
                   lambda: G.gen_rectangle_example(rd, 1.0, math.sqrt(rd)),
                   PL.Scale(rd), False, pinned=True),
        rich_scan_task(rich_dexp, ks),
        _seeded_random(sn, sn, sdexp, substream_seed(seed, 2), False),
    ]


def planar_many(seed: int, z: dict) -> List[List[Task]]:
    randoms = []
    # criterion-1 recipe: delta cycles through 2^-4 .. 2^-10 and sizes up
    # to min(500, 0.8 * cells) come from its fixed size stream; the workload
    # seed places the points and lines.  Seeded sizes would move the median
    # task between runs more than any change worth measuring.
    for i in range(z["many_random"]):
        dexp = 4 + i % 7
        cap = min(500, int(0.8 * int(2.0 ** dexp) ** 2))
        u = Stream(substream_seed(20240601, i)).uniform(2)
        n, m = 1 + int(u[0] * cap), 1 + int(u[1] * cap)
        randoms.append(_seeded_random(n, m, dexp,
                                      substream_seed(seed, 2000 + i), True))
    tubes = [count_task(f"tube d=2^-{dexp}",
                        lambda d=2.0 ** -dexp: G.gen_tube_example(d),
                        PL.Scale(2.0 ** -dexp), True, pinned=True)
             for dexp in z["many_tubes"]]
    rects = [count_task(f"rectangle-pairs d=2^-{dexp}",
                        lambda d=2.0 ** -dexp:
                        G.gen_rectangle_example(d, 1.0, math.sqrt(d)),
                        PL.Scale(2.0 ** -dexp), True, pinned=True)
             for dexp in z["many_rects"]]
    stars = [greedy_star_task(e) for e in z["many_greedy"]]
    kstars = [count_task(f"kstar k={k} d=2^-{dexp}",
                         lambda d=2.0 ** -dexp, k=k: G.gen_kstar(k, 2, d),
                         PL.Scale(2.0 ** -dexp), True, pinned=True)
              for dexp, k in z["many_kstars"]]
    return [randoms, tubes, rects, stars, kstars]


# ---------------------------------------------------------------------------
# Measure and Sobolev tasks: outputs are compared with recorded fingerprints

def recorded_task(name: str, run: Callable[[dict], tuple]) -> Task:
    def digest(inst, values):
        return fingerprint(*values)

    return Task(name, lambda ctx: (None, run(ctx)), digest,
                lambda inst: RECORDED[name], digest)


def reduce_task(dexp: int) -> Task:
    delta = 2.0 ** -dexp
    box = M.Box((0, 0, 0), (0.25, 0.25, 0.0625))

    def run(ctx):
        K = M.voxelize(box, h=delta / 4.0)
        P_x = A._maximal_plane_packing(M.project_voxels(K, "x"), delta,
                                       H.Plane.W_X)
        P_y = A._maximal_plane_packing(M.project_voxels(K, "y"), delta,
                                       H.Plane.W_Y)
        red = H.reduce_to_incidences(P_x, P_y, PL.Scale(delta))
        rep = I.count_incidences(red.points, red.lines, red.scale)
        vol = K.volume()
        return (len(P_x), len(P_y), rep.count, vol,
                delta ** 3 * rep.count / vol)

    return recorded_task(f"reduce-pipeline d=2^-{dexp}", run)


def lw_task(shape_name: str, h: float) -> Task:
    def run(ctx):
        K = M.voxelize(M.shape_zoo(0.5)[shape_name], h)
        return (K.volume(), M.project_voxels(K, "x").area(),
                M.project_voxels(K, "y").area(), M.lw_ratio(K))

    return recorded_task(f"lw-sweep {shape_name} h={h!r}", run)


def iso_pool(size: int) -> List[List[M.Box]]:
    """Seeded box unions, drawn as the isoperimetric experiment draws them
    at its default seed; the first 100 are that experiment's unions."""
    stream = Stream(substream_seed(12345, 12))
    pool = []
    for _ in range(size):
        nbox = 1 + int(stream.uniform(1, 0, 1)[0] * 4)
        pool.append([M.Box(stream.uniform(3, -0.3, 0.3),
                           stream.uniform(3, 0.1, 0.35)) for _ in range(nbox)])
    return pool


def iso_pick(pool: List[List[M.Box]], n: int, seed: int) -> List[int]:
    """One union from each of n groups of unions of similar total box
    volume, so that every seed measures the same spread of sizes."""
    vol = [sum(float(np.prod(2.0 * b.half)) for b in boxes) for boxes in pool]
    order = sorted(range(len(pool)), key=vol.__getitem__)
    per = len(pool) // n
    rng = random.Random(seed)
    return sorted(order[g * per + rng.randrange(per)] for g in range(n))


def iso_task(index: int, boxes: List[M.Box], h: float) -> Task:
    def run(ctx):
        E = M.voxelize(M.UnionShape(*boxes), h)
        return (len(boxes), E.volume(), M.boundary_projection_inclusion(E),
                M.weak_isoperimetric_ratio(E))

    return recorded_task(f"isoperimetric union {index} h={h!r}", run)


def populated_levels(f: S.GridFunction) -> List[int]:
    """Levels k whose band and predecessor band are both populated, as the
    sobolev-check experiment selects them."""
    a = np.abs(f.values)
    populated = {k: bool(((a >= 2.0 ** (k - 1)) & (a <= 2.0 ** k)).any())
                 for k in S.level_range(f)}
    return [k for k, has in populated.items()
            if has and populated.get(k - 1, False)]


def sobolev_tasks(h: float, levels: Sequence[int]) -> List[Task]:
    w = 0.75

    def gns(ctx):
        f = S.sample_to_grid(S.bump((w, w, 2 * w / 3)), h,
                             (w + 0.05, w + 0.05, 2 * w / 3 + 0.05))
        ctx["sobolev_f"] = f
        g = S.gns_check(f)
        return g.lhs, g.rhs, g.ratio, populated_levels(f)

    tasks = [recorded_task(f"sobolev-check gns h={h!r}", gns)]
    for k in levels:
        for which in ("x", "y"):
            def level(ctx, k=k, which=which):
                chk = S.levelset_lemma_check(ctx["sobolev_f"], k, which)
                return chk.lhs, chk.rhs, chk.holds
            tasks.append(recorded_task(
                f"sobolev-check level {k} {which} h={h!r}", level))
    return tasks


def sobolev_levels_key(h: float) -> str:
    return f"sobolev-check levels h={h!r}"


def heisenberg_measure(z: dict, seed: Optional[int],
                       levels: Sequence[int]) -> List[List[Task]]:
    """The four experiments' rows; with seed None, every union of the pool
    (for record.py)."""
    pool_size, n_iso, iso_h = z["iso"]
    pool = iso_pool(pool_size)
    picked = (range(pool_size) if seed is None
              else iso_pick(pool, n_iso, seed))
    return [[reduce_task(d) for d in z["reduce"]],
            [lw_task(name, h) for h in z["lw"] for name in M.shape_zoo(0.5)],
            [iso_task(i, pool[i], iso_h) for i in picked],
            sobolev_tasks(z["sobolev"], levels)]


def interleave(groups: List[List[Task]]) -> List[Task]:
    """Spread each group's tasks evenly over the pass, keeping their order,
    so that short tasks are timed all through a pass, not in one stretch
    of it."""
    keyed = [((j + 0.5) / len(g), gi, j, t)
             for gi, g in enumerate(groups) for j, t in enumerate(g)]
    return [t for *_, t in sorted(keyed, key=lambda row: row[:3])]


def build(workload: str, seed: int, tiny: bool = False) -> List[Task]:
    """The fixed task list of one pass of `workload` at `seed`."""
    z = SIZES["tiny" if tiny else "full"]
    seed &= _MASK64
    if workload == "planar-large":
        return planar_large(seed, z)
    if workload == "planar-many":
        return interleave(planar_many(seed, z))
    if workload == "heisenberg-measure":
        return interleave(heisenberg_measure(
            z, seed, RECORDED[sobolev_levels_key(z["sobolev"])]))
    raise ValueError(f"unknown workload {workload!r}")
