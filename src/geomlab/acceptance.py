"""The experiments and the acceptance criteria built on them.

An experiment is a function of plain parameters returning a RunResult; the
CLI runs it at a config's options, a criterion at pinned inputs plus a
gate.  ALL_CRITERIA is asserted by tests/test_acceptance.py and printed by
the CLI's verify-all experiment.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import heisenberg as hg
from .generators import (gen_greedy_concurrent, gen_kstar, gen_random,
                         gen_rectangle_example, gen_tube_example)
from .incidence import (count_bucketed, count_incidences, grid_richness,
                        k_rich_points, max_concurrency)
from .measure import (Box, DilatedShape, UnionShape,
                      boundary_projection_inclusion, lw_ratio, project_voxels,
                      shape_zoo, tube_intersection_volume, voxelize,
                      weak_isoperimetric_ratio)
from .planar import (BadInput, GridTooLarge, LineFamily, Point2, PointSet,
                     Scale, dual_lines, dual_points, incident, threshold,
                     validate_separation)
from .rng import Stream, substream_seed
from .sobolev import (FUNCTION_ZOO, GridFunction, bump, dilated_fn, field_X,
                      gns_check, levelset_lemma_check, sample_to_grid,
                      sized_bump, zoo_function)

LW_BOX_CONSTANT = 8.0 * 5.0 ** (-4.0 / 3.0)

# Measured ceilings, recorded here after sweeps; the criteria assert
# boundedness against these values, not any paper constant.
RICH_CONSTANT_CEILING = 40.0
GNS_RATIO_CEILING = 0.75


@dataclass
class RunResult:
    ok: bool
    rows: List[dict]
    summary: dict
    report_lines: List[str]


# ---------------------------------------------------------------------------
# Experiments

# The families of incidence_sweep and the optional keys each one reads
SWEEP_FAMILIES = {"tube": (), "rectangle": ("r", "s", "epsilon"),
                  "k_star": ("k", "m", "epsilon"),
                  "random": ("n_points", "n_lines")}


def sweep_family(name: str, seed: int = 0, **params
                 ) -> Callable[[int, float], Tuple[PointSet, LineFamily]]:
    """Row i at delta of a family of SWEEP_FAMILIES at its keys params; when
    absent r = 1, s = sqrt(delta), epsilon = delta, and n_points and n_lines
    are up to 500, drawn from a stream per row.  A row its generator
    refuses raises BadInput naming the delta."""
    if name not in SWEEP_FAMILIES:
        raise BadInput(f"unknown family {name!r}")
    stray = [repr(key) for key in params if key not in SWEEP_FAMILIES[name]]
    missing = [key for key in ("k", "m") if key not in params]
    if stray:
        raise BadInput(f"family {name!r} reads no {', '.join(stray)}")
    if name == "k_star" and missing:
        raise BadInput(f"family 'k_star' needs {', '.join(missing)}")
    get = params.get

    def generate(i, delta):
        if name == "tube":
            return gen_tube_example(delta)
        if name == "rectangle":
            return gen_rectangle_example(delta, get("r", 1.0),
                                         get("s", math.sqrt(delta)),
                                         epsilon=get("epsilon"))
        if name == "k_star":
            return gen_kstar(get("k"), get("m"), delta, epsilon=get("epsilon"))
        # above 1024 cells a side n is 500; 1 / delta may be inf
        n = min(500, max(1, int(0.8 * int(min(1.0 / delta, 1024.0)) ** 2)))
        return gen_random(get("n_points", n), get("n_lines", n), delta,
                          substream_seed(seed, i))

    def family(i, delta):
        try:
            return generate(i, delta)
        except ValueError as exc:
            raise BadInput(f"at delta={delta:g}: {exc}") from None
    return family


def incidence_sweep(deltas: Sequence[float],
                    family: Callable[[int, float], tuple],
                    verify: bool = False) -> RunResult:
    """Incidences of family(i, delta) at the i-th delta, asserted equal to
    the oracle's when verify; ratio band <= 100 over the rows that count
    incidences; BadInput when none does."""
    rows = []
    for i, delta in enumerate(deltas):
        P, L = family(i, delta)
        rep = count_incidences(P, L, Scale(delta), verify=verify)
        rows.append({"delta": delta, "n_points": len(P), "n_lines": len(L),
                     "count": rep.count, "ratio": rep.normalized_ratio})
    ratios = [r["ratio"] for r in rows if r["ratio"] > 0]
    if not ratios:
        raise BadInput("option 'deltas': no row counts an incidence")
    band = max(ratios) / min(ratios)
    return RunResult(band <= 100.0, rows,
                     {"ratio_band": band, "engine": "bucketed",
                      "verified_against_naive": verify},
                     [f"normalized ratio band {band:.3f} (invariant: <= 100)"])


def rich_points(deltas: Sequence[float], epsilon_ratios: Sequence[float],
                ks: Sequence[int], family: str = "rectangle", r: float = 1.0,
                s: Optional[float] = None) -> RunResult:
    """k-rich points of the r x s rectangle family (s = sqrt(delta) when
    None) or of k-stars at epsilon = ratio * delta <= 1.  Raises BadInput
    for another family, when no (delta, ratio) pair has epsilon <= 1 or
    when every k-star row is infeasible."""
    if family not in ("rectangle", "k_star"):
        raise BadInput(f"unknown family {family!r}; "
                       f"choose rectangle or k_star")
    rows = []
    for delta in deltas:
        for ratio in epsilon_ratios:
            eps = ratio * delta
            if eps > 1.0:
                continue
            fld = None
            if family == "rectangle":
                P, L = gen_rectangle_example(
                    delta, r, math.sqrt(delta) if s is None else s,
                    epsilon=eps)
                fld = grid_richness(L, Scale(delta, eps))
            for k in ks:
                if family == "k_star":
                    try:
                        P, L = gen_kstar(k, 2, delta, epsilon=eps)
                    except ValueError:
                        rows.append({"delta": delta, "epsilon": eps, "k": k,
                                     "n_rich": "infeasible",
                                     "bound_constant": "", "multiplier": ""})
                        continue
                res = k_rich_points(L, k, Scale(delta, eps), field=fld)
                rows.append({"delta": delta, "epsilon": eps, "k": k,
                             "n_rich": len(res.points),
                             "bound_constant": res.bound_constant,
                             "multiplier": res.used_multiplier})
    if not rows:
        raise BadInput("epsilon = ratio * delta exceeds 1 for every "
                       "(delta, ratio) pair")
    if all(r["n_rich"] == "infeasible" for r in rows):
        raise BadInput(f"family {family} is infeasible at every "
                       f"(delta, epsilon, k)")
    consts = [r["bound_constant"] for r in rows
              if isinstance(r["bound_constant"], float)]
    ceiling = max(consts) if consts else 0.0
    return RunResult(bool(consts), rows,
                     {"measured_ceiling": ceiling, "family": family},
                     [f"measured bound-constant ceiling {ceiling:.4f}"])


# Largest number of pairs a duality-check batch may draw, checked before
# any work: the batch's four uniform draws then take 32 MB.
DUALITY_PAIRS_MAX = 1 << 20


def duality_check(delta: float, pairs: int, stream: Stream,
                  target: Optional[int] = None) -> RunResult:
    """Each delta-incident random pair must dualize to a 2 delta-incident
    one; with a target, draw batches until `target` pairs are checked.
    A batch draws `pairs` points (x, y) and lines (a, y - a x + off), off
    uniform in [-delta, delta), keeps the lines of the parameter square and
    tests the pairs, then their duals, with planar.incident."""
    r1, r2 = Scale(delta).radius, Scale(delta, multiplier=2.0).radius
    checked = failures = 0
    while True:
        xs = stream.uniform(pairs, -1.0, 1.0)
        ys = stream.uniform(pairs, -1.0, 1.0)
        aa = stream.uniform(pairs, -1.0, 1.0)
        off = stream.uniform(pairs, -delta, delta)
        bb = ys - aa * xs + off
        keep = np.abs(bb) <= 1.0
        xs, ys, aa, bb = xs[keep], ys[keep], aa[keep], bb[keep]
        hit = np.flatnonzero(incident(xs, ys, aa, bb, threshold(aa, r1)))
        if target is not None and checked < target:
            hit = hit[:target - checked]
        P = PointSet(np.column_stack([xs[hit], ys[hit]]), delta)
        L = LineFamily(np.column_stack([aa[hit], bb[hit]]), delta)
        dual_P, dual_L = dual_points(L).coords, dual_lines(P).params
        ok = incident(dual_P[:, 0], dual_P[:, 1], dual_L[:, 0], dual_L[:, 1],
                      threshold(dual_L[:, 0], r2))
        checked += hit.size
        failures += hit.size - int(np.count_nonzero(ok))
        if target is None or checked >= target:
            break
    rows = [{"delta": delta, "pairs_checked": checked, "failures": failures}]
    return RunResult(failures == 0, rows,
                     {"checked": checked, "failures": failures},
                     [f"{checked} incident pairs, {failures} dual failures"])


# Smallest epsilon of star_bound: gen_greedy_concurrent scans about
# 16 / epsilon candidate columns of about 5 lines each, so at 2^-12 a row
# takes about 1 s and 50 MB (2^-14: 4 s and 190 MB; far smaller epsilons
# overflow its lattice)
STAR_EPSILON_MIN = 2.0 ** -12


def star_bound(epsilons: Sequence[float],
               probes: Sequence[Point2] = ()) -> RunResult:
    """Greedy concurrent families at delta = eps/4: 0.5/eps to 4/eps lines,
    all through the origin, at most 4/eps through any probe."""
    rows = []
    for eps in epsilons:
        delta = eps / 4.0
        fam = gen_greedy_concurrent(eps, delta)
        n = len(fam)
        sc = Scale(delta, eps)
        mc = max_concurrency(fam, Point2(0.0, 0.0), sc)
        lo, hi = 0.5 / eps, 4.0 / eps
        row_ok = (lo <= n <= hi and mc == n
                  and all(max_concurrency(fam, p, sc) <= hi for p in probes))
        rows.append({"epsilon": eps, "delta": delta, "n_lines": n,
                     "concurrency": mc, "lower": lo, "upper": hi,
                     "ok": row_ok})
    ok = all(r["ok"] for r in rows)
    return RunResult(ok, rows, {"all_in_band": ok},
                     ["greedy concurrent families within [0.5/eps, 4/eps]"
                      if ok else "band violated"])


# Smallest scale of lw_sweep.  Below about 1.5e-162 the zoo's t half widths
# r^2 / 2 underflow to 0, which Box refuses (a ValueError, exit 1).  Already
# at 2^-20 every shape lies within |t| <= 1.5 r^2 = 1.5 2^-40, which holds
# no cell center (k + 1/2) h of a grid within voxelize's column cap
# (h > 2^-32), so every shape is empty.
LW_SCALE_MIN = 2.0 ** -20


def lw_sweep(hs: Sequence[float], scale: float) -> RunResult:
    """Loomis-Whitney ratio of the shape zoo; ceiling <= 2."""
    rows = []
    for h in hs:
        for name, sh in shape_zoo(scale).items():
            K = voxelize(sh, h)
            if len(K) == 0:
                continue
            # lw_ratio projects K once; the areas are read from K's memo
            ratio = lw_ratio(K)
            rows.append({"shape": name, "h": h, "volume": K.volume(),
                         "area_x": project_voxels(K, "x").area(),
                         "area_y": project_voxels(K, "y").area(),
                         "lw_ratio": ratio})
    if not rows:
        raise BadInput("option 'hs': too coarse: every shape voxelizes to "
                       "an empty set")
    ceiling = max(r["lw_ratio"] for r in rows)
    return RunResult(ceiling <= 2.0, rows, {"measured_ceiling": ceiling},
                     [f"Loomis-Whitney ratio ceiling {ceiling:.4f} (<= 2)"])


# Smallest delta of tube_volume: voxels h = delta / 4 wide index the cube
# [-1 - h, 1 + h] within measure's [-2^20, 2^20)
TUBE_DELTA_MIN = 2.0 ** -17
# Largest: in [TUBE_DELTA_MIN, 3/8] volume / delta^3 is 42-43, so no delta
# in range measures nothing; above, the cube clips the tubes of radius
# 2 delta, and it falls (35.4 at 1/2, 8 at 1, 1 at 2)
TUBE_DELTA_MAX = 2.0 ** -2


def tube_volume(deltas: Sequence[float]) -> RunResult:
    """Two fixed tubes' intersection volume / delta^3; spread <= 4."""
    a, b, c = 0.2, -0.1, -0.3
    wx = hg.VerticalPlanePoint(hg.Plane.W_X, a, b)
    wy = hg.VerticalPlanePoint(hg.Plane.W_Y, c, b + a * c)
    rows = []
    for delta in deltas:
        v = tube_intersection_volume(wx, wy, delta)
        rows.append({"delta": delta, "volume": v, "normalized": v / delta ** 3})
    vals = [r["normalized"] for r in rows]
    spread = max(vals) / min(vals)
    ok = spread <= 4.0 and max(vals) <= 1000.0
    return RunResult(ok, rows, {"normalized_spread": spread,
                                "max_normalized": max(vals)},
                     [f"volume/delta^3 spread {spread:.2f} (<= 4)"])


# Fewest samples per smallest half-width of the support (that half-width
# over the grid step h) at which sobolev_function samples.  Coarser grids
# fail the level-set lemma's slack 1.25 at shallow levels: the bump at
# h = 1/5 at level -2, at 1/8.75 at level -5.  Scanning q = half-width / h
# at steps of 1/8 over [2, 16], 1/32 over [10, 20], 1/64 over [14, 24] and
# 1/4 over [16, 40] (1/32 over [17.5, 40] for aniso_bump), the bump at
# widths 1/3 to 2 last failed at q = 4.4, the bump of width 1/4 at 12.0,
# sheared_bump at 11.6, narrow_bump at 13.1 and smoothed_box at 14.6.
# aniso_bump still fails now and then above 16 (at q = 17.3, 17.5 and
# 26.1), each time at its deepest checked level (k = -19 to -25), whose
# shell is far thinner than h.  The GNS ratio never failed.
SOBOLEV_SAMPLES_MIN = 16
# The smallest half-width of the support of each zoo function but the bump,
# whose width sobolev_function takes (its smallest is 2 width / 3)
_HALF_WIDTHS = {"narrow_bump": 0.3, "aniso_bump": 0.35, "sheared_bump": 0.35,
                "smoothed_box": 0.3125}


def sobolev_function(name: str, h: float, width: float) -> GridFunction:
    """The bump of half widths (width, width, 2 width/3) or a zoo function,
    sampled at step h.  Raises BadInput for an unknown name and for a grid
    of fewer than SOBOLEV_SAMPLES_MIN samples per smallest half-width."""
    if name not in FUNCTION_ZOO:
        raise BadInput(f"unknown function {name!r}; "
                       f"choose bump or one of {sorted(FUNCTION_ZOO)}")
    half = 2 * width / 3 if name == "bump" else _HALF_WIDTHS[name]
    if not h <= half / SOBOLEV_SAMPLES_MIN:
        raise BadInput(f"too coarse at h={h:g}: {name} needs h <= "
                       f"{half / SOBOLEV_SAMPLES_MIN:g}, "
                       f"{SOBOLEV_SAMPLES_MIN} samples per half-width "
                       f"{half:g} of its support")
    if name == "bump":
        fn, extents = sized_bump(width)
        return sample_to_grid(fn, h, extents)
    return zoo_function(name, h)


def _level_rows(name: str, f: GridFunction) -> Tuple[List[dict], int]:
    """Level-set lemma rows of the populated levels whose predecessor is
    populated, and the number of populated levels skipped."""
    populated = f.decomposition.levels
    checked = [k for k in populated if k - 1 in populated]
    rows = []
    for k in checked:
        for which in ("x", "y"):
            chk = levelset_lemma_check(f, k, which)
            rows.append({"function": name, "h": f.h,
                         "record": f"level_{k}_{which}",
                         "lhs": chk.lhs, "rhs": chk.rhs, "holds": chk.holds})
    return rows, len(populated) - len(checked)


def sobolev_check(name: str, f: GridFunction) -> RunResult:
    """GNS ratio of f (<= 2) and the level-set lemma rows of f; BadInput
    when every sample of f is zero."""
    g = gns_check(f)
    if g.lhs == 0.0:
        raise BadInput(f"option 'h': too coarse at h={f.h:g}: every sample "
                       f"of {name} is zero")
    levels, _ = _level_rows(name, f)
    rows = [{"function": name, "h": f.h, "record": "gns",
             "lhs": g.lhs, "rhs": g.rhs, "holds": g.ratio <= 2.0}] + levels
    lemma_ok = all(r["holds"] for r in levels)
    return RunResult(lemma_ok and g.ratio <= 2.0, rows,
                     {"gns_ratio": g.ratio, "lemma_ok": lemma_ok},
                     [f"gns ratio {g.ratio:.4f}; level checks "
                      f"{'pass' if lemma_ok else 'FAIL'}"])


# Most unions isoperimetric may draw, checked before any work: a hundred
# times the default; at the default h = 1/24 a union takes about 4 ms.
ISOPERIMETRIC_TRIALS_MAX = 10_000


def isoperimetric(trials: int, h: float, stream: Stream) -> RunResult:
    """Boundary projections must cover the projections of random unions
    of one to four boxes."""
    rows = []
    for trial in range(trials):
        nbox = 1 + int(stream.uniform(1, 0, 1)[0] * 4)
        boxes = []
        for _ in range(nbox):
            c = stream.uniform(3, -0.3, 0.3)
            w = stream.uniform(3, 0.1, 0.35)
            boxes.append(Box(c, w))
        E = voxelize(UnionShape(*boxes), h)
        if len(E) == 0:
            continue
        rows.append({"trial": trial, "n_boxes": nbox, "volume": E.volume(),
                     "inclusion": boundary_projection_inclusion(E),
                     "iso_ratio": weak_isoperimetric_ratio(E)})
    if not rows:
        raise BadInput("option 'h': too coarse: every box union voxelizes "
                       "to an empty set")
    fails = sum(not r["inclusion"] for r in rows)
    ratios = [r["iso_ratio"] for r in rows]
    return RunResult(fails == 0, rows,
                     {"inclusion_failures": fails,
                      "iso_ratio_max": max(ratios), "iso_ratio_min": min(ratios)},
                     [f"{fails} inclusion failures over {len(rows)} unions"])


def _maximal_plane_packing(region, delta: float, plane) -> list:
    # imported here so perfbench's wrap of incidence._greedy_separated sees it
    from .incidence import _greedy_separated
    pts = region.centers()  # sorted by (u, t)
    kept = _greedy_separated(pts, delta)
    return [hg.VerticalPlanePoint(plane, float(u), float(t))
            for u, t in pts[kept]]


def reduce_pipeline(deltas: Sequence[float]) -> RunResult:
    """delta^3 times the reduced incidence count of the model box must
    dominate its volume, with spread <= 4 over delta."""
    box = Box((0, 0, 0), (0.25, 0.25, 0.0625))
    rows = []
    for delta in deltas:
        if delta / 4.0 == 0.0:  # a grid of side 0 would be unbounded
            raise GridTooLarge(f"at delta={delta:g} the voxel side delta/4 "
                               f"underflows to 0")
        K = voxelize(box, h=delta / 4.0)
        P_x = _maximal_plane_packing(project_voxels(K, "x"), delta, hg.Plane.W_X)
        P_y = _maximal_plane_packing(project_voxels(K, "y"), delta, hg.Plane.W_Y)
        red = hg.reduce_to_incidences(P_x, P_y, Scale(delta))
        rep = count_bucketed(red.points, red.lines, red.scale)
        rows.append({"delta": delta, "n_wx": len(P_x), "n_wy": len(P_y),
                     "count": rep.count, "volume": K.volume(),
                     "overshoot": delta ** 3 * rep.count / K.volume()})
    ov = [r["overshoot"] for r in rows]
    spread = max(ov) / min(ov)
    ok = min(ov) >= 1.0 and spread <= 4.0
    return RunResult(ok, rows, {"overshoot_min": min(ov),
                                "overshoot_max": max(ov), "spread": spread},
                     [f"overshoot in [{min(ov):.2f}, {max(ov):.2f}], "
                      f"spread {spread:.2f} (<= 4)"])


# ---------------------------------------------------------------------------
# Criteria

@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.cid:2d} ({self.name}): "
                f"{self.details} [{self.elapsed:.1f}s]")


ALL_CRITERIA: List[Tuple[int, str, Callable[[], CriterionResult]]] = []


def _criterion(cid: int, name: str):
    """Register a check returning (passed, details) as criterion cid."""
    def register(check: Callable[[], Tuple[bool, str]]):
        @functools.wraps(check)
        def run() -> CriterionResult:
            t0 = time.time()
            passed, details = check()
            return CriterionResult(cid, name, passed, details,
                                   time.time() - t0)
        ALL_CRITERIA.append((cid, name, run))
        return run
    return register


def _random_instance_params(i: int):
    dexp = 4 + (i % 7)               # delta in {2^-4 .. 2^-10}
    delta = 2.0 ** -dexp
    cells = int(1.0 / delta) ** 2
    cap = min(500, int(0.8 * cells))
    stream = Stream(substream_seed(20240601, i))
    n = 1 + int(stream.uniform(1, 0.0, 1.0)[0] * cap)
    m = 1 + int(stream.uniform(1, 0.0, 1.0)[0] * cap)
    return delta, n, m


@_criterion(1, "oracle equivalence")
def criterion_1():
    """count_incidences(verify=True), the column path asserted equal to
    count_naive at every size, holds on 100 seeded instances."""
    mismatches = 0
    for i in range(100):
        delta, n, m = _random_instance_params(i)
        P, L = gen_random(n, m, delta, seed=substream_seed(777, i))
        try:
            count_incidences(P, L, Scale(delta), verify=True)
        except AssertionError:
            mismatches += 1
    return (mismatches == 0,
            f"100 instances, {mismatches} mismatches "
            f"(exact count+richness+pairs)")


@_criterion(2, "tube sharpness scaling")
def criterion_2():
    """Tube family tracks the count ~ 1/delta scaling with a bounded ratio."""
    res = incidence_sweep([2.0 ** -dexp for dexp in range(6, 13)],
                          sweep_family("tube"))
    band = res.summary["ratio_band"]
    xs = np.array([-math.log2(r["delta"]) for r in res.rows])
    ys = np.array([math.log2(r["count"]) for r in res.rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return (res.ok and abs(slope - 1.0) <= 0.15,
            f"ratio band {band:.2f} (<=100), log-log slope {slope:.3f} "
            f"(1 +- 0.15)")


@_criterion(3, "rich-point bound")
def criterion_3():
    """Per-family measured ceiling of the rich-point bound constant stays
    under one recorded value and does not grow with 1/delta by more than a
    factor 2 across the sweep.  (Individual (k, epsilon) rows oscillate with
    lattice resonances; the recorded quantity is the ceiling per scale.)"""
    ratios, ks = (1, 4, 16), (2, 4, 8, 16)
    coarse = [2.0 ** -dexp for dexp in (4, 5, 6)]
    # k-star families need small delta so the slope budget fits
    fine = [2.0 ** -dexp for dexp in (8, 9, 10)]
    sweeps = {
        "rectangle": [rich_points(coarse, ratios, ks),
                      rich_points(coarse, ratios, ks, r=0.5, s=0.25)],
        "k-star": [rich_points(fine, ratios, ks, family="k_star")],
    }
    worst = 0.0
    growth_ok = True
    notes = []
    for label, results in sweeps.items():
        per: dict = {}  # delta -> max bound constant over (k, ratio, shape)
        for row in (row for res in results for row in res.rows):
            per[row["delta"]] = max(per.get(row["delta"], 0.0),
                                    row["bound_constant"])
        vals = [per[d] for d in sorted(per, reverse=True)]
        worst = max(worst, max(vals))
        base = vals[0]
        growth = max(vals) / base if base > 0 else math.inf
        growth_ok = growth_ok and growth <= 2.0
        notes.append(f"{label}: ceilings {[f'{v:.2f}' for v in vals]} "
                     f"growth {growth:.2f}")
    return (worst <= RICH_CONSTANT_CEILING and growth_ok,
            f"max constant {worst:.3f} (recorded ceiling "
            f"{RICH_CONSTANT_CEILING}); " + "; ".join(notes))


@_criterion(4, "star bound two-sided")
def criterion_4():
    """Concurrent families: greedy achieves >= 0.5/eps lines through a
    common delta-ball; no probe point ever sees more than 4/eps."""
    grid = np.linspace(-0.9, 0.9, 7)
    res = star_bound([2.0 ** -eexp for eexp in range(4, 9)],
                     probes=[Point2(px, py) for px in grid for py in grid])
    notes = [f"2^-{int(-math.log2(r['epsilon']))}:{r['n_lines']}in"
             f"[{int(r['lower'])},{int(r['upper'])}]" for r in res.rows]
    return res.ok, " ".join(notes)


@_criterion(5, "duality transfer")
def criterion_5():
    """Duality maps every delta-incidence to a 2 delta-incidence and
    preserves separation classes."""
    target = 10_000
    res = duality_check(2.0 ** -7, target, Stream(99), target=target)
    # separation transfer: a delta-separated point set dualizes to a
    # delta-separated line family (distances are equal by construction)
    P, L = gen_random(400, 400, 2.0 ** -6, seed=4242)
    sep_ok = (validate_separation(dual_lines(P)).ok
              and validate_separation(dual_points(L)).ok)
    return (res.ok and res.summary["checked"] >= target and sep_ok,
            f"{res.report_lines[0]}; "
            f"separation transfer {'ok' if sep_ok else 'BROKEN'}")


@_criterion(6, "group algebra")
def criterion_6():
    """Group axioms, unique decomposition, dilation-projection commutation,
    fiber-line agreement at relative tolerance 1e-12."""
    tol = 1e-12
    stream = Stream(123)
    n = 100_000
    P = stream.uniform(3 * n, -1.0, 1.0).reshape(3, n)
    Q = stream.uniform(3 * n, -1.0, 1.0).reshape(3, n)
    R = stream.uniform(3 * n, -1.0, 1.0).reshape(3, n)
    deviations = []

    def deviate(got, want):
        deviations.append(float(np.max(np.abs(np.subtract(got, want)))))

    deviate(hg.h_mul(hg.h_mul(P, Q), R), hg.h_mul(P, hg.h_mul(Q, R)))
    # inverse and identity
    deviate(hg.h_mul(P, hg.h_inv(P)), 0.0)
    # unique decomposition p = embed(proj_x p) * (0, y, 0)
    u, t = hg.proj_x(P)
    deviate(hg.h_mul((u, 0.0, t), (0.0, P[1], 0.0)), P)
    # dilation commutes with projections
    lam = 1.7
    lam_u, _, lam_t = hg.dilate(lam, (u, 0.0, t))
    deviate(hg.proj_x(hg.dilate(lam, P)), (lam_u, lam_t))
    # fiber of (a, 0, b) projects onto the line {(y, a y + b)}
    a, b, yv = P[0], P[2], Q[1]
    _, projy_t = hg.proj_y(hg.h_mul((a, 0.0, b), (0.0, yv, 0.0)))
    deviate(projy_t, a * yv + b)
    worst = max(deviations)
    return (worst <= tol,
            f"worst deviation {worst:.2e} over {n} samples (tol {tol:.0e})")


@_criterion(7, "Loomis-Whitney box constant")
def criterion_7():
    """lw_ratio of the model box equals 8 * 5^{-4/3} within 10%, confirmed
    under grid refinement."""
    ok = True
    notes = []
    for r in (0.25, 0.5):
        for div in (64, 128):
            K = voxelize(Box((0, 0, 0), (r, r, r * r)), h=r / div)
            ratio = lw_ratio(K)
            rel = abs(ratio - LW_BOX_CONSTANT) / LW_BOX_CONSTANT
            ok = ok and rel <= 0.10
            notes.append(f"r={r},h=r/{div}:{ratio:.4f}")
    return ok, f"target {LW_BOX_CONSTANT:.4f} +-10%; " + " ".join(notes)


@_criterion(8, "dilation scaling")
def criterion_8():
    """Volumes scale by lam^4 and projection areas by lam^3 within 5%.

    Matched anisotropic grids (h -> lam h, ht -> lam^2 ht) carry the law
    exactly; an independent resampled check at a fixed grid step is run
    wherever the rescaled shape stays at least four cells thick."""
    h = 1.0 / 48
    worst_v = worst_a = 0.0
    zoo = shape_zoo()
    for name, sh in zoo.items():
        K = voxelize(sh, h, h / 2.0)
        vol = K.volume()
        areas = {w: project_voxels(K, w).area() for w in ("x", "y")}
        for lam in (0.5, 2.0):
            KL = voxelize(DilatedShape(sh, lam), h * lam, (h / 2.0) * lam * lam)
            dv = abs(KL.volume() / (vol * lam ** 4) - 1.0)
            worst_v = max(worst_v, dv)
            for w in ("x", "y"):
                da = abs(project_voxels(KL, w).area() / (areas[w] * lam ** 3) - 1.0)
                worst_a = max(worst_a, da)
    # resampled cross-checks on well-resolved instances
    for name, lam in (("box", 0.5), ("box", 2.0), ("gauge_ball", 2.0),
                      ("two_boxes", 2.0)):
        sh = zoo[name]
        vol = voxelize(sh, h).volume()
        dv = abs(voxelize(DilatedShape(sh, lam), h).volume() / (vol * lam ** 4)
                 - 1.0)
        worst_v = max(worst_v, dv)
    return (worst_v <= 0.05 and worst_a <= 0.05,
            f"worst volume dev {worst_v:.4f}, worst area dev {worst_a:.4f} "
            f"(<=5%)")


@_criterion(9, "projection-to-incidence reduction")
def criterion_9():
    """delta^3 times the reduced incidence count dominates the volume, with
    the overshoot stable within a factor 4 across delta."""
    res = reduce_pipeline([2.0 ** -dexp for dexp in (4, 5, 6, 7)])
    overshoots = [r["overshoot"] for r in res.rows]
    return (res.ok,
            f"overshoot factors {[f'{o:.2f}' for o in overshoots]} "
            f"(>=1, spread {res.summary['spread']:.2f} <= 4)")


@_criterion(10, "level-set projection bound")
def criterion_10():
    """Levelwise projection bound with slack 1.25 at h in {1/64, 1/128},
    for every dyadic level whose predecessor band is populated (the bottom
    level of any sampled function has an empty predecessor by construction
    and a vacuous right-hand side)."""
    rows, skipped = [], 0
    for h in (1.0 / 64, 1.0 / 128):
        for name in FUNCTION_ZOO:
            # the grid is bound to no name here, so it goes as the call ends
            level_rows, level_skipped = _level_rows(name,
                                                    zoo_function(name, h))
            rows += level_rows
            skipped += level_skipped
    worst = max([r["lhs"] / r["rhs"] for r in rows if r["rhs"] > 0],
                default=0.0)
    return (all(r["holds"] for r in rows),
            f"{len(rows)} checks, worst lhs/rhs {worst:.3f} (<=1.25), "
            f"{skipped} bottom levels with empty predecessor skipped")


@_criterion(11, "horizontal Sobolev ratio")
def criterion_11():
    """GNS ratio bounded over the zoo, invariant under dilation within 10%,
    and stencils second-order on polynomial oracles."""
    h = 1.0 / 64
    worst_ratio = 0.0
    for name in FUNCTION_ZOO:
        worst_ratio = max(worst_ratio, gns_check(zoo_function(name, h)).ratio)
    # dilation invariance
    f0 = bump((0.5, 0.5, 0.35))
    base = gns_check(sample_to_grid(f0, h, (0.55, 0.55, 0.4))).ratio
    worst_dil = 0.0
    for lam in (0.5, 2.0):
        g = sample_to_grid(dilated_fn(f0, lam), h * lam,
                           (0.55 * lam, 0.55 * lam, 0.4 * lam * lam))
        worst_dil = max(worst_dil, abs(gns_check(g).ratio - base) / base)
    # stencil convergence on a cubic oracle, supported strictly inside
    def cubic(x, y, t):
        inside = (np.abs(x) <= 0.5) & (np.abs(y) <= 0.5) & (np.abs(t) <= 0.5)
        return np.where(inside, x ** 3 + y ** 3 + t ** 3, 0.0)

    def stencil_error(hh):
        f = sample_to_grid(cubic, hh, (0.52, 0.52, 0.52))
        Xf = field_X(f)
        xs = f.axis_centers(0)[:, None, None]
        ys = f.axis_centers(1)[None, :, None]
        ts = f.axis_centers(2)[None, None, :]
        exact = 3.0 * xs ** 2 - (ys / 2.0) * (3.0 * ts ** 2)
        err = np.abs(Xf.values - exact)
        # compare away from the support edge, where the cubic is smooth
        core = (np.abs(xs) < 0.3) & (np.abs(ys) < 0.3) & (np.abs(ts) < 0.3)
        return float(np.max(err * core))

    e1, e2 = stencil_error(1.0 / 32), stencil_error(1.0 / 64)
    conv = e1 / e2
    return (worst_ratio <= GNS_RATIO_CEILING and worst_dil <= 0.10
            and conv >= 3.5,
            f"zoo ratio max {worst_ratio:.3f} (<= {GNS_RATIO_CEILING}), "
            f"dilation drift {worst_dil:.4f} (<=10%), stencil ratio "
            f"{conv:.2f} (>=3.5)")


@_criterion(12, "weak isoperimetry")
def criterion_12():
    """Boundary-projection inclusion for 100 random box unions; the weak
    isoperimetric ratio is stable within factor 2 under dilation and
    refinement."""
    trials = 100
    res = isoperimetric(trials, 1.0 / 24, Stream(31337))
    # an empty union counts as a failure here
    incl_fail = trials - sum(r["inclusion"] for r in res.rows)
    # ratio stability for the model box
    sh = Box((0, 0, 0), (0.5, 0.5, 0.25))
    base = weak_isoperimetric_ratio(voxelize(sh, 1.0 / 48))
    rats = [base]
    for lam in (0.5, 2.0):
        rats.append(weak_isoperimetric_ratio(
            voxelize(DilatedShape(sh, lam), lam / 48, lam * lam / 48)))
    rats.append(weak_isoperimetric_ratio(voxelize(sh, 1.0 / 96)))
    spread = max(rats) / min(rats)
    return (incl_fail == 0 and spread <= 2.0,
            f"inclusion failures {incl_fail}/{trials}; ratio spread "
            f"{spread:.2f} (<=2 over dilation and refinement)")


def verify_all() -> RunResult:
    """Run every criterion, printing its line as it finishes."""
    results = []
    for _, _, check in ALL_CRITERIA:
        results.append(check())
        print(results[-1].line(), flush=True)
    rows = [{"criterion": r.cid, "name": r.name,
             "passed": r.passed, "elapsed_s": round(r.elapsed, 2)}
            for r in results]
    return RunResult(all(r.passed for r in results), rows,
                     {"passed": sum(r.passed for r in results),
                      "total": len(results)},
                     [r.line() for r in results])
