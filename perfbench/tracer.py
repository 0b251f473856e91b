"""Per-layer tracing for the geomlab benchmark.

The traced run replaces the module attributes the library calls through
(for example `geomlab.measure.project_voxels`, which `lw_ratio` and
`boundary_projection_inclusion` look up at call time) with timing
wrappers, and restores them afterwards.  Nothing in the library changes.

Each wrapper records a span (name, start, end, parent, task id) and the
work counters of that call.  A layer's `busy_s` is self time: span
duration minus the time covered by its child spans.  The benchmark opens
one root span per task; its self time is the benchmark's own glue,
`bench.self_s`.  Since every span's self time is counted once, the busy
times of all layers plus `bench.self_s` add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Union

from geomlab import generators as G
from geomlab import heisenberg as H
from geomlab import incidence as I
from geomlab import measure as M
from geomlab import sobolev as S

BENCH = "bench.task"

# (metric, unit, better, end-to-end metric it should move, on workload)
LAYERS = [
    ("incidence.count.busy_s", "s", "lower", "wall_s", "planar-large"),
    ("incidence.count.calls", "count", "lower", "wall_s", "planar-large"),
    ("incidence.count.pairs", "count", "lower", "wall_s", "planar-large"),
    ("incidence.count.hits", "count", "lower", "wall_s", "planar-large"),
    ("incidence.count.pairs_per_s", "1/s", "higher", "wall_s", "planar-large"),
    ("incidence.count_pairs.busy_s", "s", "lower", "wall_s,task_p50_ms", "planar-many"),
    ("incidence.count_pairs.calls", "count", "lower", "wall_s,task_p50_ms", "planar-many"),
    ("incidence.count_pairs.pairs_out", "count", "lower", "wall_s,task_p50_ms", "planar-many"),
    ("incidence.grid_richness.busy_s", "s", "lower", "wall_s", "planar-large"),
    ("incidence.grid_richness.candidates", "count", "lower", "wall_s", "planar-large"),
    ("incidence.k_rich_points.busy_s", "s", "lower", "wall_s", "planar-large"),
    ("incidence.greedy_separated.busy_s", "s", "lower", "wall_s", "heisenberg-measure,planar-large"),
    ("incidence.greedy_separated.kept_ratio", "ratio", "higher", "wall_s", "heisenberg-measure,planar-large"),
    ("incidence.max_concurrency.busy_s", "s", "lower", "task_p90_ms", "planar-many"),
    ("generators.gen_random.busy_s", "s", "lower", "peak_rss_mb,wall_s", "planar-large"),
    ("generators.gen_random.calls", "count", "lower", "peak_rss_mb,wall_s", "planar-large"),
    ("rng.rank_keys.busy_s", "s", "lower", "peak_rss_mb,wall_s", "planar-large,planar-many"),
    ("rng.rank_keys.keys", "count", "lower", "peak_rss_mb,wall_s", "planar-large,planar-many"),
    ("generators.gen_greedy_concurrent.busy_s", "s", "lower", "task_p90_ms,wall_s", "planar-many"),
    ("generators.gen_greedy_concurrent.lines_out", "count", "higher", "task_p90_ms,wall_s", "planar-many"),
    ("generators.other.busy_s", "s", "lower", "task_p90_ms,wall_s", "planar-many"),
    ("measure.project_voxels.busy_s", "s", "lower", "wall_s,task_p90_ms", "heisenberg-measure"),
    ("measure.project_voxels.calls", "count", "lower", "wall_s,task_p90_ms", "heisenberg-measure"),
    ("measure.project_voxels.samples", "count", "lower", "wall_s,task_p90_ms", "heisenberg-measure"),
    ("measure.project_voxels.cells_out", "count", "lower", "wall_s,task_p90_ms", "heisenberg-measure"),
    ("measure.project_voxels.cells_per_sample", "ratio", "higher", "wall_s,task_p90_ms", "heisenberg-measure"),
    ("measure.voxelize.busy_s", "s", "lower", "wall_s,task_p50_ms", "heisenberg-measure"),
    ("measure.voxelize.voxels_out", "count", "lower", "wall_s,task_p50_ms", "heisenberg-measure"),
    ("measure.voxelize.fill_ratio", "ratio", "higher", "wall_s,task_p50_ms", "heisenberg-measure"),
    ("measure.boundary.busy_s", "s", "lower", "task_p50_ms", "heisenberg-measure"),
    ("measure.boundary.voxels_out", "count", "lower", "task_p50_ms", "heisenberg-measure"),
    ("measure.h3_surrogate.busy_s", "s", "lower", "task_p50_ms", "heisenberg-measure"),
    ("measure.h3_surrogate.centers_in", "count", "lower", "task_p50_ms", "heisenberg-measure"),
    ("sobolev.fields.busy_s", "s", "lower", "wall_s", "heisenberg-measure"),
    ("sobolev.fields.calls", "count", "lower", "wall_s", "heisenberg-measure"),
    ("sobolev.fields.distinct_ratio", "ratio", "higher", "wall_s", "heisenberg-measure"),
    ("sobolev.sample_to_grid.busy_s", "s", "lower", "wall_s", "heisenberg-measure"),
    ("sobolev.gns_check.busy_s", "s", "lower", "wall_s", "heisenberg-measure"),
    ("sobolev.levelset_lemma_check.busy_s", "s", "lower", "wall_s", "heisenberg-measure"),
    ("sobolev.levelset_lemma_check.calls", "count", "lower", "wall_s", "heisenberg-measure"),
    ("heisenberg.reduce_to_incidences.busy_s", "s", "lower", "wall_s", "heisenberg-measure"),
    ("heisenberg.reduce_to_incidences.points_in", "count", "lower", "wall_s", "heisenberg-measure"),
    ("planar.validate_separation.busy_s", "s", "lower", "wall_s", "heisenberg-measure"),
    ("bench.self_s", "s", "lower", "none", "all"),
    ("trace.wall_s", "s", "lower", "none", "all"),
    ("trace.overhead_s", "s", "lower", "none", "all"),
]


def _engine_layer(a) -> str:
    return "incidence.count_pairs" if a["with_pairs"] else "incidence.count"


def _engine_counts(a, rep):
    if a["with_pairs"]:
        return {"pairs_out": len(rep.pairs)}
    return {"pairs": len(a["P"]) * len(a["L"]), "hits": rep.count}


def _voxelize_counts(a, K):
    """Centres the voxelizer tests: its bounding-box grid, recomputed."""
    h = a["h"]
    ht = h if a["ht"] is None else a["ht"]
    lo, hi = a["shape"].bounds()
    tested = 0
    if not any(hi <= lo):
        tested = ((math.ceil(hi[0] / h) - math.floor(lo[0] / h) + 2)
                  * (math.ceil(hi[1] / h) - math.floor(lo[1] / h) + 2)
                  * (math.ceil(hi[2] / ht) - math.floor(lo[2] / ht) + 2))
    return {"voxels_out": len(K), "tested": tested}


def _project_counts(a, R):
    return {"samples": len(a["K"]) * a["oversample"] ** 3,
            "cells_out": len(R)}


Layer = Union[str, Callable[[dict], str]]
Counts = Optional[Callable[[dict, object], Dict[str, object]]]

# (module, attribute, layer, counters of one successful call).  A counter
# named "distinct_of" holds an input object; the tracer counts how many
# different ones it saw in the pass.
WRAPS = [
    (I, "count_naive", _engine_layer, _engine_counts),
    (I, "count_bucketed", _engine_layer, _engine_counts),
    (I, "grid_richness", "incidence.grid_richness",
     lambda a, r: {"candidates": r.coords.shape[0]}),
    (I, "k_rich_points", "incidence.k_rich_points", None),
    (I, "_greedy_separated", "incidence.greedy_separated",
     lambda a, r: {"kept": r.size, "in": a["coords"].shape[0]}),
    (I, "max_concurrency", "incidence.max_concurrency", None),
    (G, "gen_random", "generators.gen_random", None),
    (G, "rank_keys", "rng.rank_keys", lambda a, r: {"keys": a["n"]}),
    (G, "gen_greedy_concurrent", "generators.gen_greedy_concurrent",
     lambda a, r: {"lines_out": len(r)}),
    (G, "gen_grid_packing", "generators.other", None),
    (G, "gen_tube_example", "generators.other", None),
    (G, "gen_rectangle_example", "generators.other", None),
    (G, "gen_kstar", "generators.other", None),
    (G, "gen_concurrent_star", "generators.other", None),
    (M, "project_voxels", "measure.project_voxels", _project_counts),
    (S, "project_voxels", "measure.project_voxels", _project_counts),
    (M, "voxelize", "measure.voxelize", _voxelize_counts),
    (M, "boundary", "measure.boundary", lambda a, r: {"voxels_out": len(r)}),
    (M, "h3_surrogate", "measure.h3_surrogate",
     lambda a, r: {"centers_in": len(a["B"])}),
    (S, "field_X", "sobolev.fields", lambda a, r: {"distinct_of": ("X", a["f"])}),
    (S, "field_Y", "sobolev.fields", lambda a, r: {"distinct_of": ("Y", a["f"])}),
    (S, "sample_to_grid", "sobolev.sample_to_grid", None),
    (S, "gns_check", "sobolev.gns_check", None),
    (S, "levelset_lemma_check", "sobolev.levelset_lemma_check", None),
    (H, "reduce_to_incidences", "heisenberg.reduce_to_incidences",
     lambda a, r: {"points_in": len(a["P_x"]) + len(a["P_y"])}),
    (H, "validate_separation", "planar.validate_separation", None),
]


class Tracer:
    """Spans and per-layer totals of the traced passes of one run."""

    def __init__(self):
        self.spans: List[list] = []  # [id, name, start, end, parent, task, pass]
        self._stack: List[list] = []  # [id, start, child_time]
        self._next_id = 0
        self._patched: list = []
        self.task: Optional[int] = None
        self.pass_no = 0
        self.reset()

    def reset(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._seen: Dict[str, dict] = defaultdict(dict)

    # -- spans ---------------------------------------------------------
    def begin_task(self, task: int, start: float) -> None:
        """Open the root span of one task (self time: benchmark glue)."""
        self.task = task
        self.push(start)

    def end_task(self, end: float) -> None:
        self.pop(BENCH, end)

    def push(self, start: float) -> None:
        self._stack.append([self._next_id, start, 0.0])
        self._next_id += 1

    def pop(self, name: str, end: float) -> None:
        sid, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.busy[name] += dur - child
        self.calls[name] += 1
        self.spans.append([sid, name, start, end,
                           parent[0] if parent is not None else None,
                           self.task, self.pass_no])

    def add_counts(self, layer: str, counts: Dict[str, object]) -> None:
        for key, val in counts.items():
            if key == "distinct_of":
                seen = self._seen[layer]
                ident = (val[0], id(val[1]))
                if ident not in seen:
                    seen[ident] = val[1]  # held so the id stays unique
                    self.counts[layer + ".distinct"] += 1
            else:
                self.counts[f"{layer}.{key}"] += val

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn: Callable, layer: Layer, counts: Counts) -> Callable:
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            name = layer(a) if callable(layer) else layer
            self.push(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop(name, perf_counter())
            if counts is not None:
                self.add_counts(name, counts(a, result))
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, layer, counts in WRAPS:
            if hasattr(module, attr):
                orig = getattr(module, attr)
                setattr(module, attr, self._wrap(orig, layer, counts))
                self._patched.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    # -- per-pass metrics ----------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass since the last reset, except the
        trace.* metrics, which need the untraced passes too."""
        b, c, n = self.busy, self.calls, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        fields = c["sobolev.fields"]
        return {
            "incidence.count.busy_s": b["incidence.count"],
            "incidence.count.calls": c["incidence.count"],
            "incidence.count.pairs": n["incidence.count.pairs"],
            "incidence.count.hits": n["incidence.count.hits"],
            "incidence.count.pairs_per_s": ratio(n["incidence.count.pairs"],
                                                 b["incidence.count"]),
            "incidence.count_pairs.busy_s": b["incidence.count_pairs"],
            "incidence.count_pairs.calls": c["incidence.count_pairs"],
            "incidence.count_pairs.pairs_out": n["incidence.count_pairs.pairs_out"],
            "incidence.grid_richness.busy_s": b["incidence.grid_richness"],
            "incidence.grid_richness.candidates":
                n["incidence.grid_richness.candidates"],
            "incidence.k_rich_points.busy_s": b["incidence.k_rich_points"],
            "incidence.greedy_separated.busy_s": b["incidence.greedy_separated"],
            "incidence.greedy_separated.kept_ratio": ratio(
                n["incidence.greedy_separated.kept"],
                n["incidence.greedy_separated.in"]),
            "incidence.max_concurrency.busy_s": b["incidence.max_concurrency"],
            "generators.gen_random.busy_s": b["generators.gen_random"],
            "generators.gen_random.calls": c["generators.gen_random"],
            "rng.rank_keys.busy_s": b["rng.rank_keys"],
            "rng.rank_keys.keys": n["rng.rank_keys.keys"],
            "generators.gen_greedy_concurrent.busy_s":
                b["generators.gen_greedy_concurrent"],
            "generators.gen_greedy_concurrent.lines_out":
                n["generators.gen_greedy_concurrent.lines_out"],
            "generators.other.busy_s": b["generators.other"],
            "measure.project_voxels.busy_s": b["measure.project_voxels"],
            "measure.project_voxels.calls": c["measure.project_voxels"],
            "measure.project_voxels.samples": n["measure.project_voxels.samples"],
            "measure.project_voxels.cells_out":
                n["measure.project_voxels.cells_out"],
            "measure.project_voxels.cells_per_sample": ratio(
                n["measure.project_voxels.cells_out"],
                n["measure.project_voxels.samples"]),
            "measure.voxelize.busy_s": b["measure.voxelize"],
            "measure.voxelize.voxels_out": n["measure.voxelize.voxels_out"],
            "measure.voxelize.fill_ratio": ratio(
                n["measure.voxelize.voxels_out"], n["measure.voxelize.tested"]),
            "measure.boundary.busy_s": b["measure.boundary"],
            "measure.boundary.voxels_out": n["measure.boundary.voxels_out"],
            "measure.h3_surrogate.busy_s": b["measure.h3_surrogate"],
            "measure.h3_surrogate.centers_in": n["measure.h3_surrogate.centers_in"],
            "sobolev.fields.busy_s": b["sobolev.fields"],
            "sobolev.fields.calls": fields,
            "sobolev.fields.distinct_ratio": ratio(
                n["sobolev.fields.distinct"], fields),
            "sobolev.sample_to_grid.busy_s": b["sobolev.sample_to_grid"],
            "sobolev.gns_check.busy_s": b["sobolev.gns_check"],
            "sobolev.levelset_lemma_check.busy_s":
                b["sobolev.levelset_lemma_check"],
            "sobolev.levelset_lemma_check.calls":
                c["sobolev.levelset_lemma_check"],
            "heisenberg.reduce_to_incidences.busy_s":
                b["heisenberg.reduce_to_incidences"],
            "heisenberg.reduce_to_incidences.points_in":
                n["heisenberg.reduce_to_incidences.points_in"],
            "planar.validate_separation.busy_s": b["planar.validate_separation"],
            "bench.self_s": b[BENCH],
        }

    def total_busy(self) -> float:
        """Self time of every span of the pass, benchmark glue included."""
        return math.fsum(self.busy.values())
