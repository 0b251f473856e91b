"""Experiment runner: named sweeps over the generator families and the
measure/Sobolev labs, with CSV + JSON artifacts and a verify-all mode.

Usage:
    geomlab <experiment> [--config FILE] [--out DIR] [--seed N] [--verify]

Experiments: incidence-sweep, rich-points, duality-check, star-bound,
lw-sweep, tube-volume, sobolev-check, isoperimetric, reduce-pipeline,
verify-all.

Config files are INI-style key = value sections, one section per
experiment; numbers may be written as plain floats, as powers "2^-7" or
as fractions "1/64" of either.
Lists are whitespace separated.  Example:

    [incidence-sweep]
    family = tube
    deltas = 2^-6 2^-7 2^-8 2^-9 2^-10 2^-11 2^-12
    engine = bucketed
    seed = 12345

All randomness derives from the single seed through the splitmix64
counter stream documented in geomlab.rng, so identical configs give
byte-identical CSV output.  LAB_THREADS > 1 evaluates sweep rows in a
thread pool; files are written by a single writer after ordered
collection, so results do not depend on the thread count.

Exit codes: 0 all asserted invariants passed, 1 invariant violation,
2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from . import heisenberg as hg
from .acceptance import run_all
from .generators import (gen_greedy_concurrent, gen_kstar, gen_random,
                         gen_rectangle_example, gen_tube_example)
from .incidence import (count_incidences, grid_richness, k_rich_points,
                        max_concurrency)
from .measure import (Box, UnionShape, boundary_projection_inclusion,
                      lw_ratio, project_voxels, shape_zoo, voxelize,
                      weak_isoperimetric_ratio)
from .planar import (Point2, Scale, dual_line_to_point, dual_point_to_line,
                     is_incident)
from .rng import Stream, substream_seed
from .sobolev import (bump, function_zoo, gns_check, level_range,
                      levelset_lemma_check, sample_to_grid)

EXPERIMENTS = ("incidence-sweep", "rich-points", "duality-check", "star-bound",
               "lw-sweep", "tube-volume", "sobolev-check", "isoperimetric",
               "reduce-pipeline", "verify-all")


class ConfigError(Exception):
    pass


def parse_number(tok: str) -> float:
    """A plain float, a power "2^-7", or a fraction "1/64" of either;
    raises ValueError for anything else."""
    tok = tok.strip()
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return parse_number(num) / parse_number(den)
        if "^" in tok:
            base, exp = tok.split("^")
            return float(base) ** float(exp)
        return float(tok)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"not a number: {tok!r}") from None


def parse_list(text: str) -> List[float]:
    return [parse_number(t) for t in text.split()]


_DEFAULTS: Dict[str, Dict[str, str]] = {
    "incidence-sweep": {"family": "tube",
                        "deltas": "2^-6 2^-7 2^-8 2^-9 2^-10 2^-11 2^-12",
                        "engine": "bucketed", "seed": "12345"},
    "rich-points": {"family": "rectangle", "deltas": "2^-4 2^-5 2^-6",
                    "ks": "2 4 8 16", "epsilon_ratios": "1 4 16",
                    "seed": "12345"},
    "duality-check": {"delta": "2^-7", "pairs": "10000", "seed": "12345"},
    "star-bound": {"epsilons": "2^-4 2^-5 2^-6 2^-7 2^-8", "seed": "12345"},
    "lw-sweep": {"hs": "1/48 1/64", "scale": "0.5", "seed": "12345"},
    "tube-volume": {"deltas": "2^-4 2^-5 2^-6 2^-7", "seed": "12345"},
    "sobolev-check": {"function": "bump", "width": "0.75", "h": "1/64",
                      "seed": "12345"},
    "isoperimetric": {"trials": "100", "h": "1/24", "seed": "12345"},
    "reduce-pipeline": {"deltas": "2^-4 2^-5 2^-6 2^-7", "seed": "12345"},
    "verify-all": {"seed": "12345"},
}


@dataclass
class ExperimentConfig:
    experiment: str
    options: Dict[str, str]
    out_dir: Path
    verify: bool = False

    @property
    def seed(self) -> int:
        raw = self.options.get("seed", "12345")
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.experiment}: seed must be an integer, "
                              f"got {raw!r}") from None

    def floats(self, key: str) -> List[float]:
        if key not in self.options:
            raise ConfigError(f"{self.experiment}: missing option {key!r}")
        try:
            vals = [parse_number(tok) for tok in self.options[key].split()]
        except ValueError as exc:
            raise ConfigError(f"{self.experiment}: option {key!r}: {exc}") from None
        if not vals:
            raise ConfigError(f"{self.experiment}: option {key!r} is empty")
        return vals

    def ints(self, key: str) -> List[int]:
        return [int(round(v)) for v in self.floats(key)]

    def scalar(self, key: str) -> float:
        vals = self.floats(key)
        if len(vals) != 1:
            raise ConfigError(f"{self.experiment}: {key!r} must be a single value")
        return vals[0]

    def text(self, key: str) -> str:
        if key not in self.options:
            raise ConfigError(f"{self.experiment}: missing option {key!r}")
        return self.options[key]


def load_config(experiment: str, path: Optional[str], out_dir: str,
                seed: Optional[int], verify: bool,
                extra: Optional[Dict[str, str]] = None) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from "
                          + ", ".join(EXPERIMENTS))
    options = dict(_DEFAULTS[experiment])
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        if parser.has_section(experiment):
            options.update({k: v for k, v in parser.items(experiment)})
    if extra:
        options.update({k: v for k, v in extra.items() if v is not None})
    if seed is not None:
        options["seed"] = str(seed)
    cfg = ExperimentConfig(experiment, options, Path(out_dir), verify)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    cfg.seed  # raises ConfigError unless the seed is an integer
    _lab_threads()
    if "deltas" in cfg.options and not cfg.floats("deltas"):
        raise ConfigError("empty delta list")
    for key in ("deltas", "epsilons", "ks", "hs"):
        if key in cfg.options:
            for v in cfg.floats(key):
                if v <= 0:
                    raise ConfigError(f"{key} entries must be positive")
    if "deltas" in cfg.options and "epsilons" in cfg.options:
        ds, es = cfg.floats("deltas"), cfg.floats("epsilons")
        if len(ds) == len(es) and any(e < d for d, e in zip(ds, es)):
            raise ConfigError("epsilon must be >= delta elementwise")


@dataclass
class RunResult:
    ok: bool
    rows: List[dict]
    summary: dict
    report_lines: List[str] = field(default_factory=list)


def _lab_threads() -> int:
    raw = os.environ.get("LAB_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"LAB_THREADS must be an integer, got {raw!r}") from None


def _map_rows(fn: Callable, items: Sequence) -> List:
    threads = _lab_threads()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_artifacts(cfg: ExperimentConfig, res: RunResult) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    name = cfg.experiment
    csv_path = cfg.out_dir / f"{name}.csv"
    if res.rows:
        fields = list(res.rows[0].keys())
        with open(csv_path, "w", newline="") as fh:
            fh.write(f"# experiment={name}\n")
            fh.write(f"# generator={cfg.options.get('family', name)}\n")
            fh.write(f"# seed={cfg.seed}\n")
            fh.write(f"# engine=geomlab-{__version__}\n")
            w = csv.writer(fh)
            w.writerow(fields)
            for row in res.rows:
                w.writerow([_fmt(row[f]) for f in fields])
    with open(cfg.out_dir / f"{name}_summary.json", "w") as fh:
        json.dump(res.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(cfg.out_dir / "report.txt", "a") as fh:
        fh.write(f"== {name} ==\n")
        for line in res.report_lines:
            fh.write(line + "\n")
        fh.write(f"result: {'PASS' if res.ok else 'FAIL'}\n\n")


# ---------------------------------------------------------------------------
# Experiment implementations

def _family_for(cfg: ExperimentConfig, delta: float, seed_tag: int):
    if "kind" in cfg.options:  # full generator-spec schema in the config
        from .generators import GeneratorSpec, build
        try:
            spec = GeneratorSpec.from_options(cfg.options, delta, cfg.seed)
            ps, lf, _ = build(spec)
        except (ValueError, KeyError) as exc:
            raise ConfigError(str(exc))
        if ps is None or lf is None:
            raise ConfigError(f"generator {spec.kind!r} does not produce a "
                              f"point/line pair")
        return ps, lf
    family = cfg.options.get("family", "tube")
    try:
        if family == "tube":
            return gen_tube_example(delta)
        if family == "rectangle":
            return gen_rectangle_example(delta, 1.0, math.sqrt(delta))
        if family == "random":
            cells = int(1.0 / delta) ** 2
            n = min(500, max(1, int(0.8 * cells)))
            return gen_random(n, n, delta, substream_seed(cfg.seed, seed_tag))
    except ValueError as exc:
        raise ConfigError(f"family {family!r} at delta={delta:g}: {exc}") from None
    raise ConfigError(f"unknown family {family!r}")


def run_incidence_sweep(cfg: ExperimentConfig) -> RunResult:
    engine = cfg.options.get("engine", "bucketed")

    def one_row(item):
        i, delta = item
        P, L = _family_for(cfg, delta, i)
        rep = count_incidences(P, L, Scale(delta), engine=engine,
                               verify=cfg.verify)
        return {"delta": delta, "n_points": len(P), "n_lines": len(L),
                "count": rep.count, "ratio": rep.normalized_ratio}

    rows = _map_rows(one_row, list(enumerate(cfg.floats("deltas"))))
    ratios = [r["ratio"] for r in rows if r["ratio"] > 0]
    band = max(ratios) / min(ratios) if ratios else math.inf
    ok = band <= 100.0
    return RunResult(ok, rows,
                     {"ratio_band": band, "engine": engine,
                      "verified_against_naive": cfg.verify},
                     [f"normalized ratio band {band:.3f} (invariant: <= 100)"])


def run_rich_points(cfg: ExperimentConfig) -> RunResult:
    rows = []
    family = cfg.options.get("family", "rectangle")
    if family not in ("rectangle", "k_star"):
        raise ConfigError(f"rich-points family must be rectangle or k_star, "
                          f"got {family!r}")
    for delta in cfg.floats("deltas"):
        for ratio in cfg.floats("epsilon_ratios"):
            eps = ratio * delta
            if eps > 1.0:
                continue
            fld = None
            if family == "rectangle":
                P, L = gen_rectangle_example(delta, 1.0, math.sqrt(delta),
                                             epsilon=eps)
                fld = grid_richness(L, Scale(delta, eps))
            for k in cfg.ints("ks"):
                if family == "k_star":
                    try:
                        P, L = gen_kstar(k, 2, delta, epsilon=eps)
                    except ValueError as exc:
                        rows.append({"delta": delta, "epsilon": eps, "k": k,
                                     "n_rich": "infeasible",
                                     "bound_constant": "", "multiplier": ""})
                        continue
                res = k_rich_points(L, k, Scale(delta, eps), field=fld)
                rows.append({"delta": delta, "epsilon": eps, "k": k,
                             "n_rich": len(res.points),
                             "bound_constant": res.bound_constant,
                             "multiplier": res.used_multiplier})
    consts = [r["bound_constant"] for r in rows
              if isinstance(r["bound_constant"], float)]
    ceiling = max(consts) if consts else 0.0
    ok = bool(consts)
    return RunResult(ok, rows, {"measured_ceiling": ceiling, "family": family},
                     [f"measured bound-constant ceiling {ceiling:.4f}"])


def run_duality_check(cfg: ExperimentConfig) -> RunResult:
    delta = cfg.scalar("delta")
    n = int(cfg.scalar("pairs"))
    stream = Stream(substream_seed(cfg.seed, 5))
    xs = stream.uniform(n, -1, 1)
    ys = stream.uniform(n, -1, 1)
    aa = stream.uniform(n, -1, 1)
    off = stream.uniform(n, -delta, delta)
    s1, s2 = Scale(delta), Scale(delta, multiplier=2.0)
    checked = failures = 0
    from .planar import LineAB
    for i in range(n):
        p = Point2(float(xs[i]), float(ys[i]))
        b = p.y - aa[i] * p.x + off[i]
        if abs(b) > 1.0:
            continue
        l = LineAB(float(aa[i]), float(b))
        if not is_incident(p, l, s1):
            continue
        checked += 1
        if not is_incident(dual_line_to_point(l), dual_point_to_line(p), s2):
            failures += 1
    ok = failures == 0
    rows = [{"delta": delta, "pairs_checked": checked, "failures": failures}]
    return RunResult(ok, rows, {"checked": checked, "failures": failures},
                     [f"{checked} incident pairs, {failures} dual failures"])


def run_star_bound(cfg: ExperimentConfig) -> RunResult:
    rows = []
    ok = True
    for eps in cfg.floats("epsilons"):
        delta = eps / 4.0
        fam = gen_greedy_concurrent(eps, delta)
        n = len(fam)
        mc = max_concurrency(fam, Point2(0.0, 0.0), Scale(delta, eps))
        lo, hi = 0.5 / eps, 4.0 / eps
        row_ok = lo <= n <= hi and mc == n
        ok = ok and row_ok
        rows.append({"epsilon": eps, "delta": delta, "n_lines": n,
                     "concurrency": mc, "lower": lo, "upper": hi,
                     "ok": row_ok})
    return RunResult(ok, rows, {"all_in_band": ok},
                     ["greedy concurrent families within [0.5/eps, 4/eps]"
                      if ok else "band violated"])


def run_lw_sweep(cfg: ExperimentConfig) -> RunResult:
    rows = []
    scale = cfg.scalar("scale")
    for h in cfg.floats("hs"):
        for name, sh in shape_zoo(scale).items():
            K = voxelize(sh, h)
            if len(K) == 0:
                continue
            px = project_voxels(K, "x").area()
            py = project_voxels(K, "y").area()
            rows.append({"shape": name, "h": h, "volume": K.volume(),
                         "area_x": px, "area_y": py, "lw_ratio": lw_ratio(K)})
    ceiling = max(r["lw_ratio"] for r in rows)
    ok = ceiling <= 2.0
    return RunResult(ok, rows, {"measured_ceiling": ceiling},
                     [f"Loomis-Whitney ratio ceiling {ceiling:.4f} (<= 2)"])


def run_tube_volume(cfg: ExperimentConfig) -> RunResult:
    from .measure import tube_intersection_volume
    a, b, c = 0.2, -0.1, -0.3
    wx = hg.VerticalPlanePoint(hg.Plane.W_X, a, b)
    wy = hg.VerticalPlanePoint(hg.Plane.W_Y, c, b + a * c)

    def one_row(delta):
        v = tube_intersection_volume(wx, wy, delta)
        return {"delta": delta, "volume": v, "normalized": v / delta ** 3}

    rows = _map_rows(one_row, cfg.floats("deltas"))
    vals = [r["normalized"] for r in rows]
    spread = max(vals) / min(vals) if min(vals) > 0 else math.inf
    ok = spread <= 4.0 and max(vals) <= 1000.0
    return RunResult(ok, rows, {"normalized_spread": spread,
                                "max_normalized": max(vals)},
                     [f"volume/delta^3 spread {spread:.2f} (<= 4)"])


def run_sobolev_check(cfg: ExperimentConfig) -> RunResult:
    h = cfg.scalar("h")
    fname = cfg.text("function")
    if fname == "bump":
        w = cfg.scalar("width")
        f = sample_to_grid(bump((w, w, 2 * w / 3)), h,
                           (w + 0.05, w + 0.05, 2 * w / 3 + 0.05))
    else:
        zoo = function_zoo(h)
        if fname not in zoo:
            raise ConfigError(f"unknown function {fname!r}; "
                              f"choose bump or one of {sorted(zoo)}")
        f = zoo[fname]
    g = gns_check(f)
    rows = [{"function": fname, "h": h, "record": "gns",
             "lhs": g.lhs, "rhs": g.rhs, "holds": g.ratio <= 2.0}]
    lemma_ok = True
    a = np.abs(f.values)
    populated = {k: bool(((a >= 2.0 ** (k - 1)) & (a <= 2.0 ** k)).any())
                 for k in level_range(f)}
    for k, has in populated.items():
        if not has or not populated.get(k - 1, False):
            continue
        for which in ("x", "y"):
            chk = levelset_lemma_check(f, k, which)
            lemma_ok = lemma_ok and chk.holds
            rows.append({"function": fname, "h": h,
                         "record": f"level_{k}_{which}",
                         "lhs": chk.lhs, "rhs": chk.rhs, "holds": chk.holds})
    ok = lemma_ok and g.ratio <= 2.0
    return RunResult(ok, rows, {"gns_ratio": g.ratio, "lemma_ok": lemma_ok},
                     [f"gns ratio {g.ratio:.4f}; level checks "
                      f"{'pass' if lemma_ok else 'FAIL'}"])


def run_isoperimetric(cfg: ExperimentConfig) -> RunResult:
    h = cfg.scalar("h")
    trials = int(cfg.scalar("trials"))
    stream = Stream(substream_seed(cfg.seed, 12))
    fails = 0
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
        incl = boundary_projection_inclusion(E)
        ratio = weak_isoperimetric_ratio(E)
        if not incl:
            fails += 1
        rows.append({"trial": trial, "n_boxes": nbox, "volume": E.volume(),
                     "inclusion": incl, "iso_ratio": ratio})
    ratios = [r["iso_ratio"] for r in rows]
    ok = fails == 0
    return RunResult(ok, rows,
                     {"inclusion_failures": fails,
                      "iso_ratio_max": max(ratios), "iso_ratio_min": min(ratios)},
                     [f"{fails} inclusion failures over {len(rows)} unions"])


def run_reduce_pipeline(cfg: ExperimentConfig) -> RunResult:
    from .acceptance import _maximal_plane_packing
    from .incidence import count_bucketed
    box = Box((0, 0, 0), (0.25, 0.25, 0.0625))
    rows = []
    for delta in cfg.floats("deltas"):
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


def run_verify_all(cfg: ExperimentConfig) -> RunResult:
    results = run_all(verbose=True)
    rows = [{"criterion": r.cid, "name": r.name,
             "passed": r.passed, "elapsed_s": round(r.elapsed, 2)}
            for r in results]
    ok = all(r.passed for r in results)
    return RunResult(ok, rows,
                     {"passed": sum(r.passed for r in results),
                      "total": len(results)},
                     [r.line() for r in results])


_RUNNERS: Dict[str, Callable[[ExperimentConfig], RunResult]] = {
    "incidence-sweep": run_incidence_sweep,
    "rich-points": run_rich_points,
    "duality-check": run_duality_check,
    "star-bound": run_star_bound,
    "lw-sweep": run_lw_sweep,
    "tube-volume": run_tube_volume,
    "sobolev-check": run_sobolev_check,
    "isoperimetric": run_isoperimetric,
    "reduce-pipeline": run_reduce_pipeline,
    "verify-all": run_verify_all,
}


def run(cfg: ExperimentConfig) -> int:
    t0 = time.time()
    res = _RUNNERS[cfg.experiment](cfg)
    write_artifacts(cfg, res)
    status = "PASS" if res.ok else "FAIL"
    print(f"{cfg.experiment}: {status} ({time.time() - t0:.1f}s), "
          f"artifacts in {cfg.out_dir}")
    return 0 if res.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="geomlab",
        description="incidence and Heisenberg measure experiments")
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", default=None, help="INI config file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--verify", action="store_true",
                    help="run both incidence engines and assert equality")
    ap.add_argument("--function", default=None, help="sobolev-check function")
    ap.add_argument("--width", default=None, help="sobolev-check bump width")
    ap.add_argument("--h", dest="h", default=None, help="grid resolution")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.experiment, args.config, args.out, args.seed,
                          args.verify,
                          extra={"function": args.function,
                                 "width": args.width, "h": args.h})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
