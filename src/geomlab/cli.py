"""The geomlab command line: run one experiment of geomlab.acceptance at
the options of an INI config file, and write <experiment>.csv (with a
provenance block), <experiment>_summary.json and report.txt.

Usage:
    geomlab <experiment> [--config FILE] [--out DIR] [--seed N] [--verify]

Options and defaults are in EXPERIMENTS; numbers may be plain floats,
powers "2^-7" or fractions "1/64" of either, lists whitespace separated.
Identical configs give byte-identical CSV output, whatever LAB_THREADS
(rows are collected in order, then one writer writes them).

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from . import __version__
from . import acceptance as A
from .generators import GeneratorSpec, build
from .rng import Stream, substream_seed


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

    def floats(self, key: str, lo: float = 0.0,
               hi: float = math.inf) -> List[float]:
        """The option's numbers, each finite, positive and in [lo, hi]."""
        try:
            vals = [parse_number(tok) for tok in self.text(key).split()]
        except ValueError as exc:
            raise ConfigError(f"{self.experiment}: option {key!r}: {exc}") from None
        if not vals:
            raise ConfigError(f"{self.experiment}: option {key!r} is empty")
        if not all(math.isfinite(v) and v > 0 and lo <= v <= hi for v in vals):
            limits = (f">= {lo:g}" if lo > 0 else "> 0") + (
                f" and <= {hi:g}" if hi < math.inf else "")
            raise ConfigError(f"{self.experiment}: option {key!r}: every "
                              f"value must be a finite number {limits}")
        return vals

    def ints(self, key: str, lo: float = 1) -> List[int]:
        vals = self.floats(key, lo)
        if not all(v.is_integer() for v in vals):
            raise ConfigError(f"{self.experiment}: option {key!r}: every "
                              f"value must be a whole number")
        return [int(v) for v in vals]

    def _single(self, key: str, vals: list):
        if len(vals) != 1:
            raise ConfigError(f"{self.experiment}: {key!r} must be a single value")
        return vals[0]

    def scalar(self, key: str, hi: float = math.inf) -> float:
        return self._single(key, self.floats(key, hi=hi))

    def count(self, key: str) -> int:
        return self._single(key, self.ints(key))

    def text(self, key: str) -> str:
        if key not in self.options:
            raise ConfigError(f"{self.experiment}: missing option {key!r}")
        return self.options[key]

    def choice(self, key: str, allowed: tuple) -> str:
        value = self.text(key)
        if value not in allowed:
            raise ConfigError(f"{self.experiment}: option {key!r} must be one "
                              f"of {', '.join(allowed)}; got {value!r}")
        return value


def load_config(experiment: str, path: Optional[str], out_dir: str,
                seed: Optional[int], verify: bool,
                extra: Optional[Dict[str, str]] = None) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from "
                          + ", ".join(EXPERIMENTS))
    options = dict(EXPERIMENTS[experiment].defaults)
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        if parser.has_section(experiment):
            options.update({k: v for k, v in parser.items(experiment)})
    if extra:
        options.update({k: v for k, v in extra.items() if v is not None})
    if seed is not None:
        options["seed"] = str(seed)
    cfg = ExperimentConfig(experiment, options, Path(out_dir), verify)
    # checks every experiment shares; each entry of EXPERIMENTS checks the
    # ranges of its own options as it reads them, before any work
    cfg.seed  # raises ConfigError unless the seed is an integer
    _lab_threads()
    return cfg


def _lab_threads() -> int:
    raw = os.environ.get("LAB_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"LAB_THREADS must be an integer, got {raw!r}") from None


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_artifacts(cfg: ExperimentConfig, res: A.RunResult) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    name = cfg.experiment
    if res.rows:
        fields = list(res.rows[0].keys())
        with open(cfg.out_dir / f"{name}.csv", "w", newline="") as fh:
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
# Experiment table: each entry reads its options, with their ranges, and
# calls its experiment in geomlab.acceptance.

def _family_for(cfg: ExperimentConfig):
    """incidence-sweep's generator: the generator-spec schema when the
    config names a kind, else a family of acceptance.sweep_family."""
    if "kind" in cfg.options:
        kind = cfg.text("kind")
        nums = {key: (cfg.scalar if key in ("epsilon", "r", "s")
                      else cfg.count)(key)
                for key in ("epsilon", "r", "s", "k", "m", "n_points",
                            "n_lines") if key in cfg.options}

        def make(i, delta):
            spec = GeneratorSpec(kind, delta, seed=cfg.seed, **nums)
            ps, lf, _ = build(spec)
            if ps is None or lf is None:
                raise ValueError(f"generator {kind!r} does not produce a "
                                 f"point/line pair")
            return ps, lf
    else:
        make = A.sweep_family(cfg.choice("family", ("tube", "rectangle",
                                                    "random")), cfg.seed)

    def family(i, delta):
        try:
            return make(i, delta)
        except ValueError as exc:
            raise ConfigError(f"incidence-sweep at delta={delta:g}: "
                              f"{exc}") from None
    return family


def _rich_points(cfg: ExperimentConfig) -> A.RunResult:
    deltas = cfg.floats("deltas", hi=1.0)
    ratios = cfg.floats("epsilon_ratios", lo=1.0)
    if min(deltas) * min(ratios) > 1.0:
        raise ConfigError("rich-points: epsilon = ratio * delta exceeds 1 "
                          "for every (delta, ratio) pair")
    return A.rich_points(deltas, ratios, cfg.ints("ks", lo=2),
                         cfg.choice("family", ("rectangle", "k_star")))


def _on_grid(cfg: ExperimentConfig, option: str,
             run: Callable[[], A.RunResult]) -> A.RunResult:
    """Run an experiment that voxelizes at the grid steps of `option`; a
    step too coarse for every set is a config error."""
    try:
        return run()
    except A.EmptyGrid as exc:
        raise ConfigError(f"{cfg.experiment}: option {option!r}: "
                          f"{exc}") from None


def _sobolev_check(cfg: ExperimentConfig) -> A.RunResult:
    name = cfg.text("function")
    try:
        f = A.sobolev_function(name, cfg.scalar("h"), cfg.scalar("width"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return A.sobolev_check(name, f)


class Experiment(NamedTuple):
    defaults: Dict[str, str]
    run: Callable[[ExperimentConfig], A.RunResult]


EXPERIMENTS: Dict[str, Experiment] = {
    "incidence-sweep": Experiment(
        {"family": "tube", "deltas": "2^-6 2^-7 2^-8 2^-9 2^-10 2^-11 2^-12",
         "engine": "bucketed", "seed": "12345"},
        lambda c: A.incidence_sweep(
            c.floats("deltas", hi=1.0), _family_for(c),
            c.choice("engine", ("bucketed", "naive")), c.verify,
            _lab_threads())),
    "rich-points": Experiment(
        {"family": "rectangle", "deltas": "2^-4 2^-5 2^-6", "ks": "2 4 8 16",
         "epsilon_ratios": "1 4 16", "seed": "12345"},
        _rich_points),
    "duality-check": Experiment(
        {"delta": "2^-7", "pairs": "10000", "seed": "12345"},
        lambda c: A.duality_check(c.scalar("delta", hi=1.0), c.count("pairs"),
                                  Stream(substream_seed(c.seed, 5)))),
    "star-bound": Experiment(
        {"epsilons": "2^-4 2^-5 2^-6 2^-7 2^-8", "seed": "12345"},
        lambda c: A.star_bound(c.floats("epsilons", hi=1.0))),
    "lw-sweep": Experiment(
        {"hs": "1/48 1/64", "scale": "0.5", "seed": "12345"},
        lambda c: _on_grid(c, "hs", lambda: A.lw_sweep(c.floats("hs"),
                                                      c.scalar("scale")))),
    "tube-volume": Experiment(
        {"deltas": "2^-4 2^-5 2^-6 2^-7", "seed": "12345"},
        lambda c: A.tube_volume(c.floats("deltas"), _lab_threads())),
    "sobolev-check": Experiment(
        {"function": "bump", "width": "0.75", "h": "1/64", "seed": "12345"},
        _sobolev_check),
    "isoperimetric": Experiment(
        {"trials": "100", "h": "1/24", "seed": "12345"},
        lambda c: _on_grid(c, "h", lambda: A.isoperimetric(
            c.count("trials"), c.scalar("h"),
            Stream(substream_seed(c.seed, 12))))),
    # above delta = 1/2 the box's t half width 1/16 holds no voxel of
    # height delta/4
    "reduce-pipeline": Experiment(
        {"deltas": "2^-4 2^-5 2^-6 2^-7", "seed": "12345"},
        lambda c: A.reduce_pipeline(c.floats("deltas", hi=0.5))),
    "verify-all": Experiment({"seed": "12345"}, lambda c: A.verify_all()),
}


def run(cfg: ExperimentConfig) -> int:
    t0 = time.time()
    res = EXPERIMENTS[cfg.experiment].run(cfg)
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
        return run(load_config(args.experiment, args.config, args.out,
                               args.seed, args.verify,
                               extra={"function": args.function,
                                      "width": args.width, "h": args.h}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
