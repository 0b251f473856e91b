"""The geomlab command line: run one experiment of geomlab.acceptance at
the options of an INI config file, and write <experiment>.csv (with a
provenance block), <experiment>_summary.json and report.txt.

Usage:
    geomlab <experiment> [--config FILE] [--out DIR] [--seed N] [--verify]

Options and defaults are in EXPERIMENTS; numbers may be plain floats,
powers "2^-7" or fractions "1/64" of either, lists whitespace separated.
An option the experiment does not read is a configuration error;
incidence-sweep also reads its family's keys in acceptance.SWEEP_FAMILIES.
Identical configs give byte-identical CSV output.

Exit codes: 0 all asserted invariants passed, 1 invariant violation,
2 configuration error: a bad option, config file or --out, or input the
experiment refuses (planar.BadInput); one line on stderr, before any
artifact is written.
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
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from . import __version__
from . import acceptance as A
from .planar import BadInput
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
            seed = int(raw)
        except ValueError:
            seed = -1
        if not 0 <= seed < 2 ** 64:  # the splitmix64 streams take uint64
            raise ConfigError(f"{self.experiment}: seed must be an integer "
                              f"in [0, 2^64), got {raw!r}")
        return seed

    def floats(self, key: str, lo: float = 0.0,
               hi: float = math.inf) -> List[float]:
        """The option's numbers, each finite, positive and in [lo, hi]."""
        try:
            vals = [parse_number(tok) for tok in self.options[key].split()]
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

    def ints(self, key: str, lo: float = 1,
             hi: float = math.inf) -> List[int]:
        vals = self.floats(key, lo, hi)
        if not all(v.is_integer() for v in vals):
            raise ConfigError(f"{self.experiment}: option {key!r}: every "
                              f"value must be a whole number")
        return [int(v) for v in vals]

    def _single(self, key: str, vals: list):
        if len(vals) != 1:
            raise ConfigError(f"{self.experiment}: {key!r} must be a single value")
        return vals[0]

    def scalar(self, key: str, lo: float = 0.0, hi: float = math.inf) -> float:
        return self._single(key, self.floats(key, lo, hi))

    def count(self, key: str, hi: float = math.inf) -> int:
        return self._single(key, self.ints(key, hi=hi))

    def choice(self, key: str, allowed: tuple) -> str:
        value = self.options[key]
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
    exp = EXPERIMENTS[experiment]
    options = dict(exp.defaults)
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"cannot read config file {path}")
            if parser.has_section(experiment):
                options.update(parser.items(experiment))
        except (configparser.Error, UnicodeDecodeError) as exc:
            # flattened: a missing section header's message spans 3 lines
            raise ConfigError(f"config file {path}: "
                              + " ".join(str(exc).split())) from None
    if extra:
        options.update({k: v for k, v in extra.items() if v is not None})
    if seed is not None:
        options["seed"] = str(seed)
    unknown = [k for k in options
               if k not in exp.defaults and k not in exp.optional]
    if unknown:
        raise ConfigError(f"{experiment}: unknown option "
                          + ", ".join(map(repr, unknown)))
    # the nearest existing one of out_dir and its parents must be a
    # writable directory; checked before any work, and nothing is created
    out = Path(out_dir)
    nearest = next((p for p in (out, *out.parents) if p.exists()), out)
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {out_dir}: {nearest} is not a writable "
                          f"directory")
    cfg = ExperimentConfig(experiment, options, out, verify)
    # checks every experiment shares; each entry of EXPERIMENTS checks the
    # ranges of its own options as it reads them, before any work
    cfg.seed  # raises ConfigError unless the seed is an integer in range
    return cfg


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

_SWEEP_KEYS = sorted({k for keys in A.SWEEP_FAMILIES.values() for k in keys})


def _sweep_family(cfg: ExperimentConfig):
    """acceptance.sweep_family at the config's family and keys."""
    name = cfg.choice("family", tuple(A.SWEEP_FAMILIES))
    params = {key: (cfg.scalar if key in ("epsilon", "r", "s")
                    else cfg.count)(key)
              for key in _SWEEP_KEYS if key in cfg.options}
    make = A.sweep_family(name, cfg.seed, **params)

    def family(i, delta):
        try:
            return make(i, delta)
        except ValueError as exc:
            raise ConfigError(f"incidence-sweep at delta={delta:g}: "
                              f"{exc}") from None
    return family


class Experiment(NamedTuple):
    defaults: Dict[str, str]
    run: Callable[[ExperimentConfig], A.RunResult]
    optional: Sequence[str] = ()  # keys read when given, beyond defaults


EXPERIMENTS: Dict[str, Experiment] = {
    "incidence-sweep": Experiment(
        {"family": "tube", "deltas": "2^-6 2^-7 2^-8 2^-9 2^-10 2^-11 2^-12",
         "seed": "12345"},
        lambda c: A.incidence_sweep(c.floats("deltas", hi=1.0),
                                    _sweep_family(c), c.verify),
        _SWEEP_KEYS),
    "rich-points": Experiment(
        {"family": "rectangle", "deltas": "2^-4 2^-5 2^-6", "ks": "2 4 8 16",
         "epsilon_ratios": "1 4 16", "seed": "12345"},
        lambda c: A.rich_points(c.floats("deltas", hi=1.0),
                                c.floats("epsilon_ratios", lo=1.0),
                                c.ints("ks", lo=2),
                                c.choice("family", ("rectangle", "k_star")))),
    "duality-check": Experiment(
        {"delta": "2^-7", "pairs": "10000", "seed": "12345"},
        lambda c: A.duality_check(
            c.scalar("delta", hi=1.0),
            c.count("pairs", hi=A.DUALITY_PAIRS_MAX),
            Stream(substream_seed(c.seed, 5)))),
    "star-bound": Experiment(
        {"epsilons": "2^-4 2^-5 2^-6 2^-7 2^-8", "seed": "12345"},
        lambda c: A.star_bound(c.floats("epsilons", lo=A.STAR_EPSILON_MIN,
                                        hi=1.0))),
    "lw-sweep": Experiment(
        {"hs": "1/48 1/64", "scale": "0.5", "seed": "12345"},
        lambda c: A.lw_sweep(c.floats("hs"),
                             c.scalar("scale", lo=A.LW_SCALE_MIN))),
    "tube-volume": Experiment(
        {"deltas": "2^-4 2^-5 2^-6 2^-7", "seed": "12345"},
        lambda c: A.tube_volume(c.floats("deltas", lo=A.TUBE_DELTA_MIN,
                                         hi=A.TUBE_DELTA_MAX))),
    "sobolev-check": Experiment(
        {"function": "bump", "width": "0.75", "h": "1/64", "seed": "12345"},
        lambda c: A.sobolev_check(c.options["function"], A.sobolev_function(
            c.options["function"], c.scalar("h"), c.scalar("width")))),
    "isoperimetric": Experiment(
        {"trials": "100", "h": "1/24", "seed": "12345"},
        lambda c: A.isoperimetric(
            c.count("trials", hi=A.ISOPERIMETRIC_TRIALS_MAX), c.scalar("h"),
            Stream(substream_seed(c.seed, 12)))),
    # above delta = 1/2 the box's t half width 1/16 holds no voxel of
    # height delta/4
    "reduce-pipeline": Experiment(
        {"deltas": "2^-4 2^-5 2^-6 2^-7", "seed": "12345"},
        lambda c: A.reduce_pipeline(c.floats("deltas", hi=0.5))),
    "verify-all": Experiment({"seed": "12345"}, lambda c: A.verify_all()),
}


def run(cfg: ExperimentConfig) -> int:
    t0 = time.time()
    try:
        res = EXPERIMENTS[cfg.experiment].run(cfg)
    except BadInput as exc:
        raise ConfigError(f"{cfg.experiment}: {exc}") from None
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
                    help="incidence-sweep: count each row with the column "
                         "engine and the brute-force oracle and assert "
                         "equality")
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
