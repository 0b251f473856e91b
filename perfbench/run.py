"""geomlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's seeded task list through the library's public functions
in one process, as a closed loop with one client: the next task starts
when the previous one returns.  LAB_THREADS is unset and BLAS/OpenMP
threads are pinned to 1.  Passes over the task list repeat until S seconds
have gone by (at least one pass).  After the passes, untimed, every task's
output is compared with its reference (see workloads.py).

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
processes that import geomlab and scipy and build the task list), wall_s
(median pass), task_p50_ms and task_p90_ms (over every task of every pass)
and peak_rss_mb (this process, read before the output check).
fail_frac, the share of tasks that raised or gave a wrong output, is
printed with them and is failed / attempted in the result line.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py (medians over traced passes), with trace.overhead_s =
traced wall_s - untraced wall_s.  Spans are written to
.bench_out/spans-<workload>-<seed>.jsonl when the run ends.

The last line of stdout is the result as one JSON object.  --tiny runs
small sizes for the self-test (test_perfbench.py).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("planar-large", "planar-many", "heisenberg-measure")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# (metric, unit, better): what --trace 0 reports
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("task_p50_ms", "ms", "lower"),
    ("task_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Set-up as a user pays it: a fresh interpreter imports the library and
# builds the seeded task list.
_SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                "workloads.build(sys.argv[3], int(sys.argv[4]), "
                "sys.argv[5] == '1')")


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC),
                        str(HERE), workload, str(seed), "1" if tiny else "0"],
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("LAB_THREADS",)},
        "git_sha": git_sha(),
        "seed": seed,
    }


class Pass:
    """Timings and output fingerprints of one pass over the task list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies = []
        self.digests = []  # fingerprint, or None when the task raised
        self.errors = {}
        self.layers = None   # per-layer metrics of a traced pass
        self.traced_busy = None  # all self times of a traced pass

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(tasks, tracer, keep: list = None) -> Pass:
    """One closed-loop pass.  wall_s is the sum of task latencies;
    fingerprinting outputs happens between tasks, outside the timings."""
    p = Pass(tracer is not None)
    ctx: dict = {}
    for i, task in enumerate(tasks):
        inst = res = None
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_task(i, t0)
        try:
            inst, res = task.run(ctx)
        except Exception as exc:  # a failed task counts in fail_frac
            p.errors[i] = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_task(t1)
        p.latencies.append(t1 - t0)
        p.digests.append(None if i in p.errors else task.digest(inst, res))
        if keep is not None:
            keep.append(inst)
        del inst, res
    return p


def check(tasks, passes, instances):
    """Compare every fingerprint with the task's reference.  Returns
    (attempted, failed, messages)."""
    refs, msgs = [], []
    for task, inst in zip(tasks, instances):
        try:
            refs.append(task.reference(inst))
        except Exception as exc:  # no reference: every attempt fails
            refs.append(None)
            msgs.append(f"{task.name}: no reference ({type(exc).__name__}: {exc})")
    attempted = failed = 0
    for p in passes:
        for i, task in enumerate(tasks):
            attempted += 1
            if p.digests[i] is None or p.digests[i] != refs[i]:
                failed += 1
                why = p.errors.get(i, "output differs from reference")
                msgs.append(f"{task.name}: {why}")
    return attempted, failed, msgs


def run_passes(tasks, seconds: float, tracer):
    """Passes until `seconds` have gone by; with a tracer, untraced and
    traced passes alternate and there is at least one of each."""
    passes, instances = [], []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.pass_no = len(passes)
            tracer.install()
            try:
                p = run_pass(tasks, tracer)
            finally:
                tracer.uninstall()
            p.layers = tracer.layer_metrics()
            p.layers["trace.wall_s"] = p.wall
            p.traced_busy = tracer.total_busy()
        else:
            p = run_pass(tasks, None, instances if not passes else None)
        passes.append(p)
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() - start >= seconds:
            return passes, instances


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    lat = [t for p in passes for t in p.latencies]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "task_p50_ms": 1e3 * statistics.median(lat),
        "task_p90_ms": 1e3 * statistics.quantiles(lat, n=10,
                                                  method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(passes) -> dict:
    import tracer as T
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {name: float(statistics.median(p.layers[name] for p in traced))
           for name, *_ in T.LAYERS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                               - statistics.median(p.wall for p in plain))
    return out


def write_spans(tracer, machine: dict, workload: str, seed: int, tasks) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"machine": machine, "workload": workload,
                             "tasks": [t.name for t in tasks]}) + "\n")
        for sid, name, start, end, parent, task, pass_no in sorted(tracer.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent, "task": task,
                                 "pass": pass_no}) + "\n")
    return path


def print_table(workload, passes, metrics, attempted, failed, units, notes):
    print(f"workload {workload}: {len(passes)} passes x "
          f"{len(passes[0].latencies)} tasks")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:44s} {value:>16.6g} {units[name]:6s} {note}")
    print(f"  {'fail_frac':44s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"{failed} of {attempted} task runs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the self-test")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LAB_THREADS", None)
    if not (SRC / "geomlab" / "__init__.py").is_file():
        print(f"error: no geomlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    setup_s = (measure_setup(args.workload, args.seed, args.tiny)
               if not args.trace else None)
    import geomlab
    import workloads as W
    if not Path(geomlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported geomlab from {geomlab.__file__}",
              file=sys.stderr)
        return 2
    tasks = W.build(args.workload, args.seed, args.tiny)
    machine = machine_record(args.seed)
    print("machine " + json.dumps(machine, sort_keys=True))

    tracer = None
    if args.trace:
        import tracer as T
        tracer = T.Tracer()
    passes, instances = run_passes(tasks, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, msgs = check(tasks, passes, instances)
    for msg in msgs[:20]:
        print("FAIL " + msg)

    if args.trace:
        metrics = per_layer(passes)
        units = {name: unit for name, unit, *_ in T.LAYERS}
        notes = {name: f"moves {moves} on {on}"
                 for name, _, _, moves, on in T.LAYERS}
        print_table(args.workload, passes, metrics, attempted, failed, units,
                    notes)
        for p in passes:
            if p.traced:
                print(f"  sum check: layers busy_s + bench.self_s = "
                      f"{p.traced_busy:.6f} s; traced wall_s = {p.wall:.6f} s")
        print(f"  spans: {write_spans(tracer, machine, args.workload, args.seed, tasks)}")
    else:
        metrics = end_to_end(passes, setup_s, peak_rss_mb)
        units = {name: unit for name, unit, _ in END_TO_END}
        n_lat = sum(len(p.latencies) for p in passes)
        notes = {"task_p50_ms": f"{n_lat} task latencies",
                 "task_p90_ms": f"{n_lat} task latencies",
                 "setup_s": f"median of {SETUP_REPEATS} fresh processes",
                 "wall_s": f"median of passes "
                           f"{[round(p.wall, 3) for p in passes]}"}
        print_table(args.workload, passes, metrics, attempted, failed, units,
                    notes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
