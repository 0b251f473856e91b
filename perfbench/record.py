"""Record the reference fingerprints of digests.json at the current commit.

    python3 perfbench/record.py

Runs every task whose output the seed does not change, for both sizes:
the pinned planar families, every reduce-pipeline, lw-sweep and sobolev
row, and every union of the isoperimetric pool (any run's seed picks its
unions from that pool).  Rerun only when a change is meant to alter those
outputs, and say so in the change.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import workloads as W  # noqa: E402


def record(tasks, ctx, out: dict) -> list:
    results = []
    for task in tasks:
        inst, res = task.run(ctx)
        results.append(res)
        if task.record is not None:
            out[task.name] = task.record(inst, res)
    return results


def main() -> int:
    out: dict = {}
    for size, z in W.SIZES.items():
        record(W.planar_large(0, z) + sum(W.planar_many(0, z), []), {}, out)
        ctx: dict = {}
        gns = W.sobolev_tasks(z["sobolev"], [])
        levels = record(gns, ctx, out)[0][3]
        out[W.sobolev_levels_key(z["sobolev"])] = levels
        tasks = sum(W.heisenberg_measure(z, None, levels), [])
        record([t for t in tasks if t.name != gns[0].name], ctx, out)
        print(f"{size}: {len(out)} entries", flush=True)
    with open(W.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
