"""Self-test of the benchmark, at tiny sizes:

    python3 -m pytest -q perfbench

Every metric named in BENCHMARK.json is emitted for every workload, no
task fails on the default seed or on another one, and the benchmark
refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, seed: int, trace: int):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"], out.stdout[-2000:]
    return res


@pytest.mark.parametrize("seed", [12345, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_without_failures(workload, seed):
    out = bench(ROOT, workload, seed, 0)
    res = result_of(out)
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert "fail_frac" in out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_without_failures(workload):
    out = bench(ROOT, workload, 12345, 1)
    res = result_of(out)
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert "sum check" in out.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, WORKLOADS[0], 12345, 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.fixture
def modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import tracer
    import workloads
    return run, tracer, workloads


def test_spec_matches_code(modules):
    run, tracer, workloads = modules
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in tracer.LAYERS]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert tuple(WORKLOADS) == run.WORKLOADS


def test_check_counts_wrong_and_raising_tasks(modules):
    run, _, workloads = modules

    def boom(ctx):
        raise RuntimeError("boom")

    tasks = [workloads.Task("right", lambda ctx: (None, 1),
                            lambda inst, res: str(res), lambda inst: "1"),
             workloads.Task("wrong", lambda ctx: (None, 1),
                            lambda inst, res: str(res), lambda inst: "2"),
             workloads.Task("raises", boom,
                            lambda inst, res: str(res), lambda inst: "1")]
    kept: list = []
    p = run.run_pass(tasks, None, kept)
    attempted, failed, msgs = run.check(tasks, [p], kept)
    assert (attempted, failed) == (3, 2)
    assert any("boom" in m for m in msgs)
