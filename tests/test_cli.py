"""Tests for config parsing, the experiment runner, and reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab import incidence
from geomlab.acceptance import SWEEP_FAMILIES
from geomlab.cli import (EXPERIMENTS, _SWEEP_KEYS, load_config, main,
                         parse_number)
from geomlab.planar import BadInput


def test_number_parsing():
    assert parse_number("2^-6") == 2.0 ** -6
    assert parse_number("0.125") == 0.125
    assert [parse_number(t) for t in ("2^-4", "0.5", "1")] == [0.0625, 0.5, 1.0]


def test_defaults_and_overrides(tmp_path):
    cfg = load_config("incidence-sweep", None, str(tmp_path), seed=7)
    assert cfg.seed == 7
    assert cfg.floats("deltas")[0] == 2.0 ** -6
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\ndeltas = 2^-5 2^-6\nseed = 99\n")
    cfg2 = load_config("incidence-sweep", str(ini), str(tmp_path), None)
    assert cfg2.floats("deltas") == [2.0 ** -5, 2.0 ** -6]
    assert cfg2.seed == 99


def test_cli_import_loads_no_scipy():
    # geomlab depends on numpy alone; scipy.spatial alone took over half
    # of the import time of every CLI run
    script = ("import sys, geomlab.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_tiny_bump_width_prints_one_line(tmp_path):
    # the bump's scaled radius overflowed at width 1e-310, and numpy's
    # RuntimeWarnings reached stderr before the config error, 9 lines in
    # all; in-process runs do not show them, as pytest captures warnings
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "geomlab.cli", "sobolev-check", "--width",
         "1e-310", "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "config error: sobolev-check: too coarse at h=0.015625: bump needs "
        "h <= 4.16667e-312, 16 samples per half-width 6.66667e-311 of its "
        "support"]


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(BadInput):
        load_config("nonsense", None, str(tmp_path), None)


def test_empty_sweep_list_exits_2(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\ndeltas =\n")
    rc = main(["incidence-sweep", "--config", str(ini),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def _sweep_column_calls(monkeypatch, argv):
    """The (n, m, with_pairs) of each column-path call of the run argv."""
    columns, calls = incidence._count_columns, []

    def spy(P, L, s, with_pairs=False):
        calls.append((len(P), len(L), with_pairs))
        return columns(P, L, s, with_pairs)
    monkeypatch.setattr(incidence, "_count_columns", spy)
    assert main(argv) == 0
    return calls


def test_incidence_sweep_verify_runs_the_column_path_on_every_row(
        tmp_path, monkeypatch):
    # every default tube row lies below count_bucketed's cut, where only
    # verify reaches the column path
    out = tmp_path / "out"
    calls = _sweep_column_calls(monkeypatch, ["incidence-sweep", "--verify",
                                              "--out", str(out)])
    lines = (out / "incidence-sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[5:]]
    assert len(rows) == 7
    assert calls == [(int(r[1]), int(r[2]), True) for r in rows]


def test_incidence_sweep_verify_key_of_a_config_file(tmp_path, monkeypatch):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\ndeltas = 2^-6 2^-7\nverify = yes\n")
    argv = ["incidence-sweep", "--config", str(ini), "--out"]
    calls = _sweep_column_calls(monkeypatch, argv + [str(tmp_path / "a")])
    assert [with_pairs for _, _, with_pairs in calls] == [True, True]
    ini.write_text("[incidence-sweep]\ndeltas = 2^-6 2^-7\nverify = no\n")
    assert _sweep_column_calls(monkeypatch, argv + [str(tmp_path / "b")]) == []


def test_fractions_parse():
    assert parse_number("1/64") == 2.0 ** -6
    assert parse_number(" 3/2^2 ") == 0.75
    assert [parse_number(t) for t in ("1/48", "2^-3")] == [1.0 / 48.0, 0.125]
    for bad in ("abc", "1/0", "1/2/3", "2^x", "10^400"):
        with pytest.raises(ValueError):
            parse_number(bad)


def _exits_2_with_one_line(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: ")
    return err


@pytest.mark.parametrize("body, needle", [
    ("family = tube\ndeltas = 2^-3\n", "delta must be <= 2^-4"),
    ("deltas = 2^-6 1/0\n", "'deltas'"),
    ("deltas = 2^-6 abc\n", "'abc'"),
    ("deltas = 2^-6\nseed = abc\n", "seed must be an integer"),
    ("deltas = 2^-6\nengine = foo\n", "'engine'"),
    pytest.param("family = k_star\nk = 3\ndeltas = 2^-6\n", "needs m",
                 id="k_star-without-m"),
    pytest.param("family = k_star\ndeltas = 2^-6\n", "needs k, m",
                 id="k_star-without-k"),
    pytest.param("family = nope\ndeltas = 2^-6\n",
                 "'family' must be one of tube, rectangle, k_star, random",
                 id="unknown-family"),
    pytest.param("family = rectangle\nn_points = 5\ndeltas = 2^-6\n",
                 "'n_points'", id="key-of-another-family"),
    pytest.param("family = random\nseed = 18446744073709551616\n",
                 "seed must be an integer in [0, 2^64)",
                 id="random-seed-above-uint64"),
    # 2^80 cells: ranking them all never ended
    pytest.param("family = random\nn_points = 10\nn_lines = 10\n"
                 "deltas = 2^-40\n", "at delta=9.09495e-13: n must be in "
                 "[0, 2^62]", id="random-delta-2^-40"),
    # 1 / delta is inf, or its square too large for a float: both raised
    # OverflowError (exit 1)
    pytest.param("family = random\ndeltas = 5e-324\n",
                 "at delta=4.94066e-324: 1/delta overflows",
                 id="random-subnormal-delta"),
    pytest.param("family = random\ndeltas = 1e-300\n", "at delta=1e-300: n "
                 "must be in [0, 2^62]", id="random-delta-1e-300"),
])
def test_bad_option_values_exit_2(tmp_path, capsys, body, needle):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\n" + body)
    err = _exits_2_with_one_line(capsys, [
        "incidence-sweep", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert needle in err


_TUBE_RANGE = ("'deltas': every value must be a finite number >= 7.62939e-06 "
               "and <= 0.25")


@pytest.mark.parametrize("experiment, body, needle", [
    ("duality-check", "pairs = -5\n", "'pairs'"),
    ("duality-check", "pairs = 5/2\n", "whole number"),
    ("isoperimetric", "trials = 0\n", "'trials'"),
    ("sobolev-check", "h = 0\n", "'h'"),
    ("sobolev-check", "h = -1/64\n", "'h'"),
    # grids past sobolev.SAMPLE_CAP: the first two raised numpy's
    # _ArrayMemoryError, the third OverflowError from math.ceil(inf) (exit 1)
    pytest.param("sobolev-check", "h = 1e-5\n",
                 "the grid at h=1e-05 would hold more than 16777216 samples",
                 id="sobolev-check-h-1e-5"),
    pytest.param("sobolev-check", "width = 100\n",
                 "the grid at h=0.015625 would hold more than 16777216 "
                 "samples", id="sobolev-check-width-100"),
    pytest.param("sobolev-check", "h = 5e-324\n",
                 "the grid at h=4.94066e-324 would hold more than",
                 id="sobolev-check-subnormal-h"),
    # every sample is zero: these reported PASS with gns_ratio 0
    pytest.param("sobolev-check", "h = 1\n",
                 "too coarse at h=1: bump needs h <= 0.03125",
                 id="sobolev-check-h-1"),
    pytest.param("sobolev-check", "h = 2\n",
                 "too coarse at h=2: bump needs h <= 0.03125",
                 id="sobolev-check-h-2"),
    pytest.param("sobolev-check", "width = 1e-9\n",
                 "too coarse at h=0.015625: bump needs h <= 4.16667e-11",
                 id="sobolev-check-width-1e-9"),
    # the level-set lemma failed its slack 1.25 on these grids, 2.5 and 3
    # samples per half-width (FAIL, exit 1)
    pytest.param("sobolev-check", "h = 1/5\n",
                 "too coarse at h=0.2: bump needs h <= 0.03125, 16 samples "
                 "per half-width 0.5 of its support",
                 id="sobolev-check-h-1/5"),
    pytest.param("sobolev-check", "h = 1/6\n",
                 "too coarse at h=0.166667: bump needs h <= 0.03125",
                 id="sobolev-check-h-1/6"),
    ("lw-sweep", "scale = 0\n", "'scale'"),
    ("reduce-pipeline", "deltas = 0.9\n", "<= 0.5"),
    ("star-bound", "epsilons = 2\n", "<= 1"),
    ("rich-points", "epsilon_ratios = 100\n", "exceeds 1"),
    pytest.param("lw-sweep", "hs = 2\n", "'hs': too coarse",
                 id="lw-sweep-hs-too-coarse"),
    pytest.param("isoperimetric", "h = 2\n", "'h': too coarse",
                 id="isoperimetric-h-too-coarse"),
    # above tube-volume's delta range the cube clips the tubes; these
    # deltas, which voxelize to empty sets, exited 2 as too coarse, and
    # 2^-4 2 broke the spread bound (exit 1, FAIL)
    pytest.param("tube-volume", "deltas = 100\n", _TUBE_RANGE,
                 id="tube-volume-deltas-too-coarse"),
    pytest.param("tube-volume", "deltas = 2^-4 100\n", _TUBE_RANGE,
                 id="tube-volume-one-delta-too-coarse"),
    pytest.param("tube-volume", "deltas = 2^-4 2\n", _TUBE_RANGE,
                 id="tube-volume-delta-2-clipped"),
    pytest.param("rich-points", "family = k_star\nks = 2\ndeltas = 1\n",
                 "family k_star is infeasible at every",
                 id="rich-points-every-row-infeasible"),
    pytest.param("incidence-sweep", "family = random\nn_points = 10\n"
                 "n_lines = 10\ndeltas = 2^-30\n",
                 "'deltas': no row counts an incidence",
                 id="incidence-sweep-random-10x10-counts-nothing"),
    pytest.param("incidence-sweep", "family = random\ndeltas = 2^-30\n",
                 "'deltas': no row counts an incidence",
                 id="incidence-sweep-random-default-counts-nothing"),
    # one batch's four draws of 10^15 pairs raised numpy's
    # _ArrayMemoryError (exit 1)
    pytest.param("duality-check", "pairs = 1000000000000000\n",
                 "'pairs': every value must be a finite number >= 1 and "
                 "<= 1.04858e+06", id="duality-check-pairs-1e15"),
    # the candidate lattice of 16/epsilon columns raised "Maximum allowed
    # size exceeded" (exit 1)
    pytest.param("star-bound", "epsilons = 1e-300\n",
                 "'epsilons': every value must be a finite number >= "
                 "0.000244141 and <= 1", id="star-bound-epsilon-1e-300"),
    # below 2^-17 the voxels leave measure's index range: these raised
    # ZeroDivisionError, "h and ht must be finite and positive" and, found
    # by test_fuzzed_configs_exit_0_or_2, "voxel indices must lie in
    # [-2^20, 2^20)" (exit 1)
    pytest.param("tube-volume", "deltas = 1e-300\n",
                 "'deltas': every value must be a finite number >= "
                 "7.62939e-06", id="tube-volume-delta-1e-300"),
    pytest.param("tube-volume", "deltas = 5e-324\n", "'deltas'",
                 id="tube-volume-subnormal-delta"),
    pytest.param("tube-volume", "deltas = 2 2^-25 2^-18\n", "'deltas'",
                 id="tube-volume-delta-2^-25"),
    # found by the same test: volume / delta^3 raised OverflowError (exit 1)
    # before the empty volume was reported
    pytest.param("tube-volume", "deltas = 1/128 1e200 1e200\n", _TUBE_RANGE,
                 id="tube-volume-delta-1e200"),
    # voxel boxes past the packing range: the first three raised numpy's
    # _ArrayMemoryError (exit 1), the fourth ran out of memory after 20 s,
    # and h = 5e-324 raised OverflowError
    pytest.param("lw-sweep", "scale = 1e10\n",
                 "lw-sweep: at h=0.0208333, ht=0.0208333 the voxel indices "
                 "of the shape's box leave [-2^20, 2^20)",
                 id="lw-sweep-scale-1e10"),
    pytest.param("lw-sweep", "hs = 1e-7\n",
                 "lw-sweep: at h=1e-07, ht=1e-07 the voxel indices",
                 id="lw-sweep-hs-1e-7"),
    pytest.param("reduce-pipeline", "deltas = 1e-9\n",
                 "reduce-pipeline: at h=2.5e-10, ht=2.5e-10 the voxel indices",
                 id="reduce-pipeline-deltas-1e-9"),
    pytest.param("isoperimetric", "h = 1e-7\n",
                 "isoperimetric: at h=1e-07, ht=1e-07 the voxel indices",
                 id="isoperimetric-h-1e-7"),
    pytest.param("lw-sweep", "hs = 5e-324\n",
                 "at h=4.94066e-324, ht=4.94066e-324 the voxel indices",
                 id="lw-sweep-subnormal-hs"),
    # a box of 10^10 columns ran out of memory after 20 s (exit 1)
    pytest.param("lw-sweep", "hs = 1e-5\n",
                 "lw-sweep: at h=1e-05 the shape's box holds 10000400004 "
                 "(i, j) columns, more than 8388608", id="lw-sweep-hs-1e-5"),
    # the rectangle family's 10^9 lattice points asked numpy for 7.45 GiB
    pytest.param("rich-points", "deltas = 1e-9\n",
                 "rich-points: a lattice of step 1e-09 over [0, 1] would "
                 "hold more than 1048576 points", id="rich-points-deltas-1e-9"),
    # the rectangle family's line lattice of 32769^2 points (8 GiB) and
    # grid_richness's lattice of 2 10^9 squared points (14.9 GiB) raised
    # numpy's _ArrayMemoryError (exit 1)
    pytest.param("rich-points", "deltas = 2^-14\n",
                 "rich-points: a lattice of 32769 x 32769 points would hold "
                 "more than 16777216", id="rich-points-deltas-2^-14"),
    pytest.param("rich-points", "family = k_star\ndeltas = 1e-9\n",
                 "rich-points: the rich-point lattice at delta=1e-09 would "
                 "hold more than 16777216 points",
                 id="rich-points-k-star-deltas-1e-9"),
    # these raised OverflowError (exit 1): 2 / delta is inf, and the k-star
    # slope budget m (k - 1) step left the float range
    pytest.param("rich-points", "family = k_star\ndeltas = 5e-324\n",
                 "rich-points: the rich-point lattice at delta=4.94066e-324",
                 id="rich-points-k-star-subnormal-deltas"),
    pytest.param("rich-points", "family = k_star\nks = 1e308\n",
                 "family k_star is infeasible at every",
                 id="rich-points-k-star-ks-1e308"),
    # the rectangle family's scan of 285,978 lines x 1025 lattice columns
    # took 10 s
    pytest.param("rich-points", "deltas = 2^-9\n",
                 "rich-points: the rich-point scan at delta=0.00195312 would "
                 "take 285978 lines x 1025 lattice columns, more than "
                 "67108864 entries", id="rich-points-deltas-2^-9"),
    # found by test_fuzzed_configs_exit_0_or_2: the tube family's points
    # asked numpy for 7.45 GiB at 1e-18 and 16 GiB at 2^-62
    # (_ArrayMemoryError, exit 1), and 2^-40 ran for more than 20 s
    pytest.param("incidence-sweep", "deltas = 1e-18\n",
                 "incidence-sweep: at delta=1e-18: the tube would hold more "
                 "than 1048576 points", id="incidence-sweep-tube-1e-18"),
    pytest.param("incidence-sweep", "deltas = 2^-62\n",
                 "the tube would hold more than 1048576 points",
                 id="incidence-sweep-tube-2^-62"),
    pytest.param("incidence-sweep", "family = tube\ndeltas = 2^-6 2^-40\n",
                 "incidence-sweep: at delta=9.09495e-13: the tube would hold "
                 "more than 1048576 points", id="incidence-sweep-tube-2^-40"),
    # found while choosing that test's tokens: the zoo's t half widths
    # underflowed to 0 and Box raised ValueError (exit 1)
    pytest.param("lw-sweep", "scale = 1e-300\n",
                 "lw-sweep: option 'scale': every value must be a finite "
                 "number >= 9.53674e-07", id="lw-sweep-scale-1e-300"),
    pytest.param("lw-sweep", "scale = 5e-324\n", "'scale'",
                 id="lw-sweep-subnormal-scale"),
    # found the same way: delta / 4 underflowed to 0 and voxelize raised
    # ValueError (exit 1)
    pytest.param("reduce-pipeline", "deltas = 5e-324\n",
                 "reduce-pipeline: at delta=4.94066e-324 the voxel side "
                 "delta/4 underflows to 0",
                 id="reduce-pipeline-subnormal-deltas"),
    # 10^12 unions ran for as long as one would wait
    pytest.param("isoperimetric", "trials = 1000000000000\n",
                 "'trials': every value must be a finite number >= 1 and "
                 "<= 10000", id="isoperimetric-trials-1e12"),
])
def test_bad_experiment_values_exit_2(tmp_path, capsys, experiment, body,
                                      needle):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{experiment}]\n" + body)
    err = _exits_2_with_one_line(capsys, [
        experiment, "--config", str(ini), "--out", str(tmp_path / "out")])
    assert needle in err


@pytest.mark.parametrize("argv, body, needle", [
    pytest.param(["incidence-sweep"], "delta = 2^-6\n",
                 "incidence-sweep: unknown option 'delta'", id="delta"),
    pytest.param(["incidence-sweep"], "kind = random\n",
                 "incidence-sweep: unknown option 'kind'", id="kind"),
    pytest.param(["incidence-sweep"], "engine = naive\n",
                 "incidence-sweep: unknown option 'engine'", id="engine"),
    pytest.param(["duality-check", "--function", "bump"], "",
                 "duality-check: unknown option 'function'",
                 id="function-flag-on-duality-check"),
    pytest.param(["incidence-sweep", "--h", "1/32"], "",
                 "incidence-sweep: unknown option 'h'",
                 id="h-flag-on-incidence-sweep"),
])
def test_unknown_options_exit_2(tmp_path, capsys, argv, body, needle):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{argv[0]}]\n" + body)
    err = _exits_2_with_one_line(capsys, argv + [
        "--config", str(ini), "--out", str(tmp_path / "out")])
    assert needle in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment",
                         [e for e in EXPERIMENTS if e != "incidence-sweep"])
def test_verify_flag_off_incidence_sweep_exits_2(tmp_path, capsys,
                                                  experiment):
    # verify is incidence-sweep's key; the others exited 0 ignoring it
    err = _exits_2_with_one_line(capsys, [
        experiment, "--verify", "--out", str(tmp_path / "out")])
    assert err == f"config error: {experiment}: unknown option 'verify'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["true", "1", "YES", ""])
def test_verify_key_takes_yes_or_no(tmp_path, capsys, value):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[incidence-sweep]\ndeltas = 2^-6\nverify = {value}\n")
    err = _exits_2_with_one_line(capsys, [
        "incidence-sweep", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert err == (f"config error: incidence-sweep: option 'verify' must be "
                   f"one of yes, no; got {value!r}\n")


def test_negative_seed_exits_2(tmp_path, capsys):
    # the seeds feed uint64 streams; -1 used to raise OverflowError (exit 1)
    err = _exits_2_with_one_line(capsys, [
        "duality-check", "--seed=-1", "--out", str(tmp_path / "out")])
    assert "seed must be an integer in [0, 2^64), got '-1'" in err


def test_missing_config_file_exits_2(tmp_path):
    rc = main(["incidence-sweep", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


# each raised a configparser.Error or UnicodeDecodeError (exit 1, a
# traceback of 16 to 26 lines)
@pytest.mark.parametrize("data", [
    pytest.param(b"hs = 1/48\n", id="no-section-header"),
    pytest.param(b"[lw-sweep]\nhs = 1/48\nhs = 1/64\n", id="duplicate-option"),
    pytest.param(b"[lw-sweep]\nhs = 1/48\n[lw-sweep]\nscale = 0.5\n",
                 id="duplicate-section"),
    pytest.param(b"[lw-sweep]\nhs = %(x)s\n", id="interpolation"),
    pytest.param(b"[lw-sweep]\nhs = 1/48 \xff\n", id="non-utf-8-byte"),
])
def test_malformed_config_file_exits_2(tmp_path, capsys, data):
    ini = tmp_path / "cfg.ini"
    ini.write_bytes(data)
    err = _exits_2_with_one_line(capsys, [
        "lw-sweep", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert err.startswith(f"config error: config file {ini}: ")
    assert not (tmp_path / "out").exists()


# both raised FileExistsError or NotADirectoryError (exit 1) once the
# experiment had run
@pytest.mark.parametrize("sub", [pytest.param("", id="a-file"),
                                 pytest.param("sub", id="under-a-file")])
def test_unusable_out_exits_2_before_running(tmp_path, capsys, monkeypatch,
                                             sub):
    from geomlab import acceptance

    def no_run(*args, **kwargs):
        raise AssertionError("ran the experiment")

    monkeypatch.setattr(acceptance, "duality_check", no_run)
    file = tmp_path / "file"
    file.write_text("")
    out = file / sub if sub else file
    err = _exits_2_with_one_line(capsys, ["duality-check", "--out", str(out)])
    assert f"--out {out}: {file} is not a writable directory" in err


@pytest.mark.parametrize("experiment, function", [
    ("star-bound", "star_bound"), ("tube-volume", "tube_volume"),
    ("duality-check", "duality_check")])
def test_refused_input_of_every_experiment_exits_2(tmp_path, capsys,
                                                   monkeypatch, experiment,
                                                   function):
    from geomlab import acceptance
    from geomlab.planar import GridTooLarge

    def refuse(*args, **kwargs):
        raise GridTooLarge("a lattice past its cap")

    monkeypatch.setattr(acceptance, function, refuse)
    err = _exits_2_with_one_line(capsys, [
        experiment, "--out", str(tmp_path / "out")])
    assert err == f"config error: {experiment}: a lattice past its cap\n"
    assert not (tmp_path / "out").exists()


def test_incidence_sweep_run_and_artifacts(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\ndeltas = 2^-6 2^-7 2^-8\n")
    out = tmp_path / "out"
    rc = main(["incidence-sweep", "--config", str(ini), "--out", str(out),
               "--verify"])
    assert rc == 0
    csv_text = (out / "incidence-sweep.csv").read_text()
    assert csv_text.startswith("# experiment=incidence-sweep")
    assert "delta,n_points,n_lines,count,ratio" in csv_text
    summary = json.loads((out / "incidence-sweep_summary.json").read_text())
    assert summary["ratio_band"] <= 100.0
    assert (out / "report.txt").exists()


def test_reproducibility_and_thread_independence(tmp_path):
    # random sets are far from sharp: over more deltas their ratio band
    # passes 100
    for family, deltas in (("tube", ""),
                           ("random", "deltas = 2^-6 2^-7 2^-8 2^-9\n")):
        ini = tmp_path / f"{family}.ini"
        ini.write_text(f"[incidence-sweep]\nfamily = {family}\n{deltas}")
        out1, out2 = (tmp_path / family / d for d in ("a", "b"))
        args = ["incidence-sweep", "--seed", "5", "--config", str(ini)]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1 = (out1 / "incidence-sweep.csv").read_bytes()
        assert f"# generator={family}\n".encode() in b1
        assert b1 == (out2 / "incidence-sweep.csv").read_bytes()


def _mostly(valid, odd):
    """Tokens drawn three times in four from valid, else from odd."""
    return st.one_of(valid, valid, valid, odd)


# config values: numbers, fractions and powers, junk tokens, extremes and
# empty values; the valid counts stay small, so that no example asks for a
# huge instance
_TOKENS = {
    "count": _mostly(
        st.one_of(st.integers(1, 600).map(str),
                  st.integers(1, 300).map("{}/1".format),
                  st.integers(0, 9).map("2^{}".format)),
        st.sampled_from(["", "0", "-1", "-0", "0.5", "5/2", "2^-1", "1e400",
                         "1e300", "2^63", "2^64", "nan", "inf", "abc", "1/0",
                         "2^", "0x10", "1_0", "100 200"])),
    "deltas": _mostly(
        st.one_of(st.integers(2, 40).map("2^-{}".format),
                  st.integers(2, 3000).map("1/{}".format),
                  st.floats(1e-4, 0.5).map(repr)),
        st.sampled_from(["", "0", "-0.1", "1", "2", "5e-324", "1e-300",
                         "2^-1074", "1e-18", "2^-62", "1e400", "nan", "-inf",
                         "abc", "2^x", "1/0"])),
    "seed": _mostly(
        st.integers(0, 2 ** 64 - 1).map(str),
        st.sampled_from(["", "-1", "18446744073709551616", "2^3", "1.5",
                         "abc"])),
}


@st.composite
def _random_family_bodies(draw):
    body = "[incidence-sweep]\nfamily = random\n"
    for key, kind, most in (("n_points", "count", 1), ("n_lines", "count", 1),
                            ("deltas", "deltas", 3), ("seed", "seed", 1)):
        if key == "deltas" or draw(st.booleans()):
            toks = draw(st.lists(_TOKENS[kind], min_size=1, max_size=most))
            body += f"{key} = {' '.join(toks)}\n"
    return body


@settings(max_examples=100, deadline=5000, derandomize=True, database=None)
@given(_random_family_bodies())
def test_random_family_configs_exit_0_or_2_or_fail_report(body):
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "cfg.ini"
        ini.write_text(body)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["incidence-sweep", "--config", str(ini),
                       "--out", str(Path(tmp) / "out")])
        lines = err.getvalue().splitlines()
        if rc == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: ")
        else:
            assert rc in (0, 1) and lines == []
            report = (Path(tmp) / "out" / "report.txt").read_text()
            assert report.endswith(f"result: {('PASS', 'FAIL')[rc]}\n\n")


# the options of the experiments whose config checks the next test fuzzes:
# (key, tokens, most tokens a value takes)
_FUZZED_OPTIONS = {
    "duality-check": (
        ("delta", _TOKENS["deltas"], 2),
        ("pairs", st.one_of(_TOKENS["count"], st.sampled_from(
            ["1000000000000000", "2^20", "1048577"])), 2),
        ("seed", _TOKENS["seed"], 1)),
    "star-bound": (
        ("epsilons", st.one_of(_TOKENS["deltas"], st.sampled_from(
            ["2^-12", "2^-13", "0.1", "0.26", "1/3"])), 3),
        ("seed", _TOKENS["seed"], 1)),
    "tube-volume": (
        ("deltas", st.one_of(_TOKENS["deltas"], st.sampled_from(
            ["2^-17", "2^-18", "9", "1e200"])), 3),
        ("seed", _TOKENS["seed"], 1)),
    # h of at least 1/32 and widths of at most 2 keep the grids small; the
    # extremes are turned away by the sample cap or as all-zero grids, and
    # the largest grid they allow (width 100 at h = 1) runs in under 2 s
    "sobolev-check": (
        ("function", st.sampled_from(
            ["bump", "narrow_bump", "aniso_bump", "sheared_bump",
             "smoothed_box", "nope"]), 1),
        ("width", _mostly(
            st.sampled_from(["0.25", "0.5", "0.75", "1/3", "2"]),
            st.sampled_from(["100", "1e-9", "1e300", "5e-324", "0", "-1",
                             "nan", "abc", ""])), 2),
        ("h", st.one_of(
            st.sampled_from(["1/5", "1/8", "1/12", "1/16", "1/32", "2^-3",
                             "0.3"]),
            st.sampled_from(["1", "2", "1e-5", "5e-324", "2^-1074", "0",
                             "-1/64", "inf", "abc", ""])), 2),
        ("seed", _TOKENS["seed"], 1)),
    # deltas of at least 2^-6 keep the rectangle family small (the
    # default); the extremes are turned away by the lattice caps, as
    # infeasible k-stars or by the option checks
    "rich-points": (
        ("family", st.sampled_from(["rectangle", "k_star", "tube"]), 1),
        ("deltas", _mostly(
            st.sampled_from(["2^-2", "2^-4", "2^-5", "2^-6", "1/10", "1/40",
                             "0.3", "1"]),
            st.sampled_from(["2^-11", "2^-14", "1e-9", "5e-324", "2^-1074",
                             "0", "-1", "2", "1e400", "nan", "abc", ""])), 3),
        ("ks", _mostly(
            st.sampled_from(["2", "3", "4", "8", "16", "100"]),
            st.sampled_from(["1", "0", "-1", "2.5", "2^62", "1e308",
                             "1e400", "nan", "abc", ""])), 3),
        ("epsilon_ratios", _mostly(
            st.sampled_from(["1", "2", "4", "16", "1.5"]),
            st.sampled_from(["0.5", "0", "1e300", "1e400", "5e-324", "nan",
                             "abc", ""])), 3),
        ("seed", _TOKENS["seed"], 1)),
    # up to 20 unions at h of at least 1/24 keep the runs short (100, the
    # default, at 1/24 take about 0.4 s); the extremes are turned away by
    # the trials bound, the voxelize limits or as all-empty sets
    "isoperimetric": (
        ("trials", _mostly(
            st.integers(1, 20).map(str),
            st.sampled_from(["0", "-1", "2.5", "10001", "1000000000000",
                             "1e400", "nan", "abc", ""])), 2),
        ("h", _mostly(
            st.sampled_from(["1/8", "1/12", "1/16", "1/24", "0.1", "2^-3"]),
            st.sampled_from(["1", "2", "1e10", "1e-4", "1e-7", "5e-324",
                             "0", "-1/24", "inf", "abc", ""])), 2),
        ("seed", _TOKENS["seed"], 1)),
    # deltas of at least 2^-8 keep the families small; the extremes are
    # turned away by the generators' ranges and caps.  The random family,
    # whose ratio band may pass 100 (a FAIL report), has its own test above
    "incidence-sweep": (
        ("family", st.sampled_from(["tube", "rectangle", "k_star", "nope"]),
         1),
        ("deltas", _mostly(
            st.sampled_from(["2^-4", "2^-5", "2^-6", "2^-7", "2^-8", "1/10",
                             "1/40", "0.3"]),
            st.sampled_from(["2^-20", "2^-40", "1e-18", "2^-62", "5e-324",
                             "0", "-1", "2", "1e400", "nan", "abc", ""])), 3),
        ("r", _mostly(
            st.sampled_from(["1", "0.5", "0.25", "1/8", "2^-3"]),
            st.sampled_from(["0", "-1", "2", "1e-300", "5e-324", "1e400",
                             "nan", "abc", ""])), 1),
        ("s", _mostly(
            st.sampled_from(["1", "0.5", "0.25", "1/8", "2^-3"]),
            st.sampled_from(["0", "-1", "2", "1e-300", "5e-324", "1e400",
                             "nan", "abc", ""])), 1),
        ("epsilon", _mostly(
            st.sampled_from(["2^-4", "2^-6", "0.1", "1/3", "1"]),
            st.sampled_from(["2", "1e-9", "5e-324", "0", "1e400", "nan",
                             "abc", ""])), 1),
        ("k", _mostly(
            st.sampled_from(["2", "3", "4", "8"]),
            st.sampled_from(["1", "0", "2.5", "2^62", "1e308", "1e400", "nan",
                             "abc", ""])), 1),
        ("m", _mostly(
            st.sampled_from(["1", "2", "5", "20"]),
            st.sampled_from(["0", "-1", "2.5", "2^62", "1e308", "1e400",
                             "nan", "abc", ""])), 1),
        ("seed", _TOKENS["seed"], 1)),
    # h of at least 1/24 keeps the voxel sets small; the extremes are
    # turned away by the voxelize limits or as empty sets
    "lw-sweep": (
        ("hs", _mostly(
            st.sampled_from(["1/8", "1/12", "1/16", "1/24", "0.1", "2^-3"]),
            st.sampled_from(["1", "2", "1e-4", "1e-5", "1e-7", "5e-324", "0",
                             "-1/24", "inf", "abc", ""])), 2),
        ("scale", _mostly(
            st.sampled_from(["0.5", "0.25", "0.75", "1", "1/3"]),
            st.sampled_from(["0", "-1", "2", "1e10", "1e-300", "5e-324",
                             "1e400", "nan", "abc", ""])), 1),
        ("seed", _TOKENS["seed"], 1)),
    # deltas of at least 2^-6 keep the model box small (2^-7, the default's
    # finest, takes about 0.2 s); the extremes are turned away by the
    # voxelize limits, the delta range or as empty sets
    "reduce-pipeline": (
        ("deltas", _mostly(
            st.sampled_from(["2^-4", "2^-5", "2^-6", "1/10", "1/20", "0.3",
                             "0.5"]),
            st.sampled_from(["2^-12", "1e-9", "5e-324", "0", "-1", "0.9",
                             "1e400", "nan", "abc", ""])), 3),
        ("seed", _TOKENS["seed"], 1)),
}


@st.composite
def _fuzzed_bodies(draw):
    experiment = draw(st.sampled_from(sorted(_FUZZED_OPTIONS)))
    body, family = f"[{experiment}]\n", "tube"
    sweep = experiment == "incidence-sweep"
    for key, tokens, most in _FUZZED_OPTIONS[experiment]:
        # incidence-sweep always gets deltas (its default deltas reach
        # 2^-12, where the rectangle family takes 7 s), and a key of another
        # family one time in eight
        if sweep and key == "deltas":
            given = True
        elif sweep and key in _SWEEP_KEYS:
            stray = key not in SWEEP_FAMILIES.get(family, ())
            given = (draw(st.integers(0, 7)) == 0 if stray
                     else draw(st.booleans()))
        else:
            given = draw(st.booleans())
        if given:
            toks = draw(st.lists(tokens, min_size=1, max_size=most))
            body += f"{key} = {' '.join(toks)}\n"
            if key == "family":
                family = toks[0]
    return experiment, body


@settings(max_examples=160, deadline=5000, derandomize=True, database=None)
@given(_fuzzed_bodies())
def test_fuzzed_configs_exit_0_or_2(case):
    # exit 0, or exit 2 with one config error line, never a traceback, a
    # warning (which a run outside pytest prints to stderr) or a FAIL report
    experiment, body = case
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "cfg.ini"
        ini.write_text(body)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([experiment, "--config", str(ini),
                       "--out", str(Path(tmp) / "out")])
        assert [str(w.message) for w in caught] == []
        lines = err.getvalue().splitlines()
        if rc == 2:
            assert len(lines) == 1 and lines[0].startswith("config error: ")
        else:
            assert rc == 0 and lines == []
            report = (Path(tmp) / "out" / "report.txt").read_text()
            assert report.endswith("result: PASS\n\n")


@pytest.mark.parametrize("body", [
    "epsilons = 1/1936\n", "epsilons = 0.26 0.024511130837167522\n",
    "epsilons = 0.03046441814592374\n"])
def test_star_bound_passes_at_epsilons_off_the_dyadic_grid(tmp_path, body):
    # found by test_fuzzed_configs_exit_0_or_2: the family
    # was laid in a strip of math.hypot's width, so some of its lines
    # missed the origin by an ulp of the incidence test and the run
    # reported FAIL (exit 1)
    ini = tmp_path / "cfg.ini"
    ini.write_text("[star-bound]\n" + body)
    out = tmp_path / "out"
    assert main(["star-bound", "--config", str(ini), "--out", str(out)]) == 0
    summary = json.loads((out / "star-bound_summary.json").read_text())
    assert summary["all_in_band"] is True


def test_random_sweep_that_breaks_the_band_reports_fail(tmp_path, capsys):
    # random sets are not sharp: at seed 5 their ratio falls with delta
    # and the band over the seven default deltas is about 301
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\nfamily = random\nseed = 5\n")
    out = tmp_path / "out"
    assert main(["incidence-sweep", "--config", str(ini),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    assert (out / "report.txt").read_text().endswith("result: FAIL\n\n")


def test_duality_check_cli(tmp_path):
    rc = main(["duality-check", "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "out" / "duality-check_summary.json").read_text())
    assert summary["failures"] == 0


def test_sobolev_check_cli_flags(tmp_path):
    rc = main(["sobolev-check", "--out", str(tmp_path / "out"),
               "--function", "bump", "--width", "0.5", "--h", "1/48"])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "out" / "sobolev-check_summary.json").read_text())
    assert summary["lemma_ok"] is True


def test_sobolev_check_unknown_function_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch):
    from geomlab import sobolev

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a grid")

    monkeypatch.setattr(sobolev, "sample_to_grid", no_sampling)
    err = _exits_2_with_one_line(capsys, [
        "sobolev-check", "--out", str(tmp_path / "out"),
        "--function", "nope", "--h", "1/128"])
    assert "unknown function 'nope'" in err


def test_tube_volume_at_a_coarse_delta_that_still_measures(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[tube-volume]\ndeltas = 1/4\n")
    out = tmp_path / "out"
    assert main(["tube-volume", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "tube-volume.csv").exists()


def test_rich_points_kstar_records_infeasible_rows(tmp_path):
    ini = tmp_path / "cfg.ini"
    # k = 16 at epsilon = 16 delta busts the slope budget at delta = 2^-6:
    # the run must keep going and record the row as infeasible
    ini.write_text("[rich-points]\nfamily = k_star\ndeltas = 2^-6 2^-10\n"
                   "ks = 2 16\nepsilon_ratios = 16\n")
    out = tmp_path / "out"
    rc = main(["rich-points", "--config", str(ini), "--out", str(out)])
    assert rc == 0
    text = (out / "rich-points.csv").read_text()
    assert "infeasible" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 4  # header + 2 deltas x 2 ks


def test_family_keys_section(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\nfamily = random\nn_points = 120\n"
                   "n_lines = 150\ndeltas = 2^-6\nseed = 3\n")
    out = tmp_path / "out"
    rc = main(["incidence-sweep", "--config", str(ini), "--out", str(out),
               "--verify"])
    assert rc == 0
    text = (out / "incidence-sweep.csv").read_text()
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[1].split(",")[1:3] == ["120", "150"]
    # family keys take the documented syntax: fractions and powers
    ini.write_text("[incidence-sweep]\nfamily = rectangle\nr = 1\ns = 1/8\n"
                   "epsilon = 2^-5\ndeltas = 2^-6\n")
    assert main(["incidence-sweep", "--config", str(ini), "--out",
                 str(tmp_path / "rect"), "--verify"]) == 0


@pytest.mark.parametrize("body", [
    "family = k_star\nk = 3\nm = 2\ndeltas = 2^-8 2^-9\n",
    "family = random\ndeltas = 2^-6 2^-7\n",
])
def test_csv_provenance_names_the_family_that_ran(tmp_path, body):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\n" + body)
    out = tmp_path / "out"
    assert main(["incidence-sweep", "--config", str(ini), "--out",
                 str(out)]) == 0
    family = body.splitlines()[0].split(" = ")[1]
    lines = (out / "incidence-sweep.csv").read_text().splitlines()
    assert lines[1] == f"# generator={family}"


def test_measure_constants_script(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "measure_constants.py")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(repo / "src")),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "out_constants.json").read_text())
    assert sorted(record) == [
        "A1_tube_neighborhood", "A_core_projection", "gns_ratio_ceiling",
        "incidence_ratio_max", "incidence_ratio_min", "lw_ratio_ceiling"]
    assert json.loads(proc.stdout) == record


# sha256[:16] of <experiment>.csv and <experiment>_summary.json for tiny
# configs of the experiments no other test runs through the CLI
_ARTIFACT_FINGERPRINTS = {
    "star-bound": ("epsilons = 2^-4 2^-5\n",
                   "a8eac691dced5998", "c63e9e88aa89c873"),
    "lw-sweep": ("hs = 1/16\nscale = 0.5\n",
                 "d3d161f5b41dc25d", "fb518bfe87444f0c"),
    "tube-volume": ("deltas = 2^-4 2^-5\n",
                    "296f92ccbfdd2258", "15941dba91e57075"),
    "isoperimetric": ("trials = 5\nh = 1/16\n",
                      "86d4c40185503c0d", "129e4dcb643b51cf"),
    "reduce-pipeline": ("deltas = 2^-4 2^-5\n",
                        "0624b5cbbd0d1766", "0ff3aa2cdafe7bb2"),
    "rich-points": ("family = rectangle\ndeltas = 2^-4\nks = 2 4\n"
                    "epsilon_ratios = 1 4\n",
                    "8cc40b796b2b913a", "89046d7dcb85a53f"),
}


@pytest.mark.parametrize("experiment", sorted(_ARTIFACT_FINGERPRINTS))
def test_artifacts_match_recorded_fingerprints(tmp_path, experiment):
    body, csv_digest, summary_digest = _ARTIFACT_FINGERPRINTS[experiment]
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{experiment}]\n" + body)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(ini), "--out", str(out)]) == 0
    digests = [hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
               for name in (f"{experiment}.csv", f"{experiment}_summary.json")]
    assert digests == [csv_digest, summary_digest]
