"""Tests for config parsing, the experiment runner, and reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlab.cli import ConfigError, load_config, main, parse_number


def test_number_parsing():
    assert parse_number("2^-6") == 2.0 ** -6
    assert parse_number("0.125") == 0.125
    assert [parse_number(t) for t in ("2^-4", "0.5", "1")] == [0.0625, 0.5, 1.0]


def test_defaults_and_overrides(tmp_path):
    cfg = load_config("incidence-sweep", None, str(tmp_path), seed=7,
                      verify=False)
    assert cfg.seed == 7
    assert cfg.floats("deltas")[0] == 2.0 ** -6
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\ndeltas = 2^-5 2^-6\nseed = 99\n")
    cfg2 = load_config("incidence-sweep", str(ini), str(tmp_path), None, False)
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


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config("nonsense", None, str(tmp_path), None, False)


def test_empty_sweep_list_exits_2(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\ndeltas =\n")
    rc = main(["incidence-sweep", "--config", str(ini),
               "--out", str(tmp_path / "out")])
    assert rc == 2


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


@pytest.mark.parametrize("experiment, body, needle", [
    ("duality-check", "pairs = -5\n", "'pairs'"),
    ("duality-check", "pairs = 5/2\n", "whole number"),
    ("isoperimetric", "trials = 0\n", "'trials'"),
    ("sobolev-check", "h = 0\n", "'h'"),
    ("sobolev-check", "h = -1/64\n", "'h'"),
    ("lw-sweep", "scale = 0\n", "'scale'"),
    ("reduce-pipeline", "deltas = 0.9\n", "<= 0.5"),
    ("star-bound", "epsilons = 2\n", "<= 1"),
    ("rich-points", "epsilon_ratios = 100\n", "exceeds 1"),
    pytest.param("lw-sweep", "hs = 2\n", "'hs': too coarse",
                 id="lw-sweep-hs-too-coarse"),
    pytest.param("isoperimetric", "h = 2\n", "'h': too coarse",
                 id="isoperimetric-h-too-coarse"),
    pytest.param("tube-volume", "deltas = 100\n", "'deltas': too coarse",
                 id="tube-volume-deltas-too-coarse"),
    pytest.param("tube-volume", "deltas = 2^-4 100\n",
                 "'deltas': too coarse at delta=100",
                 id="tube-volume-one-delta-too-coarse"),
    pytest.param("rich-points", "family = k_star\nks = 2\ndeltas = 1\n",
                 "family k_star is infeasible at every",
                 id="rich-points-every-row-infeasible"),
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


def test_negative_seed_exits_2(tmp_path, capsys):
    # the seeds feed uint64 streams; -1 used to raise OverflowError (exit 1)
    err = _exits_2_with_one_line(capsys, [
        "duality-check", "--seed=-1", "--out", str(tmp_path / "out")])
    assert "seed must be an integer in [0, 2^64), got '-1'" in err


@pytest.mark.parametrize("experiment", ["incidence-sweep", "duality-check"])
def test_bad_lab_threads_exits_2(tmp_path, capsys, monkeypatch, experiment):
    monkeypatch.setenv("LAB_THREADS", "abc")
    err = _exits_2_with_one_line(capsys, [
        experiment, "--out", str(tmp_path / "out")])
    assert "LAB_THREADS" in err


def test_missing_config_file_exits_2(tmp_path):
    rc = main(["incidence-sweep", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "out")])
    assert rc == 2


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


def test_reproducibility_and_thread_independence(tmp_path, monkeypatch):
    # random sets are far from sharp: over more deltas their ratio band
    # passes 100
    for family, deltas in (("tube", ""),
                           ("random", "deltas = 2^-6 2^-7 2^-8 2^-9\n")):
        ini = tmp_path / f"{family}.ini"
        ini.write_text(f"[incidence-sweep]\nfamily = {family}\n{deltas}")
        out1, out2, out3 = (tmp_path / family / d for d in ("a", "b", "c"))
        args = ["incidence-sweep", "--seed", "5", "--config", str(ini)]
        monkeypatch.delenv("LAB_THREADS", raising=False)
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        monkeypatch.setenv("LAB_THREADS", "4")  # rows run in a thread pool
        assert main(args + ["--out", str(out3)]) == 0
        b1 = (out1 / "incidence-sweep.csv").read_bytes()
        assert f"# generator={family}\n".encode() in b1
        assert b1 == (out2 / "incidence-sweep.csv").read_bytes()
        assert b1 == (out3 / "incidence-sweep.csv").read_bytes()


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


def test_duality_check_cli(tmp_path):
    rc = main(["duality-check", "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads(
        (tmp_path / "out" / "duality-check_summary.json").read_text())
    assert summary["failures"] == 0


def test_sobolev_check_cli_flags(tmp_path):
    rc = main(["sobolev-check", "--out", str(tmp_path / "out"),
               "--function", "bump", "--width", "0.5", "--h", "1/32"])
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
    ini.write_text("[tube-volume]\ndeltas = 2\n")
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
