"""Tests for config parsing, the experiment runner, and reproducibility."""

import hashlib
import json

import pytest

from geomlab.cli import (ConfigError, load_config, main, parse_list,
                         parse_number)


def test_number_parsing():
    assert parse_number("2^-6") == 2.0 ** -6
    assert parse_number("0.125") == 0.125
    assert parse_list("2^-4 0.5 1") == [0.0625, 0.5, 1.0]


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
    assert parse_list("1/48 2^-3") == [1.0 / 48.0, 0.125]
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
    pytest.param("kind = k_star\nk = 3\ndeltas = 2^-6\n", "needs m",
                 id="k_star-without-m"),
    pytest.param("kind = k_star\ndeltas = 2^-6\n", "needs k, m",
                 id="k_star-without-k"),
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
])
def test_bad_experiment_values_exit_2(tmp_path, capsys, experiment, body,
                                      needle):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{experiment}]\n" + body)
    err = _exits_2_with_one_line(capsys, [
        experiment, "--config", str(ini), "--out", str(tmp_path / "out")])
    assert needle in err


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
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    args = ["incidence-sweep", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    monkeypatch.setenv("LAB_THREADS", "4")  # rows evaluated in a thread pool
    assert main(args + ["--out", str(out3)]) == 0
    b1 = (out1 / "incidence-sweep.csv").read_bytes()
    assert b1 == (out2 / "incidence-sweep.csv").read_bytes()
    assert b1 == (out3 / "incidence-sweep.csv").read_bytes()


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


def test_generator_spec_section(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[incidence-sweep]\nkind = random\nn_points = 120\n"
                   "n_lines = 150\ndeltas = 2^-6\nseed = 3\n")
    out = tmp_path / "out"
    rc = main(["incidence-sweep", "--config", str(ini), "--out", str(out),
               "--verify"])
    assert rc == 0
    text = (out / "incidence-sweep.csv").read_text()
    assert ",120,150," in text.replace("120,150", "120,150")
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[1].split(",")[1:3] == ["120", "150"]
    # spec numbers take the documented syntax: fractions and powers
    ini.write_text("[incidence-sweep]\nkind = rectangle\nr = 1\ns = 1/8\n"
                   "epsilon = 2^-5\ndeltas = 2^-6\n")
    assert main(["incidence-sweep", "--config", str(ini), "--out",
                 str(tmp_path / "rect"), "--verify"]) == 0


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
