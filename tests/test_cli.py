"""End-to-end command line runs on small configs, in process via main()."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import cfarmismatch
from cfarmismatch import cli, mcengine
from cfarmismatch.cli import SWEEP_FIELDS, main
from cfarmismatch.config import config_hash, from_dict
from cfarmismatch.detect import AMF
from cfarmismatch.mcengine import calibrate_threshold, kelly_threshold
from cfarmismatch.report import read_csv

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["calibrate", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_path_choice_is_usage_error():
    assert main(["sweep", "--path", "magic"]) == 1


def test_missing_config_file(capsys):
    assert main(["calibrate", "--config", "/nonexistent/cfg.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_corrupt_config_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["calibrate", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "cfg.json", {"n_trails": 5})
    assert main(["calibrate", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_workers_value(tmp_path, capsys):
    path = write_cfg(tmp_path, "cfg.json", {})
    assert main(["calibrate", "--config", path, "--workers", "0"]) == 1
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("cfg,label", [
    ({"detectors": [{"kind": "kalson", "kappa": 2.0}, {"kind": "kalson", "kappa": 2.0000001}]},
     "kalson_k2"),
    ({"clairvoyant_c": [1.0, 1.0]}, "clairvoyant_c1"),
])
def test_repeated_detector_label_is_config_error(tmp_path, capsys, cfg, label):
    small = {"n_draws": 3, "pfa_target": 1e-2, "trials": {"calibration": 100_000, "pfa": 1000}}
    path = write_cfg(tmp_path, "cfg.json", {**cfg, **small})
    out = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and label in err
    assert not out.exists()


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["calibrate", "--out", str(out), "--workers", "1"]) == 1
    assert "config error" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_calibrate_writes_threshold_table(tmp_path, capsys):
    cfg = {
        "seed": 901,
        "detectors": [{"kind": "kelly"}, {"kind": "amf"}, {"kind": "kalson", "kappa": 1.0}],
        "pfa_target": 1e-2,
        "trials": {"calibration": 200_000},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main(["calibrate", "--config", path, "--out", str(out), "--workers", "2"]) == 0
    text = capsys.readouterr().out
    assert "kelly" in text and "amf" in text and "kalson_k1" in text

    obj = json.loads((out / "thresholds.json").read_text())
    entries = obj["thresholds"]
    assert [e["kind"] for e in entries] == ["kelly", "amf", "kalson"]

    # The thresholds are closed forms, so equality also shows that the JSON
    # round trip is lossless.
    eta = kelly_threshold(1e-2, 16, 32)
    assert entries[0]["threshold"] == eta
    assert entries[1]["threshold"] == calibrate_threshold(AMF, 16, 32, 1e-2)
    assert entries[2]["threshold"] == eta
    for e in entries:
        assert abs(e["achieved"]["p_hat"] - 1e-2) < 1.5e-3

    meta = obj["meta"]
    norm = from_dict(cfg).normalized
    del norm["out_dir"]
    assert meta["config_sha256"] == config_hash(norm)
    assert "out_dir" not in json.loads(meta["config"])
    assert meta["seed"] == 901
    assert "numpy" in meta["generator"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = {
        "seed": 901,
        "detectors": [{"kind": "kelly"}],
        "pfa_target": 1e-2,
        "trials": {"calibration": 10_000},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main(["calibrate", "--config", path, "--out", str(out),
                 "--seed", "777", "--workers", "1"]) == 0
    obj = json.loads((out / "thresholds.json").read_text())
    assert obj["meta"]["seed"] == 777


def test_cdf_samples_and_plots(tmp_path):
    cfg = {
        "seed": 905,
        "mismatch": {"variant": "identity"},
        "n_cdf_draws": 2,
        "trials": {"cdf_samples": 10_000},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main(["cdf", "--config", path, "--out", str(out), "--workers", "1"]) == 0

    meta, rows = read_csv(out / "cdf_samples.csv")
    assert len(rows) == 2 * 10_000
    assert set(r["draw_id"] for r in rows) == {"0", "1"}
    beta0 = np.array([float(r["beta"]) for r in rows if r["draw_id"] == "0"])
    assert ((beta0 > 0) & (beta0 < 1)).all()
    # identity means no mismatch, so the loss factor must follow its matched
    # reference law; sup distance at 1e4 samples stays well under 0.025
    from scipy import stats

    d = stats.kstest(beta0, stats.beta(18, 15).cdf).statistic
    assert d < 0.025

    for name in ("cdf_beta.svg", "cdf_t.svg"):
        root = ET.parse(out / name).getroot()
        # one staircase per draw plus the matched reference curve
        assert len(root.findall(f"{SVG_NS}polyline")) == 3
        desc = json.loads(root.find(f"{SVG_NS}desc").text)
        assert desc["config_sha256"] == meta["config_sha256"]


SWEEP_CFG = {
    "seed": 907,
    "mismatch": {"variant": "inv_wishart", "delta_db": 3.0},
    "detectors": [{"kind": "kelly"}, {"kind": "amf"}],
    "clairvoyant_c": [1.0],
    "n_draws": 3,
    "pfa_target": 1e-2,
    "trials": {"calibration": 100_000, "pfa": 20_000},
}


def test_sweep_csv_schema_and_summary(tmp_path, capsys):
    path = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
    out = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out), "--workers", "2"]) == 0
    text = capsys.readouterr().out
    assert "clairvoyant_c1" in text

    raw = (out / "sweep.csv").read_text().splitlines()
    header = next(line for line in raw if not line.startswith("# "))
    assert header == ",".join(SWEEP_FIELDS)

    _, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3 * 3
    assert [r["draw_id"] for r in rows] == ["0"] * 3 + ["1"] * 3 + ["2"] * 3
    assert set(r["detector"] for r in rows) == {"kelly", "amf", "clairvoyant_c1"}
    for r in rows:
        assert r["variant"] == "inv_wishart"
        assert int(r["exceedances"]) > 0
        assert 0.0 < float(r["pfa_hat"]) < 1.0
        assert float(r["ci_lo"]) <= float(r["pfa_hat"]) <= float(r["ci_hi"])
        # false-alarm sweep leaves every detection cell empty
        assert r["pd_hat"] == "" and r["snr_db"] == ""
    for r in rows:
        if r["detector"] == "clairvoyant_c1":
            # the row records the resolved shrinkage: c times the drawn gain
            # ratio, which is also stamped into draw_meta
            schur = float(r["draw_meta"].rpartition("omega_schur=")[2])
            assert float(r["kappa"]) == pytest.approx(schur, rel=1e-7)
        else:
            assert r["kappa"] == ""

    obj = json.loads((out / "sweep_summary.json").read_text())
    assert obj["errors"] == []
    assert set(obj["summary"]) == {"kelly", "amf", "clairvoyant_c1"}
    for entry in obj["summary"].values():
        assert entry["draws"] == 3
        assert "mean_log10_pfa" in entry
    assert ET.parse(out / "sweep_pfa.svg").getroot() is not None


def test_sweep_rerun_is_byte_identical(tmp_path):
    path = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
    out = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out), "--workers", "2"]) == 0
    first = (out / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", path, "--out", str(out), "--workers", "2"]) == 0
    assert (out / "sweep.csv").read_bytes() == first


def test_sweep_is_byte_identical_under_any_out(tmp_path):
    path = write_cfg(tmp_path, "cfg.json", SWEEP_CFG)
    a, b = tmp_path / "a", tmp_path / "elsewhere" / "b"
    for out in (a, b):
        assert main(["sweep", "--config", path, "--out", str(out), "--seed", "7",
                     "--workers", "1"]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == ["sweep.csv", "sweep_pfa.svg", "sweep_summary.json"]
    assert sorted(p.name for p in b.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("command", ["sweep", "roc"])
def test_summary_line_names_every_summary_field(tmp_path, capsys, command):
    cfg = {**SWEEP_CFG, "seed": 931, "pd_target": 0.5,
           "trials": {"calibration": 10_000, "pfa": 2_000, "pd": 2_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main([command, "--config", path, "--out", str(out), "--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads((out / f"{command}_summary.json").read_text())["summary"]
    # roc ignores clairvoyant_c, so it has two plans where sweep has three
    assert len(summary) == (3 if command == "sweep" else 2)
    for label, entry in summary.items():
        [line] = [line for line in lines if line.lstrip().startswith(f"{label}: ")]
        keys = [field.partition("=")[0] for field in line.partition(": ")[2].split()]
        assert keys == list(entry)


def test_sweep_rows_do_not_depend_on_pd_trials(tmp_path):
    rows = []
    for pd_trials in (100, 1_000_000):
        cfg = {**SWEEP_CFG, "trials": {**SWEEP_CFG["trials"], "pfa": 4_096, "pd": pd_trials}}
        path = write_cfg(tmp_path, f"cfg{pd_trials}.json", cfg)
        out = tmp_path / f"pd{pd_trials}"
        assert main(["sweep", "--config", path, "--out", str(out), "--workers", "1"]) == 0
        rows.append(read_csv(out / "sweep.csv")[1])
    assert len(rows[0]) == 9
    assert rows[1] == rows[0]


def test_dead_worker_is_not_a_numerical_failure(tmp_path, monkeypatch):
    # BrokenProcessPool is a RuntimeError, which main maps to exit code 3;
    # a worker that died is a fault of the run, not of the numbers.
    class DeadPool:
        _broken = False

        def __init__(self, max_workers):
            pass

        def map(self, fn, args_list, chunksize=1):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")

        def shutdown(self):
            pass

    mcengine.shutdown_pool()
    monkeypatch.setattr(mcengine, "available_cpus", lambda: 2)
    monkeypatch.setattr(mcengine, "ProcessPoolExecutor", DeadPool)
    cfg = {"detectors": [{"kind": "kelly"}], "pfa_target": 1e-2, "trials": {"calibration": 10_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    with pytest.raises(BrokenProcessPool):
        main(["calibrate", "--config", path, "--out", str(tmp_path / "res"), "--workers", "2"])


@pytest.mark.parametrize("command,svg", [("sweep", "sweep_pfa.svg"), ("roc", "roc_scatter.svg")])
def test_output_headers_name_the_trial_path(tmp_path, command, svg):
    # --path is a flag, not a config key: the two paths draw different rows
    # from one config and seed, so every header must say which path ran.
    cfg = {"seed": 925, "mismatch": {"variant": "inv_wishart", "delta_db": 6.0},
           "detectors": [{"kind": "kelly"}], "n_draws": 2, "pfa_target": 1e-2, "pd_target": 0.5,
           "trials": {"calibration": 10_000, "pfa": 2_000, "pd": 2_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    headers = {}
    for trial_path in ("fast", "direct"):
        out = tmp_path / trial_path
        assert main([command, "--config", path, "--out", str(out), "--workers", "1",
                     "--path", trial_path]) == 0
        meta, _ = read_csv(out / f"{command}.csv")
        assert meta["path"] == trial_path
        assert json.loads((out / f"{command}_summary.json").read_text())["meta"]["path"] == trial_path
        desc = json.loads(ET.parse(out / svg).getroot().find(f"{SVG_NS}desc").text)
        assert desc["path"] == trial_path
        headers[trial_path] = [line for line in (out / f"{command}.csv").read_text().splitlines()
                               if line.startswith("# ")]
    assert headers["fast"] != headers["direct"]


def test_calibrate_output_does_not_depend_on_the_path(tmp_path):
    cfg = {"seed": 926, "detectors": [{"kind": "kelly"}], "pfa_target": 1e-2,
           "trials": {"calibration": 10_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    for trial_path in ("fast", "direct"):
        assert main(["calibrate", "--config", path, "--out", str(tmp_path / trial_path),
                     "--workers", "1", "--path", trial_path]) == 0
    text = (tmp_path / "fast" / "thresholds.json").read_bytes()
    assert text == (tmp_path / "direct" / "thresholds.json").read_bytes()
    assert "path" not in json.loads(text)["meta"]


def test_sweep_runs_ill_conditioned_scenario(tmp_path):
    # cond(sigma) is about 4e7; every draw must decompose.
    cfg = {
        "seed": 915,
        "scenario": {"n": 64, "k": 128, "cnr_db": 60.0, "rho1": 0.999},
        "mismatch": {"variant": "inv_wishart", "delta_db": 6.0},
        "detectors": [{"kind": "kelly"}],
        "n_draws": 2,
        "pfa_target": 1e-2,
        "trials": {"calibration": 10_000, "pfa": 1024},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main(["sweep", "--config", path, "--out", str(out), "--workers", "1"]) == 0
    assert json.loads((out / "sweep_summary.json").read_text())["errors"] == []


def test_roc_joint_estimates_identity(tmp_path):
    cfg = {
        "seed": 909,
        "mismatch": {"variant": "identity"},
        "detectors": [{"kind": "kelly"}],
        "n_draws": 2,
        "pfa_target": 1e-2,
        "pd_target": 0.7,
        "trials": {"calibration": 200_000, "pfa": 50_000, "pd": 20_000},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main(["roc", "--config", path, "--out", str(out), "--workers", "2"]) == 0

    _, rows = read_csv(out / "roc.csv")
    assert len(rows) == 2
    for r in rows:
        # no mismatch: both rates sit at the calibrated operating point
        assert abs(float(r["pfa_hat"]) - 1e-2) < 3e-3
        assert abs(float(r["pd_hat"]) - 0.7) < 0.05
        assert float(r["pd_ci_lo"]) <= float(r["pd_hat"]) <= float(r["pd_ci_hi"])
        assert int(r["pd_n_trials"]) == 20_000
        snr_db = float(r["snr_db"])
        assert 5.0 < snr_db < 25.0

    obj = json.loads((out / "roc_summary.json").read_text())
    snr = obj["snr"]["kelly"]
    assert snr["snr_db"] == pytest.approx(10.0 * np.log10(snr["snr_linear"]))
    assert obj["summary"]["kelly"]["mean_pd"] == pytest.approx(0.7, abs=0.05)
    assert ET.parse(out / "roc_scatter.svg").getroot() is not None


@pytest.fixture
def counted_pools(monkeypatch):
    """Counts constructions and shutdowns of the engine's worker pools."""
    mcengine.shutdown_pool()
    counts = {"built": 0, "shut": 0}

    class CountedPool(mcengine.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts["built"] += 1

        def shutdown(self, *args, **kwargs):
            counts["shut"] += 1
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(mcengine, "ProcessPoolExecutor", CountedPool)
    return counts


@pytest.mark.parametrize("mismatch,code", [
    ({"variant": "identity"}, 0),
    ({"variant": "inv_wishart"}, 3),  # every draw fails: gen_sigma_t raises below
])
def test_one_worker_pool_per_run(tmp_path, counted_pools, monkeypatch, mismatch, code):
    if code:
        # The pool forks after this patch, so its workers see it too.
        def broken(*args):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(mcengine, "gen_sigma_t", broken)
    cfg = {
        "seed": 913,
        "mismatch": mismatch,
        "detectors": [{"kind": "kelly"}],
        "n_draws": 2,
        "pfa_target": 1e-2,
        "trials": {"calibration": 10_000, "pfa": 1_000, "pd": 1_000},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert main(["roc", "--config", path, "--out", str(tmp_path / "res"), "--workers", "2"]) == code
    assert counted_pools == {"built": 1, "shut": 1}


@pytest.mark.parametrize("command", ["sweep", "roc"])
@pytest.mark.parametrize("mismatch,named", [
    ({"variant": "inv_wishart", "nu": 10}, "nu=10"),
    ({"variant": "ger_chol", "nu1": 15}, "nu1=15"),
])
def test_wishart_dof_at_or_below_the_bound_is_config_error(tmp_path, capsys, monkeypatch,
                                                           command, mismatch, named):
    # N = 16: inv_wishart needs nu > N and ger_chol nu1 > N-1. The run must
    # stop before any work, so not even the output directory is made.
    def no_trials(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(mcengine, "draw_pairs", no_trials)
    cfg = {"mismatch": mismatch, "n_draws": 2, "pfa_target": 1e-2,
           "trials": {"calibration": 10_000, "pfa": 1_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main([command, "--config", path, "--out", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("pd_target", [0.005, 0.01])
def test_pd_target_at_or_below_pfa_target_is_config_error(tmp_path, capsys, monkeypatch,
                                                          pd_target):
    # No SNR brings P_d down to P_fa, so the run must stop before the
    # calibration cross-check, and before the output directory is made.
    def no_trials(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(mcengine, "draw_pairs", no_trials)
    cfg = {"pfa_target": 0.01, "pd_target": pd_target, "trials": {"calibration": 10_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main(["roc", "--config", path, "--out", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "pd_target" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cfg,field", [
    ({"mismatch": {"variant": "inv_wishart", "delta_db": None}}, "mismatch/delta_db"),
    ({"detectors": [{"kind": "kalson", "kappa": None}]}, "detectors/0/kappa"),
    ({"clairvoyant_c": [None]}, "clairvoyant_c/0"),
    ({"mismatch": {"variant": "ger_chol", "pin_psi22": None}}, "mismatch/pin_psi22"),
])
def test_non_finite_float_field_is_config_error(tmp_path, capsys, cfg, field, value):
    # JSON as Python reads it admits NaN and Infinity; no float field may
    # hold one, and the run stops before the output directory is made.
    text = json.dumps(cfg).replace("null", json.dumps(value))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "res"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "finite" in err
    assert not out.exists()


def test_calibration_draws_one_trial_set_for_all_detectors(tmp_path, monkeypatch):
    # Three detectors share the 100 000 matched trials; one trial set each
    # would draw 300 000.
    drawn = []
    draw = mcengine.draw_pairs

    def counted(stream, source, size):
        drawn.append(size)
        return draw(stream, source, size)

    monkeypatch.setattr(mcengine, "draw_pairs", counted)
    cfg = {"detectors": [{"kind": "kelly"}, {"kind": "amf"}, {"kind": "kalson", "kappa": 2.0}],
           "pfa_target": 1e-2, "trials": {"calibration": 100_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert main(["calibrate", "--config", path, "--out", str(tmp_path / "res"),
                 "--workers", "1"]) == 0
    assert sum(drawn) == 100_000


def test_thresholds_are_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    # --workers is clamped to the CPUs; report 3 so that 3 workers really run.
    monkeypatch.setattr(mcengine, "available_cpus", lambda: 3)
    cfg = {"seed": 917,
           "detectors": [{"kind": "kelly"}, {"kind": "amf"}, {"kind": "kalson", "kappa": 2.0}],
           "pfa_target": 1e-2, "trials": {"calibration": 200_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    files = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(["calibrate", "--config", path, "--out", str(out),
                     "--workers", str(workers)]) == 0
        files.append((out / "thresholds.json").read_bytes())
    assert files[1] == files[0]
    assert files[2] == files[0]


def test_roc_direct_is_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    # --workers is clamped to the CPUs; report 3 so that 3 workers really run.
    monkeypatch.setattr(mcengine, "available_cpus", lambda: 3)
    cfg = {"seed": 919, "mismatch": {"variant": "inv_wishart", "delta_db": 6.0},
           "detectors": [{"kind": "kelly"}, {"kind": "amf"}], "n_draws": 3,
           "pfa_target": 1e-2, "pd_target": 0.5,
           "trials": {"calibration": 10_000, "pfa": 5_000, "pd": 3_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    files = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert main(["roc", "--config", path, "--out", str(out), "--path", "direct",
                     "--workers", str(workers)]) == 0
        files.append([(out / name).read_bytes() for name in ("roc.csv", "roc_summary.json")])
    assert files[1] == files[0]
    assert files[2] == files[0]


def test_default_workers_follow_the_affinity_mask(tmp_path, monkeypatch):
    # One allowed CPU on a 64-CPU host: the default must not start a pool.
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(mcengine, "ProcessPoolExecutor", no_pool)
    cfg = {"detectors": [{"kind": "kelly"}], "pfa_target": 1e-2, "trials": {"calibration": 10_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert main(["calibrate", "--config", path, "--out", str(tmp_path / "res")]) == 0


def test_workers_are_clamped_to_the_available_cpus(tmp_path, in_process_pool):
    # The fake pool starts no process: it records its size and runs the tasks
    # in process, so an unclamped --workers 100000 costs nothing here.
    cfg = {"detectors": [{"kind": "kelly"}], "pfa_target": 1e-2, "trials": {"calibration": 10_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert main(["calibrate", "--config", path, "--out", str(tmp_path / "res"),
                 "--workers", "100000"]) == 0
    sizes = [size for what, size in in_process_pool if what == "pool"]
    cpus = mcengine.available_cpus()
    assert sizes == ([cpus] if cpus > 1 else [])


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    cfg = {"seed": 923, "mismatch": {"variant": "inv_wishart", "delta_db": 6.0},
           "detectors": [{"kind": "kelly"}, {"kind": "amf"}], "n_draws": 2, "n_cdf_draws": 2,
           "pfa_target": 1e-2, "pd_target": 0.5,
           "trials": {"calibration": 10_000, "pfa": 2_000, "pd": 2_000, "cdf_samples": 2_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    code = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from cfarmismatch.cli import main
runs = [["validate"], ["calibrate"], ["cdf"], ["sweep"], ["roc", "--path", "direct"]]
for i, run in enumerate(runs):
    code = main(run + ["--config", {path!r}, "--out", {str(tmp_path)!r} + f"/r{{i}}",
                       "--workers", "1"])
    assert code == 0, (run, code)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cfarmismatch.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert all((tmp_path / f"r{i}").is_dir() for i in range(5))


def test_cli_import_leaves_scipy_stats_unloaded():
    unloaded = ("urllib.request", "jsonschema")
    code = ("import sys, cfarmismatch.cli; print([m for m in sys.modules "
            f"if m in {unloaded!r} or m == 'scipy' or m.startswith('scipy.')])")
    env = {**os.environ, "PYTHONPATH": str(Path(cfarmismatch.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert res.stdout.strip() == "[]"


def test_calibrate_sweep_and_roc_runs_load_no_scipy(tmp_path):
    # Both paths, H0 and H1, on one process: calibration, a fast sweep and a
    # direct roc leave no scipy module behind.
    cfg = {"seed": 921, "mismatch": {"variant": "inv_wishart", "delta_db": 6.0},
           "detectors": [{"kind": "kelly"}, {"kind": "amf"}, {"kind": "kalson", "kappa": 2.0}],
           "n_draws": 2, "pfa_target": 1e-2, "pd_target": 0.5,
           "trials": {"calibration": 10_000, "pfa": 2_000, "pd": 2_000}}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    code = f"""
import sys
from cfarmismatch.cli import main
runs = [["calibrate"], ["sweep"], ["roc", "--path", "direct"]]
for i, run in enumerate(runs):
    code = main(run + ["--config", {path!r}, "--out", {str(tmp_path)!r} + f"/r{{i}}",
                       "--workers", "1"])
    assert code == 0, (run, code)
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cfarmismatch.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[]"
    assert all((tmp_path / f"r{i}").is_dir() for i in range(3))


def test_closed_stdout_does_not_stop_the_run(tmp_path):
    # As `cfarmismatch validate ... | head -1`: the reader leaves after the
    # first line, and the run must still finish and write its file.
    out = tmp_path / "res"
    env = {**os.environ, "PYTHONPATH": str(Path(cfarmismatch.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "cfarmismatch.cli", "validate", "--seed", "9",
                             "--out", str(out), "--workers", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.stdout.readline().startswith("PASS glrt_closed_form_cfar")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 0
    assert "Traceback" not in err
    assert json.loads((out / "validate.json").read_text())["checks"]


@pytest.mark.parametrize("command", ["calibrate", "sweep", "roc"])
def test_too_few_calibration_trials_is_config_error(tmp_path, capsys, command):
    # 100 / pfa_target = 1e8 trials are needed; the run must stop before any
    # work, so not even the output directory is made.
    path = write_cfg(tmp_path, "cfg.json", {"pfa_target": 1e-6, "trials": {"calibration": 100_000}})
    out = tmp_path / "res"
    assert main([command, "--config", path, "--out", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "trials.calibration" in err
    assert not out.exists()


def test_validate_judges_the_glrt_check_by_five_sigma(tmp_path, monkeypatch):
    # At seed 9 the estimate sits 2.8 sigma below the target, outside its 95 %
    # interval; a threshold 5 % too high moves it about 8 sigma.
    out = tmp_path / "res"
    assert main(["validate", "--seed", "9", "--out", str(out), "--workers", "2"]) == 0
    right = cli.kelly_threshold
    monkeypatch.setattr(cli, "kelly_threshold", lambda *args: 1.05 * right(*args))
    assert main(["validate", "--seed", "9", "--out", str(out), "--workers", "2"]) == 2
    checks = json.loads((out / "validate.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["glrt_closed_form_cfar"]


def test_validate_command_passes(tmp_path, capsys):
    cfg = {
        "seed": 911,
        "mismatch": {"variant": "inv_wishart", "delta_db": 3.0},
        "pfa_target": 1e-3,
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "res"
    assert main(["validate", "--config", path, "--out", str(out), "--workers", "2"]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 5
    assert "FAIL" not in text

    obj = json.loads((out / "validate.json").read_text())
    names = [c["name"] for c in obj["checks"]]
    assert names == [
        "glrt_closed_form_cfar",
        "matched_beta_ks",
        "matched_t_ks",
        "oracle_equivalence",
        "ger_residual",
    ]
    assert all(c["passed"] for c in obj["checks"])
