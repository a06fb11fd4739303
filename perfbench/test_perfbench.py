"""Self-checks of the benchmark, at tiny sizes. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
TINY = 0.02
EXACT_COUNTS = ("storep.pairs", "detect.direct_trials", "mcengine.pool_starts", "randkit.streams",
                "mismatch.draws", "mcengine.snr_evals", "report.csv_bytes", "report.svg_bytes")


@pytest.fixture(scope="module")
def checkout():
    co = run.Checkout(ROOT)
    co.import_cli()
    return co


@pytest.fixture(scope="module")
def outputs(checkout):
    """One tiny untraced run per workload: name -> (output dir, config)."""
    made = {}
    for name, wl in WORKLOADS.items():
        work, cfg, cfg_path = run.prepare(checkout, wl, 3, TINY, "test")
        code, _, _, _ = checkout.run_cli(wl, cfg_path, work / "out", wl.workers, work / "run.log")
        assert code == 0, (work / "run.log").read_text()
        made[name] = (work / "out", cfg)
    return made


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quadrature_reproduces_reference_thresholds():
    assert checks.matched_pfa("kelly", None, 1e-3 ** (-1 / 17) - 1, 16, 32) == pytest.approx(1e-3)
    assert checks.matched_pfa("amf", None, 1.001136, 16, 32) == pytest.approx(1e-3, rel=1e-4)
    assert checks.matched_pfa("kalson", 2.0, 0.327432, 16, 32) == pytest.approx(1e-3, rel=1e-4)


def test_wilson_matches_package(checkout):
    from cfarmismatch.randkit import wilson_ci

    for k, n in ((0, 100), (7, 1000), (500, 1000), (1000, 1000)):
        lo, hi = wilson_ci(k, n)
        mine = checks.wilson(k, n)
        if 0 < k < n:
            assert mine == pytest.approx((lo, hi), rel=1e-12)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_on_program_output(name, outputs):
    from cfarmismatch.report import read_csv

    out, cfg = outputs[name]
    assert WORKLOADS[name].check(out, cfg, read_csv) == []


def _corrupt_calibrate(out: Path):
    doc = json.loads((out / "thresholds.json").read_text())
    doc["thresholds"][1]["threshold"] *= 1.2
    (out / "thresholds.json").write_text(json.dumps(doc))


def _corrupt_rows(out: Path, name: str):
    rows = checks.read_rows(out / name)
    row = rows[0]
    bumped = dict(row, exceedances=str(int(row["exceedances"]) * 2 + 50))
    text = (out / name).read_text()
    assert ",".join(row.values()) in text
    (out / name).write_text(text.replace(",".join(row.values()), ",".join(bumped.values()), 1))


def _corrupt_cdf(out: Path):
    """Scale every t_tilde sample by 1.3: the file still parses, the law is wrong."""
    lines = (out / "cdf_samples.csv").read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if not line.startswith("#") and cells[0].isdigit():
            lines[i] = f"{cells[0]},{cells[1]},{float(cells[2]) * 1.3!r}"
    (out / "cdf_samples.csv").write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "calibrate-matched": _corrupt_calibrate,
    "sweep-invwishart": lambda out: _corrupt_rows(out, "sweep.csv"),
    "roc-direct": lambda out: _corrupt_rows(out, "roc.csv"),
    "cdf-write": _corrupt_cdf,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_fails_check(name, outputs):
    from cfarmismatch.report import read_csv

    out, cfg = outputs[name]
    bad = out.parent / "corrupted"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out, bad)
    CORRUPTIONS[name](bad)
    assert WORKLOADS[name].check(bad, cfg, read_csv)


def test_trace_counts_repeat_exactly_and_outputs_match(checkout):
    for name in ("roc-direct", "sweep-invwishart"):
        first = run.trace(checkout, WORKLOADS[name], 5, TINY)
        second = run.trace(checkout, WORKLOADS[name], 5, TINY)
        assert first["correct"] and second["correct"], first["errors"] + second["errors"]
        for metric in EXACT_COUNTS:
            assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["storep.pairs"]["value"] > 0


def test_tracer_sees_calls_through_imported_names(checkout):
    from cfarmismatch import mcengine, storep

    tracer = spans.Tracer()
    with tracer:
        assert mcengine.sample_pairs is storep.sample_pairs
        assert mcengine.sample_pairs.__wrapped__ is not None
    assert not hasattr(mcengine.sample_pairs, "__wrapped__")


def _smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "4", "--seconds",
         "0.1", "--scale", str(TINY), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_unit(trace, section):
    stdout = _smoke(trace)
    final = json.loads(stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    for name in WORKLOADS:
        assert {m: e["unit"] for m, e in final["workloads"][name].items()} == declared
        printed = dict(line[len(name) + 1:].split(": ", 1) for line in stdout.splitlines()
                       if line.startswith(f"{name} ") and ": " in line)
        for metric, unit in declared.items():
            assert printed[metric].endswith(f" {unit}"), (metric, printed.get(metric))
        assert printed["failed_frac"].startswith("0.0 fraction")


def test_benchmark_json_lists_the_workloads():
    doc = _benchmark_json()
    assert doc["workloads"]
    for entry in doc["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_bare_directory_fails_without_result():
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cdf-write",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
