"""The four benchmark workloads: config, command line, correctness check, precision.

BENCHMARK.json lists only sweep-invwishart and roc-direct, which between them
reach every layer. The speed of a shared host drifts over tens of seconds,
and two workloads leave each a 60 s measuring window where four leave 28 s.

All use N=16, K=32. Each workload is a JSON config generated from the
benchmark seed; the program sees only that file and its command line.
Sizes were chosen so one CLI run takes a few seconds on a 2-core machine.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

DETECTORS = [{"kind": "kelly"}, {"kind": "amf"}, {"kind": "kalson", "kappa": 2.0}]

# Population reference for the sweep-invwishart check: per plan, the mean and
# standard deviation over seeds of the pooled Pfa at the full-size config.
# Measured with `python3 perfbench/reference.py --seeds 32`, on seeds counting
# down from 2**63 - 1, far from the small seeds the benchmark is run with.
SWEEP_REFERENCE = {
    "draws": 1024,
    "trials": 2048,
    "pooled_pfa": {
        "kelly": (0.06543292105197906, 0.001510401598282476),
        "amf": (0.18961842358112335, 0.005805553800708823),
        "kalson_k2": (0.09170719981193542, 0.0024349962631079617),
        "clairvoyant_c1": (0.02334025502204895, 0.00016868560022670123),
        "clairvoyant_c2": (0.004252001643180847, 6.7208600929156e-05),
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    path: str
    workers: int
    base: dict  # config without seed and out_dir; trial counts at scale 1
    outputs: tuple[str, ...]
    ops_key: str  # config key counting the run's operations, or "detectors"
    check: Callable[[Path, dict, object], list[str]]
    precision: Callable[[Path, dict], float]

    def config(self, seed: int, scale: float = 1.0) -> dict:
        """The program's config for a seed; ``scale`` shrinks sizes for smoke tests."""
        cfg = copy.deepcopy(self.base)
        for key, val in cfg.get("trials", {}).items():
            cfg["trials"][key] = max(_MIN_TRIALS[key], int(val * scale))
        for key in ("n_draws", "n_cdf_draws"):
            if key in cfg:
                cfg[key] = max(2, math.ceil(cfg[key] * scale))
        cfg["seed"] = seed
        return cfg

    def ops(self, cfg: dict) -> int:
        return len(cfg["detectors"]) if self.ops_key == "detectors" else cfg[self.ops_key]

    def argv(self, cfg_path: Path, out: Path, workers: int) -> list[str]:
        return [self.command, "--config", str(cfg_path), "--out", str(out),
                "--workers", str(workers), "--path", self.path]


# Floors for scaled-down sizes; calibration needs 100 / pfa_target trials.
_MIN_TRIALS = {"calibration": 100_000, "pfa": 1024, "pd": 1024, "cdf_samples": 500}


# Every key the checks read is set here, so they never rely on program defaults.
SCENARIO = {"n": 16, "k": 32}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="calibrate-matched",
            why="matched threshold calibration: sampler plus quantile IPC across 6 pools; "
                "no mismatch, direct path or writer work",
            command="calibrate",
            path="fast",
            workers=2,
            base={"scenario": SCENARIO, "detectors": DETECTORS, "pfa_target": 1e-3,
                  "trials": {"calibration": 500_000}},
            outputs=("thresholds.json",),
            ops_key="detectors",
            check=lambda out, cfg, _: checks.check_calibrate(out, cfg),
            precision=lambda out, cfg: checks.calibrate_precision(out),
        ),
        Workload(
            name="sweep-invwishart",
            why="the paper's mismatch sweep: per-draw sigma_t and omega_decompose, non-zero "
                "cross row, five plans scored per chunk",
            command="sweep",
            path="fast",
            workers=2,
            base={"scenario": SCENARIO, "mismatch": {"variant": "inv_wishart", "delta_db": 6.0},
                  "detectors": DETECTORS, "clairvoyant_c": [1.0, 2.0], "pfa_target": 1e-2,
                  "n_draws": 1024, "trials": {"calibration": 100_000, "pfa": 2048}},
            outputs=("sweep.csv", "sweep_summary.json", "sweep_pfa.svg"),
            ops_key="n_draws",
            check=lambda out, cfg, _: checks.check_sweep(out, cfg, SWEEP_REFERENCE),
            precision=lambda out, cfg: checks.rows_precision(out, "sweep.csv"),
        ),
        Workload(
            name="roc-direct",
            why="matrix oracle (gen_data_batch, raw_stats_batch) and SNR bisection that "
                "starts one worker pool per evaluation",
            command="roc",
            path="direct",
            workers=2,
            base={"scenario": SCENARIO, "mismatch": {"variant": "identity", "delta_db": 0.0},
                  "detectors": DETECTORS[:2], "pfa_target": 1e-2, "pd_target": 0.7,
                  "n_draws": 4,
                  "trials": {"calibration": 100_000, "pfa": 12_288, "pd": 4096}},
            outputs=("roc.csv", "roc_summary.json", "roc_scatter.svg"),
            ops_key="n_draws",
            check=lambda out, cfg, _: checks.check_roc(out, cfg),
            precision=lambda out, cfg: checks.rows_precision(out, "roc.csv"),
        ),
        Workload(
            name="cdf-write",
            why="CSV and SVG writers built row by row in Python; single process whatever "
                "--workers says",
            command="cdf",
            path="fast",
            workers=2,
            base={"scenario": SCENARIO, "mismatch": {"variant": "identity", "delta_db": 0.0},
                  "n_cdf_draws": 10, "trials": {"cdf_samples": 20_000}},
            outputs=("cdf_samples.csv", "cdf_beta.svg", "cdf_t.svg"),
            ops_key="n_cdf_draws",
            check=checks.check_cdf,
            precision=lambda out, cfg: checks.cdf_precision(cfg),
        ),
    )
}
