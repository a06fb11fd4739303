"""Recompute the population reference of the sweep-invwishart check.

Runs the workload's full-size config at several seeds counting down from
2**63 - 1, far from the small seeds the benchmark is run with, and prints
per plan the mean and standard deviation over seeds of the pooled Pfa.
Run from the repository root:

    python3 perfbench/reference.py [--seeds 32]
"""

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import checks
import run
from workloads import WORKLOADS

REFERENCE_SEED = 2**63 - 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    checkout = run.Checkout(Path.cwd())
    wl = WORKLOADS["sweep-invwishart"]
    pooled = defaultdict(list)
    for i in range(args.seeds):
        work, cfg, cfg_path = run.prepare(checkout, wl, REFERENCE_SEED - i, 1.0, "reference")
        out = work / "out"
        code, _, _, _ = checkout.run_cli(wl, cfg_path, out, wl.workers, work / "run.log")
        if code != 0:
            print(f"seed {REFERENCE_SEED - i}: sweep exited with {code}", file=sys.stderr)
            return 1
        rows = checks.read_rows(out / "sweep.csv")
        for label, (count, total) in checks.pooled(rows, "exceedances", "n_trials").items():
            pooled[label].append(count / total)
    print(f'    "draws": {cfg["n_draws"]},\n    "trials": {cfg["trials"]["pfa"]},')
    for label, vals in pooled.items():
        print(f'        "{label}": ({statistics.fmean(vals)!r}, {statistics.stdev(vals)!r}),')
    return 0


if __name__ == "__main__":
    sys.exit(main())
