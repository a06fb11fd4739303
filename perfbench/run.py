"""Benchmark of the cfarmismatch command line: time to precision per run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

--trace 0 runs the CLI as a subprocess in a closed loop with one client (each
run starts after the previous one exits) for about S seconds, checks every
run's output files and prints the end-to-end metrics, each the median over
the runs. --trace 1 runs the workload once in-process with every layer
traced and prints the per-layer metrics. Either way the last line of
standard output is one JSON object: {correct, attempted, failed, metrics}.
With --workload all, every workload runs in turn and the exit code is 1
when any correctness check fails.
"""

import os

# BLAS threads are pinned to one per process so that workers x threads stays
# within the cores. Measured on a 2-core machine, calibrate at 1e7 trials:
# unpinned, --workers 1 spent 34 s of CPU in 19.6 s of wall time and
# --workers 2 still took 19.8 s; pinned, the two took 19.2 s and 11.8 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3
RUN_TIMEOUT_S = 150.0
TARGET_REL_HALF_WIDTH = 0.10


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


class Checkout:
    """The source tree under test: its root, package path and child environment."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)

    def import_cli(self):
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        import cfarmismatch
        from cfarmismatch import cli

        if not Path(cfarmismatch.__file__).resolve().is_relative_to(self.src.resolve()):
            raise RuntimeError(f"imported cfarmismatch from {cfarmismatch.__file__}, "
                               f"not from {self.src}")
        return cli

    def run_cli(self, wl, cfg_path: Path, out: Path, workers: int, log: Path):
        """One CLI run in a subprocess: (exit code, wall s, set-up s, peak RSS MB).

        The process is waited for with wait4, so the peak RSS is the largest
        of the process and every child it waited for, the worker pools too.
        The set-up time is None when the run never got past its config.
        """
        stamp = log.with_suffix(".stamp")
        stamp.unlink(missing_ok=True)
        args = [sys.executable, str(HERE / "launch.py"), str(stamp), *wl.argv(cfg_path, out, workers)]
        with open(log, "wb") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=self.root, start_new_session=True)
            timer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = float(stamp.read_text()) - t0 if stamp.is_file() else None
        return proc.returncode, wall, setup, usage.ru_maxrss / 1024.0


def digest(out: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() if (out / n).is_file()
            else "missing" for n in names}


def environment(checkout: Checkout, seed: int) -> dict:
    import numpy
    import scipy
    from cfarmismatch.randkit import GENERATOR_ID

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (checkout.root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": 1, "generator": GENERATOR_ID, "commit": commit, "seed": seed}


def prepare(checkout: Checkout, wl, seed: int, scale: float, sub: str):
    work = checkout.root / ".bench_run" / wl.name / sub
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = wl.config(seed, scale)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
    return work, cfg, cfg_path


def result(errors, attempted, failed, metrics) -> dict:
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
            "errors": errors}


def measure(checkout: Checkout, wl, seed: int, seconds: float, scale: float) -> dict:
    """Closed loop of untraced CLI runs, one client: each starts when the last has exited."""
    from cfarmismatch.report import read_csv

    work, cfg, cfg_path = prepare(checkout, wl, seed, scale, "measure")
    out = work / "out"  # one path for every run: the config embedded in the outputs names it
    ops = wl.ops(cfg)
    walls, setups, rss = [], [], []
    errors: list[str] = []
    runs = 0
    first = precision = None
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        log = work / f"run{runs}.log"
        code, wall, setup, peak = checkout.run_cli(wl, cfg_path, out, wl.workers, log)
        if code != 0:
            errors.append(f"run {runs} exited with {code}: {log.read_text()[-400:]}")
        elif first is None:
            errors += wl.check(out, cfg, read_csv)
            precision = wl.precision(out, cfg)
            first = digest(out, wl.outputs)
        elif digest(out, wl.outputs) != first:
            errors.append(f"run {runs} output files differ from run 0")
        runs += 1
        if errors:
            break
        walls.append(wall)
        setups.append(setup)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        if runs >= MIN_RUNS and elapsed * (1 + 1 / runs) > seconds:
            break
    compute_s = median([w - s for w, s in zip(walls, setups)])
    ttci = None if compute_s is None else compute_s * (precision / TARGET_REL_HALF_WIDTH) ** 2
    metrics = {"wall_s": median(walls), "setup_s": median(setups), "time_to_ci10_s": ttci,
               "peak_rss_mb": median(rss)}
    res = result(errors, runs * ops, ops if errors else 0, metrics)
    res["runs"] = {"wall_s": walls, "setup_s": setups, "rel_half_width": precision}
    return res


def median(values):
    """Median, or None when no run succeeded."""
    return statistics.median(values) if values else None


def trace(checkout: Checkout, wl, seed: int, scale: float) -> dict:
    """One workload in-process: pool run at the workload's worker count, then
    an untraced and a traced run with one worker. Every run's output files
    must be byte-identical to an untraced subprocess run at the same seed."""
    import spans
    from cfarmismatch.report import read_csv

    work, cfg, cfg_path = prepare(checkout, wl, seed, scale, "trace")
    errors: list[str] = []
    out = work / "out"  # one path for every run: the config embedded in the outputs names it
    code, _, _, _ = checkout.run_cli(wl, cfg_path, out, wl.workers, work / "ref.log")
    if code != 0:
        errors.append(f"reference run exited with {code}: {(work / 'ref.log').read_text()[-400:]}")
    else:
        errors += wl.check(out, cfg, read_csv)
    reference = digest(out, wl.outputs)
    cli = checkout.import_cli()

    def inprocess(label: str, workers: int, probe=None) -> float:
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with probe or contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    code = cli.main(wl.argv(cfg_path, out, workers))
                except Exception:  # noqa: BLE001 - a crash is reported as a failed run
                    code = traceback.format_exc()
                wall = time.perf_counter() - t0
        if code != 0:
            errors.append(f"in-process {label} run exited with {code}")
        elif digest(out, wl.outputs) != reference:
            errors.append(f"in-process {label} run output files differ from the untraced run")
        return wall

    pools = spans.PoolProbe()
    inprocess("pooled", wl.workers, pools)
    plain_wall = inprocess("plain", 1)
    tracer = spans.Tracer()
    traced_wall = inprocess("traced", 1, tracer)

    metrics = tracer.metrics()
    metrics.update(pools.metrics())
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    overhead = traced_wall - plain_wall
    metrics.update({"trace.inproc_wall_s": plain_wall, "trace.traced_wall_s": traced_wall,
                    "trace.overhead_s": overhead, "trace.layer_sum_s": layer_sum})
    if abs(layer_sum - plain_wall) > abs(overhead) + 1e-3:
        errors.append(f"layer self times sum to {layer_sum:.4f} s, in-process wall is "
                      f"{plain_wall:.4f} s and the overhead only {overhead:.4f} s")
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start, s.end, s.self_s, s.count, s.error]) + "\n")
    ops = wl.ops(cfg)
    return result(errors, ops, ops if errors else 0, metrics)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply trial and draw counts (small values for smoke tests)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (args.seconds > 0 and 0 < args.scale <= 1):
        parser.error("--seconds must be positive and --scale in (0, 1]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Checkout(Path.cwd())
    if not (checkout.src / "cfarmismatch" / "__init__.py").is_file():
        print(f"perfbench: no src/cfarmismatch under {checkout.root}; "
              "run from the repository root", file=sys.stderr)
        return 2
    checkout.import_cli()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(checkout, args.seed)}))
    results = {}
    for name in names:
        wl = WORKLOADS[name]
        res = (trace(checkout, wl, args.seed, args.scale) if args.trace
               else measure(checkout, wl, args.seed, args.seconds, args.scale))
        results[name] = res
        for metric, entry in res["metrics"].items():
            print(f"{name} {metric}: {entry['value']!r} {entry['unit']}")
        print(f"{name} failed_frac: {res['failed'] / res['attempted']!r} fraction "
              f"({res['failed']} of {res['attempted']} operations)")
        if "runs" in res:
            print(f"{name} runs: {json.dumps(res['runs'])}")
        for err in res["errors"]:
            print(f"{name} CHECK FAILED: {err}")
    if args.workload != "all":
        res = results[args.workload]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": {n: r["metrics"] for n, r in results.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
