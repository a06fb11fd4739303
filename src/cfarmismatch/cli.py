"""Batch command-line front end.

Commands: validate | calibrate | cdf | sweep | roc. Every command reads one
JSON config (defaults apply when omitted), derives all randomness from the
seed through labeled streams, and writes CSV/JSON/SVG files whose headers
embed the normalized config (less the output directory), its hash, the seed,
the generator id and, for sweep and roc, the trial path, so a result file
documents how to regenerate itself bitwise, wherever it is written.

Exit codes: 0 success, 1 config error, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ConfigError, RunConfig, canonical_json, config_hash, from_dict, load_user_dict
from .detect import KELLY, DetectorKind
from .matkit import NotPositiveDefiniteError
from .mcengine import (
    DetectorPlan,
    MisSetup,
    PfaEstimate,
    SweepRow,
    ThresholdEntry,
    available_cpus,
    calibrate_entry,
    calibrate_snr,
    count_exceedances,
    draw_trials,
    ecdf,
    kelly_threshold,
    ks_distance,
    ks_distance_2samp,
    nomismatch_sampler,
    shutdown_pool,
    sweep,
    within_five_sigma,
)
from .mismatch import MismatchSpec, check_ger, gen_sigma_t
from .randkit import GENERATOR_ID, StreamKey, beta_cdf, cf1_survival
from .report import step_curve, svg_plot, write_csv, write_json
from .scenario import build_cov, build_steering
from .storep import make_sampler

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

# Top-level stream labels, one per experiment family under a seed (2 is retired).
# Under _EXP_CAL, chunk ci of the matched trials that cross-check every
# detector's threshold comes from child(ci).
_EXP_CAL = 0
_EXP_SWEEP = 1
_EXP_CDF = 3
_EXP_VALIDATE = 4

SWEEP_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def det_label(kind: DetectorKind) -> str:
    if kind.kind == "kalson":
        return f"kalson_k{kind.kappa:g}"
    return kind.kind


def clairvoyant_label(c: float) -> str:
    return f"clairvoyant_c{c:g}"


def run_meta(cfg: RunConfig, path: str | None = None) -> dict:
    # The output directory does not change any result, so it stays out of the
    # hash: one experiment gives the same bytes under any --out. The trial
    # path is a flag, not a config key; the commands whose trials it selects
    # pass it in.
    experiment = {key: val for key, val in cfg.normalized.items() if key != "out_dir"}
    return {
        "config_sha256": config_hash(experiment),
        "seed": cfg.seed,
        **({} if path is None else {"path": path}),
        "generator": GENERATOR_ID,
        "version": __version__,
        "config": canonical_json(experiment),
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="cfarmismatch", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in (
        ("validate", "run the self-check suites (closed forms, sampler oracle, collinearity)"),
        ("calibrate", "calibrate detector thresholds at the target false-alarm rate"),
        ("cdf", "sample and plot ECDFs of the invariant pair over mismatch draws"),
        ("sweep", "per-draw false-alarm estimates over many training-covariance draws"),
        ("roc", "joint false-alarm / detection estimates at the calibrated operating point"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file (defaults used when omitted)")
        sp.add_argument("--out", help="output directory (overrides config out_dir)")
        sp.add_argument("--seed", type=int, help="seed override (unsigned 64-bit)")
        sp.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: the CPUs this process may run on)")
        sp.add_argument("--path", choices=("fast", "direct"), default="fast",
                        help="trial generation: representation sampler, or test vector and Bartlett factor")
    return parser


def _load_cfg(args) -> RunConfig:
    user = load_user_dict(args.config) if args.config else {}
    if args.seed is not None:
        user["seed"] = args.seed
    if args.out is not None:
        user["out_dir"] = args.out
    cfg = from_dict(user)
    # Rows and summaries are keyed by label, so a repeat would merge two detectors.
    labels = [det_label(kind) for kind in cfg.detectors] + [clairvoyant_label(c) for c in cfg.clairvoyant_c]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"detector labels must be distinct, got {labels}")
    return cfg


def _print(msg: str) -> None:
    """Print a line; once stdout's reader is gone (``| head``), print to devnull."""
    try:
        print(msg, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_validate(cfg: RunConfig, workers: int, path: str, out: Path) -> int:
    sc = cfg.scenario
    n, k = sc.n, sc.k
    sigma = build_cov(sc)
    v = build_steering(n, fd=sc.fd)
    root = StreamKey(cfg.seed).child(_EXP_VALIDATE)
    q = k - n + 1
    checks = []

    def record(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})
        _print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    thr = kelly_threshold(cfg.pfa_target, n, k)
    count = count_exceedances(root.child(0), KELLY, thr, nomismatch_sampler(n, k), 1_000_000, workers)
    est = PfaEstimate.from_counts(count, 1_000_000)
    record(
        "glrt_closed_form_cfar",
        within_five_sigma(count, 1_000_000, cfg.pfa_target),
        f"threshold={thr:.6g} pfa_hat={est.p_hat:.3e} ci=[{est.ci_lo:.3e},{est.ci_hi:.3e}] "
        f"target={cfg.pfa_target:.3e} limit=5 sigma",
    )

    beta, t = draw_trials(root.child(1), nomismatch_sampler(n, k), 100_000)
    d_beta = ks_distance(beta, lambda x: beta_cdf(k - n + 2, n - 1, np.clip(x, 0.0, 1.0)))
    record("matched_beta_ks", d_beta < 0.006, f"D={d_beta:.5f} limit=0.006 n=100000")
    d_t = ks_distance(t, lambda x: 1.0 - cf1_survival(np.clip(x, 0.0, None), q))
    record("matched_t_ks", d_t < 0.006, f"D={d_t:.5f} limit=0.006 n=100000")

    sigma_t, _ = gen_sigma_t(root.child(2), sigma, v, cfg.mismatch)
    m_side = 20_000
    fb, ft = draw_trials(root.child(3), make_sampler(sigma, sigma_t, v, k), m_side)
    db, dt = draw_trials(root.child(4), MisSetup(sigma=sigma, sigma_t=sigma_t, v=v, k=k), m_side)
    d1 = ks_distance_2samp(fb, db)
    d2 = ks_distance_2samp(ft, dt)
    record(
        "oracle_equivalence",
        d1 < 0.02 and d2 < 0.02,
        f"variant={cfg.mismatch.variant} D_beta={d1:.5f} D_t={d2:.5f} limit=0.02 n={m_side}x{m_side}",
    )

    st_chol, _ = gen_sigma_t(root.child(5), sigma, v, MismatchSpec("ger_chol", cfg.mismatch.delta_db))
    st_eig, _ = gen_sigma_t(root.child(6), sigma, v, MismatchSpec("ger_eig", cfg.mismatch.delta_db))
    st_free, _ = gen_sigma_t(root.child(7), sigma, v, MismatchSpec("inv_wishart", cfg.mismatch.delta_db))
    r1 = check_ger(sigma, st_chol, v)
    r2 = check_ger(sigma, st_eig, v)
    r3 = check_ger(sigma, st_free, v)
    record(
        "ger_residual",
        r1.holds and r2.holds and not r3.holds,
        f"chol={r1.residual:.2e} eig={r2.residual:.2e} (limit 1e-8), free={r3.residual:.2e} (must exceed)",
    )

    write_json(out / "validate.json", {"checks": checks}, run_meta(cfg))
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed:
        _print(f"validation FAILED: {', '.join(failed)}")
        return EXIT_VALIDATION
    _print(f"all {len(checks)} checks passed -> {out / 'validate.json'}")
    return EXIT_OK


def _calibrate(cfg: RunConfig, workers: int) -> tuple[ThresholdEntry, ...]:
    sc = cfg.scenario
    return calibrate_entry(StreamKey(cfg.seed).child(_EXP_CAL), cfg.detectors, sc.n, sc.k,
                           cfg.pfa_target, cfg.trials.calibration, workers)


def _thresholds_json(entries) -> list[dict]:
    """The ``thresholds`` list of the JSON outputs: per entry, the detector's
    kind and kappa, then the entry's other fields."""
    return [{**dataclasses.asdict(e.kind), **dataclasses.asdict(e), "kind": e.kind.kind}
            for e in entries]


def cmd_calibrate(cfg: RunConfig, workers: int, path: str, out: Path) -> int:
    entries = _calibrate(cfg, workers)
    write_json(out / "thresholds.json", {"thresholds": _thresholds_json(entries)}, run_meta(cfg))
    for e in entries:
        _print(
            f"{det_label(e.kind):>12s}: threshold={e.threshold:.6f} "
            f"achieved pfa={e.achieved.p_hat:.3e} ci=[{e.achieved.ci_lo:.3e},{e.achieved.ci_hi:.3e}] "
            f"target={e.pfa_target:.1e} trials={e.n_trials}"
        )
    _print(f"wrote {out / 'thresholds.json'}")
    return EXIT_OK


def cmd_cdf(cfg: RunConfig, workers: int, path: str, out: Path) -> int:
    sc = cfg.scenario
    n, k = sc.n, sc.k
    sigma = build_cov(sc)
    v = build_steering(n, fd=sc.fd)
    root = StreamKey(cfg.seed).child(_EXP_CDF)
    m = cfg.trials.cdf_samples
    rows = []
    beta_series = []
    t_series = []
    for draw in range(cfg.n_cdf_draws):
        sigma_t, _ = gen_sigma_t(root.child(draw, 0), sigma, v, cfg.mismatch)
        sampler = make_sampler(sigma, sigma_t, v, k)
        beta, t = draw_trials(root.child(draw, 1), sampler, m)
        for j in range(m):
            rows.append({"draw_id": draw, "beta": beta[j], "t_tilde": t[j]})
        bx, bf = ecdf(beta)
        tx, tf = ecdf(t)
        beta_series.append((f"draw {draw}", *step_curve(bx, bf)))
        t_series.append((f"draw {draw}", *step_curve(tx, tf)))
    grid_b = np.linspace(0.0, 1.0, 513)
    beta_series.append(("matched reference", grid_b, beta_cdf(k - n + 2, n - 1, grid_b)))
    t_hi = max(float(np.max(s[1])) for s in t_series)
    grid_t = np.linspace(0.0, t_hi, 513)
    t_series.append(("matched reference", grid_t, 1.0 - cf1_survival(grid_t, k - n + 1)))

    meta = run_meta(cfg)
    write_csv(out / "cdf_samples.csv", ("draw_id", "beta", "t_tilde"), rows, meta)
    svg_plot(out / "cdf_beta.svg", beta_series,
             title=f"ECDF of the loss factor ({cfg.mismatch.variant})",
             xlabel="beta", ylabel="empirical CDF", meta=meta)
    svg_plot(out / "cdf_t.svg", t_series,
             title=f"ECDF of the GLRT statistic ({cfg.mismatch.variant})",
             xlabel="t_tilde", ylabel="empirical CDF", meta=meta)
    _print(f"wrote {out / 'cdf_samples.csv'} ({len(rows)} rows) and two SVG plots")
    return EXIT_OK


def _summarize(res) -> dict:
    by_label: dict[str, list] = {}
    for row in res.rows:
        by_label.setdefault(row.detector, []).append(row)
    summary = {}
    for label, rows in by_label.items():
        pfa = np.array([r.pfa_hat for r in rows])
        nonzero = pfa[pfa > 0]
        entry = {
            "draws": len(rows),
            "zero_exceedance_draws": int(np.sum(pfa == 0)),
            "mean_pfa": float(np.mean(pfa)),
        }
        if nonzero.size:
            logp = np.log10(nonzero)
            entry["mean_log10_pfa"] = float(np.mean(logp))
            entry["std_log10_pfa"] = float(np.std(logp, ddof=1)) if logp.size > 1 else 0.0
        if rows[0].pd_hat is not None:
            pd = np.array([r.pd_hat for r in rows])
            entry["mean_pd"] = float(np.mean(pd))
            entry["std_pd"] = float(np.std(pd, ddof=1)) if pd.size > 1 else 0.0
        summary[label] = entry
    return summary


def _run_sweep(cfg: RunConfig, workers: int, path: str, out: Path, name: str,
               plans, head: dict, plot) -> int:
    """Sweep ``plans`` over the config's draws; write ``<name>.csv``,
    ``<name>_summary.json`` (``head``, the summary, failed draws) and the
    scatter figure ``plot`` = (file, row -> (x, y), svg_plot keywords) of each
    plan's draws with a false alarm. Print the summary; return the exit code."""
    res = sweep(StreamKey(cfg.seed).child(_EXP_SWEEP), cfg.scenario, cfg.mismatch, plans,
                cfg.n_draws, cfg.trials.pfa, pd_trials=cfg.trials.pd, workers=workers, path=path)
    meta = run_meta(cfg, path)
    summary = _summarize(res)
    file, point, labels = plot
    series = []
    for plan in plans:
        points = [point(r) for r in res.rows if r.detector == plan.label and r.pfa_hat > 0]
        if points:
            series.append((plan.label, *np.array(points, dtype=float).T))
    if series:
        svg_plot(out / file, series, meta=meta, scatter=True, **labels)
    write_csv(out / f"{name}.csv", SWEEP_FIELDS, [vars(row) for row in res.rows], meta)
    write_json(out / f"{name}_summary.json",
               {**head, "summary": summary, "errors": [list(e) for e in res.errors]}, meta)
    for label, entry in summary.items():
        fields = " ".join(f"{key}={val:.4g}" if isinstance(val, float) else f"{key}={val}"
                          for key, val in entry.items())
        _print(f"{label:>18s}: {fields}")
    _print(f"wrote {out / f'{name}.csv'} ({len(res.rows)} rows)")
    for draw_id, err in res.errors:
        _print(f"draw {draw_id} failed: {err}")
    return EXIT_NUMERIC if res.errors else EXIT_OK


def cmd_sweep(cfg: RunConfig, workers: int, path: str, out: Path) -> int:
    sc = cfg.scenario
    entries = _calibrate(cfg, workers)
    plans = [DetectorPlan(label=det_label(e.kind), threshold=e.threshold, kind=e.kind)
             for e in entries]
    eta_nominal = kelly_threshold(cfg.pfa_target, sc.n, sc.k)
    plans += [DetectorPlan(label=clairvoyant_label(c), threshold=eta_nominal, clairvoyant_c=c)
              for c in cfg.clairvoyant_c]
    return _run_sweep(cfg, workers, path, out, "sweep", plans,
                      {"thresholds": _thresholds_json(entries)},
                      ("sweep_pfa.svg", lambda r: (r.draw_id, np.log10(r.pfa_hat)),
                       dict(title=f"False alarm per draw ({cfg.mismatch.variant})",
                            xlabel="draw", ylabel="log10 Pfa")))


def cmd_roc(cfg: RunConfig, workers: int, path: str, out: Path) -> int:
    sc = cfg.scenario
    entries = _calibrate(cfg, workers)
    plans = [DetectorPlan(label=det_label(e.kind), threshold=e.threshold, kind=e.kind,
                          snr_linear=calibrate_snr(e.kind, e.threshold, sc.n, sc.k, cfg.pd_target))
             for e in entries]
    snr_report = {p.label: {"snr_linear": p.snr_linear, "snr_db": 10.0 * float(np.log10(p.snr_linear))}
                  for p in plans}
    return _run_sweep(cfg, workers, path, out, "roc", plans,
                      {"thresholds": _thresholds_json(entries), "snr": snr_report},
                      ("roc_scatter.svg", lambda r: (r.pfa_hat, r.pd_hat),
                       dict(title=f"Operating points over draws ({cfg.mismatch.variant})",
                            xlabel="Pfa", ylabel="Pd", logx=True)))


_COMMANDS = {
    "validate": cmd_validate,
    "calibrate": cmd_calibrate,
    "cdf": cmd_cdf,
    "sweep": cmd_sweep,
    "roc": cmd_roc,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _load_cfg(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # The engine starts at most one worker per available CPU, whatever is asked.
    workers = available_cpus() if args.workers is None else args.workers
    if workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, workers, args.path, out)
    except BrokenExecutor:
        raise  # a RuntimeError, but a dead worker is no numerical failure
    except (NotPositiveDefiniteError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        shutdown_pool()


if __name__ == "__main__":
    sys.exit(main())
