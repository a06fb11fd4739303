"""Correctness checks on the program's output files.

The references here are computed without the package: the matched-case law
of the invariant pair is P(t_tilde > x) = (1 + x)^-L with L = K - N + 1,
independent of beta ~ Beta(L + 1, N - 1), so every detector's false-alarm
probability at a threshold is a one-dimensional integral over beta.

Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy import integrate, stats

Z95 = 1.959963984540054  # two-sided 95 % normal quantile


def matched_pfa(kind: str, kappa: float | None, eta: float, n: int, k: int) -> float:
    """P(statistic > eta) under no mismatch, by quadrature over beta."""
    big_l = k - n + 1
    if kind == "kelly":
        return (1.0 + eta) ** -big_l
    if kind == "amf":
        def tail(b):
            return (1.0 + eta * b) ** -big_l
    elif kind == "kalson":
        def tail(b):
            return (1.0 + eta * (1.0 + b * (kappa - 1.0))) ** -big_l
    else:
        raise ValueError(f"unknown detector kind {kind!r}")
    law = stats.beta(big_l + 1, n - 1)
    val, _ = integrate.quad(lambda b: tail(b) * law.pdf(b), 0.0, 1.0, epsabs=0.0, epsrel=1e-11)
    return val


def binom_sd(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def wilson(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95 % interval, written out here rather than imported."""
    p = k / n
    zz = Z95 * Z95
    denom = 1.0 + zz / n
    center = (p + zz / (2 * n)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1 - p) / n + zz / (4 * n * n))
    return center - half, center + half


def rel_half_width(lo: float, hi: float, p: float) -> float:
    return (hi - lo) / (2.0 * p) if p > 0 else math.inf


def read_rows(path: Path) -> list[dict[str, str]]:
    """Rows of a CSV written with '# key: value' comment lines before the header."""
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("# ")]
    return list(csv.DictReader(body))


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _det_key(entry: dict) -> tuple:
    return entry["kind"], entry.get("kappa")


# --- calibrate ---------------------------------------------------------------

def check_calibrate(out: Path, cfg: dict) -> list[str]:
    n, k = cfg["scenario"]["n"], cfg["scenario"]["k"]
    target = cfg["pfa_target"]
    entries = _load_json(out / "thresholds.json")["thresholds"]
    want = [(d["kind"], d.get("kappa")) for d in cfg["detectors"]]
    if [_det_key(e) for e in entries] != want:
        return [f"thresholds.json detectors {[_det_key(e) for e in entries]} != config {want}"]
    errors = []
    for e in entries:
        label = f"{e['kind']}{'' if e['kappa'] is None else e['kappa']}"
        trials = e["n_trials"]
        implied = matched_pfa(e["kind"], e["kappa"], e["threshold"], n, k)
        if abs(implied - target) > 5.0 * binom_sd(target, trials):
            errors.append(f"{label}: threshold {e['threshold']!r} implies pfa {implied:.4e}, "
                          f"more than 5 sigma from {target:.1e} at {trials} trials")
        ach = e["achieved"]
        if ach["n_trials"] != trials or ach["p_hat"] != ach["exceedances"] / trials:
            errors.append(f"{label}: achieved estimate is inconsistent: {ach}")
        elif abs(ach["p_hat"] - implied) > 5.0 * binom_sd(implied, trials):
            errors.append(f"{label}: achieved pfa {ach['p_hat']:.4e} is more than 5 sigma "
                          f"from the implied {implied:.4e}")
    return errors


def calibrate_precision(out: Path) -> float:
    """Root mean square over detectors of the achieved estimate's relative half-width.

    The mean of the squares, not a median of three: ``r^2`` goes as one over
    the exceedance count, and at one seed the three counts were 415, 527 and
    604 for an expected 500.
    """
    entries = _load_json(out / "thresholds.json")["thresholds"]
    return math.sqrt(statistics.fmean(
        rel_half_width(e["achieved"]["ci_lo"], e["achieved"]["ci_hi"], e["achieved"]["p_hat"]) ** 2
        for e in entries
    ))


# --- sweep and roc -----------------------------------------------------------

def _check_rows(rows: list[dict], expect: int, with_pd: bool) -> list[str]:
    if len(rows) != expect:
        return [f"{len(rows)} rows, expected {expect}"]
    errors = []
    for row in rows:
        pairs = [("n_trials", "exceedances", "pfa_hat", "ci_lo", "ci_hi")]
        if with_pd:
            pairs.append(("pd_n_trials", "pd_exceedances", "pd_hat", "pd_ci_lo", "pd_ci_hi"))
        for nk, ck, pk, lk, hk in pairs:
            n, c = int(row[nk]), int(row[ck])
            lo, hi = wilson(c, n)
            lo = 0.0 if c == 0 else max(0.0, lo)
            hi = 1.0 if c == n else min(1.0, hi)
            if float(row[pk]) != c / n or not (
                math.isclose(float(row[lk]), lo, rel_tol=1e-9, abs_tol=1e-15)
                and math.isclose(float(row[hk]), hi, rel_tol=1e-9, abs_tol=1e-15)
            ):
                errors.append(f"draw {row['draw_id']} {row['detector']}: {pk} or its interval "
                              f"does not match {c}/{n}")
    return errors[:5]


def pooled(rows: list[dict], count_key: str, trials_key: str) -> dict[str, tuple[int, int]]:
    out: dict[str, tuple[int, int]] = {}
    for row in rows:
        c, n = out.get(row["detector"], (0, 0))
        out[row["detector"]] = (c + int(row[count_key]), n + int(row[trials_key]))
    return out


def rows_precision(out: Path, csv_name: str) -> float:
    return statistics.median(
        rel_half_width(float(r["ci_lo"]), float(r["ci_hi"]), float(r["pfa_hat"]))
        for r in read_rows(out / csv_name)
    )


def check_sweep(out: Path, cfg: dict, reference: dict) -> list[str]:
    """Row bookkeeping plus each plan's pooled Pfa against a recorded reference.

    ``reference["pooled_pfa"]`` maps a plan label to the mean and standard
    deviation over seeds of its pooled Pfa at ``reference["draws"]`` draws of
    ``reference["trials"]`` trials. The tolerance is five of those standard
    deviations, widened for runs with fewer trials in total.
    """
    rows = read_rows(out / "sweep.csv")
    summary = _load_json(out / "sweep_summary.json")
    draws, trials = cfg["n_draws"], cfg["trials"]["pfa"]
    pooled_ref = reference["pooled_pfa"]
    errors = [f"draw errors: {summary['errors']}"] if summary["errors"] else []
    errors += _check_rows(rows, draws * len(pooled_ref), with_pd=False)
    if errors:
        return errors
    widen = math.sqrt(max(1.0, reference["draws"] * reference["trials"] / (draws * trials)))
    for label, (count, total) in sorted(pooled(rows, "exceedances", "n_trials").items()):
        if label not in pooled_ref:
            errors.append(f"unexpected plan {label!r}")
            continue
        mean, sd = pooled_ref[label]
        tol = 5.0 * sd * widen
        if abs(count / total - mean) > tol:
            errors.append(f"{label}: pooled pfa {count / total:.4e} is more than {tol:.2e} "
                          f"from the reference {mean:.4e}")
    return errors


def check_roc(out: Path, cfg: dict) -> list[str]:
    """Matched direct path: pooled Pfa at each calibrated threshold equals the
    quadrature value, and the pooled Pd sits at the target within the SNR
    search's own acceptance band plus sampling noise."""
    n, k = cfg["scenario"]["n"], cfg["scenario"]["k"]
    rows = read_rows(out / "roc.csv")
    summary = _load_json(out / "roc_summary.json")
    dets = cfg["detectors"]
    errors = [f"draw errors: {summary['errors']}"] if summary["errors"] else []
    errors += _check_rows(rows, cfg["n_draws"] * len(dets), with_pd=True)
    if errors:
        return errors
    thresholds = {e["kind"]: e["threshold"] for e in summary["thresholds"]}
    pooled_pfa = pooled(rows, "exceedances", "n_trials")
    pooled_pd = pooled(rows, "pd_exceedances", "pd_n_trials")
    pd_target, pd_trials = cfg["pd_target"], cfg["trials"]["pd"]
    lo, hi = wilson(round(pd_target * pd_trials), pd_trials)
    search_band = (hi - lo) + 5.0 * binom_sd(pd_target, pd_trials)
    for d in dets:
        label = d["kind"]
        implied = matched_pfa(label, None, thresholds[label], n, k)
        count, trials = pooled_pfa[label]
        if abs(count / trials - implied) > 5.0 * binom_sd(implied, trials):
            errors.append(f"{label}: pooled direct pfa {count / trials:.4e} is more than 5 sigma "
                          f"from the quadrature value {implied:.4e}")
        count, trials = pooled_pd[label]
        tol = search_band + 5.0 * binom_sd(pd_target, trials)
        if abs(count / trials - pd_target) > tol:
            errors.append(f"{label}: pooled pd {count / trials:.4f} is more than {tol:.4f} "
                          f"from the target {pd_target}")
    return errors


# --- cdf ---------------------------------------------------------------------

def check_cdf(out: Path, cfg: dict, read_csv) -> list[str]:
    """Round trip through the package's own CSV reader, then per-draw KS
    distances to the matched laws below the Kolmogorov critical value at
    level 1e-6 (a correct sampler fails one of the twenty tests about once
    in fifty thousand runs)."""
    n, k = cfg["scenario"]["n"], cfg["scenario"]["k"]
    big_l = k - n + 1
    draws, m = cfg["n_cdf_draws"], cfg["trials"]["cdf_samples"]
    meta, rows = read_csv(out / "cdf_samples.csv")
    errors = []
    if len(rows) != draws * m:
        return [f"cdf_samples.csv has {len(rows)} rows, expected {draws * m}"]
    if int(meta.get("seed", -1)) != cfg["seed"]:
        errors.append(f"cdf_samples.csv seed {meta.get('seed')!r} != {cfg['seed']}")
    draw_id = np.array([int(r["draw_id"]) for r in rows])
    beta = np.array([float(r["beta"]) for r in rows])
    t = np.array([float(r["t_tilde"]) for r in rows])
    limit = float(stats.kstwo.isf(1e-6, m))
    beta_law = stats.beta(big_l + 1, n - 1)
    for d in range(draws):
        sel = draw_id == d
        if int(sel.sum()) != m:
            errors.append(f"draw {d} has {int(sel.sum())} samples, expected {m}")
            continue
        d_beta = stats.kstest(beta[sel], beta_law.cdf).statistic
        d_t = stats.kstest(t[sel], lambda x: 1.0 - (1.0 + np.maximum(x, 0.0)) ** -big_l).statistic
        if d_beta > limit or d_t > limit:
            errors.append(f"draw {d}: KS D_beta={d_beta:.4f} D_t={d_t:.4f} over limit {limit:.4f}")
    for name in ("cdf_beta.svg", "cdf_t.svg"):
        try:
            root = ET.parse(out / name).getroot()
        except ET.ParseError as exc:
            errors.append(f"{name} is not well-formed XML: {exc}")
            continue
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        if len(lines) != draws + 1:
            errors.append(f"{name} has {len(lines)} curves, expected {draws + 1}")
    return errors


def cdf_precision(cfg: dict) -> float:
    """Relative 95 % Wilson half-width of one draw's ECDF at its median."""
    m = cfg["trials"]["cdf_samples"]
    lo, hi = wilson(m // 2, m)
    return rel_half_width(lo, hi, (m // 2) / m)
