"""Monte-Carlo engine: threshold/SNR calibration, probability estimates, sweeps.

Determinism contract: every experiment walks a stream-key tree whose path is
(draw, purpose, chunk) with a fixed chunk size, and reductions are integer
exceedance counts, so results are bitwise identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats as sstats

from .detect import DetectorKind, gen_data_batch, kalson, pairs_from_raw, raw_stats_batch, stat_values
from .mismatch import MismatchSpec, gen_sigma_t, omega_decompose
from .randkit import cf1_survival, wilson_ci
from .scenario import ScenarioCfg, build_cov, build_steering, snr_to_alpha
from .storep import RepSampler, sample_pairs

CHUNK_FAST = 1 << 16
CHUNK_DIRECT = 1 << 11

# Purpose labels inside one draw's stream subtree.
_PURPOSE_SIGMA_T = 0
_PURPOSE_H0 = 1
_PURPOSE_H1 = 2


@dataclass(frozen=True)
class PfaEstimate:
    """Exceedance fraction with its Wilson 95% interval."""

    p_hat: float
    n_trials: int
    ci_lo: float
    ci_hi: float
    exceedances: int

    def __post_init__(self):
        if self.n_trials < 1 or not 0 <= self.exceedances <= self.n_trials:
            raise ValueError("exceedances must lie in [0, n_trials]")
        if not (0.0 <= self.ci_lo <= self.p_hat <= self.ci_hi <= 1.0):
            raise ValueError("interval must satisfy ci_lo <= p_hat <= ci_hi in [0, 1]")

    @classmethod
    def from_counts(cls, exceedances: int, n_trials: int, level: float = 0.95) -> "PfaEstimate":
        lo, hi = wilson_ci(exceedances, n_trials, level)
        return cls(
            p_hat=exceedances / n_trials,
            n_trials=n_trials,
            ci_lo=lo,
            ci_hi=hi,
            exceedances=exceedances,
        )


@dataclass(frozen=True)
class ThresholdEntry:
    """Calibrated threshold plus the achieved false-alarm check behind it."""

    kind: DetectorKind
    n: int
    k: int
    pfa_target: float
    threshold: float
    n_trials: int
    achieved: PfaEstimate


@dataclass(frozen=True)
class ThresholdTable:
    entries: tuple[ThresholdEntry, ...]

    def lookup(self, kind: DetectorKind) -> ThresholdEntry:
        for e in self.entries:
            if e.kind == kind:
                return e
        raise KeyError(f"no calibrated entry for {kind}")

    def to_jsonable(self) -> list[dict]:
        return [
            {
                "kind": e.kind.kind,
                "kappa": e.kind.kappa,
                "n": e.n,
                "k": e.k,
                "pfa_target": e.pfa_target,
                "threshold": e.threshold,
                "n_trials": e.n_trials,
                "achieved": dataclasses.asdict(e.achieved),
            }
            for e in self.entries
        ]

    @classmethod
    def from_jsonable(cls, items: list[dict]) -> "ThresholdTable":
        entries = []
        for it in items:
            entries.append(
                ThresholdEntry(
                    kind=DetectorKind(it["kind"], it["kappa"]),
                    n=it["n"],
                    k=it["k"],
                    pfa_target=it["pfa_target"],
                    threshold=it["threshold"],
                    n_trials=it["n_trials"],
                    achieved=PfaEstimate(**it["achieved"]),
                )
            )
        return cls(entries=tuple(entries))


@dataclass(frozen=True)
class MisSetup:
    """One fully specified simulation point for the direct (matrix) path:
    covariances, steering, amplitude, K."""

    sigma: np.ndarray
    sigma_t: np.ndarray
    v: np.ndarray
    alpha_abs: float
    k: int


@dataclass(frozen=True)
class DetectorPlan:
    """One sweep column: a detector (fixed, or clairvoyant kappa = c * Schur),
    its calibrated threshold, and optionally the calibrated SNR for P_d rows."""

    label: str
    threshold: float
    kind: DetectorKind | None = None
    clairvoyant_c: float | None = None
    snr_linear: float | None = None

    def __post_init__(self):
        if (self.kind is None) == (self.clairvoyant_c is None):
            raise ValueError("exactly one of kind / clairvoyant_c must be set")
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.clairvoyant_c is not None and not self.clairvoyant_c > 0:
            raise ValueError("clairvoyant_c must be positive")

    def resolve(self, schur: float) -> DetectorKind:
        if self.kind is not None:
            return self.kind
        return kalson(self.clairvoyant_c * schur)


@dataclass(frozen=True)
class SweepRow:
    draw_id: int
    variant: str
    draw_meta: str
    detector: str
    kappa: float | None
    n_trials: int
    exceedances: int
    pfa_hat: float
    ci_lo: float
    ci_hi: float
    snr_db: float | None = None
    pd_n_trials: int | None = None
    pd_exceedances: int | None = None
    pd_hat: float | None = None
    pd_ci_lo: float | None = None
    pd_ci_hi: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    errors: tuple[tuple[int, str], ...] = ()


def nomismatch_sampler(n: int, k: int, gamma_t: float = 0.0) -> RepSampler:
    """Sampler state for the matched case: unit block, zero cross row, unit gain."""
    return RepSampler(
        n=n,
        k=k,
        lam=np.ones(n - 1),
        l11=np.eye(n - 1, dtype=np.complex128),
        w=np.zeros(n - 1, dtype=np.complex128),
        r=1.0,
        gamma_t=gamma_t,
    )


def kelly_threshold(pfa_target: float, n: int, k: int) -> float:
    """Closed-form GLRT threshold: survival (1+t)^-(K-N+1) inverted at the target."""
    if not 0.0 < pfa_target < 1.0:
        raise ValueError(f"pfa_target must be in (0, 1), got {pfa_target}")
    if k < n:
        raise ValueError(f"need K >= N, got K={k}, N={n}")
    return float(pfa_target ** (-1.0 / (k - n + 1)) - 1.0)


def _chunks(n_total: int, chunk: int):
    full, rem = divmod(n_total, chunk)
    out = [(i, chunk) for i in range(full)]
    if rem:
        out.append((full, rem))
    return out


# One worker pool per process, as (workers, executor), reused across calls
# until the worker count changes or the pool breaks; the CLI shuts it down
# when a run ends.
_pool = None

# Tasks per worker below which every task goes to the pool on its own.
# Above it, tasks travel in batches that keep at least this many batches per
# worker for load balance, and the parent pays far fewer round trips.
_TASKS_PER_WORKER = 16


def _map_chunks(fn, args_list, workers: int):
    global _pool
    if workers <= 1:
        return [fn(a) for a in args_list]
    if _pool is None or _pool[0] != workers or _pool[1]._broken:
        shutdown_pool()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    chunksize = max(1, len(args_list) // (_TASKS_PER_WORKER * workers))
    return list(_pool[1].map(fn, args_list, chunksize=chunksize))


def shutdown_pool() -> None:
    """Stop the shared worker pool, if one is running."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def draw_pairs(stream, source, size: int):
    """(beta, t_tilde) arrays for one chunk of trials.

    ``source`` is a RepSampler (fast path: the representation sampler) or a
    MisSetup (direct path: full matrices reduced by the raw statistics).
    """
    if isinstance(source, RepSampler):
        return sample_pairs(stream, source, size)
    x, xt = gen_data_batch(stream, source.sigma, source.sigma_t, source.alpha_abs,
                           source.v, source.k, size)
    return pairs_from_raw(*raw_stats_batch(x, xt, source.v))


def _count_chunk(args):
    stream, source, scores, size = args
    beta, t = draw_pairs(stream, source, size)
    return [int(np.count_nonzero(stat_values(kind, beta, t) > threshold))
            for kind, threshold in scores]


def _count(stream, source, scores, n_trials: int, workers: int = 1) -> list[int]:
    """Exceedance counts of every (kind, threshold) in ``scores`` on shared trials.

    Chunk ``ci`` of ``n_trials`` draws from ``stream.child(ci)``; the chunk
    size is fixed by the source type, so counts never depend on ``workers``.
    """
    chunk = CHUNK_FAST if isinstance(source, RepSampler) else CHUNK_DIRECT
    args = [(stream.child(ci), source, scores, size) for ci, size in _chunks(n_trials, chunk)]
    return [sum(col) for col in zip(*_map_chunks(_count_chunk, args, workers))]


def _tail_chunk(args):
    stream, sampler, kind, size, keep = args
    vals = np.asarray(stat_values(kind, *draw_pairs(stream, sampler, size)), dtype=float)
    if size <= keep:
        return vals
    return np.partition(vals, size - keep)[size - keep:]


def calibrate_threshold(stream, kind: DetectorKind, n: int, k: int, pfa_target: float,
                        n_trials: int, workers: int = 1) -> float:
    """Empirical (1 - pfa_target)-quantile of the matched H0 statistic.

    Each chunk returns only its largest n_trials - k_ord values: the
    quantile is the smallest of the overall top n_trials - k_ord, and every
    one of those is among its own chunk's top, so the order statistic is
    exact while IPC and memory stay at the tail's size.

    The GLRT entry is cross-checked against its closed form; disagreement
    beyond five binomial sigmas means the sampler or the quantile is broken,
    so that is an error, not a warning.
    """
    if not 0.0 < pfa_target < 1.0:
        raise ValueError(f"pfa_target must be in (0, 1), got {pfa_target}")
    required = int(np.ceil(100.0 / pfa_target))
    if n_trials < required:
        raise ValueError(
            f"n_trials={n_trials} too small for pfa_target={pfa_target}; need >= {required}"
        )
    k_ord = min(n_trials - 1, max(0, int(np.ceil((1.0 - pfa_target) * n_trials)) - 1))
    keep = n_trials - k_ord
    sampler = nomismatch_sampler(n, k)
    args = [(stream.child(ci), sampler, kind, size, keep)
            for ci, size in _chunks(n_trials, CHUNK_FAST)]
    tail = np.concatenate(_map_chunks(_tail_chunk, args, workers))
    threshold = float(np.partition(tail, tail.size - keep)[tail.size - keep])
    is_glrt = kind.kind == "kelly" or (kind.kind == "kalson" and kind.kappa == 1.0)
    if is_glrt:
        implied = cf1_survival(threshold, k - n + 1)
        sigma_mc = np.sqrt(pfa_target * (1.0 - pfa_target) / n_trials)
        if abs(implied - pfa_target) > 5.0 * sigma_mc:
            raise RuntimeError(
                f"calibrated threshold {threshold:.6g} implies pfa {implied:.3e}, "
                f"more than 5 sigma from target {pfa_target:.3e}"
            )
    return threshold


def calibrate_entry(stream, kind: DetectorKind, n: int, k: int, pfa_target: float,
                    n_trials: int, workers: int = 1) -> ThresholdEntry:
    """Threshold plus an achieved-pfa estimate on a sibling stream (fresh samples)."""
    threshold = calibrate_threshold(stream.child(0), kind, n, k, pfa_target, n_trials, workers)
    (count,) = _count(stream.child(1), nomismatch_sampler(n, k), ((kind, threshold),),
                      n_trials, workers)
    return ThresholdEntry(
        kind=kind,
        n=n,
        k=k,
        pfa_target=pfa_target,
        threshold=threshold,
        n_trials=n_trials,
        achieved=PfaEstimate.from_counts(count, n_trials),
    )


def count_exceedances(stream, kind: DetectorKind, threshold: float, source,
                      n_trials: int, workers: int = 1) -> int:
    """Exceedance count of one detector over ``n_trials`` trials from ``source``,
    a RepSampler (fast path) or a MisSetup (direct path)."""
    return _count(stream, source, ((kind, threshold),), n_trials, workers)[0]


def calibrate_snr(stream, kind: DetectorKind, threshold: float, sigma, v, pd_target: float,
                  n_trials: int, k: int, workers: int = 1) -> float:
    """Bisection on matched-case SNR until estimated P_d hits the target.

    Under no mismatch the representation depends on SNR only through the
    noncentrality, so the search runs directly over gamma_t = SNR (linear).
    """
    if not 0.0 < pd_target < 1.0:
        raise ValueError(f"pd_target must be in (0, 1), got {pd_target}")
    n = sigma.shape[0]
    eval_idx = 0

    def pd_at(snr: float) -> PfaEstimate:
        nonlocal eval_idx
        sampler = nomismatch_sampler(n, k, gamma_t=snr)
        count = count_exceedances(stream.child(eval_idx), kind, threshold, sampler,
                                  n_trials, workers)
        eval_idx += 1
        return PfaEstimate.from_counts(count, n_trials)

    lo, hi = 0.0, 1.0
    est = pd_at(hi)
    grow = 0
    while est.p_hat < pd_target:
        lo, hi = hi, hi * 4.0
        grow += 1
        if grow > 20:
            raise RuntimeError(
                f"SNR bracket failed: P_d at snr={hi:.3e} is only {est.p_hat:.4f}, "
                f"target {pd_target}"
            )
        est = pd_at(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        est = pd_at(mid)
        half_width = 0.5 * (est.ci_hi - est.ci_lo)
        if abs(est.p_hat - pd_target) <= 2.0 * half_width:
            return mid
        if est.p_hat < pd_target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(
        f"SNR bisection did not settle: last estimate {est.p_hat:.4f} at snr={mid:.4e}, "
        f"target {pd_target} +/- {2 * half_width:.2e}"
    )


def meta_digest(variant_meta: dict, schur: float) -> str:
    """Compact key=value rendering of drawn scalars; vectors become short hashes."""
    parts = []
    for key in sorted(variant_meta):
        val = variant_meta[key]
        if np.ndim(val) == 0:
            parts.append(f"{key}={float(val):.8g}")
        else:
            h = hashlib.sha256(np.ascontiguousarray(val).tobytes()).hexdigest()[:8]
            parts.append(f"{key}=h{h}")
    parts.append(f"omega_schur={schur:.8g}")
    return ";".join(parts)


def _sweep_draw(args):
    (draw_stream, draw_id, scenario, mspec, plans, n_trials, pd_trials, with_pd, path) = args
    try:
        sigma = build_cov(scenario)
        v = build_steering(scenario.n, scenario.fd)
        n, k = scenario.n, scenario.k
        sigma_t, meta = gen_sigma_t(draw_stream.child(_PURPOSE_SIGMA_T), sigma, v, mspec)
        om = omega_decompose(sigma, sigma_t, v)
        base = RepSampler(n=n, k=k, lam=om.lam, l11=om.omega11_factor, w=om.w,
                          r=om.schur, gamma_t=0.0)
        digest = meta_digest(meta, om.schur)

        def source(alpha_abs):
            if path == "fast":
                return dataclasses.replace(base, gamma_t=alpha_abs**2 * om.vt_quad)
            return MisSetup(sigma=sigma, sigma_t=sigma_t, v=v, alpha_abs=alpha_abs, k=k)

        kinds = [plan.resolve(om.schur) for plan in plans]
        counts = _count(draw_stream.child(_PURPOSE_H0), source(0.0),
                        tuple((kd, plan.threshold) for kd, plan in zip(kinds, plans)), n_trials)

        rows = []
        for pi, (plan, kd, count) in enumerate(zip(plans, kinds, counts)):
            est = PfaEstimate.from_counts(count, n_trials)
            pd_fields = {}
            if with_pd:
                if plan.snr_linear is None:
                    raise ValueError(f"plan {plan.label!r} has no calibrated SNR for P_d rows")
                alpha_abs = snr_to_alpha(plan.snr_linear, sigma, v)
                (pd_count,) = _count(draw_stream.child(_PURPOSE_H1, pi), source(alpha_abs),
                                     ((kd, plan.threshold),), pd_trials)
                pe = PfaEstimate.from_counts(pd_count, pd_trials)
                snr_db = 10.0 * np.log10(plan.snr_linear) if plan.snr_linear > 0 else float("-inf")
                pd_fields = dict(
                    snr_db=snr_db,
                    pd_n_trials=pd_trials,
                    pd_exceedances=pe.exceedances,
                    pd_hat=pe.p_hat,
                    pd_ci_lo=pe.ci_lo,
                    pd_ci_hi=pe.ci_hi,
                )
            rows.append(SweepRow(
                draw_id=draw_id,
                variant=mspec.variant,
                draw_meta=digest,
                detector=plan.label,
                kappa=kd.kappa,
                n_trials=n_trials,
                exceedances=est.exceedances,
                pfa_hat=est.p_hat,
                ci_lo=est.ci_lo,
                ci_hi=est.ci_hi,
                **pd_fields,
            ))
        return draw_id, rows, None
    except Exception as exc:  # noqa: BLE001 - per-draw failures are recorded, sweep continues
        return draw_id, [], f"{type(exc).__name__}: {exc}"


def sweep(stream, scenario: ScenarioCfg, mspec: MismatchSpec, plans, n_draws: int,
          n_trials: int, with_pd: bool = False, pd_trials: int = 100_000,
          workers: int = 1, path: str = "fast") -> SweepResult:
    """Per-draw false-alarm (and optionally detection) estimates over mismatch draws.

    Stream layout: child(draw) -> child(purpose, [plan,] chunk); worker count
    never changes which stream generates which trial. ``path`` selects the
    representation sampler ("fast") or full matrix simulation ("direct");
    the two consume streams differently, so they agree in distribution, not
    draw for draw.
    """
    plans = tuple(plans)
    if not plans:
        raise ValueError("need at least one detector plan")
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    if path not in ("fast", "direct"):
        raise ValueError(f"path must be 'fast' or 'direct', got {path!r}")
    args = [
        (stream.child(d), d, scenario, mspec, plans, n_trials, pd_trials, with_pd, path)
        for d in range(n_draws)
    ]
    results = _map_chunks(_sweep_draw, args, workers)
    rows: list[SweepRow] = []
    errors: list[tuple[int, str]] = []
    for draw_id, draw_rows, err in sorted(results, key=lambda r: r[0]):
        if err is not None:
            errors.append((draw_id, err))
        else:
            rows.extend(draw_rows)
    return SweepResult(rows=tuple(rows), errors=tuple(errors))


def ecdf(values):
    """Right-continuous empirical CDF: sorted unique values with cumulative fractions."""
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("ecdf of empty sample is undefined")
    uniq, counts = np.unique(arr, return_counts=True)
    return uniq, np.cumsum(counts) / arr.size


def ks_stat(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup distance against a callable CDF."""
    return float(sstats.kstest(np.asarray(samples, dtype=float), cdf).statistic)


def ks_2sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup distance."""
    return float(sstats.ks_2samp(np.asarray(a, dtype=float), np.asarray(b, dtype=float)).statistic)
