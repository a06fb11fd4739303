"""Monte-Carlo engine: trial-free matched calibration, probability estimates, sweeps.

Determinism contract: every experiment walks a stream-key tree whose path is
(draw, purpose, chunk), CHUNK trials per chunk on both paths, pool tasks are
fixed runs of chunks, and reductions are integer exceedance counts, so results
are bitwise identical for any worker count.

A sweep draw's fast-path source is the ``RepSampler`` that ``omega_decompose``
returns. The direct path, the matrix oracle, builds only a ``MisSetup`` and
takes the Schur complement r (for a clairvoyant kappa and the draw digest)
from its independent form v^H inv(sigma_t) v / v^H inv(sigma) v, so no check
or fault of the representation's geometry reaches it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detect import DetectorKind, gen_data_batch, kalson, pairs_from_raw, raw_stats_batch, stat_values
from .mismatch import MismatchSpec, RepSampler, gen_sigma_t, omega_decompose
from .randkit import cf1_survival, wilson_ci
from .scenario import ScenarioCfg, build_cov, build_steering, snr_to_alpha, whitened_quad
from .storep import sample_pairs

# Trials per chunk on both paths; no chunk's memory grows with a trial count.
CHUNK = 1 << 11

# Purpose labels inside one draw's stream subtree (2 is retired).
_PURPOSE_SIGMA_T = 0
_PURPOSE_H0 = 1

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
    def from_counts(cls, exceedances: int, n_trials: int) -> "PfaEstimate":
        lo, hi = wilson_ci(exceedances, n_trials)
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
class MisSetup:
    """One simulation point of the direct path (test vector and Bartlett factor
    of the sample covariance): covariances, steering, K. No signal is part of
    it; ``draw_pairs`` adds one of amplitude alpha as alpha * v."""

    sigma: np.ndarray
    sigma_t: np.ndarray
    v: np.ndarray
    k: int


@dataclass(frozen=True)
class DetectorPlan:
    """One sweep column: a detector (fixed, or clairvoyant kappa = c * r, with r
    the draw's Schur complement), its calibrated threshold, and optionally the
    calibrated SNR for P_d rows; the plans of one sweep all carry an SNR or
    none does."""

    label: str
    threshold: float
    kind: DetectorKind | None = None
    clairvoyant_c: float | None = None
    snr_linear: float | None = None

    def __post_init__(self):
        if (self.kind is None) == (self.clairvoyant_c is None):
            raise ValueError("exactly one of kind / clairvoyant_c must be set")
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.snr_linear is not None and not 0 <= self.snr_linear < math.inf:
            raise ValueError(f"snr_linear must be finite and >= 0, got {self.snr_linear}")

    def resolve(self, r: float) -> DetectorKind:
        if self.kind is not None:
            return self.kind
        return kalson(self.clairvoyant_c * r)

    @property
    def snr_db(self) -> float | None:
        """The calibrated SNR in dB: None without one, -inf at 0."""
        if self.snr_linear is None:
            return None
        return float(10.0 * np.log10(self.snr_linear)) if self.snr_linear > 0 else float("-inf")


@dataclass(frozen=True)
class SweepRow:
    """One plan on one draw: its P_fa and, when the plan has an SNR, that SNR and its P_d."""

    draw_id: int
    variant: str
    draw_meta: str
    detector: str
    kappa: float | None
    pfa: PfaEstimate
    snr_db: float | None = None
    pd: PfaEstimate | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    errors: tuple[tuple[int, str], ...] = ()


def nomismatch_sampler(n: int, k: int) -> RepSampler:
    """Sampler state for the matched case: unit block, zero cross row, unit
    gain, and vt_quad = 1, so a signal of amplitude alpha has SNR alpha^2."""
    return RepSampler(n=n, k=k, lam=np.ones(n - 1), b=0.0, r=1.0, vt_quad=1.0)


def kelly_threshold(pfa_target: float, n: int, k: int) -> float:
    """Closed-form GLRT threshold: survival (1+t)^-(K-N+1) inverted at the target."""
    if not 0.0 < pfa_target < 1.0:
        raise ValueError(f"pfa_target must be in (0, 1), got {pfa_target}")
    if k < n:
        raise ValueError(f"need K >= N, got K={k}, N={n}")
    return float(pfa_target ** (-1.0 / (k - n + 1)) - 1.0)


def _chunks(stream, n_trials: int, n_more: int = 0):
    """(stream.child(ci), size) of each CHUNK-trial chunk of ``n_trials`` trials,
    then of ``n_more`` trials more on the chunks that follow, so the first
    ``n_trials`` trials never depend on ``n_more``."""
    sizes = [min(CHUNK, n - start) for n in (n_trials, n_more) for start in range(0, n, CHUNK)]
    return [(stream.child(ci), size) for ci, size in enumerate(sizes)]


# One worker pool per process, as (workers, executor), reused across calls
# until the worker count changes or the pool breaks; the CLI shuts it down
# when a run ends.
_pool = None

# Tasks per worker below which every task goes to the pool on its own.
# Above it, tasks travel in batches that keep at least this many batches per
# worker for load balance, and the parent pays far fewer round trips.
_TASKS_PER_WORKER = 16

# Chunks of one count per pool task. The number is fixed, so the tasks, like
# the counts, do not depend on the worker count.
_CHUNKS_PER_TASK = 8


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(fn, args_list, workers: int):
    """``[fn(a) for a in args_list]``, in order, on ``workers`` processes, at
    most ``available_cpus()`` of them: results do not depend on the worker
    count, and processes past the CPUs only cost memory."""
    global _pool
    workers = min(workers, available_cpus())
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


def draw_pairs(stream, source, size: int, *shifts):
    """(beta, t_tilde) arrays for one chunk of trials, then t_tilde of the same
    trials with a signal alpha * v added, for each amplitude alpha in ``shifts``.

    ``source`` is a RepSampler (fast path: the representation sampler, which
    maps alpha to its noncentrality through vt_quad) or a MisSetup (direct
    path: test vector and sample-covariance factor, whose whitened solves
    are linear in alpha). The signal leaves beta as it is.
    """
    if isinstance(source, RepSampler):
        return sample_pairs(stream, source, size, *shifts)
    x, factor = gen_data_batch(stream, source.sigma, source.sigma_t, 0.0,
                               source.v, source.k, size)
    s1, s2, *s2_shifted = raw_stats_batch(x, factor, source.v, *shifts)
    beta, t = pairs_from_raw(s1, s2)
    return (beta, t, *(beta * s for s in s2_shifted))


def draw_trials(stream, source, n_trials: int):
    """(beta, t_tilde) arrays of the ``n_trials`` trials that ``_count`` scores."""
    beta, t = zip(*(draw_pairs(s, source, size) for s, size in _chunks(stream, n_trials)))
    return np.concatenate(beta), np.concatenate(t)


def _exceedances(kind: DetectorKind, threshold: float, beta, t) -> int:
    return int(np.count_nonzero(stat_values(kind, beta, t) > threshold))


def _count_chunks(chunks) -> list[int]:
    """``_count``'s counts summed over a run of chunks."""
    counts = []
    for stream, source, scores, size, shifts, m0, m1 in chunks:
        # A chunk past the detection trials draws no signal (the trials
        # without one come first, so they stay as they are) and scores a 0
        # per shift: a shorter row would cut columns from zip(*counts).
        beta, t, *ts = draw_pairs(stream, source, size, *(shifts if m1 else ()))
        counts.append([_exceedances(kind, thr, beta[:m0], t[:m0]) for kind, thr in scores]
                      + [_exceedances(kind, thr, beta[:m1], tk[:m1])
                         for (kind, thr), tk in zip(scores, ts)]
                      + [0] * (len(shifts) - len(ts)))
    return [sum(col) for col in zip(*counts)]


def _count(stream, source, scores, n_trials: int, workers: int = 1,
           shifts=(), pd_trials: int = 0) -> list[int]:
    """Exceedance counts of every (kind, threshold) in ``scores`` on the first
    ``n_trials`` of one set of trials; then, when ``shifts`` gives each score
    a data amplitude alpha (see ``draw_pairs``), its counts on the first
    ``pd_trials`` of the same trials with that signal added.

    Chunk ``ci`` draws from ``stream.child(ci)``, CHUNK trials whatever the
    source (the last: the rest), and the trials that only detection scores
    follow on the next chunks; so counts never depend on ``workers``, and
    the false-alarm counts never on ``pd_trials``. A pool task is a run of
    ``_CHUNKS_PER_TASK`` chunks.
    """
    more = max(0, pd_trials - n_trials) if shifts else 0
    args, start = [], 0
    for s, size in _chunks(stream, n_trials, more):
        args.append((s, source, scores, size, shifts, min(size, max(0, n_trials - start)),
                     min(size, max(0, pd_trials - start))))
        start += size
    tasks = [args[i:i + _CHUNKS_PER_TASK] for i in range(0, len(args), _CHUNKS_PER_TASK)]
    return [sum(col) for col in zip(*_map_chunks(_count_chunks, tasks, workers))]


@functools.cache
def _beta_rule(n: int, k: int):
    """Nodes and weights that turn E[f(beta)], beta ~ Beta(K-N+2, N-1), into a sum.

    A tanh-sinh rule, beta = 1 / (1 + exp(-pi sinh t)) on a uniform grid in t:
    its nodes crowd the ends of [0, 1], where a large threshold puts the
    integrand's pole within 1/threshold of the interval. The step is at most
    half the law's standard deviation in t, which is at least
    2 / (pi sqrt(K+2)). Against mpmath, P_fa had relative error below 1e-13
    for N up to 256, K-N+1 up to 300, thresholds 1e-3 to 1e9 and values down
    to 1e-14. At |t| = 4.5 both beta and 1 - beta are below exp(-140), so
    the grid stops there. Built once per (n, k), so the arrays are read-only.
    """
    a, b = k - n + 2, n - 1
    h = min(1.0 / 32.0, 1.0 / (np.pi * np.sqrt(k + 2.0)))
    t = np.arange(-4.5, 4.5 + 0.5 * h, h)
    u = np.pi * np.sinh(t)
    log_beta = -np.logaddexp(0.0, -u)
    log_w = (np.log(h * np.pi * np.cosh(t)) + a * log_beta - b * np.logaddexp(0.0, u)
             - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    keep = log_w > -745.0
    w = np.exp(log_w[keep])
    beta, w = np.exp(log_beta[keep]), w / w.sum()
    beta.flags.writeable = w.flags.writeable = False
    return beta, w


def matched_exceedance(kind: DetectorKind, threshold: float, n: int, k: int,
                       snr: float = 0.0) -> float:
    """P(statistic > threshold) without mismatch at linear SNR ``snr`` (0: P_fa).

    Given beta, the statistic exceeds when t_tilde > y = threshold / (the
    statistic at t_tilde = 1), and t_tilde is complex F(1, K-N+1) with
    noncentrality beta * snr, whose survival is ``cf1_survival``. At snr = 0
    its mean over beta is the AMF law of Robey et al. (IEEE TAES 1992).
    """
    beta, w = _beta_rule(n, k)
    y = threshold / stat_values(kind, beta, np.ones_like(beta))
    return float(w @ cf1_survival(y, k - n + 1, beta * snr))


def _brent(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f on [xa, xb] by Brent's method (Algorithms for Minimization
    without Derivatives, 1973), ported line for line from scipy's brentq.c,
    so it returns the same bits as ``scipy.optimize.brentq``: inverse
    quadratic or secant steps, bisection when a step is too long, stop when
    the half bracket is below (xtol + rtol |x|) / 2. An endpoint where f is 0
    is returned; f(xa), f(xb) with one sign bit or any NaN value of f raise
    ValueError, and no convergence in ``maxiter`` steps raises RuntimeError.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


def _increasing_root(g, start: float) -> float:
    """Root of g, increasing on [0, inf) with g(0) < 0. The bracket [0, start]
    grows 4x until g(hi) >= 0; ``_brent`` then solves it to a few ulps (xtol
    1e-300 and rtol 4 eps, the smallest that brentq accepts). g's values are
    kept, so bracket ends found while growing are not evaluated again.
    """
    g = functools.cache(g)
    lo, hi = 0.0, start
    while g(hi) < 0.0:
        if hi > 1e300:
            raise ValueError("target is out of reach in floating point")
        lo, hi = hi, 4.0 * hi
    return _brent(g, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def calibrate_threshold(kind: DetectorKind, n: int, k: int, pfa_target: float) -> float:
    """Threshold at which the matched false-alarm probability is ``pfa_target``.

    The GLRT, and Kalson at unit kappa (the same statistic), have the closed
    form ``kelly_threshold``; AMF and Kalson solve matched_exceedance = target.
    """
    eta = kelly_threshold(pfa_target, n, k)
    if kind.kind == "kelly" or kind.kappa == 1.0:
        return eta
    return _increasing_root(lambda x: pfa_target - matched_exceedance(kind, x, n, k), eta)


def calibration_trials(pfa_target: float) -> int:
    """Fewest trials that cross-check a threshold at ``pfa_target``: 100 expected alarms."""
    return int(np.ceil(100.0 / pfa_target))


def within_five_sigma(count: int, n_trials: int, p: float) -> bool:
    """Whether ``count`` lies within five binomial sigmas of ``n_trials * p``;
    further out, the sampler or the threshold under test is broken."""
    return abs(count - n_trials * p) <= 5.0 * np.sqrt(n_trials * p * (1.0 - p))


def calibrate_entry(stream, kinds, n: int, k: int, pfa_target: float,
                    n_trials: int, workers: int = 1) -> tuple[ThresholdEntry, ...]:
    """Threshold of every detector in ``kinds`` plus its Monte-Carlo cross-check:
    the achieved false-alarm rate over ``n_trials`` matched trials.

    The matched law of (beta, t_tilde) has no parameters, so one trial set
    serves every detector: chunk ci of ``_count``'s CHUNK grid is drawn from
    ``stream.child(ci)``, and the trials drawn do not depend on the number of
    detectors or workers. Each detector's achieved count must be
    ``within_five_sigma`` of the target, else the error names the detector.
    """
    required = calibration_trials(pfa_target)
    if n_trials < required:
        raise ValueError(
            f"n_trials={n_trials} too small for pfa_target={pfa_target}; need >= {required}"
        )
    scores = tuple((kind, calibrate_threshold(kind, n, k, pfa_target)) for kind in kinds)
    counts = _count(stream, nomismatch_sampler(n, k), scores, n_trials, workers)
    entries = []
    for (kind, threshold), count in zip(scores, counts):
        if not within_five_sigma(count, n_trials, pfa_target):
            name = kind.kind if kind.kappa is None else f"{kind.kind} (kappa={kind.kappa:g})"
            raise RuntimeError(
                f"{name} threshold {threshold:.6g} gave {count} false alarms in {n_trials} "
                f"trials, more than 5 sigma from target {pfa_target:.3e}"
            )
        entries.append(ThresholdEntry(kind=kind, n=n, k=k, pfa_target=pfa_target,
                                      threshold=threshold, n_trials=n_trials,
                                      achieved=PfaEstimate.from_counts(count, n_trials)))
    return tuple(entries)


def count_exceedances(stream, kind: DetectorKind, threshold: float, source,
                      n_trials: int, workers: int = 1) -> int:
    """Exceedance count of one detector over ``n_trials`` trials from ``source``,
    a RepSampler (fast path) or a MisSetup (direct path)."""
    return _count(stream, source, ((kind, threshold),), n_trials, workers)[0]


def calibrate_snr(kind: DetectorKind, threshold: float, n: int, k: int,
                  pd_target: float) -> float:
    """Linear SNR at which the matched detection probability is ``pd_target``."""
    if not 0.0 < pd_target < 1.0:
        raise ValueError(f"pd_target must be in (0, 1), got {pd_target}")
    pfa = matched_exceedance(kind, threshold, n, k)
    if pfa >= pd_target:
        raise ValueError(
            f"pd_target={pd_target} is not above the false-alarm probability {pfa:.3e} "
            f"at threshold {threshold:.6g}"
        )
    return _increasing_root(lambda snr: matched_exceedance(kind, threshold, n, k, snr) - pd_target,
                            1.0)


def meta_digest(variant_meta: dict, r: float) -> str:
    """Compact key=value rendering of drawn scalars; vectors become short hashes."""
    parts = []
    for key in sorted(variant_meta):
        val = variant_meta[key]
        if np.ndim(val) == 0:
            parts.append(f"{key}={float(val):.8g}")
        else:
            h = hashlib.sha256(np.ascontiguousarray(val).tobytes()).hexdigest()[:8]
            parts.append(f"{key}=h{h}")
    parts.append(f"omega_schur={r:.8g}")
    return ";".join(parts)


def _sweep_draw(args):
    (draw_stream, draw_id, fixed, mspec, plans, n_trials, pd_trials, path) = args
    sigma, v, v_quad, k, alphas = fixed
    try:
        sigma_t, meta = gen_sigma_t(draw_stream.child(_PURPOSE_SIGMA_T), sigma, v, mspec)
        if path == "fast":
            source = omega_decompose(sigma, sigma_t, v, k, v_quad)
            r = source.r
        else:
            # The oracle takes r from its independent form, not the geometry.
            source = MisSetup(sigma=sigma, sigma_t=sigma_t, v=v, k=k)
            r = whitened_quad(sigma_t, v) / v_quad
        digest = meta_digest(meta, r)

        # The signal only moves t_tilde, so each plan's detection trials are
        # the false-alarm trials with its signal added.
        kinds = [plan.resolve(r) for plan in plans]
        counts = _count(draw_stream.child(_PURPOSE_H0), source,
                        tuple((kd, plan.threshold) for kd, plan in zip(kinds, plans)),
                        n_trials, shifts=alphas, pd_trials=pd_trials)

        return [SweepRow(draw_id=draw_id, variant=mspec.variant, draw_meta=digest,
                         detector=plan.label, kappa=kd.kappa,
                         pfa=PfaEstimate.from_counts(count, n_trials), snr_db=plan.snr_db,
                         pd=PfaEstimate.from_counts(counts[len(plans) + pi], pd_trials)
                         if alphas else None)
                for pi, (plan, kd, count) in enumerate(zip(plans, kinds, counts))], None
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # A numerical failure is recorded per draw; anything else is a bug and propagates.
        return [], f"{type(exc).__name__}: {exc}"


def sweep(stream, scenario: ScenarioCfg, mspec: MismatchSpec, plans, n_draws: int,
          n_trials: int, pd_trials: int = 100_000, workers: int = 1,
          path: str = "fast") -> SweepResult:
    """Per-draw false-alarm estimates over mismatch draws, plus detection
    estimates over ``pd_trials`` when the plans carry a calibrated SNR.

    Stream layout: child(draw) -> child(0) for the draw's sigma_t, and
    child(draw) -> child(1, chunk) for its one set of trials, max(n_trials,
    pd_trials) of them on ``_count``'s chunk grid. False alarms are counted
    on the first ``n_trials``; every plan's detections on the first
    ``pd_trials``, with the plan's signal added to the same noise and
    training data. The worker count never changes which stream generates
    which trial. ``path`` selects the representation sampler ("fast") or the
    matrix-level oracle ("direct"); the two consume streams differently, so
    they agree in distribution, not draw for draw.
    """
    plans = tuple(plans)
    if not plans:
        raise ValueError("need at least one detector plan")
    if path not in ("fast", "direct"):
        raise ValueError(f"path must be 'fast' or 'direct', got {path!r}")
    missing = [plan.label for plan in plans if plan.snr_linear is None]
    if 0 < len(missing) < len(plans):
        raise ValueError(f"plans {missing} have no calibrated SNR for P_d rows, but others do")
    # Sigma, v, v^H inv(Sigma) v and each plan's signal amplitude (none
    # without P_d) are fixed for the whole sweep, so every draw shares them.
    sigma = build_cov(scenario)
    v = build_steering(scenario.n, scenario.fd)
    alphas = () if missing else tuple(snr_to_alpha(plan.snr_linear, sigma, v) for plan in plans)
    fixed = (sigma, v, whitened_quad(sigma, v), scenario.k, alphas)
    args = [
        (stream.child(d), d, fixed, mspec, plans, n_trials, pd_trials, path)
        for d in range(n_draws)
    ]
    results = _map_chunks(_sweep_draw, args, workers)
    # A failed draw has no rows, so its error is all that it adds.
    return SweepResult(rows=tuple(row for draw_rows, _ in results for row in draw_rows),
                       errors=tuple((d, err) for d, (_, err) in enumerate(results) if err is not None))


def ecdf(values):
    """Right-continuous empirical CDF: sorted unique values with cumulative fractions."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("ecdf of empty sample is undefined")
    uniq, counts = np.unique(arr, return_counts=True)
    return uniq, np.cumsum(counts) / arr.size


def ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance sup |F_n - F| of a sample from the continuous CDF ``cdf``."""
    x, f = ecdf(sample)
    g = cdf(x)
    return float(max(np.max(f - g), np.max(g - np.concatenate(([0.0], f[:-1])))))


def ks_distance_2samp(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|, taken over the pooled values."""
    curves = [ecdf(a), ecdf(b)]
    pooled = np.concatenate([x for x, _ in curves])
    fa, fb = (np.append(0.0, f)[np.searchsorted(x, pooled, side="right")] for x, f in curves)
    return float(np.max(np.abs(fa - fb)))
