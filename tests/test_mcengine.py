import dataclasses
import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special
from scipy import stats as sstats

from cfarmismatch import mcengine
from cfarmismatch.detect import AMF, KELLY, gen_data_batch, kalson, pairs_from_raw, raw_stats_batch
from cfarmismatch.mcengine import (
    DetectorPlan,
    MisSetup,
    PfaEstimate,
    calibrate_entry,
    calibrate_snr,
    calibrate_threshold,
    count_exceedances,
    draw_pairs,
    ecdf,
    kelly_threshold,
    ks_distance,
    ks_distance_2samp,
    matched_exceedance,
    meta_digest,
    nomismatch_sampler,
    sweep,
    within_five_sigma,
)
from cfarmismatch.mismatch import MismatchSpec, gen_sigma_t, omega_decompose
from cfarmismatch.randkit import StreamKey, beta_cdf, wilson_ci
from cfarmismatch.scenario import ScenarioCfg, build_cov, build_steering, snr_to_alpha, whitened_quad
from cfarmismatch.storep import make_sampler

N, K = 16, 32


def setup_for(sigma, sigma_t, steer):
    return MisSetup(sigma=sigma, sigma_t=sigma_t, v=steer, k=K)


def matched_detections(stream, kind, threshold, snr, n_trials):
    """Detections of one detector on ``n_trials`` matched trials at linear SNR
    ``snr``: the matched sampler has vt_quad = 1, so its amplitude is sqrt(snr)."""
    return mcengine._count(stream, nomismatch_sampler(N, K), ((kind, threshold),), n_trials,
                           shifts=(np.sqrt(snr),), pd_trials=n_trials)[1]


def test_kelly_threshold_closed_forms():
    assert abs(kelly_threshold(1e-3, N, K) - (10.0 ** (3.0 / 17.0) - 1.0)) < 1e-13
    assert abs(kelly_threshold(1e-4, N, K) - (10.0 ** (4.0 / 17.0) - 1.0)) < 1e-13
    assert abs(kelly_threshold(1e-3, N, K) - 0.50131) < 1e-4


def test_kelly_threshold_validation():
    with pytest.raises(ValueError):
        kelly_threshold(0.0, N, K)
    with pytest.raises(ValueError):
        kelly_threshold(1e-3, 16, 15)


def test_calibrate_threshold_matches_closed_form():
    thr = calibrate_threshold(KELLY, N, K, 1e-2)
    assert thr == kelly_threshold(1e-2, N, K)


def test_calibrate_threshold_refuses_thin_samples():
    with pytest.raises(ValueError, match="100000"):
        calibrate_entry(StreamKey(401), (KELLY,), N, K, 1e-3, 5_000)


def test_calibrate_unit_kappa_equals_glrt():
    a = calibrate_threshold(KELLY, N, K, 1e-2)
    b = calibrate_threshold(kalson(1.0), N, K, 1e-2)
    assert a == b


def _beta_quad(f, n, k):
    """E[f(beta)], beta ~ Beta(K-N+2, N-1), by adaptive quadrature."""
    law = sstats.beta(k - n + 2, n - 1)
    val, _ = integrate.quad(lambda b: f(b) * law.pdf(b), 0.0, 1.0, epsabs=0.0, epsrel=1e-12,
                            limit=200)
    return val


@pytest.mark.parametrize("pfa", [1e-2, 1e-3, 1e-6])
@pytest.mark.parametrize("kind,scale", [
    (AMF, lambda b: b),
    (kalson(0.5), lambda b: 1.0 + b * (0.5 - 1.0)),
    (kalson(2.0), lambda b: 1.0 + b * (2.0 - 1.0)),
])
@pytest.mark.parametrize("n,k", [(2, 2), (2, 5), (16, 16), (16, 32), (64, 128)])
def test_calibrated_threshold_meets_pfa_by_quadrature(n, k, kind, scale, pfa):
    # Independent reference: P(t_tilde > eta * scale(beta)) = (1 + eta scale)^-L
    # averaged over the Beta law by scipy's adaptive quadrature.
    eta = calibrate_threshold(kind, n, k, pfa)
    implied = _beta_quad(lambda b: (1.0 + eta * scale(b)) ** -(k - n + 1), n, k)
    assert implied == pytest.approx(pfa, rel=1e-9)


def test_calibrated_thresholds_match_reference_values():
    assert abs(calibrate_threshold(AMF, N, K, 1e-3) - 1.001136) < 1e-6
    assert abs(calibrate_threshold(kalson(2.0), N, K, 1e-3) - 0.327432) < 1e-6


@pytest.mark.parametrize("kind", [KELLY, AMF, kalson(0.5), kalson(2.0)])
@pytest.mark.parametrize("n,k", [(2, 2), (16, 32), (64, 128)])
def test_detection_at_zero_snr_is_false_alarm(n, k, kind):
    eta = calibrate_threshold(kind, n, k, 1e-3)
    pfa = matched_exceedance(kind, eta, n, k)
    assert pfa == pytest.approx(1e-3, rel=1e-12)
    # A vanishing SNR runs the Poisson mixture; only its m = 0 term, the
    # false-alarm probability, may survive.
    assert pfa <= matched_exceedance(kind, eta, n, k, 1e-12) <= pfa * (1.0 + 1e-9)


@pytest.mark.parametrize("i,snr", [(0, 4.0), (1, 12.0)])
def test_detection_matches_monte_carlo(i, snr):
    eta = calibrate_threshold(AMF, N, K, 1e-2)
    count = matched_detections(StreamKey(433).child(i), AMF, eta, snr, 400_000)
    est = PfaEstimate.from_counts(count, 400_000)
    assert est.ci_lo <= matched_exceedance(AMF, eta, N, K, snr) <= est.ci_hi


@pytest.mark.parametrize("k", [32, 527, 5015])
def test_blocked_detection_sum_matches_full_sum(k):
    # Reference: all L+1 terms of Kelly's sum over j, against the truncated
    # Poisson mixture, from P_d near the false-alarm rate up to near one.
    eta = calibrate_threshold(AMF, N, k, 1e-2)
    big_l = k - N + 1
    beta, w = mcengine._beta_rule(N, k)
    y = eta * beta  # the AMF statistic at t_tilde = 1 is 1 / beta
    j = np.arange(big_l + 1)
    log_pmf = (special.gammaln(big_l + 1) - special.gammaln(j + 1) - special.gammaln(big_l + 1 - j)
               + special.xlogy(j, y[:, None]) - big_l * np.log1p(y)[:, None])
    for snr in (3.0, 30.0, 300.0):
        x = (beta * snr / (1.0 + y))[:, None]
        lower = np.where(j == 0, 1.0, special.gammainc(np.maximum(j, 1), x))
        full = float(w @ np.sum(np.exp(log_pmf) * lower, axis=1))
        assert matched_exceedance(AMF, eta, N, k, snr) == pytest.approx(full, rel=1e-12), snr


SCIPY_GRID_DIMS = [(2, 2), (2, 5), (16, 32), (64, 128), (16, 527), (16, 5015)]
SCIPY_GRID_KINDS = [KELLY, AMF, kalson(0.5), kalson(2.0)]


def _scipy_beta_rule(n, k):
    # mcengine._beta_rule with its normalizing constant from scipy's betaln.
    a, b = k - n + 2, n - 1
    h = min(1.0 / 32.0, 1.0 / (np.pi * np.sqrt(k + 2.0)))
    t = np.arange(-4.5, 4.5 + 0.5 * h, h)
    u = np.pi * np.sinh(t)
    log_beta = -np.logaddexp(0.0, -u)
    log_w = (np.log(h * np.pi * np.cosh(t)) + a * log_beta - b * np.logaddexp(0.0, u)
             - special.betaln(a, b))
    keep = log_w > -745.0
    w = np.exp(log_w[keep])
    return np.exp(log_beta[keep]), w / w.sum()


def _scipy_matched_detection(kind, threshold, n, k, snr):
    # The Poisson mixture with the binomial CDF as scipy's betainc and the
    # Poisson tail as its gammainc.
    big_l = k - n + 1
    beta, w = mcengine._beta_rule(n, k)
    y = threshold / mcengine.stat_values(kind, beta, np.ones_like(beta))
    x = beta * snr / (1.0 + y)
    x_max = float(x.max())
    m = np.arange(min(big_l, int(np.ceil(x_max + 10.0 * np.sqrt(x_max) + 30.0))))
    pois = np.exp(special.xlogy(m, x[:, None]) - x[:, None] - special.gammaln(m + 1))
    below = special.betainc(big_l - m, m + 1, (1.0 / (1.0 + y))[:, None])
    return min(1.0, float(w @ (np.sum(pois * below, axis=1) + special.gammainc(big_l, x))))


@pytest.mark.parametrize("kind", SCIPY_GRID_KINDS)
@pytest.mark.parametrize("n,k", SCIPY_GRID_DIMS)
def test_matched_detection_agrees_with_scipy_special(n, k, kind):
    for pfa in (1e-2, 1e-3, 1e-6):
        eta = calibrate_threshold(kind, n, k, pfa)
        for snr in (1e-12, 0.3, 3.0, 30.0, 300.0):
            ref = _scipy_matched_detection(kind, eta, n, k, snr)
            assert matched_exceedance(kind, eta, n, k, snr) == pytest.approx(ref, rel=1e-12), \
                (pfa, snr)


@pytest.mark.parametrize("kind", SCIPY_GRID_KINDS)
@pytest.mark.parametrize("n,k", SCIPY_GRID_DIMS)
def test_thresholds_agree_with_scipy_betaln(n, k, kind, monkeypatch):
    for pfa in (1e-2, 1e-3, 1e-6):
        eta = calibrate_threshold(kind, n, k, pfa)
        with monkeypatch.context() as mp:
            mp.setattr(mcengine, "_beta_rule", _scipy_beta_rule)
            ref = calibrate_threshold(kind, n, k, pfa)
        assert abs(eta - ref) <= 8 * np.spacing(ref), (pfa, eta, ref)



def test_detection_probability_is_at_most_one():
    # Unclamped, the Poisson weights' rounding gave Kelly 1 + 1.9e-14 and
    # AMF 1 + 1.6e-14 here.
    for kind in (KELLY, AMF):
        eta = calibrate_threshold(kind, N, 527, 1e-3)
        assert 1.0 - 1e-12 < matched_exceedance(kind, eta, N, 527, 100.0) <= 1.0

def test_detection_memory_is_bounded_in_training_size():
    eta = calibrate_threshold(AMF, N, 5015, 1e-2)
    tracemalloc.start()
    try:
        matched_exceedance(AMF, eta, N, 5015, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_calibration_draws_no_trials(monkeypatch):
    def no_trials(*args):
        raise AssertionError("calibration drew trials")

    monkeypatch.setattr(mcengine, "draw_pairs", no_trials)
    for kind in (KELLY, AMF, kalson(2.0)):
        eta = calibrate_threshold(kind, N, K, 1e-3)
        assert calibrate_snr(kind, eta, N, K, 0.7) > 0


@pytest.mark.parametrize("pd", [0.01, 0.5, 0.999])
@pytest.mark.parametrize("kind", [KELLY, AMF, kalson(2.0)])
def test_calibrate_snr_meets_target_exactly(kind, pd):
    eta = calibrate_threshold(kind, N, K, 1e-3)
    snr = calibrate_snr(kind, eta, N, K, pd)
    assert abs(matched_exceedance(kind, eta, N, K, snr) - pd) < 1e-9


def test_calibrate_snr_rejects_target_below_false_alarm():
    with pytest.raises(ValueError, match="not above the false-alarm"):
        calibrate_snr(AMF, calibrate_threshold(AMF, N, K, 1e-2), N, K, 5e-3)


ROOT_GRID_NK = [(2, 2), (2, 5), (16, 16), (16, 32), (64, 128), (16, 527)]
ROOT_GRID_KINDS = [AMF, kalson(0.5), kalson(2.0)]
ROOT_GRID_PFA = [1e-2, 1e-3, 1e-6]


def _calibration_roots():
    """Every threshold of the grid, and the matched SNRs at P_d 0.5, 0.7 and
    0.9; at the two largest (N, K), where one SNR root costs the most, only
    at P_fa 1e-3."""
    roots = {}
    for (n, k), kind, pfa in itertools.product(ROOT_GRID_NK, ROOT_GRID_KINDS, ROOT_GRID_PFA):
        eta = roots[n, k, kind, pfa] = calibrate_threshold(kind, n, k, pfa)
        if k < 128 or pfa == 1e-3:
            for pd in (0.5, 0.7, 0.9):
                roots[n, k, kind, pfa, pd] = calibrate_snr(kind, eta, n, k, pd)
    return roots


def test_calibration_roots_are_those_of_scipy_brentq(monkeypatch):
    from scipy.optimize import brentq  # tests only; the CLI never imports scipy.optimize

    port = _calibration_roots()
    monkeypatch.setattr(mcengine, "_brent", lambda f, xa, xb, xtol, rtol:
                        brentq(f, xa, xb, xtol=xtol, rtol=rtol))
    reference = _calibration_roots()
    assert len(port) == 54 + 126
    assert {key: val for key, val in port.items() if val != reference[key]} == {}


def test_calibration_evaluates_each_bracket_end_once(monkeypatch):
    # The AMF root at N=16, K=32 grows its bracket once and then takes 11
    # Brent steps: 13 distinct arguments. Both bracket ends were known
    # before Brent starts, so evaluating them again would make 15 calls.
    args = []
    exact = mcengine.matched_exceedance

    def counted(kind, threshold, *rest):
        args.append(threshold)
        return exact(kind, threshold, *rest)

    monkeypatch.setattr(mcengine, "matched_exceedance", counted)
    calibrate_threshold(AMF, N, K, 1e-3)
    assert len(args) == len(set(args)) == 13


def test_brent_returns_an_endpoint_where_f_is_zero():
    assert mcengine._brent(lambda x: x - 0.25, 0.25, 1.0, 1e-300, 1e-15) == 0.25
    assert mcengine._brent(lambda x: x - 1.0, 0.25, 1.0, 1e-300, 1e-15) == 1.0
    assert mcengine._brent(lambda x: x - 0.3, 0.0, 1.0, 1e-300, 1e-15) not in (0.0, 1.0)


def test_brent_rejects_a_nan_value():
    with pytest.raises(ValueError, match="NaN"):
        mcengine._brent(lambda x: float("nan"), 0.0, 1.0, 1e-300, 1e-15)
    with pytest.raises(ValueError, match="NaN"):
        mcengine._brent(lambda x: x - 0.3 if x in (0.0, 1.0) else float("nan"),
                        0.0, 1.0, 1e-300, 1e-15)
    with pytest.raises(ValueError, match="different signs"):
        mcengine._brent(lambda x: x + 1.0, 0.0, 1.0, 1e-300, 1e-15)


def test_brent_stops_after_maxiter():
    with pytest.raises(RuntimeError, match="1 iterations"):
        mcengine._brent(lambda x: x - 0.3, 0.0, 1.0, 1e-300, 1e-15, maxiter=1)


def test_calibrate_entry_rejects_a_wrong_threshold(monkeypatch):
    # Only the AMF threshold is off; the shared trials must single it out.
    exact = mcengine.calibrate_threshold

    def amf_off(kind, *args):
        return (1.2 if kind == AMF else 1.0) * exact(kind, *args)

    monkeypatch.setattr(mcengine, "calibrate_threshold", amf_off)
    with pytest.raises(RuntimeError, match=r"^amf threshold .* 5 sigma"):
        calibrate_entry(StreamKey(434), (KELLY, AMF, kalson(2.0)), N, K, 1e-2, 100_000)


def test_calibrate_entry_achieved_covers_target():
    (entry,) = calibrate_entry(StreamKey(403), (AMF,), N, K, 1e-2, 200_000)
    assert entry.achieved.ci_lo <= 1e-2 <= entry.achieved.ci_hi
    assert entry.kind == AMF
    assert entry.n_trials == 200_000


def test_calibrate_entry_scores_every_detector_on_one_trial_set():
    # The first detector's entry is the same alone and alongside others, and
    # each entry carries its own calibrated threshold.
    kinds = (KELLY, AMF, kalson(2.0))
    entries = calibrate_entry(StreamKey(436), kinds, N, K, 1e-2, 100_000)
    (alone,) = calibrate_entry(StreamKey(436), kinds[:1], N, K, 1e-2, 100_000)
    assert entries[0] == alone
    assert [e.kind for e in entries] == list(kinds)
    assert [e.threshold for e in entries] == [calibrate_threshold(kd, N, K, 1e-2) for kd in kinds]


def test_pfa_estimate_validation():
    with pytest.raises(ValueError):
        PfaEstimate(p_hat=0.5, n_trials=10, ci_lo=0.6, ci_hi=0.7, exceedances=5)
    with pytest.raises(ValueError):
        PfaEstimate(p_hat=0.5, n_trials=10, ci_lo=0.4, ci_hi=0.6, exceedances=11)
    est = PfaEstimate.from_counts(0, 1000)
    assert est.p_hat == 0.0 and est.ci_lo == 0.0
    lo, hi = wilson_ci(37, 1000)
    est = PfaEstimate.from_counts(37, 1000)
    assert (est.ci_lo, est.ci_hi) == (lo, hi)


def test_detector_plan_validation():
    with pytest.raises(ValueError):
        DetectorPlan(label="x", threshold=0.5, kind=KELLY, clairvoyant_c=1.0)
    with pytest.raises(ValueError):
        DetectorPlan(label="x", threshold=0.5)
    for bad in (dict(threshold=-0.1), dict(threshold=float("nan")),
                dict(threshold=0.5, snr_linear=float("nan")),
                dict(threshold=0.5, snr_linear=float("inf")),
                dict(threshold=0.5, snr_linear=-1.0)):
        with pytest.raises(ValueError):
            DetectorPlan(label="x", kind=KELLY, **bad)
    plan = DetectorPlan(label="c", threshold=0.5, clairvoyant_c=2.0)
    assert plan.resolve(0.7).kappa == pytest.approx(1.4)
    fixed = DetectorPlan(label="k", threshold=0.5, kind=KELLY)
    assert fixed.resolve(0.7) == KELLY


def test_estimate_prob_zero_threshold_is_one(sigma, steer):
    for source in (make_sampler(sigma, sigma, steer, K), setup_for(sigma, sigma, steer)):
        assert count_exceedances(StreamKey(405), KELLY, 0.0, source, 512) == 512


def test_estimate_prob_matched_covers_closed_form_target():
    eta = kelly_threshold(1e-3, N, K)
    count = count_exceedances(StreamKey(407), KELLY, eta, nomismatch_sampler(N, K),
                              10_000_000)
    est = PfaEstimate.from_counts(count, 10_000_000)
    assert est.ci_lo <= 1e-3 <= est.ci_hi


def test_count_exceedances_worker_count_is_immaterial(monkeypatch):
    monkeypatch.setattr(mcengine, "available_cpus", lambda: 3)  # 3 workers really run
    eta = kelly_threshold(1e-2, N, K)
    a = count_exceedances(StreamKey(408), KELLY, eta, nomismatch_sampler(N, K),
                          300_000, workers=1)
    b = count_exceedances(StreamKey(408), KELLY, eta, nomismatch_sampler(N, K),
                          300_000, workers=3)
    assert a == b


@pytest.mark.parametrize("path", ["fast", "direct"])
def test_both_sources_walk_one_chunk_grid(sigma, steer, monkeypatch, path):
    source = nomismatch_sampler(N, K) if path == "fast" else setup_for(sigma, sigma, steer)
    stream, n_trials = StreamKey(437), 2 * mcengine.CHUNK + 5
    calls = []
    draw = mcengine.draw_pairs

    def recorded(chunk_stream, chunk_source, size):
        calls.append((chunk_stream, size))
        return draw(chunk_stream, chunk_source, size)

    monkeypatch.setattr(mcengine, "draw_pairs", recorded)
    count_exceedances(stream, KELLY, kelly_threshold(1e-2, N, K), source, n_trials)
    grid = [(stream.child(ci), size)
            for ci, size in enumerate([mcengine.CHUNK, mcengine.CHUNK, 5])]
    assert calls == grid
    beta, t = mcengine.draw_trials(stream, source, n_trials)
    pairs = [draw(chunk_stream, source, size) for chunk_stream, size in grid]
    assert np.array_equal(beta, np.concatenate([b for b, _ in pairs]))
    assert np.array_equal(t, np.concatenate([tt for _, tt in pairs]))


def test_count_memory_is_bounded_in_trial_count():
    # One chunk of matched trials at N=64 holds CHUNK x 63 exponentials, about
    # 1 MB; a chunk that grew with the trial count would hold 2^17 x 63.
    eta = kelly_threshold(1e-2, 64, 128)
    tracemalloc.start()
    try:
        count_exceedances(StreamKey(438), KELLY, eta, nomismatch_sampler(64, 128), 1 << 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_a_pool_task_is_a_fixed_run_of_chunks(in_process_pool, monkeypatch):
    # 100 000 trials are 49 chunks: 7 tasks of at most 8 chunks at any worker
    # count, with the counts of a single process.
    monkeypatch.setattr(mcengine, "available_cpus", lambda: 3)
    scores = ((KELLY, kelly_threshold(1e-2, N, K)), (AMF, calibrate_threshold(AMF, N, K, 1e-2)))
    alone = mcengine._count(StreamKey(439), nomismatch_sampler(N, K), scores, 100_000)
    for workers in (2, 3):
        in_process_pool.clear()
        counts = mcengine._count(StreamKey(439), nomismatch_sampler(N, K), scores, 100_000,
                                 workers)
        assert counts == alone
        assert in_process_pool[-1] == ("tasks", 7)


@pytest.mark.parametrize("path", ["fast", "direct"])
def test_chunks_past_the_detection_trials_draw_no_shifts(sigma, steer, monkeypatch, path):
    # 3 chunks of false-alarm trials, 1 of them with detection trials too.
    source = nomismatch_sampler(N, K) if path == "fast" else setup_for(sigma, sigma, steer)
    eta = kelly_threshold(1e-2, N, K)
    scores = ((KELLY, eta), (AMF, calibrate_threshold(AMF, N, K, 1e-2)))
    shifts = (0.7, 1.3)
    args = (StreamKey(449), source, scores, 2 * mcengine.CHUNK + 100)
    unpatched = mcengine._count(*args, shifts=shifts, pd_trials=1_000)
    seen = []

    def recording(stream, source, size, *shifts):
        seen.append(shifts)
        return draw_pairs(stream, source, size, *shifts)

    monkeypatch.setattr(mcengine, "draw_pairs", recording)
    assert mcengine._count(*args, shifts=shifts, pd_trials=1_000) == unpatched
    assert len(unpatched) == 4
    assert seen == [shifts, (), ()]


def test_beta_rule_is_built_once_per_shape():
    beta, w = mcengine._beta_rule(N, K)
    assert mcengine._beta_rule(N, K)[0] is beta
    assert not beta.flags.writeable and not w.flags.writeable


def test_worker_count_is_clamped_to_the_cpus(in_process_pool, monkeypatch):
    # No process starts: the fake records the pool size the engine asks for.
    monkeypatch.setattr(mcengine, "available_cpus", lambda: 3)
    eta = kelly_threshold(1e-2, N, K)
    alone = count_exceedances(StreamKey(440), KELLY, eta, nomismatch_sampler(N, K), 10_000)
    many = count_exceedances(StreamKey(440), KELLY, eta, nomismatch_sampler(N, K), 10_000,
                             workers=100_000)
    assert many == alone
    assert in_process_pool == [("pool", 3), ("tasks", 1)]


@pytest.mark.parametrize("variant", ["identity", "inv_wishart", "eig_jitter", "ger_chol"])
def test_fast_and_direct_paths_agree_in_probability(sigma, steer, variant):
    st, _ = gen_sigma_t(StreamKey(409), sigma, steer, MismatchSpec(variant, 6.0))
    eta = kelly_threshold(1e-2, N, K)
    fast = PfaEstimate.from_counts(
        count_exceedances(StreamKey(410), KELLY, eta, make_sampler(sigma, st, steer, K),
                          1_000_000), 1_000_000)
    direct = PfaEstimate.from_counts(
        count_exceedances(StreamKey(411), KELLY, eta, setup_for(sigma, st, steer), 100_000),
        100_000)
    assert fast.ci_lo <= direct.ci_hi and direct.ci_lo <= fast.ci_hi, (
        f"{variant}: fast [{fast.ci_lo:.4e},{fast.ci_hi:.4e}] "
        f"direct [{direct.ci_lo:.4e},{direct.ci_hi:.4e}]"
    )


def test_calibrate_snr_validation():
    with pytest.raises(ValueError):
        calibrate_snr(KELLY, 0.5, N, K, 1.5)


def test_calibrate_snr_hits_detection_target():
    eta = kelly_threshold(1e-4, N, K)
    snr = calibrate_snr(KELLY, eta, N, K, 0.7)
    assert snr > 0
    count = matched_detections(StreamKey(414), KELLY, eta, snr, 20_000)
    est = PfaEstimate.from_counts(count, 20_000)
    assert est.ci_lo <= 0.7 <= est.ci_hi


def test_zero_snr_detection_equals_false_alarm():
    eta = kelly_threshold(1e-2, N, K)
    pfa_count = count_exceedances(StreamKey(415), KELLY, eta, nomismatch_sampler(N, K),
                                  100_000)
    pd_count = matched_detections(StreamKey(415), KELLY, eta, 0.0, 100_000)
    assert pfa_count == pd_count


def test_doubling_snr_raises_detection():
    eta = kelly_threshold(1e-3, N, K)
    ests = []
    for i, snr in enumerate((8.0, 16.0)):
        count = matched_detections(StreamKey(416).child(i), KELLY, eta, snr, 1_000_000)
        ests.append(PfaEstimate.from_counts(count, 1_000_000))
    assert ests[0].ci_hi < ests[1].ci_lo


def test_sweep_identity_covers_targets(scn):
    plans = (
        DetectorPlan(label="kelly", threshold=kelly_threshold(1e-2, N, K), kind=KELLY),
        DetectorPlan(label="amf", threshold=calibrate_threshold(AMF, N, K, 1e-2), kind=AMF),
    )
    res = sweep(StreamKey(418), scn, MismatchSpec("identity"), plans,
                n_draws=5, n_trials=200_000)
    assert not res.errors
    assert len(res.rows) == 10
    for row in res.rows:
        assert row.ci_lo <= 1e-2 <= row.ci_hi, f"{row.detector} draw {row.draw_id}"


def test_sweep_rows_are_complete_and_ordered(scn):
    plans = (
        DetectorPlan(label="kelly", threshold=0.31, kind=KELLY),
        DetectorPlan(label="c1", threshold=0.31, clairvoyant_c=1.0),
    )
    res = sweep(StreamKey(419), scn, MismatchSpec("eig_jitter", 6.0), plans,
                n_draws=4, n_trials=20_000)
    assert [r.draw_id for r in res.rows] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert {r.detector for r in res.rows} == {"kelly", "c1"}
    for row in res.rows:
        assert row.n_trials == 20_000
        assert row.variant == "eig_jitter"
        assert row.pfa_hat == row.exceedances / row.n_trials
        assert row.snr_db is None and row.pd_hat is None
        if row.detector == "c1":
            assert row.kappa is not None and row.kappa > 0


def test_sweep_clairvoyant_kappa_tracks_schur(scn, sigma, steer):
    plans = (DetectorPlan(label="c2", threshold=0.31, clairvoyant_c=2.0),)
    res = sweep(StreamKey(420), scn, MismatchSpec("ger_chol", 6.0), plans,
                n_draws=3, n_trials=2_000)
    for row in res.rows:
        st, _ = gen_sigma_t(StreamKey(420).child(row.draw_id, 0), sigma, steer,
                            MismatchSpec("ger_chol", 6.0))
        om = omega_decompose(sigma, st, steer, K)
        assert abs(row.kappa - 2.0 * om.r) < 1e-10 * row.kappa


def test_direct_clairvoyant_kappa_is_the_quad_ratio(scn, sigma, steer):
    # The oracle takes r from v^H inv(sigma_t) v / v^H inv(sigma) v, not from
    # the representation's Schur complement.
    spec = MismatchSpec("inv_wishart", 6.0)
    plans = (DetectorPlan(label="c2", threshold=0.31, clairvoyant_c=2.0),)
    res = sweep(StreamKey(447), scn, spec, plans, n_draws=3, n_trials=2_000, path="direct")
    assert not res.errors and len(res.rows) == 3
    v_quad = whitened_quad(sigma, steer)
    for row in res.rows:
        st, _ = gen_sigma_t(StreamKey(447).child(row.draw_id, 0), sigma, steer, spec)
        assert row.kappa == 2.0 * (whitened_quad(st, steer) / v_quad)


def test_only_the_fast_path_decomposes_a_draw(scn, monkeypatch):
    def broken(*args):
        raise RuntimeError("representation geometry failed")

    monkeypatch.setattr(mcengine, "omega_decompose", broken)
    plans = (DetectorPlan(label="kelly", threshold=0.31, kind=KELLY),
             DetectorPlan(label="c1", threshold=0.31, clairvoyant_c=1.0))
    spec = MismatchSpec("inv_wishart", 6.0)
    direct = sweep(StreamKey(448), scn, spec, plans, n_draws=3, n_trials=1_000, path="direct")
    assert not direct.errors and len(direct.rows) == 6
    fast = sweep(StreamKey(448), scn, spec, plans, n_draws=3, n_trials=1_000, path="fast")
    assert fast.rows == ()
    assert [d for d, _ in fast.errors] == [0, 1, 2]
    assert all("representation geometry failed" in msg for _, msg in fast.errors)


def test_sweep_wishart_inflates_false_alarms_amf_most(scn):
    plans = (
        DetectorPlan(label="kelly", threshold=kelly_threshold(1e-2, N, K), kind=KELLY),
        DetectorPlan(label="amf", threshold=calibrate_threshold(AMF, N, K, 1e-2), kind=AMF),
    )
    res = sweep(StreamKey(422), scn, MismatchSpec("inv_wishart", 6.0), plans,
                n_draws=15, n_trials=200_000)
    assert not res.errors
    by = {}
    for row in res.rows:
        by.setdefault(row.detector, []).append(row.pfa_hat)
    mean_kelly = float(np.mean(by["kelly"]))
    mean_amf = float(np.mean(by["amf"]))
    assert mean_kelly > 1e-2
    assert mean_amf > mean_kelly


def test_sweep_clairvoyant_exceedances_decrease_in_c(scn):
    eta = kelly_threshold(1e-2, N, K)
    plans = tuple(DetectorPlan(label=f"c{c:g}", threshold=eta, clairvoyant_c=c)
                  for c in (1.0, 1.5, 2.0))
    res = sweep(StreamKey(423), scn, MismatchSpec("inv_wishart", 6.0), plans,
                n_draws=2, n_trials=200_000)
    for draw_id in (0, 1):
        counts = [r.exceedances for r in res.rows if r.draw_id == draw_id]
        assert counts[0] > counts[1] > counts[2]


def test_sweep_is_worker_count_invariant(scn):
    plans = (DetectorPlan(label="kelly", threshold=0.31, kind=KELLY),)
    a = sweep(StreamKey(424), scn, MismatchSpec("inv_wishart", 6.0), plans,
              n_draws=3, n_trials=30_000, workers=1)
    b = sweep(StreamKey(424), scn, MismatchSpec("inv_wishart", 6.0), plans,
              n_draws=3, n_trials=30_000, workers=2)
    assert a == b


@pytest.mark.parametrize("nu", [None, 16])
def test_batched_sweep_is_worker_count_invariant(scn, monkeypatch, nu):
    # 100 draws go to the pool in batches: 3 draws per task at 2 workers and
    # 2 at 3 workers. nu = N makes every draw fail.
    monkeypatch.setattr(mcengine, "available_cpus", lambda: 3)
    plans = (DetectorPlan(label="kelly", threshold=0.31, kind=KELLY),
             DetectorPlan(label="c1", threshold=0.31, clairvoyant_c=1.0))
    spec = MismatchSpec("inv_wishart", 6.0, nu=nu)
    runs = [sweep(StreamKey(431), scn, spec, plans, n_draws=100, n_trials=1024, workers=w)
            for w in (1, 2, 3)]
    if nu is None:
        assert not runs[0].errors and len(runs[0].rows) == 200
    else:
        assert runs[0].rows == ()
        assert [d for d, _ in runs[0].errors] == list(range(100))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def _pd_plans(kinds=(KELLY, AMF), pfa=1e-2, pd=0.7):
    plans = []
    for kind in kinds:
        eta = calibrate_threshold(kind, N, K, pfa)
        plans.append(DetectorPlan(label=kind.kind, threshold=eta, kind=kind,
                                  snr_linear=calibrate_snr(kind, eta, N, K, pd)))
    return tuple(plans)


@pytest.mark.parametrize("n,k,cnr_db,rho1,variant,tol", [
    (16, 32, 20.0, 0.95, "inv_wishart", 1e-12),
    (64, 128, 60.0, 0.999, "identity", 1e-9),  # cond(sigma) about 4e7
])
def test_direct_signal_trials_are_the_noise_trials_plus_signal(n, k, cnr_db, rho1, variant, tol):
    # The shared trials at amplitude alpha equal data drawn with that alpha
    # on the same stream, which draws the same noise and training factor.
    scn = ScenarioCfg(n=n, k=k, cnr_db=cnr_db, rho1=rho1)
    sigma, steer = build_cov(scn), build_steering(n, scn.fd)
    st, _ = gen_sigma_t(StreamKey(441), sigma, steer, MismatchSpec(variant, 6.0))
    alphas = [snr_to_alpha(snr, sigma, steer) for snr in (2.0, 20.0, 200.0)]
    key = StreamKey(442)
    source = MisSetup(sigma=sigma, sigma_t=st, v=steer, k=k)
    beta, *ts = draw_pairs(key, source, 1024, *alphas)
    for alpha, t in zip((0.0, *alphas), ts):
        x, factor = gen_data_batch(key, sigma, st, alpha, steer, k, 1024)
        beta_ref, t_ref = pairs_from_raw(*raw_stats_batch(x, factor, steer))
        assert np.max(np.abs(beta - beta_ref) / beta_ref) <= tol
        assert np.max(np.abs(t - t_ref) / t_ref) <= tol


@pytest.mark.parametrize("path", ["fast", "direct"])
@pytest.mark.parametrize("seed", [443, 444])
def test_pooled_detection_on_shared_trials_meets_the_matched_law(scn, path, seed):
    # Without mismatch every draw's P_d is the matched value; each plan's count
    # pools independent trials over draws, so it is binomial.
    plans = _pd_plans()
    res = sweep(StreamKey(seed), scn, MismatchSpec("identity"), plans,
                n_draws=8, n_trials=4096, pd_trials=4096, path=path)
    assert not res.errors
    for plan in plans:
        count = sum(r.pd_exceedances for r in res.rows if r.detector == plan.label)
        p = matched_exceedance(plan.kind, plan.threshold, N, K, plan.snr_linear)
        assert within_five_sigma(count, 8 * 4096, p), (plan.label, count / (8 * 4096), p)


@pytest.mark.parametrize("path", ["fast", "direct"])
def test_false_alarm_counts_do_not_depend_on_detection_trials(scn, path):
    # 3000 false-alarm trials end inside chunk 1; 5000 detection trials run
    # past them. No P_d at all, fewer P_d trials, or more: the same P_fa rows.
    plans = _pd_plans()
    fields = ("draw_id", "detector", "n_trials", "exceedances", "pfa_hat", "ci_lo", "ci_hi")
    runs = [sweep(StreamKey(445), scn, MismatchSpec("inv_wishart", 6.0), plans,
                  n_draws=2, n_trials=3000, pd_trials=pd, path=path) for pd in (1000, 5000)]
    plain = sweep(StreamKey(445), scn, MismatchSpec("inv_wishart", 6.0),
                  [dataclasses.replace(plan, snr_linear=None) for plan in plans],
                  n_draws=2, n_trials=3000, path=path)
    pfa_rows = [[tuple(getattr(r, f) for f in fields) for r in res.rows]
                for res in (*runs, plain)]
    assert len(pfa_rows[0]) == 4
    assert pfa_rows[1] == pfa_rows[0] and pfa_rows[2] == pfa_rows[0]
    assert [r.pd_n_trials for r in runs[1].rows] == [5000] * 4


def test_a_draw_scores_detection_on_its_false_alarm_trials(scn, monkeypatch):
    # One trial set per draw, max(n_trials, pd_trials) long, with every
    # plan's signal: not one more set per plan. The chunk past the 3000
    # detection trials draws no signal.
    drawn = []
    draw = mcengine.draw_pairs

    def counted(stream, source, size, *shifts):
        drawn.append((size, len(shifts)))
        return draw(stream, source, size, *shifts)

    monkeypatch.setattr(mcengine, "draw_pairs", counted)
    res = sweep(StreamKey(446), scn, MismatchSpec("inv_wishart", 6.0), _pd_plans(),
                n_draws=2, n_trials=5000, pd_trials=3000, path="direct")
    assert not res.errors
    assert sum(size for size, _ in drawn) == 2 * 5000
    assert drawn == [(2048, 2), (2048, 2), (904, 0)] * 2


def test_sweep_direct_path_matches_fast_in_probability(scn):
    eta = kelly_threshold(5e-2, N, K)
    plans = (DetectorPlan(label="kelly", threshold=eta, kind=KELLY),)
    fast = sweep(StreamKey(425), scn, MismatchSpec("ger_chol", 6.0), plans,
                 n_draws=2, n_trials=200_000, path="fast")
    direct = sweep(StreamKey(425), scn, MismatchSpec("ger_chol", 6.0), plans,
                   n_draws=2, n_trials=20_000, path="direct")
    for fr, dr in zip(fast.rows, direct.rows):
        assert fr.draw_meta == dr.draw_meta  # same sigma_t draw per draw_id
        assert fr.ci_lo <= dr.ci_hi and dr.ci_lo <= fr.ci_hi


def test_sweep_records_per_draw_failures(scn):
    plans = (DetectorPlan(label="kelly", threshold=0.31, kind=KELLY),)
    res = sweep(StreamKey(426), scn, MismatchSpec("inv_wishart", 6.0, nu=16), plans,
                n_draws=3, n_trials=1_000)
    assert res.rows == ()
    assert len(res.errors) == 3
    assert all("nu" in msg for _, msg in res.errors)


def test_sweep_with_pd_requires_snr(scn, monkeypatch):
    # P_d rows come from the plans, so a sweep where only some plans carry a
    # calibrated SNR has no consistent row shape; it fails before any trial.
    def no_trials(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(mcengine, "_count", no_trials)
    plans = (DetectorPlan(label="kelly", threshold=0.31, kind=KELLY, snr_linear=10.0),
             DetectorPlan(label="amf", threshold=0.31, kind=AMF))
    with pytest.raises(ValueError, match=r"\['amf'\] have no calibrated SNR"):
        sweep(StreamKey(427), scn, MismatchSpec("identity"), plans,
              n_draws=1, n_trials=1_000, pd_trials=1_000)


def test_sweep_propagates_programming_errors(scn, monkeypatch):
    def broken(*args):
        raise TypeError("broken digest")

    monkeypatch.setattr(mcengine, "meta_digest", broken)
    plans = (DetectorPlan(label="kelly", threshold=0.31, kind=KELLY),)
    with pytest.raises(TypeError, match="broken digest"):
        sweep(StreamKey(435), scn, MismatchSpec("identity"), plans,
              n_draws=2, n_trials=1_000, workers=1)


def test_detection_is_steadier_than_false_alarm_rate(scn):
    # Operating point: matched false-alarm rate 1e-4, matched detection 0.7.
    # The gain-ratio-aware statistic resolves to the GLRT under no mismatch,
    # so the closed-form threshold and the matched SNR calibration apply.
    eta = kelly_threshold(1e-4, N, K)
    snr = calibrate_snr(KELLY, eta, N, K, 0.7)
    plans = (DetectorPlan(label="c1", threshold=eta, clairvoyant_c=1.0, snr_linear=snr),)
    res = sweep(StreamKey(429), scn, MismatchSpec("inv_wishart", 3.0), plans,
                n_draws=30, n_trials=400_000, pd_trials=50_000)
    assert not res.errors
    pfa = np.array([r.pfa_hat for r in res.rows])
    pd = np.array([r.pd_hat for r in res.rows])
    assert (pfa > 0).all()
    spread_pfa = float(np.std(np.log10(pfa)))
    spread_pd = float(np.std(pd))
    assert spread_pfa > spread_pd
    inside = np.mean((pd >= 0.4) & (pd <= 0.9))
    assert inside >= 0.9


def test_ecdf_small_cases():
    vals, fracs = ecdf([2.5])
    assert np.array_equal(vals, [2.5]) and np.array_equal(fracs, [1.0])
    vals, fracs = ecdf([3.0, 1.0])
    assert np.array_equal(vals, [1.0, 3.0]) and np.array_equal(fracs, [0.5, 1.0])
    vals, fracs = ecdf([1.0, 1.0, 2.0, 2.0])
    assert np.array_equal(vals, [1.0, 2.0]) and np.array_equal(fracs, [0.5, 1.0])
    with pytest.raises(ValueError):
        ecdf([])


def test_ecdf_self_consistency_against_beta_law():
    rng = np.random.default_rng(430)
    samples = rng.beta(K - N + 2, N - 1, size=100_000)
    vals, fracs = ecdf(samples)
    ref = beta_cdf(K - N + 2, N - 1, vals)
    assert np.abs(fracs - ref).max() < 0.006


def test_ks_distances_match_scipy():
    # 200 pairs fixed before the first run; every other pair is rounded to two
    # decimals so that values tie within and across samples. scipy's exact
    # two-sample mode (samples up to 10 000) rounds its statistic to a multiple
    # of 1/lcm(n1, n2), hence two ulps at 1 rather than equality.
    rng = np.random.default_rng(2024)
    cdf = functools.partial(beta_cdf, 18, 15)
    for i in range(200):
        n1, n2 = rng.integers(1, 3000, size=2)
        a, b = rng.beta(18, 15, n1), rng.beta(18, 15.5, n2)
        if i % 2:
            a, b = np.round(a, 2), np.round(b, 2)
        assert abs(ks_distance(a, cdf) - sstats.kstest(a, cdf).statistic) <= 4.4e-16
        assert abs(ks_distance_2samp(a, b) - sstats.ks_2samp(a, b).statistic) <= 4.4e-16
    assert ks_distance([0.5], lambda x: x) == 0.5
    assert ks_distance_2samp([1.0, 2.0], [3.0]) == 1.0


def test_meta_digest_formats_scalars_and_hashes_vectors():
    digest = meta_digest({"gamma": 1.25, "l1": np.array([1.0, 2.0])}, 0.875)
    parts = digest.split(";")
    assert parts[0] == "gamma=1.25"
    assert re.fullmatch(r"l1=h[0-9a-f]{8}", parts[1])
    assert parts[2] == "omega_schur=0.875"
    again = meta_digest({"l1": np.array([1.0, 2.0]), "gamma": 1.25}, 0.875)
    assert digest == again


@pytest.mark.parametrize("path", ["fast", "direct"])
@pytest.mark.parametrize("n,k", [(2, 2), (2, 5), (16, 16)])
def test_matched_laws_at_edge_dimensions(n, k, path):
    # N = 2 leaves one column in u; K = N gives L = 1. Both paths must keep
    # beta ~ Beta(L+1, N-1) and P(t > x) = (1+x)^-L; the bound is the
    # Kolmogorov critical value at level 1e-6.
    big_l = k - n + 1
    stream = StreamKey(432).child(n, k)
    if path == "fast":
        m = 20_000
        source = nomismatch_sampler(n, k)
    else:
        m = 2048
        cfg = ScenarioCfg(n=n, k=k)
        sig = build_cov(cfg)
        source = MisSetup(sigma=sig, sigma_t=sig, v=build_steering(n, cfg.fd), k=k)
    beta, t = draw_pairs(stream, source, m)
    limit = float(sstats.kstwo.isf(1e-6, m))
    assert sstats.kstest(beta, lambda x: beta_cdf(big_l + 1, n - 1, x)).statistic < limit
    assert sstats.kstest(t, lambda x: 1.0 - (1.0 + np.maximum(x, 0.0)) ** -big_l).statistic < limit
