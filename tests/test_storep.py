import dataclasses

import numpy as np
import pytest
from scipy import special

from cfarmismatch.detect import (
    gen_data_batch,
    kalson,
    pairs_from_raw,
    raw_stats_batch,
    stat_values,
)
from cfarmismatch.mcengine import MisSetup, draw_pairs
from cfarmismatch.mismatch import MismatchSpec, check_ger, gen_sigma_t, omega_decompose
from cfarmismatch.randkit import StreamKey, beta_cdf, cf1_survival
from cfarmismatch.scenario import ScenarioCfg, build_cov, build_steering, snr_to_alpha, whitened_quad
from cfarmismatch.storep import RepSampler, make_sampler, sample_pairs

N, K = 16, 32
KS_LIMIT = 0.006


def ks_against(samples, cdf):
    from scipy import stats as sstats

    return float(sstats.kstest(samples, cdf).statistic)


def matched_sampler():
    return RepSampler(n=N, k=K, lam=np.ones(N - 1), b=0.0, r=1.0, vt_quad=1.0)


def pinned_pairs(key, lam, b, r, size, roots):
    """beta and t_tilde at each noncentrality root, recomputed from the
    sampler's pinned draw order on ``key``."""
    rng = key.generator()
    if b:
        z = rng.standard_normal((size, N - 1, 2)) * (1.0 / np.sqrt(2.0))
        q = (z**2).reshape(size, -1) @ np.repeat(lam, 2)
        a0 = (z[..., 0] + 1j * z[..., 1]) @ np.full(N - 1, b)
    else:
        q = rng.standard_exponential((size, N - 1)) @ lam
        a0 = 0.0
    beta = 1.0 / (1.0 + q / rng.gamma(K - N + 2, 1.0, size=size))
    c = 1.0 + (r - 1.0) * beta
    zt = rng.standard_normal((size, 2)) * (1.0 / np.sqrt(2.0))
    den = rng.gamma(K - N + 1, 1.0, size=size)
    return beta, [c * np.abs(np.sqrt(beta * np.abs(root + a0) ** 2 / c) + zt[:, 0] + 1j * zt[:, 1]) ** 2
                  / den for root in roots]


def test_make_sampler_matched_fields(sigma, steer):
    s = make_sampler(sigma, sigma, steer, K)
    assert np.abs(s.lam - 1.0).max() < 1e-10
    assert np.linalg.norm(s.b) < 1e-10
    assert abs(s.r - 1.0) < 1e-10
    assert abs(s.vt_quad - whitened_quad(sigma, steer)) < 1e-10 * s.vt_quad


def test_make_sampler_is_omega_decompose(sigma, steer):
    st, _ = gen_sigma_t(StreamKey(339), sigma, steer, MismatchSpec("inv_wishart", 6.0))
    om, s = omega_decompose(sigma, st, steer, K), make_sampler(sigma, st, steer, K)
    assert (om.n, om.k, om.r, om.vt_quad) == (s.n, s.k, s.r, s.vt_quad)
    assert om.lam.tobytes() == s.lam.tobytes()
    assert om.b.tobytes() == s.b.tobytes()


def test_make_sampler_ger_input_kills_cross_row(sigma, steer):
    st, _ = gen_sigma_t(StreamKey(300), sigma, steer, MismatchSpec("ger_chol", 6.0))
    s = make_sampler(sigma, st, steer, K)
    assert np.linalg.norm(s.b) < 1e-8


def test_make_sampler_vt_quad_value(sigma, steer):
    st, _ = gen_sigma_t(StreamKey(301), sigma, steer, MismatchSpec("inv_wishart", 6.0))
    s = make_sampler(sigma, st, steer, K)
    quad = (steer.conj() @ np.linalg.solve(st, steer)).real
    assert abs(s.vt_quad - quad) < 1e-10 * quad


def test_sampler_state_validation():
    with pytest.raises(ValueError):
        RepSampler(n=N, k=15, lam=np.ones(N - 1), b=0.0, r=1.0, vt_quad=1.0)
    for vt_quad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            RepSampler(n=N, k=K, lam=np.ones(N - 1), b=0.0, r=1.0, vt_quad=vt_quad)
    with pytest.raises(ValueError):
        RepSampler(n=N, k=K, lam=np.ones(N - 1), b=0.0, r=0.0, vt_quad=1.0)
    for lam in (np.ones(N), np.r_[np.ones(N - 2), 0.0], np.r_[np.ones(N - 2), np.nan]):
        with pytest.raises(ValueError):
            RepSampler(n=N, k=K, lam=lam, b=0.0, r=1.0, vt_quad=1.0)


def test_sample_pairs_is_stream_deterministic():
    s = matched_sampler()
    b1, t1 = sample_pairs(StreamKey(302), s, 64)
    b2, t2 = sample_pairs(StreamKey(302), s, 64)
    assert np.array_equal(b1, b2) and np.array_equal(t1, t2)


@pytest.mark.parametrize("b", [0.0, 0.3 - 0.2j])
def test_sample_pairs_draw_order_is_pinned(b):
    # vt_quad = 4 and alpha = 1 give the noncentrality root 2 exactly.
    lam = np.linspace(0.5, 2.0, N - 1)
    s = RepSampler(n=N, k=K, lam=lam, b=b, r=1.7, vt_quad=4.0)
    key = StreamKey(325)
    beta, _, t = sample_pairs(key, s, 64, 1.0)
    beta_ref, (t_ref,) = pinned_pairs(key, lam, b, 1.7, 64, (2.0,))
    assert np.allclose(beta, beta_ref, rtol=1e-13, atol=0)
    assert np.allclose(t, t_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("b", [0.0, 0.3 - 0.2j])
def test_shifted_pairs_match_a_sampler_at_that_signal(b):
    # One draw serves every amplitude: t_tilde at alpha equals the pinned
    # recipe at the root sqrt(alpha^2 vt_quad), recomputed from the stream.
    lam = np.linspace(0.5, 2.0, N - 1)
    s = RepSampler(n=N, k=K, lam=lam, b=b, r=1.7, vt_quad=2.5)
    key = StreamKey(338)
    alphas = (0.8, 3.1, 7.5)
    beta, t0, *ts = sample_pairs(key, s, 2048, *alphas)
    ref_beta, ref_t0 = sample_pairs(key, s, 2048)
    assert np.array_equal(beta, ref_beta) and np.array_equal(t0, ref_t0)
    b_ref, t_refs = pinned_pairs(key, lam, b, 1.7, 2048, [0.0] + [np.sqrt(a**2 * 2.5) for a in alphas])
    assert np.max(np.abs(beta - b_ref) / b_ref) <= 1e-13
    for t, t_ref in zip((t0, *ts), t_refs):
        assert np.max(np.abs(t - t_ref) / t_ref) <= 1e-13


def test_sample_pairs_rejects_empty():
    with pytest.raises(ValueError):
        sample_pairs(StreamKey(1), matched_sampler(), 0)


def test_matched_beta_follows_beta_law():
    beta, _ = sample_pairs(StreamKey(304), matched_sampler(), 100_000)
    d = ks_against(beta, lambda x: beta_cdf(K - N + 2, N - 1, x))
    assert d < KS_LIMIT


def test_matched_t_follows_inverted_survival():
    _, t = sample_pairs(StreamKey(305), matched_sampler(), 100_000)
    d = ks_against(t, lambda x: 1.0 - cf1_survival(x, K - N + 1))
    assert d < KS_LIMIT


def test_matched_t_survival_at_reference_threshold():
    eta = 10.0 ** (3.0 / 17.0) - 1.0
    n_tr = 10_000_000
    count = 0
    root = StreamKey(306)
    s = matched_sampler()
    done, ci = 0, 0
    while done < n_tr:
        m = min(1 << 16, n_tr - done)
        _, t = sample_pairs(root.child(ci), s, m)
        count += int(np.count_nonzero(t > eta))
        done += m
        ci += 1
    target = 1e-3
    sigma_mc = np.sqrt(target * (1.0 - target) / n_tr)
    assert abs(count / n_tr - target) < 3.0 * sigma_mc


def test_beta_marginal_matches_gamma_mixture_oracle(sigma, steer):
    st, _ = gen_sigma_t(StreamKey(307), sigma, steer, MismatchSpec("eig_jitter", 6.0))
    s = make_sampler(sigma, st, steer, K)
    beta, _ = sample_pairs(StreamKey(308), s, 100_000)
    rng = np.random.default_rng(309)
    mix = rng.exponential(size=(100_000, N - 1)) @ s.lam
    beta_ref = 1.0 / (1.0 + mix / rng.gamma(K - N + 2, 1.0, size=100_000))
    from scipy import stats as sstats

    d = float(sstats.ks_2samp(beta, beta_ref).statistic)
    assert d < KS_LIMIT


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_fast_path_matches_direct_path(sigma, steer, alpha):
    st, _ = gen_sigma_t(StreamKey(310), sigma, steer, MismatchSpec("inv_wishart", 6.0))
    s = make_sampler(sigma, st, steer, K)
    n_s = 200_000
    beta_f, _, t_f = sample_pairs(StreamKey(311), s, n_s, alpha)

    parts_b, parts_t = [], []
    root = StreamKey(312)
    done, ci = 0, 0
    while done < n_s:
        m = min(2048, n_s - done)
        x, factor = gen_data_batch(root.child(ci), sigma, st, alpha, steer, K, m)
        b, t = pairs_from_raw(*raw_stats_batch(x, factor, steer))
        parts_b.append(b)
        parts_t.append(t)
        done += m
        ci += 1
    beta_d = np.concatenate(parts_b)
    t_d = np.concatenate(parts_t)

    from scipy import stats as sstats

    d_beta = float(sstats.ks_2samp(beta_f, beta_d).statistic)
    d_t = float(sstats.ks_2samp(t_f, t_d).statistic)
    assert d_beta < KS_LIMIT, f"beta marginals differ: D={d_beta:.4f}"
    assert d_t < KS_LIMIT, f"t marginals differ: D={d_t:.4f}"


@pytest.mark.parametrize("snr", [0.0, 30.0])
def test_fast_path_matches_direct_path_at_high_cnr(snr):
    # cond(sigma) is about 4e7; the rotation must keep the pair law exact.
    scn = ScenarioCfg(n=64, k=128, cnr_db=60.0, rho1=0.999)
    sigma = build_cov(scn)
    steer = build_steering(scn.n, scn.fd)
    st, _ = gen_sigma_t(StreamKey(322), sigma, steer, MismatchSpec("inv_wishart", 6.0))
    alpha = snr_to_alpha(snr, sigma, steer)
    n_s = 4096
    beta_f, _, t_f = sample_pairs(StreamKey(323), make_sampler(sigma, st, steer, scn.k), n_s, alpha)
    setup = MisSetup(sigma=sigma, sigma_t=st, v=steer, k=scn.k)
    pairs = [draw_pairs(StreamKey(324).child(ci), setup, 256, alpha) for ci in range(n_s // 256)]
    beta_d = np.concatenate([b for b, _, _ in pairs])
    t_d = np.concatenate([t for _, _, t in pairs])

    from scipy import stats as sstats

    # Two equal samples of n: D follows kstwo at n / 2 under the null.
    limit = sstats.kstwo.isf(1e-3, n_s // 2)
    assert float(sstats.ks_2samp(beta_f, beta_d).statistic) < limit
    assert float(sstats.ks_2samp(t_f, t_d).statistic) < limit


def test_ger_sampler_agrees_with_general_sampler(sigma, steer):
    # Under the relation the cross row is zero only up to rounding, so this
    # sampler draws normals; with b exactly zero it draws exponentials.
    st, _ = gen_sigma_t(StreamKey(313), sigma, steer, MismatchSpec("ger_eig", 6.0))
    rep = check_ger(sigma, st, steer)
    assert rep.holds
    s = make_sampler(sigma, st, steer, K)
    assert s.b.any()
    n_s = 200_000
    beta_a, t_a = sample_pairs(StreamKey(314), s, n_s)
    beta_b, t_b = sample_pairs(StreamKey(315), dataclasses.replace(s, b=0.0), n_s)
    from scipy import stats as sstats

    assert float(sstats.ks_2samp(beta_a, beta_b).statistic) < KS_LIMIT
    assert float(sstats.ks_2samp(t_a, t_b).statistic) < KS_LIMIT


def test_ger_sampler_matched_t_is_pivotal():
    s = RepSampler(n=N, k=K, lam=np.full(N - 1, 0.8), b=0.0, r=1.0, vt_quad=1.0)
    _, t = sample_pairs(StreamKey(316), s, 100_000)
    d = ks_against(t, lambda x: 1.0 - cf1_survival(x, K - N + 1))
    assert d < KS_LIMIT


def test_gain_ratio_above_one_inflates_t():
    s = RepSampler(n=N, k=K, lam=np.ones(N - 1), b=0.0, r=2.0, vt_quad=1.0)
    _, t = sample_pairs(StreamKey(317), s, 100_000)
    assert float(t.mean()) > 0.07  # matched mean is 1/16


def test_noncentrality_inflates_t():
    # vt_quad = 1, so the amplitude sqrt(20) is an SNR of 20.
    s = matched_sampler()
    _, t0 = sample_pairs(StreamKey(318).child(0), s, 50_000)
    _, _, t1 = sample_pairs(StreamKey(318).child(1), s, 50_000, np.sqrt(20.0))
    assert float(t1.mean()) > 4.0 * float(t0.mean())


def test_kalson_transform_identity_per_draw(sigma, steer):
    st, _ = gen_sigma_t(StreamKey(319), sigma, steer, MismatchSpec("inv_wishart", 6.0))
    s = make_sampler(sigma, st, steer, K)
    beta, t = sample_pairs(StreamKey(320), s, 10_000)
    s2 = t / beta
    s1 = s2 + 1.0 / beta - 1.0
    for kappa in (0.5, 2.0, 3.0):
        via_pair = stat_values(kalson(kappa), beta, t)
        direct = s2 / (kappa + s1 - s2)
        rel = np.abs(via_pair - direct) / np.maximum(direct, 1e-300)
        assert rel.max() < 1e-12


def test_mismatch_shifts_beta_down(sigma, steer):
    matched_median = float(special.betaincinv(K - N + 2, N - 1, 0.5))
    root = StreamKey(321)
    below = 0
    for i in range(10):
        st, _ = gen_sigma_t(root.child(i, 0), sigma, steer, MismatchSpec("inv_wishart", 6.0))
        s = make_sampler(sigma, st, steer, K)
        beta, _ = sample_pairs(root.child(i, 1), s, 100_000)
        if float(np.median(beta)) < matched_median:
            below += 1
    assert below >= 8
