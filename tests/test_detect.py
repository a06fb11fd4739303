import numpy as np
import pytest
from scipy.stats import ks_2samp, kstwo

from cfarmismatch.detect import (
    AMF,
    KELLY,
    DetectorKind,
    gen_data_batch,
    kalson,
    pairs_from_raw,
    raw_stats_batch,
    stat_values,
)
from cfarmismatch.matkit import chol
from cfarmismatch.mcengine import MisSetup, draw_pairs
from cfarmismatch.mismatch import MismatchSpec, gen_sigma_t
from cfarmismatch.randkit import StreamKey, standard_circular
from cfarmismatch.scenario import ScenarioCfg, build_cov, build_steering, snr_to_alpha


def raw_stats(x, xt, v):
    """(s1, s2) of one trial by the scalar LAPACK route: the independent
    reference that ``raw_stats_batch`` is tested against.

    ``xt`` is the N x K training data or any factor of their sample
    covariance, since only xt xt^H is used. The factor l = R^H, from the QR
    factorization xt^H = Q R, has l l^H = xt xt^H without forming that
    product, which would square the condition number; the phases on R's
    diagonal change neither s1 nor s2.
    """
    l = np.linalg.qr(xt.conj().T, mode="r").conj().T
    a = np.linalg.solve(l, x)
    b = np.linalg.solve(l, v)
    s1 = float(np.vdot(a, a).real)
    bb = float(np.vdot(b, b).real)
    s2 = float(abs(np.vdot(a, b)) ** 2 / bb)
    return s1, s2


def dense_factor(factor, dtype=complex):
    """The (m, N, N) factors Gt A, built from the packed rows of gen_data_batch."""
    gt, off, diag = factor
    m, n = diag.shape
    a = np.zeros((m, n, n), dtype=dtype)
    a[(slice(None),) + np.tril_indices(n, -1)] = off
    a[:, np.arange(n), np.arange(n)] = diag
    return gt.astype(dtype) @ a


def extended_pairs(x, l, v):
    """(beta, t_tilde) of one trial by forward substitution on the dense factor
    l, in extended precision."""
    rhs = np.stack([x, v]).astype(np.clongdouble)
    y = np.zeros_like(rhs)
    for i in range(len(v)):
        y[:, i] = (rhs[:, i] - y[:, :i] @ l[i, :i]) / l[i, i]
    a, b = y
    s1 = np.vdot(a, a).real
    s2 = abs(np.vdot(a, b)) ** 2 / np.vdot(b, b).real
    return float(1 / (1 + s1 - s2)), float(s2 / (1 + s1 - s2))


@pytest.fixture(scope="module")
def one_draw(sigma, steer):
    """One test vector and sample-covariance factor under a fixed mismatch draw."""
    st, _ = gen_sigma_t(StreamKey(200), sigma, steer, MismatchSpec("inv_wishart", 6.0))
    x, factor = gen_data_batch(StreamKey(201), sigma, st, 1.5, steer, 32, 1)
    return st, x[0], dense_factor(factor)[0]


def test_detector_kind_validation():
    with pytest.raises(ValueError):
        DetectorKind("kelly", kappa=2.0)
    with pytest.raises(ValueError):
        DetectorKind("kalson")
    with pytest.raises(ValueError):
        DetectorKind("kalson", kappa=0.0)
    with pytest.raises(ValueError):
        DetectorKind("glrt")
    assert kalson(2.0).kappa == 2.0


@pytest.mark.parametrize("s1,s2,beta,t", [
    (0.0, 0.0, 1.0, 0.0),
    (1.0, 0.0, 0.5, 0.0),
    (3.0, 1.0, 1.0 / 3.0, 1.0 / 3.0),
])
def test_mis_point_arithmetic(s1, s2, beta, t):
    b, tt = pairs_from_raw(s1, s2)
    assert abs(b - beta) < 1e-15
    assert abs(tt - t) < 1e-15


def test_kalson_at_unit_kappa_is_the_glrt_statistic():
    rng = np.random.default_rng(5)
    for _ in range(20):
        beta, t = pairs_from_raw(rng.uniform(0.5, 5.0), rng.uniform(0.0, 0.4))
        assert stat_values(kalson(1.0), beta, t) == stat_values(KELLY, beta, t)


def test_amf_value():
    assert abs(stat_values(AMF, 0.5, 0.2) - 0.4) < 1e-15


def test_kalson_two_route_identity():
    rng = np.random.default_rng(6)
    for kappa in (0.5, 1.0, 2.0, 3.7):
        kind = kalson(kappa)
        for _ in range(50):
            s1 = rng.uniform(0.2, 6.0)
            s2 = rng.uniform(0.0, s1)
            beta, t = pairs_from_raw(s1, s2)
            direct = s2 / (kappa + s1 - s2)
            via_pair = stat_values(kind, beta, t)
            assert abs(via_pair - direct) <= 1e-12 * max(direct, 1e-30)


def test_stat_values_matches_scalar_route():
    rng = np.random.default_rng(7)
    s1 = rng.uniform(0.2, 6.0, size=64)
    s2 = s1 * rng.uniform(0.0, 1.0, size=64)
    beta, t = pairs_from_raw(s1, s2)
    for kind in (KELLY, AMF, kalson(2.0)):
        vec = stat_values(kind, beta, t)
        ref = [stat_values(kind, float(b), float(tt)) for b, tt in zip(beta, t)]
        assert np.abs(vec - np.array(ref)).max() < 1e-15


def test_raw_stats_collinear_test_vector(one_draw, steer):
    st, _, xt = one_draw
    s1, s2 = raw_stats((2.0 - 1.0j) * steer, xt, steer)
    assert abs(s2 - s1) < 1e-10 * s1


def test_raw_stats_orthogonal_projection_kills_s2(one_draw, steer):
    st, _, xt = one_draw
    s_t = xt @ xt.conj().T
    z = np.ones(16, dtype=complex)
    z -= steer * (steer.conj() @ z)  # z orthogonal to the steering vector
    x = s_t @ z
    s1, s2 = raw_stats(x, xt, steer)
    assert s2 < 1e-12 * s1


def test_raw_stats_two_route(one_draw, steer):
    _, x, xt = one_draw
    s1, s2 = raw_stats(x, xt, steer)
    s_inv = np.linalg.inv(xt @ xt.conj().T)
    s1_ref = (x.conj() @ s_inv @ x).real
    s2_ref = abs(x.conj() @ s_inv @ steer) ** 2 / (steer.conj() @ s_inv @ steer).real
    assert abs(s1 - s1_ref) < 1e-10 * s1_ref
    assert abs(s2 - s2_ref) < 1e-10 * s2_ref


def test_raw_stats_batch_matches_scalar(one_draw, sigma, steer):
    st, _, _ = one_draw
    x, factor = gen_data_batch(StreamKey(202), sigma, st, 0.7, steer, 32, 32)
    s1, s2 = raw_stats_batch(x, factor, steer)
    l = dense_factor(factor)
    for i in range(32):
        a, b = raw_stats(x[i], l[i], steer)
        assert abs(s1[i] - a) < 1e-12 * a
        assert abs(s2[i] - b) < 1e-12 * max(b, 1e-30)


def test_raw_stats_batch_matches_scalar_when_ill_conditioned():
    # cond(sigma) about 4e7: a reference that factors l l^H again squares it.
    scn = ScenarioCfg(n=64, k=128, cnr_db=60.0, rho1=0.999)
    sigma, steer = build_cov(scn), build_steering(64, scn.fd)
    x, factor = gen_data_batch(StreamKey(218), sigma, sigma, 0.9, steer, 128, 12)
    s1, s2 = raw_stats_batch(x, factor, steer)
    beta, _ = pairs_from_raw(s1, s2)
    l = dense_factor(factor)
    for i in range(12):
        a, b = raw_stats(x[i], l[i], steer)
        beta_ref, _ = pairs_from_raw(a, b)
        assert abs(beta[i] - beta_ref) <= 1e-12 * beta_ref
        # s2 cancels when x is nearly orthogonal to v; hold it on the scale of s1.
        assert abs(s2[i] - b) <= 1e-12 * a


@pytest.mark.parametrize("n,k,cnr_db,rho1,variant", [
    (16, 32, 20.0, 0.95, "inv_wishart"),
    (64, 128, 60.0, 0.999, "identity"),  # cond(sigma) about 4e7
])
def test_packed_chunk_matches_extended_precision_pairs(n, k, cnr_db, rho1, variant):
    scn = ScenarioCfg(n=n, k=k, cnr_db=cnr_db, rho1=rho1)
    sigma, steer = build_cov(scn), build_steering(n, scn.fd)
    st, _ = gen_sigma_t(StreamKey(216), sigma, steer, MismatchSpec(variant, 6.0))
    x, factor = gen_data_batch(StreamKey(217), sigma, st, 0.9, steer, k, 64)
    beta, t = pairs_from_raw(*raw_stats_batch(x, factor, steer))
    # Extended precision: raw_stats re-factors l l^H, which alone put t_tilde
    # off a 50-digit value by up to 1.6e-12 (N=16) and 1.2e-8 (N=64) here.
    l = dense_factor(factor, np.clongdouble)
    for i in range(64):
        b_ref, t_ref = extended_pairs(x[i], l[i], steer)
        assert abs(beta[i] - b_ref) <= 1e-12 * b_ref
        # t_tilde = |a^H b|^2 / (|b|^2 (1 + s1 - s2)) cancels when a is nearly
        # orthogonal to b; bound its error on the scale s1 beta = t_tilde + 1 - beta.
        assert abs(t[i] - t_ref) <= 1e-12 * (t_ref + 1.0 - b_ref)


def test_phase_rotation_invariance_quarter_turns(one_draw, steer):
    _, x, xt = one_draw
    base = raw_stats(x, xt, steer)
    # Sign flips commute with every float op bitwise; quarter turns swap the
    # real and imaginary lanes, where fused multiply-adds can shift one ulp.
    for phase in (1.0, -1.0):
        assert raw_stats(phase * x, xt, steer) == base
    for phase in (1j, -1j):
        s1, s2 = raw_stats(phase * x, xt, steer)
        assert abs(s1 - base[0]) < 1e-14 * base[0]
        assert abs(s2 - base[1]) < 1e-14 * max(base[1], 1.0)


def test_general_phase_rotation_invariance(one_draw, steer):
    _, x, xt = one_draw
    s1, s2 = raw_stats(x, xt, steer)
    s1r, s2r = raw_stats(np.exp(0.73j) * x, xt, steer)
    assert abs(s1r - s1) < 1e-12 * s1
    assert abs(s2r - s2) < 1e-12 * s2


def test_power_of_two_scaling_is_bitwise_invariant(one_draw, steer):
    _, x, xt = one_draw
    assert raw_stats(2.0 * x, 2.0 * xt, steer) == raw_stats(x, xt, steer)


def test_general_scaling_invariance(one_draw, steer):
    _, x, xt = one_draw
    s1, s2 = raw_stats(x, xt, steer)
    c = np.sqrt(2.7)
    s1r, s2r = raw_stats(c * x, c * xt, steer)
    assert abs(s1r - s1) < 1e-11 * s1
    assert abs(s2r - s2) < 1e-11 * s2


def test_gen_data_is_stream_deterministic(sigma, steer):
    a = gen_data_batch(StreamKey(203), sigma, sigma, 0.5, steer, 32, 1)
    b = gen_data_batch(StreamKey(203), sigma, sigma, 0.5, steer, 32, 1)
    assert np.array_equal(a[0], b[0])
    assert all(np.array_equal(p, q) for p, q in zip(a[1], b[1]))


def test_gen_data_draws_in_the_pinned_order(one_draw, sigma, steer):
    # Test noise, then the strictly-lower normals, then the diagonal gammas.
    st, _, _ = one_draw
    alpha, m = 1.3, 8
    x, (gt, off, diag) = gen_data_batch(StreamKey(218), sigma, st, alpha, steer, 32, m)
    rng = StreamKey(218).generator()
    u = standard_circular(rng, (m, 16))
    assert np.array_equal(x, alpha * steer[None, :] + u @ chol(sigma).T)
    assert np.array_equal(gt, chol(st))
    assert np.array_equal(off, standard_circular(rng, (m, 120)))
    assert np.array_equal(diag, np.sqrt(rng.standard_gamma(32 - np.arange(16), (m, 16))))


def test_gen_data_rejects_bad_arguments(sigma, steer):
    with pytest.raises(ValueError):
        gen_data_batch(StreamKey(1), sigma, sigma, -0.5, steer, 32, 1)
    with pytest.raises(ValueError):
        gen_data_batch(StreamKey(1), sigma, sigma, 0.5, steer, 15, 1)


def test_gen_data_zero_alpha_zero_mean(sigma, steer):
    x, _ = gen_data_batch(StreamKey(205), sigma, sigma, 0.0, steer, 32, 20_000)
    scale = np.sqrt(np.abs(np.diag(sigma)).max() / x.shape[0])
    assert np.abs(x.mean(axis=0)).max() < 5.0 * scale


def test_gen_data_signal_mean(sigma, steer):
    alpha = 6.0
    x, _ = gen_data_batch(StreamKey(206), sigma, sigma, alpha, steer, 32, 20_000)
    err = np.abs(x.mean(axis=0) - alpha * steer).max()
    assert err < 5.0 * np.sqrt(np.abs(np.diag(sigma)).max() / x.shape[0])


def test_training_sample_covariance(sigma, steer):
    st, _ = gen_sigma_t(StreamKey(207), sigma, steer, MismatchSpec("eig_jitter", 6.0))
    n_cols = 100_000
    _, factor = gen_data_batch(StreamKey(208), sigma, st, 0.0, steer, 32, n_cols // 32)
    l = dense_factor(factor)
    scov = np.mean(l @ l.conj().transpose(0, 2, 1), axis=0) / 32
    assert np.abs(scov - st).max() < 0.05 * np.abs(np.diag(st)).max()


@pytest.mark.parametrize("n,k", [(16, 32), (2, 2)])
def test_bartlett_factor_is_the_cholesky_factor(n, k):
    scn = ScenarioCfg(n=n, k=k)
    sigma = build_cov(scn)
    _, factor = gen_data_batch(StreamKey(211), sigma, sigma, 0.0, build_steering(n, scn.fd), k, 256)
    l = dense_factor(factor)
    assert np.all(np.triu(l, 1) == 0.0)
    diag = np.diagonal(l, axis1=1, axis2=2)
    assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
    ref = np.linalg.cholesky(l @ l.conj().transpose(0, 2, 1))
    rel = np.linalg.norm(ref - l, axis=(1, 2)) / np.linalg.norm(l, axis=(1, 2))
    assert rel.max() < 1e-12


@pytest.mark.parametrize("variant", ["identity", "inv_wishart"])
@pytest.mark.parametrize("snr", [0.0, 10.0])
def test_bartlett_pair_law_matches_training_data(sigma, steer, variant, snr):
    """(beta, t) from the direct path against pairs reduced by the scalar
    raw_stats from explicit N x K training data Gt Z."""
    st, _ = gen_sigma_t(StreamKey(212), sigma, steer, MismatchSpec(variant, 6.0))
    alpha = snr_to_alpha(snr, sigma, steer)
    m = 8192
    beta_b, _, t_b = draw_pairs(StreamKey(213), MisSetup(sigma, st, steer, 32), m, alpha)
    rng = np.random.default_rng(214)
    gx, gt = chol(sigma), chol(st)
    s = np.array([raw_stats(alpha * steer + gx @ standard_circular(rng, 16),
                            gt @ standard_circular(rng, (16, 32)), steer) for _ in range(m)])
    beta_d, t_d = pairs_from_raw(s[:, 0], s[:, 1])
    # Two samples of m each: D has the one-sample law at the effective size m/2.
    limit = kstwo.isf(1e-3, m // 2)
    assert ks_2samp(beta_b, beta_d).statistic < limit
    assert ks_2samp(t_b, t_d).statistic < limit


def test_matched_unit_covariance_mean_stats():
    eye = np.eye(16, dtype=complex)
    e1 = np.zeros(16, dtype=complex)
    e1[0] = 1.0
    s1_acc = 0.0
    n_tr, done, ci = 100_000, 0, 0
    root = StreamKey(209)
    while done < n_tr:
        m = min(4096, n_tr - done)
        x, factor = gen_data_batch(root.child(ci), eye, eye, 0.0, e1, 32, m)
        s1, _ = raw_stats_batch(x, factor, e1)
        s1_acc += float(s1.sum())
        done += m
        ci += 1
    # E[s1] = (N-1)/(K-N+1) + (K-N+2)/((K-N)(K+1))... collapses to 1 at N=16, K=32.
    assert abs(s1_acc / n_tr - 1.0) < 0.01


def test_matched_direct_path_moments(sigma, steer):
    n_tr, done, ci = 100_000, 0, 0
    root = StreamKey(210)
    beta_acc, t_acc = 0.0, 0.0
    while done < n_tr:
        m = min(4096, n_tr - done)
        x, factor = gen_data_batch(root.child(ci), sigma, sigma, 0.0, steer, 32, m)
        beta, t = pairs_from_raw(*raw_stats_batch(x, factor, steer))
        beta_acc += float(beta.sum())
        t_acc += float(t.sum())
        done += m
        ci += 1
    assert abs(beta_acc / n_tr - 18.0 / 33.0) < 0.005
    assert abs(t_acc / n_tr - 1.0 / 16.0) < 0.002
