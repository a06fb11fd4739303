import numpy as np
import pytest

from cfarmismatch.matkit import chol
from cfarmismatch.scenario import (
    ScenarioCfg,
    build_cov,
    build_steering,
    snr_to_alpha,
    whitened_quad,
)


def test_cfg_defaults():
    cfg = ScenarioCfg()
    assert (cfg.n, cfg.k) == (16, 32)
    assert cfg.cnr_db == 20.0
    assert cfg.rho1 == 0.95
    assert cfg.fd == 0.08


@pytest.mark.parametrize("kwargs", [
    {"n": 16, "k": 15},
    {"n": 1},
    {"rho1": 1.0},
    {"rho1": -0.1},
    {"cnr_db": float("nan")},
])
def test_cfg_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ScenarioCfg(**kwargs)


def test_cov_diagonal_is_clutter_plus_noise(sigma):
    assert np.abs(np.diag(sigma) - 101.0).max() < 1e-10


def test_cov_one_lag_correlation(sigma):
    clutter = sigma - np.eye(16)
    lag1 = np.diag(clutter, k=1) / np.diag(clutter)[:-1]
    assert np.abs(lag1 - 0.95).max() < 1e-12


def test_cov_is_hermitian_toeplitz_and_pd(sigma):
    assert np.abs(sigma - sigma.conj().T).max() < 1e-12
    for lag in range(1, 16):
        d = np.diag(sigma, k=lag)
        assert np.abs(d - d[0]).max() < 1e-12
    chol(sigma)


def test_cov_gaussian_lag_profile(sigma):
    clutter = sigma - np.eye(16)
    lags = np.arange(16)
    expected = 100.0 * 0.95 ** (lags**2)
    assert np.abs(clutter[0, :] - expected).max() < 1e-8


def test_steering_unit_norm(steer):
    assert abs(np.linalg.norm(steer) - 1.0) < 1e-12


def test_steering_zero_doppler_is_flat():
    v = build_steering(8, 0.0)
    assert np.abs(v - 1.0 / np.sqrt(8.0)).max() < 1e-14


def test_steering_phase_progression(steer):
    ratio = steer[1] / steer[0]
    assert abs(ratio - np.exp(2j * np.pi * 0.08)) < 1e-12


def test_whitened_quad_positive(sigma, steer):
    q = whitened_quad(sigma, steer)
    assert q > 0
    ref = (steer.conj() @ np.linalg.solve(sigma, steer)).real
    assert abs(q - ref) < 1e-10 * ref


def test_snr_to_alpha_zero():
    assert snr_to_alpha(0.0, np.eye(4, dtype=complex), np.eye(4, dtype=complex)[:, 0]) == 0.0


def test_snr_to_alpha_identity_case():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    assert abs(snr_to_alpha(4.0, np.eye(4, dtype=complex), v) - 2.0) < 1e-12


def test_snr_to_alpha_round_trip(sigma, steer):
    snr = 37.5
    alpha = snr_to_alpha(snr, sigma, steer)
    back = alpha**2 * whitened_quad(sigma, steer)
    assert abs(back - snr) < 1e-12 * snr


def test_snr_to_alpha_rejects_negative(sigma, steer):
    with pytest.raises(ValueError):
        snr_to_alpha(-1.0, sigma, steer)
