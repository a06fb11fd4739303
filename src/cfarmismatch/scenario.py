"""Clutter-plus-noise test scenario: covariance, steering vector, SNR mapping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import solve_hpd


@dataclass(frozen=True)
class ScenarioCfg:
    """Scenario parameters: N channels, K training snapshots, clutter shape.

    Defaults are the slow-target-in-clutter setup: 16 channels, 32 training
    samples, 20 dB clutter-to-noise ratio, one-lag clutter correlation 0.95,
    normalized Doppler 0.08.
    """

    n: int = 16
    k: int = 32
    cnr_db: float = 20.0
    rho1: float = 0.95
    fd: float = 0.08

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 channels, got n={self.n}")
        if self.k < self.n:
            raise ValueError(f"need k >= n training samples, got k={self.k}, n={self.n}")
        if not 0.0 < self.rho1 < 1.0:
            raise ValueError(f"one-lag correlation must be in (0, 1), got {self.rho1}")
        if not np.isfinite(self.cnr_db):
            raise ValueError(f"cnr_db must be finite, got {self.cnr_db}")
        if not np.isfinite(self.fd):
            raise ValueError(f"fd must be finite, got {self.fd}")


def build_cov(cfg: ScenarioCfg) -> np.ndarray:
    """Noise covariance P_c * C + I: Gaussian-shaped clutter plus white noise.

    C(m, n) = exp(-2 pi^2 sf^2 (m-n)^2) = rho1^((m-n)^2); P_c = 10^(cnr/10).
    Real-symmetric by construction, returned as complex HPD.
    """
    lags = np.arange(cfg.n)[:, None] - np.arange(cfg.n)[None, :]
    clutter = cfg.rho1 ** (lags.astype(float) ** 2)
    pc = 10.0 ** (cfg.cnr_db / 10.0)
    return (pc * clutter + np.eye(cfg.n)).astype(np.complex128)


def build_steering(n: int, fd: float) -> np.ndarray:
    """Unit-norm Doppler steering vector at normalized frequency fd."""
    return np.exp(2j * np.pi * fd * np.arange(n)) / np.sqrt(n)


def whitened_quad(sigma: np.ndarray, v: np.ndarray) -> float:
    """The quadratic form v^H Sigma^-1 v (real and positive for HPD Sigma)."""
    return float(np.vdot(v, solve_hpd(sigma, v)).real)


def snr_to_alpha(snr_linear: float, sigma: np.ndarray, v: np.ndarray) -> float:
    """Signal amplitude |alpha| realizing the given SNR = |alpha|^2 v^H Sigma^-1 v."""
    if snr_linear < 0:
        raise ValueError("SNR must be >= 0")
    return float(np.sqrt(snr_linear / whitened_quad(sigma, v)))
