"""Matrix-level reference path: draw x and the packed sample-covariance factor,
reduce to (s1, s2), score detectors.

x and the factor Gt A are drawn from their exact joint law, so this path is
slow and trustworthy. The fast representation sampler is validated against it
at the distribution level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import chol
from .randkit import _generator, standard_circular

KINDS = ("kelly", "amf", "kalson")


@dataclass(frozen=True)
class DetectorKind:
    """One of the three detectors; kappa applies to kalson only."""

    kind: str
    kappa: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "kalson":
            if self.kappa is None or not (self.kappa > 0):
                raise ValueError("kalson requires kappa > 0")
        elif self.kappa is not None:
            raise ValueError(f"{self.kind} takes no kappa")


KELLY = DetectorKind("kelly")
AMF = DetectorKind("amf")


def kalson(kappa: float) -> DetectorKind:
    return DetectorKind("kalson", kappa=float(kappa))


def gen_data_batch(stream, sigma, sigma_t, alpha_abs, v, k, n_batch):
    """n_batch trials: x = alpha*v + noise(sigma), shape (n_batch, N), and the
    packed factor (Gt, off, diag) of the sample covariance Gt A (Gt A)^H of K
    training columns from sigma_t = Gt Gt^H. By Bartlett's decomposition
    (Goodman, Ann. Math. Stat. 1963) A is lower triangular: its CN(0, 1)
    entries below the diagonal are ``off`` (n_batch, N(N-1)/2), in
    ``np.tril_indices(N, -1)`` order, and ``diag`` (n_batch, N) holds
    a_ii = sqrt(Gamma(K - i, 1)). Pinned draw order: test noise, off, diag.
    """
    alpha_abs = float(alpha_abs)
    if alpha_abs < 0:
        raise ValueError(f"alpha_abs must be real nonnegative, got {alpha_abs}")
    n = sigma.shape[0]
    if k < n:
        raise ValueError(f"need K >= N for an invertible sample covariance, got K={k}, N={n}")
    rng = _generator(stream)
    gx = chol(sigma)
    gt = chol(sigma_t)
    u = standard_circular(rng, (n_batch, n))
    x = alpha_abs * v[None, :] + u @ gx.T
    off = standard_circular(rng, (n_batch, n * (n - 1) // 2))
    diag = np.sqrt(rng.standard_gamma(k - np.arange(n), (n_batch, n)))
    return x, (gt, off, diag)


def raw_stats_batch(x, factor, v, *alphas):
    """(s1, s2) of every trial, the pair every detector is a function of:
    s1 = ||a||^2 and s2 = |a^H b|^2 / ||b||^2, with a = L^-1 x and b = L^-1 v
    for the packed factor L = Gt A of ``gen_data_batch``.

    (Gt A)^-1 = A^-1 Gt^-1, so x and v are whitened by Gt once, then A is
    forward-substituted. Both substitutions run row by row, vectorized
    across trials, into column-major buffers, where one coordinate of every
    trial is contiguous; row i of A, in row-major tril order, is the contiguous
    ``off[:, i(i-1)/2 : i(i-1)/2 + i]``.

    Returns (s1, s2), then s2 of the data x + alpha v for each alpha in
    ``alphas``. The solves are linear: a = A^-1 Gt^-1 x moves to a + alpha b,
    with b = A^-1 Gt^-1 v, so s2 becomes |a^H b + alpha ||b||^2|^2 / ||b||^2,
    while s1 - s2, the part of ||a||^2 off b, and with it beta, stays.
    """
    gt, off, diag = factor
    n = x.shape[1]
    xw = np.empty(x.shape, x.dtype, order="F")
    for i in range(n):
        xw[:, i] = (x[:, i] - xw[:, :i] @ gt[i, :i]) / gt[i, i]
    vw = np.linalg.solve(gt, v)
    a, b = np.empty_like(xw), np.empty_like(xw)
    for i in range(n):
        s = i * (i - 1) // 2
        row = off[:, s:s + i]
        a[:, i] = (xw[:, i] - np.einsum("mj,mj->m", row, a[:, :i])) / diag[:, i]
        b[:, i] = (vw[i] - np.einsum("mj,mj->m", row, b[:, :i])) / diag[:, i]
    s1 = np.einsum("mi,mi->m", a.conj(), a).real
    bb = np.einsum("mi,mi->m", b.conj(), b).real
    ab = np.einsum("mi,mi->m", a.conj(), b)
    return (s1, *(np.abs(ab + alpha * bb) ** 2 / bb for alpha in (0.0, *alphas)))


def pairs_from_raw(s1, s2):
    """Reduce (s1, s2) arrays to the invariant pair: (beta, t_tilde) arrays."""
    d = np.maximum(np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float), 0.0)
    beta = 1.0 / (1.0 + d)
    return beta, np.asarray(s2, dtype=float) * beta


def stat_values(kind: DetectorKind, beta, t_tilde):
    """Vectorized detector statistic from (beta, t_tilde) arrays."""
    if kind.kind == "kelly":
        return t_tilde
    if kind.kind == "amf":
        return t_tilde / beta
    return t_tilde / (1.0 + beta * (kind.kappa - 1.0))
