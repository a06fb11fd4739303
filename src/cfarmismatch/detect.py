"""Matrix-level reference path: draw (x, L), reduce to (s1, s2), score detectors.

L is the Cholesky factor of the training sample covariance, drawn with x from
their exact joint law, so this path is slow and trustworthy. The fast
representation sampler is validated against it at the distribution level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import chol, solve_lower, solve_lower_stack
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
    Cholesky factor L = Gt A of the sample covariance of K training columns
    from sigma_t = Gt Gt^H, shape (n_batch, N, N). By Bartlett's decomposition
    (Goodman, Ann. Math. Stat. 1963), A is lower triangular with CN(0, 1)
    entries below the diagonal and a_ii = sqrt(Gamma(K - i, 1)), i = 0..N-1.
    Pinned draw order: test noise, then the strictly-lower entries of A in
    ``np.tril_indices(N, -1)`` order, then the diagonal.
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
    rows, cols = np.tril_indices(n, -1)
    diag = np.arange(n)
    a = np.zeros((n_batch, n, n), dtype=np.complex128)
    a[:, rows, cols] = standard_circular(rng, (n_batch, rows.size))
    a[:, diag, diag] = np.sqrt(rng.standard_gamma(k - diag, (n_batch, n)))
    return x, gt @ a


def raw_stats(x, xt, v):
    """(s1, s2) from one trial: the pair every detector is a function of.

    ``xt`` is the N x K training data or any factor of their sample
    covariance, since only xt xt^H is used. Scalar LAPACK route, kept as the
    independent reference that ``raw_stats_batch`` is tested against.
    """
    st = xt @ xt.conj().T
    l = chol(0.5 * (st + st.conj().T))
    a = solve_lower(l, x)
    b = solve_lower(l, v)
    s1 = float(np.vdot(a, a).real)
    bb = float(np.vdot(b, b).real)
    s2 = float(abs(np.vdot(a, b)) ** 2 / bb)
    return s1, s2


def raw_stats_batch(x, l, v):
    """Vectorized raw_stats over the leading axis from Cholesky factors l (m, N, N)."""
    m, n, _ = l.shape
    a = solve_lower_stack(l, x[:, :, None])[:, :, 0]
    b = solve_lower_stack(l, np.broadcast_to(v[None, :, None], (m, n, 1)).copy())[:, :, 0]
    s1 = np.einsum("mi,mi->m", a.conj(), a).real
    bb = np.einsum("mi,mi->m", b.conj(), b).real
    s2 = np.abs(np.einsum("mi,mi->m", a.conj(), b)) ** 2 / bb
    return s1, s2


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
