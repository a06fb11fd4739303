"""Matrix-level reference path: draw (x, X_t), reduce to (s1, s2), score detectors.

Everything here works from explicit N-dimensional data, so it is slow and
trustworthy. The fast representation sampler is validated against this path
at the distribution level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import chol, chol_stack, solve_lower, solve_lower_stack
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
    """n_batch trials: x = alpha*v + noise(sigma) of shape (n_batch, N) and
    K training columns from sigma_t, X_t of shape (n_batch, N, K).

    Draw order is pinned (test noise first, then training noise) so a stream
    key maps to one reproducible data set.
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
    z = standard_circular(rng, (n_batch, n, k))
    xt = gt[None, :, :] @ z
    return x, xt


def raw_stats(x, xt, v):
    """(s1, s2) from one trial: the pair every detector is a function of.

    Scalar LAPACK route, kept as the independent reference that
    ``raw_stats_batch`` is tested against.
    """
    st = xt @ xt.conj().T
    l = chol(0.5 * (st + st.conj().T))
    a = solve_lower(l, x)
    b = solve_lower(l, v)
    s1 = float(np.vdot(a, a).real)
    bb = float(np.vdot(b, b).real)
    s2 = float(abs(np.vdot(a, b)) ** 2 / bb)
    return s1, s2


def raw_stats_batch(x, xt, v):
    """Vectorized raw_stats over leading axis; returns float arrays (s1, s2)."""
    m, n, k = xt.shape
    st = xt @ xt.conj().transpose(0, 2, 1)
    l = chol_stack(0.5 * (st + st.conj().transpose(0, 2, 1)))
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
