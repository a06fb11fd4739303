"""Fast sampler of (beta, t_tilde) from their exact stochastic representation.

One draw costs O(N) scalars instead of an N x K data matrix plus a Cholesky
factorization, which is what makes sweeps of 1e6 trials per draw cheap.
The reduction conditions on the whitened leading coordinates and replaces
the inner Wishart quadratic form by a single chi-square ratio; that step is
exact, not an approximation, so the output distribution must match the
matrix-level path draw for draw (tested at the KS level).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mismatch import omega_decompose
from .randkit import _generator, standard_circular


@dataclass(frozen=True)
class RepSampler:
    """Frozen per-(sigma, sigma_t, alpha) state driving the pair sampler.

    ``l11`` is a factor with l11 @ l11^H equal to the leading whitened
    block, ``w`` the cross row (scalar contribution = w @ x1, plain dot),
    ``r`` the Schur complement, and ``gamma_t`` = |alpha|^2 v^H inv(sigma_t) v.
    Immutable, shareable across workers.
    """

    n: int
    k: int
    l11: np.ndarray
    w: np.ndarray
    r: float
    gamma_t: float

    def __post_init__(self):
        if self.n < 2 or self.k < self.n:
            raise ValueError(f"need K >= N >= 2, got N={self.n}, K={self.k}")
        if not self.r > 0:
            raise ValueError(f"Schur complement must be positive, got {self.r}")
        if self.gamma_t < 0:
            raise ValueError(f"gamma_t must be >= 0, got {self.gamma_t}")


def make_sampler(sigma, sigma_t, v, alpha_abs, k) -> RepSampler:
    """Build the sampler state for a (sigma, sigma_t, v, alpha) point with K snapshots."""
    alpha_abs = float(alpha_abs)
    if alpha_abs < 0:
        raise ValueError(f"alpha_abs must be real nonnegative, got {alpha_abs}")
    om = omega_decompose(sigma, sigma_t, v)
    n = sigma.shape[0]
    return RepSampler(
        n=n,
        k=int(k),
        l11=om.omega11_factor,
        w=om.w,
        r=om.schur,
        gamma_t=alpha_abs**2 * om.vt_quad,
    )


def sample_pairs(stream, s: RepSampler, size: int):
    """Draw ``size`` invariant pairs; returns (beta, t_tilde) arrays.

    Exact per-draw recipe, draw order pinned:
      1. x1 = L11 @ u with u standard circular of length N-1;
      2. g ~ Cchi2(K-N+2); beta = 1/(1 + ||x1||^2 / g);
      3. c = 1 + beta (r - 1); delta = beta |sqrt(gamma_t) + w @ x1|^2 / c;
      4. t_tilde = c * Cchi2(1, delta) / Cchi2(K-N+1).
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = _generator(stream)
    n, k = s.n, s.k
    u = standard_circular(rng, (size, n - 1))
    x1 = u @ s.l11.T
    g = rng.gamma(k - n + 2, 1.0, size=size)
    q = np.einsum("mi,mi->m", x1.conj(), x1).real / g
    beta = 1.0 / (1.0 + q)
    c = 1.0 + beta * (s.r - 1.0)
    delta = beta * np.abs(np.sqrt(s.gamma_t) + x1 @ s.w) ** 2 / c
    z = standard_circular(rng, (size,))
    num = np.abs(np.sqrt(delta) + z) ** 2
    den = rng.gamma(k - n + 1, 1.0, size=size)
    return beta, c * num / den


def sample_pairs_ger(stream, lam, r, gamma_t, n, k, size: int):
    """Vectorized sampler for the collinear-gain case (cross row identically zero).

    Same recipe as ``sample_pairs`` with x1 = sqrt(lam) * u, so the
    noncentrality reduces to beta * gamma_t / c. Draw order matches
    sample_pairs so the two agree draw for draw when w = 0 and
    L11 = diag(sqrt(lam)). Kept as an independent reference that
    ``sample_pairs`` is tested against.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n - 1,) or np.any(lam <= 0):
        raise ValueError(f"lam must be {n - 1} positive reals")
    if not r > 0:
        raise ValueError(f"Schur complement must be positive, got {r}")
    if gamma_t < 0 or size < 1 or k < n:
        raise ValueError("need gamma_t >= 0, size >= 1, K >= N")
    rng = _generator(stream)
    u = standard_circular(rng, (size, n - 1))
    q = (np.abs(u) ** 2 @ lam) / rng.gamma(k - n + 2, 1.0, size=size)
    beta = 1.0 / (1.0 + q)
    c = 1.0 + beta * (r - 1.0)
    delta = beta * gamma_t / c
    z = standard_circular(rng, (size,))
    num = np.abs(np.sqrt(delta) + z) ** 2
    den = rng.gamma(k - n + 1, 1.0, size=size)
    return beta, c * num / den
