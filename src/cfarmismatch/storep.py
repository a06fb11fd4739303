"""Fast sampler of (beta, t_tilde) from their exact stochastic representation.

One draw costs O(N) scalars instead of an N x K data matrix plus a Cholesky
factorization, which is what makes sweeps of 1e6 trials per draw cheap.
The reduction conditions on the whitened leading coordinates and replaces
the inner Wishart quadratic form by a single chi-square ratio; that step is
exact, not an approximation, so the output distribution must match the
matrix-level path draw for draw (tested at the KS level).

The sampler state is the draw's geometry alone: the ``mismatch.RepSampler``
that ``mismatch.omega_decompose`` returns. A signal is an amplitude alpha of
alpha * v added to the test vector, as on the matrix-level path; here it
enters t_tilde through the noncentrality root sqrt(alpha^2 vt_quad).
"""

from __future__ import annotations

import numpy as np

from .mismatch import RepSampler, omega_decompose
from .randkit import _generator, standard_circular


def make_sampler(sigma, sigma_t, v, k) -> RepSampler:
    """Build the sampler state for a (sigma, sigma_t, v) point with K snapshots."""
    return omega_decompose(sigma, sigma_t, v, k)


def sample_pairs(stream, s: RepSampler, size: int, *alphas):
    """Draw ``size`` invariant pairs; returns (beta, t_tilde) arrays without a
    signal, then t_tilde of the same trials for each data amplitude alpha in
    ``alphas``.

    Exact per-draw recipe, in the whitened leading eigenbasis, where
    ||x1||^2 = sum lam_i |u_i|^2 and the cross term is b @ u for u standard
    circular of length N-1. Draw order pinned:
      1. if b has a nonzero entry, u standard circular of shape (size, N-1),
         that is (size, 2(N-1)) standard normals scaled by 1/sqrt(2) and
         read as (re, im) pairs; q = ||x1||^2 and a0 = b @ u;
         if b is exactly zero, q = E @ lam with E (size, N-1) standard
         exponentials (|u_i|^2 is Exp(1)) and a0 = 0, half the draws;
         a tolerance here would drop a real cross term;
      2. g ~ Cchi2(K-N+2); beta = 1/(1 + q / g); c = 1 + beta (r - 1);
      3. z ~ CN(0, 1) and G ~ Cchi2(K-N+1), drawn once for every amplitude:
         t_tilde = c |sqrt(delta) + z|^2 / G with delta = beta |root + a0|^2 / c,
         where root = sqrt(alpha^2 vt_quad), and 0 without a signal.
    Beta, c and a0 do not depend on the signal, which only moves delta; so
    the pairs at every amplitude share one draw.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = _generator(stream)
    n, k = s.n, s.k
    if s.b.any():
        u = standard_circular(rng, (size, n - 1))
        a0 = u @ s.b
        parts = u.view(np.float64)
        np.square(parts, out=parts)  # in place: u is not read again
        q = parts @ np.repeat(s.lam, 2)
    else:
        q = rng.standard_exponential((size, n - 1)) @ s.lam
        a0 = 0.0
    g = rng.gamma(k - n + 2, 1.0, size=size)
    beta = 1.0 / (1.0 + q / g)
    c = 1.0 + beta * (s.r - 1.0)
    z = standard_circular(rng, (size,))
    den = rng.gamma(k - n + 1, 1.0, size=size)
    ts = []
    for root in (0.0, *(np.sqrt(a**2 * s.vt_quad) for a in alphas)):
        delta = beta * np.abs(root + a0) ** 2 / c
        ts.append(c * np.abs(np.sqrt(delta) + z) ** 2 / den)
    return (beta, *ts)
