"""Reproducible sampling of the complex-valued distributions used throughout.

Conventions (fixed once, everything downstream assumes them):

* standard circular complex scalar u: real and imaginary parts are
  independent N(0, 1/2), so E|u|^2 = 1. Each u is one consecutive
  (re, im) pair of standard normals scaled by 1/sqrt(2); that layout is
  part of the stream contract, since every complex draw depends on it;
* Cchi2(p, 0) is Gamma(shape=p, scale=1), no factor 2;
* the noncentral Cchi2 is sampled by the shifted-Gaussian construction
  |CN(sqrt(delta), 1)|^2 + Gamma(p-1, 1), exact and branch-free;
* every binomial interval is the two-sided 95 % Wilson score interval.

Streams are hash-seeded: a (seed, path) pair is hashed with SHA-256 to a
128-bit key that seeds an SFC64 generator (through numpy's SeedSequence), so
identical keys replay identical sequences, and distinct paths get distinct
keys and hence independent streams regardless of worker count or draw order.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1

# Pinned into result-file metadata; bump the tag if stream derivation changes.
GENERATOR_ID = f"sfc64(sha256 seed/path)/numpy-{np.__version__}"

# Standard normal quantile at 0.975, bit-equal to scipy.stats.norm.ppf(0.975).
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class StreamKey:
    """Identity of one random stream: a seed plus a path of integer labels.

    Identical (seed, path) pairs reproduce the same draw sequence; distinct
    paths under one seed give independent streams. A single key must not be
    shared across concurrent workers; derive children instead.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        path = tuple(int(p) for p in self.path)
        if any(p < 0 for p in path):
            raise ValueError(f"stream path labels must be non-negative, got {path}")
        object.__setattr__(self, "path", path)

    def child(self, *labels: int) -> "StreamKey":
        """Derive a sub-stream by appending labels to the path."""
        return StreamKey(self.seed, self.path + tuple(labels))

    def generator(self) -> np.random.Generator:
        """Fresh SFC64 generator seeded by a hash of (seed, path)."""
        h = hashlib.sha256(b"cfarmismatch.stream.v1")
        h.update(struct.pack("<Q", self.seed))
        for label in self.path:
            h.update(struct.pack("<Q", label))
        key = int.from_bytes(h.digest()[:16], "little")
        return np.random.Generator(np.random.SFC64(key))


def _generator(stream) -> np.random.Generator:
    if isinstance(stream, StreamKey):
        return stream.generator()
    if isinstance(stream, np.random.Generator):
        return stream
    raise TypeError(f"expected StreamKey or Generator, got {type(stream).__name__}")


def standard_circular(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. standard circular complex entries, E|u|^2 = 1 per entry.

    The normals are scaled in place and reinterpreted as complex, with no
    temporaries. Scaling by the reciprocal of sqrt(2) gives the same bits as
    numpy's complex division ``(re + 1j * im) / sqrt(2)``, except that a draw
    of exactly -0.0 (probability 2**-53 per normal) keeps its sign.
    """
    z = rng.standard_normal(tuple(np.atleast_1d(shape)) + (2,))
    z *= 1.0 / np.sqrt(2.0)
    return z.view(np.complex128)[..., 0]


def sample_cwishart(stream, n: int, dof: int, scale: float) -> np.ndarray:
    """Draw from the complex Wishart CW(dof, scale^2 I) as (scale Z)(scale Z)^H.

    Z is n x dof with standard circular entries; dof >= n keeps the result
    nonsingular with probability 1.
    """
    if dof < n:
        raise ValueError(f"Wishart dof {dof} < dimension {n}: sample would be singular")
    m = scale * standard_circular(_generator(stream), (n, dof))
    w = m @ m.conj().T
    return 0.5 * (w + w.conj().T)


def _binom_cdfs(q: int, terms: int, log_odds, log1p_odds):
    """P(Bin(q, p) <= m) for m < terms, one row per odds y = p / (1-p), given
    as log(y) and log1p(y): a running sum of the pmf C(q, m) y^m / (1+y)^q,
    with log C(q, m) a running sum of log((q-i)/(i+1))."""
    m = np.arange(terms)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((q - m[:-1]) / (m[:-1] + 1.0)))))
    return np.cumsum(np.exp(log_choose + m * log_odds[:, None] - q * log1p_odds[:, None]), axis=1)


def cf1_survival(t, q: int, delta=0.0):
    """P(|sqrt(delta) + z|^2 / G > t), z standard circular, G ~ Gamma(q, 1):
    the survival of the complex F(1, q) with noncentrality delta, elementwise
    over broadcast ``t`` and ``delta``, clamped to [0, 1].

    Where delta is 0 it is (1 + t)^-q, computed as exp(-q log1p(t)).
    Otherwise it is Kelly's (IEEE TAES 1986) sum_j Binom(j; q, t/(1+t))
    P(j, x) with x = delta / (1+t) and P the regularized lower incomplete
    gamma, that is P(Bin(q, t/(1+t)) <= Pois(x)). It is evaluated as the
    Poisson mixture sum_{m<M} Pois(m; x) P(Bin(q, t/(1+t)) <= m)
    + P(Pois(x) >= q), with the binomial CDF from ``_binom_cdfs``. The
    Poisson tail is summed upward from q where x <= q, so a small tail keeps
    its relative precision; where x > q it is at least about 1/2, and is
    1 minus the sum below q. The terms m >= M, with
    M = min(q, ceil(x + 10 sqrt(x) + 30)) at the largest x of the call, and
    the tail's beyond that point, hold at most P(Pois(x) >= M) <= 1e-20 and
    are dropped, so time and memory stay bounded in q. That bound is
    absolute, not relative: at q = 112, t = 40, delta = 300 the survival is
    1.85e-76 and comes back as 1.6e-83. Only the integer shape q occurs, so
    every special function is a finite sum over math.lgamma values.
    """
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if not np.all((delta >= 0) & (delta < np.inf)):
        raise ValueError("delta must be finite and >= 0")
    if q < 1:
        raise ValueError(f"dof q must be >= 1, got {q}")
    shape = np.broadcast_shapes(t.shape, delta.shape)
    t = np.broadcast_to(t, shape).ravel()
    x = np.broadcast_to(delta, shape).ravel() / (1.0 + t)
    out = np.exp(-q * np.log1p(t))
    mix = (x > 0) & (t > 0)
    if np.any(mix):
        y, x = t[mix], x[mix]
        x_max = float(x.max())
        reach = int(np.ceil(x_max + 10.0 * np.sqrt(x_max) + 30.0))
        log_x = np.log(x)[:, None]

        def log_pois(j):
            return j * log_x - x[:, None] - np.array([math.lgamma(i + 1.0) for i in j])

        m = np.arange(min(q, reach))
        pois = np.exp(log_pois(m))
        below = _binom_cdfs(q, m.size, np.log(y), np.log1p(y))
        # Past q + 10 sqrt(q) + 30, the tail of any x <= q is negligible.
        j = np.arange(q, min(reach, q + int(np.ceil(10.0 * np.sqrt(q) + 30.0))))
        tail = np.where(x > q, 1.0 - pois.sum(axis=1), np.exp(log_pois(j)).sum(axis=1))
        out[mix] = np.sum(pois * below, axis=1) + tail
    out = np.clip(out, 0.0, 1.0).reshape(shape)
    return float(out) if out.ndim == 0 else out


def beta_cdf(a: int, b: int, x):
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF, for integer
    shapes: P(Bin(a+b-1, 1-x) <= b-1), whose odds are (1-x)/x, clamped to 1."""
    if not (float(a).is_integer() and float(b).is_integer() and a >= 1 and b >= 1):
        raise ValueError(f"beta shapes must be positive integers, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x <= 1)):
        raise ValueError("x must lie in [0, 1]")
    flat = x.ravel()
    out = (flat == 1).astype(float)
    inner = (flat > 0) & (flat < 1)
    log_x = np.log(flat[inner])
    cdf = _binom_cdfs(int(a + b) - 1, int(b), np.log1p(-flat[inner]) - log_x, -log_x)[:, -1]
    out[inner] = np.minimum(cdf, 1.0)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def wilson_ci(k: int, n: int) -> tuple[float, float]:
    """Wilson 95 % score interval for k successes in n Bernoulli trials."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    z = _Z95
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    # At the boundary counts center-half rounds to a tiny positive number,
    # which would put the interval strictly above p_hat = 0; pin it instead.
    lo = 0.0 if k == 0 else max(0.0, float(center - half))
    hi = 1.0 if k == n else min(1.0, float(center + half))
    return lo, hi
