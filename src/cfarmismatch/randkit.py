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


def sample_cwishart(stream, n: int, dof: int, scale_factor: np.ndarray) -> np.ndarray:
    """Draw from the complex Wishart CW(dof, G G^H) as G (Z Z^H) G^H.

    Z is n x dof with standard circular entries; dof >= n keeps the result
    nonsingular with probability 1.
    """
    if dof < n:
        raise ValueError(f"Wishart dof {dof} < dimension {n}: sample would be singular")
    rng = _generator(stream)
    g = np.asarray(scale_factor, dtype=np.complex128)
    if g.shape != (n, n):
        raise ValueError(f"scale_factor shape {g.shape} does not match dimension {n}")
    z = standard_circular(rng, (n, dof))
    m = g @ z
    w = m @ m.conj().T
    return 0.5 * (w + w.conj().T)


def cf1_survival(t, q: int):
    """P(F > t) for the central complex F with p=1: (1 + t)^(-q).

    Closed form from E[exp(-t V)] with exponential numerator and
    Gamma(q, 1) denominator; strictly decreasing in t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if q < 1:
        raise ValueError(f"dof q must be >= 1, got {q}")
    out = (1.0 + t) ** (-float(q))
    return float(out) if out.ndim == 0 else out


def beta_cdf(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF."""
    from scipy import special  # only validate and cdf need it; kept off the run path

    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise ValueError("x must lie in [0, 1]")
    out = special.betainc(a, b, x)
    return float(out) if out.ndim == 0 else out


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
