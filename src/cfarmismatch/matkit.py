"""Complex Hermitian linear-algebra kernels with explicit accuracy contracts.

Everything here is a thin, contract-checked wrapper over LAPACK through
numpy; no inverse is ever formed explicitly.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Positive-definiteness failure; ``pivot`` is the 1-based index of the
    Cholesky pivot, or of the ascending eigenvalue, that is not positive."""

    def __init__(self, pivot: int, what: str = "pivot"):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite ({what} {pivot} <= 0)")


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def check_hermitian(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    scale = np.linalg.norm(a)
    if scale > 0 and np.linalg.norm(a - a.conj().T) > HERMITIAN_TOL * scale:
        raise ValueError(f"{what} is not Hermitian to relative tolerance {HERMITIAN_TOL:g}")
    return a


def chol(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L with L L^H = a, positive real diagonal."""
    a = check_hermitian(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    # Only after a failure: the pivot is the order of the first leading
    # block that does not factor, the whole matrix at the latest.
    for p in range(1, a.shape[0]):
        try:
            np.linalg.cholesky(a[:p, :p])
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(p) from None
    raise NotPositiveDefiniteError(a.shape[0])


def ortho_complement(v: np.ndarray) -> np.ndarray:
    """Semi-unitary basis of the orthogonal complement of a unit vector.

    Deterministic: the Householder reflector sending v to (a multiple of)
    the last canonical basis vector, first n-1 columns. For v = e_n this is
    exactly the first n-1 canonical columns.
    """
    v = np.asarray(v, dtype=np.complex128)
    n = v.shape[0]
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("v must be unit-norm to 1e-10")
    a = v[n - 1]
    phase = a / abs(a) if abs(a) > 0 else 1.0
    w = v.copy()
    w[n - 1] += phase  # reflector axis v + phase*e_n, no cancellation
    p = np.eye(n, dtype=np.complex128) - (2.0 / np.vdot(w, w).real) * np.outer(w, w.conj())
    return p[:, : n - 1]


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for Hermitian positive-definite a via Cholesky."""
    c = chol(a)
    return np.linalg.solve(c.conj().T, np.linalg.solve(c, b))
