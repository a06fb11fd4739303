"""Training-covariance mismatch families and the rotation geometry they induce.

Five ways of generating a training covariance from the test-cell covariance:
exact match, an inverse-Wishart perturbation, eigenvalue jitter, and one
variant of each that enforces the eigenrelation inv(St) v = lam * inv(S) v
(so the whitened cross block vanishes). ``omega_decompose`` extracts the
geometry (leading-block eigenvalues, cross row in their eigenbasis, Schur
complement, v^H inv(St) v) into ``RepSampler``, the one record of a draw's
geometry and the state of the fast pair sampler in ``storep``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import NotPositiveDefiniteError, chol, check_hermitian, hermitian_part, ortho_complement, solve_hpd
from .randkit import _generator, sample_cwishart
from .scenario import whitened_quad

VARIANTS = ("identity", "inv_wishart", "eig_jitter", "ger_chol", "ger_eig")


@dataclass(frozen=True)
class MismatchSpec:
    """How the training covariance is generated from the test-cell one.

    ``delta_db`` is the half-width of every uniform dB draw. Degrees of
    freedom default to 2N when left unset. ``pin_psi22`` fixes the scalar
    block of the ger_chol construction instead of drawing it (that scalar
    equals the induced Schur complement, so pinning it to 1 keeps the
    whitened gain ratio at unity).
    """

    variant: str
    delta_db: float = 6.0
    nu: int | None = None
    nu1: int | None = None
    m2: int | None = None
    pin_psi22: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown mismatch variant {self.variant!r}; expected one of {VARIANTS}")
        if not self.delta_db >= 0:
            raise ValueError(f"delta_db must be >= 0, got {self.delta_db}")
        if self.m2 is not None and self.m2 < 2:
            raise ValueError(f"m2 must be >= 2 for the scalar block mean to exist, got {self.m2}")
        if self.pin_psi22 is not None and not self.pin_psi22 > 0:
            raise ValueError("pin_psi22 must be positive")


@dataclass(frozen=True)
class GerReport:
    """Collinearity of inv(St) v with inv(S) v: relative residual and scalar."""

    residual: float
    lambda_ger: float
    holds: bool


@dataclass(frozen=True)
class RepSampler:
    """Whitened-and-rotated geometry of a (sigma, sigma_t, v) point with K
    snapshots: the state of the fast pair sampler.

    ``lam`` holds the eigenvalues of the leading (N-1) block Omega11 =
    V diag(lam) V^H, ascending. ``b`` is the cross row in that eigenbasis,
    scaled so that the test-coordinate contribution of x1 = V sqrt(lam) u is
    b @ u (plain dot) for the standard circular u: b = (w @ V) * sqrt(lam),
    with w the row Omega12^H inv(Omega11), so ||b||^2 = Omega12^H inv(Omega11)
    Omega12; a scalar broadcasts, so b=0 gives the collinear-gain case. ``r``
    is the Schur complement Omega22 - ||b||^2, and ``vt_quad`` = v^H inv(St) v,
    which maps a signal amplitude to its noncentrality. No signal is part of
    the state. Immutable, shareable across workers.
    """

    n: int
    k: int
    lam: np.ndarray
    b: np.ndarray
    r: float
    vt_quad: float

    def __post_init__(self):
        if self.n < 2 or self.k < self.n:
            raise ValueError(f"need K >= N >= 2, got N={self.n}, K={self.k}")
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (self.n - 1,) or not np.all(lam > 0):
            raise ValueError(f"lam must be {self.n - 1} positive reals")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "b", np.broadcast_to(np.asarray(self.b, dtype=np.complex128), lam.shape))
        if not self.r > 0:
            raise ValueError(f"Schur complement must be positive, got {self.r}")
        if not self.vt_quad > 0:
            raise ValueError(f"vt_quad must be positive, got {self.vt_quad}")


def _db_uniform(rng: np.random.Generator, half_width_db: float, size: int | None = None):
    return 10.0 ** (rng.uniform(-half_width_db, half_width_db, size=size) / 10.0)


def wishart_dof(spec: MismatchSpec, n: int) -> int | None:
    """Degrees of freedom of the variant's Wishart draw at dimension ``n``:
    ``nu`` for inv_wishart (needs nu > N), ``nu1`` for ger_chol (needs
    nu1 > N-1), 2N when unset; None for the variants that draw none."""
    if spec.variant == "inv_wishart":
        name, dof, floor = "nu", spec.nu, n
    elif spec.variant == "ger_chol":
        name, dof, floor = "nu1", spec.nu1, n - 1
    else:
        return None
    dof = 2 * n if dof is None else dof
    if dof <= floor:
        raise ValueError(f"{spec.variant} needs {name} > {floor} at N={n}, got {name}={dof}")
    return dof


def gen_sigma_t(stream, sigma: np.ndarray, v: np.ndarray, spec: MismatchSpec) -> tuple[np.ndarray, dict]:
    """Draw one training covariance under ``spec``; returns it plus the drawn scalars."""
    sigma = check_hermitian(sigma, what="sigma")
    n = sigma.shape[0]
    rng = _generator(stream)

    if spec.variant == "identity":
        return sigma.copy(), {}

    if spec.variant == "inv_wishart":
        nu = wishart_dof(spec, n)
        gamma = float(_db_uniform(rng, spec.delta_db))
        mu = gamma * (nu - n)  # E[inv(Wt)] = gamma * I
        wt = sample_cwishart(rng, n, nu, 1.0 / np.sqrt(mu))
        t = np.linalg.solve(chol(wt), chol(sigma).conj().T)
        return hermitian_part(t.conj().T @ t), {"gamma": gamma}

    if spec.variant == "eig_jitter":
        lam, vecs = np.linalg.eigh(sigma)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        gamma_n = _db_uniform(rng, spec.delta_db, size=n)  # paired with descending eigenvalues
        sigma_t = (vecs * (lam * gamma_n)) @ vecs.conj().T
        return hermitian_part(sigma_t), {"gamma_n": gamma_n}

    if spec.variant == "ger_chol":
        nu1 = wishart_dof(spec, n)
        m2 = spec.m2 if spec.m2 is not None else 2 * n
        vu = v / np.linalg.norm(v)
        vperp = ortho_complement(vu)
        qv = np.hstack([vperp, vu[:, None]])
        c = chol(hermitian_part(qv.conj().T @ sigma @ qv))
        gamma = float(_db_uniform(rng, spec.delta_db))
        # E[inv(Psi11)] = gamma * I and E[1/psi22] = gamma.
        psi11 = sample_cwishart(rng, n - 1, nu1, 1.0 / np.sqrt(gamma * (nu1 - n + 1)))
        if spec.pin_psi22 is not None:
            psi22 = float(spec.pin_psi22)
        else:
            psi22 = float(rng.gamma(m2, 1.0) / (gamma * (m2 - 1)))
        t = np.linalg.solve(chol(psi11), np.eye(n - 1, dtype=np.complex128))
        inv11 = hermitian_part(t.conj().T @ t)
        blk = np.zeros((n, n), dtype=np.complex128)
        blk[: n - 1, : n - 1] = inv11
        blk[n - 1, n - 1] = 1.0 / psi22
        sigma_t = qv @ (c @ blk @ c.conj().T) @ qv.conj().T
        return hermitian_part(sigma_t), {"gamma": gamma, "psi22": psi22}

    if spec.variant == "ger_eig":
        lam, vecs = np.linalg.eigh(sigma)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        vperp = ortho_complement(v / np.linalg.norm(v))
        f = chol(hermitian_part(vperp.conj().T @ sigma @ vperp))
        lam_sqrt = np.sqrt(lam)
        # block @ f^H = diag(lam_sqrt) V^H vperp
        block = np.linalg.solve(f.conj(), (lam_sqrt[:, None] * (vecs.conj().T @ vperp)).T).T
        y = (vecs.conj().T @ v) / lam_sqrt
        basis = np.hstack([block, (y / np.linalg.norm(y))[:, None]])
        l1 = _db_uniform(rng, spec.delta_db, size=n - 1)
        l2 = float(_db_uniform(rng, spec.delta_db))
        wt = (basis / np.concatenate([l1, [l2]])[None, :]) @ basis.conj().T
        uls = vecs * lam_sqrt[None, :]
        return hermitian_part(uls @ wt @ uls.conj().T), {"l1": l1, "l2": l2}

    raise AssertionError(f"unhandled variant {spec.variant!r}")


def check_ger(sigma: np.ndarray, sigma_t: np.ndarray, v: np.ndarray) -> GerReport:
    """Measure how collinear inv(St) v is with inv(S) v; it holds below a
    relative residual of 1e-8."""
    a = solve_hpd(sigma_t, v)
    b = solve_hpd(sigma, v)
    coef = np.vdot(b, a) / np.vdot(b, b)
    residual = float(np.linalg.norm(a - coef * b) / np.linalg.norm(a))
    return GerReport(residual=residual, lambda_ger=float(coef.real), holds=residual < 1e-8)


def _rotated_omega(sigma: np.ndarray, sigma_t: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Omega = Q^H inv(Gt) sigma inv(Gt)^H Q, with Gt the Cholesky factor of
    sigma_t and Q unitary, sending the whitened v onto the last axis; plus
    v^H inv(sigma_t) v."""
    sigma = check_hermitian(sigma, what="sigma")
    sigma_t = check_hermitian(sigma_t, what="sigma_t")
    n = sigma.shape[0]

    gt = chol(sigma_t)
    y = np.linalg.solve(gt, v)
    vt_quad = float(np.vdot(y, y).real)
    u = y / np.sqrt(vt_quad)
    # Unitary Q = [Householder complement of u, u]: sends the whitened
    # steering vector onto the last canonical axis.
    q = np.hstack([ortho_complement(u), u[:, None]])
    gram_err = np.linalg.norm(q.conj().T @ q - np.eye(n))
    if gram_err > 1e-8:
        raise RuntimeError(f"rotation lost unitarity (residual {gram_err:.3e}); construction bug")

    m = np.linalg.solve(gt, np.linalg.solve(gt, sigma).conj().T)
    return hermitian_part(q.conj().T @ m @ q), vt_quad


def omega_decompose(sigma: np.ndarray, sigma_t: np.ndarray, v: np.ndarray, k: int,
                    v_quad: float | None = None) -> RepSampler:
    """Whiten by the training covariance, rotate the whitened v onto the last
    axis, partition, and diagonalize the leading block; returns the sampler
    state for K snapshots. The Schur complement is checked against its
    independent form v^H inv(sigma_t) v / v^H inv(sigma) v. ``v_quad`` is
    v^H inv(sigma) v; a sweep, whose sigma and v are fixed, passes it in, and
    it is computed here when left out."""
    omega, vt_quad = _rotated_omega(sigma, sigma_t, v)
    lam, vecs = np.linalg.eigh(omega[:-1, :-1])
    if not lam[0] > 0:
        raise NotPositiveDefiniteError(1, what="eigenvalue")
    b = (omega[:-1, -1].conj() @ vecs) / np.sqrt(lam)
    r = float(omega[-1, -1].real - np.vdot(b, b).real)

    ratio = vt_quad / (whitened_quad(sigma, v) if v_quad is None else v_quad)
    if abs(r - ratio) > 1e-6 * ratio:
        raise RuntimeError(
            f"Schur complement {r!r} disagrees with quadratic-form ratio {ratio!r}"
        )
    return RepSampler(n=sigma.shape[0], k=int(k), lam=lam, b=b, r=r, vt_quad=vt_quad)
