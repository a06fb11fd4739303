import numpy as np
import pytest
import scipy.linalg as sla

from cfarmismatch.matkit import (
    NotPositiveDefiniteError,
    chol,
    hermitian_part,
    ortho_complement,
    solve_hpd,
)


def test_chol_identity_is_identity():
    assert np.array_equal(chol(np.eye(4, dtype=complex)), np.eye(4, dtype=complex))


def test_chol_of_scaled_identity():
    assert np.array_equal(chol(4.0 * np.eye(3, dtype=complex)), 2.0 * np.eye(3, dtype=complex))


def test_chol_reconstructs_input(rand_hpd):
    a = rand_hpd(6, seed=10)
    l = chol(a)
    rel = np.linalg.norm(l @ l.conj().T - a) / np.linalg.norm(a)
    assert rel < 1e-12
    assert np.abs(np.triu(l, 1)).max() == 0.0


def test_chol_matches_scipy(rand_hpd):
    a = rand_hpd(5, seed=11)
    assert np.abs(chol(a) - sla.cholesky(a, lower=True)).max() < 1e-13


def test_chol_rejects_indefinite_with_pivot():
    a = np.diag([1.0, -1.0, 2.0]).astype(complex)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        chol(a)
    assert exc.value.pivot == 2


@pytest.mark.parametrize("seed", range(6))
def test_chol_pivot_is_lapacks(seed):
    # An indefinite Hermitian matrix: the pivot must be LAPACK zpotrf's info.
    rng = np.random.default_rng(700 + seed)
    q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    vals = rng.uniform(0.1, 3.0, 6)
    vals[rng.integers(6)] = -rng.uniform(0.1, 1.0)
    a = hermitian_part((q * vals) @ q.conj().T)
    info = sla.lapack.zpotrf(a, lower=1)[1]
    assert info > 0
    with pytest.raises(NotPositiveDefiniteError) as exc:
        chol(a)
    assert exc.value.pivot == info


def test_chol_rejects_non_hermitian():
    a = np.eye(3, dtype=complex)
    a[0, 1] = 1.0
    with pytest.raises(ValueError):
        chol(a)


def test_not_positive_definite_is_a_value_error():
    assert issubclass(NotPositiveDefiniteError, ValueError)


def test_hermitian_part_symmetrizes():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitian_part(a)
    assert np.abs(h - h.conj().T).max() == 0.0


def test_ortho_complement_canonical_axis():
    n = 5
    e_last = np.zeros(n, dtype=complex)
    e_last[-1] = 1.0
    vp = ortho_complement(e_last)
    assert np.array_equal(vp, np.eye(n, dtype=complex)[:, : n - 1])


def test_ortho_complement_annihilates_v():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    vp = ortho_complement(v)
    assert np.abs(vp.conj().T @ v).max() < 1e-12


def test_ortho_complement_extends_to_unitary():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    q = np.column_stack([ortho_complement(v), v])
    assert np.abs(q.conj().T @ q - np.eye(6)).max() < 1e-12


def test_ortho_complement_requires_unit_norm():
    with pytest.raises(ValueError):
        ortho_complement(np.array([2.0, 0.0], dtype=complex))


def test_solve_hpd_identity_and_scaling():
    b = np.arange(6, dtype=complex).reshape(3, 2) + 1j
    assert np.abs(solve_hpd(np.eye(3, dtype=complex), b) - b).max() < 1e-14
    assert np.abs(solve_hpd(2.0 * np.eye(3, dtype=complex), b) - b / 2.0).max() < 1e-14


def test_solve_hpd_residual(rand_hpd):
    a = rand_hpd(6, seed=15)
    rng = np.random.default_rng(16)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = solve_hpd(a, b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10
