import numpy as np
import pytest

from scipy import linalg

from cfarmismatch.matkit import NotPositiveDefiniteError, chol
from cfarmismatch.mismatch import (
    VARIANTS,
    MismatchSpec,
    _rotated_omega,
    check_ger,
    gen_sigma_t,
    omega_decompose,
    wishart_dof,
)
from cfarmismatch.randkit import StreamKey
from cfarmismatch.scenario import ScenarioCfg, build_cov, build_steering

K = ScenarioCfg().k

def draw(stream, sigma, v, variant, delta_db=6.0, **kw):
    return gen_sigma_t(stream, sigma, v, MismatchSpec(variant, delta_db, **kw))


def test_spec_rejects_unknown_variant():
    with pytest.raises(ValueError):
        MismatchSpec("diagonal_loading")


@pytest.mark.parametrize("kw", [
    {"delta_db": -1.0},
    {"m2": 1},
    {"pin_psi22": 0.0},
    {"pin_psi22": -2.0},
    {"delta_db": float("nan")},
    {"pin_psi22": float("nan")},
])
def test_spec_rejects_bad_fields(kw):
    with pytest.raises(ValueError):
        MismatchSpec("ger_chol", **{"delta_db": 6.0, **kw})


def test_identity_returns_equal_copy(sigma, steer):
    st, meta = draw(StreamKey(100), sigma, steer, "identity")
    assert np.array_equal(st, sigma)
    assert st is not sigma
    assert meta == {}


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "identity"])
def test_draws_are_stream_deterministic(sigma, steer, variant):
    a, _ = draw(StreamKey(101), sigma, steer, variant)
    b, _ = draw(StreamKey(101), sigma, steer, variant)
    c, _ = draw(StreamKey(102), sigma, steer, variant)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "identity"])
def test_draws_are_hermitian_positive(sigma, steer, variant):
    st, _ = draw(StreamKey(103), sigma, steer, variant)
    assert np.abs(st - st.conj().T).max() < 1e-10 * np.abs(st).max()
    chol(st)


def test_meta_keys_by_variant(sigma, steer):
    expected = {
        "inv_wishart": {"gamma"},
        "eig_jitter": {"gamma_n"},
        "ger_chol": {"gamma", "psi22"},
        "ger_eig": {"l1", "l2"},
    }
    for variant, keys in expected.items():
        _, meta = draw(StreamKey(104), sigma, steer, variant)
        assert set(meta) == keys


def test_db_draws_respect_half_width(sigma, steer):
    lo, hi = 10.0 ** (-0.3), 10.0 ** (0.3)
    for i in range(30):
        _, meta = draw(StreamKey(105, (i,)), sigma, steer, "inv_wishart", delta_db=3.0)
        assert lo <= meta["gamma"] <= hi
        _, meta = draw(StreamKey(106, (i,)), sigma, steer, "ger_eig", delta_db=3.0)
        assert (meta["l1"] >= lo).all() and (meta["l1"] <= hi).all()
        assert lo <= meta["l2"] <= hi


def test_inv_wishart_centers_on_sigma(sigma, steer):
    acc = np.zeros_like(sigma)
    n_draws = 1500
    root = StreamKey(107)
    for i in range(n_draws):
        st, _ = draw(root.child(i), sigma, steer, "inv_wishart", delta_db=0.0)
        acc += st
    rel = np.linalg.norm(acc / n_draws - sigma) / np.linalg.norm(sigma)
    assert rel < 0.05


def test_inv_wishart_dof_must_exceed_dimension(sigma, steer):
    with pytest.raises(ValueError):
        draw(StreamKey(1), sigma, steer, "inv_wishart", nu=16)


@pytest.mark.parametrize("spec,dof", [
    (MismatchSpec("inv_wishart"), 32),
    (MismatchSpec("inv_wishart", nu=17), 17),
    (MismatchSpec("ger_chol"), 32),
    (MismatchSpec("ger_chol", nu1=16), 16),
    (MismatchSpec("identity", nu=3), None),
    (MismatchSpec("eig_jitter"), None),
])
def test_wishart_dof_defaults_to_twice_the_dimension(spec, dof):
    assert wishart_dof(spec, 16) == dof


def test_eig_jitter_zero_width_reproduces_sigma(sigma, steer):
    st, meta = draw(StreamKey(108), sigma, steer, "eig_jitter", delta_db=0.0)
    assert np.abs(st - sigma).max() < 1e-10 * np.abs(sigma).max()
    assert np.allclose(meta["gamma_n"], 1.0)


def test_eig_jitter_shares_eigenvectors(sigma, steer):
    st, _ = draw(StreamKey(109), sigma, steer, "eig_jitter")
    comm = sigma @ st - st @ sigma
    assert np.abs(comm).max() < 1e-8 * np.abs(sigma).max() * np.abs(st).max()


def test_eig_jitter_pairs_gains_with_descending_eigenvalues(sigma, steer):
    # Sigma_t = V diag(lam * gamma_n) V^H with lam descending: the pairing is
    # part of the stream contract.
    lam, vecs = np.linalg.eigh(sigma)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    assert np.all(np.diff(lam) < 0)
    for seed in (111, 112, 113):
        st, meta = draw(StreamKey(seed), sigma, steer, "eig_jitter")
        ratio = np.diag(vecs.conj().T @ st @ vecs).real / lam
        assert np.allclose(ratio, meta["gamma_n"], rtol=1e-10, atol=0.0)


def test_ger_eig_zero_width_reproduces_sigma(sigma, steer):
    st, _ = draw(StreamKey(110), sigma, steer, "ger_eig", delta_db=0.0)
    assert np.abs(st - sigma).max() < 1e-10 * np.abs(sigma).max()


def test_check_ger_identity_case(sigma, steer):
    rep = check_ger(sigma, sigma, steer)
    assert rep.holds
    assert rep.residual < 1e-14
    assert abs(rep.lambda_ger - 1.0) < 1e-12


def test_check_ger_scaled_sigma(sigma, steer):
    rep = check_ger(sigma, 2.0 * sigma, steer)
    assert rep.holds
    assert abs(rep.lambda_ger - 0.5) < 1e-12


@pytest.mark.parametrize("variant", ["ger_chol", "ger_eig"])
def test_ger_constructions_satisfy_the_relation(sigma, steer, variant):
    root = StreamKey(111)
    for i in range(20):
        st, _ = draw(root.child(i), sigma, steer, variant)
        rep = check_ger(sigma, st, steer)
        assert rep.holds, f"draw {i}: residual {rep.residual:.3e}"


@pytest.mark.parametrize("variant", ["inv_wishart", "eig_jitter"])
def test_free_families_break_the_relation(sigma, steer, variant):
    root = StreamKey(112)
    fails = sum(
        not check_ger(sigma, draw(root.child(i), sigma, steer, variant)[0], steer).holds
        for i in range(20)
    )
    assert fails >= 19


def test_ger_eig_lambda_matches_drawn_scalar(sigma, steer):
    st, meta = draw(StreamKey(113), sigma, steer, "ger_eig")
    rep = check_ger(sigma, st, steer)
    assert abs(rep.lambda_ger - meta["l2"]) < 1e-8 * meta["l2"]


def test_omega_identity_case(sigma, steer):
    om = omega_decompose(sigma, sigma, steer, K)
    assert np.abs(om.lam - 1.0).max() < 1e-10
    assert np.linalg.norm(om.b) < 1e-10
    assert abs(om.r - 1.0) < 1e-10


def test_omega_cross_row_vanishes_under_ger(sigma, steer):
    root = StreamKey(114)
    for i in range(5):
        st, _ = draw(root.child(i), sigma, steer, "ger_chol")
        om = omega_decompose(sigma, st, steer, K)
        assert np.linalg.norm(om.b) < 1e-8


def test_omega_schur_equals_quad_ratio(sigma, steer):
    root = StreamKey(115)
    for i, variant in enumerate(("inv_wishart", "eig_jitter", "ger_chol", "ger_eig")):
        st, _ = draw(root.child(i), sigma, steer, variant)
        om = omega_decompose(sigma, st, steer, K)
        num = (steer.conj() @ np.linalg.solve(st, steer)).real
        den = (steer.conj() @ np.linalg.solve(sigma, steer)).real
        assert abs(om.r - num / den) < 1e-10 * (num / den)


def test_omega_schur_tracks_pinned_scalar(sigma, steer):
    st, meta = draw(StreamKey(116), sigma, steer, "ger_chol", pin_psi22=1.0)
    assert meta["psi22"] == 1.0
    om = omega_decompose(sigma, st, steer, K)
    assert abs(om.r - 1.0) < 1e-8


def test_omega_ger_chol_schur_is_drawn_scalar(sigma, steer):
    st, meta = draw(StreamKey(117), sigma, steer, "ger_chol")
    om = omega_decompose(sigma, st, steer, K)
    assert abs(om.r - meta["psi22"]) < 1e-8 * meta["psi22"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_omega_decomposes_ill_conditioned_scenario(variant):
    # cond(sigma) is about 4e7 here: the rotation must stay unitary to 1e-8
    # and the Schur complement must match the ratio to 1e-6.
    scn = ScenarioCfg(n=64, k=128, cnr_db=60.0, rho1=0.999)
    sigma = build_cov(scn)
    steer = build_steering(scn.n, scn.fd)
    root = StreamKey(118).child(VARIANTS.index(variant))
    for i in range(5):
        st, _ = draw(root.child(i), sigma, steer, variant)
        om = omega_decompose(sigma, st, steer, scn.k)
        num = (steer.conj() @ np.linalg.solve(st, steer)).real
        den = (steer.conj() @ np.linalg.solve(sigma, steer)).real
        assert abs(om.r - num / den) < 1e-6 * (num / den)


@pytest.mark.parametrize("variant", VARIANTS)
def test_omega_eigenbasis_matches_cholesky_route(variant):
    # The cross row's energy ||b||^2 and the Schur complement from the
    # eigendecomposition of Omega11 agree with the Cholesky route
    # w = Omega12^H inv(Omega11) on the same Omega, at cond(sigma) about 4e7.
    scn = ScenarioCfg(n=64, k=128, cnr_db=60.0, rho1=0.999)
    sigma = build_cov(scn)
    steer = build_steering(scn.n, scn.fd)
    root = StreamKey(118).child(VARIANTS.index(variant))
    for i in range(5):
        st, _ = draw(root.child(i), sigma, steer, variant)
        om = omega_decompose(sigma, st, steer, scn.k)
        omega, _ = _rotated_omega(sigma, st, steer)
        o11, o12, o22 = omega[:-1, :-1], omega[:-1, -1], omega[-1, -1].real
        w = linalg.cho_solve((chol(o11), True), o12).conj()
        assert abs(np.vdot(om.b, om.b).real - (w @ o11 @ w.conj()).real) <= 1e-10 * o22
        assert abs(om.r - (o22 - (w @ o12).real)) <= 1e-10 * om.r
        assert np.all(np.diff(om.lam) >= 0)


def test_omega_rejects_a_leading_block_that_is_not_positive_definite(steer):
    n = len(steer)
    with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
        omega_decompose(-np.eye(n, dtype=complex), np.eye(n, dtype=complex), steer, K)
