import hashlib
import struct

import numpy as np
import pytest
from scipy import special
from scipy import stats as sstats

from cfarmismatch import randkit
from cfarmismatch.randkit import (
    GENERATOR_ID,
    StreamKey,
    beta_cdf,
    cf1_survival,
    sample_cwishart,
    standard_circular,
    wilson_ci,
)


def test_stream_key_is_reproducible():
    a = StreamKey(7).child(1, 2).generator().uniform(size=8)
    b = StreamKey(7).child(1, 2).generator().uniform(size=8)
    assert np.array_equal(a, b)


def test_stream_key_children_are_distinct():
    root = StreamKey(7)
    a = root.child(0).generator().uniform(size=8)
    b = root.child(1).generator().uniform(size=8)
    c = root.child(0, 0).generator().uniform(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_key_seed_is_masked_to_64_bits():
    a = StreamKey(2**64 + 5).generator().uniform(size=4)
    b = StreamKey(5).generator().uniform(size=4)
    assert np.array_equal(a, b)


def test_stream_key_rejects_negative_path():
    with pytest.raises(ValueError):
        StreamKey(1).child(-3)


def test_generator_id_names_the_numpy_build():
    assert np.__version__ in GENERATOR_ID


def test_stream_key_seeds_sfc64_with_its_hash():
    key = StreamKey(7).child(1, 2)
    g = key.generator()
    assert isinstance(g.bit_generator, np.random.SFC64)
    assert GENERATOR_ID.startswith("sfc64(sha256 seed/path)/")
    h = hashlib.sha256(b"cfarmismatch.stream.v1")
    h.update(struct.pack("<QQQ", 7, 1, 2))
    ref = np.random.Generator(np.random.SFC64(int.from_bytes(h.digest()[:16], "little")))
    assert np.array_equal(g.standard_normal(8), ref.standard_normal(8))


def test_standard_circular_unit_power():
    u = standard_circular(StreamKey(11).generator(), (100_000,))
    power = float(np.mean(np.abs(u) ** 2))
    assert 0.98 <= power <= 1.02


@pytest.mark.parametrize("shape", [5, (7,), (64, 1), (2048, 15), (3, 4, 5)])
def test_standard_circular_keeps_its_bits(shape):
    # Every complex draw in the package goes through this layout: consecutive
    # (re, im) normal pairs divided by sqrt(2). Any other order or rounding
    # changes every stream.
    key = StreamKey(12).child(3)
    u = standard_circular(key.generator(), shape)
    full = tuple(np.atleast_1d(shape))
    z = key.generator().standard_normal(full + (2,))
    ref = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    assert u.dtype == np.complex128
    assert u.shape == full
    assert u.flags.c_contiguous
    assert np.array_equal(u.view(np.float64), ref.view(np.float64))


def test_cwishart_mean_is_dof_times_scale():
    acc = np.zeros((4, 4), dtype=complex)
    root = StreamKey(15)
    n_draws = 10_000
    for i in range(n_draws):
        acc += sample_cwishart(root.child(i), 4, 16, 1.0)
    mean = acc / n_draws
    assert np.abs(mean - 16 * np.eye(4)).max() < 0.05 * 16


def test_cwishart_scalar_case_is_gamma():
    root = StreamKey(16)
    draws = np.array([sample_cwishart(root.child(i), 1, 8, 1.0)[0, 0].real
                      for i in range(10_000)])
    d = sstats.kstest(draws, sstats.gamma(8).cdf).statistic
    assert d < 0.02


def test_cwishart_output_is_hermitian_positive():
    w = sample_cwishart(StreamKey(17), 5, 12, 1.0)
    assert np.abs(w - w.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(w).min() > 0


def test_cwishart_rejects_singular_dof():
    with pytest.raises(ValueError):
        sample_cwishart(StreamKey(1), 4, 3, 1.0)


def test_cf1_survival_values():
    assert cf1_survival(0.0, 17) == 1.0
    assert abs(cf1_survival(1.0, 2) - 0.25) < 1e-15
    eta = 10.0 ** (3.0 / 17.0) - 1.0
    assert abs(cf1_survival(eta, 17) - 1e-3) < 1e-15
    ts = np.linspace(0.0, 3.0, 7)
    vals = cf1_survival(ts, 17)
    assert (np.diff(vals) < 0).all()


# Grid fixed before the first comparison with scipy.
NCF_Q = (1, 2, 17, 112, 5000)
NCF_T = np.array([1e-3, 0.05, 0.5, 3.0, 40.0])
NCF_DELTA = np.array([1e-12, 1e-6, 0.3, 3.0, 30.0, 300.0])


@pytest.mark.parametrize("q", NCF_Q)
def test_cf1_survival_matches_noncentral_f(q):
    # |sqrt(delta) + z|^2 / G, with z standard circular and G ~ Gamma(q, 1), is
    # the real F(2, 2q) with noncentrality 2 delta, divided by q. The dropped
    # Poisson terms are bounded absolutely, hence the 1e-20 floor.
    t, delta = NCF_T[:, None], NCF_DELTA[None, :]
    ref = sstats.ncf.sf(q * t, 2, 2 * q, 2 * delta)
    got = cf1_survival(t, q, delta)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * ref + 1e-20)
    assert np.all((got >= 0.0) & (got <= 1.0))
    # A call's largest x sets its truncation point, so an array call and the
    # scalar calls differ by at most 1e-20 plus one rounding of the sum.
    scalar = np.array([[cf1_survival(ti, q, di) for di in NCF_DELTA] for ti in NCF_T])
    assert np.all(np.abs(got - scalar) <= 1e-20 + np.finfo(float).eps * scalar)


def test_cf1_survival_central_where_delta_is_zero():
    t = np.array([0.0, 0.5, 3.0, 0.5, 0.0])
    got = cf1_survival(t, 17, np.array([0.0, 0.0, 0.0, 3.0, 3.0]))
    assert np.array_equal(got[:3], np.exp(-17 * np.log1p(t[:3])))
    assert got[3] == cf1_survival(0.5, 17, 3.0) > got[1]
    assert got[4] == 1.0
    assert isinstance(cf1_survival(0.5, 17, 3.0), float)
    with pytest.raises(ValueError):
        cf1_survival(0.5, 17, -1.0)
    with pytest.raises(ValueError):
        cf1_survival(0.5, 17, np.inf)


def test_beta_cdf_endpoints_and_uniform():
    assert beta_cdf(3, 4, 0.0) == 0.0
    assert beta_cdf(3, 4, 1.0) == 1.0
    assert beta_cdf(18, 15, np.zeros((2, 3))).shape == (2, 3)
    x = np.linspace(0.0, 1.0, 11)
    assert np.abs(beta_cdf(1.0, 1.0, x) - x).max() < 1e-14
    assert np.abs(beta_cdf(2.0, 1.0, x) - x**2).max() < 1e-14
    for a, b in ((2.5, 3), (3, 3.5), (0, 3), (3, 0), (np.inf, 3)):
        with pytest.raises(ValueError, match="positive integers"):
            beta_cdf(a, b, 0.5)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            beta_cdf(3, 4, bad)


# Shapes and grid fixed before the first comparison with scipy: 2001 evenly
# spaced points plus 300 log-spaced ones near each end.
BETA_SHAPES = ((1, 1), (2, 1), (1, 2), (18, 15), (114, 15), (5001, 15), (113, 63), (500, 255))
BETA_X = np.concatenate((np.linspace(0.0, 1.0, 2001), np.logspace(-300.0, -1.0, 300),
                         1.0 - np.logspace(-16.0, -1.0, 300)))


@pytest.mark.parametrize("a,b", BETA_SHAPES)
def test_beta_cdf_matches_scipy_betainc(a, b):
    # The binomial sum has only positive terms, so it keeps its relative
    # precision down to values far below any threshold the package uses.
    ref = special.betainc(a, b, BETA_X)
    got = beta_cdf(a, b, BETA_X)
    big = ref > 1e-250
    assert np.all(np.abs(got - ref)[big] <= 1e-12 * ref[big])
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_wilson_ci_zero_count_upper_bound():
    lo, hi = wilson_ci(0, 10**6)
    assert lo == 0.0
    assert hi < 5e-6


@pytest.mark.parametrize("k,n", [(0, 100), (5, 100), (500, 1000), (999, 1000), (1000, 1000)])
def test_wilson_ci_matches_reference_implementation(k, n):
    ref = sstats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
    lo, hi = wilson_ci(k, n)
    assert abs(lo - ref.low) < 1e-12
    assert abs(hi - ref.high) < 1e-12
    assert lo <= k / n <= hi


# One level only: every interval the package reports is a 95 % interval.
@pytest.mark.parametrize("level", [0.95])
@pytest.mark.parametrize("k,n", [(0, 50), (3, 1000), (250, 500), (2048, 2048)])
def test_wilson_ci_equals_the_uncached_formula(k, n, level):
    z = sstats.norm.ppf(0.5 + level / 2.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, float(center - half))
    hi = 1.0 if k == n else min(1.0, float(center + half))
    assert wilson_ci(k, n) == (lo, hi)


def test_wilson_quantile_is_bit_equal_to_scipy():
    assert randkit._Z95 == sstats.norm.ppf(0.975)
