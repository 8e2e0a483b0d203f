"""Angular layer: Legendre/harmonics against scipy, quadrature, Omega algebra."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import lpmv, spherical_jn, sph_harm_y

from majorana import clifford, hankel, spherical

RNG = np.random.default_rng(11)
G = clifford.build_canonical_rep().gamma0
IG5 = clifford.build_canonical_rep().gamma5


# ---------------------------------------------------------------- legendre

@pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2),
                                 (5, 5), (5, -4), (8, 3)])
def test_assoc_legendre_against_scipy(l, m):
    x = RNG.uniform(-0.999, 0.999, 40)
    np.testing.assert_allclose(spherical.assoc_legendre(l, m, x),
                               lpmv(m, l, x), atol=1e-12, rtol=1e-12)


def test_assoc_legendre_out_of_range_is_zero():
    x = np.linspace(-1, 1, 5)
    np.testing.assert_array_equal(spherical.assoc_legendre(2, 3, x), 0.0)


# ----------------------------------------------------------- matrix harmonics

@pytest.mark.parametrize("l,m", [(0, 0), (1, 1), (2, -2), (3, 0), (5, 4)])
def test_majorana_Y_matches_complex_harmonic(l, m):
    """Y_lm here = Re(Y^complex) I + Im(Y^complex) ig0 (same normalization)."""
    th = RNG.uniform(0.1, np.pi - 0.1, 12)
    ph = RNG.uniform(0, 2 * np.pi, 12)
    Ym = spherical.majorana_Y(l, m, th, ph)
    Yc = sph_harm_y(l, m, th, ph)
    np.testing.assert_allclose(
        Ym, np.real(Yc)[:, None, None] * np.eye(4)
        + np.imag(Yc)[:, None, None] * G, atol=1e-12)


def test_majorana_Y_commutes_with_G():
    th, ph = 0.7, 1.3
    Y = spherical.majorana_Y(3, -2, th, ph)
    np.testing.assert_allclose(Y @ G, G @ Y, atol=1e-15)


# -------------------------------------------------------------- angular grid

def test_grid_integrates_harmonics_orthonormally():
    grid = spherical.AngularGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    pairs = [((1, 0), (1, 0)), ((2, 1), (2, 1)), ((3, -2), (3, -2)),
             ((2, 1), (3, 1)), ((1, 0), (1, 1)), ((4, 2), (2, 2))]
    for (l1, m1), (l2, m2) in pairs:
        P = grid.integrate(np.einsum(
            'xyba,xybc->xyac', spherical.majorana_Y(l1, m1, th, ph),
            spherical.majorana_Y(l2, m2, th, ph)))
        tgt = np.eye(4) if (l1, m1) == (l2, m2) else np.zeros((4, 4))
        np.testing.assert_allclose(P, tgt, atol=1e-12)


def test_dphi_spectral_exact_on_harmonics():
    grid = spherical.AngularGrid(8, 24)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    for l, m in [(1, 1), (3, -2), (4, 3)]:
        Y = spherical.majorana_Y(l, m, th, ph)
        np.testing.assert_allclose(grid.dphi(Y), m * (G @ Y), atol=1e-12)


def test_dtheta_on_low_l():
    # d/dtheta Y_10 = -N sin(theta), with N = sqrt(3/4pi)
    grid = spherical.AngularGrid(12, 16)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    Y = spherical.majorana_Y(1, 0, th, ph)
    got = grid.dtheta(Y)
    N = np.sqrt(3 / (4 * np.pi))
    tgt = -N * np.sin(th)[..., None, None] * np.broadcast_to(np.eye(4), Y.shape)
    np.testing.assert_allclose(got, tgt, atol=1e-12)


def test_angular_momentum_eigenfunctions():
    grid = spherical.AngularGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    chi = RNG.standard_normal(4)
    for l, m in [(1, 0), (2, -1), (4, 3)]:
        F = spherical.majorana_Y(l, m, th, ph) @ chi
        np.testing.assert_allclose(grid.angular_momentum_apply(F, 3), m * F,
                                   atol=1e-10)
        L2F = sum(grid.angular_momentum_apply(grid.angular_momentum_apply(F, k), k)
                  for k in (1, 2, 3))
        np.testing.assert_allclose(L2F, l * (l + 1) * F, atol=1e-9)


# ------------------------------------------ derivative layer: dense oracles

def _dtheta_ref(grid, F):
    """d/dtheta one azimuthal mode at a time (the plain per-m loop)."""
    Fh = np.fft.rfft(F, axis=1)
    out = np.empty_like(Fh)
    xx = grid.x.reshape((-1,) + (1,) * (F.ndim - 2))
    ss = np.sqrt(1 - xx ** 2)
    for m in range(grid.nphi // 2 + 1):
        fm = Fh[:, m]
        if m % 2 == 0:
            out[:, m] = -ss * np.einsum('ij,j...->i...', grid._dx, fm)
        else:
            g = fm / ss
            out[:, m] = xx * g - (1 - xx ** 2) * np.einsum('ij,j...->i...', grid._dx, g)
    return np.fft.irfft(out, n=grid.nphi, axis=1)


def _L_ref(grid, F, k):
    """L_k F from the textbook expressions, ig0 in place of i."""
    nd = F.ndim - 2
    th = grid.theta.reshape((-1, 1) + (1,) * nd)
    ph = grid.phi.reshape((1, -1) + (1,) * nd)
    dth, dph = _dtheta_ref(grid, F), grid.dphi(F)
    inner = {1: np.sin(ph) * dth + np.cos(ph) / np.tan(th) * dph,
             2: -np.cos(ph) * dth + np.sin(ph) / np.tan(th) * dph,
             3: -dph}[k]
    return np.einsum('ab,xyb...->xya...', G, inner)


def _sigma_dot_L_ref(grid, F):
    """sum_k sigma^k L_k F, one k at a time."""
    return sum(np.einsum('ab,xyb...->xya...', spherical.SIGMA[k - 1],
                         _L_ref(grid, F, k)) for k in (1, 2, 3))


def _close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("ntheta,nphi", [(9, 12), (8, 10), (5, 16)])
@pytest.mark.parametrize("tail", [(4,), (4, 5), (4, 4, 5)])
def test_derivatives_match_per_mode_oracle(ntheta, nphi, tail):
    # random fields are not band-limited: every azimuthal mode, odd and even,
    # and the Nyquist mode carry weight, unlike the eigen-identity tests
    grid = spherical.AngularGrid(ntheta, nphi)
    F = RNG.standard_normal((ntheta, nphi) + tail)
    _close(grid.dtheta(F), _dtheta_ref(grid, F))
    for k in (1, 2, 3):
        _close(grid.angular_momentum_apply(F, k), _L_ref(grid, F, k))
    _close(grid.sigma_dot_L(F), _sigma_dot_L_ref(grid, F))


def test_angular_momentum_rejects_bad_component():
    with pytest.raises(ValueError):
        spherical.AngularGrid(4, 8).angular_momentum_apply(np.zeros((4, 8, 4)), 0)


# ------------------------------------------------------------ spin operators

def test_spin_algebra():
    s = spherical.SIGMA
    np.testing.assert_array_equal(s[2] @ s[2], np.eye(4))
    np.testing.assert_allclose(s[0] @ s[1] - s[1] @ s[0], 2 * (G @ s[2]),
                               atol=1e-15)
    for k in range(3):
        np.testing.assert_allclose(s[k] @ G, G @ s[k], atol=1e-15)


def test_sigma_r_squares_to_identity():
    th, ph = 1.1, 2.4
    sr = spherical.sigma_r(th, ph)
    np.testing.assert_allclose(sr @ sr, np.eye(4), atol=1e-14)
    # spatial Majorana matrices square to +1: (ig^k)^2 = -g^kk I = +I
    gr = spherical.gamma_r(th, ph)
    np.testing.assert_allclose(gr @ gr, np.eye(4), atol=1e-14)


# ------------------------------------------------------------------- Omega

def test_angular_modes_enumeration():
    modes = spherical.angular_modes(3)
    assert len(modes) == 2 + 4 + 6
    assert modes[0] == (1, -1)
    assert all(-l <= mu <= l - 1 for l, mu in modes)


def test_omega_orthonormal_on_grid():
    grid = spherical.AngularGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    modes = spherical.angular_modes(3)
    OM = np.stack([spherical.omega_matrix(l, mu, th, ph) for l, mu in modes])
    Mo = np.einsum('ixyba,jxybc,xy->ijac', OM, OM, grid.weights, optimize=True)
    tgt = np.einsum('ij,ac->ijac', np.eye(len(modes)), np.eye(4))
    np.testing.assert_allclose(Mo, tgt, atol=1e-12)


def test_omega_five_relations():
    grid = spherical.AngularGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    s3 = spherical.SIGMA[2]
    s1 = spherical.SIGMA[0]
    sr = spherical.sigma_r(th, ph)
    gr = spherical.gamma_r(th, ph)
    for l, mu in [(1, 0), (2, -2), (3, 1)]:
        om = spherical.omega_matrix(l, mu, th, ph)
        part = spherical.omega_matrix(l, -mu - 1, th, ph)
        L3 = grid.angular_momentum_apply(om, 3)
        np.testing.assert_allclose(L3 + (s3 / 2) @ om, (mu + 0.5) * om,
                                   atol=1e-10)
        np.testing.assert_allclose(grid.sigma_dot_L(om),
                                   -om @ (l * s3 + np.eye(4)), atol=1e-9)
        np.testing.assert_allclose(sr @ om, -om @ s1, atol=1e-12)
        np.testing.assert_allclose(gr @ om, (-1.0) ** mu * part @ IG5,
                                   atol=1e-12)
        grom = gr @ om
        np.testing.assert_allclose(grid.sigma_dot_L(grom),
                                   grom @ (l * s3 - np.eye(4)), atol=1e-9)


def test_omega_matrix_rejects_out_of_range_mu():
    with pytest.raises(ValueError):
        spherical.omega_matrix(2, 2, 0.3, 0.4)


# ------------------------------------------------------------------- bessel

def test_sph_jn_table_against_scipy():
    # the regime edges: the series below 1e-3, Miller's sweep below max(l, 1)
    edges = np.array([1e-3, 1.0, *range(2, 9)])
    x = np.concatenate([np.geomspace(1e-6, 1e-3, 10),
                        np.linspace(0.01, 40.0, 200),
                        edges, np.nextafter(edges, 0.0)])
    jt = spherical.sph_jn_table(8, x)
    for l in range(9):
        np.testing.assert_allclose(jt[l], spherical_jn(l, x),
                                    atol=1e-13, rtol=1e-10)


def test_sph_jn_table_miller_regime_near_j0_zero():
    # x near pi: j0(x) ~ 0, the downward recurrence must renormalize on j1
    x = np.array([np.pi - 1e-9, np.pi, np.pi + 1e-9, 2 * np.pi])
    jt = spherical.sph_jn_table(6, x)
    for l in range(7):
        np.testing.assert_allclose(jt[l], spherical_jn(l, x),
                                    atol=1e-13, rtol=1e-9)


def test_sph_jn_table_2d_argument():
    p = np.array([0.5, 1.5])
    r = np.linspace(0.1, 10, 7)
    jt = spherical.sph_jn_table(3, np.multiply.outer(p, r))
    assert jt.shape == (4, 2, 7)
    np.testing.assert_allclose(jt[2], spherical_jn(2, np.multiply.outer(p, r)),
                               atol=1e-13)


def test_sph_jn_table_0d_and_empty_arguments():
    jt = spherical.sph_jn_table(3, 2.5)
    assert jt.shape == (4,)
    np.testing.assert_allclose(jt, spherical_jn(np.arange(4), 2.5), atol=1e-13)
    assert spherical.sph_jn_table(3, np.array([])).shape == (4, 0)


def test_sph_jn_table_peak_memory_is_bounded_by_the_table():
    # each regime runs only on its points: no full-size temporary tables
    g = hankel.SphericalGrid(256, 40.0, 32, 64, 5, 256)
    x = np.multiply.outer(g.p, g.r)
    tracemalloc.start()
    try:
        jt = spherical.sph_jn_table(5, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * jt.nbytes
