"""Radial-spherical transform layer: kernels, round trips, eigen relation."""

import warnings

import numpy as np
import pytest
from scipy.special import spherical_jn

from majorana import clifford, hankel, spherical

RNG = np.random.default_rng(11)
CHI = RNG.standard_normal(4)


@pytest.fixture(scope="module")
def grid():
    return hankel.SphericalGrid(64, 16.0, 12, 24, 2, 64)


def gaussian_field(g, mode=(1, 0), m=1.0, r0=4.0, w=0.8):
    env = np.exp(-((g.r - r0) / w) ** 2)
    base = np.einsum('xyab,b->xya', g.omega(mode), CHI)
    return hankel.SphericalField(g, env[:, None, None, None] * base[None], m)


# -------------------------------------------------------------------- labels

def test_angular_mode_bounds():
    m = hankel.AngularMode(2, 1)
    assert tuple(m) == (2, 1)
    assert tuple(m.partner) == (2, -2)
    for l, mu in [(0, 0), (1, 1), (2, -3), (3, 3), (1.5, 0), (2, 0.5), (2.0, 0)]:
        with pytest.raises(ValueError):
            hankel.AngularMode(l, mu)


def test_grid_validation():
    with pytest.raises(ValueError):
        hankel.SphericalGrid(4, 16.0, 12, 24, 2, 64)
    with pytest.raises(ValueError):
        hankel.SphericalGrid(64, -1.0, 12, 24, 2, 64)
    with pytest.raises(ValueError):
        hankel.SphericalGrid(64, 16.0, 12, 24, 0, 64)
    with pytest.raises(ValueError):
        hankel.SphericalGrid(64, 16.0, 12, 24, 2, 1)


def test_mode_table(grid):
    # (l, mu) with 1 <= l <= lmax, -l <= mu <= l-1: 2l channels per l
    assert len(grid.modes) == sum(2 * l for l in range(1, grid.lmax + 1))
    assert grid.mode_index[(1, 0)] == grid.modes.index((1, 0))
    # every mode's ig^r partner is present
    for (l, mu) in grid.modes:
        assert (l, -mu - 1) in grid.mode_index
    # the 2l modes of one l are contiguous with mu ascending, so the partner
    # (l, -mu-1) of the j-th mode of a block is the j-th from its end
    for l in range(1, grid.lmax + 1):
        block = grid.modes[l * (l - 1):l * (l + 1)]
        assert block == [(l, mu) for mu in range(-l, l)]
        assert [(l, -mu - 1) for (_, mu) in block] == block[::-1]


# ------------------------------------------------------------------- kernels

def test_kernel_requires_positive_p(grid):
    with pytest.raises(ValueError):
        hankel.hankel_kernel(0.0, (1, 0), 1.0, 0.3, 0.4, 1.0)
    with pytest.raises(ValueError):
        hankel.hankel_kernel(-0.5, (1, 0), 1.0, 0.3, 0.4, 1.0)
    with pytest.raises(ValueError):
        hankel.hankel_kernel(1.0, (1, 1), 1.0, 0.3, 0.4, 1.0)


def test_kernel_on_grid_matches_pointwise(grid):
    p, mode, m = 0.9, (2, -1), 1.0
    K = hankel.kernel_on_grid(grid, p, mode, m)
    assert K.shape == (grid.nr, grid.angular.theta.size, grid.angular.phi.size, 4, 4)
    for ir, it, ip in [(5, 3, 7), (40, 0, 0), (63, 11, 23)]:
        one = hankel.hankel_kernel(p, mode, grid.r[ir],
                                   grid.angular.theta[it], grid.angular.phi[ip], m)
        np.testing.assert_allclose(K[ir, it, ip], one, atol=1e-14)


def test_bessel_table_against_scipy(grid):
    x = np.multiply.outer(grid.p[:6], grid.r[:10])
    for l in range(grid.lmax + 1):
        np.testing.assert_allclose(grid.jt[l][:6, :10], spherical_jn(l, x),
                                   atol=1e-13, rtol=1e-10)


# --------------------------------------------------------------- round trips

@pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
def test_gaussian_roundtrip(grid, m):
    Psi = gaussian_field(grid, m=m)
    back = hankel.inverse_hankel(hankel.forward_hankel(Psi))
    d = hankel.SphericalField(grid, back.values - Psi.values, m)
    assert np.sqrt(d.norm2() / Psi.norm2()) < 1e-12


def test_windowed_single_channel(grid):
    # Gaussian window in p keeps the reconstructed field localized, so the
    # spectrum-side round trip isolates one angular channel cleanly.
    lm = (2, -2)
    k0 = int(0.375 * grid.np_points)
    bump = np.exp(-((grid.p - grid.p[k0]) / (grid.np_points / 21.0 * grid.dp)) ** 2)
    co0 = np.zeros((grid.np_points, len(grid.modes), 4))
    co0[:, grid.mode_index[lm]] = np.multiply.outer(bump, CHI)
    fld = hankel.inverse_hankel(hankel.HankelSpectrum(grid, co0, 1.0))
    assert fld.tail_fraction() < 1e-8
    co1 = hankel.forward_hankel(fld)
    mags = np.linalg.norm(co1.values, axis=2)
    peak = mags.max()
    off = mags.copy()
    off[:, grid.mode_index[lm]] = 0.0
    assert off.max() / peak < 1e-10
    rel = (np.linalg.norm(co1.values[:, grid.mode_index[lm]] - co0[:, grid.mode_index[lm]])
           / np.linalg.norm(co0))
    assert rel < 1e-10


@pytest.mark.filterwarnings("ignore:field tail")
@pytest.mark.parametrize("m", [1.0, 0.0])
def test_transforms_match_dense_kernel_quadrature(m):
    # direct sums over the sampled kernel at every (p, mode): forward
    # sum wr w_ang Lambda^T Psi, inverse sum_p wp Lambda psi; the random
    # field fills every radial node, so the tail warning is expected.  On
    # the second grid lmax >= nphi/2, so e^{i m phi} aliases on the nodes
    for args in [(16, 8.0, 6, 12, 3, 12), (16, 8.0, 6, 8, 5, 12)]:
        g = hankel.SphericalGrid(*args)
        rng = np.random.default_rng(5)
        Psi = rng.standard_normal((g.nr, g.angular.ntheta, g.angular.nphi, 4))
        psi = rng.standard_normal((g.np_points, len(g.modes), 4))
        wp = hankel.HankelSpectrum(g, psi, m).p_weights()
        fwd = np.empty_like(psi)
        inv = np.zeros_like(Psi)
        for k, p in enumerate(g.p):
            for i, mode in enumerate(g.modes):
                K = hankel.kernel_on_grid(g, p, mode, m)
                fwd[k, i] = np.einsum('rxyba,rxyb,r,xy->a', K, Psi, g.wr, g.angular.weights)
                inv += wp[k] * (K @ psi[k, i])
        got = hankel.forward_hankel(hankel.SphericalField(g, Psi, m)).values
        assert np.abs(got - fwd).max() <= 1e-13 * np.abs(fwd).max()
        got = hankel.inverse_hankel(hankel.HankelSpectrum(g, psi, m)).values
        assert np.abs(got - inv).max() <= 1e-13 * np.abs(inv).max()


ALIASED = (16, 8.0, 6, 8, 5, 12)    # lmax >= nphi/2: rotor(m' phi) aliases on the nodes


def test_rotor_table_matches_pointwise_harmonics():
    # _y[l', m'](theta) rotor(m' phi) is majorana_Y(l', m', theta, phi) on the grid
    for args in [(48, 16.0, 12, 24, 2, 48), ALIASED]:
        g = hankel.SphericalGrid(*args)
        th, ph = g.angular.theta[:, None], g.angular.phi[None, :]
        R = g._R.reshape(g.angular.nphi, 4, -1, 4)          # [phi, b, m', a]
        for l in range(g.lmax + 1):
            for m in range(-l, l + 1):
                got = np.einsum('x,ybz->xybz', g._y[l, m + g.lmax], R[:, :, m + g.lmax])
                want = spherical.majorana_Y(l, m, th, ph)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (l, m)


@pytest.mark.filterwarnings("ignore:field tail")
@pytest.mark.parametrize("args", [(48, 16.0, 12, 24, 2, 48), ALIASED])
def test_transforms_take_leading_axes(args):
    # five stacked fields (spectra) transform as five separate ones, and the
    # inverse returns C-contiguous values
    g = hankel.SphericalGrid(*args)
    rng = np.random.default_rng(8)
    Psi = rng.standard_normal((5, g.nr, g.angular.ntheta, g.angular.nphi, 4))
    psi = rng.standard_normal((5, g.np_points, len(g.modes), 4))
    fwd = hankel.forward_hankel(hankel.SphericalField(g, Psi, 1.0)).values
    inv = hankel.inverse_hankel(hankel.HankelSpectrum(g, psi, 1.0)).values
    assert inv.flags.c_contiguous and fwd.flags.c_contiguous
    for i in range(5):
        one = hankel.forward_hankel(hankel.SphericalField(g, Psi[i], 1.0)).values
        assert np.abs(fwd[i] - one).max() <= 1e-14 * np.abs(one).max()
        one = hankel.inverse_hankel(hankel.HankelSpectrum(g, psi[i], 1.0)).values
        assert one.flags.c_contiguous
        assert np.abs(inv[i] - one).max() <= 1e-14 * np.abs(one).max()


def test_parseval(grid):
    Psi = gaussian_field(grid)
    co = hankel.forward_hankel(Psi)
    assert abs(co.norm2() - Psi.norm2()) < 1e-12 * Psi.norm2()


def test_p_weights_formula(grid):
    m = 1.7
    spec = hankel.HankelSpectrum(grid, np.zeros((grid.np_points, len(grid.modes), 4)), m)
    E = np.sqrt(grid.p ** 2 + m * m)
    np.testing.assert_allclose(spec.p_weights(), grid.dp * (E + m) / (E * np.pi),
                               atol=0)


def test_tail_warning_on_truncated_field(grid):
    env = np.exp(-((grid.r - grid.rmax) / 2.0) ** 2)  # weight piled at rmax
    base = np.einsum('xyab,b->xya', grid.omega(grid.modes[0]), CHI)
    Psi = hankel.SphericalField(grid, env[:, None, None, None] * base[None], 1.0)
    with pytest.warns(UserWarning, match="tail"):
        hankel.forward_hankel(Psi)


def test_no_tail_warning_for_decayed_field_on_coarse_grid():
    # the default tail is the outer 1/64 of the nodes (at least one shell),
    # not a fixed 8 shells, which on nr = 16 was the outer half (r >= 4)
    g = hankel.SphericalGrid(16, 8.0, 6, 12, 2, 16)
    Psi = gaussian_field(g, r0=3.0, w=1.0)
    assert Psi.tail_fraction() < 1e-8
    outer_half = hankel.SphericalField(g, Psi.values * (g.r >= 4.0)[:, None, None, None], 1.0)
    assert outer_half.norm2() / Psi.norm2() > 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hankel.forward_hankel(Psi)


# ------------------------------------------------------- dynamics and Dirac

def test_evolve_preserves_norm(grid):
    k0 = grid.np_points // 3
    bump = np.exp(-((grid.p - grid.p[k0]) / (3 * grid.dp)) ** 2)
    vals = RNG.standard_normal((grid.np_points, len(grid.modes), 4)) * bump[:, None, None]
    spec = hankel.HankelSpectrum(grid, vals, 1.0)
    n0 = spec.norm2()
    cur = spec
    for _ in range(200):
        cur = hankel.evolve_hankel(cur, 0.03)
    assert abs(cur.norm2() - n0) <= 1e-12 * n0


@pytest.mark.parametrize("p,mode", [(1.0, (1, 0)), (0.9, (2, 1)), (1.0, (2, -2))])
def test_eigen_relation(grid, p, mode):
    # residual dominated by the (p dr)^6 radial-stencil truncation
    assert hankel.eigen_relation_residual(grid, p, mode, 1.0) < 1e-5


def columnwise_eigen_residual(grid, p, mode, m):
    """Reference: the full kernel on the grid, then the grid Dirac operator
    one spinor column at a time, compared over the interior radial rows."""
    G = hankel._G
    E = np.sqrt(p * p + m * m)
    LF = hankel.kernel_on_grid(grid, p, mode, m)
    worst = scale = 0.0
    for c in range(4):
        col = np.ascontiguousarray(LF[..., c])
        rhs = E * (LF.reshape(-1, 4) @ G[:, c]).reshape(col.shape)
        lhs = (m * col - hankel._spatial_slash(grid, col)) @ G.T
        worst = max(worst, np.abs(lhs - rhs)[3:-3].max())
        scale = max(scale, np.abs(rhs).max())
    return worst / scale


@pytest.mark.parametrize("m", [1.0, 0.0])
@pytest.mark.parametrize("mode", [(1, 0), (2, -2), (2, 1)])
def test_eigen_relation_matches_columnwise_operator(grid, mode, m):
    # the factor-by-factor residual equals the general grid operator's
    for p in (0.6, 1.3):
        ref = columnwise_eigen_residual(grid, p, mode, m)
        assert abs(hankel.eigen_relation_residual(grid, p, mode, m) - ref) <= 1e-14


def test_spatial_slash_trailing_axes_match_columns(grid):
    vals = RNG.standard_normal((grid.nr, 12, 24, 4, 4))
    got = hankel._spatial_slash(grid, vals)
    ref = np.stack([hankel._spatial_slash(grid, np.ascontiguousarray(vals[..., c]))
                    for c in range(4)], -1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


# ----------------------------------------------------------------- spacetime

def test_spacetime_roundtrip():
    g = hankel.SphericalGrid(48, 16.0, 12, 24, 1, 48)
    env = np.exp(-((g.r - 4.0) / 1.0) ** 2)
    base = np.einsum('xyab,b->xya', g.omega((1, 0)), CHI)
    v0 = env[:, None, None, None] * base[None]
    vals = np.stack([v0 * np.cos(0.3 * i) for i in range(6)])
    f = hankel.SpacetimeSphericalField(g, 3.0, vals, 1.0)
    back = hankel.spacetime_hankel_inverse(hankel.spacetime_hankel_forward(f))
    assert np.abs(back.values - vals).max() < 1e-7 * np.abs(vals).max()


@pytest.mark.filterwarnings("ignore:field tail")
def test_spacetime_pair_matches_per_slice_loop():
    # oracle: the spatial transform slice by slice, then the time rotor DFT
    g = hankel.SphericalGrid(48, 16.0, 12, 24, 2, 48)
    rng = np.random.default_rng(4)
    f = hankel.SpacetimeSphericalField(
        g, 3.0, rng.standard_normal((6, g.nr, g.angular.ntheta, g.angular.nphi, 4)), 1.0)
    s = hankel.SpacetimeHankelSpectrum(
        g, 3.0, rng.standard_normal((6, g.np_points, len(g.modes), 4)), 1.0)
    slices = np.stack([hankel.forward_hankel(hankel.SphericalField(g, v, 1.0)).values
                       for v in f.values])
    want = clifford.time_rotor_forward(slices, 3.0)
    got = hankel.spacetime_hankel_forward(f).values
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    u = clifford.time_rotor_inverse(s.values, 3.0)
    want = np.stack([hankel.inverse_hankel(hankel.HankelSpectrum(g, x, 1.0)).values
                     for x in u])
    got = hankel.spacetime_hankel_inverse(s).values
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
