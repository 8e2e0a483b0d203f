"""Plane-wave transform layer: kernels, round trips, evolution, projections."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majorana import clifford, fourier

RNG = np.random.default_rng(3)
REP = clifford.build_canonical_rep()
G = REP.gamma0
CHI = np.array([0.3, -1.0, 0.4, 0.8])


# ------------------------------------------------------------------- rotor

def test_rotor_is_orthogonal_and_composes():
    a, b = 0.7, -1.9
    Ra, Rb = fourier.rotor(a), fourier.rotor(b)
    np.testing.assert_allclose(Ra @ Ra.T, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(Ra @ Rb, fourier.rotor(a + b), atol=1e-15)
    np.testing.assert_allclose(fourier.rotor(0.0), np.eye(4), atol=0)


def test_rotor_array_argument():
    ang = np.linspace(0, 2 * np.pi, 7)
    R = fourier.rotor(ang)
    assert R.shape == (7, 4, 4)
    np.testing.assert_allclose(R[3], fourier.rotor(ang[3]), atol=0)


# ------------------------------------------------------------------ kernels

def test_kernel_O_explicit_form():
    p = np.array([0.4, -1.1, 0.7])
    x = np.array([0.3, 0.9, -2.0])
    m = 1.3
    E = fourier.energy(p, m)
    slashed = sum(p[j] * (REP.generators[1 + j] @ G) for j in range(3))
    A = ((E + m) * np.eye(4) + slashed) / np.sqrt((E + m) ** 2 + p @ p)
    np.testing.assert_allclose(fourier.kernel_O(p, x, m),
                               fourier.rotor(-p @ x) @ A, atol=1e-14)
    # the amplitude is symmetric, so O^T(p,x) = A rotor(p.x)
    np.testing.assert_allclose(A, A.T, atol=1e-15)


def test_grid_kernel_matches_continuum_off_nyquist():
    g = fourier.CartesianGrid(8, 8.0)
    x = np.array([g.xs[2], g.xs[5], g.xs[1]])
    for kvec in [(1, 0, 0), (2, -3, 1), (0, 0, 0)]:
        p = 2 * np.pi * np.asarray(kvec) / g.L
        np.testing.assert_allclose(g.kernel(kvec, 1.0, x),
                                   fourier.kernel_O(p, x, 1.0), atol=1e-13)


def test_kernel_degenerate_at_massless_zero_mode():
    g = fourier.CartesianGrid(8, 8.0)
    with pytest.raises(fourier.DegenerateKernelError):
        g.kernel((0, 0, 0), 0.0, np.zeros(3))
    with pytest.raises(fourier.DegenerateKernelError):
        fourier.kernel_O(np.zeros(3), np.zeros(3), 0.0)


def test_grid_rejects_odd_or_tiny_n():
    with pytest.raises(ValueError):
        fourier.CartesianGrid(7, 8.0)
    with pytest.raises(ValueError):
        fourier.CartesianGrid(0, 8.0)


# ------------------------------------------------------------ orthogonality

def amat(g, kvec, m):
    """The grid amplitude A(p) = O(p, 0)."""
    return g.kernel(kvec, m, np.zeros(3))


def kernel_gram(g, q, p, m):
    """Direct lattice sum  sum_x O(q,x) O^T(p,x) dx^3."""
    X, Y, Z = np.meshgrid(g.xs, g.xs, g.xs, indexing='ij')

    def phase(kv):
        pv = 2 * np.pi * np.asarray(kv, dtype=float) / g.L
        return pv[0] * X + pv[1] * Y + pv[2] * Z

    W = amat(g, q, m) @ amat(g, p, m)
    return np.einsum('xyzab,bc,xyzcd->ad', fourier.rotor(-phase(q)), W,
                     fourier.rotor(phase(p))) * g.dx ** 3


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_kernel_orthogonality_direct(m):
    g = fourier.CartesianGrid(8, 8.0)
    # includes self, distinct, mirror, Nyquist-self and Nyquist-cross pairs
    pairs = [((1, 0, 0), (1, 0, 0)), ((1, 2, -1), (1, 2, -1)),
             ((0, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 1, 0)),
             ((2, -1, 3), (-2, 1, -3)), ((-4, 0, 0), (-4, 0, 0)),
             ((-4, 2, 0), (3, 2, 0)), ((-4, -4, -4), (-4, -4, -4))]
    for q, p in pairs:
        tgt = g.L ** 3 * np.eye(4) if q == p else np.zeros((4, 4))
        np.testing.assert_allclose(kernel_gram(g, q, p, m), tgt,
                                   atol=1e-9 * g.L ** 3)


def test_kernel_completeness_direct():
    g = fourier.CartesianGrid(4, 4.0)
    m = 1.0
    Af = np.array([amat(g, k, m) for k in g.kvecs.reshape(-1, 3)])
    Pf = g.P.reshape(-1, 3)
    X, Y, Z = np.meshgrid(g.xs, g.xs, g.xs, indexing='ij')
    iy = (1, 3, 0)
    y = np.array([g.xs[iy[0]], g.xs[iy[1]], g.xs[iy[2]]])
    acc = np.zeros((4, 4, 4, 4, 4))
    for ip in range(Pf.shape[0]):
        ph = Pf[ip, 0] * (y[0] - X) + Pf[ip, 1] * (y[1] - Y) + Pf[ip, 2] * (y[2] - Z)
        acc += np.einsum('ab,xyzbc,cd->xyzad', Af[ip], fourier.rotor(ph), Af[ip])
    acc *= g.dx ** 3 / g.L ** 3
    tgt = np.zeros_like(acc)
    tgt[iy] = np.eye(4)
    np.testing.assert_allclose(acc, tgt, atol=1e-12)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("m", [0.0, 1.0])
def test_tables_are_the_g_complex_reading_of_the_kernel(n, m):
    # every mode, Nyquist included: Ap = tr A / 4 and K = (A - Ap I)[:2, :2]
    # - i (A - Ap I)[2:, :2], with A = O(p, 0) written out by _amplitude
    g = fourier.CartesianGrid(n, 5.0)
    Ap, K, deg = g._tables(m)
    assert deg.sum() == (m == 0)
    for idx in np.ndindex(n, n, n):
        k = g.kvecs[idx]
        if deg[idx]:
            assert not k.any() and Ap[idx] == 0 and not K[(...,) + idx].any()
            with pytest.raises(fourier.DegenerateKernelError):
                amat(g, k, m)
            continue
        A = amat(g, k, m)
        ap = np.trace(A) / 4
        B = A - ap * np.eye(4)
        assert abs(Ap[idx] - ap) <= 1e-15
        assert np.abs(K[(...,) + idx] - (B[:2, :2] - 1j * B[2:, :2])).max() <= 1e-15


# -------------------------------------------------------------- dense oracle
# The FFT core against the kernel written out entry by entry: every lattice
# momentum (Nyquist included) against every grid point, from grid.kernel.

@lru_cache(maxsize=None)
def dense_kernel(n, m):
    """Matrix of 4x4 blocks O(p_k, x_j), rows and columns in array order."""
    g = fourier.CartesianGrid(n, 5.0)
    idx = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    O = np.zeros((n ** 3, 4, n ** 3, 4))
    for ik, (a, b, c) in enumerate(idx):
        k = (g.ks[a], g.ks[b], g.ks[c])
        for ix, (i, j, l) in enumerate(idx):
            try:
                O[ik, :, ix] = g.kernel(k, m, (g.xs[i], g.xs[j], g.xs[l]))
            except fourier.DegenerateKernelError:
                pass                  # the transforms drop the massless p = 0
    return g, O.reshape(4 * n ** 3, 4 * n ** 3)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("m", [0.0, 1.0])
def test_forward_and_inverse_match_dense_sums(n, m):
    g, O = dense_kernel(n, m)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, n, n, 4))
    spec = fourier.forward(fourier.SpinorField(g, vals, m))
    np.testing.assert_allclose(spec.values.ravel(), O @ vals.ravel() * g.dx ** 3,
                               rtol=0, atol=1e-12)
    back = fourier.inverse(fourier.MomentumSpectrum(g, vals, m))
    np.testing.assert_allclose(back.values.ravel(), O.T @ vals.ravel() / g.L ** 3,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("m", [0.0, 1.0])
def test_spacetime_forward_matches_time_rotor_sum(n, m):
    g, O = dense_kernel(n, m)
    nt, Lt = 4, 3.0
    vals = np.random.default_rng(10 + n).standard_normal((nt, n, n, n, 4))
    got = fourier.spacetime_forward(fourier.SpacetimeField(g, Lt, vals, m)).values
    ts = np.arange(nt) * (Lt / nt)
    spatial = (vals.reshape(nt, -1) @ O.T).reshape(nt, n ** 3, 4) * g.dx ** 3
    for i0, k0 in enumerate(np.fft.fftfreq(nt, 1.0 / nt)):
        R = fourier.rotor(2 * np.pi * k0 / Lt * ts)          # rotor(+p0 t)
        want = np.einsum('tab,tkb->ka', R, spatial) * (Lt / nt)
        np.testing.assert_allclose(got[i0].reshape(-1, 4), want, rtol=0, atol=1e-12)


# -------------------------------------------------------------- round trips

@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_roundtrip_gaussian(m):
    g = fourier.CartesianGrid(8, 8.0)
    X, Y, Z = np.meshgrid(g.xs, g.xs, g.xs, indexing='ij')
    env = np.exp(-((X - 4) ** 2 + (Y - 4) ** 2 + (Z - 4) ** 2) / 2.0)
    f = fourier.SpinorField(g, env[..., None] * CHI, m)
    f2 = fourier.inverse(fourier.forward(f))
    np.testing.assert_allclose(f2.values, f.values, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.5, 1.0, 2.0]))
def test_roundtrip_and_parseval_random_fields(seed, m):
    g = fourier.CartesianGrid(4, 5.0)
    vals = np.random.default_rng(seed).standard_normal((4, 4, 4, 4))
    f = fourier.SpinorField(g, vals, m)
    spec = fourier.forward(f)
    np.testing.assert_allclose(fourier.inverse(spec).values, vals, atol=1e-12)
    assert abs(spec.norm2() - f.norm2()) <= 1e-10 * max(f.norm2(), 1.0)


def test_single_mode_delta_spectrum():
    g = fourier.CartesianGrid(8, 8.0)
    sp = np.zeros((8, 8, 8, 4))
    sp[g.k_index((2, -1, 0))] = CHI
    spec = fourier.MomentumSpectrum(g, sp, 1.0)
    back = fourier.forward(fourier.inverse(spec))
    np.testing.assert_allclose(back.values, sp, atol=1e-12)


def test_massless_drops_zero_mode_and_flags():
    g = fourier.CartesianGrid(4, 4.0)
    f = fourier.SpinorField(g, RNG.standard_normal((4, 4, 4, 4)), 0.0)
    spec = fourier.forward(f)
    assert spec.zero_mode_dropped
    np.testing.assert_array_equal(spec.values[0, 0, 0], 0.0)
    spec2 = fourier.forward(fourier.inverse(spec))
    np.testing.assert_allclose(spec2.values, spec.values, atol=1e-12)


# --------------------------------------------------------------- plane waves

def test_plane_wave_forward_is_delta():
    g = fourier.CartesianGrid(8, 8.0)
    kvec, m = (1, -2, 3), 1.0
    pw = fourier.plane_wave(g, kvec, m, CHI)
    spec = fourier.forward(pw)
    mags = np.linalg.norm(spec.values, axis=-1)
    idx = g.k_index(kvec)
    peak = mags[idx]
    mags[idx] = 0.0
    assert mags.max() <= 1e-12 * peak


def test_plane_wave_satisfies_dirac_equation():
    # d_t Psi = ig0 (i dslash - m) Psi with exact derivatives
    g = fourier.CartesianGrid(8, 8.0)
    kvec, m = (1, 0, -2), 1.0
    p = 2 * np.pi * np.asarray(kvec) / g.L
    E = fourier.energy(p, m)
    v = fourier.plane_wave(g, kvec, m, CHI).values
    vG = fourier.plane_wave(g, kvec, m, G @ CHI).values  # d/dtheta of the rotor
    dt = -E * vG
    islash = sum(np.einsum('ab,xyzb->xyza', REP.generators[1 + j], p[j] * vG)
                 for j in range(3))
    H = np.einsum('ab,xyzb->xyza', G, islash - m * v)
    np.testing.assert_allclose(H, dt, atol=1e-12)


def test_evolution_matches_translated_plane_wave():
    g = fourier.CartesianGrid(8, 8.0)
    kvec, m, t = (2, 1, 0), 0.7, 1.37
    spec = fourier.forward(fourier.plane_wave(g, kvec, m, CHI))
    evolved = fourier.inverse(fourier.evolve(spec, t))
    np.testing.assert_allclose(evolved.values,
                               fourier.plane_wave(g, kvec, m, CHI, t).values,
                               atol=1e-12)


def test_evolve_preserves_norm_many_steps():
    g = fourier.CartesianGrid(8, 8.0)
    spec = fourier.forward(
        fourier.SpinorField(g, RNG.standard_normal((8, 8, 8, 4)), 1.0))
    n0 = spec.norm2()
    cur = spec
    for _ in range(100):
        cur = fourier.evolve(cur, 0.05)
    assert abs(cur.norm2() - n0) <= 1e-12 * n0


SPACE = (-3, -2, -1)


def unsplit_kernel_sum(g, m, values, inverse):
    """The kernel sum as written before its amplitude was split into halves:
    the oracle the transforms must match bit for bit."""
    Ap, K, _ = g._tables(m)
    s = -1 if inverse else 1

    def amplitude(a):
        mirror = np.roll(np.flip(a, SPACE), 1, SPACE).conj()
        return Ap * a + s * np.einsum('ab...,b...->a...', K, mirror)

    z = clifford._to_complex(values)
    return clifford._to_real(clifford._rotor_dft(amplitude(z), SPACE, +1) if inverse
                             else amplitude(clifford._rotor_dft(z, SPACE, -1)))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("m", [1.0, 0.0])
def test_transforms_equal_the_unsplit_amplitude(n, m):
    g = fourier.CartesianGrid(n, 5.0)
    vals = np.random.default_rng(n).standard_normal((n, n, n, 4))
    back = fourier.inverse(fourier.MomentumSpectrum(g, vals, m)).values
    assert np.array_equal(back, unsplit_kernel_sum(g, m, vals, True) / g.L ** 3)
    spec = fourier.forward(fourier.SpinorField(g, vals, m)).values
    assert np.array_equal(spec, unsplit_kernel_sum(g, m, vals, False) * g.dx ** 3)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("m", [1.0, 0.0])
def test_evolved_densities_match_evolve_then_inverse(n, m):
    g = fourier.CartesianGrid(n, 5.0)
    field = fourier.SpinorField(g, np.random.default_rng(n).standard_normal((n, n, n, 4)), m)
    spec = fourier.forward(field)
    assert spec.zero_mode_dropped == (m == 0)
    assert np.abs(spec.values[n // 2]).min() > 0             # Nyquist planes filled
    times = [0.0, 0.37, 5.0]
    got = list(fourier.evolved_densities(spec, times))
    assert len(got) == len(times)
    for t, (norm2, dens) in zip(times, got):
        cur = fourier.evolve(spec, t)
        want = (fourier.inverse(cur).values ** 2).sum(-1)
        assert abs(norm2 - cur.norm2()) <= 1e-13 * cur.norm2()
        assert np.abs(dens - want).max() <= 1e-13 * want.max()


def full_lattice_densities(spec, times):
    # the frame loop with one exp per lattice mode, the oracle for the
    # distinct-energy gather
    g, m = spec.grid, spec.mass
    a, E = clifford._to_complex(spec.values), g.energies(m)
    Ap, n = g._tables(m)[0], fourier._mirror_half(g, m, a, -1)
    ph, z = np.empty(E.shape, complex), np.empty_like(a)
    for t in times:
        np.exp(np.multiply(E, -1j * t, out=ph), out=ph)
        np.multiply(a, ph, out=z)
        norm2 = np.vdot(z, z).real / g.L ** 3
        z *= Ap
        np.conjugate(ph, out=ph)
        dens = np.zeros(Ap.shape)
        for zc, nc in zip(z, n):
            zc += ph * nc
            f = clifford._rotor_dft(zc, SPACE, +1)
            dens += f.real ** 2 + f.imag ** 2
        yield norm2, dens / g.L ** 6


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("m", [1.0, 0.0])
def test_evolved_densities_equal_the_full_lattice_phase(n, m):
    g = fourier.CartesianGrid(n, 16.0)
    vals = np.random.default_rng(n + 1).standard_normal((n, n, n, 4))
    spec = fourier.forward(fourier.SpinorField(g, vals, m))
    times = [0.0, 0.37, -2.5, 5.0, 1e3]
    got = list(fourier.evolved_densities(spec, times))
    want = list(full_lattice_densities(spec, times))
    assert len(got) == len(want) == len(times)
    for (norm2, dens), (norm2_w, dens_w) in zip(got, want):
        assert np.array_equal(norm2, norm2_w)
        assert np.array_equal(dens, dens_w)


# ---------------------------------------------------------------- projections

def test_projections_idempotent_complementary():
    g = fourier.CartesianGrid(4, 4.0)
    spec = fourier.MomentumSpectrum(g, RNG.standard_normal((4, 4, 4, 4)), 1.0)
    dp = fourier.project_particle(spec, +1)
    dm = fourier.project_particle(spec, -1)
    np.testing.assert_allclose(dp.re + dm.re, spec.values, atol=1e-15)
    np.testing.assert_allclose(dp.im + dm.im, 0.0, atol=1e-15)
    pp = dp.project(+1)
    np.testing.assert_allclose(pp.re, dp.re, atol=1e-15)
    np.testing.assert_allclose(pp.im, dp.im, atol=1e-15)
    # opposite projectors annihilate
    pm = dp.project(-1)
    np.testing.assert_allclose(pm.re, 0.0, atol=1e-15)
    np.testing.assert_allclose(pm.im, 0.0, atol=1e-15)


def test_project_particle_rejects_bad_sign():
    g = fourier.CartesianGrid(4, 4.0)
    spec = fourier.MomentumSpectrum(g, np.zeros((4, 4, 4, 4)), 1.0)
    with pytest.raises(ValueError):
        fourier.project_particle(spec, 2)


def test_electron_component_evolves_as_scalar_phase():
    g = fourier.CartesianGrid(8, 8.0)
    sp = np.zeros((8, 8, 8, 4))
    sp[g.k_index((1, 2, -1))] = CHI
    spec = fourier.MomentumSpectrum(g, sp, 1.0)
    for sign in (+1, -1):
        d = fourier.project_particle(spec, sign)
        for t in (0.3, 1.7):
            ev, ph = d.evolve(t), d.phase_evolve(t)
            np.testing.assert_allclose(ev.re, ph.re, atol=1e-12)
            np.testing.assert_allclose(ev.im, ph.im, atol=1e-12)


# ----------------------------------------------------------------- spacetime

def test_time_rotor_forward_inverse_identity():
    vals = RNG.standard_normal((6, 3, 4))
    out = fourier.time_rotor_inverse(fourier.time_rotor_forward(vals, 5.0), 5.0)
    np.testing.assert_allclose(out, vals, atol=1e-12)


def test_spacetime_roundtrip():
    g = fourier.CartesianGrid(6, 6.0)
    vals = RNG.standard_normal((6, 6, 6, 6, 4))
    f4 = fourier.SpacetimeField(g, 6.0, vals, 1.0)
    back = fourier.spacetime_inverse(fourier.spacetime_forward(f4))
    np.testing.assert_allclose(back.values, vals, atol=1e-11)


def test_time_frequency_orthogonality():
    nt, Lt = 16, 4.0
    ts = np.arange(nt) * (Lt / nt)
    ks = np.fft.fftfreq(nt, 1.0 / nt).astype(int)
    for a in (0, 3, 8):
        for b in (0, 5, 8):
            Ra = fourier.rotor(2 * np.pi * ks[a] / Lt * ts)
            Rb = fourier.rotor(2 * np.pi * ks[b] / Lt * ts)
            M = np.einsum('tba,tbc->ac', Ra, Rb) * (Lt / nt)
            tgt = Lt * np.eye(4) if a == b else np.zeros((4, 4))
            np.testing.assert_allclose(M, tgt, atol=1e-12)
