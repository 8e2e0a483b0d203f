"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
check uses the shipped tolerance, never a loosened one.
"""

import time

import numpy as np
import pytest

from majorana import clifford, fourier, hankel, lorentz, spherical

REP = clifford.build_canonical_rep()
G = REP.gamma0
CHI = np.array([0.3, -1.0, 0.4, 0.8])


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def rand_spin(rng) -> lorentz.PinElement:
    S = lorentz.rotation(0.8 * rng.standard_normal(3))
    for _ in range(rng.integers(0, 3)):
        if rng.random() < 0.5:
            S = S @ lorentz.boost(0.5 * rng.standard_normal(3))
        else:
            S = S @ lorentz.rotation(0.8 * rng.standard_normal(3))
    return S


# --------------------------------------------------------------- criterion 1

def test_criterion_01_clifford_algebra():
    t0 = time.monotonic()
    g = clifford.MINKOWSKI
    exact = True
    for mu in range(4):
        for nu in range(4):
            ac = clifford.anticommutator(REP.generators[mu], REP.generators[nu])
            exact &= np.array_equal(ac, -2.0 * g[mu, mu] * np.eye(4)
                                    if mu == nu else np.zeros((4, 4)))
            if mu != nu:
                exact &= np.array_equal(ac, np.zeros((4, 4)))
    basis = REP.gamma_basis
    gram = np.array([[np.trace(A.T @ B) for B in basis] for A in basis])
    exact &= np.array_equal(gram, 4.0 * np.eye(16))
    traces = [np.trace(A) for A in basis]
    exact &= traces[0] == 4.0 and all(t == 0.0 for t in traces[1:])
    worst_det = max(abs(np.linalg.det(A) - 1.0) for A in basis)
    elapsed = time.monotonic() - t0
    ok = exact and worst_det < 1e-12 and elapsed < 1.0
    report("criterion-01 clifford-algebra", ok,
           f"gram/traces exact, det-1 max {worst_det:.1e}, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_intertwiner():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = worst_det = 0.0
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rep_b = clifford.rep_from_generators(*(Q @ A @ Q.T
                                               for A in REP.generators))
        S = clifford.intertwiner(REP, rep_b)
        for A, B in zip(REP.gamma2_group, rep_b.gamma2_group):
            worst = max(worst, np.abs(S @ A - B @ S).max())
        worst_det = max(worst_det, abs(abs(np.linalg.det(S)) - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and worst_det < 1e-9 and elapsed < 5.0
    report("criterion-02 intertwiner", ok,
           f"conjugation residual {worst:.1e}, |det|-1 {worst_det:.1e}, "
           f"{elapsed:.2f}s")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_lorentz_homomorphism():
    rng = np.random.default_rng(3)
    g = clifford.MINKOWSKI
    worst = worst_metric = 0.0
    double_cover = True
    for _ in range(200):
        S1, S2 = rand_spin(rng), rand_spin(rng)
        L12 = lorentz.lambda_of(S1 @ S2)
        worst = max(worst, np.abs(L12 - lorentz.lambda_of(S1)
                                  @ lorentz.lambda_of(S2)).max())
        worst_metric = max(worst_metric, np.abs(L12.T @ g @ L12 - g).max())
        double_cover &= np.array_equal(lorentz.lambda_of(-S1.matrix),
                                       lorentz.lambda_of(S1.matrix))
    expected_flags = [(1, 1), (1, 1), (-1, 1), (-1, 1),
                      (-1, -1), (-1, -1), (1, -1), (1, -1)]
    coset = all(lorentz.pin_flags(d) == f
                for d, f in zip(lorentz.DELTA, expected_flags))
    for d, f in zip(lorentz.DELTA, expected_flags):
        for _ in range(5):
            coset &= lorentz.pin_flags(d @ rand_spin(rng).matrix) == f
    ok = worst < 1e-9 and worst_metric < 1e-9 and double_cover and coset
    report("criterion-03 homomorphism/double-cover/cosets", ok,
           f"product residual {worst:.1e}, metric residual {worst_metric:.1e}, "
           f"Lambda(-S) = Lambda(S) {'exact' if double_cover else 'BROKEN'}, "
           f"coset table {'exact' if coset else 'BROKEN'}")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_irreducibility():
    full = lorentz.commutant_check("all", "symmetric").dimension
    dropped = lorentz.commutant_check("rotations", "full").dimension
    ok = full == 1 and dropped > 1
    report("criterion-04 commutant", ok,
           f"symmetric-span commutant dim {full} (want 1); "
           f"rotations-only full-span dim {dropped} (want > 1)")


# --------------------------------------------------------------- criterion 5

def _amat(g, kvec, m):
    """The grid amplitude A(p) = O(p, 0)."""
    return g.kernel(kvec, m, np.zeros(3))


def _gram(g, q, p, m, mesh):
    X, Y, Z = mesh
    pq = 2 * np.pi * np.asarray(q, dtype=float) / g.L
    pp = 2 * np.pi * np.asarray(p, dtype=float) / g.L
    W = _amat(g, q, m) @ _amat(g, p, m)
    return np.einsum('xyzab,bc,xyzcd->ad',
                     fourier.rotor(-(pq[0] * X + pq[1] * Y + pq[2] * Z)), W,
                     fourier.rotor(pp[0] * X + pp[1] * Y + pp[2] * Z)) * g.dx ** 3


def _completeness_err(g, m, iy):
    """Direct-sum completeness defect at one output point y = xs[iy]."""
    A = np.zeros((g.n ** 3, 4, 4))
    dropped = False
    for i, k in enumerate(g.kvecs.reshape(-1, 3)):
        try:
            A[i] = _amat(g, k, m)
        except fourier.DegenerateKernelError:  # the transforms zero this mode
            dropped = True
    B = np.einsum('pab,pbc->pac', A, A)
    C = np.einsum('pab,bc,pcd->pad', A, G, A)
    Pf = g.P.reshape(-1, 3)
    X, Y, Z = np.meshgrid(g.xs, g.xs, g.xs, indexing='ij')
    y = np.array([g.xs[i] for i in iy])
    acc = np.zeros((g.n, g.n, g.n, 4, 4))
    step = 1024
    for s in range(0, Pf.shape[0], step):
        P = Pf[s:s + step]
        ph = np.einsum('pj,jxyz->pxyz', P,
                       np.stack([y[0] - X, y[1] - Y, y[2] - Z]))
        acc += np.einsum('pxyz,pab->xyzab', np.cos(ph), B[s:s + step])
        acc += np.einsum('pxyz,pab->xyzab', np.sin(ph), C[s:s + step])
    acc *= g.dx ** 3 / g.L ** 3
    tgt = np.zeros_like(acc)
    tgt[iy] = np.eye(4)
    if dropped:  # massless: the dropped p = 0 kernel is I in the limit
        tgt -= (g.dx ** 3 / g.L ** 3) * np.eye(4)
    return np.abs(acc - tgt).max()


def test_criterion_05_fourier_unitarity():
    t0 = time.monotonic()
    masses = (0.5, 1.0, 2.0, 0.0)
    worst_orth = worst_comp = worst_rt = worst_par = 0.0
    for n in (8, 16):
        g = fourier.CartesianGrid(n, 8.0)
        mesh = np.meshgrid(g.xs, g.xs, g.xs, indexing='ij')
        half = n // 2
        pairs = [((1, 0, 0), (1, 0, 0)), ((1, 2, -1), (1, 2, -1)),
                 ((1, 0, 0), (0, 1, 0)), ((2, -1, 3), (-2, 1, -3)),
                 ((-half, 0, 0), (-half, 0, 0)), ((-half, 2, 0), (3, 2, 0)),
                 ((-half, -half, -half), (-half, -half, -half)),
                 ((0, 0, 0), (0, 0, 0))]
        for m in masses:
            for q, p in pairs:
                if m == 0.0 and q == (0, 0, 0):
                    continue  # p = 0 excluded at m = 0
                tgt = g.L ** 3 * np.eye(4) if q == p else np.zeros((4, 4))
                worst_orth = max(worst_orth,
                                 np.abs(_gram(g, q, p, m, mesh) - tgt).max()
                                 / g.L ** 3)
        if n == 16:  # exhaustive over a full momentum line
            for ka in range(-half, half):
                for kb in range(-half, half):
                    q, p = (ka, 0, 0), (kb, 0, 0)
                    tgt = g.L ** 3 * np.eye(4) if q == p else np.zeros((4, 4))
                    worst_orth = max(worst_orth,
                                     np.abs(_gram(g, q, p, 1.0, mesh) - tgt).max()
                                     / g.L ** 3)
        ys = [(1, 3, 0)] if n == 16 else [(1, 3, 0), (5, 2, 7)]
        for m in masses:
            for iy in ys:
                worst_comp = max(worst_comp, _completeness_err(g, m, iy))
        X, Y, Z = mesh
        env = np.exp(-((X - 4) ** 2 + (Y - 4) ** 2 + (Z - 4) ** 2) / 2.0)
        for m in masses:
            f = fourier.SpinorField(g, env[..., None] * CHI, m)
            spec = fourier.forward(f)
            back = fourier.inverse(spec)
            if m > 0:
                worst_rt = max(worst_rt, np.abs(back.values - f.values).max()
                               / np.abs(f.values).max())
                worst_par = max(worst_par, abs(spec.norm2() - f.norm2())
                                / f.norm2())
            else:
                # compare on the zero-mode-free representative
                spec2 = fourier.forward(back)
                worst_rt = max(worst_rt,
                               np.abs(spec2.values - spec.values).max()
                               / np.abs(spec.values).max())
                worst_par = max(worst_par, abs(spec.norm2() - back.norm2())
                                / back.norm2())
    elapsed = time.monotonic() - t0
    ok = (worst_orth < 1e-9 and worst_comp < 1e-8 and worst_rt < 1e-9
          and worst_par < 1e-8 and elapsed < 60.0)
    report("criterion-05 fourier-unitarity", ok,
           f"orthogonality {worst_orth:.1e}, completeness {worst_comp:.1e}, "
           f"round trip {worst_rt:.1e}, parseval {worst_par:.1e}, "
           f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 6

def _fd_residual(n: int) -> float:
    g = fourier.CartesianGrid(n, 8.0)
    kvec, m = (1, 0, 0), 1.0
    p = 2 * np.pi * np.asarray(kvec) / g.L
    E = fourier.energy(p, m)
    v = fourier.plane_wave(g, kvec, m, CHI).values
    vG = fourier.plane_wave(g, kvec, m, G @ CHI).values
    dt = -E * vG
    slash = np.zeros_like(v)
    for j in range(3):
        dj = (np.roll(v, -1, axis=j) - np.roll(v, 1, axis=j)) / (2 * g.dx)
        slash += np.einsum('ab,xyzb->xyza', REP.generators[1 + j], dj)
    H = np.einsum('ab,xyzb->xyza', G, slash - m * v)
    return np.abs(H - dt).max()


def test_criterion_06_evolution():
    g = fourier.CartesianGrid(8, 8.0)
    rng = np.random.default_rng(6)
    spec = fourier.forward(
        fourier.SpinorField(g, rng.standard_normal((8, 8, 8, 4)), 1.0))
    mags0 = np.linalg.norm(spec.values, axis=-1)
    cur = spec
    for _ in range(1000):
        cur = fourier.evolve(cur, 0.01)
    mags = np.linalg.norm(cur.values, axis=-1)
    drift = np.abs(mags - mags0).max() / mags0.max()
    r16, r32 = _fd_residual(16), _fd_residual(32)
    ratio = r16 / r32
    ok = drift < 1e-12 and 3.7 <= ratio <= 4.3
    report("criterion-06 evolution", ok,
           f"per-mode norm drift {drift:.1e} over 1000 steps; "
           f"centered-difference residual ratio {ratio:.3f} (want 4.0 +- 0.3)")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_angular_basis():
    grid = spherical.AngularGrid(32, 64)
    th, ph = grid.theta[:, None], grid.phi[None, :]
    ylms = [(l, mm) for l in range(6) for mm in range(-l, l + 1)]
    Ys = np.stack([spherical.majorana_Y(l, mm, th, ph) for (l, mm) in ylms])
    Mo = np.einsum('ixyba,jxybc,xy->ijac', Ys, Ys, grid.weights, optimize=True)
    tgt = np.einsum('ij,ac->ijac', np.eye(len(ylms)), np.eye(4))
    worst_y = np.abs(Mo - tgt).max()

    modes = spherical.angular_modes(5)
    OM = np.stack([spherical.omega_matrix(l, mu, th, ph) for (l, mu) in modes])
    Mo = np.einsum('ixyba,jxybc,xy->ijac', OM, OM, grid.weights, optimize=True)
    tgt = np.einsum('ij,ac->ijac', np.eye(len(modes)), np.eye(4))
    worst_y = max(worst_y, np.abs(Mo - tgt).max())
    midx = {mode: i for i, mode in enumerate(modes)}
    sg = spherical.SIGMA
    sR = spherical.sigma_r(th, ph)
    gR = spherical.gamma_r(th, ph)
    ig5 = REP.gamma5
    s3 = sg[2]
    worst_om = 0.0
    for (l, mu) in modes:
        om = OM[midx[(l, mu)]]
        part = OM[midx[(l, -mu - 1)]]
        L3om = grid.angular_momentum_apply(om, 3)
        worst_om = max(worst_om,
                       np.abs(L3om + (s3 / 2) @ om - (mu + 0.5) * om).max())
        sLom = grid.sigma_dot_L(om)
        worst_om = max(worst_om, np.abs(sLom + om @ (l * s3 + np.eye(4))).max())
        worst_om = max(worst_om, np.abs(sR @ om + om @ sg[0]).max())
        worst_om = max(worst_om,
                       np.abs(gR @ om - (-1.0) ** mu * part @ ig5).max())
        grom = gR @ om
        worst_om = max(worst_om,
                       np.abs(grid.sigma_dot_L(grom)
                              - grom @ (l * s3 - np.eye(4))).max())
    ok = worst_y < 1e-9 and worst_om < 1e-6
    report("criterion-07 angular-basis", ok,
           f"Y/Omega orthonormality {worst_y:.1e} (l <= 5); "
           f"five channel relations {worst_om:.1e}")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_hankel_full_resolution():
    t0 = time.monotonic()
    g = hankel.SphericalGrid(256, 40.0, 32, 64, 5, 256)
    m = 1.0
    p0 = g.p[20]
    worst_eig = max(hankel.eigen_relation_residual(g, p0, mode, m)
                    for mode in [(1, 0), (3, -2)])

    lm = (3, -2)
    k0 = int(0.375 * g.np_points)
    bump = np.exp(-((g.p - g.p[k0]) / (12 * g.dp)) ** 2)
    co0 = np.zeros((g.np_points, len(g.modes), 4))
    co0[:, g.mode_index[lm]] = np.multiply.outer(bump, CHI)
    fld = hankel.inverse_hankel(hankel.HankelSpectrum(g, co0, m))
    co1 = hankel.forward_hankel(fld)
    mags = np.linalg.norm(co1.values, axis=2)
    off = mags.copy()
    off[:, g.mode_index[lm]] = 0.0
    leakage = off.max() / mags.max()

    env = np.exp(-((g.r - 10.0) / 2.0) ** 2)
    base = np.einsum('xyab,b->xya', g.omega((1, 0)), CHI)
    Psi = hankel.SphericalField(g, env[:, None, None, None] * base[None], m)
    Psi2 = hankel.inverse_hankel(hankel.forward_hankel(Psi))
    diff = hankel.SphericalField(g, Psi2.values - Psi.values, m)
    rt = np.sqrt(diff.norm2() / Psi.norm2())

    rng = np.random.default_rng(8)
    worst_ip = 0.0
    for _ in range(5):
        phi_env = np.exp(-((g.r - 10.0) / 5.0) ** 2)
        Phi = rng.standard_normal(Psi.values.shape) * phi_env[:, None, None, None]
        ip1 = np.einsum('rxya,rxya,r,xy->', Phi, Psi.values, g.wr,
                        g.angular.weights)
        ip2 = np.einsum('rxya,rxya,r,xy->', Phi, Psi2.values, g.wr,
                        g.angular.weights)
        worst_ip = max(worst_ip, abs(ip1 - ip2) / abs(ip1))
    elapsed = time.monotonic() - t0
    ok = (worst_eig < 1e-5 and leakage < 1e-6 and rt < 1e-4
          and worst_ip < 1e-6 and elapsed < 120.0)
    report("criterion-08 hankel-full-resolution", ok,
           f"eigen relation {worst_eig:.1e}, leakage {leakage:.1e}, "
           f"round trip {rt:.1e}, inner products {worst_ip:.1e}, "
           f"{elapsed:.1f}s")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_spacetime():
    rng = np.random.default_rng(9)
    g = fourier.CartesianGrid(8, 8.0)
    vals = rng.standard_normal((8, 8, 8, 8, 4))
    f4 = fourier.SpacetimeField(g, 4.0, vals, 1.0)
    back = fourier.spacetime_inverse(fourier.spacetime_forward(f4))
    rt = np.abs(back.values - vals).max() / np.abs(vals).max()

    nt, Lt = 32, 4.0
    ts = np.arange(nt) * (Lt / nt)
    ks = np.fft.fftfreq(nt, 1.0 / nt).astype(int)
    worst = 0.0
    for a in range(nt):
        Ra = fourier.rotor(2 * np.pi * ks[a] / Lt * ts)
        for b in range(nt):
            Rb = fourier.rotor(2 * np.pi * ks[b] / Lt * ts)
            M = np.einsum('tba,tbc->ac', Ra, Rb) * (Lt / nt)
            tgt = Lt * np.eye(4) if a == b else np.zeros((4, 4))
            worst = max(worst, np.abs(M - tgt).max())
    ok = rt < 1e-9 and worst < 1e-10
    report("criterion-09 spacetime", ok,
           f"4-d round trip {rt:.1e} on 8^4; time-frequency orthogonality "
           f"{worst:.1e} over all 32x32 pairs")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_particle_projections():
    rng = np.random.default_rng(10)
    g = fourier.CartesianGrid(8, 8.0)
    spec = fourier.MomentumSpectrum(g, rng.standard_normal((8, 8, 8, 4)), 1.0)
    dp = fourier.project_particle(spec, +1)
    dm = fourier.project_particle(spec, -1)
    worst_proj = max(
        np.abs(dp.re + dm.re - spec.values).max(),
        np.abs(dp.im + dm.im).max(),
        np.abs(dp.project(+1).re - dp.re).max(),
        np.abs(dp.project(+1).im - dp.im).max(),
        np.abs(dp.project(-1).re).max(),
        np.abs(dp.project(-1).im).max(),
    )
    sp = np.zeros((8, 8, 8, 4))
    sp[g.k_index((1, 2, -1))] = CHI
    single = fourier.MomentumSpectrum(g, sp, 1.0)
    worst_phase = 0.0
    for sign in (+1, -1):
        d = fourier.project_particle(single, sign)
        for t in (0.3, 1.7):
            ev, phz = d.evolve(t), d.phase_evolve(t)
            worst_phase = max(worst_phase, np.abs(ev.re - phz.re).max(),
                              np.abs(ev.im - phz.im).max())
    ok = worst_proj < 1e-14 and worst_phase < 1e-10
    report("criterion-10 particle-projections", ok,
           f"projector algebra {worst_proj:.1e}; scalar-phase evolution "
           f"match {worst_phase:.1e}")
