"""Runnable verification suites for all library invariants.

Each check computes a single scalar *measured* deviation and compares it to a
tolerance; a report aggregates (test id, anchor identity, measured,
tolerance, pass).  Anchors state the mathematical identity under test.
Resolutions are taken from :class:`VerifySettings`; per-test tolerance
overrides let a harness force failure paths.

All randomness is seeded, and every quadrature/summation has a fixed order,
so repeated runs produce identical reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from math import pi

import numpy as np

from . import clifford, fourier, hankel, lorentz, spherical

__all__ = ["CHECK_IDS", "CheckResult", "VerifyReport", "VerifySettings", "run_suite"]

# every check run_suite reports, in its order; a tolerance override must name one
CHECK_IDS = (
    "clifford.anticommutators", "clifford.traces", "clifford.determinants", "clifford.gram",
    "clifford.symmetry-split", "clifford.group-closure",
    "lorentz.homomorphism", "lorentz.metric", "lorentz.double-cover", "lorentz.coset-table",
    "lorentz.polar", "lorentz.intertwiner", "lorentz.commutant", "lorentz.commutant-rotations",
    "fourier.orthogonality", "fourier.completeness", "fourier.roundtrip", "fourier.parseval",
    "fourier.single-mode", "fourier.massless", "fourier.evolve-norm", "fourier.projection",
    "fourier.electron-phase", "fourier.spacetime-roundtrip", "fourier.time-orthogonality",
    "angular.legendre", "angular.Y-orthonormality", "angular.Y-dphi", "angular.spin-algebra",
    "angular.L3-eigen", "angular.L2-eigen", "angular.omega-orthonormality",
    "angular.omega-relations",
    "hankel.bessel-ode", "hankel.eigen-relation", "hankel.single-mode-leakage",
    "hankel.roundtrip", "hankel.inner-products", "hankel.massless-roundtrip",
    "hankel.evolve-norm", "hankel.spacetime-roundtrip",
)


@dataclass
class CheckResult:
    test_id: str
    anchor: str
    measured: float
    tolerance: float
    passed: bool


@dataclass
class VerifyReport:
    checks: list
    passed: bool

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "n_checks": len(self.checks),
                "checks": [asdict(c) for c in self.checks]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass
class VerifySettings:
    """Resolutions and overrides for the verification run."""
    mass: float = 1.0
    n: int = 16
    L: float = 8.0
    nr: int = 256
    rmax: float = 40.0
    ntheta: int = 32
    nphi: int = 64
    lmax: int = 5
    np_points: int = 256
    seed: int = 1234
    tolerances: dict = field(default_factory=dict)


def run_suite(settings: VerifySettings | None = None, progress=None) -> VerifyReport:
    """Run every suite and return the aggregated report.

    ``progress``, if given, is called with each CheckResult as it lands.
    """
    st = settings or VerifySettings()
    rng = np.random.default_rng(st.seed)
    checks: list[CheckResult] = []

    def add(test_id: str, anchor: str, measured: float, tol: float):
        tol = float(st.tolerances.get(test_id, tol))
        res = CheckResult(test_id, anchor, float(measured), tol,
                          bool(measured <= tol))
        checks.append(res)
        if progress:
            progress(res)

    _clifford_suite(add)
    _lorentz_suite(add, rng)
    _fourier_suite(add, st, rng)
    _angular_suite(add, st, rng)
    _hankel_suite(add, st, rng)
    return VerifyReport(checks, all(c.passed for c in checks))


# ---------------------------------------------------------------- clifford

def _clifford_suite(add):
    rep = clifford.build_canonical_rep()
    gs = rep.generators

    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            tgt = -2.0 * clifford.MINKOWSKI[mu, nu] * np.eye(4)
            worst = max(worst, np.abs(clifford.anticommutator(gs[mu], gs[nu]) - tgt).max())
    add("clifford.anticommutators", "{ig_mu, ig_nu} = -2 g_mu_nu I (exact)", worst, 0.0)

    add("clifford.traces", "tr A = 0 for the 15 nontrivial basis elements",
        max(abs(np.trace(A)) for A in rep.gamma_basis[1:]), 1e-12)
    add("clifford.determinants", "det A = 1 for every basis element",
        max(abs(np.linalg.det(A) - 1.0) for A in rep.gamma_basis), 1e-12)

    gram = clifford.verify_basis_independence(rep).gram
    add("clifford.gram", "tr(A_i^T A_j) = 4 delta_ij over the 16-element basis",
        np.abs(gram - 4.0 * np.eye(16)).max(), 1e-12)

    nsym = sum(1 for A in rep.gamma_basis if np.array_equal(A, A.T))
    add("clifford.symmetry-split", "basis splits 10 symmetric + 6 antisymmetric",
        abs(nsym - 10) + abs((16 - nsym) - 6), 0.0)

    g2 = np.asarray(rep.gamma2_group)
    P = (g2[::3, None] @ g2[None, ::5])[:, :, None]   # products against all 32 elements
    worst = np.abs(P - g2).max(axis=(-2, -1)).min(axis=-1).max()
    add("clifford.group-closure", "Gamma2 (32 signed elements) closed under product",
        worst, 1e-12)


# ----------------------------------------------------------------- lorentz

def _rand_spin(rng) -> lorentz.PinElement:
    S = lorentz.rotation(rng.normal(size=3) * 0.8)
    for _ in range(int(rng.integers(0, 3))):
        if rng.random() < 0.5:
            S = S @ lorentz.boost(rng.normal(size=3) * 0.5)
        else:
            S = S @ lorentz.rotation(rng.normal(size=3) * 0.8)
    return S


def _lorentz_suite(add, rng):
    # NotPinError on a drawn element (round-off) -> NaN, which np.maximum keeps
    def lambda_or_nan(S):
        try:
            return lorentz.lambda_of(S)
        except lorentz.NotPinError:
            return np.full((4, 4), np.nan)

    g = clifford.MINKOWSKI
    worst_h = worst_g = 0.0
    for _ in range(50):
        S1, S2 = _rand_spin(rng), _rand_spin(rng)
        La, Lb, Lab = (lambda_or_nan(S) for S in (S1, S2, S1 @ S2))
        worst_h = np.maximum(worst_h, np.abs(Lab - La @ Lb).max())
        worst_g = np.maximum(worst_g, np.abs(La.T @ g @ La - g).max())
    add("lorentz.homomorphism", "Lambda(S S') = Lambda(S) Lambda(S')", worst_h, 1e-9)
    add("lorentz.metric", "Lambda^T g Lambda = g", worst_g, 1e-9)

    worst = 0.0
    for _ in range(10):
        S = _rand_spin(rng).matrix
        worst = np.maximum(worst, np.abs(lambda_or_nan(-S) - lambda_or_nan(S)).max())
    add("lorentz.double-cover", "Lambda(-S) = Lambda(S)", worst, 1e-12)

    rep = clifford.CANONICAL
    cosets = [(np.eye(4), (1, 1)), (rep.gamma5, (1, -1)),
              (rep.gamma0, (-1, 1)), (-(rep.gamma0 @ rep.gamma5), (-1, -1))]
    bad = 0
    for _ in range(10):
        S = _rand_spin(rng).matrix
        for d, expect in cosets:
            try:
                bad += lorentz.pin_flags(d @ S) != expect
            except lorentz.NotPinError:
                bad = np.nan
    add("lorentz.coset-table", "pin flags: 1->( +,+) ig5->(+,-) ig0->(-,+) g0g5->(-,-)",
        bad, 0.0)

    worst = 0.0
    for _ in range(25):
        bv = rng.normal(size=3) * 0.7
        tv = rng.normal(size=3) * 0.6
        S = (lorentz.rotation(tv) @ lorentz.boost(bv)).matrix
        try:
            pd = lorentz.polar_decompose(S)
            rec = (lorentz.rotation(pd.theta) @ lorentz.boost(pd.b)).matrix
            worst = np.maximum(worst, max(np.abs(rec - S).max(), np.abs(pd.b - bv).max()))
        except lorentz.NotPinError:
            worst = np.nan
    add("lorentz.polar", "S = rotation(theta) boost(b) recovered by polar splitting",
        worst, 1e-9)

    worst_r = worst_d = 0.0
    for _ in range(20):
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        rep_b = clifford.rep_from_generators(*(Q @ M @ Q.T for M in rep.generators))
        S = clifford.intertwiner(rep, rep_b)
        res = max(np.abs(S @ A - B @ S).max()
                  for A, B in zip(rep.gamma2_group, rep_b.gamma2_group))
        worst_r = max(worst_r, res)
        worst_d = max(worst_d, abs(abs(np.linalg.det(S)) - 1.0))
    add("lorentz.intertwiner", "group-averaged S: S A(g) = B(g) S, |det S| = 1",
        max(worst_r, worst_d), 1e-9)

    dim = lorentz.commutant_check(generators="all", basis="symmetric").dimension
    add("lorentz.commutant", "symmetric-span commutant of all six generators has dim 1",
        abs(dim - 1), 0.0)
    dimr = lorentz.commutant_check(generators="rotations", basis="full").dimension
    add("lorentz.commutant-rotations", "rotations-only commutant over full basis has dim 4",
        abs(dimr - 4), 0.0)


# ----------------------------------------------------------------- fourier

def _gauss_field(grid: fourier.CartesianGrid, m: float, rng,
                 width=None) -> fourier.SpinorField:
    w = width or grid.L / 10.0
    c = grid.L / 2.0
    X, Y, Z = np.meshgrid(grid.xs, grid.xs, grid.xs, indexing='ij')
    env = (np.exp(-((X - c) ** 2 + (Y - c) ** 2 + (Z - c) ** 2) / (2 * w ** 2))
           + 0.4 * np.exp(-((X - c - 0.6) ** 2 + (Y - c + 0.3) ** 2 + (Z - c) ** 2)
                          / (2 * w ** 2)))
    chi = rng.standard_normal(4)
    return fourier.SpinorField(grid, env[..., None] * chi, m)


def _fourier_suite(add, st, rng):
    m = st.mass
    g = fourier.CartesianGrid(st.n, st.L)
    half = st.n // 2

    # kernel orthogonality: direct lattice sums over sampled (q,p) pairs, with
    # the amplitude read pointwise as A(p) = O(p, 0)
    X, Y, Z = np.meshgrid(g.xs, g.xs, g.xs, indexing='ij')
    x0 = np.zeros(3)

    def phase(kv):
        p = 2 * pi * np.asarray(kv, dtype=float) / g.L
        return p[0] * X + p[1] * Y + p[2] * Z

    pairs = [((1, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 0, 0)),
             ((-half, 2, 0), (-half, 2, 0)), ((-half, 2, 0), (half - 1, 2, 0))]
    while len(pairs) < 20:
        q = tuple(int(v) for v in rng.integers(-half, half, 3))
        p = tuple(int(v) for v in rng.integers(-half, half, 3))
        if m == 0.0 and (q == (0, 0, 0) or p == (0, 0, 0)):
            continue
        pairs.append((q, p))
    worst = 0.0
    for q, p in pairs:
        if m == 0.0 and (q == (0, 0, 0) or p == (0, 0, 0)):
            continue
        W = g.kernel(q, m, x0) @ g.kernel(p, m, x0)
        Rq = fourier.rotor(-phase(q))
        Rp = fourier.rotor(phase(p))
        T = np.einsum('xyzab,bc,xyzcd->ad', Rq, W, Rp, optimize=True) * g.dx ** 3
        tgt = (g.L ** 3) * np.eye(4) if q == p else np.zeros((4, 4))
        worst = max(worst, np.abs(T - tgt).max() / g.L ** 3)
    add("fourier.orthogonality",
        "sum_x O(q,x) O^T(p,x) dx^3 = L^3 delta_qp I (Nyquist-adjusted kernel)",
        worst, 1e-9)

    # completeness at n = 8 regardless of configured n (cost control); the
    # identity needs every mode present, so test it at a massive kernel
    g8 = fourier.CartesianGrid(8, st.L)
    mc = m if m > 0 else 1.0
    A8 = np.array([g8.kernel(k, mc, x0) for k in g8.kvecs.reshape(-1, 3)])
    P8 = g8.P.reshape(-1, 3)
    # A rotor(phi) A = cos(phi) A A + sin(phi) A ig0 A: two matmuls over all p
    AA = (A8 @ A8).reshape(-1, 16)
    AGA = (A8 @ clifford.IG[0] @ A8).reshape(-1, 16)
    X8 = np.stack(np.meshgrid(g8.xs, g8.xs, g8.xs, indexing='ij'), -1).reshape(-1, 3)
    worst = 0.0
    for _ in range(2):
        iy = tuple(int(v) for v in rng.integers(0, 8, 3))
        y = np.array([g8.xs[iy[0]], g8.xs[iy[1]], g8.xs[iy[2]]])
        ph = (y - X8) @ P8.T
        acc = (np.cos(ph) @ AA + np.sin(ph) @ AGA).reshape(8, 8, 8, 4, 4)
        acc *= g8.dx ** 3 / g8.L ** 3
        tgt = np.zeros_like(acc)
        tgt[iy] = np.eye(4)
        worst = max(worst, np.abs(acc - tgt).max())
    add("fourier.completeness",
        "(1/L^3) sum_p O^T(p,y) O(p,x) = delta_yx/dx^3 I on n = 8",
        worst, 1e-8)

    f = _gauss_field(g, m, rng)
    ps = fourier.forward(f)
    if m > 0:
        f2 = fourier.inverse(ps)
        rt = np.abs(f2.values - f.values).max() / np.abs(f.values).max()
        anchor = "inverse(forward(Psi)) = Psi, Gaussian packet"
        pval = abs(ps.norm2() - f.norm2()) / f.norm2()
    else:
        ps2 = fourier.forward(fourier.inverse(ps))
        rt = np.abs(ps2.values - ps.values).max() / np.abs(ps.values).max()
        anchor = "forward o inverse spectrum fixed point (massless, p=0 dropped)"
        fz = fourier.inverse(ps)   # zero-mode-free representative
        pval = abs(ps.norm2() - fz.norm2()) / fz.norm2()
    add("fourier.roundtrip", anchor, rt, 1e-9)
    add("fourier.parseval", "sum_p |psi|^2 / L^3 = sum_x |Psi|^2 dx^3", pval, 1e-8)

    chi = rng.standard_normal(4)
    sp0 = np.zeros((st.n, st.n, st.n, 4))
    k0 = (1, max(-half + 1, -2), 1)
    sp0[g.k_index(k0)] = chi
    spec0 = fourier.MomentumSpectrum(g, sp0, m)
    back = fourier.forward(fourier.inverse(spec0))
    d = back.values - sp0
    add("fourier.single-mode", "single-mode spectrum reproduced exactly by round trip",
        np.abs(d).max() / np.abs(chi).max(), 1e-10)

    fr = fourier.SpinorField(g8, rng.standard_normal((8, 8, 8, 4)), 0.0)
    s1 = fourier.forward(fr)
    s2 = fourier.forward(fourier.inverse(s1))
    flag_ok = 0.0 if s1.zero_mode_dropped else 1.0
    add("fourier.massless", "m = 0: p = 0 mode dropped and flagged; spectrum fixed point",
        max(np.abs(s2.values - s1.values).max() / np.abs(s1.values).max(), flag_ok),
        1e-9)

    n0 = ps.norm2()
    cur = ps
    for _ in range(100):
        cur = fourier.evolve(cur, 0.05)
    add("fourier.evolve-norm", "spectrum norm conserved under 100 rotor steps",
        abs(cur.norm2() - n0) / n0, 1e-12)

    sp = fourier.MomentumSpectrum(g, rng.standard_normal((st.n, st.n, st.n, 4)), max(m, 1.0))
    dplus = fourier.project_particle(sp, +1)
    dminus = fourier.project_particle(sp, -1)
    didem = dplus.project(+1)
    worst = max(np.abs(dplus.re + dminus.re - sp.values).max(),
                np.abs(dplus.im + dminus.im).max(),
                np.abs(didem.re - dplus.re).max(),
                np.abs(didem.im - dplus.im).max())
    add("fourier.projection", "(1 +- g0)/2: idempotent, complementary", worst, 1e-14)

    one = np.zeros_like(sp.values)
    one[g.k_index(k0)] = chi
    dproj = fourier.project_particle(fourier.MomentumSpectrum(g, one, max(m, 1.0)), +1)
    ev_r = dproj.evolve(0.7)
    ev_p = dproj.phase_evolve(0.7)
    add("fourier.electron-phase",
        "on the (1+g0)/2 subspace the rotor acts as the scalar phase e^{-iEt}",
        max(np.abs(ev_r.re - ev_p.re).max(), np.abs(ev_r.im - ev_p.im).max()), 1e-10)

    gst = fourier.CartesianGrid(6, 6.0)
    nt, Lt = 6, 6.0
    Xs, Ys, Zs = np.meshgrid(gst.xs, gst.xs, gst.xs, indexing='ij')
    tg = np.arange(nt) * (Lt / nt)
    env = np.exp(-((Xs - 3) ** 2 + (Ys - 3) ** 2 + (Zs - 3) ** 2) / (2 * 0.7 ** 2))
    tenv = np.exp(-((tg - 3.0) ** 2) / (2 * 0.9 ** 2))
    vals4 = tenv[:, None, None, None, None] * env[None, ..., None] * chi
    f4 = fourier.SpacetimeField(gst, Lt, vals4, max(m, 1.0))
    f4b = fourier.spacetime_inverse(fourier.spacetime_forward(f4))
    add("fourier.spacetime-roundtrip", "4D forward/inverse identity",
        np.abs(f4b.values - f4.values).max() / np.abs(f4.values).max(), 1e-9)

    nt2, Lt2 = 32, 10.0
    ts = np.arange(nt2) * (Lt2 / nt2)
    k0s = np.fft.fftfreq(nt2, 1.0 / nt2).astype(int)
    worst = 0.0
    for a in range(0, nt2, 5):
        for b in range(0, nt2, 7):
            Ra = fourier.rotor(2 * pi * k0s[a] / Lt2 * ts)
            Rb = fourier.rotor(2 * pi * k0s[b] / Lt2 * ts)
            M = np.einsum('tba,tbc->ac', Ra, Rb) * (Lt2 / nt2)
            tgt = Lt2 * np.eye(4) if a == b else np.zeros((4, 4))
            worst = max(worst, np.abs(M - tgt).max() / Lt2)
    add("fourier.time-orthogonality",
        "sum_t rotor(q0 t)^T rotor(p0 t) dt = Lt delta I on a 32-point time grid",
        worst, 1e-10)


# ----------------------------------------------------------------- angular

def _angular_suite(add, st, rng):
    grid = spherical.AngularGrid(st.ntheta, st.nphi)
    xs = rng.uniform(-1, 1, 64)
    s = np.sqrt(1 - xs ** 2)
    forms = [
        (0, 0, np.ones_like(xs)), (1, 0, xs), (1, 1, -s), (1, -1, s / 2),
        (2, 1, -3 * xs * s), (2, 2, 3 * (1 - xs ** 2)), (2, -2, (1 - xs ** 2) / 8),
        (3, 2, 15 * xs * (1 - xs ** 2)),
    ]
    worst = max(np.abs(spherical.assoc_legendre(l, mm, xs) - ref).max()
                for l, mm, ref in forms)
    add("angular.legendre", "recurrence matches the closed forms through l = 3",
        worst, 1e-12)

    lY = min(st.lmax, 5)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    Ys = np.stack([spherical.majorana_Y(l, mm, th, ph)
                   for l in range(lY + 1) for mm in range(-l, l + 1)])
    Mo = np.einsum('ixyba,jxybc,xy->ijac', Ys, Ys, grid.weights, optimize=True)
    tgt = np.einsum('ij,ac->ijac', np.eye(Ys.shape[0]), np.eye(4))
    add("angular.Y-orthonormality",
        f"quadrature of Y^T Y = delta delta I through l = {lY}",
        np.abs(Mo - tgt).max(), 1e-9)

    G = clifford.IG[0]
    worst = 0.0
    for (l, mm) in [(1, 1), (2, -1), (3, 2), (lY, lY - 1)]:
        Yf = spherical.majorana_Y(l, mm, th, ph)
        worst = max(worst, np.abs(grid.dphi(Yf) - mm * (G @ Yf)).max())
    add("angular.Y-dphi", "d/dphi Y_lm = m ig0 Y_lm", worst, 1e-8)

    sg = spherical.SIGMA
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
    worst = 0.0
    for i in range(3):
        for j in range(3):
            lhs = (sg[i] / 2) @ (sg[j] / 2) - (sg[j] / 2) @ (sg[i] / 2)
            rhs = sum(eps[i, j, k] * G @ (sg[k] / 2) for k in range(3))
            worst = max(worst, np.abs(lhs - rhs).max())
    worst = max(worst, np.abs(sg[2] @ sg[2] - np.eye(4)).max())
    add("angular.spin-algebra",
        "[sigma_i/2, sigma_j/2] = ig0 eps_ijk sigma_k/2; (sigma3)^2 = I",
        worst, 1e-14)

    chi = rng.standard_normal(4)
    worst3 = worst2 = 0.0
    for (l, mm) in [(1, 0), (2, 1), (3, -2), (lY, lY)]:
        F = spherical.majorana_Y(l, mm, th, ph) @ chi
        L3F = grid.angular_momentum_apply(F, 3)
        worst3 = max(worst3, np.abs(L3F - mm * F).max())
        L2F = sum(grid.angular_momentum_apply(grid.angular_momentum_apply(F, k), k)
                  for k in (1, 2, 3))
        worst2 = max(worst2, np.abs(L2F - l * (l + 1) * F).max())
    add("angular.L3-eigen", "L3 Y_lm = m Y_lm", worst3, 1e-7)
    add("angular.L2-eigen", "L^2 Y_lm = l(l+1) Y_lm", worst2, 1e-7)

    modes = spherical.angular_modes(min(st.lmax, 5))
    OM = np.stack([spherical.omega_matrix(l, mu, th, ph) for (l, mu) in modes])
    Mo = np.einsum('ixyba,jxybc,xy->ijac', OM, OM, grid.weights, optimize=True)
    tgt = np.einsum('ij,ac->ijac', np.eye(len(modes)), np.eye(4))
    add("angular.omega-orthonormality",
        "quadrature of Omega^T Omega = delta delta I", np.abs(Mo - tgt).max(), 1e-9)

    midx = {mode: i for i, mode in enumerate(modes)}
    sR = spherical.sigma_r(th, ph)
    gR = spherical.gamma_r(th, ph)
    ig5 = clifford.IG5
    s3 = sg[2]
    worst = 0.0
    for (l, mu) in modes:
        om = OM[midx[(l, mu)]]
        part = OM[midx[(l, -mu - 1)]]
        # (L3 + sigma3/2) Omega = (mu + 1/2) Omega
        L3om = grid.angular_momentum_apply(om, 3)
        worst = max(worst, np.abs(L3om + (s3 / 2) @ om - (mu + 0.5) * om).max())
        # sigma.L Omega = -Omega (l sigma3 + 1)
        sLom = grid.sigma_dot_L(om)
        worst = max(worst, np.abs(sLom + om @ (l * s3 + np.eye(4))).max())
        # sigma^r Omega = -Omega sigma^1
        worst = max(worst, np.abs(sR @ om + om @ sg[0]).max())
        # ig^r Omega = (-1)^mu Omega_{l,-mu-1} ig5
        worst = max(worst, np.abs(gR @ om - (-1.0) ** mu * part @ ig5).max())
        # sigma.L (ig^r Omega) = ig^r Omega (l sigma3 - 1)
        grom = gR @ om
        sLg = grid.sigma_dot_L(grom)
        worst = max(worst, np.abs(sLg - grom @ (l * s3 - np.eye(4))).max())
    add("angular.omega-relations",
        "five Omega identities: (mu+1/2) eigenvalue, sigma.L, sigma^r, ig^r, sigma.L ig^r",
        worst, 1e-6)


# ------------------------------------------------------------------ hankel

_D2_6 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def _hankel_suite(add, st, rng):
    m = st.mass
    g = hankel.SphericalGrid(st.nr, st.rmax, st.ntheta, st.nphi,
                             st.lmax, st.np_points)

    # spherical Bessel radial ODE, 6th-order stencils
    kp = max(0, min(g.np_points - 1, int(round(0.5 / g.dp - 0.5))))
    p0 = g.p[kp]
    worst = 0.0
    for l in range(min(st.lmax, 5) + 1):
        j = g.jt[l][kp]
        d1 = hankel._dr6(j, g.dr)
        d2 = np.zeros_like(j)
        for k, cx in enumerate(_D2_6):
            d2[3:-3] += cx * j[3 + k - 3:len(j) - 3 + k - 3]
        d2 /= g.dr ** 2
        r = g.r
        resid = (d2 + 2 / r * d1 - l * (l + 1) / r ** 2 * j + p0 ** 2 * j)[3:-3]
        worst = max(worst, np.abs(resid).max() / (p0 ** 2 * np.abs(j).max()))
    add("hankel.bessel-ode",
        "(d_rr + 2/r d_r - l(l+1)/r^2 + p^2) j_l(pr) = 0", worst, 1e-6)

    # pick a momentum the 6th-order radial stencil resolves: error ~ (p dr)^6
    pt = min(1.6, 0.25 / g.dr)
    ke = max(0, min(g.np_points - 1, int(round(pt / g.dp - 0.5))))
    pe = g.p[ke]
    emodes = [(1, 0)] + ([(3, -2)] if st.lmax >= 3 else [])
    # np.max, not max: a NaN residual in any mode must reach the report
    worst = np.max([hankel.eigen_relation_residual(g, pe, mode, m) for mode in emodes])
    add("hankel.eigen-relation",
        "ig0 (m - i dslash) Lambda = E_p Lambda ig0 (interior radial range)",
        worst, 1e-5)

    chi = rng.standard_normal(4)
    lm = (3, -2) if st.lmax >= 3 else (1, 0)
    k0 = int(0.375 * g.np_points)
    # window width scales with the grid so the bump stays contained
    wk = g.np_points / 21.0
    bump = np.exp(-((g.p - g.p[k0]) / (wk * g.dp)) ** 2)
    co0 = np.zeros((g.np_points, len(g.modes), 4))
    co0[:, g.mode_index[lm]] = np.multiply.outer(bump, chi)
    co1 = hankel.forward_hankel(hankel.inverse_hankel(hankel.HankelSpectrum(g, co0, m)))
    mags = np.linalg.norm(co1.values, axis=2)
    peak = mags.max()
    off = mags.copy()
    off[:, g.mode_index[lm]] = 0.0
    add("hankel.single-mode-leakage",
        "windowed single-channel spectrum: cross-channel leakage", off.max() / peak, 1e-6)

    gsr = np.exp(-((g.r - st.rmax / 4) / (st.rmax / 20)) ** 2)
    base = np.einsum('xyab,b->xya', g.omega((1, 0)), chi)
    Psi = hankel.SphericalField(g, gsr[:, None, None, None] * base[None], m)
    co = hankel.forward_hankel(Psi)
    Psi2 = hankel.inverse_hankel(co)
    add("hankel.roundtrip", "inverse(forward(Psi)) = Psi in relative L2 norm",
        np.sqrt(hankel.SphericalField(g, Psi2.values - Psi.values, m).norm2()
                / Psi.norm2()), 1e-4)

    # <Phi, Psi> with weights env wr w_ang: one product of each draw with both weighted fields
    env = np.exp(-((g.r - st.rmax / 4) / (st.rmax / 8)) ** 2) * g.wr
    ab = np.stack([Psi.values, Psi2.values])
    del Psi2
    ab *= env[:, None, None, None] * g.angular.weights[..., None]
    Phi = np.empty(Psi.values.shape)
    worst = 0.0
    for _ in range(5):
        ip1, ip2 = ab.reshape(2, -1) @ rng.standard_normal(out=Phi).reshape(-1)
        worst = max(worst, abs(ip1 - ip2) / abs(ip1))
    del ab, Phi
    add("hankel.inner-products", "<Phi, round-trip Psi> = <Phi, Psi> for random Phi",
        worst, 1e-6)

    co_m0 = hankel.forward_hankel(hankel.SphericalField(g, Psi.values, 0.0))
    add("hankel.massless-roundtrip", "m = 0 transforms invert (E = p, nodes > 0)",
        np.sqrt(hankel.SphericalField(g, hankel.inverse_hankel(co_m0).values - Psi.values, 0.0)
                .norm2() / Psi.norm2()), 1e-4)

    n0 = co.norm2()
    cur = co
    for _ in range(100):
        cur = hankel.evolve_hankel(cur, 0.05)
    add("hankel.evolve-norm", "mode norm conserved under 100 rotor steps",
        abs(cur.norm2() - n0) / n0, 1e-12)

    gs = hankel.SphericalGrid(48, 16.0, 12, 24, 2, 48)
    gsr2 = np.exp(-((gs.r - 5.0) / 1.2) ** 2)
    base2 = np.einsum('xyab,b->xya', gs.omega((1, 0)), chi)
    nt, Lt = 8, 4.0
    tenv = np.exp(-((np.arange(nt) * (Lt / nt) - 2.0) ** 2) / (2 * 0.5 ** 2))
    vals = tenv[:, None, None, None, None] * (gsr2[:, None, None, None] * base2[None])[None]
    f4 = hankel.SpacetimeSphericalField(gs, Lt, vals, max(m, 1.0))
    f4b = hankel.spacetime_hankel_inverse(hankel.spacetime_hankel_forward(f4))
    add("hankel.spacetime-roundtrip",
        "time rotor o spatial transform inverts on a time-stacked field",
        np.sqrt(((f4b.values - f4.values) ** 2).sum() / (f4.values ** 2).sum()), 1e-4)
