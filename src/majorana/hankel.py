"""Radial (Hankel-type) transforms of Majorana spinor fields.

The kernel for angular mode (l, mu) at radial momentum p is

    Lambda = (p j_l(pr) + (E-m) j_{l-1}(pr) ig^r) Omega_{l,mu} (1+sigma3)/2
           + (p j_{l-1}(pr) - (E-m) j_l(pr) ig^r) Omega_{l,mu} (1-sigma3)/2

which solves the free Dirac system per mode: ig0 (m - i dslash) Lambda
= E_p Lambda ig0 with i dslash = ig^r (d_r - sigma.L / r).

Forward transform: psi(p,l,mu) = integral r^2 dr dcos(theta) dphi
Lambda^T Psi; inverse weight dp (E+m)/(E pi) per momentum node.  The
identity ig^r Omega_{l,mu} = (-1)^mu Omega_{l,-mu-1} ig5 turns the ig^r
terms into couplings with the partner mode (l, -mu-1), so both directions
factorize into an angular projection followed by radial quadratures — the
full (grid x grid) kernel is never built.

Discretization: midpoint radial nodes r_i = (i+1/2) dr on (0, rmax) and
midpoint momentum nodes on (0, pmax) with pmax = pi nr / rmax; both stay
strictly away from 0 where the kernel degenerates.  Delta normalization:
delta(p - p') maps to delta_kk' / dp.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from math import pi

import numpy as np

from .clifford import build_canonical_rep
from .fourier import rotate, time_rotor_forward, time_rotor_inverse
from .spherical import (AngularGrid, SIGMA, angular_modes, gamma_r,
                        omega_matrix, sph_jn_table)

__all__ = [
    "AngularMode",
    "SphericalGrid",
    "SphericalField",
    "HankelSpectrum",
    "hankel_kernel",
    "kernel_on_grid",
    "forward_hankel",
    "inverse_hankel",
    "evolve_hankel",
    "dirac_apply",
    "eigen_relation_residual",
    "SpacetimeSphericalField",
    "SpacetimeHankelSpectrum",
    "spacetime_hankel_forward",
    "spacetime_hankel_inverse",
]

_REP = build_canonical_rep()
_G = _REP.generators[0]
_IG5 = _REP.gamma5
_I4 = np.eye(4)
_PP = (_I4 + SIGMA[2]) / 2.0
_PM = (_I4 - SIGMA[2]) / 2.0


@dataclass(frozen=True)
class AngularMode:
    """Total-angular-momentum channel label: l >= 1, -l <= mu <= l-1."""
    l: int
    mu: int

    def __post_init__(self):
        if (not all(isinstance(v, (int, np.integer)) for v in (self.l, self.mu))
                or self.l < 1 or not (-self.l <= self.mu <= self.l - 1)):
            raise ValueError("need integers l >= 1 and -l <= mu <= l-1")

    def __iter__(self):
        return iter((self.l, self.mu))

    @property
    def partner(self) -> "AngularMode":
        """The mode (l, -mu-1) coupled through ig^r."""
        return AngularMode(self.l, -self.mu - 1)


class SphericalGrid:
    """Product grid (radial midpoint) x (Gauss-Legendre sphere) with its
    radial-momentum lattice and cached mode/Bessel tables.

    Parameters: nr radial points on (0, rmax); ntheta/nphi angular points;
    lmax highest angular momentum (modes (l,mu), 1 <= l <= lmax); np_points
    momentum nodes on (0, pi nr/rmax).
    """

    def __init__(self, nr: int, rmax: float, ntheta: int, nphi: int,
                 lmax: int, np_points: int):
        if nr < 8 or lmax < 1 or np_points < 2:
            raise ValueError("need nr >= 8, lmax >= 1, np_points >= 2")
        if not (rmax > 0):
            raise ValueError("rmax must be positive")
        self.nr, self.rmax, self.lmax = int(nr), float(rmax), int(lmax)
        self.np_points = int(np_points)
        self.dr = self.rmax / self.nr
        self.r = (np.arange(self.nr) + 0.5) * self.dr
        self.wr = self.r ** 2 * self.dr
        self.pmax = pi * self.nr / self.rmax
        self.dp = self.pmax / self.np_points
        self.p = (np.arange(self.np_points) + 0.5) * self.dp
        self.angular = AngularGrid(ntheta, nphi)
        self.modes = angular_modes(lmax)
        self.mode_index = {m: i for i, m in enumerate(self.modes)}
        self._omegas = None
        self._jt = None

    def energies(self, m: float) -> np.ndarray:
        return np.sqrt(self.p ** 2 + m * m)

    @property
    def omegas(self) -> np.ndarray:
        """Omega_{l,mu} sampled on the angular grid: (nmodes, ntheta, nphi, 4, 4)."""
        if self._omegas is None:
            th = self.angular.theta[:, None]
            ph = self.angular.phi[None, :]
            self._omegas = np.stack([omega_matrix(l, mu, th, ph)
                                     for (l, mu) in self.modes])
        return self._omegas

    @property
    def jt(self) -> np.ndarray:
        """Bessel table j_l(p_k r_i): shape (lmax+1, np_points, nr)."""
        if self._jt is None:
            self._jt = sph_jn_table(self.lmax, np.multiply.outer(self.p, self.r))
        return self._jt


@dataclass
class SphericalField:
    """Spinor samples on a SphericalGrid; values shape (nr, ntheta, nphi, 4)."""
    grid: SphericalGrid
    values: np.ndarray
    mass: float

    def norm2(self) -> float:
        g = self.grid
        return float(np.einsum('rxya,rxya,r,xy->', self.values, self.values,
                               g.wr, g.angular.weights))

    def tail_fraction(self, shells: int = 8) -> float:
        """Norm2 fraction carried by the outermost radial shells."""
        g = self.grid
        v = self.values[-shells:]
        tail = float(np.einsum('rxya,rxya,r,xy->', v, v, g.wr[-shells:],
                               g.angular.weights))
        total = self.norm2()
        return tail / total if total > 0 else 0.0


@dataclass
class HankelSpectrum:
    """Mode amplitudes psi(p_k, l, mu); values shape (np_points, nmodes, 4)."""
    grid: SphericalGrid
    values: np.ndarray
    mass: float

    def p_weights(self) -> np.ndarray:
        """Inverse-transform momentum weights dp (E+m)/(E pi)."""
        E = self.grid.energies(self.mass)
        return self.grid.dp * (E + self.mass) / (E * pi)

    def norm2(self) -> float:
        return float(np.einsum('pma,pma,p->', self.values, self.values,
                               self.p_weights()))


def hankel_kernel(p: float, mode, r, theta, phi, m: float) -> np.ndarray:
    """Kernel Lambda(p, l, mu; r, theta, phi); broadcasts to (..., 4, 4).

    Requires p > 0; for m = 0 the (E-m) = p limit keeps the ig^r terms.
    """
    l, mu = mode
    AngularMode(l, mu)   # validate bounds
    if not (p > 0):
        raise ValueError("p must be positive")
    r = np.asarray(r, dtype=float)
    E = np.sqrt(p * p + m * m)
    jt = sph_jn_table(l, p * r)
    jl, jlm1 = jt[l], jt[l - 1]
    om = omega_matrix(l, mu, theta, phi)
    igr = gamma_r(theta, phi)
    A = om @ _PP
    B = om @ _PM
    gA = igr @ A
    gB = igr @ B
    shape = np.broadcast_shapes(jl.shape, A.shape[:-2])
    jl = np.broadcast_to(jl, shape)[..., None, None]
    jlm1 = np.broadcast_to(jlm1, shape)[..., None, None]
    return p * jl * A + (E - m) * jlm1 * gA + p * jlm1 * B - (E - m) * jl * gB


def kernel_on_grid(grid: SphericalGrid, p: float, mode, m: float) -> np.ndarray:
    """Lambda sampled on the full grid: shape (nr, ntheta, nphi, 4, 4)."""
    th = grid.angular.theta[None, :, None]
    ph = grid.angular.phi[None, None, :]
    return hankel_kernel(p, mode, grid.r[:, None, None], th, ph, m)


def forward_hankel(field: SphericalField) -> HankelSpectrum:
    """psi(p,l,mu) = integral r^2 dr dOmega Lambda^T(p,l,mu) Psi.

    Warns when the field carries significant weight near rmax (the radial
    quadrature assumes decay before the cutoff).
    """
    g = field.grid
    if field.tail_fraction() > 1e-8 and field.norm2() > 0:
        warnings.warn("field tail at rmax exceeds 1e-8 of norm^2; "
                      "radial truncation error may dominate", stacklevel=2)
    m = field.mass
    E = g.energies(m)
    a = np.einsum('mxyba,rxyb,xy->mra', g.omegas, field.values,
                  g.angular.weights, optimize=True)
    out = np.zeros((g.np_points, len(g.modes), 4))
    for i, (l, mu) in enumerate(g.modes):
        jl, jlm1 = g.jt[l], g.jt[l - 1]
        apro = a[i]
        apart = a[g.mode_index[(l, -mu - 1)]]
        t1 = np.einsum('pr,r,ra->pa', jl * g.p[:, None], g.wr, apro @ _PP)
        t2 = np.einsum('pr,r,ra->pa', jlm1 * g.p[:, None], g.wr, apro @ _PM)
        c = (-1.0) ** mu * (E - m)
        t3 = np.einsum('pr,r,ra->pa', jl, g.wr, apart @ (_PM @ _IG5).T) * c[:, None]
        t4 = np.einsum('pr,r,ra->pa', jlm1, g.wr, apart @ (_PP @ _IG5).T) * c[:, None]
        out[:, i] = t1 + t2 + t3 - t4
    return HankelSpectrum(g, out, m)


def inverse_hankel(spec: HankelSpectrum) -> SphericalField:
    """Psi(r,theta,phi) = sum_{l,mu} integral dp (E+m)/(E pi) Lambda psi(p,l,mu)."""
    g = spec.grid
    m = spec.mass
    E = g.energies(m)
    wp = spec.p_weights()
    cr = np.zeros((len(g.modes), g.nr, 4))
    for i, (l, mu) in enumerate(g.modes):
        jl, jlm1 = g.jt[l], g.jt[l - 1]
        psi = spec.values[:, i]
        pair = spec.values[:, g.mode_index[(l, -mu - 1)]]
        t1 = np.einsum('pr,p,pa->ra', jl * g.p[:, None], wp, psi @ _PP)
        t2 = np.einsum('pr,p,pa->ra', jlm1 * g.p[:, None], wp, psi @ _PM)
        c = (-1.0) ** (mu + 1) * (E - m)
        t3 = np.einsum('pr,p,pa->ra', jlm1, wp * c, pair @ (_IG5 @ _PP).T)
        t4 = np.einsum('pr,p,pa->ra', jl, wp * c, pair @ (_IG5 @ _PM).T)
        cr[i] = t1 + t2 + t3 - t4
    vals = np.einsum('mxyab,mrb->rxya', g.omegas, cr, optimize=True)
    return SphericalField(g, vals, m)


def evolve_hankel(spec: HankelSpectrum, t: float) -> HankelSpectrum:
    """Per-mode rotor evolution psi(p,l,mu) -> rotor(-E_p t) psi(p,l,mu)."""
    ang = -spec.grid.energies(spec.mass) * t
    return replace(spec, values=rotate(ang[:, None], spec.values))


# ----------------------------------------------------------------------------
# grid Dirac operator (diagnostics): H = ig0 (i dslash - m) with
# i dslash = ig^r (d_r - sigma.L / r); 6th-order radial stencil.

_C6 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def _dr6(F: np.ndarray, dr: float) -> np.ndarray:
    """Interior 6th-order first derivative along axis 0; boundary 3+3 rows zero."""
    out = np.zeros_like(F)
    nr = F.shape[0]
    for k, cx in enumerate(_C6):
        if cx == 0.0:
            continue
        sh = k - 3
        out[3:-3] += cx * F[3 + sh:nr - 3 + sh]
    return out / dr


def _spatial_slash(grid: SphericalGrid, values: np.ndarray) -> np.ndarray:
    """i dslash Psi = ig^r (d_r - sigma.L / r) Psi, values (nr, nth, nph, 4, ...)."""
    sl = grid.angular.sigma_dot_L(np.moveaxis(values, 0, -1)) / grid.r
    inner = _dr6(values, grid.dr) - np.moveaxis(sl, -1, 0)
    igr = gamma_r(grid.angular.theta[:, None], grid.angular.phi[None, :])
    return (igr @ inner.reshape(inner.shape[:4] + (-1,))).reshape(inner.shape)


def dirac_apply(field: SphericalField) -> SphericalField:
    """Hamiltonian action H Psi = ig0 (i dslash - m) Psi (d_t Psi = H Psi).

    The three radial cells at each boundary are zeroed (stencil support);
    compare on the interior.
    """
    ids = _spatial_slash(field.grid, field.values)
    out = (ids - field.mass * field.values) @ _G.T
    out[:3] = 0.0
    out[-3:] = 0.0
    return SphericalField(field.grid, out, field.mass)


def eigen_relation_residual(grid: SphericalGrid, p: float, mode, m: float) -> float:
    """Relative residual of ig0 (m - i dslash) Lambda = E_p Lambda ig0.

    Evaluated one column at a time (bounding peak memory) over the interior
    radial range; the residual is dominated by the radial-stencil truncation,
    which scales as (p dr)^6.
    """
    l, mu = mode
    E = float(np.sqrt(p * p + m * m))
    LF = kernel_on_grid(grid, p, (l, mu), m)
    worst = scale = 0.0
    for c in range(4):
        col = np.ascontiguousarray(LF[..., c])
        rhs = E * (LF.reshape(-1, 4) @ _G[:, c]).reshape(col.shape)
        lhs = (m * col - _spatial_slash(grid, col)) @ _G.T
        worst = max(worst, np.abs(lhs - rhs)[3:-3].max())
        scale = max(scale, np.abs(rhs).max())
    return worst / scale


# ----------------------------------------------------------------------------
# space-time extension: time rotor transform composed with the radial one.

@dataclass
class SpacetimeSphericalField:
    """Time-stacked spherical field; values shape (nt, nr, ntheta, nphi, 4)."""
    grid: SphericalGrid
    Lt: float
    values: np.ndarray
    mass: float


@dataclass
class SpacetimeHankelSpectrum:
    """Time-frequency mode amplitudes; values shape (nt, np_points, nmodes, 4)."""
    grid: SphericalGrid
    Lt: float
    values: np.ndarray
    mass: float


def spacetime_hankel_forward(f: SpacetimeSphericalField) -> SpacetimeHankelSpectrum:
    """psi(p0, p, l, mu) = sum_t rotor(+p0 t) psi(t, p, l, mu) dt after the
    spatial forward on each time slice."""
    slices = np.stack([forward_hankel(SphericalField(f.grid, f.values[i], f.mass)).values
                       for i in range(f.values.shape[0])])
    return SpacetimeHankelSpectrum(f.grid, f.Lt,
                                   time_rotor_forward(slices, f.Lt), f.mass)


def spacetime_hankel_inverse(s: SpacetimeHankelSpectrum) -> SpacetimeSphericalField:
    u = time_rotor_inverse(s.values, s.Lt)
    slices = np.stack([inverse_hankel(HankelSpectrum(s.grid, u[i], s.mass)).values
                       for i in range(u.shape[0])])
    return SpacetimeSphericalField(s.grid, s.Lt, slices, s.mass)
