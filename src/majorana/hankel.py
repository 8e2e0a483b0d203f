"""Radial (Hankel-type) transforms of Majorana spinor fields.

The kernel for angular mode (l, mu) at radial momentum p is separable,
Lambda = sum_i f_i(r) A_i(theta, phi) with P_up/dn = (1 +- sigma3)/2:

    Lambda = p j_l(pr) Omega P_up + (E-m) j_{l-1}(pr) ig^r Omega P_up
           + p j_{l-1}(pr) Omega P_dn - (E-m) j_l(pr) ig^r Omega P_dn

It solves the free Dirac system per mode: ig0 (m - i dslash) Lambda
= E_p Lambda ig0 with i dslash = ig^r (d_r - sigma.L / r).  The eigen-relation
check applies that operator factor by factor: d_r to the f_i, sigma.L to the A_i.

Forward transform: psi(p,l,mu) = integral r^2 dr dcos(theta) dphi
Lambda^T Psi; inverse weight dp (E+m)/(E pi) per momentum node.  The
identity ig^r Omega_{l,mu} = (-1)^mu Omega_{l,-mu-1} ig5 turns the ig^r
terms into couplings with the partner mode (l, -mu-1), so both directions
factorize into an angular stage and a radial one; no kernel is built.  The
angular stage applies Omega = sum w Y_{l'm'} M (spherical._omega_terms) in
real form, Y_{l'm'} = N P_l'^m'(cos theta) rotor(m' phi): a phi sum that is one
matmul with a table of rotor(m' phi), a theta sum with N P_l'^m'(cos theta),
then the map of the M onto modes.  Per l, the radial stage is two Bessel
matmuls (j_l, j_{l-1}) and one spinor structure (_l_block).  The inverse
applies both stages transposed, in reverse order; both take any leading axes.

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

from .clifford import (IG, IG5, PROJ_DN, PROJ_UP, rotate, rotor, time_rotor_forward,
                       time_rotor_inverse)
from .spherical import (AngularGrid, _omega_terms, angular_modes, assoc_legendre,
                        gamma_r, omega_matrix, sph_jn_table, sph_norm)

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
    "eigen_relation_residual",
    "SpacetimeSphericalField",
    "SpacetimeHankelSpectrum",
    "spacetime_hankel_forward",
    "spacetime_hankel_inverse",
]

_G = IG[0]
TAIL_LIMIT = 1e-8   # tail_fraction above which radial truncation may dominate


@dataclass(frozen=True)
class AngularMode:
    """Total-angular-momentum channel label: l >= 1, -l <= mu <= l-1."""
    l: int
    mu: int

    def __post_init__(self):
        if (not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                    for v in (self.l, self.mu))
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
        # the caps keep the tables small whatever a file header says (_W: 256 lmax^4 B)
        if not (nr >= 8 and 1 <= lmax <= 32 and 2 <= np_points <= 2 ** 20):
            raise ValueError("need nr >= 8, 1 <= lmax <= 32, 2 <= np_points <= 2^20")
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
        # the angular stage: _y[l', m'+lmax, theta] (zero where |m'| > l'), _R[(phi, b),
        # (m'+lmax, a)] = rotor(m' phi)[b, a] and _W[mode, :, l', m'+lmax, :] = sum w M^T
        ms = np.arange(-lmax, lmax + 1)
        self._y = np.zeros((lmax + 1, ms.size, ntheta))
        for l in range(lmax + 1):
            for m in range(-l, l + 1):
                self._y[l, m + lmax] = sph_norm(l, m) * assoc_legendre(l, m, self.angular.x)
        R = rotor(np.multiply.outer(self.angular.phi, ms))
        self._R = R.transpose(0, 2, 1, 3).reshape(4 * self.angular.nphi, 4 * ms.size)
        self._W = np.zeros((len(self.modes), 4, lmax + 1, ms.size, 4))
        for i, mode in enumerate(self.modes):
            for w, lp, mp, M in _omega_terms(*mode):
                self._W[i, :, lp, mp + lmax] += w * M.T
        self._jt = None

    def energies(self, m: float) -> np.ndarray:
        return np.sqrt(self.p ** 2 + m * m)

    def omega(self, mode) -> np.ndarray:
        """Omega_{l,mu} sampled on the angular grid: (ntheta, nphi, 4, 4)."""
        return omega_matrix(*mode, self.angular.theta[:, None], self.angular.phi[None, :])

    @property
    def jt(self) -> np.ndarray:
        """Bessel table j_l(p_k r_i): shape (lmax+1, np_points, nr)."""
        if self._jt is None:
            self._jt = sph_jn_table(self.lmax, np.multiply.outer(self.p, self.r))
        return self._jt


@dataclass
class SphericalField:
    """Spinor samples on a SphericalGrid; values shape (..., nr, ntheta, nphi, 4)."""
    grid: SphericalGrid
    values: np.ndarray
    mass: float

    def _shell_norms(self) -> np.ndarray:
        """Norm2 of each radial shell, summed over leading axes: sum |Psi|^2 dOmega r^2 dr."""
        g, v = self.grid, self.values.reshape((-1,) + self.values.shape[-4:])
        return np.einsum('trxya,trxya,xy->r', v, v, g.angular.weights) * g.wr

    def norm2(self) -> float:
        return float(self._shell_norms().sum())

    def tail_fraction(self) -> float:
        """Norm2 fraction in the outermost radial shells (nr/64, at least one)."""
        norms = self._shell_norms()
        tail, total = norms[-max(1, round(self.grid.nr / 64)):].sum(), norms.sum()
        return float(tail / total) if total > 0 else 0.0


@dataclass
class HankelSpectrum:
    """Mode amplitudes psi(p_k, l, mu); values shape (..., np_points, nmodes, 4)."""
    grid: SphericalGrid
    values: np.ndarray
    mass: float

    def p_weights(self) -> np.ndarray:
        """Inverse-transform momentum weights dp (E+m)/(E pi)."""
        E = self.grid.energies(self.mass)
        return self.grid.dp * (E + self.mass) / (E * pi)

    def norm2(self) -> float:
        return float(np.einsum('...pma,...pma,p->', self.values, self.values, self.p_weights()))


def _kernel_factors(p: float, mode, r, theta, phi, m: float):
    """Radial factors f (4, ...r) and angular matrices A (4, ...angles, 4, 4)
    of Lambda = sum_i f_i A_i, in the module docstring's order.  Requires
    p > 0; for m = 0 the (E-m) = p limit keeps the ig^r terms."""
    l, mu = mode
    AngularMode(l, mu)   # validate bounds
    if not (p > 0):
        raise ValueError("p must be positive")
    E = np.sqrt(p * p + m * m)
    jt = sph_jn_table(l, p * np.asarray(r, dtype=float))
    f = np.stack([p * jt[l], (E - m) * jt[l - 1], p * jt[l - 1], -(E - m) * jt[l]])
    om = omega_matrix(l, mu, theta, phi)
    up, dn = om @ PROJ_UP, om @ PROJ_DN
    igr = gamma_r(theta, phi)
    return f, np.stack([up, igr @ up, dn, igr @ dn])


def hankel_kernel(p: float, mode, r, theta, phi, m: float) -> np.ndarray:
    """Kernel Lambda(p, l, mu; r, theta, phi) = sum_i f_i A_i; broadcasts
    r against (theta, phi) to (..., 4, 4)."""
    f, A = _kernel_factors(p, mode, r, theta, phi, m)
    return np.einsum('i...,i...ab->...ab', f, A)


def kernel_on_grid(grid: SphericalGrid, p: float, mode, m: float) -> np.ndarray:
    """Lambda sampled on the full grid: shape (nr, ntheta, nphi, 4, 4)."""
    th = grid.angular.theta[None, :, None]
    ph = grid.angular.phi[None, None, :]
    return hankel_kernel(p, mode, grid.r[:, None, None], th, ph, m)


def _l_block(l: int):
    """Modes slice of one l (contiguous in scan order) and its spinor structure.

    From Z = [j_l a, j_{l-1} a] (radial sums of the block's projections a,
    flattened per p), psi = p Z D^T + (E-m) Z C^T.  D takes the sigma3-up
    components from j_l and the down ones from j_{l-1}; C couples each mode to
    its partner, the same position from the block's end, with sign (-1)^mu.
    The inverse maps the weighted spectrum back by the transpose: Z = p psi D
    + (E-m) psi C, then the transposed Bessel tables.
    """
    rev = np.fliplr(np.diag((-1.0) ** np.arange(-l, l)))
    eye = np.eye(2 * l)
    D = np.hstack([np.kron(eye, PROJ_UP), np.kron(eye, PROJ_DN)])
    C = np.hstack([np.kron(rev, PROJ_DN @ IG5), -np.kron(rev, PROJ_UP @ IG5)])
    return slice(l * (l - 1), l * (l + 1)), D, C


def forward_hankel(field: SphericalField) -> HankelSpectrum:
    """psi(p,l,mu) = integral r^2 dr dOmega Lambda^T(p,l,mu) Psi; warns when the
    field carries weight near rmax, before which the quadrature assumes decay."""
    g = field.grid
    if field.tail_fraction() > TAIL_LIMIT:
        warnings.warn("field tail at rmax exceeds 1e-8 of norm^2; "
                      "radial truncation error may dominate", stacklevel=2)
    m = field.mass
    p, Em = g.p[:, None], (g.energies(m) - m)[:, None]
    v = field.values
    z = (v.reshape(v.shape[:-2] + (-1,)) @ g._R).reshape(v.shape[:-2] + (-1, 4))
    b = np.einsum('lmx,...xma->...lma', g._y * g.angular.weights[:, 0], z)
    a = np.einsum('malnb,...lnb->...ma', g._W, b, optimize=True) * g.wr[:, None, None]
    out = np.empty(a.shape[:-3] + (g.np_points, len(g.modes), 4))
    for l in range(1, g.lmax + 1):
        blk, D, C = _l_block(l)
        b = a[..., blk, :].reshape(a.shape[:-2] + (-1,))
        Z = np.concatenate([g.jt[l] @ b, g.jt[l - 1] @ b], axis=-1)
        out[..., blk, :] = (p * (Z @ D.T) + Em * (Z @ C.T)).reshape(out[..., blk, :].shape)
    return HankelSpectrum(g, out, m)


def inverse_hankel(spec: HankelSpectrum) -> SphericalField:
    """Psi(r,theta,phi) = sum_{l,mu} integral dp (E+m)/(E pi) Lambda psi(p,l,mu)."""
    g, m, wp = spec.grid, spec.mass, spec.p_weights()[:, None]
    p, Em = wp * g.p[:, None], wp * (g.energies(m) - m)[:, None]
    v = spec.values
    cr = np.empty(v.shape[:-3] + (g.nr, len(g.modes), 4))
    for l in range(1, g.lmax + 1):
        blk, D, C = _l_block(l)
        z = v[..., blk, :].reshape(v.shape[:-3] + (g.np_points, -1))
        X, Y = np.split(p * (z @ D) + Em * (z @ C), 2, axis=-1)
        cr[..., blk, :] = (g.jt[l].T @ X + g.jt[l - 1].T @ Y).reshape(cr[..., blk, :].shape)
    c = np.einsum('malnb,...ma->...lnb', g._W, cr, optimize=True)
    d = np.einsum('lmx,...lma->...xma', g._y, c)
    vals = d.reshape(d.shape[:-2] + (-1,)) @ g._R.T   # sum_m' rotor(m' phi) d
    return SphericalField(g, vals.reshape(d.shape[:-2] + (-1, 4)), m)


def evolve_hankel(spec: HankelSpectrum, t: float) -> HankelSpectrum:
    """Per-mode rotor evolution psi(p,l,mu) -> rotor(-E_p t) psi(p,l,mu)."""
    ang = -spec.grid.energies(spec.mass) * t
    return replace(spec, values=rotate(ang[:, None], spec.values))


# ----------------------------------------------------------------------------
# grid Dirac operator (diagnostics): i dslash = ig^r (d_r - sigma.L / r);
# 6th-order radial stencil.

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


def eigen_relation_residual(grid: SphericalGrid, p: float, mode, m: float) -> float:
    """Relative residual of ig0 (m - i dslash) Lambda = E_p Lambda ig0.

    With G = ig0 the residual is sum_i f_i (m G A_i - E A_i G)
    - (d_r f_i) G ig^r A_i + (f_i / r) G ig^r sigma.L A_i: one (radial x
    angular) matmul over the interior radial range.  It is dominated by the
    radial-stencil truncation, which scales as (p dr)^6.
    """
    th, ph = grid.angular.theta[:, None], grid.angular.phi[None, :]
    E = float(np.sqrt(p * p + m * m))
    f, A = _kernel_factors(p, mode, grid.r, th, ph, m)
    slA = np.moveaxis(grid.angular.sigma_dot_L(np.moveaxis(A, 0, -1)), -1, 0)
    gr = _G @ gamma_r(th, ph)
    W = np.concatenate([m * (_G @ A) - E * (A @ _G), -gr @ A, gr @ slA])
    R = np.hstack([f.T, _dr6(f.T, grid.dr), f.T / grid.r[:, None]])[3:-3]
    worst = np.abs(R @ W.reshape(12, -1)).max()
    return worst / (E * np.abs(f.T @ (A @ _G).reshape(4, -1)).max())


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
    spatial forward, with time as its leading axis."""
    psi = forward_hankel(SphericalField(f.grid, f.values, f.mass)).values
    return SpacetimeHankelSpectrum(f.grid, f.Lt, time_rotor_forward(psi, f.Lt), f.mass)


def spacetime_hankel_inverse(s: SpacetimeHankelSpectrum) -> SpacetimeSphericalField:
    u = time_rotor_inverse(s.values, s.Lt)
    vals = inverse_hankel(HankelSpectrum(s.grid, u, s.mass)).values
    return SpacetimeSphericalField(s.grid, s.Lt, vals, s.mass)
