"""Plane-wave transforms of real Majorana spinor fields on periodic grids.

The kernel O(p,x) = rotor(-p.x) A(p) plays the role of e^{-ip.x} u(p):
everything stays real, with the orthogonal matrix ig0 standing in for the
imaginary unit.  The amplitude is the symmetric matrix

    A(p) = ((E+m) I + p_j (ig^j)(ig0)) / sqrt((E+m)^2 + |p|^2),

whose normalizer is sqrt((E+m) 2E) on shell.  The transforms only ever read A
in the G-complex form of ``clifford``, as a pair (Ap, K): the scalar
Ap = (E+m)/nu, and the complex 2x2 matrix K = sum_j (p_j/nu) K_j through which
the p_j ig^j ig0 term, anticommuting with ig0, acts on conj(z).  Each K_j is
a constant, the G-complex reading of ig^j ig0.

Discretization: periodic cubic grid, exactly dual momentum lattice
p = 2 pi k / L with k in fft order {0..n/2-1, -n/2..-1}.  On an even grid the
-n/2 wavenumber has no sine partner (sin(pi j) = 0 on the nodes), which would
break discrete orthogonality for the matrix part of the kernel; the grid
kernel therefore drops the Nyquist-direction components of p from the p_j
term of A(p), keeping E, and the normalizer above adapts.  With that
adjustment discrete orthogonality and completeness are exact identities
(round-off only), and the grid kernel coincides with the continuum kernel on
all non-Nyquist modes.

The transforms never build the (n^3 x n^3) kernel or a per-mode rotor.  In
the G-complex form of ``clifford`` every rotor DFT sum_x rotor(-+p.x) F(x) is
one complex FFT.  K acts antilinearly and couples p to -p, so each
direction is one FFT plus an index reversal; the space-time pair composes
the spatial transform with the time rotor DFT of ``clifford``.

Evolution: the rotor rotor(-E t) is the phase e^{-iEt} in G-complex form.
The inverse amplitude has two halves, Ap a and n = -K conj(a(-p)); the
conjugate turns the phase of the second into e^{+iEt} (E(-p) = E(p)); both
halves are built once, and each ``evolved_densities`` frame takes one exp per
distinct energy (661 of 32768 at n 32, L 16, m 1), gathered onto the lattice.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, replace

from .clifford import (I4 as _I4, IG as _IG, _GT, _rotor_dft, _to_complex, _to_real,
                       rotate, rotor, time_rotor_forward, time_rotor_inverse)

__all__ = [
    "DegenerateKernelError",
    "energy",
    "rotor",
    "rotate",
    "kernel_O",
    "CartesianGrid",
    "SpinorField",
    "MomentumSpectrum",
    "forward",
    "inverse",
    "evolve",
    "evolved_densities",
    "plane_wave",
    "DiracSpectrum",
    "project_particle",
    "SpacetimeField",
    "SpacetimeSpectrum",
    "spacetime_forward",
    "spacetime_inverse",
    "time_rotor_forward",
    "time_rotor_inverse",
]

_G = _IG[0]                                  # ig0, the imaginary unit
_IGS = np.stack(_IG[1:])                     # (3,4,4) spatial ig^j
_SPACE = (-3, -2, -1)                        # spatial axes in G-complex form
_KJ = _IGS @ _G                              # ig^j ig0 read in G-complex form:
_KJ = _KJ[:, :2, :2] - 1j * _KJ[:, 2:, :2]   # (3,2,2), acting on conj(z)


class DegenerateKernelError(ValueError):
    """Raised when the kernel normalizer sqrt((E+m) 2E) vanishes (m=0, p=0)."""


def energy(p, m: float):
    """On-shell energy sqrt(|p|^2 + m^2); p has the 3-vector on the last axis."""
    p = np.asarray(p, dtype=float)
    return np.sqrt((p * p).sum(-1) + m * m)


def _mirror_half(grid, m: float, a: np.ndarray, s: int) -> np.ndarray:
    """s K conj(a(-p)): the p_j ig^j ig0 part of A on the G-complex a, where
    a(-p) is the index reversal k -> -k."""
    mirror = np.roll(np.flip(a, _SPACE), 1, _SPACE)
    Km = np.einsum('ab...,b...->a...', grid._tables(m)[1], np.conj(mirror, out=mirror))
    Km *= s
    return Km


def _kernel_sum(grid, m: float, values: np.ndarray, inverse: bool):
    """Unweighted sum_x O(p,x) Psi(x), or sum_p O^T(p,x) psi(p) if inverse,
    as one FFT of the G-complex 2-spinor over the last three grid axes.

    O = rotor(-p.x) A; moving the K part through the rotor flips p -> -p, so A
    acts as a -> Ap a + _mirror_half(a), with s = -1 on the inverse side as
    K(-p) = -K(p).
    """
    Ap = grid._tables(m)[0]
    z = _to_complex(values)
    if inverse:
        return _to_real(_rotor_dft(Ap * z + _mirror_half(grid, m, z, -1), _SPACE, +1))
    z = _rotor_dft(z, _SPACE, -1)
    return _to_real(Ap * z + _mirror_half(grid, m, z, 1))


def _amplitude(p, E: float, m: float) -> np.ndarray:
    """Amplitude A = ((E+m) I + p_j ig^j ig0)/sqrt((E+m)^2 + |p|^2); the
    continuum A(p) at E = energy(p, m), the grid's at Nyquist-masked p."""
    p = np.asarray(p, dtype=float)
    nu2 = (E + m) ** 2 + p @ p
    if nu2 < 1e-24:
        raise DegenerateKernelError("kernel normalizer vanishes at m=0, p=0")
    return ((E + m) * _I4 + np.einsum('j,jab,bc->ac', p, _IGS, _G)) / np.sqrt(nu2)


def kernel_O(p, x, m: float) -> np.ndarray:
    """Plane-wave kernel O(p,x) = rotor(-p.x) A(p); real 4x4.

    At p = 0, m > 0 this is the identity.  Raises DegenerateKernelError for
    the massless zero mode.
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    return rotor(-float(p @ x)) @ _amplitude(p, energy(p, m), m)


class CartesianGrid:
    """Periodic cubic grid (n points per axis, box side L) and its dual lattice.

    Positions x_i = i dx with dx = L/n; momenta p = 2 pi k/L with integer k
    per axis in fft order.  Energies and kernel tables are cached per mass.
    """

    def __init__(self, n: int, L: float):
        if n < 2 or n % 2:
            raise ValueError("n must be an even integer >= 2")
        if not (L > 0):
            raise ValueError("L must be positive")
        self.n = int(n)
        self.L = float(L)
        self.dx = self.L / self.n
        self.ks = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)
        self.xs = np.arange(self.n) * self.dx
        self.kvecs = np.stack(np.meshgrid(self.ks, self.ks, self.ks, indexing='ij'), -1)
        self.P = 2 * np.pi * self.kvecs / self.L
        self._energies: dict[float, np.ndarray] = {}
        self._kernels: dict[float, tuple] = {}

    def energies(self, m: float) -> np.ndarray:
        """On-shell energies at every lattice momentum (cached, read-only)."""
        if m not in self._energies:
            E = np.sqrt((self.P ** 2).sum(-1) + m * m)
            E.flags.writeable = False
            self._energies[m] = E
        return self._energies[m]

    def k_index(self, kvec) -> tuple:
        """Array index of integer wavenumber kvec (components in [-n/2, n/2))."""
        return tuple(int(k) % self.n for k in kvec)

    def _tables(self, m: float):
        """The grid amplitude in G-complex form, from the Nyquist-masked p~.

        Returns (Ap, K, deg): Ap = (E+m)/nu scalar (n,n,n), K = sum_j
        (p~_j/nu) K_j complex (2,2,n,n,n), and deg the boolean mask of
        degenerate (zeroed) modes, nonempty only for m = 0, where it marks p = 0.
        """
        tab = self._kernels.get(m)
        if tab is None:
            E = self.energies(m)
            pt = np.where(self.kvecs == -(self.n // 2), 0.0, self.P)
            nu = np.sqrt((E + m) ** 2 + (pt ** 2).sum(-1))
            deg = nu < 1e-12
            nu[deg] = np.inf                 # zeroes Ap and K there
            K = np.einsum('jab,xyzj->abxyz', _KJ, pt / nu[..., None])
            tab = ((E + m) / nu, K, deg)
            self._kernels[m] = tab
        return tab

    def kernel(self, kvec, m: float, x) -> np.ndarray:
        """Discrete kernel O(p_k, x) used by the transforms (4x4 at one point).

        Equal to kernel_O except on Nyquist modes, where the amplitude drops
        the Nyquist components of p to keep the discrete transform exactly
        unitary.
        """
        idx = self.k_index(kvec)
        p = self.P[idx]
        pt = np.where(self.kvecs[idx] == -(self.n // 2), 0.0, p)
        return rotor(-float(p @ np.asarray(x, dtype=float))) @ _amplitude(pt, energy(p, m), m)


@dataclass
class SpinorField:
    """Real 4-spinor samples on a CartesianGrid; values shape (n, n, n, 4)."""
    grid: CartesianGrid
    values: np.ndarray
    mass: float

    def norm2(self) -> float:
        """Sum_x |Psi(x)|^2 dx^3."""
        return float((self.values ** 2).sum() * self.grid.dx ** 3)


@dataclass
class MomentumSpectrum:
    """Real 4-spinor amplitudes on the dual lattice; values shape (n, n, n, 4).

    zero_mode_dropped marks the massless p = 0 mode, zeroed by the transform
    because the kernel normalizer vanishes there.
    """
    grid: CartesianGrid
    values: np.ndarray
    mass: float
    zero_mode_dropped: bool = False

    def norm2(self) -> float:
        """Sum_p |psi(p)|^2 / L^3 (equals the field norm2: Parseval)."""
        return float((self.values ** 2).sum() / self.grid.L ** 3)


def forward(field: SpinorField) -> MomentumSpectrum:
    """psi(p) = sum_x O(p,x) Psi(x) dx^3 at every lattice momentum."""
    g, m = field.grid, field.mass
    vals = _kernel_sum(g, m, field.values, False) * g.dx ** 3
    return MomentumSpectrum(g, vals, m,
                            zero_mode_dropped=bool(g._tables(m)[2].any()))


def inverse(spec: MomentumSpectrum) -> SpinorField:
    """Psi(x) = (1/L^3) sum_p O^T(p,x) psi(p)."""
    g = spec.grid
    return SpinorField(g, _kernel_sum(g, spec.mass, spec.values, True) / g.L ** 3,
                       spec.mass)


def evolve(spec: MomentumSpectrum, t: float) -> MomentumSpectrum:
    """Free evolution psi(p) -> rotor(-E_p t) psi(p); exactly norm-preserving."""
    E = spec.grid.energies(spec.mass)
    return replace(spec, values=rotate(-E * t, spec.values))


def evolved_densities(spec: MomentumSpectrum, times):
    """For each t, yield evolve(spec, t).norm2() and the density |Psi|^2 of
    inverse(evolve(spec, t)): ifftn(e^{-iEt} Ap a + e^{+iEt} n) / L^3."""
    g, m = spec.grid, spec.mass
    a, E = _to_complex(spec.values), g.energies(m)
    Ap, n = g._tables(m)[0], _mirror_half(g, m, a, -1)
    # one exp per distinct energy; numpy versions shape the inverse differently
    u, at = np.unique(E, return_inverse=True)
    at = at.reshape(E.shape).astype(np.int32)
    pu, ph, z = np.empty(u.shape, complex), np.empty(E.shape, complex), np.empty_like(a)
    for t in times:
        np.take(np.exp(np.multiply(u, -1j * t, out=pu), out=pu), at, out=ph)
        np.multiply(a, ph, out=z)
        norm2 = np.vdot(z, z).real / g.L ** 3
        z *= Ap
        np.conjugate(ph, out=ph)
        dens = np.zeros(Ap.shape)
        for zc, nc in zip(z, n):      # one spinor component at a time keeps memory flat
            zc += ph * nc
            f = _rotor_dft(zc, _SPACE, +1)
            dens += f.real ** 2 + f.imag ** 2
        yield norm2, dens / g.L ** 6


def plane_wave(grid: CartesianGrid, kvec, m: float, chi, t: float = 0.0) -> SpinorField:
    """On-grid plane-wave solution Psi(x) = A(p) rotor(p.x - E t) chi.

    Satisfies the free Dirac equation exactly in the continuum; kvec must not
    touch the Nyquist wavenumber -n/2 for the field to be a pure grid mode.
    """
    p = 2 * np.pi * np.asarray(kvec, dtype=float) / grid.L
    E = energy(p, m)
    A = _amplitude(p, E, m)
    chi = np.asarray(chi, dtype=float)
    xs = grid.xs
    ph = p[0] * xs[:, None, None] + p[1] * xs[None, :, None] + p[2] * xs - E * t
    return SpinorField(grid, rotate(ph, chi) @ A.T, m)


# ----------------------------------------------------------------------------
# electron/positron projections: (1 +- g0)/2 with g0 = -i(ig0) is a complex
# matrix, so projected spectra carry two real channels (re, im).

@dataclass
class DiracSpectrum:
    """Complex momentum amplitudes stored as two real channels re + i im.

    Produced by project_particle; on the sign = +1 (electron) subspace
    ig0 v = i v, so the evolution rotor acts as the scalar phase e^{-iEt}
    (g0 -> 1 substitution); sign = -1 gives e^{+iEt} (g0 -> -1).
    """
    grid: CartesianGrid
    re: np.ndarray
    im: np.ndarray
    mass: float
    sign: int

    def project(self, sign: int) -> "DiracSpectrum":
        """Apply (1 + sign g0)/2 channel-wise."""
        s = float(sign)
        return DiracSpectrum(self.grid, (self.re + s * (self.im @ _GT)) / 2.0,
                             (self.im - s * (self.re @ _GT)) / 2.0, self.mass, sign)

    def evolve(self, t: float) -> "DiracSpectrum":
        """Rotor evolution applied to both channels (the exact dynamics)."""
        ang = -self.grid.energies(self.mass) * t
        return DiracSpectrum(self.grid, rotate(ang, self.re), rotate(ang, self.im),
                             self.mass, self.sign)

    def phase_evolve(self, t: float) -> "DiracSpectrum":
        """Scalar-phase evolution e^{-i sign E t}: the g0 -> sign substitution."""
        E = self.grid.energies(self.mass)
        c = np.cos(E * t)[..., None]
        s = (self.sign * np.sin(E * t))[..., None]
        return DiracSpectrum(self.grid, c * self.re + s * self.im,
                             c * self.im - s * self.re, self.mass, self.sign)


def project_particle(spec: MomentumSpectrum, sign: int) -> DiracSpectrum:
    """Apply the particle/antiparticle projector (1 + sign g0)/2 per mode.

    sign = +1 keeps the electron part, -1 the positron part; the two results
    sum (channel-wise) back to the input spectrum.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    zero = np.zeros_like(spec.values)
    base = DiracSpectrum(spec.grid, spec.values, zero, spec.mass, sign)
    return base.project(sign)


# ----------------------------------------------------------------------------
# space-time extension: O(p, x) = e^{+ig0 p0 x0} O(pvec, xvec) on a periodic
# time axis with frequencies p0 = 2 pi k0 / Lt in fft order.  The time factor
# is a pure rotor, so no Nyquist adjustment is needed on that axis.

@dataclass
class SpacetimeField:
    """Spinor samples on a periodic (t, x, y, z) grid; values (nt, n, n, n, 4)."""
    grid: CartesianGrid
    Lt: float
    values: np.ndarray
    mass: float


@dataclass
class SpacetimeSpectrum:
    grid: CartesianGrid
    Lt: float
    values: np.ndarray
    mass: float
    zero_mode_dropped: bool = False


def spacetime_forward(f4: SpacetimeField) -> SpacetimeSpectrum:
    """psi(p0, p) = sum_x O(p, x) Psi(x) dx^4 with O = rotor(p0 t) O(pvec, xvec)."""
    g, m = f4.grid, f4.mass
    vals = time_rotor_forward(_kernel_sum(g, m, f4.values, False) * g.dx ** 3, f4.Lt)
    return SpacetimeSpectrum(g, f4.Lt, vals, m,
                             zero_mode_dropped=bool(g._tables(m)[2].any()))


def spacetime_inverse(s4: SpacetimeSpectrum) -> SpacetimeField:
    """Psi(x) = (1/(Lt L^3)) sum_p O^T(p, x) psi(p): the time rotor sum
    first, so the spatial inverse's K mirror reverses spatial momenta only."""
    g = s4.grid
    vals = _kernel_sum(g, s4.mass, time_rotor_inverse(s4.values, s4.Lt), True) / g.L ** 3
    return SpacetimeField(g, s4.Lt, vals, s4.mass)
