"""Real 4x4 Majorana matrix algebra.

The Majorana matrices i*gamma^mu are real orthogonal 4x4 matrices satisfying

    {i gamma^mu, i gamma^nu} = -2 g^{mu nu} I,    g = diag(+1,-1,-1,-1).

This module builds the canonical integer-entried basis, the 16-element
product basis Gamma (closed under multiplication up to sign), the 32-element
sign-extended group Gamma2, and the intertwiner between any two equivalent
representations via group averaging.  It also holds the rotor e^{Ga} and the
G-complex form, G = ig0: G^2 = -I, so a real 4-spinor is a complex 2-spinor on
which G acts as i, the rotor as e^{ia}, and a rotor DFT as one complex FFT.

All matrices are float64 arrays holding exact small integers, so products and
anticommutators of basis elements are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MajoranaRep",
    "NotInGammaError",
    "GAMMA_NAMES",
    "build_canonical_rep",
    "rep_from_generators",
    "anticommutator",
    "commutator",
    "omega_sets",
    "verify_basis_independence",
    "intertwiner",
    "MINKOWSKI",
    "CANONICAL", "IG", "IG5", "I4", "SIGMA", "PROJ_UP", "PROJ_DN",
    "rotor", "rotate", "time_rotor_forward", "time_rotor_inverse",
]

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])

# Names of the 16 basis elements, in the fixed library ordering.
GAMMA_NAMES = (
    "1",
    "ig0", "ig1", "ig2", "ig3",
    "ig5",
    "g0g1", "g0g2", "g0g3",
    "ig5g0g1", "ig5g0g2", "ig5g0g3",
    "g0g5",
    "g1g5", "g2g5", "g3g5",
)


class NotInGammaError(ValueError):
    """Raised when a matrix is not an element of the 16-element basis."""


@dataclass(frozen=True)
class MajoranaRep:
    """A real Majorana representation: generators plus derived structure.

    Attributes
    ----------
    gamma0..gamma3 : (4,4) ndarray
        The matrices i*gamma^mu.
    gamma5 : (4,4) ndarray
        The pseudo-scalar i*gamma^5 = -gamma^0 gamma^1 gamma^2 gamma^3.
    gamma_basis : tuple of 16 (4,4) ndarray
        The basis Gamma in the ordering of ``GAMMA_NAMES``.
    gamma2_group : tuple of 32 (4,4) ndarray
        The sign-extended group Gamma2 = {+A, -A : A in Gamma},
        ordered as [Gamma[0], -Gamma[0], Gamma[1], -Gamma[1], ...].
    """

    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    gamma5: np.ndarray = field(repr=False)
    gamma_basis: tuple = field(repr=False, default=())
    gamma2_group: tuple = field(repr=False, default=())

    @property
    def generators(self):
        return (self.gamma0, self.gamma1, self.gamma2, self.gamma3)


def anticommutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Return AB + BA."""
    return A @ B + B @ A


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Return AB - BA."""
    return A @ B - B @ A


def _basis_products(ig0, ig1, ig2, ig3):
    """Assemble the 16-element basis from the four generators.

    Products of the underlying gamma (without i) are expressed through the
    stored real matrices via gamma^mu gamma^nu = -(i gamma^mu)(i gamma^nu).
    """
    eye = np.eye(4)
    ig5 = -(ig0 @ ig1 @ ig2 @ ig3)
    igs = (ig1, ig2, ig3)
    g0gj = [-(ig0 @ g) for g in igs]                 # gamma^0 gamma^j
    ig5g0gj = [ig5 @ m for m in g0gj]                # i gamma^5 gamma^0 gamma^j
    g0g5 = -(ig0 @ ig5)                              # gamma^0 gamma^5
    gjg5 = [-(g @ ig5) for g in igs]                 # gamma^j gamma^5
    basis = [eye, ig0, ig1, ig2, ig3, ig5] + g0gj + ig5g0gj + [g0g5] + gjg5
    return ig5, tuple(basis)


def rep_from_generators(ig0, ig1, ig2, ig3, check: bool = True) -> MajoranaRep:
    """Build a full MajoranaRep from four generator matrices.

    Parameters are the real matrices i*gamma^0 .. i*gamma^3.  With
    ``check=True`` the Clifford anticommutation relations are validated to
    1e-10 before the derived structure is assembled.
    """
    gens = [np.asarray(g, dtype=float) for g in (ig0, ig1, ig2, ig3)]
    if check:
        for mu in range(4):
            for nu in range(4):
                want = -2.0 * MINKOWSKI[mu, nu] * np.eye(4)
                got = anticommutator(gens[mu], gens[nu])
                if np.abs(got - want).max() > 1e-10:
                    raise ValueError(
                        f"generators violate the Clifford relation at (mu,nu)=({mu},{nu})"
                    )
    ig5, basis = _basis_products(*gens)
    group = tuple(s * A for A in basis for s in (1.0, -1.0))
    return MajoranaRep(*gens, gamma5=ig5, gamma_basis=basis, gamma2_group=group)


def build_canonical_rep() -> MajoranaRep:
    """Return the canonical integer-entried Majorana representation.

    The generators are exact: every entry is -1, 0 or +1, and all products
    among basis elements are exact in float64.
    """
    ig1 = np.array([[1, 0, 0, 0],
                    [0, -1, 0, 0],
                    [0, 0, -1, 0],
                    [0, 0, 0, 1]], dtype=float)
    ig2 = np.array([[0, 0, 1, 0],
                    [0, 0, 0, 1],
                    [1, 0, 0, 0],
                    [0, 1, 0, 0]], dtype=float)
    ig3 = np.array([[0, 1, 0, 0],
                    [1, 0, 0, 0],
                    [0, 0, 0, -1],
                    [0, 0, -1, 0]], dtype=float)
    ig0 = np.array([[0, 0, 1, 0],
                    [0, 0, 0, 1],
                    [-1, 0, 0, 0],
                    [0, -1, 0, 0]], dtype=float)
    return rep_from_generators(ig0, ig1, ig2, ig3, check=False)


# The canonical representation, built once: the other modules import it and
# these constants.  They are shared, so they are read-only.
CANONICAL = build_canonical_rep()
IG = CANONICAL.generators                    # i gamma^0 .. i gamma^3
IG5 = CANONICAL.gamma5
I4 = np.eye(4)
# spin sigma^k = gamma^k gamma^5 = -(i gamma^k)(i gamma^5); sigma^3 is diagonal
SIGMA = tuple(-(IG[k] @ IG5) for k in (1, 2, 3))
PROJ_UP, PROJ_DN = (I4 + SIGMA[2]) / 2.0, (I4 - SIGMA[2]) / 2.0
for _m in (*CANONICAL.gamma_basis, I4, *SIGMA, PROJ_UP, PROJ_DN):
    _m.flags.writeable = False
_GT = IG[0].T.copy()                         # contiguous: v @ _GT is a fast matmul


def rotor(angle) -> np.ndarray:
    """e^{ig0 angle} = cos(angle) I + sin(angle) ig0; orthogonal, shape (..., 4, 4)."""
    a = np.asarray(angle, dtype=float)
    return np.multiply.outer(np.cos(a), I4) + np.multiply.outer(np.sin(a), IG[0])


def rotate(angle, v) -> np.ndarray:
    """rotor(angle) v = cos(angle) v + sin(angle) ig0 v for spinors on the last
    axis of v; angle broadcasts against v[..., 0].  No 4x4 rotor is built."""
    a = np.asarray(angle, dtype=float)[..., None]
    out = np.sin(a) * (v @ _GT)
    out += np.cos(a) * v
    return out


def _to_complex(v: np.ndarray) -> np.ndarray:
    """G-complex form: ig0 maps (v0, v1, v2, v3) to (v2, v3, -v0, -v1), so z =
    (v0 - i v2, v1 - i v3), on axis 0 ahead of the grid axes, has ig0 act as i."""
    z = np.empty((2,) + v.shape[:-1], dtype=complex)
    z.real = np.moveaxis(v[..., :2], -1, 0)
    np.negative(np.moveaxis(v[..., 2:], -1, 0), out=z.imag)
    return z


def _to_real(z: np.ndarray) -> np.ndarray:
    v = np.empty(z.shape[1:] + (4,))
    v[..., :2] = np.moveaxis(z.real, 0, -1)
    np.negative(np.moveaxis(z.imag, 0, -1), out=v[..., 2:])
    return v


def _rotor_dft(z: np.ndarray, axes: tuple, sign: int) -> np.ndarray:
    """sum_j e^{i sign 2 pi k.j/n} z[j] over axes: in G-complex form, the
    unnormalized rotor DFT sum_x rotor(sign p.x) F(x)."""
    return np.fft.fftn(z, axes=axes) if sign < 0 else np.fft.ifftn(z, axes=axes, norm="forward")


def time_rotor_forward(values: np.ndarray, Lt: float) -> np.ndarray:
    """psi(p0) = sum_t rotor(+p0 t) psi(t) dt over the periodic time axis 0."""
    nt = values.shape[0]
    return _to_real(_rotor_dft(_to_complex(values), (1,), +1)) * (Lt / nt)


def time_rotor_inverse(values: np.ndarray, Lt: float) -> np.ndarray:
    """psi(t) = (1/Lt) sum_p0 rotor(-p0 t) psi(p0) along axis 0."""
    return _to_real(_rotor_dft(_to_complex(values), (1,), -1)) / Lt


def _index_in_gamma(A: np.ndarray, rep: MajoranaRep, tol: float = 1e-9):
    """Index of A in rep.gamma_basis, or None.  Frobenius-distance match."""
    for i, B in enumerate(rep.gamma_basis):
        if np.linalg.norm(A - B) < tol:
            return i
    return None


def omega_sets(A: np.ndarray, rep: MajoranaRep, tol: float = 1e-9):
    """Partition the basis Gamma into elements commuting / anticommuting with A.

    Returns ``(commuting, anticommuting)`` as lists of indices into
    ``rep.gamma_basis``.  A must itself be a basis element (up to ``tol`` in
    Frobenius distance), otherwise :class:`NotInGammaError` is raised.
    """
    A = np.asarray(A, dtype=float)
    if _index_in_gamma(A, rep, tol) is None:
        raise NotInGammaError("matrix is not an element of the Gamma basis")
    commuting, anticommuting = [], []
    for i, B in enumerate(rep.gamma_basis):
        if np.abs(commutator(A, B)).max() < tol:
            commuting.append(i)
        else:
            # basis elements either commute or anticommute; verify
            if np.abs(anticommutator(A, B)).max() >= tol:
                raise NotInGammaError("matrix neither commutes nor anticommutes within Gamma")
            anticommuting.append(i)
    return commuting, anticommuting


@dataclass(frozen=True)
class GramReport:
    gram: np.ndarray
    passed: bool


def verify_basis_independence(rep: MajoranaRep, tol: float = 0.0) -> GramReport:
    """Compute the Gram matrix G_ij = tr(A_i^T A_j) over the 16-element basis.

    The basis is orthogonal with norm 4: the report passes iff G = 4*I within
    ``tol`` (default exact, suitable for the canonical rep).
    """
    n = len(rep.gamma_basis)
    G = np.empty((n, n))
    for i, A in enumerate(rep.gamma_basis):
        for j, B in enumerate(rep.gamma_basis):
            G[i, j] = np.trace(A.T @ B)
    passed = bool(np.abs(G - 4.0 * np.eye(n)).max() <= tol)
    return GramReport(gram=G, passed=passed)


def _group_inverse_indices(group, tol: float = 1e-9):
    """Index of g^{-1} in the group list, for each g.  Group elements are
    orthogonal up to sign, so the inverse is found by product comparison."""
    eye = np.eye(4)
    inv = []
    for A in group:
        for j, B in enumerate(group):
            if np.abs(A @ B - eye).max() < tol:
                inv.append(j)
                break
        else:
            raise ValueError("group element has no inverse in the list")
    return inv


def intertwiner(rep_a: MajoranaRep, rep_b: MajoranaRep, tol: float = 1e-6) -> np.ndarray:
    """Return S with S A(g) = B(g) S for all g in Gamma2 and |det S| = 1.

    Constructed by group averaging S = sum_g B(g^{-1}) S' A(g) over the
    32-element group, trying single-entry seed matrices S' until the average
    is nonsingular.  The overall sign of S is not canonical (double cover);
    only |det S| is normalized.
    """
    A2, B2 = rep_a.gamma2_group, rep_b.gamma2_group
    inv = _group_inverse_indices(A2)
    for i in range(4):
        for j in range(4):
            seed = np.zeros((4, 4))
            seed[i, j] = 1.0
            S = np.zeros((4, 4))
            for k, Ak in enumerate(A2):
                S += B2[inv[k]] @ seed @ Ak
            d = np.linalg.det(S)
            if abs(d) > tol:
                return S / abs(d) ** 0.25
    raise ValueError("no seed produced a nonsingular intertwiner; "
                     "inputs are not equivalent Clifford representations")
