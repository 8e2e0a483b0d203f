"""The Pin(3,1) double cover acting on real Majorana spinors.

Group elements are real 4x4 matrices S with |det S| = 1 satisfying

    (i gamma^5) S = a S (i gamma^5),        a = +-1,
    (i gamma^0) S = b S^{-T}   (i gamma^0), b = +-1,

and the two-to-one homomorphism onto the Lorentz group is

    S^{-1} (i gamma^mu) S = Lambda^mu_nu (i gamma^nu).

Boosts and rotations use the closed forms that follow from
(b^j g0 g^j)^2 = |b|^2 I and (t^j ig5 g0 g^j)^2 = -|t|^2 I.

Conventions fixed by this module (the algebra leaves them free):

* spinor parameters are half the vector parameters: ``boost(b)`` maps to a
  Lorentz boost of rapidity 2|b| along b, and ``rotation(t)`` maps to a
  spatial rotation by angle 2|t|;
* the rotation orientation is clockwise about the axis: ``lambda_of(
  rotation([0, 0, phi/2]))`` equals R_z(-phi) in the right-handed convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import CANONICAL as _REP, I4 as _I4, IG as _IG, IG5 as _IG5, SIGMA as _SIGMA

__all__ = [
    "PinElement",
    "NotPinError",
    "BOOST_GENERATORS",
    "ROTATION_GENERATORS",
    "DELTA",
    "boost",
    "rotation",
    "lambda_of",
    "pin_flags",
    "polar_decompose",
    "PolarDecomposition",
    "commutant_check",
    "CommutantReport",
]

# g0 g^j (symmetric, square +I) and i g5 g0 g^j (antisymmetric, square -I)
BOOST_GENERATORS = tuple(-( _IG[0] @ _IG[j]) for j in (1, 2, 3))
ROTATION_GENERATORS = tuple(_IG5 @ B for B in BOOST_GENERATORS)

_G0G5 = -(_IG[0] @ _IG5)
# the discrete pin subgroup: {+-1, +-ig0, +-g0g5, +-ig5}
DELTA = tuple(s * M for M in (_I4, _IG[0], _G0G5, _IG5) for s in (1.0, -1.0))


class NotPinError(ValueError):
    """Raised when a matrix does not satisfy the Pin(3,1) defining relations."""


@dataclass(frozen=True)
class PinElement:
    """A Pin(3,1) element: the spinor-space matrix plus its two sign flags.

    flag_a = +1 on the proper (gamma5-commuting) component, flag_b = +1 on
    the orthochronous component; Spin+(3,1) is flag_a = flag_b = +1.
    """

    matrix: np.ndarray
    flag_a: int = 1
    flag_b: int = 1

    def __matmul__(self, other: "PinElement") -> "PinElement":
        return PinElement(self.matrix @ other.matrix,
                          self.flag_a * other.flag_a,
                          self.flag_b * other.flag_b)


def boost(b) -> PinElement:
    """exp(b^j g0 g^j) in closed form: cosh|b| I + sinh|b| bhat^j g0 g^j.

    Symmetric positive definite with det 1; maps to a Lorentz boost of
    rapidity 2|b| along b.
    """
    b = np.asarray(b, dtype=float)
    a = float(np.linalg.norm(b))
    if a == 0.0:
        return PinElement(_I4.copy())
    K = sum((b[j] / a) * BOOST_GENERATORS[j] for j in range(3))
    return PinElement(np.cosh(a) * _I4 + np.sinh(a) * K)


def rotation(theta) -> PinElement:
    """exp(theta^j ig5 g0 g^j) in closed form: cos|t| I + sin|t| that^j ig5 g0 g^j.

    Orthogonal with det 1; maps to a spatial rotation by angle 2|theta|
    (clockwise about theta, see module docstring).
    """
    t = np.asarray(theta, dtype=float)
    a = float(np.linalg.norm(t))
    if a == 0.0:
        return PinElement(_I4.copy())
    J = sum((t[j] / a) * ROTATION_GENERATORS[j] for j in range(3))
    return PinElement(np.cos(a) * _I4 + np.sin(a) * J)


def _as_matrix(S) -> np.ndarray:
    if isinstance(S, PinElement):
        return S.matrix
    return np.asarray(S, dtype=float)


def lambda_of(S, tol: float = 1e-8) -> np.ndarray:
    """The Lorentz matrix of S: S^{-1}(i gamma^mu)S = Lambda^mu_nu (i gamma^nu).

    Coefficients are extracted with the trace inner product; since
    tr((i gamma^nu)^T (i gamma^nu)) = 4 for every nu, the expansion is
    Lambda^mu_nu = tr((i gamma^nu)^T S^{-1} (i gamma^mu) S) / 4.

    Raises :class:`NotPinError` when the conjugated generator does not lie in
    the span of the i gamma^nu (expansion residual above ``tol``).
    """
    M = _as_matrix(S)
    Mi = np.linalg.inv(M)
    L = np.empty((4, 4))
    for mu in range(4):
        C = Mi @ _IG[mu] @ M
        rec = np.zeros((4, 4))
        for nu in range(4):
            L[mu, nu] = np.trace(_IG[nu].T @ C) / 4.0
            rec += L[mu, nu] * _IG[nu]
        if np.abs(C - rec).max() > tol:
            raise NotPinError("conjugation leaves the gamma span: S is not in Pin(3,1)")
    return L


def pin_flags(S, tol: float = 1e-8):
    """Determine the two sign flags (a, b) of a Pin(3,1) matrix.

    a from (ig5) S = a S (ig5);  b from (ig0) S = b S^{-T} (ig0).
    Raises :class:`NotPinError` if |det S| != 1 or either relation fails for
    both signs.
    """
    M = _as_matrix(S)
    d = np.linalg.det(M)
    if abs(abs(d) - 1.0) > 1e-8:
        raise NotPinError(f"|det S| = {abs(d):.3e} != 1")
    Mi = np.linalg.inv(M)
    a = b = None
    lhs_a = _IG5 @ M
    lhs_b = _IG[0] @ M
    for sgn in (1.0, -1.0):
        if np.abs(lhs_a - sgn * M @ _IG5).max() < tol:
            a = int(sgn)
        if np.abs(lhs_b - sgn * Mi.T @ _IG[0]).max() < tol:
            b = int(sgn)
    if a is None or b is None:
        raise NotPinError("matrix does not satisfy the Pin(3,1) defining relations")
    return a, b


@dataclass(frozen=True)
class PolarDecomposition:
    """S = theta_matrix @ pi_matrix with recovered generator parameters."""

    theta_matrix: np.ndarray
    pi_matrix: np.ndarray
    theta: np.ndarray   # rotation parameters; rotation(theta) = +-theta_matrix
    b: np.ndarray       # boost parameters;   boost(b) = pi_matrix


def polar_decompose(S) -> PolarDecomposition:
    """Polar-factor a Spin+(3,1) element into rotation times boost.

    Pi = sqrt(S^T S) is symmetric positive definite and equals boost(b);
    Theta = S Pi^{-1} is orthogonal and equals +-rotation(theta).  The sign
    is absorbed into theta (a shift by pi along the axis), so
    rotation(theta) @ boost(b) reconstructs S.
    """
    M = _as_matrix(S)
    w, V = np.linalg.eigh(M.T @ M)
    if w.min() < 1e-14:
        raise NotPinError("S^T S is numerically singular; not a Spin+ element")
    sq = np.sqrt(w)
    Pi = (V * sq) @ V.T
    Theta = M @ ((V / sq) @ V.T)

    # boost parameters: Pi = cosh|b| I + sinh|b| bhat.K, K orthonormal in tr/4
    v = np.array([np.trace(K.T @ Pi) / 4.0 for K in BOOST_GENERATORS])
    sn = np.linalg.norm(v)
    bvec = np.arcsinh(sn) * v / sn if sn > 1e-15 else np.zeros(3)

    # rotation parameters: Theta = +-(cos|t| I + sin|t| that.J)
    c = np.trace(Theta) / 4.0
    v = np.array([np.trace(J.T @ Theta) / 4.0 for J in ROTATION_GENERATORS])
    sn = np.linalg.norm(v)
    if sn < 1e-12:
        tvec = np.zeros(3) if c > 0 else np.array([np.pi, 0.0, 0.0])
    else:
        tvec = np.arctan2(sn, c) * v / sn
    return PolarDecomposition(Theta, Pi, tvec, bvec)


# the ten symmetric basis elements: 1, ig^j, g0 g^j, g^j g5
_GAMMA_SYM = (_I4, *_IG[1:], *BOOST_GENERATORS, *_SIGMA)


@dataclass(frozen=True)
class CommutantReport:
    dimension: int
    basis: str
    generators: str
    singular_values: np.ndarray


def commutant_check(generators: str = "all", basis: str = "symmetric",
                    tol: float = 1e-10) -> CommutantReport:
    """Dimension of {M : [M, G] = 0 for all generators G} within a Gamma span.

    ``basis='symmetric'`` restricts M to the 10 symmetric basis elements
    (the irreducibility test: dimension 1 means no invariant splitting);
    ``basis='full'`` uses all 16.  ``generators`` is one of
    ``'all' | 'rotations' | 'boosts'``.

    Note the rotation subgroup alone is quaternionic: its extra commutant
    elements (ig0, ig5, g0g5) are all antisymmetric, so the symmetric-span
    dimension stays 1 even without boosts; the full-span dimension (4 vs 2)
    is what distinguishes the subgroup from the whole group.
    """
    table = {
        "all": BOOST_GENERATORS + ROTATION_GENERATORS,
        "rotations": ROTATION_GENERATORS,
        "boosts": BOOST_GENERATORS,
    }
    if generators not in table:
        raise ValueError("generators must be 'all', 'rotations' or 'boosts'")
    gens = table[generators]
    if basis == "symmetric":
        span = _GAMMA_SYM
    elif basis == "full":
        span = _REP.gamma_basis
    else:
        raise ValueError("basis must be 'symmetric' or 'full'")
    rows = []
    for Gn in gens:
        cols = [(B @ Gn - Gn @ B).ravel() for B in span]
        rows.append(np.stack(cols, axis=1))
    M = np.vstack(rows)
    svals = np.linalg.svd(M, compute_uv=False)
    dim = int((svals < tol * max(svals.max(), 1.0)).sum())
    return CommutantReport(dim, basis, generators, svals)
