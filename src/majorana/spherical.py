"""Angular machinery on the sphere for Majorana spinor fields.

Associated Legendre functions by stable recurrence, matrix-valued spherical
harmonics Y_lm = N_lm P_l^m(cos theta) (cos(m phi) I + sin(m phi) ig0),
spin operators sigma^k = gamma^k gamma^5, orbital angular momentum L_k with
ig0 playing the role of i, the total-angular-momentum matrices Omega_{l,mu},
and a table builder for spherical Bessel functions.

Angular grids are Gauss-Legendre in cos(theta) times uniform phi, which makes
every angular quadrature below exact for band-limited integrands.  The theta
derivative acts on the azimuthal Fourier coefficients: even-m ones are
polynomials in cos(theta), odd-m ones carry one factor of sin(theta) that is
divided out first, then one real matmul by the d/dcos(theta) matrix serves all
modes, so the operator is exact on fields of bounded degree.  The Gauss nodes
exclude the poles, so no special pole handling is needed.
"""

from __future__ import annotations

from math import factorial, pi

import numpy as np

from .clifford import I4 as _I4, IG as _IG, PROJ_DN, PROJ_UP, SIGMA

__all__ = [
    "assoc_legendre",
    "sph_norm",
    "majorana_Y",
    "AngularGrid",
    "SIGMA",
    "sigma_r",
    "gamma_r",
    "omega_matrix",
    "angular_modes",
    "sph_jn_table",
]

_G = _IG[0]


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre P_l^m(x) with the Condon-Shortley sign.

    Matches the Rodrigues definition
        P_l^m = (-1)^m / (2^l l!) (1-x^2)^{m/2} d^{l+m}/dx^{l+m} (x^2-1)^l
    for -l <= m <= l (zero outside that range), computed by the standard
    three-term recurrence (stable near |x| = 1 where the expanded polynomial
    form cancels badly).
    """
    if not (0 <= l):
        raise ValueError("l must be >= 0")
    x = np.asarray(x, dtype=float)
    if abs(m) > l:
        return np.zeros_like(x)
    am = abs(m)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    pmm = np.ones_like(x)
    for k in range(1, am + 1):
        pmm = pmm * (-(2 * k - 1)) * s
    if l == am:
        out = pmm
    else:
        pm1 = x * (2 * am + 1) * pmm
        if l == am + 1:
            out = pm1
        else:
            for ll in range(am + 2, l + 1):
                pmm, pm1 = pm1, (x * (2 * ll - 1) * pm1 - (ll + am - 1) * pmm) / (ll - am)
            out = pm1
    if m < 0:
        out = out * ((-1.0) ** am * factorial(l - am) / factorial(l + am))
    return out


def sph_norm(l: int, m: int) -> float:
    """Real spherical-harmonic normalization sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)."""
    return np.sqrt((2 * l + 1) / (4 * pi) * factorial(l - m) / factorial(l + m))


def majorana_Y(l: int, m: int, theta, phi) -> np.ndarray:
    """Matrix spherical harmonic Y_lm = N_lm P_l^m(cos t)(cos(m p) I + sin(m p) ig0).

    theta/phi may be scalars or broadcastable arrays; the result has shape
    ``broadcast_shape + (4, 4)``.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    p = sph_norm(l, m) * assoc_legendre(l, m, np.cos(theta))
    c = p * np.cos(m * phi)
    s = p * np.sin(m * phi)
    return np.multiply.outer(c, _I4) + np.multiply.outer(s, _G)


def _barycentric_diffmat(x: np.ndarray) -> np.ndarray:
    """First-derivative collocation matrix on distinct nodes x (barycentric)."""
    n = len(x)
    lam = 1.0 / np.array([np.prod(x[i] - np.delete(x, i)) for i in range(n)])
    D = (lam[None, :] / lam[:, None]) / (x[:, None] - x[None, :] + np.eye(n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(1))   # rows sum to zero (derivative of constants)
    return D


class AngularGrid:
    """Gauss-Legendre x uniform product grid on the sphere.

    Attributes
    ----------
    ntheta, nphi : int
    x, wx : (ntheta,) Gauss-Legendre nodes/weights in cos(theta)
    theta, phi : 1-d node arrays; ``phi`` uniform in [-pi, pi)
    weights : (ntheta, nphi) quadrature weights summing to 4 pi
    """

    def __init__(self, ntheta: int, nphi: int):
        if ntheta < 2 or nphi < 4 or nphi % 2:
            raise ValueError("need ntheta >= 2 and even nphi >= 4")
        self.ntheta, self.nphi = int(ntheta), int(nphi)
        self.x, self.wx = np.polynomial.legendre.leggauss(self.ntheta)
        self.theta = np.arccos(self.x)
        self.phi = 2 * pi * np.arange(self.nphi) / self.nphi - pi
        zero = np.zeros((self.ntheta, self.nphi))
        self.weights = self.wx[:, None] * (2 * pi / self.nphi) + zero
        self._dx = _barycentric_diffmat(self.x)
        self._sin = np.sqrt(1.0 - self.x ** 2)
        # L_k = ig0 (a_k d/dtheta + b_k d/dphi), rows k = 1, 2, 3 of (a_k, b_k);
        # sigma.L = A d/dtheta + B d/dphi with (A, B) = sum_k sigma^k ig0 (a_k, b_k)
        sp, cp, cot = np.sin(self.phi), np.cos(self.phi), (self.x / self._sin)[:, None]
        self._lcoef = np.array([[sp + zero, cot * cp], [zero - cp, cot * sp], [zero, zero - 1]])
        self._sl = np.einsum('kdxy,kab->dxyab', self._lcoef, np.stack(SIGMA) @ _G)

    # -- derivatives ------------------------------------------------------

    def dphi(self, F: np.ndarray) -> np.ndarray:
        """d/dphi along axis 1, spectral (exact for band-limited fields)."""
        ks = np.arange(self.nphi // 2 + 1)
        Fh = np.fft.rfft(F, axis=1)
        Fh *= (1j * ks).reshape((1, -1) + (1,) * (F.ndim - 2))
        return np.fft.irfft(Fh, n=self.nphi, axis=1)

    def dtheta(self, F: np.ndarray) -> np.ndarray:
        """d/dtheta along axis 0, exact on band-limited fields.

        On the azimuthal Fourier coefficients: even-m components are
        polynomials in x = cos(theta), so d/dtheta = -sin(theta) d/dx; odd-m
        components are sin(theta) times a polynomial g(x), whose
        theta-derivative is x g - (1 - x^2) dg/dx.  After g is divided out,
        one real matmul with the d/dx matrix serves all modes.
        """
        col = (self.ntheta, 1) + (1,) * (F.ndim - 2)
        s, x = self._sin.reshape(col), self.x.reshape(col)
        Fh = np.ascontiguousarray(np.fft.rfft(F, axis=1))
        Fh[:, 1::2] /= s
        dh = (self._dx @ Fh.reshape(self.ntheta, -1).view(float)).view(complex).reshape(Fh.shape)
        dh *= -s
        dh[:, 1::2] *= s                   # odd m: -(1 - x^2) dg/dx ...
        dh[:, 1::2] += x * Fh[:, 1::2]     # ... + x g
        return np.fft.irfft(dh, n=self.nphi, axis=1)

    # -- angular momentum --------------------------------------------------

    def angular_momentum_apply(self, F: np.ndarray, k: int) -> np.ndarray:
        """Apply L_k (k = 1, 2, 3) to a spinor field F of shape (nth, nph, 4, ...).

        L_k = ig0 (a_k d/dtheta + b_k d/dphi) with ig0 in place of i:
        L_1 = ig0 (sin(phi) d_theta + cot(theta) cos(phi) d_phi),
        L_2 = ig0 (-cos(phi) d_theta + cot(theta) sin(phi) d_phi),
        L_3 = -ig0 d_phi.  The matrix ig0 multiplies the spinor index (axis 2).
        """
        if k not in (1, 2, 3):
            raise ValueError("k must be 1, 2 or 3")
        a, b = (c.reshape(c.shape + (1,) * (F.ndim - 2)) for c in self._lcoef[k - 1])
        inner = b * self.dphi(F)
        if k != 3:
            inner += a * self.dtheta(F)
        return _spin(_G, inner)

    def sigma_dot_L(self, F: np.ndarray) -> np.ndarray:
        """Apply sigma.L = sum_k sigma^k L_k (spin times orbital).

        Collected by derivative, sigma.L = A d/dtheta + B d/dphi with
        A = sin(phi) sigma^1 G - cos(phi) sigma^2 G and
        B = cot(theta) (cos(phi) sigma^1 G + sin(phi) sigma^2 G) - sigma^3 G,
        G = ig0: one d/dtheta, one d/dphi and two batched 4x4 matmuls.
        """
        A, B = self._sl
        return _spin(A, self.dtheta(F)) + _spin(B, self.dphi(F))

    def integrate(self, F: np.ndarray) -> np.ndarray:
        """Quadrature over the sphere; F shape (nth, nph, ...)."""
        return np.einsum('xy,xy...->...', self.weights, F)


def _spin(M: np.ndarray, F: np.ndarray) -> np.ndarray:
    """M F on the spinor axis 2 of F (nth, nph, 4, ...); M is (4, 4) or (nth, nph, 4, 4)."""
    return (M @ F.reshape(F.shape[:3] + (-1,))).reshape(F.shape)


def _radial(theta, phi, mats) -> np.ndarray:
    """xhat_k mats[k] along the radial unit vector xhat(theta, phi)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    xh = np.stack([np.sin(theta) * np.cos(phi),
                   np.sin(theta) * np.sin(phi),
                   np.broadcast_to(np.cos(theta), np.broadcast_shapes(theta.shape, phi.shape))], -1)
    return np.einsum('...k,kab->...ab', xh, np.stack(mats))


def sigma_r(theta, phi) -> np.ndarray:
    """Radial spin matrix sigma^r = xhat_k sigma^k."""
    return _radial(theta, phi, SIGMA)


def gamma_r(theta, phi) -> np.ndarray:
    """Radial Majorana matrix i gamma^r = xhat_k (i gamma^k)."""
    return _radial(theta, phi, _IG[1:])


def angular_modes(lmax: int):
    """All (l, mu) with 1 <= l <= lmax and -l <= mu <= l - 1, in scan order."""
    return [(l, mu) for l in range(1, lmax + 1) for mu in range(-l, l)]


def omega_matrix(l: int, mu: int, theta, phi) -> np.ndarray:
    """Total-angular-momentum matrix Omega_{l,mu}(theta, phi).

    Combines Y_{l,.} with the spin-up projector and Y_{l-1,.} with spin-down,
    with square-root Clebsch weights; broadcasts over theta/phi to shape
    ``broadcast + (4, 4)``.  Requires l >= 1 and -l <= mu <= l-1 (the mu = l
    column is identically zero and is excluded from the index range).
    """
    if l < 1 or not (-l <= mu <= l - 1):
        raise ValueError("need l >= 1 and -l <= mu <= l-1")
    s1 = SIGMA[0]
    out = (-np.sqrt((l - mu) / (2 * l + 1))) * (majorana_Y(l, mu, theta, phi) @ PROJ_UP)
    out += np.sqrt((l + mu + 1) / (2 * l + 1)) * (majorana_Y(l, mu + 1, theta, phi) @ (s1 @ PROJ_UP))
    if l + mu > 0:
        out += np.sqrt((l + mu) / (2 * l - 1)) * (majorana_Y(l - 1, mu, theta, phi) @ (s1 @ PROJ_DN))
    if l - mu - 1 > 0:
        out += np.sqrt((l - mu - 1) / (2 * l - 1)) * (majorana_Y(l - 1, mu + 1, theta, phi) @ PROJ_DN)
    return out


def sph_jn_table(lmax: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_l(x) for l = 0..lmax, vectorized in x.

    Three regimes per point: a power series for x < 1e-3, upward recurrence
    for x >= max(l, 1) (stable there), and Miller's downward recurrence with
    normalization against j_0 (or j_1 near zeros of j_0) otherwise.  An
    overflow guard rescales the downward sweep when entries exceed 1e250.
    """
    x = np.asarray(x, dtype=float)
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    shape = (lmax + 1,) + x.shape
    small = x < 1e-3
    xs = np.where(small, 1.0, x)   # avoid 0/0 in the generic formulas

    up = np.empty(shape)
    up[0] = np.sin(xs) / xs
    if lmax >= 1:
        up[1] = np.sin(xs) / xs ** 2 - np.cos(xs) / xs
    for l in range(2, lmax + 1):
        up[l] = (2 * l - 1) / xs * up[l - 1] - up[l - 2]

    start = lmax + 20
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    down = np.empty(shape)
    for n in range(start, 0, -1):
        jm = (2 * n + 1) / xs * jc - jp
        if n - 1 <= lmax:
            down[n - 1] = jm
        jp, jc = jc, jm
        big = np.abs(jm) > 1e250
        if big.any():
            sc = np.where(big, 1e-250, 1.0)
            jp = jp * sc
            jc = jc * sc
            if n - 1 <= lmax:
                down[n - 1:] *= sc
    # normalize against j0, or j1 where j0 is near a zero
    with np.errstate(invalid='ignore', divide='ignore'):
        use1 = (np.abs(up[0]) < 1e-3 / np.maximum(xs, 1.0)) if lmax >= 1 else np.zeros_like(x, bool)
        scale0 = up[0] / down[0]
        if lmax >= 1:
            scale1 = up[1] / down[1]
            scale = np.where(use1, scale1, scale0)
        else:
            scale = scale0
    down = down * scale

    lg = np.arange(lmax + 1).reshape((lmax + 1,) + (1,) * x.ndim)
    out = np.where(x >= np.maximum(lg, 1.0), up, down)
    for l in range(lmax + 1):
        dfac = np.prod(np.arange(1, 2 * l + 2, 2), dtype=float)   # (2l+1)!!
        series = x ** l / dfac * (1.0 - x * x / (2.0 * (2 * l + 3)))
        out[l] = np.where(small, series, out[l])
    return out
