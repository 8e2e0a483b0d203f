"""Binary and CSV serialization of spinor fields and spectra.

Cartesian binary layout (magic ``MAJ1``): u32 version = 1, u32 rank (3 or 4),
rank u32 axis sizes, rank f64 box lengths, f64 mass, then row-major
little-endian f64 spinor components (4 per grid point).  Spherical layout
(magic ``MAJS``): u32 version = 2, u32 nr/ntheta/nphi/lmax/np_points, f64
rmax, f64 mass, node arrays (r, cos(theta), phi as f64), then spinor data
(nr, ntheta, nphi, 4) row-major.  Version 1, still read, lacks lmax and
np_points.

CSV exports carry one row per grid point: coordinate columns (x,y,z or
x0..x3 or r,theta,phi), then psi0..psi3; mode spectra use p,l,mu,psi0..psi3.
Every float is written as format(v, '.17g') would write it, so identical
inputs give byte-identical files.  The CSV writer formats in numpy, exactly,
with no per-float string call: each 1-d axis is formatted once, and each slab
of at most _SLAB_ROWS (1792) rows is laid out as zero-padded bytes, whose zero
bytes are dropped on write.  The slab and the formatter's buffers are allocated
once per file, for min(rows, _SLAB_ROWS) rows; no file is held whole.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .fourier import CartesianGrid, MomentumSpectrum, SpacetimeField, SpinorField

if TYPE_CHECKING:   # hankel loads in read_majs only, so cartesian runs never import it
    from .hankel import HankelSpectrum, SphericalField

__all__ = [
    "FormatError",
    "write_maj1",
    "read_maj1",
    "write_majs",
    "read_majs",
    "write_field_csv",
    "write_spacetime_csv",
    "write_spherical_csv",
    "write_spectrum_csv",
    "write_hankel_csv",
    "write_frames_csv",
]

_MAGIC_CART = b"MAJ1"
_MAGIC_SPH = b"MAJS"
_U32 = np.dtype('<u4')
_F64 = np.dtype('<f8')


class FormatError(ValueError):
    """Raised on bad magic, version, or inconsistent geometry while reading."""


def write_maj1(path, obj) -> None:
    """Write a SpinorField (rank 3) or SpacetimeField (rank 4)."""
    if not isinstance(obj, (SpinorField, SpacetimeField)):
        raise TypeError("expected SpinorField or SpacetimeField")
    dims = obj.values.shape[:-1]
    boxes = ((obj.Lt,) if isinstance(obj, SpacetimeField) else ()) + (obj.grid.L,) * 3
    with open(path, 'wb') as fh:
        fh.write(_MAGIC_CART)
        fh.write(np.array([1, len(dims), *dims], dtype=_U32).tobytes())
        fh.write(np.array([*boxes, obj.mass], dtype=_F64).tobytes())
        np.ascontiguousarray(obj.values, dtype=_F64).tofile(fh)   # no bytes copy


def _read(fh, count: int, dtype, what: str) -> np.ndarray:
    """Exactly count values of dtype from fh, else FormatError."""
    raw = fh.read(count * dtype.itemsize)
    if len(raw) != count * dtype.itemsize:
        raise FormatError(f"truncated header: {what}")
    return np.frombuffer(raw, dtype=dtype)


def _read_payload(fh, count: int) -> np.ndarray:
    """The remaining count f64 values, after checking the file length, so a
    hostile header cannot make the reader allocate more than the file holds."""
    here = fh.tell()
    left = fh.seek(0, 2) - here
    if left < 8 * count:
        raise FormatError(f"truncated spinor data: {left} bytes left, "
                          f"header declares {8 * count}")
    if left > 8 * count:
        raise FormatError(f"{left - 8 * count} trailing bytes after the spinor data")
    fh.seek(here)
    return np.frombuffer(fh.read(8 * count), dtype=_F64)


def read_maj1(path):
    """Read a MAJ1 file; returns SpinorField or SpacetimeField by rank."""
    with open(path, 'rb') as fh:
        if fh.read(4) != _MAGIC_CART:
            raise FormatError("bad magic (expected MAJ1)")
        version, rank = _read(fh, 2, _U32, "version/rank")
        if version != 1 or rank not in (3, 4):
            raise FormatError(f"unsupported version/rank: {version}/{rank}")
        dims = [int(d) for d in _read(fh, int(rank), _U32, "axis sizes")]
        boxes = _read(fh, int(rank), _F64, "box lengths")
        mass = float(_read(fh, 1, _F64, "mass")[0])
        if not np.isfinite([*boxes, mass]).all():
            raise FormatError("box lengths and mass must be finite")
        spatial = dims[-3:]
        if not (spatial[0] == spatial[1] == spatial[2]):
            raise FormatError("spatial axes must be cubic")
        if np.ptp(boxes[-3:]) != 0.0:
            raise FormatError("spatial box lengths must be equal")
        data = _read_payload(fh, math.prod(dims) * 4)   # exact, no int64 wrap
    if rank == 4 and not (dims[0] >= 1 and boxes[0] > 0):
        raise FormatError("bad geometry: time axis needs nt >= 1 and Lt > 0")
    try:
        grid = CartesianGrid(int(spatial[0]), float(boxes[-1]))
    except ValueError as e:
        raise FormatError(f"bad geometry: {e}")
    values = data.reshape(tuple(dims) + (4,)).copy()
    if rank == 3:
        return SpinorField(grid, values, mass)
    return SpacetimeField(grid, float(boxes[0]), values, mass)


def write_majs(path, field: SphericalField) -> None:
    g = field.grid
    with open(path, 'wb') as fh:
        fh.write(_MAGIC_SPH)
        fh.write(np.array([2, g.nr, g.angular.ntheta, g.angular.nphi, g.lmax,
                           g.np_points], dtype=_U32).tobytes())
        fh.write(np.array([g.rmax, field.mass], dtype=_F64).tobytes())
        for a in (g.r, g.angular.x, g.angular.phi, field.values):
            np.ascontiguousarray(a, dtype=_F64).tofile(fh)


def read_majs(path, lmax: int | None = None,
              np_points: int | None = None) -> SphericalField:
    """Read a MAJS file.  lmax/np_points set the transform side of the grid:
    version 2 stores them, and a value given here must agree; version 1 does
    not, so they default to 5 and nr."""
    from .hankel import SphericalField, SphericalGrid

    with open(path, 'rb') as fh:
        if fh.read(4) != _MAGIC_SPH:
            raise FormatError("bad magic (expected MAJS)")
        version, nr, ntheta, nphi = (int(v) for v in _read(fh, 4, _U32, "version/dims"))
        if version not in (1, 2):
            raise FormatError(f"unsupported version: {version}")
        if version == 2:
            saved = [int(v) for v in _read(fh, 2, _U32, "lmax/np_points")]
            if any(v not in (None, k) for v, k in zip((lmax, np_points), saved)):
                raise FormatError(f"lmax/np_points {lmax}/{np_points} disagree "
                                  f"with the file's {saved[0]}/{saved[1]}")
            lmax, np_points = saved
        rmax, mass = _read(fh, 2, _F64, "rmax/mass")
        if not np.isfinite([rmax, mass]).all():
            raise FormatError("rmax and mass must be finite")
        data = _read_payload(fh, nr + ntheta + nphi + nr * ntheta * nphi * 4)
    nn = nr + ntheta + nphi
    r, x, phi = data[:nr], data[nr:nr + ntheta], data[nr + ntheta:nn]
    try:
        grid = SphericalGrid(nr, float(rmax), ntheta, nphi,
                             5 if lmax is None else lmax, np_points or nr)
    except ValueError as e:
        raise FormatError(f"bad geometry: {e}")
    for stored, built, name in ((r, grid.r, 'r'), (x, grid.angular.x, 'costheta'),
                                (phi, grid.angular.phi, 'phi')):
        if not np.allclose(stored, built, atol=1e-12):
            raise FormatError(f"stored {name} nodes do not match the grid")
    values = data[nn:].reshape(nr, ntheta, nphi, 4).copy()
    return SphericalField(grid, values, float(mass))


_SLAB_ROWS = 1792   # rows formatted and written per slab

# The formatter writes each float as format(v, '.17g') does.  A finite v != 0
# is f * 2**e with 0.5 <= f < 1.  With X0 = floor(log10(2**(e-1))), the product
# v * 10**(16 - X0) lies in [1e16, 2e17); rounded, it is the 17 significant
# digits D, unless it rounds to 1e17 or more: f at least a per-e bound, where
# the decimal exponent X is X0 + 1 and the scale 2**e * 10**(15 - X0).  The
# scale 2**e * 10**(16 - X) is a double-double h1 + h2 + lo built from exact
# ints, and Dekker's product f * (h1 + h2) is exact, so the product's fraction
# is known to about 1e-13.  Non-finite values, and values within 1e-9
# of a rounding tie, are formatted one by one.  A value's text is laid out in
# a 48-byte field of six little-endian words: '-0.000', a pad byte and d0; four
# words 'P d P d P d P d' with the points P0..P15 before the digits d1..d16;
# 'e+ddd', the separator and two pad bytes.  The layout for the value's class,
# digit count nz and sign keeps the bytes its text uses and zeroes the rest,
# the digits are added in, and the writer drops every zero byte.
@functools.cache
def _tables() -> tuple:
    """The formatter's tables, built on first use: per e + 1073 the bound on f,
    per 2 (e + 1073) + X - X0 the scale's h1, h2, X + 324 and lo (both filled as
    exponents occur, 0 until then); the words 0 a 0 b 0 c 0 d of q = abcd; per
    chunk j and q, 2 nz if q's last nonzero digit is digit nz (else 0, but 2 in
    chunk 1); words 0-4 per (class, nz, sign), the class X + 4 in fixed notation
    (-4 <= X < 17), else 21; per X + 324, 36 times the class, and word 5."""
    digits = np.zeros((10000, 8), np.uint8)
    digits[:, 1::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    nz2 = np.zeros((4, 10000), np.uint8)    # chunk j: digits d(4j+1)..d(4j+4)
    for i in range(4):
        nz2[:, digits[:, 2 * i + 1] != 0] = 2 * i + 4 + np.arange(0, 32, 8, np.uint8)[:, None]
    nz2[0, 0] = 2
    i8 = np.int8                            # small types keep numpy's buffers small
    X, nz, neg = (a.ravel() for a in np.meshgrid(
        np.arange(-4, 18, dtype=i8), np.arange(18, dtype=i8), [False, True], indexing='ij'))
    fixed = X < 17
    ndig = np.where(fixed, np.maximum(nz, X + 1), nz)
    point = np.where(fixed, X, 0)           # the point follows digit `point`
    keep = np.zeros((len(X), 40), bool)
    keep[:, 0] = neg
    keep[:, 1:6] = fixed[:, None] & (X[:, None] <= np.array([-1, -1, -2, -3, -4], i8))
    keep[:, 7::2] = np.arange(17, dtype=i8) < ndig[:, None]
    keep[:, 8::2] = (np.arange(16, dtype=i8) == point[:, None]) & (ndig > point + 1)[:, None]
    words = np.where(keep, np.frombuffer(b"-0.000\x000" + b".0" * 16, np.uint8), 0)
    X = np.arange(-324, 309, dtype=np.int16)
    sci, a = (X < -4) | (X > 16), abs(X)
    tail = np.zeros((len(X), 8), np.uint8)
    tail[:, 0] = sci * ord('e')
    tail[:, 1] = sci * np.where(X < 0, ord('-'), ord('+'))
    tail[:, 2:5] = sci[:, None] * (48 + a[:, None] // np.array([100, 10, 1], np.int16) % 10)
    tail[a < 100, 2] = 0
    tail[:, 5] = ord(',')
    return (np.zeros(2098), np.zeros((4, 4196)), digits.view('<u8').ravel(), nz2,
            words.view('<u8').T.copy(), np.where(sci, 21, X + 4).astype(np.intp) * 36,
            tail.view('<u8').ravel())


def _scale(e: int) -> tuple:
    """The least f with f * 2**e * 10**(16 - X0) >= 1e17 - 1/2, and per X in
    X0, X0 + 1 the scale 2**e * 10**(16 - X) as h1, h2, X + 324 and lo."""
    n = e - 1
    x0 = len(str(2 ** n)) - 1 if n >= 0 else -len(str(2 ** -n))
    cols = []
    for x in (x0 + 1, x0):
        num = 2 ** max(e, 0) * 10 ** max(16 - x, 0)
        den = 2 ** max(-e, 0) * 10 ** max(x - 16, 0)
        hi = num / den                          # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        h1 = hi * 134217729.0                   # Veltkamp split
        h1 -= h1 - hi
        cols.insert(0, (h1, hi - h1, x + 324, (num * b - a * den) / (den * b)))
    least = -(-(2 * 10 ** 17 - 1) * den * 2 ** 53 // (2 * num))    # x is X0 here
    return least / 2 ** 53, list(zip(*cols))


def _workspace(n: int) -> tuple:
    """The formatter's buffers for n values: nine 8-byte rows, five byte rows."""
    return np.empty((9, n)), np.empty((5, n), bool)


def _g17(v: np.ndarray, out: np.ndarray, ws: tuple | None = None) -> None:
    """Write format(x, '.17g') + ',' for each x of v (rows, k) to the 48-byte
    fields of out (rows, k, 48), padded with zero bytes.  ws, a _workspace for
    at least v.size values, saves allocating one."""
    least, scale, digits, nz2, layout, cls36, tail = _tables()
    f8, flags = (a[:, :v.size].reshape(len(a), *v.shape)
                 for a in (_workspace(v.size) if ws is None else ws))
    F, A, B, F1, F2, P, T = f8[:7]          # A, B: h1, h2 (A also f's bound, lo)
    E, X = f8[7:].view(np.intp)             # E: e + 1073, then the scale's column
    C, D = f8[:6].view(np.int64), f8[4].view(np.int64)    # D in f2's row, once spent
    (odd, gt, tie), (nz, u8) = flags[:3], flags[3:].view(np.uint8)
    # |v| rounds to D * 10**(X - 16), 17 digits (0 at 0); odd: not finite; tie: near 1/2
    np.logical_not(np.isfinite(v, out=odd), out=odd)
    np.copyto(np.abs(v, out=F), 1.0, where=odd)
    np.frexp(F, out=(F, E))
    E += 1073
    np.take(least, E, out=A, mode='clip')
    if not A.all():
        least[E[A == 0]] = -1                   # the exponents met for the first time
        for k in np.flatnonzero(least < 0).tolist():
            least[k], scale[:, 2 * k:2 * k + 2] = _scale(k - 1073)
        np.take(least, E, out=A, mode='clip')
    E *= 2
    E += np.greater_equal(F, A, out=gt)     # X = X0 + 1 where f * scale rounds to 1e17
    np.take(scale[:3], E, axis=1, out=f8[1:4], mode='clip')   # h1, h2, X + 324
    np.copyto(X, F1, casting='unsafe')
    np.multiply(np.add(A, B, out=P), F, out=P)
    np.multiply(F, 134217729.0, out=F1)     # Veltkamp split
    F1 -= np.subtract(F1, F, out=F2)
    np.subtract(F, F1, out=F2)
    np.multiply(F1, A, out=T)           # t = f * scale - p, exact but for f * lo
    T -= P
    for a, b in ((F1, B), (F2, A), (F2, B)):
        T += np.multiply(a, b, out=F1)
    T += np.multiply(F, np.take(scale[3], E, out=A, mode='clip'), out=F1)    # f * lo
    np.copyto(D, P, casting='unsafe')
    T -= np.floor(T, out=P)             # the fraction
    np.copyto(C[0], P, casting='unsafe')
    D += C[0]                           # floor(f * scale)
    D += np.greater(T, 0.5, out=gt)
    np.copyto(X, 324, where=np.equal(v, 0, out=gt))
    np.less(np.abs(np.subtract(T, 0.5, out=T), out=T), 1e-9, out=tie)
    # D as d0 and four 4-digit chunks; words 0-4: layout plus digits, word 5: exponent
    for i in range(4, 0, -1):
        np.floor_divide(C[i], 10000, out=C[i - 1])
        C[i] -= np.multiply(C[i - 1], 10000, out=C[5])
    np.take(nz2[0], C[1], out=nz, mode='clip')
    for j in range(1, 4):                   # 2 nz, nz the digits to the last nonzero
        np.maximum(nz, np.take(nz2[j], C[j + 1], out=u8, mode='clip'), out=nz)
    np.take(cls36, X, out=E, mode='clip')   # E: the layout row
    E += nz
    E += np.signbit(v, out=gt)
    words = out.view('<u8')
    P, T = f8[5:7].view('<u8')
    for i in range(5):
        np.add(np.take(digits, C[i], out=P, mode='clip'),
               np.take(layout[i], E, out=T, mode='clip'), out=words[..., i])
    words[..., 5] = np.take(tail, X, out=P, mode='clip')
    for i in np.flatnonzero(np.logical_or(odd, tie, out=tie)).tolist():
        text = format(v.flat[i], '.17g').encode().ljust(45, b'\0')
        out[divmod(i, v.shape[1])][:45] = np.frombuffer(text, np.uint8)


def _fields(axis) -> np.ndarray:
    """An axis' fields, each with its ',', as a zero-padded uint8 matrix whose
    width is a multiple of 8."""
    if not isinstance(axis, list):
        m = np.empty((len(axis), 1, 48), np.uint8)
        _g17(axis[:, None], m)
        axis = m.tobytes().translate(None, b'\0').decode().split(',')[:-1]
    s = np.array([x.encode() + b',' for x in axis])
    return s.astype(f'S{-(-s.itemsize // 8) * 8}').view(np.uint8).reshape(len(axis), -1)


def _write_grid_csv(path, header: str, axes, values: np.ndarray) -> None:
    """One row per point of the product of the 1-d axes (float arrays, or lists
    of ready-made fields), in array order: coordinates, then values."""
    cols = [_fields(a) for a in axes]
    flat = values.reshape(-1, values.shape[-1])
    width = sum(c.shape[1] for c in cols) + 48 * flat.shape[1]
    raw = bytearray(max(1, min(len(flat), _SLAB_ROWS)) * width)   # one slab's rows
    buf = np.frombuffer(raw, np.uint8).reshape(-1, width)
    ws = _workspace(len(buf) * flat.shape[1])
    with open(path, 'wb') as fh:
        fh.write(header.encode() + b'\n')
        for a in range(0, len(flat), len(buf)):
            block = flat[a:a + len(buf)]
            rows = buf[:len(block)]
            buf[len(block):] = 0                                  # a shorter last slab
            at = np.unravel_index(np.arange(a, a + len(block)), [len(c) for c in cols])
            x = 0
            for c, i in zip(cols, at):
                np.take(c, i, axis=0, out=rows[:, x:x + c.shape[1]], mode='clip')
                x += c.shape[1]
            fields = rows[:, x:].reshape(len(block), -1, 48)
            _g17(block, fields, ws)
            fields[:, -1, 45] = ord('\n')
            fh.write(raw.translate(None, b'\0'))


def write_field_csv(path, field: SpinorField) -> None:
    _write_grid_csv(path, 'x,y,z,psi0,psi1,psi2,psi3', (field.grid.xs,) * 3,
                    field.values)


def write_spacetime_csv(path, f4: SpacetimeField) -> None:
    nt = f4.values.shape[0]
    ts = np.arange(nt) * (f4.Lt / nt)
    _write_grid_csv(path, 'x0,x1,x2,x3,psi0,psi1,psi2,psi3',
                    (ts,) + (f4.grid.xs,) * 3, f4.values)


def write_spherical_csv(path, field: SphericalField) -> None:
    g = field.grid
    _write_grid_csv(path, 'r,theta,phi,psi0,psi1,psi2,psi3',
                    (g.r, g.angular.theta, g.angular.phi), field.values)


def write_spectrum_csv(path, spec: MomentumSpectrum) -> None:
    ps = 2 * np.pi * spec.grid.ks / spec.grid.L
    _write_grid_csv(path, 'px,py,pz,psi0,psi1,psi2,psi3', (ps,) * 3, spec.values)


def write_hankel_csv(path, spec: HankelSpectrum) -> None:
    g = spec.grid
    _write_grid_csv(path, 'p,l,mu,psi0,psi1,psi2,psi3',
                    (g.p, [f"{l},{mu}" for l, mu in g.modes]), spec.values)


def write_frames_csv(path, header: str, rows) -> None:
    """A time series: per row an integer step, then numbers (t, norm, ...)."""
    _write_grid_csv(path, header, ([str(r[0]) for r in rows],),
                    np.array([r[1:] for r in rows], dtype=float))
