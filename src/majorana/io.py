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
inputs give byte-identical files.  The CSV writer is a block formatter: each
1-d axis is formatted once, and each slab of at most _SLAB_ROWS rows is one
'%'-template call with the coordinates in place; no file is held whole.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .fourier import CartesianGrid, MomentumSpectrum, SpacetimeField, SpinorField
from .hankel import HankelSpectrum, SphericalField, SphericalGrid

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


_SLAB_ROWS = 1024   # rows per formatting call, unless the last axis is longer


def _write_grid_csv(path, header: str, axes, values: np.ndarray) -> None:
    """One row per point of the product of the 1-d axes (float arrays, or lists
    of ready-made fields free of '%'), in array order: coordinates, then values."""
    fields = [a if isinstance(a, list) else ['%.17g' % v for v in a.tolist()]
              for a in axes]
    row = ','.join(['%.17g'] * values.shape[-1]) + '\n'
    k = len(fields) - 1           # axes k.. make one template of rows
    while k > 0 and math.prod(map(len, fields[k - 1:])) <= _SLAB_ROWS:
        k -= 1
    tail = ['', *(','.join(x) + ',' + row for x in itertools.product(*fields[k:]))]
    slabs = values.reshape(-1, len(tail) - 1, values.shape[-1])
    with open(path, 'w', newline='\n') as fh:
        fh.write(header + '\n')
        for lead, slab in zip(itertools.product(*fields[:k]), slabs):
            # the leading coordinates, as the separator, prefix every row
            fh.write(''.join(c + ',' for c in lead).join(tail)
                     % tuple(slab.ravel().tolist()))


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
