"""Serialization round trips and format validation."""

import itertools
import os
import struct
import tracemalloc

import numpy as np
import pytest

from majorana import fourier, hankel, io

RNG = np.random.default_rng(17)


def cart_field(n=4, L=4.0, m=1.5):
    return fourier.SpinorField(fourier.CartesianGrid(n, L),
                               RNG.standard_normal((n, n, n, 4)), m)


def test_maj1_roundtrip_exact(tmp_path):
    f = cart_field()
    p = tmp_path / "f.maj1"
    io.write_maj1(p, f)
    f2 = io.read_maj1(p)
    assert isinstance(f2, fourier.SpinorField)
    assert (f2.grid.n, f2.grid.L, f2.mass) == (4, 4.0, 1.5)
    np.testing.assert_array_equal(f2.values, f.values)


def test_maj1_spacetime_roundtrip(tmp_path):
    g = fourier.CartesianGrid(4, 4.0)
    f4 = fourier.SpacetimeField(g, 2.5, RNG.standard_normal((3, 4, 4, 4, 4)), 0.0)
    p = tmp_path / "f4.maj1"
    io.write_maj1(p, f4)
    back = io.read_maj1(p)
    assert isinstance(back, fourier.SpacetimeField)
    assert back.Lt == 2.5 and back.mass == 0.0
    np.testing.assert_array_equal(back.values, f4.values)


def test_maj1_rejects_wrong_type(tmp_path):
    with pytest.raises(TypeError):
        io.write_maj1(tmp_path / "x.maj1", np.zeros(3))


def test_maj1_bad_magic(tmp_path):
    p = tmp_path / "bad.maj1"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(io.FormatError, match="magic"):
        io.read_maj1(p)


def test_maj1_bad_version(tmp_path):
    f = cart_field()
    p = tmp_path / "v.maj1"
    io.write_maj1(p, f)
    raw = bytearray(p.read_bytes())
    raw[4] = 9  # version field
    p.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="version"):
        io.read_maj1(p)


def test_maj1_truncated(tmp_path):
    f = cart_field()
    p = tmp_path / "t.maj1"
    io.write_maj1(p, f)
    p.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(io.FormatError, match="truncated"):
        io.read_maj1(p)


MAJ1_HEADER = 4 + 8 + 3 * 4 + 3 * 8 + 8          # rank-3 header bytes


def test_maj1_truncated_at_every_header_offset(tmp_path):
    p = tmp_path / "h.maj1"
    io.write_maj1(p, cart_field())
    raw = p.read_bytes()
    cut = tmp_path / "cut.maj1"
    for k in range(MAJ1_HEADER + 9):      # every header byte, then into the data
        cut.write_bytes(raw[:k])
        with pytest.raises(io.FormatError):
            io.read_maj1(cut)


def test_maj1_magic_and_version_only(tmp_path):
    p = tmp_path / "v.maj1"
    p.write_bytes(b"MAJ1" + np.array([1], dtype='<u4').tobytes())
    with pytest.raises(io.FormatError, match="truncated header"):
        io.read_maj1(p)


def test_maj1_rejects_trailing_bytes_and_huge_dims(tmp_path):
    p = tmp_path / "f.maj1"
    io.write_maj1(p, cart_field())
    raw = p.read_bytes()
    p.write_bytes(raw + b"\0" * 8)
    with pytest.raises(io.FormatError, match="trailing"):
        io.read_maj1(p)
    # dims of 2^31 per axis: rejected by the length check, nothing allocated
    big = bytearray(raw)
    big[12:24] = np.array([2 ** 31] * 3, dtype='<u4').tobytes()
    p.write_bytes(bytes(big))
    with pytest.raises(io.FormatError, match="truncated"):
        io.read_maj1(p)


@pytest.mark.parametrize("offset", [24, 32, 40, 48])   # the three L, then mass
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_maj1_rejects_non_finite_geometry(tmp_path, offset, bad):
    p = tmp_path / "f.maj1"
    io.write_maj1(p, cart_field())
    raw = bytearray(p.read_bytes())
    raw[offset:offset + 8] = np.array([bad]).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="finite"):
        io.read_maj1(p)


def test_maj1_rejects_degenerate_grid(tmp_path):
    g = fourier.CartesianGrid(2, 2.0)
    p = tmp_path / "g.maj1"
    io.write_maj1(p, fourier.SpinorField(g, np.zeros((2, 2, 2, 4)), 1.0))
    raw = bytearray(p.read_bytes())
    raw[12:24] = np.array([1, 1, 1], dtype='<u4').tobytes()   # odd n
    p.write_bytes(bytes(raw[:MAJ1_HEADER]) + b"\0" * 32)
    with pytest.raises(io.FormatError, match="geometry"):
        io.read_maj1(p)


def test_majs_roundtrip_exact(tmp_path):
    g = hankel.SphericalGrid(16, 8.0, 6, 12, 2, 16)
    f = hankel.SphericalField(g, RNG.standard_normal((16, 6, 12, 4)), 0.7)
    p = tmp_path / "f.majs"
    io.write_majs(p, f)
    back = io.read_majs(p, lmax=2, np_points=16)
    assert back.mass == 0.7
    assert (back.grid.nr, back.grid.rmax) == (16, 8.0)
    assert back.grid.lmax == 2 and back.grid.np_points == 16
    np.testing.assert_array_equal(back.values, f.values)


@pytest.mark.parametrize("strided", [False, True])
def test_binary_writers_match_an_independent_packing(tmp_path, strided):
    # the writers stream the values' buffer; their bytes equal a struct header
    # plus tobytes, for C-contiguous values and for a transposed view
    rng = np.random.default_rng(3)

    def values(shape):
        v = rng.standard_normal(shape[::-1]).T if strided else rng.standard_normal(shape)
        assert v.flags.c_contiguous is not strided
        return v

    n, L, m = 4, 3.0, 0.5
    f = fourier.SpinorField(fourier.CartesianGrid(n, L), values((n, n, n, 4)), m)
    io.write_maj1(tmp_path / "f.maj1", f)
    want = (b"MAJ1" + struct.pack('<5I', 1, 3, n, n, n) + struct.pack('<4d', L, L, L, m)
            + f.values.astype('<f8').tobytes())
    assert (tmp_path / "f.maj1").read_bytes() == want

    g = hankel.SphericalGrid(16, 8.0, 6, 12, 2, 20)
    s = hankel.SphericalField(g, values((16, 6, 12, 4)), m)
    io.write_majs(tmp_path / "f.majs", s)
    want = (b"MAJS" + struct.pack('<6I', 2, 16, 6, 12, 2, 20) + struct.pack('<2d', 8.0, m)
            + b"".join(a.astype('<f8').tobytes()
                       for a in (g.r, g.angular.x, g.angular.phi, s.values)))
    assert (tmp_path / "f.majs").read_bytes() == want


def test_majs_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.majs"
    p.write_bytes(b"MAJ1" + b"\0" * 64)
    with pytest.raises(io.FormatError, match="magic"):
        io.read_majs(p)
    g = hankel.SphericalGrid(16, 8.0, 6, 12, 1, 16)
    f = hankel.SphericalField(g, np.zeros((16, 6, 12, 4)), 1.0)
    q = tmp_path / "t.majs"
    io.write_majs(q, f)
    q.write_bytes(q.read_bytes()[:-8])
    with pytest.raises(io.FormatError, match="truncated"):
        io.read_majs(q)


MAJS_HEADER = 4 + 4 * 4 + 2 * 8                  # version 1
MAJS2_HEADER = 4 + 6 * 4 + 2 * 8                 # version 2: + lmax, np_points


def as_v1(raw: bytes) -> bytes:
    """A version-2 MAJS file as version 1 writes it: no lmax, np_points."""
    return raw[:4] + np.array([1], dtype='<u4').tobytes() + raw[8:20] + raw[28:]


def small_majs(tmp_path, version=1):
    g = hankel.SphericalGrid(16, 8.0, 6, 12, 1, 16)
    p = tmp_path / "s.majs"
    io.write_majs(p, hankel.SphericalField(g, RNG.standard_normal((16, 6, 12, 4)), 1.0))
    if version == 1:
        p.write_bytes(as_v1(p.read_bytes()))
    return p


def test_majs_truncated_at_every_header_offset(tmp_path):
    raw = small_majs(tmp_path).read_bytes()
    cut = tmp_path / "cut.majs"
    nodes = 8 * (16 + 6 + 12)
    for k in range(MAJS_HEADER + nodes + 9):   # header, node arrays, into the data
        cut.write_bytes(raw[:k])
        with pytest.raises(io.FormatError):
            io.read_majs(cut, lmax=1, np_points=16)


@pytest.mark.parametrize("offset", [20, 28])           # rmax, mass
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_majs_rejects_non_finite_geometry(tmp_path, offset, bad):
    p = small_majs(tmp_path)
    raw = bytearray(p.read_bytes())
    raw[offset:offset + 8] = np.array([bad]).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="finite"):
        io.read_majs(p, lmax=1, np_points=16)


def test_majs_rejects_huge_dims_and_trailing_bytes(tmp_path):
    p = small_majs(tmp_path)
    raw = p.read_bytes()
    p.write_bytes(raw + b"\0" * 8)
    with pytest.raises(io.FormatError, match="trailing"):
        io.read_majs(p, lmax=1, np_points=16)
    big = bytearray(raw)
    big[8:20] = np.array([2 ** 31] * 3, dtype='<u4').tobytes()
    p.write_bytes(bytes(big))
    with pytest.raises(io.FormatError, match="truncated"):
        io.read_majs(p, lmax=1, np_points=16)


def test_majs_node_consistency_check(tmp_path):
    g = hankel.SphericalGrid(16, 8.0, 6, 12, 1, 16)
    f = hankel.SphericalField(g, np.zeros((16, 6, 12, 4)), 1.0)
    p = tmp_path / "n.majs"
    io.write_majs(p, f)
    raw = bytearray(as_v1(p.read_bytes()))
    # corrupt the first stored radial node (offset: magic 4 + 4 u32 + 2 f64)
    raw[36:44] = np.array([99.0]).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="nodes"):
        io.read_majs(p)


def test_majs_v2_stores_lmax_and_np_points(tmp_path):
    p = small_majs(tmp_path, version=2)
    assert np.frombuffer(p.read_bytes()[4:28], dtype='<u4').tolist() == [2, 16, 6, 12, 1, 16]
    back = io.read_majs(p)
    assert (back.grid.lmax, back.grid.np_points) == (1, 16)
    np.testing.assert_array_equal(io.read_majs(p, lmax=1, np_points=16).values,
                                  back.values)
    for kw in ({"lmax": 2}, {"np_points": 32}):
        with pytest.raises(io.FormatError, match="disagree"):
            io.read_majs(p, **kw)


def test_majs_v1_reads_with_default_or_given_lmax_and_np_points(tmp_path):
    p = small_majs(tmp_path, version=1)
    back = io.read_majs(p)
    assert (back.grid.lmax, back.grid.np_points) == (5, 16)
    back = io.read_majs(p, lmax=2, np_points=8)
    assert (back.grid.lmax, back.grid.np_points) == (2, 8)


def test_majs_v2_truncated_at_every_header_offset(tmp_path):
    raw = small_majs(tmp_path, version=2).read_bytes()
    cut = tmp_path / "cut.majs"
    nodes = 8 * (16 + 6 + 12)
    for k in range(MAJS2_HEADER + nodes + 9):
        cut.write_bytes(raw[:k])
        with pytest.raises(io.FormatError):
            io.read_majs(cut)


@pytest.mark.parametrize("offset", [28, 36])           # rmax, mass
def test_majs_v2_rejects_non_finite_geometry(tmp_path, offset):
    p = small_majs(tmp_path, version=2)
    raw = bytearray(p.read_bytes())
    raw[offset:offset + 8] = np.array([np.nan]).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="finite"):
        io.read_majs(p)


@pytest.mark.parametrize("lmax, np_points", [
    (2 ** 31, 16), (33, 16), (1, 2 ** 31), (1, 2 ** 20 + 1), (0, 16), (1, 1)])
def test_majs_v2_rejects_bad_lmax_and_np_points(tmp_path, lmax, np_points):
    # past SphericalGrid's caps a hostile header fails before any table is built
    p = small_majs(tmp_path, version=2)
    raw = bytearray(p.read_bytes())
    raw[20:28] = np.array([lmax, np_points], dtype='<u4').tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="geometry"):
        io.read_majs(p)


@pytest.mark.parametrize("dims, lmax, np_points", [
    ((8, 4, 4), 5, 256),            # the smallest grid a config may give, default lmax/np
    ((16, 8, 16), 10, 16), ((8, 4, 4), 1, 2 ** 20)])
def test_majs_v2_roundtrip_small_or_oversampled_grids(tmp_path, dims, lmax, np_points):
    nr, ntheta, nphi = dims
    g = hankel.SphericalGrid(nr, 8.0, ntheta, nphi, lmax, np_points)
    f = hankel.SphericalField(g, RNG.standard_normal((*dims, 4)), 1.0)
    p = tmp_path / "f.majs"
    io.write_majs(p, f)
    back = io.read_majs(p)
    assert (back.grid.lmax, back.grid.np_points) == (lmax, np_points)
    np.testing.assert_array_equal(back.values, f.values)


def test_majs_v2_node_consistency_check(tmp_path):
    p = small_majs(tmp_path, version=2)
    raw = bytearray(p.read_bytes())
    raw[MAJS2_HEADER:MAJS2_HEADER + 8] = np.array([99.0]).tobytes()   # first r node
    p.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="nodes"):
        io.read_majs(p)


def test_field_csv_values_roundtrip_17g(tmp_path):
    f = cart_field(n=2)
    p = tmp_path / "f.csv"
    io.write_field_csv(p, f)
    lines = p.read_text().splitlines()
    assert lines[0] == "x,y,z,psi0,psi1,psi2,psi3"
    assert len(lines) == 1 + 2 ** 3
    got = np.array([[float(c) for c in ln.split(',')[3:]] for ln in lines[1:]])
    np.testing.assert_array_equal(got.reshape(2, 2, 2, 4), f.values)


def test_csv_deterministic(tmp_path):
    f = cart_field()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_field_csv(a, f)
    io.write_field_csv(b, f)
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_csv_shape(tmp_path):
    g = fourier.CartesianGrid(4, 4.0)
    spec = fourier.MomentumSpectrum(g, RNG.standard_normal((4, 4, 4, 4)), 1.0)
    p = tmp_path / "s.csv"
    io.write_spectrum_csv(p, spec)
    lines = p.read_text().splitlines()
    assert lines[0] == "px,py,pz,psi0,psi1,psi2,psi3"
    assert len(lines) == 1 + 4 ** 3


def test_hankel_csv_mode_labels(tmp_path):
    g = hankel.SphericalGrid(8, 4.0, 4, 8, 2, 8)
    spec = hankel.HankelSpectrum(g, RNG.standard_normal((8, len(g.modes), 4)), 1.0)
    p = tmp_path / "h.csv"
    io.write_hankel_csv(p, spec)
    lines = p.read_text().splitlines()
    assert lines[0] == "p,l,mu,psi0,psi1,psi2,psi3"
    assert len(lines) == 1 + 8 * len(g.modes)
    first = lines[1].split(',')
    assert (int(first[1]), int(first[2])) == g.modes[0]
    got = np.array([float(c) for c in first[3:]])
    np.testing.assert_array_equal(got, spec.values[0, 0])


def test_spherical_and_spacetime_csv_headers(tmp_path):
    g = hankel.SphericalGrid(8, 4.0, 4, 8, 1, 8)
    f = hankel.SphericalField(g, np.zeros((8, 4, 8, 4)), 1.0)
    ps = tmp_path / "sph.csv"
    io.write_spherical_csv(ps, f)
    assert ps.read_text().splitlines()[0] == "r,theta,phi,psi0,psi1,psi2,psi3"
    gc = fourier.CartesianGrid(2, 2.0)
    f4 = fourier.SpacetimeField(gc, 1.0, np.zeros((2, 2, 2, 2, 4)), 1.0)
    pt = tmp_path / "st.csv"
    io.write_spacetime_csv(pt, f4)
    lines = pt.read_text().splitlines()
    assert lines[0] == "x0,x1,x2,x3,psi0,psi1,psi2,psi3"
    assert len(lines) == 1 + 2 * 2 ** 3


# ------------------------------------------------- CSV golden byte identity

SPECIAL = [-0.0, 0.0, 1.0, 5e-324, 1e-300, 1e300, np.nan, np.inf, -np.inf]


def golden_values(shape):
    """Random values over many decades, the special values at both ends."""
    v = RNG.standard_normal(shape) * 10.0 ** RNG.integers(-30, 30, shape)
    flat = v.reshape(-1)
    flat[:len(SPECIAL)] = SPECIAL
    flat[-len(SPECIAL):] = SPECIAL[::-1]
    return v


def per_value_csv(path, header, rows):
    """Reference writer: one format(v, '.17g') per numeric field, strings as
    they are, fields joined row by row."""
    with open(path, 'w', newline='\n') as fh:
        fh.write(header + '\n')
        for row in rows:
            fh.write(','.join(c if isinstance(c, str) else format(float(c), '.17g')
                              for c in row) + '\n')


def grid_rows(axes, values):
    return ([*x, *v] for x, v in zip(itertools.product(*axes),
                                     values.reshape(-1, values.shape[-1])))


def golden_case(name):
    """(writer call, header, reference rows) on a small grid, odd-sized
    wherever the grid allows it."""
    g = fourier.CartesianGrid(4, 3.7)
    if name == "field":
        f = fourier.SpinorField(g, golden_values((4, 4, 4, 4)), 1.0)
        return (lambda p: io.write_field_csv(p, f), "x,y,z,psi0,psi1,psi2,psi3",
                grid_rows((g.xs,) * 3, f.values))
    if name == "spacetime":
        f4 = fourier.SpacetimeField(g, 2.9, golden_values((3, 4, 4, 4, 4)), 1.0)
        ts = np.arange(3) * (2.9 / 3)
        return (lambda p: io.write_spacetime_csv(p, f4),
                "x0,x1,x2,x3,psi0,psi1,psi2,psi3",
                grid_rows((ts,) + (g.xs,) * 3, f4.values))
    if name == "spectrum":
        spec = fourier.MomentumSpectrum(g, golden_values((4, 4, 4, 4)), 1.0)
        ps = 2 * np.pi * g.ks / g.L
        return (lambda p: io.write_spectrum_csv(p, spec),
                "px,py,pz,psi0,psi1,psi2,psi3", grid_rows((ps,) * 3, spec.values))
    sg = hankel.SphericalGrid(9, 7.3, 5, 6, 2, 7)
    if name == "spherical":
        f = hankel.SphericalField(sg, golden_values((9, 5, 6, 4)), 1.0)
        return (lambda p: io.write_spherical_csv(p, f),
                "r,theta,phi,psi0,psi1,psi2,psi3",
                grid_rows((sg.r, sg.angular.theta, sg.angular.phi), f.values))
    if name == "hankel":
        hs = hankel.HankelSpectrum(sg, golden_values((7, len(sg.modes), 4)), 1.0)
        return (lambda p: io.write_hankel_csv(p, hs), "p,l,mu,psi0,psi1,psi2,psi3",
                ([sg.p[k], str(l), str(mu), *hs.values[k, i]]
                 for k in range(7) for i, (l, mu) in enumerate(sg.modes)))
    rows = [(k, *v) for k, v in enumerate(golden_values((11, 6)))]
    return (lambda p: io.write_frames_csv(p, "step,t,norm,energy,cx,cy,cz", rows),
            "step,t,norm,energy,cx,cy,cz", ([str(k), *v] for k, *v in rows))


@pytest.mark.parametrize("slab_rows", [1, 5, 1024])
@pytest.mark.parametrize("name", ["field", "spacetime", "spherical", "spectrum",
                                  "hankel", "frames"])
def test_csv_bytes_match_per_value_writer(tmp_path, monkeypatch, name, slab_rows):
    # the block formatter must write exactly the per-value writer's bytes;
    # small slab caps put slab boundaries inside these small grids
    monkeypatch.setattr(io, "_SLAB_ROWS", slab_rows)
    write, header, rows = golden_case(name)
    got, want = tmp_path / "block.csv", tmp_path / "ref.csv"
    write(got)
    per_value_csv(want, header, rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("slab_rows", [1, 7, "default"])
def test_shell_csv_bytes_match_across_default_slabs(tmp_path, monkeypatch, slab_rows):
    # a Gaussian shell on 64 x 8 x 16 = 8,192 rows, values from about 1e-300
    # up to 1: at the default cap the rows cross several slab boundaries
    g = hankel.SphericalGrid(64, 40.0, 8, 16, 2, 64)
    shell = np.exp(-(g.r - 10.0) ** 2 / 1.3)[:, None, None, None]
    f = hankel.SphericalField(
        g, shell * np.random.default_rng(64).standard_normal((64, 8, 16, 4)), 1.0)
    size = np.abs(f.values)
    assert size.min() < 1e-295 and size.max() > 0.5
    assert size[..., 0].size > 2 * io._SLAB_ROWS
    if slab_rows != "default":
        monkeypatch.setattr(io, "_SLAB_ROWS", slab_rows)
    got, want = tmp_path / "block.csv", tmp_path / "ref.csv"
    io.write_spherical_csv(got, f)
    per_value_csv(want, "r,theta,phi,psi0,psi1,psi2,psi3",
                  grid_rows((g.r, g.angular.theta, g.angular.phi), f.values))
    assert got.read_bytes() == want.read_bytes()


# ------------------------------------------- the vectorized %.17g formatter

def formatted(values):
    """The CSV formatter's text of each value, in chunks that keep its
    temporaries small."""
    v = np.asarray(values, dtype=float).ravel()
    texts = []
    for a in range(0, len(v), 1 << 16):
        chunk = v[a:a + (1 << 16)]
        out = np.empty((len(chunk), 1, 48), np.uint8)
        io._g17(chunk[:, None], out)
        texts += out.tobytes().translate(None, b'\0').decode().split(',')[:-1]
    return texts


def exact_ties(rng, count):
    """Values m / 2**k whose exact decimal has 18 significant digits, the last
    a 5: halfway between two 17-digit neighbours."""
    k = rng.integers(3, 26, count)
    lo = -(-10 ** 17 // 5 ** k)                 # m * 5**k has 18 digits
    m = lo + rng.integers(0, 10 ** 18 // 5 ** k - lo)
    return np.ldexp((m | 1).astype(float), -k)


def powers_and_neighbours(rng):
    p = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                        [float(f"1e{k}") for k in range(-323, 309)]])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def short_decimals(rng):
    x = rng.standard_normal(30000) * 10.0 ** rng.integers(-12, 12, 30000)
    return np.concatenate([np.round(x, d) for d in range(10)])


FORMATTER_CASES = {   # each drawn with both signs
    "random bits": lambda rng: rng.integers(0, 2 ** 63, 500_000, dtype=np.uint64).view(float),
    "subnormals": lambda rng: rng.integers(1, 2 ** 52, 100_000, dtype=np.uint64).view(float),
    "powers and neighbours": powers_and_neighbours,
    "integers": lambda rng: np.arange(300_001, dtype=float),
    "short decimals": short_decimals,
    "ties": lambda rng: exact_ties(rng, 20000),
    "specials": lambda rng: np.array([
        2.0 ** -25, 1e16, 1e17, 99999999999999999.0, 9.99999999999999999e-5,
        np.finfo(float).max, 0.0, np.inf, np.nan, 1e-4, 1e-5]),
}


@pytest.mark.parametrize("name", list(FORMATTER_CASES))
def test_formatter_matches_format_17g(name):
    v = FORMATTER_CASES[name](np.random.default_rng(2024))
    values = np.concatenate([v, -v])
    want = [format(x, '.17g') for x in values.tolist()]
    got = formatted(values)
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_csv_writer_writes_one_slab_at_a_time(monkeypatch):
    # each slab of _SLAB_ROWS rows is one write, so small caps cross slab
    # boundaries inside small grids
    writes = []

    class Recorder:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, data):
            writes.append(len(data))

    monkeypatch.setattr(io, "open", Recorder, raising=False)
    f = cart_field(n=4)                                        # 64 rows
    for slab_rows, slabs in ((5, 13), (64, 1), (1024, 1)):
        monkeypatch.setattr(io, "_SLAB_ROWS", slab_rows)
        writes.clear()
        io.write_field_csv("unused.csv", f)
        assert len(writes) == 1 + slabs                        # the header, then slabs


def test_spherical_csv_writer_peak_memory():
    # 256 x 32 x 64 x 4 values (16.8 MB) stream through one slab buffer
    g = hankel.SphericalGrid(256, 40.0, 32, 64, 5, 256)
    f = hankel.SphericalField(g, RNG.standard_normal((256, 32, 64, 4)), 1.0)
    tracemalloc.start()
    try:
        io.write_spherical_csv(os.devnull, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak


def test_frames_csv_working_set_follows_the_rows():
    # sph-evolve's 201 frames: the writer's buffers are sized by the file's
    # rows, not by _SLAB_ROWS
    rows = [(k, 0.02 * k, 1.0 + 1e-15 * k, 1.25) for k in range(201)]
    io.write_frames_csv(os.devnull, "step,t,norm,energy", rows)   # builds the tables
    tracemalloc.start()
    try:
        io.write_frames_csv(os.devnull, "step,t,norm,energy", rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25e6, peak
