"""Command-line driver: exit codes, artifacts, determinism, config errors."""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from majorana import cli, fourier, hankel
from majorana import io as fio
from majorana.verify import VerifySettings

SMALL_VERIFY = {"command": "verify", "n": 8, "nr": 48, "rmax": 16.0,
                "ntheta": 12, "nphi": 24, "lmax": 2, "np": 48}
SMALL_SPH = {"nr": 48, "rmax": 16.0, "ntheta": 12, "nphi": 24,
             "lmax": 2, "np": 48}
NAN, INF = float("nan"), float("inf")


def write_cfg(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(tmp_path, command, doc, out="out"):
    cfg = write_cfg(tmp_path, f"{command}.json", doc)
    od = tmp_path / out
    code = cli.main([command, "--config", cfg, "--out", str(od), "--quiet"])
    return code, od


def load_summary(od, name="summary.json"):
    return json.loads((od / name).read_text())


def assert_snapped_p(s, p):
    # a spherical single mode sits on the momentum node nearest the request
    g = hankel.SphericalGrid(SMALL_SPH["nr"], SMALL_SPH["rmax"], SMALL_SPH["ntheta"],
                             SMALL_SPH["nphi"], SMALL_SPH["lmax"], SMALL_SPH["np"])
    kp = int(np.abs(g.p - p).argmin())
    assert s["initial_p_requested"] == p
    assert s["initial_p_node"] == g.p[kp]
    assert abs(s["initial_p_node"] - p) <= g.dp / 2


# -------------------------------------------------------------------- verify

def test_verify_small_passes(tmp_path):
    code, od = run(tmp_path, "verify", SMALL_VERIFY)
    assert code == 0
    rep = load_summary(od, "report.json")
    assert rep["passed"] is True
    assert len(rep["checks"]) >= 30


def test_verify_tolerance_override_fails(tmp_path):
    doc = dict(SMALL_VERIFY, tolerances={"fourier.roundtrip": 1e-30})
    code, od = run(tmp_path, "verify", doc)
    assert code == 1
    rep = load_summary(od, "report.json")
    failed = [c["test_id"] for c in rep["checks"] if not c["passed"]]
    assert failed == ["fourier.roundtrip"]


# -------------------------------------------------------------------- evolve

def test_evolve_cartesian_artifacts(tmp_path):
    doc = {"command": "evolve", "n": 8, "L": 8.0, "mass": 1.0,
           "time": {"steps": 5, "dt": 0.05},
           "output": {"formats": ["csv", "bin"]}}
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    s = load_summary(od)
    assert s["passed"] and s["max_norm_drift_rel"] <= 1e-12
    lines = (od / "frames.csv").read_text().splitlines()
    assert lines[0] == "step,t,norm,energy,cx,cy,cz"
    assert len(lines) == 1 + 6  # header + steps+1 frames
    assert (od / "final.csv").exists() and (od / "final.maj1").exists()


def test_evolve_deterministic(tmp_path):
    doc = {"command": "evolve", "n": 8, "mass": 1.0,
           "time": {"steps": 4, "dt": 0.1}, "seed": 5,
           "output": {"formats": ["csv", "bin"]}}
    _, od1 = run(tmp_path, "evolve", doc, out="o1")
    _, od2 = run(tmp_path, "evolve", doc, out="o2")
    assert (od1 / "frames.csv").read_bytes() == (od2 / "frames.csv").read_bytes()
    assert (od1 / "final.maj1").read_bytes() == (od2 / "final.maj1").read_bytes()


@pytest.mark.parametrize("domain", ["cartesian", "spherical"])
def test_evolve_zero_steps_writes_initial_field(tmp_path, domain):
    doc = {"command": "evolve", "n": 8} if domain == "cartesian" else dict(SMALL_SPH)
    doc.update(command="evolve", mass=1.0, time={"steps": 0}, output={"formats": ["bin"]})
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    cfg = cli.load_config(str(tmp_path / "evolve.json"), "evolve", None)
    if domain == "cartesian":
        field0, final = cli._start(cfg)[1], fio.read_maj1(od / "final.maj1")
    else:
        field0, final = cli._start(cfg)[1], fio.read_majs(od / "final.majs")
    np.testing.assert_array_equal(final.values, field0.values)


def test_evolve_boosted_packet_tracks_group_velocity(tmp_path):
    doc = {"command": "evolve", "n": 24, "L": 12.0, "mass": 1.0,
           "initial": {"type": "gaussian", "center": [4.0, 6.0, 6.0],
                       "width": 1.5, "boost": [1.2, 0.0, 0.0]},
           "time": {"steps": 60, "dt": 0.02}}
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    s = load_summary(od)
    vp, vm = s["group_velocity_predicted"], s["group_velocity_measured"]
    assert abs(vm[0] - vp[0]) <= 0.02 * abs(vp[0])
    assert abs(vm[1]) < 0.02 and abs(vm[2]) < 0.02


def test_evolve_backward_measures_signed_group_velocity(tmp_path):
    # a negative dt runs the packet backward: the measured velocity is the
    # signed displacement over the (negative) elapsed time
    doc = {"command": "evolve", "n": 24, "L": 12.0, "mass": 1.0,
           "initial": {"type": "gaussian", "center": [6.0, 6.0, 6.0],
                       "width": 1.5, "boost": [1.2, 0.0, 0.0]},
           "time": {"steps": 60, "dt": -0.02}}
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    s = load_summary(od)
    frames = np.loadtxt(od / "frames.csv", delimiter=",", skiprows=1)
    vx = (frames[-1, 4] - frames[0, 4]) / (60 * -0.02)
    assert abs(s["group_velocity_measured"][0] - vx) <= 1e-12
    vp = s["group_velocity_predicted"][0]
    assert abs(s["group_velocity_measured"][0] - vp) <= 0.1 * abs(vp)


def test_massless_boosted_evolve_drops_the_zero_mode(tmp_path):
    # the start's spectrum loses p = 0 as the massless transforms do, so the
    # summary matches the spectrum of the field the start writes
    doc = {"command": "evolve", "n": 8, "L": 8.0, "mass": 0.0,
           "initial": {"type": "gaussian", "center": [3.5, 4.0, 4.5],
                       "width": 1.2, "boost": [0.9, -0.4, 0.3]},
           "time": {"steps": 4, "dt": 0.05}}
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    s = load_summary(od)
    spec = fourier.forward(cli._start(cli.load_config(
        str(tmp_path / "evolve.json"), "evolve", None))[1])
    w = (spec.values ** 2).sum(-1)
    energy = float((spec.grid.energies(0.0) * w).sum() / w.sum())
    assert s["zero_mode_dropped"] is True
    assert s["norm_initial"] == pytest.approx(spec.norm2(), rel=1e-14)
    assert s["energy_expectation"] == pytest.approx(energy, rel=1e-14)


def per_step_frames(cfg):
    """frames.csv rows as evolve's per-step loop made them, with one evolve
    and one inverse per frame: the reference for evolved_densities."""
    grid, field0, spec0 = cli._start(cfg)[:3]
    if spec0 is None:
        spec0 = fourier.forward(field0)
    w = (spec0.values ** 2).sum(-1)
    energy = float((grid.energies(cfg.mass) * w).sum() / w.sum())
    rows = []
    for k in range(cfg.steps + 1):
        cur = fourier.evolve(spec0, k * cfg.dt) if k else spec0
        fld = fourier.inverse(cur) if k else field0
        dens = np.einsum('xyza,xyza->xyz', fld.values, fld.values)
        c = [dens.sum(axes) @ grid.xs for axes in ((1, 2), (0, 2), (0, 1))]
        rows.append([k, k * cfg.dt, cur.norm2(), energy, *(np.array(c) / dens.sum())])
    return np.array(rows), fourier.inverse(fourier.evolve(spec0, cfg.steps * cfg.dt))


def test_evolve_frames_match_the_per_step_loop(tmp_path):
    doc = {"command": "evolve", "n": 16, "L": 8.0, "mass": 1.0,
           "initial": {"type": "gaussian", "spinor": [0.5, -0.2, 0.7, 0.1],
                       "center": [3.5, 4.0, 4.5], "width": 1.2,
                       "boost": [0.9, -0.4, 0.3]},
           "time": {"steps": 20, "dt": 0.05},
           "output": {"formats": ["csv", "bin"]}}
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    want, final = per_step_frames(cli.load_config(str(tmp_path / "evolve.json"),
                                                  "evolve", None))
    got = np.loadtxt(od / "frames.csv", delimiter=",", skiprows=1)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(fio.read_maj1(od / "final.maj1").values, final.values)
    fio.write_field_csv(tmp_path / "final.csv", final)
    assert (od / "final.csv").read_bytes() == (tmp_path / "final.csv").read_bytes()


def test_evolve_zero_field_is_quiet(tmp_path):
    doc = {"command": "evolve", "n": 8, "mass": 1.0,
           "initial": {"type": "gaussian", "spinor": [0, 0, 0, 0]},
           "time": {"steps": 3, "dt": 0.1}}
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    rows = (od / "frames.csv").read_text().splitlines()[1:]
    norms = [float(r.split(',')[2]) for r in rows]
    assert norms == [0.0] * len(norms)


def test_evolve_spherical(tmp_path):
    doc = dict(SMALL_SPH, command="evolve", mass=1.0,
               initial={"type": "gaussian", "l": 1, "mu": 0},
               time={"steps": 5, "dt": 0.05},
               output={"formats": ["csv", "bin"]})
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    s = load_summary(od)
    assert s["domain"] == "spherical" and s["passed"]
    assert math.isfinite(s["tail_fraction"]) and 0 <= s["tail_fraction"] < 1e-8
    assert "initial_p_requested" not in s and "initial_p_node" not in s
    assert (od / "final.majs").exists()


def per_step_spherical(cfg):
    """A spherical evolve's frame norms, final field and tail fraction, with
    one evolve_hankel per frame and one inverse of the last: its reference."""
    _, field0, spec0 = cli._start(cfg)[:3]
    if spec0 is None:
        spec0 = hankel.forward_hankel(field0)
    norms = [(hankel.evolve_hankel(spec0, k * cfg.dt) if k else spec0).norm2()
             for k in range(cfg.steps + 1)]
    final = hankel.inverse_hankel(hankel.evolve_hankel(spec0, cfg.steps * cfg.dt))
    return norms, final, field0.tail_fraction()


@pytest.mark.parametrize("initial", [{"type": "gaussian", "l": 2, "mu": -1},
                                     {"type": "single-mode", "l": 2, "mu": -1, "p": 1.0}])
def test_spherical_evolve_matches_the_per_step_loop(tmp_path, initial):
    doc = dict(SMALL_SPH, command="evolve", mass=1.0, initial=initial,
               time={"steps": 10, "dt": 0.1}, output={"formats": ["csv", "bin"]})
    code, od = run(tmp_path, "evolve", doc)
    assert code == 0
    norms, final, tail = per_step_spherical(
        cli.load_config(str(tmp_path / "evolve.json"), "evolve", None))
    got = np.loadtxt(od / "frames.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(got[:, 2], norms)
    np.testing.assert_array_equal(fio.read_majs(od / "final.majs").values, final.values)
    assert load_summary(od)["tail_fraction"] == tail


@pytest.mark.filterwarnings("ignore:field tail")  # delta spectra do not decay
@pytest.mark.parametrize("command", ["evolve", "transform"])
def test_spherical_single_mode_records_snapped_p(tmp_path, capsys, command):
    doc = dict(SMALL_SPH, command=command, mass=1.0,
               initial={"type": "single-mode", "p": 1.5, "l": 2, "mu": -1})
    # the summary is written whatever the verdict: an undecayed delta
    # spectrum misses transform's 1e-4 round-trip threshold at rmax, and
    # the FAIL line names that tail as the cause
    code, _ = run(tmp_path, command, doc)
    assert_snapped_p(load_summary(tmp_path / "out"), 1.5)
    if command == "transform":
        last = capsys.readouterr().out.splitlines()[-1]
        assert code == 1
        assert last.startswith("FAIL: artifacts in")
        assert "the field's tail at rmax holds" in last
        assert "not the transform, sets the error" in last


@pytest.mark.filterwarnings("ignore:field tail")  # delta spectra do not decay
@pytest.mark.parametrize("domain", ["cartesian", "spherical"])
@pytest.mark.parametrize("command", ["evolve", "transform", "spectrum"])
def test_every_summary_records_its_caveats(tmp_path, command, domain):
    if domain == "cartesian":   # massless, so the p = 0 mode is dropped
        doc = {"n": 8, "L": 8.0, "mass": 0.0,
               "initial": {"type": "gaussian", "boost": [0.9, -0.4, 0.3]}}
    else:
        doc = dict(SMALL_SPH, mass=1.0,
                   initial={"type": "single-mode", "p": 1.5, "l": 2, "mu": -1})
    run(tmp_path, command, dict(doc, command=command, time={"steps": 2, "dt": 0.1}))
    s = load_summary(tmp_path / "out")
    if domain == "cartesian":
        assert s["zero_mode_dropped"] is True and "tail_fraction" not in s
    else:
        assert "zero_mode_dropped" not in s
        assert math.isfinite(s["tail_fraction"]) and 0 <= s["tail_fraction"] <= 1
        assert_snapped_p(s, 1.5)


# ----------------------------------------------------------------- transform

def test_transform_cartesian(tmp_path):
    doc = {"command": "transform", "n": 8, "mass": 2.0,
           "output": {"formats": ["csv", "bin"]}}
    code, od = run(tmp_path, "transform", doc)
    assert code == 0
    s = load_summary(od)
    assert s["passed"] and s["max_error_rel"] <= 1e-9
    assert not s["zero_mode_dropped"]
    for name in ("input.csv", "reconstruction.csv", "spectrum.csv",
                 "input.maj1", "reconstruction.maj1"):
        assert (od / name).exists()


def test_transform_massless_drops_zero_mode(tmp_path):
    doc = {"command": "transform", "n": 8, "mass": 0.0}
    code, od = run(tmp_path, "transform", doc)
    assert code == 0
    s = load_summary(od)
    assert s["zero_mode_dropped"] is True and s["passed"]


def test_transform_spherical(tmp_path):
    doc = dict(SMALL_SPH, command="transform", mass=1.0)
    code, od = run(tmp_path, "transform", doc)
    assert code == 0
    s = load_summary(od)
    assert s["domain"] == "spherical" and s["passed"]
    assert s["l2_error_rel"] <= 1e-4
    assert math.isfinite(s["tail_fraction"]) and 0 <= s["tail_fraction"] < 1e-8
    assert "initial_p_requested" not in s and "initial_p_node" not in s


def test_transform_respects_formats_csv_only(tmp_path):
    doc = {"command": "transform", "n": 8, "mass": 1.0,
           "output": {"formats": ["csv"]}}
    code, od = run(tmp_path, "transform", doc)
    assert code == 0
    assert (od / "input.csv").exists()
    assert not (od / "input.maj1").exists()


def test_absmax_is_max_abs():
    rng = np.random.default_rng(4)
    for a in [np.array([0.5, -3.0, 2.0]), np.array([[-0.0, 0.0]]), rng.standard_normal(50)]:
        assert cli._absmax(a) == np.abs(a).max()
        assert math.copysign(1.0, cli._absmax(a)) == 1.0
    assert math.isnan(cli._absmax(np.array([1.0, NAN, -2.0])))


@pytest.mark.parametrize("domain", ["cartesian", "spherical"])
def test_transform_nan_in_reconstruction_fails(tmp_path, monkeypatch, domain):
    # one NaN sample in the reconstruction must fail the round trip and be
    # written as null, not drop out of max_error_rel
    mod, name = (fourier, "inverse") if domain == "cartesian" else (hankel, "inverse_hankel")
    exact = getattr(mod, name)

    def poisoned(spec):
        fld = exact(spec)
        fld.values[(1,) * fld.values.ndim] = NAN
        return fld
    monkeypatch.setattr(mod, name, poisoned)
    doc = ({"command": "transform", "n": 8, "mass": 1.0} if domain == "cartesian"
           else dict(SMALL_SPH, command="transform", mass=1.0))
    code, od = run(tmp_path, "transform", doc)
    assert code == 1
    s = strict_json(od / "summary.json")
    assert s["passed"] is False and s["max_error_rel"] is None


# ------------------------------------------------------------------ spectrum

def test_spectrum_single_mode_is_sparse(tmp_path):
    doc = {"command": "spectrum", "n": 8, "mass": 1.0,
           "initial": {"type": "single-mode", "p": [2, -1, 0]}}
    code, od = run(tmp_path, "spectrum", doc)
    assert code == 0
    s = load_summary(od)
    assert s["peak_mode"] == [2, -1, 0]
    assert s["modes_above_1e-12_of_peak"] == 1
    assert s["dominant_single_mode"] is True
    assert s["peak_fraction"] > 0.999


@pytest.mark.filterwarnings("ignore:field tail")  # delta spectra do not decay
def test_spectrum_spherical_single_mode(tmp_path):
    doc = dict(SMALL_SPH, command="spectrum", mass=1.0,
               initial={"type": "single-mode", "p": 1.5, "l": 2, "mu": -1})
    code, od = run(tmp_path, "spectrum", doc)
    assert code == 0
    s = load_summary(od)
    p, l, mu = s["peak_mode"]
    assert (l, mu) == (2, -1)
    assert abs(p - 1.5) <= 0.5 * np.pi * 48 / 16.0 / 48  # within one dp bin
    assert s["dominant_single_mode"] is True
    assert math.isfinite(s["tail_fraction"]) and s["tail_fraction"] > 0
    assert_snapped_p(s, 1.5)


def test_run_config_defaults_are_the_only_defaults(tmp_path):
    # load_config fills every absent key from RunConfig, and verify's
    # settings share RunConfig's defaults field by field
    cfg = cli.load_config(write_cfg(tmp_path, "empty.json", {}), "verify", None)
    assert cfg == cli.RunConfig("verify")
    vs = VerifySettings()
    for f in dataclasses.fields(vs):
        assert getattr(cfg, f.name) == getattr(vs, f.name), f.name


# -------------------------------------------------------------- config errors

@pytest.mark.parametrize("doc", [
    {"command": "evolve", "masss": 1.0},                      # unknown key
    {"command": "evolve", "n": 7},                            # odd n
    {"command": "evolve", "np": 8, "np_points": 8, "nr": 48}, # duplicate key
    {"command": "evolve", "n": 8, "time": {"stepz": 3, "dt": 0.1}},  # nested typo
    {"command": "evolve", "n": 8, "nr": 48},                  # ambiguous domain
    {"command": "evolve", "n": 8, "output": {"formats": ["hdf5"]}},
    {"command": "evolve", "n": 8, "mass": -1.0},
    {"command": "evolve", "n": 8, "time": {"steps": -3, "dt": 0.1}},
    {"command": "evolve", "n": 8,
     "initial": {"type": "single-mode", "p": [4, 0, 0]}},     # Nyquist
    {"command": "evolve", "n": 8, "initial": {"type": "vortex"}},
    # non-finite values (Python's json reads NaN / Infinity literals)
    {"command": "evolve", "n": 8, "initial": {"spinor": [NAN, 0, 0, 0]}},
    {"command": "evolve", "n": 8, "initial": {"width": INF}},
    {"command": "evolve", "n": 8, "initial": {"center": [4.0, NAN, 4.0]}},
    {"command": "evolve", "n": 8, "initial": {"boost": [INF, 0.0, 0.0]}},
    {"command": "evolve", "n": 8, "initial": {"width": [1.0]}},
    dict(SMALL_SPH, command="evolve", initial={"spinor": [0, 0, -INF, 0]}),
    dict(SMALL_SPH, command="evolve", initial={"center": NAN}),
    dict(SMALL_SPH, command="evolve",
         initial={"type": "single-mode", "p": NAN}),
    dict(SMALL_SPH, command="evolve",
         initial={"type": "single-mode", "p": INF}),
    {"command": "evolve", "n": 8, "tolerances": {"fourier.roundtrip": NAN}},
    dict(SMALL_SPH, command="evolve", initial={"l": 1.5}),    # not integers
    dict(SMALL_SPH, command="evolve", initial={"l": 2, "mu": 0.5}),
    dict(SMALL_SPH, command="evolve", lmax=33),                # past the grid's caps
    dict(SMALL_SPH, command="evolve", np=2 ** 20 + 1),
    dict(SMALL_SPH, command="evolve", initial={"l": True, "mu": False}),  # booleans
    # unknown nested keys: time, output, initial (per domain and type), tolerances
    {"command": "evolve", "n": 8, "time": {"stepz": 3, "dt": 0.1},
     "initial": {"widht": 0.5}, "output": {"formatz": ["bin"]}},
    {"command": "evolve", "n": 8, "initial": {"widht": 0.5}},
    {"command": "evolve", "n": 8, "output": {"formatz": ["bin"]}},
    {"command": "transform", "n": 8,
     "initial": {"type": "single-mode", "p": [1, 0, 0], "width": 1.0}},
    dict(SMALL_SPH, command="transform", initial={"l": 2, "mu": 0, "p": 1.0}),
    {"command": "transform", "n": 8, "initial": {"type": ["gaussian"]}},
    dict(SMALL_SPH, command="spectrum",
         initial={"type": "single-mode", "p": 1.0, "center": 3.0}),
    {"command": "spectrum", "n": 8, "initial": {"l": 1}},     # spherical-only key
    {"command": "spectrum", "n": 8, "output": {"directory": "o", "format": ["csv"]}},
    {"command": "verify", "n": 8, "tolerances": {"fourier.roundtripp": 0.0}},
    {"command": "verify", "n": 8, "time": {"dt": 0.1, "step": 3}},
    {"command": "verify", "n": 8, "output": {"dir": "o"}},
])
def test_bad_configs_exit_2(tmp_path, doc):
    # each case runs as its own command, so only the fault it carries rejects it
    cfg = write_cfg(tmp_path, "bad.json", doc)
    assert cli.main([doc["command"], "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2


def test_config_command_mismatch_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "v.json", {"command": "verify", "n": 8})
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2


def test_spherical_gaussian_accepts_null_boost(tmp_path):
    doc = dict(SMALL_SPH, command="spectrum", initial={"l": 2, "mu": -1, "boost": None})
    assert run(tmp_path, "spectrum", doc)[0] == 0


def strict_json(path):
    """Parse as standard JSON: NaN / Infinity literals are an error."""
    def reject(tok):
        raise ValueError(f"non-standard JSON constant {tok}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # overflow to inf/NaN
@pytest.mark.parametrize("command", ["evolve", "transform", "spectrum"])
def test_overflowing_mass_fails_with_valid_json(tmp_path, command):
    # a finite mass whose square overflows makes every amplitude NaN: the
    # run must fail (exit 1) and summary.json must stay standard JSON
    doc = {"command": command, "n": 8, "mass": 1e200}
    if command == "evolve":
        doc["time"] = {"steps": 2}
    code, od = run(tmp_path, command, doc)
    assert code == 1
    s = strict_json(od / "summary.json")
    if command == "spectrum":
        assert s["norm2"] is None          # NaN written as null
    else:
        assert s["passed"] is False


# valid small configs; the property test then corrupts 0-2 of their entries
UNIT = st.floats(-2.0, 2.0)
CART = st.fixed_dictionaries(
    {"n": st.sampled_from([2, 4, 6]), "L": st.floats(2.0, 10.0),
     "initial": st.one_of(
         st.fixed_dictionaries(
             {"type": st.just("gaussian"), "spinor": st.lists(UNIT, min_size=4, max_size=4),
              "center": st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
              "width": st.floats(0.3, 3.0)},
             optional={"boost": st.lists(UNIT, min_size=3, max_size=3)}),
         st.fixed_dictionaries(
             {"type": st.just("single-mode"),
              "p": st.lists(st.integers(-2, 2), min_size=3, max_size=3)}))})
SPH = st.fixed_dictionaries(
    {"nr": st.integers(8, 16), "rmax": st.floats(4.0, 20.0),
     "ntheta": st.sampled_from([4, 6]), "nphi": st.sampled_from([4, 8]),
     "lmax": st.integers(1, 2), "np": st.integers(2, 16),
     "initial": st.one_of(
         st.fixed_dictionaries(
             {"type": st.just("gaussian"), "spinor": st.lists(UNIT, min_size=4, max_size=4),
              "center": st.floats(0.5, 10.0), "width": st.floats(0.3, 4.0),
              "l": st.just(1), "mu": st.integers(-1, 0)}),
         st.fixed_dictionaries(
             {"type": st.just("single-mode"),
              "spinor": st.lists(UNIT, min_size=4, max_size=4),
              "p": st.floats(0.1, 3.0), "l": st.just(1), "mu": st.integers(-1, 0)}))})
# non-finite, zero, negative and overflowing numbers, and wrong types
HOSTILE = st.sampled_from([NAN, INF, -INF, 0.0, -1.0, -2.5, 1e200, -1e200,
                           "x", None, True, [], {}, [1.0], 1.5])


def entries(doc, prefix=()):
    """Paths to every entry of a nested dict/list config."""
    for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from entries(v, prefix + (k,))


@st.composite
def hostile_configs(draw):
    doc = draw(st.one_of(CART, SPH))
    doc.update(command=draw(st.sampled_from(["evolve", "transform", "spectrum"])),
               mass=draw(st.floats(0.0, 4.0)),
               time={"steps": draw(st.integers(0, 3)), "dt": draw(st.floats(0.0, 0.2))},
               output={"formats": ["csv", "bin"]})
    for _ in range(draw(st.integers(0, 2))):
        *parent, key = draw(st.sampled_from(sorted(entries(doc), key=repr)))
        node = doc
        for k in parent:
            node = node[k]
        if key != "command":
            node[key] = draw(HOSTILE)
    return doc


def finite_json(path):
    """strict_json plus a walk asserting every number is finite."""
    def walk(v):
        if isinstance(v, dict):
            return all(walk(x) for x in v.values())
        if isinstance(v, list):
            return all(walk(x) for x in v)
        return not isinstance(v, float) or math.isfinite(v)
    assert walk(strict_json(path)), path


@settings(max_examples=30, deadline=None, derandomize=True)
@given(doc=hostile_configs())
def test_cli_hostile_configs_exit_cleanly(doc):
    # every config either exits 2 with a message, or exits 0/1 leaving only
    # standard JSON with finite numbers
    command = doc["command"]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(doc))
        od = Path(tmp) / "out"
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("ignore")
            code = cli.main([command, "--config", str(cfg), "--out", str(od), "--quiet"])
        if code == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
            return
        assert code in (0, 1), (code, err.getvalue())
        finite_json(od / "summary.json")


def test_missing_and_malformed_config(tmp_path):
    assert cli.main(["verify", "--config", str(tmp_path / "nope.json"),
                     "--quiet"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", "--config", str(bad), "--quiet"]) == 2


# ----------------------------------------------------------------- threading

def test_thread_env_rejects_garbage(tmp_path, monkeypatch):
    monkeypatch.setenv("MAJORANA_THREADS", "abc")
    cfg = write_cfg(tmp_path, "v.json", {"command": "evolve", "n": 8})
    assert cli.main(["evolve", "--config", cfg, "--quiet"]) == 2


def test_thread_env_sets_blas_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv("MAJORANA_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    doc = {"command": "spectrum", "n": 8, "mass": 1.0,
           "initial": {"type": "single-mode", "p": [1, 0, 0]}}
    code, _ = run(tmp_path, "spectrum", doc)
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "3"


# ------------------------------------------------------------ module loading

@pytest.mark.parametrize("command, doc, spherical", [
    ("evolve", {"n": 8, "L": 8.0, "time": {"steps": 2, "dt": 0.1},
                "output": {"formats": ["csv", "bin"]}}, False),
    ("transform", {"n": 8, "L": 8.0, "output": {"formats": ["csv", "bin"]}}, False),
    ("spectrum", {"n": 8, "L": 8.0}, False),
    ("evolve", {**SMALL_SPH, "time": {"steps": 2, "dt": 0.1}}, True),
])
def test_only_spherical_runs_load_hankel(tmp_path, command, doc, spherical):
    # a fresh interpreter: cartesian commands never import hankel or spherical
    cfg = write_cfg(tmp_path, "c.json", {"command": command, **doc})
    probe = ("import sys; from majorana import cli; code = cli.main(sys.argv[1:]); "
             "print(code, 'majorana.hankel' in sys.modules, "
             "'majorana.spherical' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", probe, command, "--config", cfg,
                           "--out", str(tmp_path / "o"), "--quiet"],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.split()[-3:] == ["0", str(spherical), str(spherical)], proc.stderr


# ---------------------------------------------------------------- entry point

@pytest.mark.skipif(shutil.which("majorana") is None,
                    reason="console script not installed")
def test_console_script_runs(tmp_path):
    cfg = write_cfg(tmp_path, "t.json", {"command": "transform", "n": 8,
                                         "mass": 1.0})
    proc = subprocess.run(["majorana", "transform", "--config", cfg,
                           "--out", str(tmp_path / "o"), "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
