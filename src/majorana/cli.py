"""Command-line harness: verification suites, wave-packet evolution, and
transform round trips, driven by a JSON run configuration.

Each command has one body for both domains. `_start` builds the initial
condition and hands back the domain's grid, transforms and spectrum writer;
a command branches on the domain only where the arithmetic differs, and
`_caveats` gives every summary its numerical caveats at one position.

Numerical submodules are imported inside the handlers, on the branch that
uses them: MAJORANA_THREADS can cap BLAS/OpenMP parallelism before numpy
loads (0 or unset leaves the libraries at their own defaults), and a
cartesian command never loads `hankel` or `spherical`.

Exit status: 0 full pass, 1 any check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_TOP_KEYS = {"command", "mass", "domain", "n", "L", "nr", "rmax", "ntheta",
             "nphi", "lmax", "np", "np_points", "initial", "time", "output",
             "tolerances", "seed"}
_TIME_KEYS, _OUTPUT_KEYS = {"steps", "dt"}, {"formats", "directory"}
# the initial keys each (domain, type) reads
_INITIAL_KEYS = {
    ("cartesian", "gaussian"): {"type", "spinor", "center", "width", "boost"},
    ("cartesian", "single-mode"): {"type", "spinor", "p"},
    ("spherical", "gaussian"): {"type", "spinor", "l", "mu", "center", "width", "boost"},
    ("spherical", "single-mode"): {"type", "spinor", "l", "mu", "p"},
}


class ConfigError(Exception):
    """Invalid run configuration (bad file, bad JSON, bad values)."""


def _apply_thread_env() -> None:
    raw = os.environ.get("MAJORANA_THREADS", "0").strip()
    try:
        nt = int(raw)
    except ValueError:
        raise ConfigError(f"MAJORANA_THREADS must be an integer, got {raw!r}")
    if nt < 0:
        raise ConfigError("MAJORANA_THREADS must be >= 0")
    if nt > 0:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, str(nt))


@dataclass
class RunConfig:
    """Validated run parameters; grid fields for both domains carry defaults."""
    command: str
    mass: float = 1.0
    domain: str = "cartesian"
    n: int = 16
    L: float = 8.0
    nr: int = 256
    rmax: float = 40.0
    ntheta: int = 32
    nphi: int = 64
    lmax: int = 5
    np_points: int = 256
    initial: dict = field(default_factory=dict)
    steps: int = 100
    dt: float = 0.05
    out_dir: str = "out"
    formats: tuple = ("csv",)
    tolerances: dict = field(default_factory=dict)
    seed: int = 1234


def _reject_unknown(raw: dict, known, what: str) -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


def _as_float(raw: dict, key: str, default: float, lo=None) -> float:
    v = raw.get(key, default)
    try:
        v = float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite")
    if lo is not None and v < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {v}")
    return v


def _as_int(raw: dict, key: str, default: int, lo: int) -> int:
    v = raw.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if v < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {v}")
    return v


def load_config(path: str, command: str, out_override: str | None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config keys")

    if "command" in raw and raw["command"] != command:
        raise ConfigError(f"config command {raw['command']!r} does not match "
                          f"invoked command {command!r}")

    sph_keys = {"nr", "rmax", "ntheta", "nphi", "lmax", "np", "np_points"}
    domain = raw.get("domain")
    if domain is None:
        has_s = bool(sph_keys & set(raw))
        has_c = "n" in raw or "L" in raw
        if has_s and has_c and command != "verify":
            raise ConfigError("both cartesian and spherical grid keys given; "
                              "set \"domain\" explicitly")
        domain = "spherical" if has_s and not has_c else "cartesian"
    if domain not in ("cartesian", "spherical"):
        raise ConfigError(f"domain must be cartesian or spherical, got {domain!r}")

    if "np" in raw and "np_points" in raw:
        raise ConfigError("give only one of np / np_points")
    npp = raw.get("np", raw.get("np_points", RunConfig.np_points))
    raw2 = dict(raw)
    raw2["np_points"] = npp

    tdict = raw.get("time", {})
    if not isinstance(tdict, dict):
        raise ConfigError("time must be an object with steps/dt")
    _reject_unknown(tdict, _TIME_KEYS, "time keys")
    odict = raw.get("output", {})
    if not isinstance(odict, dict):
        raise ConfigError("output must be an object")
    _reject_unknown(odict, _OUTPUT_KEYS, "output keys")
    formats = odict.get("formats", list(RunConfig.formats))
    if (not isinstance(formats, list) or not formats
            or any(f not in ("csv", "bin") for f in formats)):
        raise ConfigError(f"output.formats must be a non-empty subset of "
                          f"[csv, bin], got {formats!r}")
    initial = raw.get("initial", {})
    if not isinstance(initial, dict):
        raise ConfigError("initial must be an object")
    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object of test-id -> number")
    tol = {k: _as_float(tol, k, 0.0) for k in tol}
    if tol:
        from .verify import CHECK_IDS
        _reject_unknown(tol, CHECK_IDS, "tolerances ids (no such check)")

    cfg = RunConfig(
        command=command,
        mass=_as_float(raw, "mass", RunConfig.mass, lo=0.0),
        domain=domain,
        n=_as_int(raw, "n", RunConfig.n, lo=2),
        L=_as_float(raw, "L", RunConfig.L),
        nr=_as_int(raw2, "nr", RunConfig.nr, lo=8),
        rmax=_as_float(raw, "rmax", RunConfig.rmax),
        ntheta=_as_int(raw, "ntheta", RunConfig.ntheta, lo=4),
        nphi=_as_int(raw, "nphi", RunConfig.nphi, lo=4),
        lmax=_as_int(raw, "lmax", RunConfig.lmax, lo=1),
        np_points=_as_int(raw2, "np_points", RunConfig.np_points, lo=2),
        initial=initial,
        steps=_as_int(tdict, "steps", RunConfig.steps, lo=0),
        dt=_as_float(tdict, "dt", RunConfig.dt),
        out_dir=str(out_override or odict.get("directory", RunConfig.out_dir)),
        formats=tuple(dict.fromkeys(formats)),
        tolerances=tol,
        seed=_as_int(raw, "seed", RunConfig.seed, lo=0),
    )
    if cfg.L <= 0 or cfg.rmax <= 0:
        raise ConfigError("box lengths must be positive")
    if cfg.n % 2:
        raise ConfigError(f"n must be even, got {cfg.n}")
    return cfg


def _out_path(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_safe(obj):
    """Non-finite floats become null, so the file stays valid JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(_json_safe(obj), indent=2, allow_nan=False) + "\n")


def _rel(err, ref) -> float:
    """err / ref, or err against a zero reference; NaN stays NaN (verdicts fail)."""
    return float(err / ref) if ref != 0 else float(err)


def _absmax(a) -> float:
    """max |a| with no |a| temporary; a NaN entry gives NaN."""
    import numpy as np

    return abs(float(np.maximum(a.max(), -a.min())))


def _write_fields(cfg: RunConfig, out: Path, **fields) -> None:
    """<name>.maj1 or .majs and <name>.csv per field, as output.formats asks."""
    from . import io as fio

    sph = cfg.domain == "spherical"
    write_bin, ext = (fio.write_majs, "majs") if sph else (fio.write_maj1, "maj1")
    write_csv = fio.write_spherical_csv if sph else fio.write_field_csv
    for name, fld in fields.items():
        if "bin" in cfg.formats:
            write_bin(out / f"{name}.{ext}", fld)
        if "csv" in cfg.formats:
            write_csv(out / f"{name}.csv", fld)


# -------------------------------------------------------------------- verify

def _cmd_verify(cfg: RunConfig, quiet: bool) -> int:
    from . import verify as vf

    st = vf.VerifySettings(**{f.name: getattr(cfg, f.name)
                              for f in fields(vf.VerifySettings)})

    def progress(c):
        if not quiet:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.test_id}: "
                  f"measured {c.measured:.3e} tol {c.tolerance:.1e} | {c.anchor}",
                  flush=True)

    report = vf.run_suite(st, progress)
    out = _out_path(cfg)
    _write_json(out / "report.json", report.to_dict())
    npass = sum(c.passed for c in report.checks)
    print(f"{'PASS' if report.passed else 'FAIL'}: {npass}/{len(report.checks)} "
          f"checks passed; report written to {out / 'report.json'}")
    return 0 if report.passed else 1


# ------------------------------------------------------- initial conditions

def _initial_value(ini: dict, key: str, default, shape: tuple, what: str):
    """initial.<key> as a finite float array of the given shape."""
    import numpy as np

    raw = ini.get(key, default)
    try:
        v = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        v = None
    if raw is None or v is None or v.shape != shape:
        raise ConfigError(f"initial.{key} must be {what}")
    if not np.isfinite(v).all():
        raise ConfigError(f"initial.{key} must be finite")
    return v


def _start(cfg: RunConfig):
    """The initial condition on cfg's domain: (grid, field, spec, keys, ops).

    spec is the start's own spectrum when it is defined in momentum space,
    else None; keys are the summary keys the start adds; ops are the domain's
    forward transform, inverse transform and spectrum CSV writer.
    """
    import numpy as np

    from . import io as fio

    ini, kind = cfg.initial, cfg.initial.get("type", "gaussian")
    known = _INITIAL_KEYS.get((cfg.domain, kind)) if isinstance(kind, str) else None
    if known is None:
        raise ConfigError(f"unknown initial.type {kind!r}")
    _reject_unknown(ini, known, "initial keys")
    chi = _initial_value(ini, "spinor", [1.0, 0.0, 0.0, 0.0], (4,), "a 4-vector")
    sph = cfg.domain == "spherical"
    if kind == "gaussian":
        width = float(_initial_value(ini, "width", cfg.rmax / 20 if sph else cfg.L / 10,
                                     (), "a number"))
        if not width > 0:
            raise ConfigError("initial.width must be > 0")
    if sph:
        from . import hankel

        grid = hankel.SphericalGrid(cfg.nr, cfg.rmax, cfg.ntheta, cfg.nphi,
                                    cfg.lmax, cfg.np_points)
        ops = hankel.forward_hankel, hankel.inverse_hankel, fio.write_hankel_csv
        try:
            mode = hankel.AngularMode(ini.get("l", 1), ini.get("mu", 0))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid initial (l, mu): {e}")
        if mode.l > cfg.lmax:
            raise ConfigError(f"initial.l = {mode.l} exceeds lmax = {cfg.lmax}")
        if kind == "gaussian":
            if ini.get("boost") is not None:
                raise ConfigError("initial.boost is not supported on the "
                                  "spherical domain")
            r0 = float(_initial_value(ini, "center", cfg.rmax / 4, (),
                                      "a radius (number) on the spherical domain"))
            env = np.exp(-((grid.r - r0) / width) ** 2)
            base = np.einsum('xyab,b->xya', grid.omega(mode), chi)
            vals = env[:, None, None, None] * base[None]
            return grid, hankel.SphericalField(grid, vals, cfg.mass), None, {}, ops
        p = float(_initial_value(ini, "p", None, (),   # single-mode
                                 "a number for a spherical single mode"))
        if not 0 < p <= grid.pmax:
            raise ConfigError(f"initial.p must lie in (0, {grid.pmax:.6g}]")
        kp = int(np.clip(round(p / grid.dp - 0.5), 0, grid.np_points - 1))
        co = np.zeros((grid.np_points, len(grid.modes), 4))
        co[kp, grid.mode_index[tuple(mode)]] = chi
        spec = hankel.HankelSpectrum(grid, co, cfg.mass)
        field0 = hankel.inverse_hankel(spec)
        spec.tail_fraction = field0.tail_fraction()
        # the summary records the momentum node the requested p snapped to
        snap = {"initial_p_requested": p, "initial_p_node": float(grid.p[kp])}
        return grid, field0, spec, snap, ops

    from . import fourier

    grid = fourier.CartesianGrid(cfg.n, cfg.L)
    ops = fourier.forward, fourier.inverse, fio.write_spectrum_csv
    if kind == "gaussian":
        center = _initial_value(ini, "center", [cfg.L / 2] * 3, (3,), "a 3-vector")
        boost = _initial_value(ini, "boost", [0.0, 0.0, 0.0], (3,), "a 3-vector")
        if np.any(boost != 0.0):
            # a moving packet is built as a single-sided momentum bump at
            # +boost; a rotor-modulated position Gaussian would put weight at
            # -boost too (mirror channel) and the centroid would not track
            # the group velocity <p>/<E>
            bump = np.exp(-((grid.P - boost) ** 2).sum(-1) * width ** 2 / 2.0)
            vals = bump[..., None] * fourier.rotate(-(grid.P @ center), chi)
            deg = grid._tables(cfg.mass)[2]
            vals[deg] = 0.0   # the massless transforms drop p = 0
            spec = fourier.MomentumSpectrum(grid, vals, cfg.mass,
                                            zero_mode_dropped=bool(deg.any()))
            return grid, fourier.inverse(spec), spec, {}, ops
        X, Y, Z = np.meshgrid(grid.xs, grid.xs, grid.xs, indexing='ij')
        env = np.exp(-((X - center[0]) ** 2 + (Y - center[1]) ** 2
                       + (Z - center[2]) ** 2) / (2 * width ** 2))
        return grid, fourier.SpinorField(grid, env[..., None] * chi, cfg.mass), None, {}, ops
    kvec = ini.get("p")   # single-mode
    if (not isinstance(kvec, list) or len(kvec) != 3
            or any(isinstance(v, bool) or not isinstance(v, int) for v in kvec)):
        raise ConfigError("cartesian single-mode initial.p must be 3 integers")
    if any(not -cfg.n // 2 < v < cfg.n // 2 for v in kvec):
        raise ConfigError(f"initial.p components must lie in "
                          f"({-cfg.n // 2}, {cfg.n // 2}) (Nyquist excluded)")
    return grid, fourier.plane_wave(grid, kvec, cfg.mass, chi), None, {}, ops


def _caveats(cfg: RunConfig, spec, keys: dict) -> dict:
    """The numerical caveats of every summary: the dropped massless zero mode
    (cartesian) or the input field's tail at rmax (spherical), then the
    start's keys."""
    if cfg.domain == "cartesian":
        return {"zero_mode_dropped": bool(spec.zero_mode_dropped), **keys}
    return {"tail_fraction": spec.tail_fraction, **keys}


# -------------------------------------------------------------------- evolve

def _centroid(grid, dens):
    """Density-weighted mean position on a cartesian grid (zero if empty)."""
    import numpy as np

    tot = dens.sum()
    if tot <= 0:
        return np.zeros(3)
    return np.array([dens.sum((1, 2)) @ grid.xs, dens.sum((0, 2)) @ grid.xs,
                     dens.sum((0, 1)) @ grid.xs]) / tot


def _cmd_evolve(cfg: RunConfig, quiet: bool) -> int:
    import numpy as np

    from . import io as fio

    out = _out_path(cfg)
    grid, fld, spec, keys, (forward, inverse, _) = _start(cfg)
    if spec is None:
        spec = forward(fld)
    cart, E = cfg.domain == "cartesian", grid.energies(cfg.mass)
    # frames evolve spec by the exact time k dt, so rounding does not pile up
    times = [k * cfg.dt for k in range(cfg.steps + 1)]
    if cart:
        from . import fourier

        evolve, header = fourier.evolve, "step,t,norm,energy,cx,cy,cz"
        w = (spec.values ** 2).sum(-1)
        c0 = _centroid(grid, np.einsum('xyza,xyza->xyz', fld.values, fld.values))
        frames = ((norm2, *_centroid(grid, dens)) for norm2, dens
                  in fourier.evolved_densities(spec, times[1:]))
    else:
        from . import hankel

        evolve, header = hankel.evolve_hankel, "step,t,norm,energy"
        w = np.einsum('pma,pma,p->p', spec.values, spec.values, spec.p_weights())
        c0 = ()
        frames = ((norm2,) for norm2 in hankel.evolved_norms(spec, times[1:]))
    wtot = w.sum()
    energy = float((E * w).sum() / wtot) if wtot > 0 else 0.0
    norm0 = spec.norm2()
    rows = [(0, times[0], norm0, energy, *c0)]
    rows += [(k, times[k], norm2, energy, *c) for k, (norm2, *c) in enumerate(frames, 1)]
    drift = _rel(np.abs(np.array([r[2] for r in rows]) - norm0).max(), norm0)
    summary = {
        "domain": cfg.domain, "steps": cfg.steps, "dt": cfg.dt,
        **_caveats(cfg, spec, keys),
        "norm_initial": norm0, "max_norm_drift_rel": drift,
        "energy_expectation": energy,
    }
    if cart:   # the centroid moves at <p>/<E>; a negative dt runs it backward
        pmean = (np.einsum('xyzj,xyz->j', grid.P, w) / wtot if wtot > 0
                 else np.zeros(3))
        vg_pred = pmean / energy if energy > 0 else np.zeros(3)
        tend = times[-1]
        vg_meas = (np.array(rows[-1][4:7]) - c0) / tend if tend != 0 else np.zeros(3)
        summary["group_velocity_predicted"] = [float(v) for v in vg_pred]
        summary["group_velocity_measured"] = [float(v) for v in vg_meas]
    summary["passed"] = drift <= 1e-12
    if cfg.steps:   # free the initial field before the inverse allocates the final one
        del fld
        fld = inverse(evolve(spec, times[-1]))

    _write_fields(cfg, out, final=fld)
    fio.write_frames_csv(out / "frames.csv", header, rows)
    _write_json(out / "summary.json", summary)
    if not quiet:
        print(f"evolved {cfg.steps} steps of dt = {cfg.dt}; "
              f"max relative norm drift {summary['max_norm_drift_rel']:.3e}")
    print(f"{'PASS' if summary['passed'] else 'FAIL'}: artifacts in {out}")
    return 0 if summary["passed"] else 1


# ----------------------------------------------------------------- transform

def _cmd_transform(cfg: RunConfig, quiet: bool) -> int:
    import numpy as np

    out = _out_path(cfg)
    grid, field0, _, keys, (forward, inverse, write_spectrum) = _start(cfg)
    spec = forward(field0)
    recon = inverse(spec)
    why = ""
    if cfg.domain == "cartesian":
        if cfg.mass > 0:
            diff = recon.values - field0.values
            max_rel = _rel(_absmax(diff), _absmax(field0.values))
            l2_rel = np.sqrt(_rel((diff ** 2).sum(), (field0.values ** 2).sum()))
        else:
            # p = 0 is dropped at m = 0: compare on the invariant subspace
            spec2 = forward(recon)
            diff = np.subtract(spec2.values, spec.values, out=spec2.values)
            max_rel = _rel(_absmax(diff), _absmax(spec.values))
            l2_rel = max_rel
        errors = {"max_error_rel": float(max_rel), "l2_error_rel": float(l2_rel),
                  "parseval_rel": _rel(abs(spec.norm2() - recon.norm2()), recon.norm2())}
        threshold = 1e-9
        passed = bool(max_rel <= threshold)
    else:
        from . import hankel

        diff = hankel.SphericalField(grid, recon.values - field0.values, cfg.mass)
        l2_rel = np.sqrt(_rel(diff.norm2(), field0.norm2()))
        errors = {"max_error_rel": _rel(_absmax(diff.values), _absmax(field0.values)),
                  "l2_error_rel": float(l2_rel)}
        threshold = 1e-4
        passed = bool(l2_rel <= threshold)
        if not passed and spec.tail_fraction > hankel.TAIL_LIMIT:
            why = (f"; the field's tail at rmax holds {spec.tail_fraction:.1e} of "
                   "norm^2, so the radial truncation, not the transform, sets the error")
    write_spectrum(out / "spectrum.csv", spec)
    _write_fields(cfg, out, input=field0, reconstruction=recon)
    summary = {"domain": cfg.domain, "mass": cfg.mass, **_caveats(cfg, spec, keys),
               **errors, "threshold": threshold, "passed": passed}
    _write_json(out / "summary.json", summary)
    if not quiet:
        print(f"round-trip errors: max {summary['max_error_rel']:.3e}, "
              f"L2 {summary['l2_error_rel']:.3e} (threshold {threshold:.0e})")
    print(f"{'PASS' if passed else 'FAIL'}: artifacts in {out}{why}")
    return 0 if passed else 1


# ------------------------------------------------------------------ spectrum

def _cmd_spectrum(cfg: RunConfig, quiet: bool) -> int:
    import numpy as np

    out = _out_path(cfg)
    grid, field0, _, keys, (forward, _, write_spectrum) = _start(cfg)
    spec = forward(field0)
    if cfg.domain == "cartesian":
        mags = (spec.values ** 2).sum(-1) / grid.L ** 3
        idx = np.unravel_index(int(mags.argmax()), mags.shape)
        peak_mode = [int(grid.ks[i]) for i in idx]
    else:
        mags = np.einsum('pma,pma,p->pm', spec.values, spec.values,
                         spec.p_weights())
        kp, im = np.unravel_index(int(mags.argmax()), mags.shape)
        l, mu = grid.modes[im]
        peak_mode = [float(grid.p[kp]), int(l), int(mu)]
    write_spectrum(out / "spectrum.csv", spec)
    total, peak = mags.sum(), float(mags.max())
    peak_fraction = peak / float(total) if total > 0 else 0.0
    n_sig = int((mags > 1e-12 * peak).sum()) if peak > 0 else 0
    summary = {
        "domain": cfg.domain, "mass": cfg.mass,
        "norm2": float(total),
        "peak_mode": peak_mode,
        "peak_fraction": float(peak_fraction),
        "modes_above_1e-12_of_peak": n_sig,
        "dominant_single_mode": bool(peak_fraction > 0.5),
        **_caveats(cfg, spec, keys),
    }
    _write_json(out / "summary.json", summary)
    if not quiet:
        print(f"peak mode {peak_mode} carries {peak_fraction:.4f} of norm^2; "
              f"{n_sig} modes above 1e-12 of peak")
    print(f"spectrum written to {out / 'spectrum.csv'}")
    if not math.isfinite(summary["norm2"]):
        print("FAIL: the spectrum is not finite")
        return 1
    return 0


# --------------------------------------------------------------------- main

def _parse_args(argv):
    ap = argparse.ArgumentParser(
        prog="majorana",
        description="Majorana spinor transform toolkit: verification suites, "
                    "wave-packet evolution, and transform round trips.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in (("verify", "run every invariant suite, write report.json"),
                      ("evolve", "rotor-evolve an initial condition"),
                      ("transform", "forward + inverse round trip with artifacts"),
                      ("spectrum", "forward transform and sparsity summary")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output.directory)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-check/progress output")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    handler = {"verify": _cmd_verify, "evolve": _cmd_evolve,
               "transform": _cmd_transform, "spectrum": _cmd_spectrum}[args.command]
    try:
        _apply_thread_env()
        return handler(load_config(args.config, args.command, args.out), args.quiet)
    except (ConfigError, ValueError) as e:   # ValueError: rejected by the library
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
