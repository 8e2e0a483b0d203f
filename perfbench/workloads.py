"""The four benchmark workloads: a config generated from the seed, and the
output checks run on every CLI invocation.

Grid sizes and step counts are fixed, so the amount of work does not depend
on the seed; the seed moves only the physics inside them (spinor, packet
centre, width, boost direction, angular channel, the verify RNG seed).

Checks never compare bytes across commits: they test the command's own
verdict, its conservation numbers, and that each binary artifact reads back
to exactly the values printed in the CSV of the same invocation.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

NORM_DRIFT_MAX = 1e-12
L2_ROUNDTRIP_MAX = 1e-4
PARSEVAL_MAX = 1e-8        # verify.fourier.parseval tolerance
VG_REL_MAX = 0.1           # measured speeds sit 3-5% below <p>/<E>
VERIFY_CHECKS = 41


@dataclass
class Checks:
    """Pass/fail output checks of one invocation, plus read-back timings."""
    results: list = field(default_factory=list)
    read_s: dict = field(default_factory=dict)
    read_calls: dict = field(default_factory=dict)

    def add(self, name: str, test: Callable[[], bool]) -> None:
        try:
            ok = bool(test())
            detail = ""
        except Exception as e:  # a broken artifact is a failed check, not a crash
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.results.append((name, ok, detail))

    def timed_read(self, reader, *args, **kwargs):
        t = time.perf_counter()
        try:
            return reader(*args, **kwargs)
        finally:
            key = reader.__name__
            self.read_s[key] = self.read_s.get(key, 0.0) + time.perf_counter() - t
            self.read_calls[key] = self.read_calls.get(key, 0) + 1

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    imports: tuple            # submodules the command loads (for setup_s)
    make_config: Callable[[random.Random], dict]
    check: Callable[[Path, str, dict, Checks], None]


def _unit(rng: random.Random, n: int) -> list:
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    s = math.sqrt(sum(x * x for x in v))
    return [x / s for x in v]


def _channel(rng: random.Random, lmax: int) -> tuple:
    l = rng.randint(1, lmax)
    return l, rng.randint(-l, l - 1)


# ------------------------------------------------------------------ configs

def _cart_evolve_config(rng):
    L = 16.0
    d = _unit(rng, 3)
    # the packet travels about 3.5 along d in t = 5, so start it 1.75 behind
    # the box centre and it never reaches the periodic boundary
    center = [L / 2 - 1.75 * di + rng.uniform(-0.5, 0.5) for di in d]
    return {
        "n": 32, "L": L, "mass": 1.0,
        "initial": {"type": "gaussian", "spinor": _unit(rng, 4),
                    "center": center, "width": 1.6 * rng.uniform(0.95, 1.05),
                    "boost": d},
        "time": {"steps": 100, "dt": 0.05},
        "output": {"formats": ["csv", "bin"]},
    }


def _spherical_config(rng, nr, ntheta, nphi, lmax, formats, time_block=None):
    l, mu = _channel(rng, lmax)
    cfg = {
        "nr": nr, "rmax": 40.0, "ntheta": ntheta, "nphi": nphi,
        "lmax": lmax, "np": nr, "mass": 1.0,
        "initial": {"type": "gaussian", "spinor": _unit(rng, 4),
                    "center": 10.0 + rng.uniform(-1.0, 1.0),
                    "width": 2.0 * rng.uniform(0.95, 1.05), "l": l, "mu": mu},
        "output": {"formats": formats},
    }
    if time_block:
        cfg["time"] = time_block
    return cfg


def _sph_evolve_config(rng):
    return _spherical_config(rng, 512, 48, 96, 10, ["bin"],
                             {"steps": 200, "dt": 0.02})


def _sph_transform_config(rng):
    return _spherical_config(rng, 256, 32, 64, 5, ["csv", "bin"])


def _verify_config(rng):
    return {"seed": rng.randrange(2 ** 31)}


# ------------------------------------------------------------------- checks

def _verdict(out: Path, stdout: str, chk: Checks) -> dict:
    summary = {}

    def load():
        summary.update(json.loads((out / "summary.json").read_text()))
        return True
    chk.add("summary.json readable", load)
    lines = stdout.strip().splitlines()
    chk.add("verdict PASS", lambda: summary.get("passed") is True
            and lines[-1].startswith("PASS"))
    return summary


def _same_as_csv(field_values, coords, csv_path: Path) -> bool:
    """Binary values equal the CSV psi columns; coordinates match the grid.

    CSV floats carry 17 significant digits, so they read back to the exact
    binary values: the test is equality, not closeness."""
    import numpy as np
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    vals = field_values.reshape(-1, 4)
    if table.shape != (vals.shape[0], 3 + 4):
        return False
    mesh = np.stack([a.ravel() for a in np.meshgrid(*coords, indexing="ij")], 1)
    return np.array_equal(table[:, 3:], vals) and np.array_equal(table[:, :3], mesh)


def _check_cart_evolve(out, stdout, cfg, chk):
    import numpy as np

    from majorana import io as fio
    s = _verdict(out, stdout, chk)
    chk.add("max_norm_drift_rel <= 1e-12",
            lambda: s["max_norm_drift_rel"] <= NORM_DRIFT_MAX)

    def group_velocity():
        pred = np.array(s["group_velocity_predicted"])
        meas = np.array(s["group_velocity_measured"])
        return np.linalg.norm(meas - pred) <= VG_REL_MAX * np.linalg.norm(pred)
    chk.add("group velocity within 10% of prediction", group_velocity)

    def readback():
        f = chk.timed_read(fio.read_maj1, out / "final.maj1")
        return _same_as_csv(f.values, (f.grid.xs,) * 3, out / "final.csv")
    chk.add("final.maj1 equals final.csv", readback)


def _check_sph_evolve(out, stdout, cfg, chk):
    import numpy as np

    from majorana import io as fio
    s = _verdict(out, stdout, chk)
    chk.add("max_norm_drift_rel <= 1e-12",
            lambda: s["max_norm_drift_rel"] <= NORM_DRIFT_MAX)

    def readback():
        # no CSV in this workload: the field read back must carry the
        # evolved spectrum's norm (Parseval)
        f = chk.timed_read(fio.read_majs, out / "final.majs",
                           lmax=cfg["lmax"], np_points=cfg["np"])
        shape = (cfg["nr"], cfg["ntheta"], cfg["nphi"], 4)
        return (f.values.shape == shape and bool(np.isfinite(f.values).all())
                and abs(f.norm2() / s["norm_initial"] - 1) <= PARSEVAL_MAX)
    chk.add("final.majs reads back with the evolved norm", readback)


def _check_sph_transform(out, stdout, cfg, chk):
    from majorana import io as fio
    s = _verdict(out, stdout, chk)
    chk.add("l2_error_rel <= 1e-4", lambda: s["l2_error_rel"] <= L2_ROUNDTRIP_MAX)
    for stem in ("input", "reconstruction"):
        def readback(stem=stem):
            f = chk.timed_read(fio.read_majs, out / f"{stem}.majs",
                               lmax=cfg["lmax"], np_points=cfg["np"])
            a = f.grid.angular
            return _same_as_csv(f.values, (f.grid.r, a.theta, a.phi),
                                out / f"{stem}.csv")
        chk.add(f"{stem}.majs equals {stem}.csv", readback)


def _check_verify(out, stdout, cfg, chk):
    lines = stdout.strip().splitlines()
    chk.add("verdict PASS", lambda: lines[-1].startswith("PASS"))

    def all_pass():
        rep = json.loads((out / "report.json").read_text())
        return (rep["n_checks"] == VERIFY_CHECKS and rep["passed"] is True
                and all(c["passed"] for c in rep["checks"]))
    chk.add(f"{VERIFY_CHECKS} of {VERIFY_CHECKS} verify checks pass", all_pass)


# Sizes and the reason for each workload are recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("cart-evolve", "evolve", ("fourier", "hankel", "io"),
             _cart_evolve_config, _check_cart_evolve),
    Workload("sph-evolve", "evolve", ("fourier", "hankel", "io"),
             _sph_evolve_config, _check_sph_evolve),
    Workload("sph-transform-csv", "transform", ("fourier", "hankel", "io"),
             _sph_transform_config, _check_sph_transform),
    Workload("verify", "verify", ("verify",), _verify_config, _check_verify),
)}
