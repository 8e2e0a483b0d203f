"""Run one `majorana` CLI command with the public functions of each layer
timed from outside.

    python3 perfbench/tracer.py SPANS.json RUN_ID -- <majorana cli args>

The tracer imports every `majorana` submodule, replaces each target (see
TARGETS) with a timing wrapper wherever a module binds it -- a name bound
by `from .spherical import omega_matrix` is patched in `hankel` as well as
in `spherical` -- and then calls `majorana.cli.main`.  Spans stay in memory
and are written to SPANS.json once, when the command returns.  A target the
program no longer has is listed under "absent"; the command still runs.

The process exits with the CLI's own exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from pathlib import Path

# (layer, metric name, module, attribute path). "Cls.attr" wraps a method or
# property on the class itself, so every caller sees it however it got the
# class. A property is timed on its first access per instance (the lazy
# table build); later cached reads are not spans.
TARGETS = (
    ("fourier", "forward", "fourier", "forward"),
    ("fourier", "inverse", "fourier", "inverse"),
    ("fourier", "evolve", "fourier", "evolve"),
    ("fourier", "CartesianGrid", "fourier", "CartesianGrid.__init__"),
    ("hankel", "forward_hankel", "hankel", "forward_hankel"),
    ("hankel", "inverse_hankel", "hankel", "inverse_hankel"),
    ("hankel", "evolve_hankel", "hankel", "evolve_hankel"),
    ("hankel", "omegas", "hankel", "SphericalGrid.omegas"),
    ("hankel", "jt", "hankel", "SphericalGrid.jt"),
    ("hankel", "kernel_on_grid", "hankel", "kernel_on_grid"),
    ("hankel", "eigen_relation_residual", "hankel", "eigen_relation_residual"),
    ("hankel", "dirac_apply", "hankel", "dirac_apply"),
    ("spherical", "sph_jn_table", "spherical", "sph_jn_table"),
    ("spherical", "omega_matrix", "spherical", "omega_matrix"),
    ("spherical", "majorana_Y", "spherical", "majorana_Y"),
    ("spherical", "dtheta", "spherical", "AngularGrid.dtheta"),
    ("spherical", "dphi", "spherical", "AngularGrid.dphi"),
    ("spherical", "sigma_dot_L", "spherical", "AngularGrid.sigma_dot_L"),
    ("spherical", "angular_momentum_apply", "spherical",
     "AngularGrid.angular_momentum_apply"),
    ("io", "write_field_csv", "io", "write_field_csv"),
    ("io", "write_spherical_csv", "io", "write_spherical_csv"),
    ("io", "write_spectrum_csv", "io", "write_spectrum_csv"),
    ("io", "write_hankel_csv", "io", "write_hankel_csv"),
    ("io", "write_maj1", "io", "write_maj1"),
    ("io", "write_majs", "io", "write_majs"),
    ("verify", "run_suite", "verify", "run_suite"),
)

SUBMODULES = ("clifford", "lorentz", "fourier", "spherical", "hankel", "io",
              "verify", "cli")


class Tracer:
    """Spans in memory: [name, start, end, parent index] in call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.check_marks: list[tuple[float, str, bool]] = []
        self.absent: list[str] = []

    def timed(self, name: str, fn, after=None):
        """Wrap fn so each call is a span; after(args, result) runs inside it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def dump(self, path: Path) -> None:
        data = {
            "run_id": self.run_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p,
                       "run_id": self.run_id} for n, s, e, p in self.spans],
            "counters": self.counters,
            "check_marks": self.check_marks,
            "absent": self.absent,
        }
        path.write_text(json.dumps(data))


def _first_access(tracer: Tracer, name: str, fget):
    """Time a lazy property once per instance and record its table size."""
    seen = weakref.WeakSet()

    def build(args, result):
        tracer.count(name + ".mb", getattr(result, "nbytes", 0) / 1e6)

    timed = tracer.timed(name, fget, after=build)

    @functools.wraps(fget)
    def getter(obj):
        if obj in seen:
            return fget(obj)
        seen.add(obj)
        return timed(obj)
    return getter


def _written_bytes(tracer: Tracer, kind: str):
    def after(args, result):
        tracer.count(f"io.{kind}.bytes", os.path.getsize(args[0]))
    return after


def _tap_progress(tracer: Tracer, run_suite):
    """Time each verify check from the public progress callback."""
    sig = inspect.signature(run_suite)

    @functools.wraps(run_suite)
    def tapped(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        user = bound.arguments.get("progress")

        def progress(check):
            tracer.check_marks.append((time.perf_counter(), check.test_id,
                                       bool(check.passed)))
            if user is not None:
                user(check)
        bound.arguments["progress"] = progress
        return run_suite(*bound.args, **bound.kwargs)
    return tapped


def install(tracer: Tracer, modules: dict) -> None:
    for layer, metric, modname, attr in TARGETS:
        name = f"{layer}.{metric}"
        mod = modules.get(modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = (owner.__dict__.get(leaf) if isinstance(owner, type)
               else getattr(owner, leaf, None))
        if isinstance(raw, property) and raw.fget is not None:
            setattr(owner, leaf, property(_first_access(tracer, name, raw.fget),
                                          raw.fset, raw.fdel, raw.__doc__))
            continue
        if not callable(raw):
            tracer.absent.append(name)
            continue
        after = None
        if layer == "io":
            after = _written_bytes(tracer, "csv" if metric.endswith("_csv")
                                   else "bin")
        inner = _tap_progress(tracer, raw) if name == "verify.run_suite" else raw
        wrapped = tracer.timed(name, inner, after=after)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
            continue
        # rebind every module-level name that refers to this function
        for m in modules.values():
            for gname, value in list(vars(m).items()):
                if value is raw:
                    setattr(m, gname, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- <majorana cli args>",
              file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    modules = {}
    for name in SUBMODULES:
        try:
            modules[name] = importlib.import_module("majorana." + name)
        except ImportError:
            pass
    if "cli" not in modules:
        print("error: majorana.cli cannot be imported", file=sys.stderr)
        return 2
    tracer = Tracer(run_id)
    install(tracer, modules)
    try:
        code = modules["cli"].main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
