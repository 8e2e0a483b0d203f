"""Sample how fast this CPU runs, alongside the CLI, on the same CPU.

    python3 perfbench/probe.py SAMPLES.json

Every PERIOD_S the probe wakes, runs a fixed kernel of about half a
millisecond twice and records (monotonic time, duration of the second run);
the first run refills the caches the CLI evicted since the last sample.  The
kernel does a little of each kind of work the CLI does -- an interpreted
loop, float formatting as in its CSV writers, a small matrix product, an
einsum along one axis of a spinor field as in the rotor DFT, sums over
arrays of 0.5 and 4 MB.  On SIGTERM the probe writes the samples to
SAMPLES.json as a JSON list and exits.

The runner pins the probe to the CPU the CLI runs on.  On a shared host that
CPU's speed drifts with other tenants' load, over seconds to minutes, and
the CLI's wall time drifts with it; the probe's median duration during an
invocation measures that drift over exactly the invocation's time.  Timed
one at a time, the array sums slow down in the same proportion as the CLI
does and the interpreted parts more; the mix follows the CLI best.  The
probe uses about 2% of the CPU, the same on every commit, and its kernel
does not touch the program.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.05

_rng = np.random.default_rng(1)
_A = _rng.standard_normal((48, 48))
_ROTOR = _rng.standard_normal((16, 16))
_FIELD = _rng.standard_normal((16, 16, 16, 4))
_MID = _rng.standard_normal(1 << 16)
_BIG = _rng.standard_normal(1 << 19)
_VALUES = [float(v) for v in _rng.standard_normal(30)]


def kernel() -> None:
    s = 0
    for i in range(800):
        s += i * i % 7
    ",".join(format(v, '.17g') for v in _VALUES)
    _A @ _A
    np.einsum('ki,i...a->k...a', _ROTOR, _FIELD)
    _MID.sum()
    _BIG.sum()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        kernel()
        t0 = time.perf_counter()
        kernel()
        samples.append((time.monotonic(), time.perf_counter() - t0))
        time.sleep(PERIOD_S)
    with open(argv[0], "w") as f:
        json.dump(samples, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
