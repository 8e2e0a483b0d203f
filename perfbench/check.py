"""Check the outputs of one CLI invocation, in a process of its own.

    python3 perfbench/check.py WORKLOAD CONFIG OUT_DIR STDOUT_FILE
    python3 perfbench/check.py --env

Prints one JSON object: the checks as [name, passed, detail] plus the
read-back timings, or with --env the numpy and BLAS versions.

The runner spawns every CLI invocation, and a child's peak RSS includes the
peak RSS of the process that spawned it.  So the runner never loads numpy or
parses artifacts itself; that happens here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def main(argv: list[str]) -> int:
    if argv == ["--env"]:
        print(json.dumps(environment()))
        return 0
    if len(argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    from workloads import Checks, WORKLOADS

    name, cfg_path, out, log = argv
    chk = Checks()
    WORKLOADS[name].check(Path(out), Path(log).read_text(errors="replace"),
                          json.loads(Path(cfg_path).read_text()), chk)
    print(json.dumps(asdict(chk)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
