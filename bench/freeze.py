"""Regenerate bench/reference.json, the frozen outputs the benchmark checks.

    python3 bench/freeze.py

Runs one invocation of every workload at each program seed
0 .. REFERENCE_SEEDS-1 and stores its key outputs: KS and rescaled samples,
the rigidity statistics, or the verify local-law and optical numbers.  Run it
only at a commit whose outputs are the accepted reference; a change that
moves them by more than float noise must say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    workdir = run.WORK / "freeze"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = {}
    for wl in WORKLOADS.values():
        reference[wl.name] = {}
        for seed in range(REFERENCE_SEEDS):
            rec = run.invoke(wl, seed, "run", str(workdir / f"{wl.name}-{seed}"),
                             timeout=600.0)
            problems, key = run.check(wl, rec, None, None)
            if problems:
                print(f"{wl.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference[wl.name][str(seed)] = key
            print(f"{wl.name} seed {seed}: {rec['wall_s']:.1f} s", flush=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
