"""One invocation of one workload, in a fresh process.

    python3 bench/child.py <workload> <seed> <setup|run|trace> <stem>

Imports dwedge from the checkout's src/, touches the first-use tables the
workload needs, then (unless the mode is `setup`) runs the workload once,
writing the program's outputs under <stem>.  In `trace` mode the dwedge
layers and LAPACK entry points are wrapped for the run only.  Timestamps are
CLOCK_MONOTONIC, so the parent can compare them with its own.  The record is
written to <stem>.result.json; the exit code is the workload's.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import json
import os
import sys
import time

T_START = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def blas_info() -> list[dict]:
    """Vendor, version and live thread count of each BLAS numpy and scipy load."""
    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        dep = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        row = {"library": pkg.__name__, "vendor": dep.get("name"),
               "version": dep.get("version"), "threads": None}
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    row["threads"] = int(fn())
                    break
        out.append(row)
    return out


def touch_tables(tables) -> dict[str, float]:
    """First-use cost of each cached table the workload reads."""
    import numpy as np
    from dwedge import measure as ms
    from dwedge import twstats as tw
    from workloads import JACOBI

    cost = {}
    if "tw1" in tables:
        t0 = time.perf_counter()
        tw.law_cdf(tw.LimitLaw(tw.TW1), 0.0)
        cost["tw_table_s"] = time.perf_counter() - t0
    if "jacobi" in tables:
        t0 = time.perf_counter()
        nu = ms.from_json(JACOBI)
        ms.sample(nu, 1, np.random.default_rng(0))   # CDF table
        ms.stieltjes(nu, 3.0j)                        # quadrature nodes
        cost["jacobi_table_s"] = time.perf_counter() - t0
    return cost


def main(argv: list[str]) -> int:
    name, seed, mode, stem = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dwedge.cli  # noqa: F401  (imports every dwedge module)
    t_import = time.monotonic()

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    rec = {"workload": name, "seed": seed, "mode": mode,
           "t_start": T_START, "import_s": t_import - T_START}
    rec.update(touch_tables(wl.tables))
    rec["t_ready"] = time.monotonic()
    code = 0
    if mode != "setup":
        if mode == "trace":
            originals = [getattr(importlib.import_module(m), a)
                         for _, m, a in tracing.TARGETS]
            with tracing.Tracer() as tracer:
                code = wl.run(seed, stem)
            rec["restored"] = all(
                getattr(importlib.import_module(m), a) is orig
                for (_, m, a), orig in zip(tracing.TARGETS, originals))
            rec["spans"] = [s.to_json() for s in tracer.spans]
        else:
            code = wl.run(seed, stem)
        rec["t_done"] = time.monotonic()
    import numpy
    import scipy
    rec.update(exit_code=code, python=sys.version.split()[0],
               numpy=numpy.__version__, scipy=scipy.__version__,
               blas=blas_info())
    with open(stem + ".result.json", "w") as fh:
        json.dump(rec, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
