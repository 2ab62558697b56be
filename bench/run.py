"""dwedge benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Every invocation is a fresh
`python3 bench/child.py` process, as a CLI user would start one.  A run
first starts a few set-up-only processes (import plus first-use tables),
then repeats the workload until --seconds have passed, with the same seed
each time.  The seed reaches the program as seed % REFERENCE_SEEDS, so that
the frozen reference (bench/reference.json) holds every seed a run uses.
Each invocation's output is checked: exit code, the workload's statistical
gate, agreement with the frozen reference, and agreement with the run's
first invocation.

--trace 0 reports the end-to-end metrics (medians over the run).
--trace 1 alternates untraced and traced invocations and reports per-layer
metrics from the traced ones, plus the tracing overhead.

Human-readable lines come first; the last line of a workload's report is
one JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs the four workloads one after another.  Files go
to bench/.work/.  Exit code 2 means the run could not start (for example,
no dwedge source next to the benchmark, or no frozen reference for the
seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import REFERENCE_SEEDS, WORKLOADS, mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

SETUP_PROBES = 2
MIN_ROUNDS = {0: 2, 1: 1}      # rounds of invocations before a run may stop
RUN_DEADLINE_S = 160.0         # hard stop, well inside the 180 s budget

# Every invocation runs with one BLAS thread.  At the default of one thread
# per core, OpenBLAS spin-waits whenever another process holds a core, and on
# a shared machine that moved run-to-run timings by a quarter.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = {}
    for name, _, _ in tracing.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
        if name in tracing.CPU_RATIO_SPANS:
            units[f"{name}.cpu_ratio"] = "ratio"
    units["freeconv.assumption_margin.calls_per_sample"] = "1/sample"
    units.update({
        "setup.import_s": "s",
        "setup.tw_table_s": "s",
        "trace.samples_per_s_untraced": "1/s",
        "trace.samples_per_s_traced": "1/s",
        "trace.overhead_ratio": "ratio",
        "trace.overhead_s": "s",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.unspanned_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# Invocations.

def invoke(wl, seed: int, mode: str, stem: str, timeout: float) -> dict:
    """Run one child process to completion; record its wall, CPU and RSS."""
    cmd = [sys.executable, str(HERE / "child.py"), wl.name, str(seed), mode,
           stem]
    reaped = {}
    with open(stem + ".log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT,
                                env={**os.environ, **BLAS_ENV})

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(t_end=time.monotonic(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(max(timeout, 1.0))
        finally:
            killed = waiter.is_alive()
            if killed:
                os.kill(proc.pid, signal.SIGKILL)
                waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    usage = reaped["usage"]
    rec = {"mode": mode, "stem": stem, "killed": killed,
           "exit_code": proc.returncode,
           "wall_s": reaped["t_end"] - t_spawn,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024.0}
    try:
        with open(stem + ".result.json") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        return rec
    rec["child"] = res
    rec["setup_s"] = res["t_ready"] - t_spawn
    if "t_done" in res:
        rec["compute_s"] = res["t_done"] - res["t_ready"]
        rec["samples_per_s"] = wl.samples / rec["compute_s"]
    return rec


def check(wl, rec: dict, reference: dict | None,
          first_key: dict | None) -> tuple[list[str], dict | None]:
    """Problems with one invocation, and its key outputs when it produced any."""
    if rec["killed"]:
        return ["killed at the run deadline"], None
    if "child" not in rec:
        return [f"no result record (exit code {rec['exit_code']}); "
                f"see {rec['stem']}.log"], None
    if rec["exit_code"] not in wl.ok_codes:
        return [f"exit code {rec['exit_code']}"], None
    if rec["mode"] == "setup":
        return [], None
    if rec["mode"] == "trace" and not rec["child"].get("restored"):
        return ["a traced attribute was not restored"], None
    try:
        out = wl.read(rec["stem"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {e!r}"], None
    problems = wl.gate(out, rec["exit_code"])
    key = wl.key(out)
    if reference is not None:
        bad = mismatches(key, reference)
        if bad:
            problems.append(f"differs from the frozen reference in {bad}")
    if first_key is not None:
        bad = mismatches(key, first_key)
        if bad:
            problems.append(f"differs from the run's first invocation in {bad}")
    if wl.note is not None:
        rec["note"] = wl.note(out)
    return problems, key


# ---------------------------------------------------------------------------
# Metrics.

def _median(xs) -> float:
    xs = [float(x) for x in xs]
    return statistics.median(xs) if xs else 0.0


def end_to_end(recs: list[dict]) -> dict[str, float]:
    runs = [r for r in recs if r["mode"] == "run"]
    return {
        "setup_s": _median(r["setup_s"] for r in recs if "setup_s" in r),
        "samples_per_s": _median(r["samples_per_s"] for r in runs
                                 if "samples_per_s" in r),
        "run_s": _median(r["wall_s"] for r in runs),
        "cpu_s": _median(r["cpu_s"] for r in runs),
        "peak_rss_mb": _median(r["rss_mb"] for r in runs),
    }


def per_layer(wl, recs: list[dict]) -> dict[str, float]:
    units = per_layer_units()
    names = [name for name, _, _ in tracing.TARGETS]
    traced = [r for r in recs if r["mode"] == "trace" and "compute_s" in r]
    untraced = [r for r in recs if r["mode"] == "run" and "compute_s" in r]
    sums = {name: 0.0 for name in units}
    cpu = {name: 0.0 for name in names}
    for r in traced:
        spans = [tracing.Span.from_json(row) for row in r["child"]["spans"]]
        for name, row in tracing.layer_totals(spans, names).items():
            for field in ("calls", "self_s", "total_s"):
                sums[f"{name}.{field}"] += row[field]
            cpu[name] += row["cpu_s"]
    n = max(len(traced), 1)
    out = {k: v / n for k, v in sums.items()}
    for name in tracing.CPU_RATIO_SPANS:
        total = sums[f"{name}.total_s"]
        out[f"{name}.cpu_ratio"] = cpu[name] / total if total > 0 else 0.0
    out["freeconv.assumption_margin.calls_per_sample"] = \
        out["freeconv.assumption_margin.calls"] / wl.samples
    for field in ("import_s", "tw_table_s"):
        out[f"setup.{field}"] = _median(
            r["child"][field] for r in recs
            if "child" in r and field in r["child"])
    sps_t = _median(r["samples_per_s"] for r in traced)
    sps_u = _median(r["samples_per_s"] for r in untraced)
    wall_t = _median(r["compute_s"] for r in traced)
    out.update({
        "trace.samples_per_s_traced": sps_t,
        "trace.samples_per_s_untraced": sps_u,
        "trace.overhead_ratio": sps_u / sps_t if sps_t > 0 else 0.0,
        "trace.overhead_s": wall_t - _median(r["compute_s"] for r in untraced),
        "trace.wall_s": sum(r["compute_s"] for r in traced) / n,
        "trace.self_sum_s": sum(out[f"{name}.self_s"] for name in names),
    })
    out["trace.unspanned_s"] = out["trace.wall_s"] - out["trace.self_sum_s"]
    return out


# ---------------------------------------------------------------------------
# Machine block.

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dwedge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine(recs: list[dict]) -> dict:
    child = next((r["child"] for r in recs if "child" in r), {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": child.get("python", platform.python_version()),
        "numpy": child.get("numpy"),
        "scipy": child.get("scipy"),
        "blas": child.get("blas"),
        "blas_env": BLAS_ENV,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------

def run_workload(wl, seed: int, seconds: float, trace: int,
                 ref: dict) -> None:
    """One run at program seed `seed`: set-up probes, invocations for
    `seconds`, checks against the frozen outputs `ref`, report."""
    t0 = time.monotonic()
    deadline = t0 + RUN_DEADLINE_S
    workdir = WORK / f"{wl.name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    recs: list[dict] = []

    def step(mode: str) -> None:
        stem = str(workdir / f"{len(recs):03d}-{mode}")
        recs.append(invoke(wl, seed, mode, stem,
                           deadline - time.monotonic()))

    for _ in range(SETUP_PROBES):
        step("setup")
    modes = ("run",) if trace == 0 else ("run", "trace")
    loop_start = time.monotonic()
    rounds = []
    while True:
        r0 = time.monotonic()
        for mode in modes:
            step(mode)
        now = time.monotonic()
        rounds.append(now - r0)
        nxt = statistics.median(rounds)
        if len(rounds) >= MIN_ROUNDS[trace] and \
                now - loop_start + nxt > seconds:
            break
        if now + nxt > deadline or recs[-1]["killed"]:
            break

    problems: list[str] = []
    failed = 0
    first_key = None
    for r in recs:
        bad, key = check(wl, r, ref, first_key)
        if first_key is None and key is not None:
            first_key = key
        r["problems"] = bad
        if bad:
            failed += 1
            problems += [f"{os.path.basename(r['stem'])}: {p}" for p in bad]

    if trace == 0:
        values, units = end_to_end(recs), END_TO_END
    else:
        values, units = per_layer(wl, recs), per_layer_units()
    mach = machine(recs)
    n_inv = sum(r["mode"] != "setup" for r in recs)
    print("machine: " + json.dumps(mach))
    print(f"workload {wl.name}, seed {seed}, trace {trace}: "
          f"{n_inv} invocations after {SETUP_PROBES} set-up probes, "
          f"{wl.samples} matrices each, {time.monotonic() - t0:.1f} s")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:.6g} {unit}")
    print(f"  {'failed_frac':<48} {failed / len(recs):.6g} frac "
          f"({failed} of {len(recs)} processes)")
    for note in sorted({r["note"] for r in recs if "note" in r}):
        print(f"  recorded, not gated: {note}")
    print(f"  checked against the frozen reference for program seed {seed}")
    for p in problems:
        print(f"  FAILED {p}")

    spans = {os.path.basename(r["stem"]): r["child"].pop("spans")
             for r in recs if "spans" in r.get("child", {})}
    with open(workdir / "result.json", "w") as fh:
        json.dump({"machine": mach, "workload": wl.name, "seed": seed,
                   "trace": trace, "seconds": seconds,
                   "metrics": values, "problems": problems,
                   "invocations": recs}, fh, indent=1)
    if spans:
        with open(workdir / "spans.json", "w") as fh:
            json.dump(spans, fh)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(recs), "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dwedge" / "cli.py").is_file():
        print(f"error: no dwedge source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: frozen reference unreadable: {e!r}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed % REFERENCE_SEEDS
    refs = {name: reference.get(name, {}).get(str(seed)) for name in names}
    missing = [name for name, ref in refs.items() if ref is None]
    if missing:
        print(f"error: no frozen reference for program seed {seed} of "
              f"{missing}; run bench/freeze.py", file=sys.stderr)
        return 2
    if seed != args.seed:
        print(f"seed {args.seed} reaches the program as {args.seed} % "
              f"{REFERENCE_SEEDS} = {seed}")
    for name in names:
        run_workload(WORKLOADS[name], seed, args.seconds, args.trace,
                     refs[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
