"""Alternating parent/change runs of bench/run.py, summarised as BENCH_*.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workloads regime_n800 [more ...] --pairs 10 --seed S --out BENCH_n.json

DIR is the root of a source checkout (its own src/ and bench/).  Each pair
runs `python3 bench/run.py --workload W --seed S` at its defaults once in
each checkout, the parent first in even pairs and the change first in odd
ones, and reads the run's bench/.work/W-seedS-trace0/result.json.  S must be
a program seed (0-31), the directory name run.py gives the run.  The output
keeps the machine block of the first run, and per workload and side the
commit, source digest, every run's end-to-end metrics and failure count,
and each metric's median and quartiles; per metric it counts the pairs the
change won, in the direction BENCHMARK.json declares.  An existing output
file gains or replaces only the workloads of this call.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(checkout: Path, workload: str, seed: int) -> dict:
    subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                    "--seed", str(seed)], cwd=checkout, check=True,
                   stdout=subprocess.DEVNULL)
    path = checkout / "bench" / ".work" / f"{workload}-seed{seed}-trace0" \
        / "result.json"
    with open(path) as fh:
        res = json.load(fh)
    return {"machine": res["machine"], "metrics": res["metrics"],
            "failed": sum(bool(r["problems"]) for r in res["invocations"]),
            "attempted": len(res["invocations"])}


def summary(runs: list[dict]) -> dict:
    out = {"commit": runs[0]["machine"]["git_commit"],
           "src_sha256": runs[0]["machine"]["src_sha256"],
           "runs": [{k: r[k] for k in ("metrics", "failed", "attempted")}
                    for r in runs]}
    for name in runs[0]["metrics"]:
        q1, med, q3 = statistics.quantiles(
            [r["metrics"][name] for r in runs], n=4, method="inclusive")
        out.setdefault("median", {})[name] = med
        out.setdefault("quartiles", {})[name] = [q1, q3]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 32 or args.pairs < 2:
        ap.error("need a program seed in 0..31 and --pairs >= 2")
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(one_run(getattr(args, side), workload,
                                          args.seed))
            print(f"{workload} pair {i + 1}/{args.pairs}: samples_per_s "
                  f"{runs['parent'][-1]['metrics']['samples_per_s']:.4g} -> "
                  f"{runs['change'][-1]['metrics']['samples_per_s']:.4g}",
                  flush=True)
        record.setdefault("machine", runs["parent"][0]["machine"])
        wins = {}
        for name, sense in better.items():
            sign = 1.0 if sense == "higher" else -1.0
            wins[name] = sum(
                sign * (c["metrics"][name] - p["metrics"][name]) > 0
                for p, c in zip(runs["parent"], runs["change"]))
        record.setdefault("workloads", {})[workload] = {
            "seed": args.seed, "pairs": args.pairs,
            "parent": summary(runs["parent"]),
            "change": summary(runs["change"]),
            "change_wins": wins,
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
