"""The benchmark's workloads: how each one runs, and how its output is checked.

Each workload is one invocation of the program, run in a fresh process by
child.py.  `run` executes inside that process (it imports dwedge); `read`,
`gate` and `key` run in the benchmark process and only parse output files.
The seed reaches the program only as the `--seed` flag or the `seed` field of
the ensemble spec.

At 40 to 60 samples an invocation's statistical gate catches only gross
errors (a wrong law or edge scaling); the real output check is the frozen
reference, which holds every program seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

TWO_ATOM = {"type": "atomic", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
JACOBI = {"type": "jacobi", "a": 1, "b": 1}

# Random matrices per invocation.  mc-edge and regime run below their CLI
# defaults (200 and 300 samples) so that several invocations fit in one run;
# the per-sample work is the same.
MC_N = 40
REGIME_N = 50
RIGIDITY_N = 60
RIGIDITY_KMAX = 20
VERIFY_MATRICES = 40 + 40 + 3 * 40   # identities, local-law, optical x 3 sizes

# One-sided KS critical value at level 1e-3; the statistical gates allow the
# acceptance criterion's population distance plus this sampling margin.
KS_C = 1.95

# Program seeds held in reference.json.  A benchmark seed reaches the program
# as seed % REFERENCE_SEEDS, so every run is checked against frozen outputs.
REFERENCE_SEEDS = 32

# "Float noise" for the frozen reference and for repeat invocations.
RTOL = 1e-8
ATOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    samples: int                 # random matrices per invocation
    tables: tuple[str, ...]      # first-touch tables paid in setup
    run: Callable[[int, str], int]
    read: Callable[[str], dict]
    gate: Callable[[dict, int], list[str]]
    key: Callable[[dict], dict]  # outputs that must repeat to float noise
    ok_codes: tuple[int, ...] = (0,)
    note: Callable[[dict], str] | None = None   # a verdict recorded, not gated


def _cli(argv: list[str]) -> int:
    from dwedge import cli
    return cli.main(argv)


def _read_json(stem: str) -> dict:
    with open(stem + ".json") as fh:
        return json.load(fh)


def _read_csv_column(stem: str, column: str) -> list[float]:
    with open(stem + ".csv", newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _finite(xs) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


# -- mc_edge_jacobi ---------------------------------------------------------

def _run_mc_edge(seed: int, stem: str) -> int:
    return _cli(["mc-edge", "--N", "500", "--lam0", "0.5",
                 "--potential", json.dumps(JACOBI), "--n", str(MC_N),
                 "--workers", "1", "--seed", str(seed), "--out", stem])


def _read_mc_edge(stem: str) -> dict:
    summary = _read_json(stem)
    return {"ks": float(summary["ks"]), "n": int(summary["n"]),
            "law": summary["law"], "samples": _read_csv_column(stem, "s1")}


def _gate_mc_edge(out: dict, code: int) -> list[str]:
    n = len(out["samples"])
    limit = 0.06 + KS_C / math.sqrt(max(n, 1))   # criterion 8 gate + margin
    problems = []
    if n != MC_N or out["n"] != MC_N:
        problems.append(f"expected {MC_N} samples, got {n}")
    if not _finite(out["samples"]):
        problems.append("non-finite sample")
    if out["law"] != "tw1":
        problems.append(f"law {out['law']!r} is not tw1")
    if not out["ks"] < limit:
        problems.append(f"KS to TW1 {out['ks']:.4f} >= {limit:.4f}")
    return problems


# -- regime_n800 ------------------------------------------------------------

def _run_regime(seed: int, stem: str) -> int:
    return _cli(["regime", "--sizes", "800", "--n", str(REGIME_N),
                 "--seed", str(seed), "--out", stem])


def _read_regime(stem: str) -> dict:
    (verdict,) = _read_json(stem)["verdicts"]
    return {"ks": float(verdict["ks"]), "case": verdict["case"],
            "law": verdict["law"], "n": int(verdict["n"]),
            "samples": _read_csv_column(stem, "stat")}


def _gate_regime(out: dict, code: int) -> list[str]:
    n = len(out["samples"])
    limit = 0.08 + KS_C / math.sqrt(max(n, 1))   # criterion 9 own-law gate
    problems = []
    if n != REGIME_N or out["n"] != REGIME_N:
        problems.append(f"expected {REGIME_N} samples, got {n}")
    if not _finite(out["samples"]):
        problems.append("non-finite sample")
    if (out["case"], out["law"]) != ("i", "tw1"):
        problems.append(f"case {out['case']!r} law {out['law']!r}, "
                        "expected case i against tw1")
    if not out["ks"] < limit:
        problems.append(f"KS to TW1 {out['ks']:.4f} >= {limit:.4f}")
    return problems


def _mc_key(out: dict) -> dict:
    return {"ks": out["ks"], "samples": out["samples"]}


# -- rigidity_iid -----------------------------------------------------------

def _run_rigidity(seed: int, stem: str) -> int:
    from dwedge import ensemble as ens
    from dwedge import measure as ms
    from dwedge import twstats as tw
    spec = ens.EnsembleSpec(N=500, lam0=0.5,
                            potential=ens.IIDFrom(ms.from_json(TWO_ATOM)),
                            seed=seed)
    rep = tw.rigidity_report(spec, RIGIDITY_N, RIGIDITY_KMAX)
    with open(stem + ".json", "w") as fh:
        json.dump({"n_samples": rep["n_samples"],
                   "median": [float(x) for x in rep["median"]],
                   "p95": [float(x) for x in rep["p95"]],
                   "threshold": float(rep["threshold"]),
                   "flag": bool(rep["flag"])}, fh)
    return 0


def _gate_rigidity(out: dict, code: int) -> list[str]:
    problems = []
    if out["n_samples"] != RIGIDITY_N:
        problems.append(f"expected {RIGIDITY_N} samples, got {out['n_samples']}")
    if len(out["median"]) != RIGIDITY_KMAX or len(out["p95"]) != RIGIDITY_KMAX:
        problems.append(f"expected k <= {RIGIDITY_KMAX} statistics")
    if not _finite(out["median"] + out["p95"]):
        problems.append("non-finite statistic")
    elif not max(out["median"]) < 3.0:                # criterion 11 gate
        problems.append(f"worst median {max(out['median']):.3f} >= 3")
    return problems


def _note_rigidity(out: dict) -> str:
    # Criterion 11 also gates the flag, for fixed potentials at 200 samples.
    # With an iid potential the worst p95 sits near N^0.2, so the flag is
    # recorded here, not gated.
    return (f"rigidity flag={out['flag']} (worst p95 {max(out['p95']):.4f} "
            f"against N^0.2 = {out['threshold']:.4f})")


def _rigidity_key(out: dict) -> dict:
    return {"median": out["median"], "p95": out["p95"]}


# -- verify_all -------------------------------------------------------------

def _run_verify(seed: int, stem: str) -> int:
    return _cli(["verify", "--suite", "all", "--seed", str(seed),
                 "--out", stem])


def _read_verify(stem: str) -> dict:
    summary = _read_json(stem)
    return {"status": summary["status"],
            "reports": {r["suite"]: r for r in summary["reports"]}}


def _gate_verify(out: dict, code: int) -> list[str]:
    reports = out["reports"]
    if sorted(reports) != ["identities", "local-law", "optical"]:
        return [f"suites {sorted(reports)} are not the three of --suite all"]
    problems = [f"{name} report has no boolean pass" for name, r in
                reports.items() if not isinstance(r.get("pass"), bool)]
    if problems:
        return problems
    # Only the exact identities are gated.  The local-law and optical
    # verdicts are statistical and fail at the defaults for most seeds, so
    # they are recorded (see _note_verify) and their numbers are pinned by
    # the frozen reference instead.
    if not reports["identities"]["pass"]:
        problems.append("identities suite failed")
    all_pass = all(r["pass"] for r in reports.values())
    if out["status"] != ("pass" if all_pass else "fail") \
            or code != (0 if all_pass else 3):
        problems.append(f"status {out['status']!r} and exit code {code} "
                        "disagree with the suite verdicts")
    if not 0.0 <= reports["local-law"].get("pass_fraction", -1.0) <= 1.0:
        problems.append("local-law pass_fraction missing or out of [0, 1]")
    if len(reports["optical"].get("medians", ())) != 3 \
            or not _finite(reports["optical"]["medians"]):
        problems.append("optical medians missing or non-finite")
    return problems


def _note_verify(out: dict) -> str:
    ll, op = out["reports"]["local-law"], out["reports"]["optical"]
    return (f"verify local-law pass={ll['pass']} "
            f"pass_fraction={ll['pass_fraction']} (suite gate 0.9); "
            f"optical pass={op['pass']} slope={op['slope']:.4f} "
            f"(band {op['band']})")


def _verify_key(out: dict) -> dict:
    ll, op = out["reports"]["local-law"], out["reports"]["optical"]
    return {"local_law_pass_fraction": ll["pass_fraction"],
            "local_law_medians": [ll["residuals"][k]["median"]
                                  for k in ("r_m", "r_offdiag", "r_diag")],
            "optical_medians": op["medians"]}


WORKLOADS = {w.name: w for w in [
    Workload("mc_edge_jacobi",
             "per-sample edge scaling from 500 distinct atoms, so "
             "edgescale.build and its assumption_margin grid dominate",
             MC_N, ("tw1", "jacobi"), _run_mc_edge, _read_mc_edge,
             _gate_mc_edge, _mc_key),
    Workload("regime_n800",
             "case-i regime run at N=800 with no per-sample edge scaling; "
             "sampling and the eigensolve dominate",
             REGIME_N, ("tw1",), _run_regime, _read_regime, _gate_regime,
             _mc_key),
    Workload("rigidity_iid",
             "rigidity_report with an iid potential: a 2001-point solve_grid "
             "per sample and a top-20 eigenvalue use",
             RIGIDITY_N, (), _run_rigidity, _read_json, _gate_rigidity,
             _rigidity_key, note=_note_rigidity),
    Workload("verify_all",
             "verify --suite all: the only workload that runs resolvent "
             "(eigh, complex solves) and solve_point at complex z",
             VERIFY_MATRICES, (), _run_verify, _read_verify, _gate_verify,
             _verify_key, ok_codes=(0, 3), note=_note_verify),
]}


def mismatches(got: dict, want: dict) -> list[str]:
    """Keys of two `key` dicts that differ by more than float noise."""
    bad = []
    for k in sorted(set(got) | set(want)):
        a, b = got.get(k), want.get(k)
        a_list, b_list = isinstance(a, list), isinstance(b, list)
        if a is None or b is None or a_list != b_list or \
                (a_list and len(a) != len(b)):
            bad.append(k)
            continue
        pairs = zip(a, b) if a_list else [(a, b)]
        if not all(abs(float(x) - float(y)) <= ATOL + RTOL * abs(float(y))
                   for x, y in pairs):
            bad.append(k)
    return bad
