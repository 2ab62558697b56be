"""Command-line front end for reproducible batch runs.

Configuration merges three layers: per-command defaults, an optional JSON
config file (--config), and command-line flags; later layers win, so a
config file drives scripted sweeps while flags serve ad-hoc overrides.
Every JSON summary embeds the fully resolved configuration, the master
seed, and a schema version: a summary file is a complete recipe for
reproducing its own run.

All randomness flows from the 64-bit master seed through named counter
streams (see rngstream), so outputs are independent of worker count and
scheduling.  The default worker count comes from DWEDGE_WORKERS.

Exit codes: 0 success, 1 numerical failure, 2 configuration error,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import dbm
from . import edgescale as es
from . import ensemble as ens
from . import freeconv as fc
from . import measure as ms
from . import resolvent as rv
from . import rngstream
from . import twstats as tw

SCHEMA_VERSION = 1

TWO_ATOM = {"type": "atomic", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
DELTA0 = {"type": "atomic", "atoms": [[0.0, 1.0]]}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing.

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object")
    return obj


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags; flags win."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_json(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        for key, val in file_cfg.items():
            keep = val is None and defaults[key] is None
            cfg[key] = val if keep else _from_file(key, val)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _from_file(key: str, val):
    """A config-file value through the type and choices of its flag."""
    opts = _FLAGS[key]
    convert = opts.get("type", lambda x: x)
    try:
        if opts.get("nargs") != "+":
            val = convert(val)
        elif isinstance(val, list) and val:
            val = [convert(x) for x in val]
        else:
            raise ValueError("expected a nonempty list")
        if "choices" in opts and val not in opts["choices"]:
            raise ValueError(f"expected one of {opts['choices']}")
    except (TypeError, ValueError, argparse.ArgumentTypeError) as e:
        raise ConfigError(f"config.{key}: {e}, got {val!r}") from e
    return val


def _json_arg(raw):
    """JSON given inline as text, as a file path, or already parsed."""
    if isinstance(raw, dict):
        return raw
    if not isinstance(raw, str):
        raise ms.MeasureFormatError(
            f"measure: expected JSON text or an object, got {raw!r}")
    if os.path.exists(raw):
        return _load_json(raw)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise ms.MeasureFormatError(
            f"measure: not a file and not valid JSON ({e.msg})") from e


def _measure_arg(raw) -> ms.Measure:
    return ms.from_json(_json_arg(raw))


def _potential_arg(raw, n: int) -> ens.IIDFrom | ens.Fixed:
    """'zeros', a potential as a summary records it, or a measure for iid V."""
    if raw == "zeros":
        return ens.Fixed(np.zeros(n))
    obj = _json_arg(raw)
    if isinstance(obj, dict) and "kind" in obj:
        return ens.potential_from_json(obj)
    return ens.IIDFrom(ms.from_json(obj))


def _summary(command: str, cfg: dict, **extra) -> dict:
    out = {"schema": SCHEMA_VERSION, "command": command, "config": cfg}
    out.update(extra)
    return out


def _emit(summary: dict, out: str | None, csv_text: str | None = None) -> None:
    """Write <out>.json (+ <out>.csv when given) or print JSON to stdout."""
    if out is None:
        json.dump(summary, sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
        return
    base = out
    for suffix in (".json", ".csv"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    with open(base + ".json", "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    wrote = [base + ".json"]
    if csv_text is not None:
        with open(base + ".csv", "w") as fh:
            fh.write(csv_text)
        wrote.append(base + ".csv")
    print("wrote " + " ".join(wrote))


def _spec_from_cfg(cfg: dict) -> ens.EnsembleSpec:
    law = cfg["law"]
    c2 = cfg["c2"]
    if c2 is None or c2 == "matched":
        c2 = ens.edge_matched_c2(law)
    return ens.EnsembleSpec(
        N=int(cfg["N"]), lam0=float(cfg["lam0"]),
        potential=_potential_arg(cfg["potential"], int(cfg["N"])),
        law=law, c2=float(c2), zero_diagonal=bool(cfg["zero_diagonal"]),
        seed=int(cfg["seed"]))


# ---------------------------------------------------------------------------
# Subcommands.

FC_DEFAULTS = {
    "measure": DELTA0, "lam": 0.0, "gamma": 1.0, "lo": None, "hi": None,
    "points": 2001, "eta": 1e-5, "extrapolate": False, "out": None,
}


def cmd_fc_solve(cfg: dict) -> int:
    nu = _measure_arg(cfg["measure"])
    lam = float(cfg["lam"])
    gamma = float(cfg["gamma"])
    if cfg["lo"] is None or cfg["hi"] is None:
        try:
            e_m, e_p = fc.support_endpoints(nu, lam)
        except fc.AssumptionViolatedError:
            # Inner-edge assumption failure (split support); the hull of
            # lam*nu plus the semicircle still brackets all the mass.
            vmin, vmax = ms.support_interval(nu)
            e_m, e_p = lam * vmin - 2.0, lam * vmax + 2.0
        lo = gamma * e_m - 0.5 if cfg["lo"] is None else float(cfg["lo"])
        hi = gamma * e_p + 0.5 if cfg["hi"] is None else float(cfg["hi"])
    else:
        lo, hi = float(cfg["lo"]), float(cfg["hi"])
    eta = float(cfg["eta"])
    sol = fc.solve_grid(nu, lam, gamma, lo, hi, int(cfg["points"]), eta)
    # unchecked outer edges: a split support reports its hull, and a law
    # with no edge root fails here, before the extrapolation solve
    support = list(sol.support)
    if cfg["extrapolate"]:
        sol = dataclasses.replace(
            sol, density=fc.density_at(nu, lam, gamma, sol.grid, eta))
    cfg = dict(cfg, lo=lo, hi=hi, measure=ms.to_json(nu))
    summary = _summary("fc-solve", cfg, support=support,
                       mass=float(np.trapezoid(sol.density, sol.grid)),
                       peak=float(sol.density.max()),
                       iterations=sol.iterations)
    _emit(summary, cfg["out"], fc.solution_to_csv(sol))
    return 0


ES_DEFAULTS = {"measure": TWO_ATOM, "lam": 0.5, "out": None}
_ES_RESIDUAL_GATE = 1e-10


def cmd_edge_scaling(cfg: dict) -> int:
    nu = _measure_arg(cfg["measure"])
    cfg = dict(cfg, measure=ms.to_json(nu))
    try:
        scaling = es.build(nu, float(cfg["lam"]))
    except fc.AssumptionViolatedError as e:
        _emit(_summary("edge-scaling", cfg, status="assumption_failed",
                       detail=str(e)), cfg["out"])
        return 0
    report = es.to_json(scaling)
    status = "pass" if max(report["residuals"].values()) < _ES_RESIDUAL_GATE \
        else "residuals_exceeded"
    _emit(_summary("edge-scaling", cfg, status=status, report=report),
          cfg["out"])
    return 0


SAMPLE_DEFAULTS = {
    "N": 200, "lam0": 0.0, "potential": "zeros", "law": ens.GAUSSIAN,
    "c2": 0.0, "zero_diagonal": True, "seed": 0, "n": 1,
    "format": "csv", "out": None,
}


def cmd_sample(cfg: dict) -> int:
    if cfg["out"] is None:
        raise ConfigError("sample: --out is required")
    if int(cfg["n"]) < 0:
        raise ConfigError(f"sample: need --n >= 0, got {cfg['n']}")
    writers = {"binary": ens.write_spectra_binary, "csv": ens.write_spectra_csv}
    spec = _spec_from_cfg(cfg)
    spectra = np.empty((int(cfg["n"]), spec.N))
    for j in range(spectra.shape[0]):
        rng = rngstream.stream(spec.seed, "sample", j)
        spectra[j] = ens.eigenvalues(ens.sample_deformed(spec, rng)[0])
    writers[cfg["format"]](cfg["out"], spectra)
    print(f"wrote {cfg['out']}")
    return 0


MC_DEFAULTS = {
    "N": 300, "lam0": 0.0, "potential": "zeros", "law": ens.GAUSSIAN,
    "c2": "matched", "zero_diagonal": False, "seed": 0, "n": 200,
    "top_k": 1, "workers": None, "out": None,
}


def cmd_mc_edge(cfg: dict) -> int:
    if cfg["workers"] is None:
        cfg["workers"] = int(os.environ.get("DWEDGE_WORKERS", "1"))
    spec = _spec_from_cfg(cfg)
    result = tw.mc_edge(spec, int(cfg["n"]), top_k=int(cfg["top_k"]),
                        parallel=int(cfg["workers"]))
    cfg = dict(cfg, c2=spec.c2, potential=ens.potential_to_json(spec.potential))
    lines = ["sample," + ",".join(f"s{j + 1}" for j in range(int(cfg["top_k"])))]
    samples = np.atleast_2d(result.samples.T).T
    for idx, row in enumerate(samples):
        lines.append(f"{idx}," + ",".join(f"{float(x)!r}" for x in row))
    summary = _summary("mc-edge", cfg, n=result.n_samples, ks=result.ks,
                       law=tw.TW1, params={"e_plus_mean": float(np.mean(result.e_plus)),
                                           "gamma0_mean": float(np.mean(result.gamma0))},
                       seed=spec.seed, runtime=result.runtime)
    _emit(summary, cfg["out"], "\n".join(lines) + "\n")
    return 0


REGIME_DEFAULTS = {
    "measure": TWO_ATOM, "sigma0": 1.0, "delta": 1.0 / 3.0,
    "sizes": [400], "n": 300, "seed": 0, "out": None,
}


def cmd_regime(cfg: dict) -> int:
    nu = _measure_arg(cfg["measure"])
    sizes = [int(x) for x in cfg["sizes"]]
    outs = tw.regime_test(nu, float(cfg["sigma0"]), float(cfg["delta"]),
                          sizes, int(cfg["n"]), seed=int(cfg["seed"]))
    cfg = dict(cfg, measure=ms.to_json(nu), sizes=sizes)
    lines = ["N,sample,stat"]
    for out in outs:
        for idx, x in enumerate(out["samples"]):
            lines.append(f"{out['N']},{idx},{float(x)!r}")
    verdicts = [{
        "N": o["N"], "lam0": o["lam0"], "case": o["case"],
        "law": o["law"].variant, "sigma2": o["law"].sigma2,
        "e_plus": o["e_plus"], "ks": o["ks"], "n": o["n_samples"],
    } for o in outs]
    _emit(_summary("regime", cfg, verdicts=verdicts), cfg["out"],
          "\n".join(lines) + "\n")
    return 0


DBM_DEFAULTS = {
    "N": 200, "lam0": 0.0, "potential": "zeros", "law": ens.GAUSSIAN,
    "c2": 0.0, "zero_diagonal": True, "seed": 0, "n": 50,
    "times": [0.0, 1.0], "observable": "edge", "out": None,
}


def cmd_dbm(cfg: dict) -> int:
    if int(cfg["n"]) < 1:
        raise ConfigError(f"dbm: need --n >= 1, got {cfg['n']}")
    times = dbm.flow_times(cfg["times"])
    spec = _spec_from_cfg(cfg)
    lines = ["trajectory,t,value"]
    values = {t: [] for t in times}
    for j in range(int(cfg["n"])):
        rng = rngstream.stream(spec.seed, "dbm", j)
        if cfg["observable"] == "m-edge":
            # value = Im m(t, z(t)) of the rescaled flow at the moving edge
            for t, mval in dbm.flow_edge_track(spec, times, 0.0, rng):
                lines.append(f"{j},{t},{float(mval.imag)!r}")
                values[t].append(mval.imag)
        else:
            state, _ = dbm.start(spec, rng)
            for t in times:
                if t > state.t:
                    state = dbm.evolve(state, t - state.t)
                mu1 = ens.eigenvalues(state.h, top=1)[0]
                lines.append(f"{j},{t},{float(mu1)!r}")
                values[t].append(mu1)
    cfg = dict(cfg, times=times, c2=spec.c2,
               potential=ens.potential_to_json(spec.potential))
    per_time = {str(t): {"mean": float(np.mean(v)), "sd": float(np.std(v))}
                for t, v in values.items()}
    extra = {"per_time": per_time}
    if len(times) > 1:
        extra["ks_first_last"] = dbm.ks_two_sample(values[times[0]],
                                                   values[times[-1]])
    _emit(_summary("dbm", cfg, **extra), cfg["out"], "\n".join(lines) + "\n")
    return 0


VERIFY_DEFAULTS = {"suite": "all", "seed": 0, "seeds": 40, "out": None}
_VERIFY_IDENTITY_GATE = 1e-9
_VERIFY_LL_BOUND_EXP = 0.1    # residual bound N^0.1
_VERIFY_LL_PASS_FRACTION = 0.9
_VERIFY_OPT_SLOPE_BAND = (-0.583, -0.083)


def _quantiles(xs) -> dict:
    arr = np.asarray(xs, dtype=float)
    return {"median": float(np.median(arr)),
            "p95": float(np.quantile(arr, 0.95)),
            "max": float(arr.max())}


def _verify_identities(seed: int, n_runs: int) -> dict:
    worst = []
    for j in range(n_runs):
        rng = rngstream.stream(seed, "vfyid", j)
        n = 25
        h = ens.sample_wigner(n, ens.GAUSSIAN, 1.0, rng, zero_diagonal=False)
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.01, 1.0))
        i, jj, k = rng.choice(n, size=3, replace=False)
        res = rv.verify_identities(h, z, int(i), int(jj), int(k))
        worst.append(max(res.values()))
    q = _quantiles(worst)
    return {"suite": "identities", "runs": n_runs, "residuals": q,
            "threshold": _VERIFY_IDENTITY_GATE,
            "pass": bool(q["max"] < _VERIFY_IDENTITY_GATE)}


def _verify_local_law(seed: int, n_runs: int) -> dict:
    nu = ms.from_json(TWO_ATOM)
    n = 200
    lam0 = 0.5
    spec = ens.EnsembleSpec(N=n, lam0=lam0,
                            potential=ens.Fixed(np.tile([1.0, -1.0], n // 2)),
                            seed=seed)
    scaling = es.build(ms.empirical_from_values(np.tile([1.0, -1.0], n // 2)),
                       lam0)
    bound = n ** _VERIFY_LL_BOUND_EXP
    eta = n ** (-2.0 / 3.0)
    z = scaling.l_plus + 1j * eta
    rows = []
    for j in range(n_runs):
        rng = rngstream.stream(seed, "vfyll", j)
        h, v = ens.sample_deformed(spec, rng)
        r_m, r_off, r_diag, _ = rv.local_law_residuals(h, scaling, z,
                                                       potential=v)
        rows.append((r_m, r_off, r_diag))
    arr = np.asarray(rows)
    ok = np.all(arr < bound, axis=1)
    frac = float(np.mean(ok))
    return {"suite": "local-law", "runs": n_runs, "bound": float(bound),
            "pass_fraction": frac,
            "residuals": {name: _quantiles(arr[:, col]) for col, name in
                          enumerate(("r_m", "r_offdiag", "r_diag"))},
            "pass": bool(frac >= _VERIFY_LL_PASS_FRACTION),
            "nu": ms.to_json(nu)}


def _verify_optical(seed: int, n_runs: int) -> dict:
    lam0 = 0.05
    sizes = (100, 200, 400)
    medians = []
    for n in sizes:
        vals = []
        pot = np.tile([1.0, -1.0], n // 2)
        spec = ens.EnsembleSpec(N=n, lam0=lam0, potential=ens.Fixed(pot),
                                seed=seed)
        scaling = es.build(ms.empirical_from_values(pot), lam0)
        eta = n ** (-2.0 / 3.0 - 0.05)
        for j in range(n_runs):
            rng = rngstream.stream(seed, "vfyopt", n * 1000 + j)
            h, v = ens.sample_deformed(spec, rng)
            vals.append(abs(rv.optical_window(h, scaling, eta, potential=v)))
        medians.append(float(np.median(vals)))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    lo, hi = _VERIFY_OPT_SLOPE_BAND
    return {"suite": "optical", "runs_per_size": n_runs,
            "sizes": list(sizes), "medians": medians, "slope": slope,
            "band": [lo, hi], "pass": bool(lo <= slope <= hi)}


def cmd_verify(cfg: dict) -> int:
    suites = {"identities": _verify_identities,
              "local-law": _verify_local_law,
              "optical": _verify_optical}
    if int(cfg["seeds"]) < 1:
        raise ConfigError("verify.seeds: need at least one run per suite")
    if cfg["suite"] != "all":
        suites = {cfg["suite"]: suites[cfg["suite"]]}
    reports = [fn(int(cfg["seed"]), int(cfg["seeds"]))
               for fn in suites.values()]
    ok = all(r["pass"] for r in reports)
    _emit(_summary("verify", cfg, reports=reports,
                   status="pass" if ok else "fail"), cfg["out"])
    return 0 if ok else 3


TW_DEFAULTS = {"lo": -10.0, "hi": 6.0, "step": 0.05, "out": None}


def cmd_tw_table(cfg: dict) -> int:
    lo, hi, step = float(cfg["lo"]), float(cfg["hi"]), float(cfg["step"])
    if not (lo < hi and step > 0):
        raise ConfigError("tw-table: need lo < hi and step > 0")
    grid = np.arange(lo, hi + step / 2.0, step)
    lines = ["s,F1,F2"]
    for s in grid:
        lines.append(f"{float(s)!r},{tw.tw_cdf(1, float(s))!r},"
                     f"{tw.tw_cdf(2, float(s))!r}")
    csv_text = "\n".join(lines) + "\n"
    if cfg["out"] is None:
        sys.stdout.write(csv_text)
        return 0
    _emit(_summary("tw-table", cfg, rows=len(grid)), cfg["out"], csv_text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.

def _c2_arg(raw: str):
    if raw == "matched":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'matched' or a number, got {raw!r}") from None


# One entry per config key: the add_argument options of its --flag.
_FLAGS = {
    "measure": {"help": "measure JSON (inline or file path)"},
    "lam": {"type": float},
    "gamma": {"type": float},
    "lo": {"type": float},
    "hi": {"type": float},
    "points": {"type": int},
    "eta": {"type": float},
    "extrapolate": {"action": "store_const", "const": True,
                    "help": "two-eta Richardson extrapolation of the density"},
    "N": {"type": int},
    "lam0": {"type": float},
    "potential": {"help": "'zeros', measure JSON for iid V, or the potential "
                          "JSON of a summary"},
    "law": {"choices": [ens.GAUSSIAN, ens.RADEMACHER]},
    "c2": {"type": _c2_arg,
           "help": "diagonal weight, or 'matched' for the edge-matched value "
                   "1 - s4"},
    "zero_diagonal": {"type": int,
                      "help": "1 to zero the diagonal, 0 for noisy diagonal"},
    "seed": {"type": int},
    "n": {"type": int, "help": "number of samples (dbm: of trajectories)"},
    "format": {"choices": ["csv", "binary"]},
    "top_k": {"type": int},
    "workers": {"type": int,
                "help": "sample-level parallelism (default $DWEDGE_WORKERS)"},
    "sigma0": {"type": float},
    "delta": {"type": float},
    "sizes": {"type": int, "nargs": "+", "metavar": "N"},
    "times": {"type": float, "nargs": "+"},
    "observable": {"choices": ["edge", "m-edge"],
                   "help": "edge eigenvalue, or Im m at the moving edge"},
    "suite": {"choices": ["identities", "local-law", "optical", "all"]},
    "seeds": {"type": int, "help": "runs per suite"},
    "step": {"type": float},
    "out": {"help": "output stem; writes <out>.json and, for table "
                    "commands, <out>.csv"},
}

_COMMANDS = {
    "fc-solve": ("solve the deformed semicircle law on a grid; CSV columns "
                 "E,re_m,im_m,density", FC_DEFAULTS, cmd_fc_solve),
    "edge-scaling": ("edge-scaling constants and identity residuals as JSON",
                     ES_DEFAULTS, cmd_edge_scaling),
    "sample": ("draw deformed ensembles; spectra to CSV (sample_index,k,mu_k) "
               "or binary", SAMPLE_DEFAULTS, cmd_sample),
    "mc-edge": ("Monte Carlo edge statistics; CSV of rescaled samples plus "
                "JSON summary", MC_DEFAULTS, cmd_mc_edge),
    "regime": ("coupling-regime trichotomy runs; CSV columns N,sample,stat",
               REGIME_DEFAULTS, cmd_regime),
    "dbm": ("matrix flow observables; CSV columns trajectory,t,value",
            DBM_DEFAULTS, cmd_dbm),
    "verify": ("identity, local-law, and optical suites; JSON report, exit 3 "
               "on fail", VERIFY_DEFAULTS, cmd_verify),
    "tw-table": ("Tracy-Widom CDF table; CSV columns s,F1,F2",
                 TW_DEFAULTS, cmd_tw_table),
}


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with one --flag per key of its defaults."""
    ap = argparse.ArgumentParser(
        prog="dwedge",
        description="Deformed Wigner edge statistics: free-convolution "
                    "solver, edge scaling, matrix flow, and Monte Carlo "
                    "edge harness.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, defaults, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, defaults, fn = _COMMANDS[args.command]
    try:
        cfg = _resolve(defaults, args)
        return fn(cfg)
    except (fc.IterationError, fc.InsufficientPointsError,
            fc.AssumptionViolatedError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # after the numerical clause, whose errors subclass ValueError:
        # ConfigError, MeasureFormatError and every value a layer rejects
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
