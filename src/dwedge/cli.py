"""Command-line front end for reproducible batch runs.

Configuration merges three layers: per-command defaults, an optional JSON
config file (--config), and command-line flags; later layers win, so a
config file drives scripted sweeps while flags serve ad-hoc overrides.
Every JSON summary embeds the fully resolved configuration, the master
seed, and a schema version: a summary file is a complete recipe for
reproducing its own run.

All randomness flows from the 64-bit master seed through named counter
streams: every sampled command maps its per-sample function through
rngstream.draws, so sample j's draws depend only on the seed and on j, and
the samples run on one process per usable CPU (mc-edge: --workers).

Exit codes: 0 success, 1 numerical failure, 2 configuration error or an
unwritable output, 3 verification-suite failure.
"""

from __future__ import annotations

import argparse
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
        # summaries written before c2 = -1 replaced the zero_diagonal switch
        if "c2" in defaults and isinstance(file_cfg.get("zero_diagonal"), bool):
            if file_cfg.pop("zero_diagonal"):
                file_cfg["c2"] = -1.0
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
    """A config-file value through the type, choices or switch of its flag."""
    opts = _FLAGS[key]
    convert = opts.get("type", lambda x: x)
    try:
        if opts.get("nargs") != "+":
            val = convert(val)
        elif isinstance(val, list) and val:
            val = [convert(x) for x in val]
        else:
            raise ValueError(f"expected a nonempty list, got {val!r}")
        if "choices" in opts and val not in opts["choices"]:
            raise ValueError(f"expected one of {opts['choices']}, got {val!r}")
        if "const" in opts and not isinstance(val, bool):
            raise ValueError(f"expected true or false, got {val!r}")
    except (TypeError, ValueError, OverflowError,
            argparse.ArgumentTypeError) as e:
        raise ConfigError(f"config.{key}: {e}") from e
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
    """Write <out>.json (+ <out>.csv when given) or print JSON to stdout;
    a NaN or infinity, which JSON cannot hold, raises before any write."""
    text = json.dumps(summary, indent=2, default=float, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    base = out
    for suffix in (".json", ".csv"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    with open(base + ".json", "w") as fh:
        fh.write(text)
    wrote = [base + ".json"]
    if csv_text is not None:
        with open(base + ".csv", "w") as fh:
            fh.write(csv_text)
        wrote.append(base + ".csv")
    print("wrote " + " ".join(wrote))


def _csv(header: str, rows) -> str:
    """The text of every CSV table: ints as written, any other value as
    repr(float), which reads back exactly."""
    lines = (",".join(str(x) if isinstance(x, int) else repr(float(x))
                      for x in row) for row in rows)
    return "\n".join([header, *lines]) + "\n"


def _spec_from_cfg(cfg: dict) -> ens.EnsembleSpec:
    c2 = ens.edge_matched_c2(cfg["law"]) if cfg["c2"] == "matched" else cfg["c2"]
    return ens.EnsembleSpec(
        N=cfg["N"], lam0=cfg["lam0"],
        potential=_potential_arg(cfg["potential"], cfg["N"]),
        law=cfg["law"], c2=c2, seed=cfg["seed"])


# ---------------------------------------------------------------------------
# Subcommands.

FC_DEFAULTS = {
    "measure": DELTA0, "lam": 0.0, "gamma": 1.0, "lo": None, "hi": None,
    "points": 2001, "eta": 1e-5, "extrapolate": False, "out": None,
}


def cmd_fc_solve(cfg: dict) -> int:
    nu = ms.from_json(_json_arg(cfg["measure"]))
    lam, gamma = cfg["lam"], cfg["gamma"]
    # outer edges without the regularity check: a split support reports its
    # hull, and a lam out of range or a law with no edge root fails here,
    # before any grid solve
    _, _, e_m, e_p = fc._outer_roots(nu, lam)
    support = [gamma * e_m, gamma * e_p]
    lo = support[0] - 0.5 if cfg["lo"] is None else cfg["lo"]
    hi = support[1] + 0.5 if cfg["hi"] is None else cfg["hi"]
    sol = fc.solve_grid(nu, lam, gamma, lo, hi, cfg["points"], cfg["eta"])
    density = fc.density_at(sol) if cfg["extrapolate"] else sol.density
    cfg = dict(cfg, lo=lo, hi=hi, measure=ms.to_json(nu))
    summary = _summary("fc-solve", cfg, support=support,
                       mass=float(np.trapezoid(density, sol.grid)),
                       peak=float(density.max()), iterations=sol.iterations)
    _emit(summary, cfg["out"], _csv("E,re_m,im_m,density", zip(
        sol.grid, sol.m.real, sol.m.imag, density)))
    return 0


ES_DEFAULTS = {"measure": TWO_ATOM, "lam": 0.5, "out": None}
_ES_RESIDUAL_GATE = 1e-10


def cmd_edge_scaling(cfg: dict) -> int:
    nu = ms.from_json(_json_arg(cfg["measure"]))
    cfg = dict(cfg, measure=ms.to_json(nu))
    try:
        scaling = es.build(nu, cfg["lam"])
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
    "c2": -1.0, "seed": 0, "n": 1,
    "format": "csv", "out": None,
}


def cmd_sample(cfg: dict) -> int:
    if cfg["out"] is None:
        raise ConfigError("sample: --out is required")
    if cfg["n"] < 0:
        raise ConfigError(f"sample: need --n >= 0, got {cfg['n']}")
    spec = _spec_from_cfg(cfg)
    spectra = np.reshape(rngstream.draws(
        spec.seed, "sample", range(cfg["n"]),
        lambda rng: ens.eigenvalues(ens.sample_deformed(spec, rng)[0])),
        (cfg["n"], spec.N))
    if cfg["format"] == "binary":
        ens.write_spectra_binary(cfg["out"], spectra)
    else:
        with open(cfg["out"], "w") as fh:
            fh.write(_csv("sample_index,k,mu_k", ((j, k + 1, mu) for (j, k), mu
                                                  in np.ndenumerate(spectra))))
    print(f"wrote {cfg['out']}")
    return 0


MC_DEFAULTS = {
    "N": 300, "lam0": 0.0, "potential": "zeros", "law": ens.GAUSSIAN,
    "c2": "matched", "seed": 0, "n": 200,
    "top_k": 1, "workers": None, "out": None,
}


def cmd_mc_edge(cfg: dict) -> int:
    spec = _spec_from_cfg(cfg)
    # the summary records the number of processes the samples ran on
    cfg = dict(cfg, workers=rngstream.pool_size(cfg["workers"], cfg["n"]))
    result = tw.mc_edge(spec, cfg["n"], top_k=cfg["top_k"], workers=cfg["workers"])
    cfg = dict(cfg, c2=spec.c2, potential=ens.potential_to_json(spec.potential))
    csv_text = _csv("sample," + ",".join(f"s{j + 1}" for j in range(cfg["top_k"])),
                    ((idx, *row) for idx, row in enumerate(result.samples)))
    summary = _summary("mc-edge", cfg, n=len(result.samples), ks=result.ks,
                       law=tw.TW1, params={"e_plus_mean": float(np.mean(result.e_plus)),
                                           "gamma0_mean": float(np.mean(result.gamma0))},
                       dsyevr_fallbacks=result.dsyevr_fallbacks, seed=spec.seed,
                       runtime=result.runtime)
    _emit(summary, cfg["out"], csv_text)
    return 0


REGIME_DEFAULTS = {
    "measure": TWO_ATOM, "sigma0": 1.0, "delta": 1.0 / 3.0,
    "sizes": [400], "n": 300, "seed": 0, "out": None,
}


def cmd_regime(cfg: dict) -> int:
    nu = ms.from_json(_json_arg(cfg["measure"]))
    outs = tw.regime_test(nu, cfg["sigma0"], cfg["delta"], cfg["sizes"],
                          cfg["n"], seed=cfg["seed"])
    cfg = dict(cfg, measure=ms.to_json(nu))
    verdicts = [{
        "N": o["N"], "lam0": o["lam0"], "case": o["case"],
        "law": o["law"].variant, "sigma2": o["law"].sigma2,
        "e_plus": o["e_plus"], "ks": o["ks"], "n": o["n_samples"],
        "dsyevr_fallbacks": o["dsyevr_fallbacks"],
    } for o in outs]
    _emit(_summary("regime", cfg, verdicts=verdicts), cfg["out"],
          _csv("N,sample,stat", ((o["N"], idx, x) for o in outs
                                 for idx, x in enumerate(o["samples"]))))
    return 0


DBM_DEFAULTS = {
    "N": 200, "lam0": 0.0, "potential": "zeros", "law": ens.GAUSSIAN,
    "c2": -1.0, "seed": 0, "n": 50,
    "times": [0.0, 1.0], "observable": "edge", "out": None,
}


def cmd_dbm(cfg: dict) -> int:
    if cfg["n"] < 1:
        raise ConfigError(f"dbm: need --n >= 1, got {cfg['n']}")
    times = dbm.flow_times(cfg["times"])
    spec = _spec_from_cfg(cfg)

    def trajectory(rng) -> list:
        if cfg["observable"] == "m-edge":
            # value = Im m(t, z(t)) of the rescaled flow at the moving edge
            return [m.imag for _, m in dbm.flow_edge_track(spec, times, rng)]
        h0, _ = ens.sample_deformed(spec, rng)
        return [ens.eigenvalues(h, top=1)[0] for _, h in dbm.flow(h0, times, rng)]

    # one row per trajectory, one column per time
    values = np.array(rngstream.draws(spec.seed, "dbm", range(cfg["n"]), trajectory))
    cfg = dict(cfg, times=times, c2=spec.c2,
               potential=ens.potential_to_json(spec.potential))
    per_time = {str(t): {"mean": float(np.mean(v)), "sd": float(np.std(v))}
                for t, v in zip(times, values.T)}
    extra = {"per_time": per_time}
    if len(times) > 1:
        extra["ks_first_last"] = dbm.ks_two_sample(values[:, 0], values[:, -1])
    _emit(_summary("dbm", cfg, **extra), cfg["out"],
          _csv("trajectory,t,value", ((j, t, value) for j, row in enumerate(values)
                                      for t, value in zip(times, row))))
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
    def worst(rng) -> float:
        n = 25
        h = ens.sample_wigner(n, ens.GAUSSIAN, 1.0, rng)
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.01, 1.0))
        i, j, k = rng.choice(n, size=3, replace=False)
        return max(rv.verify_identities(h, z, int(i), int(j), int(k)).values())

    q = _quantiles(rngstream.draws(seed, "vfyid", range(n_runs), worst))
    return {"suite": "identities", "runs": n_runs, "residuals": q,
            "threshold": _VERIFY_IDENTITY_GATE,
            "pass": bool(q["max"] < _VERIFY_IDENTITY_GATE)}


def _alternating(n: int, lam0: float, seed: int):
    """The spec of the +-1 Fixed potential and its edge scaling."""
    pot = np.tile([1.0, -1.0], n // 2)
    spec = ens.EnsembleSpec(N=n, lam0=lam0, potential=ens.Fixed(pot), seed=seed)
    return spec, es.build(ms.empirical_from_values(pot), lam0)


def _verify_local_law(seed: int, n_runs: int) -> dict:
    n = 200
    spec, scaling = _alternating(n, 0.5, seed)
    bound = n ** _VERIFY_LL_BOUND_EXP
    z = scaling.l_plus + 1j * n ** (-2.0 / 3.0)

    def residuals(rng) -> tuple:
        h, v = ens.sample_deformed(spec, rng)
        return rv.local_law_residuals(h, scaling, z, potential=v)[:3]

    arr = np.asarray(rngstream.draws(seed, "vfyll", range(n_runs), residuals))
    ok = np.all(arr < bound, axis=1)
    frac = float(np.mean(ok))
    return {"suite": "local-law", "runs": n_runs, "bound": float(bound),
            "pass_fraction": frac,
            "residuals": {name: _quantiles(arr[:, col]) for col, name in
                          enumerate(("r_m", "r_offdiag", "r_diag"))},
            "pass": bool(frac >= _VERIFY_LL_PASS_FRACTION),
            "nu": TWO_ATOM}


def _verify_optical(seed: int, n_runs: int) -> dict:
    lam0 = 0.05
    sizes = (100, 200, 400)
    medians = []
    for n in sizes:
        spec, scaling = _alternating(n, lam0, seed)
        eta = n ** (-2.0 / 3.0 - 0.05)

        def window(rng) -> float:
            h, v = ens.sample_deformed(spec, rng)
            return abs(rv.optical_window(h, scaling, eta, potential=v))

        medians.append(float(np.median(rngstream.draws(
            seed, "vfyopt", range(n * 1000, n * 1000 + n_runs), window))))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    lo, hi = _VERIFY_OPT_SLOPE_BAND
    return {"suite": "optical", "runs_per_size": n_runs,
            "sizes": list(sizes), "medians": medians, "slope": slope,
            "band": [lo, hi], "pass": bool(lo <= slope <= hi)}


def cmd_verify(cfg: dict) -> int:
    suites = {"identities": _verify_identities,
              "local-law": _verify_local_law,
              "optical": _verify_optical}
    if cfg["seeds"] < 1:
        raise ConfigError("verify.seeds: need at least one run per suite")
    if cfg["suite"] != "all":
        suites = {cfg["suite"]: suites[cfg["suite"]]}
    reports = [fn(cfg["seed"], cfg["seeds"]) for fn in suites.values()]
    ok = all(r["pass"] for r in reports)
    _emit(_summary("verify", cfg, reports=reports,
                   status="pass" if ok else "fail"), cfg["out"])
    return 0 if ok else 3


TW_DEFAULTS = {"lo": -10.0, "hi": 6.0, "step": 0.05, "out": None}


def cmd_tw_table(cfg: dict) -> int:
    lo, hi, step = cfg["lo"], cfg["hi"], cfg["step"]
    if not (lo < hi and step > 0):
        raise ConfigError("tw-table: need lo < hi and step > 0")
    # only arange's last point can pass hi: by rounding, or by a step that
    # does not divide hi - lo
    grid = np.minimum(np.arange(lo, hi + step / 2.0, step), hi)
    csv_text = _csv("s,F1,F2", ((s, tw.tw_cdf(1, s), tw.tw_cdf(2, s))
                                for s in grid))
    if cfg["out"] is None:
        sys.stdout.write(csv_text)
        return 0
    _emit(_summary("tw-table", cfg, rows=len(grid)), cfg["out"], csv_text)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.

def _finite_float(raw) -> float:
    """The one converter of every real-valued flag and config value."""
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if isinstance(raw, bool) or not np.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return val


def _int_arg(raw) -> int:
    """The one converter of every integer flag and config value; a number
    with a fractional part, or a JSON boolean, is refused, never truncated."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None


def _out_arg(raw) -> str:
    """An output stem, which a config file may give as a non-string."""
    if not isinstance(raw, str):
        raise argparse.ArgumentTypeError(f"expected a path, got {raw!r}")
    return raw


def _c2_arg(raw: str):
    if raw == "matched":
        return raw
    try:
        float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'matched' or a number, got {raw!r}") from None
    return _finite_float(raw)


# One entry per config key: the add_argument options of its --flag.
_FLAGS = {
    "measure": {"help": "measure JSON (inline or file path)"},
    "lam": {"type": _finite_float},
    "gamma": {"type": _finite_float},
    "lo": {"type": _finite_float},
    "hi": {"type": _finite_float},
    "points": {"type": _int_arg},
    "eta": {"type": _finite_float},
    "extrapolate": {"action": "store_const", "const": True,
                    "help": "two-eta Richardson extrapolation of the density"},
    "N": {"type": _int_arg},
    "lam0": {"type": _finite_float},
    "potential": {"help": "'zeros', measure JSON for iid V, or the potential "
                          "JSON of a summary"},
    "law": {"choices": [ens.GAUSSIAN, ens.RADEMACHER]},
    "c2": {"type": _c2_arg,
           "help": "diagonal variance (1 + c2)/N: -1 (the default of sample "
                   "and dbm) zeroes it, 'matched' gives 1 - s4"},
    "seed": {"type": _int_arg},
    "n": {"type": _int_arg, "help": "number of samples (dbm: of trajectories)"},
    "format": {"choices": ["csv", "binary"]},
    "top_k": {"type": _int_arg},
    "workers": {"type": _int_arg,
                "help": "processes the samples run on, at most one per usable "
                        "CPU (default: one per usable CPU); every count gives "
                        "the same output under OPENBLAS_NUM_THREADS=1"},
    "sigma0": {"type": _finite_float},
    "delta": {"type": _finite_float},
    "sizes": {"type": _int_arg, "nargs": "+", "metavar": "N"},
    "times": {"type": _finite_float, "nargs": "+"},
    "observable": {"choices": ["edge", "m-edge"],
                   "help": "edge eigenvalue, or Im m at the moving edge"},
    "suite": {"choices": ["identities", "local-law", "optical", "all"]},
    "seeds": {"type": _int_arg, "help": "runs per suite"},
    "step": {"type": _finite_float},
    "out": {"type": _out_arg, "help": "output stem; writes <out>.json and, "
                                      "for table commands, <out>.csv"},
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
        # a missing output directory fails here, before any sampling
        if cfg["out"] and not os.path.isdir(os.path.dirname(cfg["out"]) or "."):
            raise ConfigError(f"out: no directory for {cfg['out']}")
        return fn(cfg)
    except (fc.IterationError, fc.InsufficientPointsError,
            fc.AssumptionViolatedError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        # after the numerical clause, whose errors subclass ValueError:
        # ConfigError, MeasureFormatError, rejected values, unwritable outputs
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
