"""End-to-end runs of every subcommand through cli.main.

Commands run in-process so exit codes and outputs are asserted directly;
file outputs land in tmp_path.  The fc-solve check against the closed-form
semicircle doubles as the smallest full-pipeline integration test.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dwedge import cli
from dwedge import ensemble as ens
from dwedge import freeconv as fc
from dwedge import measure as ms
from dwedge import twstats as tw
from dwedge.rngstream import stream

TWO_ATOM = '{"type":"atomic","atoms":[[-1.0,0.5],[1.0,0.5]]}'


def run(*argv):
    return cli.main(list(argv))


def exit_code(*argv):
    """run(), with an argparse rejection read as its exit status."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


# ---------------------------------------------------------------------------
# fc-solve.

def test_fc_solve_semicircle_sup_norm(tmp_path):
    out = tmp_path / "fc"
    assert run("fc-solve", "--extrapolate", "--lo", "-1.9", "--hi", "1.9",
               "--points", "401", "--out", str(out)) == 0
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    grid, dens = rows[:, 0], rows[:, 3]
    exact = np.sqrt(4.0 - grid ** 2) / (2.0 * np.pi)
    assert np.max(np.abs(dens - exact)) < 1e-5
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["schema"] == cli.SCHEMA_VERSION
    assert summary["config"]["lam"] == 0.0
    assert summary["support"] == pytest.approx([-2.0, 2.0], abs=1e-9)


def test_fc_solve_two_interval_density(tmp_path):
    out = tmp_path / "fc2"
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "1.5",
               "--points", "801", "--out", str(out)) == 0
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    grid, dens = rows[:, 0], rows[:, 3]
    # interior gap: a strip around 0 carries no mass at lam = 1.5
    mid = np.abs(grid) < 0.2
    assert dens[mid].max() < 1e-3
    assert dens[(grid > 0.5) & (grid < 2.0)].max() > 0.1


def test_fc_solve_split_support_reports_outer_hull(tmp_path):
    # lam = 1.5 fails the regularity check but keeps both outer edge roots
    out = tmp_path / "fc3"
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "1.5",
               "--points", "201", "--out", str(out)) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    two = ms.Atomic(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    _, _, e_m, e_p = fc._outer_roots(two, 1.5)
    assert summary["support"] == [e_m, e_p]


def test_fc_solve_split_support_takes_the_regular_grid(capsys):
    # the default grid is the outer hull +- 0.5, as for a regular law
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "1.5",
               "--points", "51") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["lo"] == summary["support"][0] - 0.5
    assert summary["config"]["hi"] == summary["support"][1] + 0.5


def test_fc_solve_without_edge_root_exits_1(tmp_path, capsys):
    # a soft-tailed law at strong coupling has no outer edge root at all
    assert run("fc-solve", "--measure", '{"type":"jacobi","a":2,"b":2}',
               "--lam", "2.5", "--points", "201",
               "--out", str(tmp_path / "fc4")) == 1
    assert "no edge root" in capsys.readouterr().err


def test_fc_solve_names_the_side_without_an_edge_root(capsys, count_calls):
    # Jacobi(2, 0.5) at lam 1.2 has an upper edge root but none below its
    # support; the run fails before any grid solve
    solves = count_calls(fc, "_solve_many")
    assert run("fc-solve", "--measure", '{"type":"jacobi","a":2,"b":0.5}',
               "--lam", "1.2") == 1
    assert "no edge root below" in capsys.readouterr().err
    assert solves == []


def test_fc_solve_refuses_a_negative_lam_before_any_grid_solve(capsys, count_calls):
    # the edge-root solve took a negative lam as the semicircle, so only the
    # grid solve after it refused the coupling
    solves = count_calls(fc, "_solve_many")
    assert exit_code("fc-solve", "--lam", "-1") == 2
    assert "finite lam >= 0" in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize("extrapolate", [False, True])
def test_fc_solve_solves_each_quantity_once(capsys, count_calls, extrapolate):
    # one unchecked edge-root solve gives the grid and the support; the
    # extrapolation reuses the grid solve and adds one at half the height
    counts = {name: count_calls(fc, name)
              for name in ("_outer_roots", "assumption_margin", "_solve_many")}
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "0.5", "--points", "51",
               *(["--extrapolate"] if extrapolate else [])) == 0
    capsys.readouterr()
    assert {name: len(calls) for name, calls in counts.items()} == {
        "_outer_roots": 1, "assumption_margin": 0, "_solve_many": 1 + extrapolate}


def test_fc_solve_extrapolated_density_is_density_at(tmp_path):
    out = tmp_path / "fc"
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "0.5", "--points", "101",
               "--extrapolate", "--out", str(out)) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    sol = fc.solve_grid(ms.from_json(json.loads(TWO_ATOM)), 0.5, 1.0,
                        summary["config"]["lo"], summary["config"]["hi"], 101, 1e-5)
    np.testing.assert_array_equal(rows[:, 3], fc.density_at(sol))


def test_fc_solve_records_newton_iterations(capsys):
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "0.5",
               "--points", "101") == 0
    summary = json.loads(capsys.readouterr().out)
    sol = fc.solve_grid(ms.from_json(json.loads(TWO_ATOM)), 0.5, 1.0,
                        summary["config"]["lo"], summary["config"]["hi"], 101, 1e-5)
    assert summary["iterations"] == sol.iterations >= 1


def test_fc_solve_csv_round_trip(tmp_path):
    # repr-formatted floats read back exactly
    out = tmp_path / "fc"
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "0.5", "--lo", "-2.5",
               "--hi", "2.5", "--points", "101", "--eta", "1e-4",
               "--out", str(out)) == 0
    csv = out.with_suffix(".csv").read_text().splitlines()
    assert csv[0] == "E,re_m,im_m,density" and len(csv) == 102
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    sol = fc.solve_grid(ms.from_json(json.loads(TWO_ATOM)), 0.5, 1.0,
                        -2.5, 2.5, 101, 1e-4)
    np.testing.assert_array_equal(rows[:, 0], sol.grid)
    np.testing.assert_array_equal(rows[:, 1] + 1j * rows[:, 2], sol.m)
    np.testing.assert_array_equal(rows[:, 3], sol.density)


def test_fc_solve_jacobi_with_far_complex_poles(capsys):
    # the Newton solve meets poles near i sqrt(3) lam, where scipy's hyp2f1
    # is wrong; this run used to exit 1 with no convergence
    assert run("fc-solve", "--measure", '{"type":"jacobi","a":1,"b":1}',
               "--lam", "0.5") == 0
    assert json.loads(capsys.readouterr().out)["mass"] == pytest.approx(1.0, abs=1e-3)


def test_fc_solve_malformed_measure_exits_2(tmp_path, capsys):
    assert run("fc-solve", "--measure", '{"type":"jacobi","a":0.5}') == 2
    assert "measure.b" in capsys.readouterr().err


def test_fc_solve_grid_measure_is_an_unknown_variant(capsys):
    nu = '{"type":"grid","lo":0,"hi":1,"values":[1,1]}'
    assert run("fc-solve", "--measure", nu) == 2
    assert "measure.type: unknown variant 'grid'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# edge-scaling.

def test_edge_scaling_pass_status(capsys):
    assert run("edge-scaling", "--measure", TWO_ATOM, "--lam", "0.5") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "pass"
    assert max(rep["report"]["residuals"].values()) < 1e-10


def test_edge_scaling_lam_zero_is_semicircle(capsys):
    assert run("edge-scaling", "--measure", TWO_ATOM, "--lam", "0") == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["zeta"] == pytest.approx(1.0, abs=1e-12)
    assert rep["gamma"] == pytest.approx(1.0, abs=1e-12)


def test_edge_scaling_assumption_failed(capsys):
    assert run("edge-scaling", "--measure", '{"type":"jacobi","a":1,"b":2}',
               "--lam", "2.0") == 0
    assert json.loads(capsys.readouterr().out)["status"] == "assumption_failed"


def test_edge_scaling_zero_weight_atoms_fail_assumption(capsys):
    # the zero-weight end atoms widen the hull; the gap between the massive
    # atoms still violates the assumption at lam = 1.2
    nu = '{"type":"atomic","atoms":[[-1.0001,0],[-1,0.5],[1,0.5],[1.0001,0]]}'
    assert run("edge-scaling", "--measure", nu, "--lam", "1.2") == 0
    assert json.loads(capsys.readouterr().out)["status"] == "assumption_failed"


def test_edge_scaling_infinite_atom_exits_2(capsys):
    # -inf passed the strictly-increasing check and reached the edge solve
    nu = '{"type":"atomic","atoms":[[-1e999,0.5],[1,0.5]]}'
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("edge-scaling", "--measure", nu) == 2
    assert "measure.atoms" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_edge_scaling_past_critical_coupling(capsys):
    # the two-atom law keeps a square-root edge up to lam = 1
    assert run("edge-scaling", "--measure", TWO_ATOM, "--lam", "1.01") == 0
    assert json.loads(capsys.readouterr().out)["status"] == "assumption_failed"


# ---------------------------------------------------------------------------
# sample.

def test_sample_csv_and_binary_agree(tmp_path):
    args = ("sample", "--N", "40", "--n", "3", "--seed", "5")
    csv_path = tmp_path / "s.csv"
    bin_path = tmp_path / "s.bin"
    assert run(*args, "--format", "csv", "--out", str(csv_path)) == 0
    assert run(*args, "--format", "binary", "--out", str(bin_path)) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "sample_index,k,mu_k"
    assert lines[1].split(",")[:2] == ["0", "1"]
    rows = np.loadtxt(lines, delimiter=",", skiprows=1)
    assert rows.shape == (120, 3)
    from_bin = ens.read_spectra_binary(str(bin_path))
    assert from_bin.shape == (3, 40)
    # the CSV's repr floats read back to the binary file's bits
    np.testing.assert_array_equal(rows[:, 2], from_bin.ravel())
    # row j is the spectrum drawn on the stream (seed, "sample", j)
    spec = cli._spec_from_cfg(dict(cli.SAMPLE_DEFAULTS, N=40, seed=5))
    for j, row in enumerate(from_bin):
        h, _ = ens.sample_deformed(spec, stream(5, "sample", j))
        np.testing.assert_array_equal(row, ens.eigenvalues(h))


@pytest.mark.parametrize("cfg", [{}, {"format": "xml", "out": "s.bin"}])
def test_sample_checks_out_and_format_before_sampling(tmp_path, monkeypatch,
                                                      cfg):
    # no --out, or a format that only a config file can give: refused
    # before any matrix is drawn
    calls, draw = [], ens.sample_deformed
    monkeypatch.setattr(ens, "sample_deformed",
                        lambda *a: calls.append(a) or draw(*a))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run("sample", "--N", "40", "--n", "3", "--config", str(path)) == 2
    assert calls == []


def test_sample_accepts_matched_c2(tmp_path):
    assert run("sample", "--N", "20", "--c2", "matched",
               "--out", str(tmp_path / "m.csv")) == 0


# ---------------------------------------------------------------------------
# Ensemble values: a rejected value exits 2 with a message, never a traceback.

# the retired zero_diagonal switch is refused, as a flag and as a config value
# other than the JSON boolean an old summary records
BAD_ENSEMBLE = [("N", 1), ("lam0", -1.0), ("c2", -2.0), ("law", "cauchy"),
                ("lam0", float("nan")), ("c2", float("inf")),
                ("zero_diagonal", 5), ("zero_diagonal", -3)]


@pytest.mark.parametrize("command", ["sample", "mc-edge", "dbm"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", BAD_ENSEMBLE)
def test_bad_ensemble_value_exits_2(tmp_path, capsys, command, source,
                                    key, value):
    argv = [command, "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg)]
    assert exit_code(*argv) == 2
    assert "error:" in capsys.readouterr().err


BAD_VALUES = [
    ("mc-edge", ["--n", "0"], None), ("mc-edge", ["--top-k", "0"], None),
    ("mc-edge", ["--workers", "0"], None), ("regime", ["--n", "0"], None),
    ("regime", ["--sizes", "0"], None), ("regime", ["--sizes", "1"], None),
    ("fc-solve", ["--points", "1"], None), ("fc-solve", ["--eta", "0"], None),
    ("fc-solve", ["--lam", "-1"], None), ("edge-scaling", ["--lam", "-1"], None),
    ("verify", ["--seeds", "0"], None),
    ("sample", ["--n", "0", "--format", "binary"], None),
    ("mc-edge", [], {"n": "abc"}), ("regime", [], {"sizes": 5}),
    ("fc-solve", [], {"measure": [1, 2]}), ("verify", [], {"seeds": "x"}),
    ("mc-edge", [], {"N": float("inf")}), ("mc-edge", [], {"N": 60.9}),
    ("dbm", [], {"zero_diagonal": 0.5}), ("sample", [], {"out": 5}),
    # given --lo/--hi, fc-solve skipped the only lam check and reported the
    # semicircle's support; gamma -1 reported it reversed
    ("fc-solve", ["--measure", '{"type":"atomic","atoms":[[-1,0.2],[2,0.8]]}',
                  "--lam", "-0.5", "--lo", "-4", "--hi", "4"], None),
    ("fc-solve", ["--gamma", "-1", "--lo", "-3", "--hi", "3"], None),
    # a switch took any JSON value, and a float key took a boolean as 1.0
    ("fc-solve", [], {"extrapolate": "no"}), ("fc-solve", [], {"extrapolate": []}),
    ("fc-solve", [], {"lam": True}),
    # an integer key took a boolean as 0 or 1
    ("mc-edge", [], {"seed": True}), ("mc-edge", [], {"n": True}),
    ("mc-edge", [], {"workers": True}),
    # a JSON boolean in a measure or a fixed potential ran as 0 or 1
    ("edge-scaling", ["--measure", '{"type":"jacobi","a":true,"b":1}'], None),
    ("edge-scaling", ["--measure",
                      '{"type":"atomic","atoms":[[false,0.5],[true,0.5]]}'], None),
    ("sample", ["--N", "2", "--potential",
                '{"kind":"fixed","values":[true,false]}'], None),
    # the retired zero_diagonal switch: never a flag, never a key of a command
    # without c2, and never a value other than a summary's JSON boolean
    ("dbm", ["--zero-diagonal", "1"], None), ("regime", [], {"zero_diagonal": True}),
    ("mc-edge", [], {"zero_diagonal": 1}),
]


# every flag that takes a real number
FLOAT_FLAGS = [(command, key) for command, (_, defaults, _) in cli._COMMANDS.items()
               for key in defaults
               if cli._FLAGS[key].get("type") in (cli._finite_float, cli._c2_arg)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,key", FLOAT_FLAGS)
def test_non_finite_float_exits_2_naming_the_flag(tmp_path, capsys, command,
                                                   key, source, value):
    flag = "--" + key.replace("_", "-")
    many = cli._FLAGS[key].get("nargs") == "+"
    argv = [command, "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += [flag, value]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: [float(value)] if many else float(value)}))
        argv += ["--config", str(path)]
    assert exit_code(*argv) == 2
    assert (flag if source == "flag" else f"config.{key}") in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("dbm", ["--n", "0"]), ("sample", ["--n", "-1"]),
])
def test_bad_sample_count_exits_2_naming_the_flag(tmp_path, capsys, command,
                                                  flags):
    # dbm --n 0 used to average empty lists (numpy warnings) before failing,
    # and sample --n -1 failed in numpy with "negative dimensions"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exit_code(command, *flags, "--out", str(tmp_path / "o")) == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,config", BAD_VALUES)
def test_bad_value_exits_2(tmp_path, capsys, command, flags, config):
    argv = [command, *flags, "--out", str(tmp_path / "o")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert exit_code(*argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


# one small run of each command that takes c2
C2_RUNS = {"sample": ["sample", "--N", "12", "--n", "2"],
           "mc-edge": ["mc-edge", "--N", "30", "--n", "4"],
           "dbm": ["dbm", "--N", "12", "--n", "2", "--times", "0", "0.5"]}


@pytest.mark.parametrize("argv", C2_RUNS.values(), ids=C2_RUNS.keys())
def test_a_recorded_zero_diagonal_replays_as_c2(tmp_path, argv):
    # summaries written before c2 = -1 replaced the zero_diagonal switch
    # record it as a JSON boolean: true is c2 = -1, false keeps the recorded c2
    def csv_bytes(*extra, config=None):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            extra += ("--config", str(path))
        out = tmp_path / "o.csv"
        assert run(*argv, *extra, "--out", str(out)) == 0
        return out.read_bytes()

    zero, noisy = csv_bytes("--c2", "-1"), csv_bytes("--c2", "0.5")
    assert zero != noisy
    assert csv_bytes(config={"c2": 0.5, "zero_diagonal": True}) == zero
    assert csv_bytes(config={"c2": 0.5, "zero_diagonal": False}) == noisy


WRITERS = [["fc-solve", "--points", "11"], ["edge-scaling"], ["sample", "--N", "10"],
           ["mc-edge", "--N", "10", "--n", "2"], ["regime", "--sizes", "20", "--n", "3"],
           ["dbm", "--N", "10", "--n", "1"],
           ["verify", "--suite", "identities", "--seeds", "1"], ["tw-table", "--step", "1"]]


@pytest.mark.parametrize("argv", WRITERS, ids=lambda argv: argv[0])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, monkeypatch,
                                               argv):
    # a missing directory ended in a FileNotFoundError traceback, exit 1,
    # and mc-edge, regime and dbm drew every sample before the write failed
    calls, draw = [], ens.sample_deformed
    monkeypatch.setattr(ens, "sample_deformed",
                        lambda *a: calls.append(a) or draw(*a))
    out = tmp_path / "missing" / "o"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert calls == []


def test_emit_refuses_nan_before_writing(tmp_path):
    # json.dump wrote the token NaN, which is not JSON
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit({"ks": float("nan")}, str(tmp_path / "o"), "csv\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# mc-edge.

def test_mc_edge_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("mc-edge", "--n", "25", "--N", "60", "--seed", "7",
                   "--out", str(out)) == 0
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
    summary = json.loads(a.with_suffix(".json").read_text())
    assert summary["n"] == 25
    assert summary["law"] == tw.TW1
    assert summary["runtime"] > 0.0
    assert summary["dsyevr_fallbacks"] == 0
    assert summary["config"]["c2"] == 1.0  # matched diagonal resolved


# one run of each command that writes a summary, and of both dbm observables
REPLAYS = {
    "fc-solve": ["fc-solve", "--measure", TWO_ATOM, "--lam", "0.5", "--points", "41"],
    "edge-scaling": ["edge-scaling"],
    "regime": ["regime", "--sizes", "20", "30", "--n", "3"],
    "dbm-edge": ["dbm", "--N", "10", "--n", "2", "--times", "0", "0.5"],
    "dbm-m-edge": ["dbm", "--N", "10", "--n", "2", "--observable", "m-edge",
                   "--lam0", "0.3", "--potential", TWO_ATOM],
    "verify": ["verify", "--suite", "identities", "--seeds", "2"],
    "tw-table": ["tw-table", "--step", "1"],
    "mc-edge": ["mc-edge", "--n", "5", "--N", "40", "--lam0", "0.5",
                "--potential", TWO_ATOM],
}


@pytest.mark.parametrize("argv", REPLAYS.values(), ids=REPLAYS.keys())
def test_every_summary_replays(tmp_path, argv):
    # a summary is a complete recipe: its recorded config, replayed through
    # --config, gives the same CSV bytes and the same JSON but for runtime
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*argv, "--out", str(a)) == 0
    recorded = json.loads(a.with_suffix(".json").read_text())["config"]
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(recorded))
    replays = [[argv[0], "--config", str(cfg)]]
    if "potential" in recorded:
        # the recorded potential also works as the flag value
        replays.append([*argv, "--potential", json.dumps(recorded["potential"])])
    for replay in replays:
        assert run(*replay, "--out", str(b)) == 0
        assert a.with_suffix(".csv").exists() == b.with_suffix(".csv").exists()
        if a.with_suffix(".csv").exists():
            assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        first, again = (json.loads(p.with_suffix(".json").read_text()) for p in (a, b))
        for summary in (first, again):
            summary.pop("runtime", None)
            summary["config"].pop("out")
        # as text: a config that echoes 1 for a recorded true is not a replay
        assert json.dumps(first) == json.dumps(again)


def test_mc_edge_workers_takes_only_1(tmp_path, capsys):
    # samples run in one loop; --workers stays so that recorded runs and
    # summaries, which carry workers 1, still replay
    argv = ["mc-edge", "--n", "5", "--N", "40", "--seed", "3"]
    cfg = tmp_path / "cfg.json"

    def output(*extra):
        out = tmp_path / "o"
        assert run(*argv, *extra, "--out", str(out)) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        summary.pop("runtime")
        return out.with_suffix(".csv").read_bytes(), summary

    plain = output()
    assert output("--workers", "1") == plain
    cfg.write_text('{"workers": 1}')
    assert output("--config", str(cfg)) == plain
    cfg.write_text('{"workers": 2}')
    for extra in (["--workers", "2"], ["--config", str(cfg)]):
        assert exit_code(*argv, *extra) == 2
        assert "workers" in capsys.readouterr().err


def test_mc_edge_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 50, "n": 10, "seed": 1}))
    assert run("mc-edge", "--config", str(cfg), "--n", "4") == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["N"] == 50   # from file
    assert summary["config"]["n"] == 4    # flag wins
    assert summary["n"] == 4


def test_mc_edge_rejects_non_numeric_c2(capsys):
    assert exit_code("mc-edge", "--c2", "abc") == 2
    assert "'matched' or a number" in capsys.readouterr().err


def test_mc_edge_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}')
    assert run("mc-edge", "--config", str(cfg)) == 2
    assert "bogus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# regime.

def test_regime_critical_names_convolution_law(tmp_path):
    out = tmp_path / "rg"
    assert run("regime", "--delta", "0.166667", "--sizes", "80", "--n", "20",
               "--seed", "3", "--out", str(out)) == 0
    verdict = json.loads(out.with_suffix(".json").read_text())["verdicts"][0]
    assert verdict["case"] == "ii"
    assert verdict["law"] == "tw1_gauss_conv"
    assert verdict["dsyevr_fallbacks"] == 0
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert rows.shape == (20, 3)
    assert set(rows[:, 0]) == {80.0}


# ---------------------------------------------------------------------------
# dbm.

def test_dbm_edge_observable(tmp_path):
    out = tmp_path / "flow"
    assert run("dbm", "--N", "50", "--n", "6", "--times", "0", "0.5", "1",
               "--seed", "2", "--c2", "matched", "--out", str(out)) == 0
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert rows.shape == (18, 3)
    summary = json.loads(out.with_suffix(".json").read_text())
    assert "ks_first_last" in summary
    assert set(summary["per_time"]) == {"0.0", "0.5", "1.0"}
    assert summary["config"]["c2"] == 1.0  # matched diagonal resolved


@pytest.mark.parametrize("observable", ["edge", "m-edge"])
@pytest.mark.parametrize("times", [["1", "0"], ["1", "1"], ["-1", "0"]])
def test_dbm_times_out_of_order_exit_2_before_sampling(tmp_path, monkeypatch,
                                                        capsys, observable, times):
    # at the parent, edge reported the t=1 eigenvalues under t=0
    calls, draw = [], ens.sample_deformed
    monkeypatch.setattr(ens, "sample_deformed",
                        lambda *a: calls.append(a) or draw(*a))
    assert run("dbm", "--N", "20", "--n", "2", "--times", *times, "--seed", "3",
               "--observable", observable, "--out", str(tmp_path / "d")) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert calls == []


def test_dbm_m_edge_observable(tmp_path):
    out = tmp_path / "flowm"
    assert run("dbm", "--N", "60", "--n", "2", "--times", "0", "1",
               "--observable", "m-edge", "--out", str(out)) == 0
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert rows.shape == (4, 3)
    assert np.all(rows[:, 2] > 0.0)  # Im m at the edge is positive


# ---------------------------------------------------------------------------
# verify.

def test_verify_identities_suite(capsys):
    assert run("verify", "--suite", "identities", "--seeds", "10") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "pass"
    suite = rep["reports"][0]
    assert suite["residuals"]["max"] < 1e-9
    assert suite["pass"] is True


def test_verify_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_VERIFY_IDENTITY_GATE", 0.0)
    assert run("verify", "--suite", "identities", "--seeds", "3") == 3
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


# ---------------------------------------------------------------------------
# tw-table.

def test_tw_table_matches_tw_cdf(tmp_path):
    out = tmp_path / "tw"
    assert run("tw-table", "--lo", "-4", "--hi", "2", "--step", "1",
               "--out", str(out)) == 0
    rows = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert rows.shape == (7, 3)
    for s, f1, f2 in rows:
        assert f1 == tw.tw_cdf(1, s)
        assert f2 == tw.tw_cdf(2, s)
    assert np.all(np.diff(rows[:, 1]) > 0)


def test_tw_table_stdout(capsys):
    assert run("tw-table", "--lo", "-1", "--hi", "0", "--step", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,F1,F2"
    assert len(lines) == 3


def test_tw_table_grid_stays_in_range(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the out-of-range clamp warns
        assert run("tw-table") == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 321
    assert rows[-1].split(",")[0] == "6.0"
    assert run("tw-table", "--step", "0.7") == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(last.split(",")[0]) <= 6.0


def test_tw_table_bad_range_exits_2(capsys):
    assert run("tw-table", "--lo", "5", "--hi", "-5") == 2

# ---------------------------------------------------------------------------
# Parser contract: each subcommand's flags are exactly its config keys.

def _subparser(name):
    ap = cli._build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def _flag_value(action, default):
    """Command-line words for a value of this flag that differs from default,
    or for the default when it is the flag's only choice."""
    if action.nargs == 0:
        return [], action.const
    if action.choices:
        pick = next((c for c in action.choices if c != default), default)
        return [str(pick)], pick
    convert = action.type or str
    word = "x" if convert is str else "7" if convert is cli._int_arg else "0.25"
    if action.nargs == "+":
        return [word, word], [convert(word)] * 2
    return [word], convert(word)


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_parser_flags_match_defaults(name, capsys):
    _, defaults, _ = cli._COMMANDS[name]
    parser = _subparser(name)
    flags = {a.option_strings[0]: a for a in parser._actions
             if a.dest != "help"}
    want = {"--" + k.replace("_", "-") for k in defaults} | {"--config", "--out"}
    assert set(flags) == want

    with pytest.raises(SystemExit) as e:
        run(name, "--help")
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")

    argv, expected = [name], {}
    for key, default in defaults.items():
        action = flags["--" + key.replace("_", "-")]
        assert action.dest == key
        words, value = _flag_value(action, default)
        argv += [action.option_strings[0], *words]
        expected[key] = value
    cfg = cli._resolve(defaults, cli._build_parser().parse_args(argv))
    for key, value in expected.items():
        assert cfg[key] == value, key
        assert value != defaults[key] or cli._FLAGS[key].get("choices") == [value], key


# ---------------------------------------------------------------------------
# Start-up: the import closure of the CLI.

_IMPORT_PROBE = """
import contextlib, io, json, os, sys
import dwedge.cli as cli

def loaded():
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
          file=sys.__stdout__)

loaded()
import numpy as np
from dwedge import edgescale as es, freeconv as fc, measure as ms, twstats as tw
es.build(ms.empirical_from_values(np.linspace(-1.0, 1.0, 500)), 0.5)
sol = fc.solve_grid(ms.Atomic([0.0], [1.0]), 0.0, 1.0, -2.05, 2.05, 201, 1e-7)
tw.classical_locations(sol, 100, [1, 2])
tw.law_cdf(tw.LimitLaw(tw.TW1), 0.0)
tw.law_cdf(tw.LimitLaw(tw.GAUSS, 1.0), 0.0)
tw.tw_cdf(2, 0.0)
tw.tw_cdf(1, 0.0)
loaded()
jacobi = json.dumps({"type": "jacobi", "a": 1, "b": 1})
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["mc-edge", "--N", "20", "--n", "3"],
                 ["regime", "--sizes", "20", "--n", "3"],
                 ["tw-table", "--step", "0.5"],
                 ["verify", "--suite", "identities", "--seeds", "2"],
                 ["edge-scaling"],
                 ["edge-scaling", "--measure", jacobi]):
        if "--measure" not in argv:
            print(argv[0], cli.main(argv + ["--out", os.path.join(sys.argv[1], argv[0])]),
                  file=sys.stderr)
            loaded()
        else:
            print(argv[0], cli.main(argv), file=sys.stderr)
"""


def test_start_up_and_atomic_commands_never_load_scipy(tmp_path):
    # every command is a fresh process, so each scipy module the import
    # pulls in is paid on every run: the Painleve table steps its own RK4
    # from stored Airy data, the eigensolves bind numpy's own LAPACK, and
    # scipy.special is imported only for Jacobi laws
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.stdout.splitlines() == ["[]"] * 7
    assert out.stderr.splitlines() == [
        "mc-edge 0", "regime 0", "tw-table 0", "verify 0", "edge-scaling 0",
        "edge-scaling 0"]
