"""End-to-end runs of every subcommand through cli.main.

Commands run in-process so exit codes and outputs are asserted directly;
file outputs land in tmp_path.  The fc-solve check against the closed-form
semicircle doubles as the smallest full-pipeline integration test.
"""

import argparse
import json
import warnings

import numpy as np
import pytest

from dwedge import cli
from dwedge import ensemble as ens
from dwedge import freeconv as fc
from dwedge import measure as ms
from dwedge import twstats as tw

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


def test_fc_solve_without_edge_root_exits_1(tmp_path, capsys):
    # a soft-tailed law at strong coupling has no outer edge root at all
    assert run("fc-solve", "--measure", '{"type":"jacobi","a":2,"b":2}',
               "--lam", "2.5", "--points", "201",
               "--out", str(tmp_path / "fc4")) == 1
    assert "no edge root" in capsys.readouterr().err


def test_fc_solve_records_newton_iterations(capsys):
    assert run("fc-solve", "--measure", TWO_ATOM, "--lam", "0.5",
               "--points", "101") == 0
    summary = json.loads(capsys.readouterr().out)
    sol = fc.solve_grid(ms.from_json(json.loads(TWO_ATOM)), 0.5, 1.0,
                        summary["config"]["lo"], summary["config"]["hi"], 101, 1e-5)
    assert summary["iterations"] == sol.iterations >= 1


def test_fc_solve_malformed_measure_exits_2(tmp_path, capsys):
    assert run("fc-solve", "--measure", '{"type":"grid","lo":0}') == 2
    assert "measure.hi" in capsys.readouterr().err


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
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert rows.shape == (120, 3)
    from_bin = ens.read_spectra_binary(str(bin_path))
    assert from_bin.shape == (3, 40)
    assert np.allclose(rows[:40, 2], from_bin[0])


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

BAD_ENSEMBLE = [("N", 1), ("lam0", -1.0), ("c2", -2.0), ("law", "cauchy"),
                ("lam0", float("nan")), ("c2", float("inf"))]


@pytest.mark.parametrize("command", ["sample", "mc-edge", "dbm"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value", BAD_ENSEMBLE)
def test_bad_ensemble_value_exits_2(tmp_path, capsys, command, source,
                                    key, value):
    argv = [command, "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--" + key, str(value)]
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
]


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
    assert summary["config"]["c2"] == 1.0  # matched diagonal resolved


def test_mc_edge_replays_its_own_summary_with_iid_potential(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("mc-edge", "--n", "5", "--N", "40", "--lam0", "0.5",
               "--potential", TWO_ATOM, "--out", str(a)) == 0
    recorded = json.loads(a.with_suffix(".json").read_text())["config"]
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(recorded))
    assert run("mc-edge", "--config", str(cfg), "--out", str(b)) == 0
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
    # the recorded potential also works as the flag value
    assert run("mc-edge", "--n", "5", "--N", "40", "--lam0", "0.5", "--potential",
               json.dumps(recorded["potential"]), "--out", str(b)) == 0
    assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()


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
    """Command-line words for a value of this flag that differs from default."""
    if action.nargs == 0:
        return [], action.const
    if action.choices:
        pick = next(c for c in action.choices if c != default)
        return [pick], pick
    convert = action.type or str
    word = "x" if convert is str else "7" if convert is int else "0.25"
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
        assert cfg[key] == value != defaults[key], key
