"""The paired summary of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
import json
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)


@pytest.mark.parametrize("n,k", [(6, 1), (10, 2), (12, 3), (20, 6)])
def test_sign_test_interval_is_the_widest_95_percent_order_statistic(n, k):
    ratios = [float(i) for i in range(n, 0, -1)]
    got = bp.ratio_interval(ratios)
    below = sum(math.comb(n, i) for i in range(k)) / 2.0 ** n
    assert got["interval"] == [float(k), float(n + 1 - k)]
    assert got["coverage"] == 1.0 - 2.0 * below >= 0.95
    # one order statistic further in would drop below 95%
    assert 1.0 - 2.0 * (below + math.comb(n, k) / 2.0 ** n) < 0.95
    assert got["median"] == (n + 1) / 2.0


def test_no_interval_below_six_pairs():
    assert bp.ratio_interval([1.0, 0.9, 1.1, 1.0, 0.95])["interval"] is None


def test_summary_counts_wins_and_clean_separation(tmp_path, monkeypatch):
    # setup_s (lower is better): the change is below every parent run;
    # samples_per_s (higher is better): the runs overlap
    values = {"parent": iter([(1.0, 10.0), (1.1, 12.0), (0.9, 11.0)] * 2),
              "change": iter([(0.7, 11.5), (0.8, 10.5), (0.6, 11.0)] * 2)}

    def fake_run(checkout, workload, seed):
        setup, rate = next(values[checkout.name])
        metrics = {"setup_s": setup, "samples_per_s": rate, "run_s": 1.0,
                   "cpu_s": 1.0, "peak_rss_mb": 50.0}
        return {"machine": {"git_commit": checkout.name, "src_sha256": "x"},
                "metrics": metrics, "failed": 0, "attempted": 3}

    monkeypatch.setattr(bp, "one_run", fake_run)
    out = tmp_path / "b.json"
    assert bp.main(["--parent", str(tmp_path / "parent"), "--change",
                    str(tmp_path / "change"), "--workloads", "w", "--pairs",
                    "6", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())["workloads"]["w"]
    assert rec["change_beats_every_parent_run"]["setup_s"] is True
    assert rec["change_beats_every_parent_run"]["samples_per_s"] is False
    assert rec["change_beats_every_parent_run"]["run_s"] is False
    assert rec["change_wins"]["setup_s"] == 6
    assert rec["ratio"]["run_s"] == {"median": 1.0, "interval": [1.0, 1.0],
                                     "coverage": 1.0 - 2.0 / 64}
