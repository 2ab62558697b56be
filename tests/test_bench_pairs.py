"""The paired summary of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
import json
import math
import pathlib
import statistics

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)


def _null_below(n: int, k: int) -> float:
    """P(T+ < k) for the signed-rank statistic of n pairs, by enumeration
    of the 2^n sign patterns."""
    sums = np.zeros(1, dtype=np.int64)
    for rank in range(1, n + 1):
        sums = np.concatenate([sums, sums + rank])
    return float(np.mean(sums < k))


# k - 1 is the two-sided 5% critical value of the Wilcoxon signed-rank table
@pytest.mark.parametrize("n,k", [(6, 1), (10, 9), (12, 14), (20, 53)])
def test_signed_rank_interval_is_the_widest_95_percent_order_statistic(n, k):
    ratios = [math.exp(0.1 * i) for i in range(n, 0, -1)]
    got = bp.ratio_interval(ratios)
    walsh = sorted(0.05 * (i + j) for i in range(1, n + 1)
                   for j in range(i, n + 1))
    assert got["interval"] == pytest.approx(
        [math.exp(walsh[k - 1]), math.exp(walsh[-k])], rel=1e-12)
    assert got["coverage"] == 1.0 - 2.0 * _null_below(n, k) >= 0.95
    # one order statistic further in would drop below 95%
    assert 1.0 - 2.0 * _null_below(n, k + 1) < 0.95
    assert got["median"] == statistics.median(ratios)


def test_signed_rank_interval_by_hand():
    # log ratios x (in hundredths) -3 -1 0 2 4 5 7 8 10 12; k = 9 of the
    # 55 Walsh averages (x_i + x_j)/2.  Ascending pair sums -6 -4 -3 -2
    # -1 -1 0 1 1 put the 9th lowest at 1/2; descending 24 22 20 20 19 18
    # 17 17 16 put the 9th highest at 8.  Coverage: 25 of the 1024 sign
    # patterns have T+ <= 8, so 1 - 50/1024.  The sign test would give the
    # wider [exp(-0.01), exp(0.10)].
    x = [-3, -1, 0, 2, 4, 5, 7, 8, 10, 12]
    got = bp.ratio_interval([math.exp(v / 100.0) for v in x])
    assert got["interval"] == pytest.approx([math.exp(0.005), math.exp(0.08)],
                                            rel=1e-12)
    assert got["coverage"] == 1.0 - 50.0 / 1024.0


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
