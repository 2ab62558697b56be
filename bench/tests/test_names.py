import json
import re
from pathlib import Path

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _config():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_workload_names_match_benchmark_json():
    cfg = _config()
    assert [w["name"] for w in cfg["workloads"]] == list(WORKLOADS)
    for w in cfg["workloads"]:
        assert NAME.fullmatch(w["name"])
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_names_and_units_match_benchmark_json():
    cfg = _config()
    e2e = {m["name"]: m["unit"] for m in cfg["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in cfg["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert not set(e2e) & set(layer)


def test_end_to_end_bounds():
    cfg = _config()
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
