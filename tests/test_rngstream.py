"""The draw map, and the rule that keeps it the only one.

rngstream.draws is the one place that hands sample j its stream and runs
samples on threads.  The guard below fails if another module of
src/dwedge derives a stream or starts a thread pool itself, so the rule
that makes every output independent of the worker count stays in one
place.  Like the unused-names guard, it reads code, not strings.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from dwedge import rngstream
from dwedge.rngstream import stream

SRC = Path(__file__).resolve().parents[1] / "src" / "dwedge"


def test_draws_maps_fn_over_the_stream_of_each_index_in_order():
    def row(rng):
        return rng.standard_normal(4)

    indices = [7, 3, 12, 0, 19, 5]
    one = rngstream.draws(9, "t", indices, row)
    three = rngstream.draws(9, "t", indices, row, workers=3)
    np.testing.assert_array_equal(np.array(one), np.array(three))
    # row i is fn of the stream (seed, purpose, indices[i])
    np.testing.assert_array_equal(
        np.array(one), np.array([row(stream(9, "t", j)) for j in indices]))


@pytest.mark.parametrize("bad", [0, float("nan"), 1.5])
def test_draws_refuses_a_bad_worker_count(bad):
    # a NaN pool would start no thread and wait for ever
    with pytest.raises(ValueError, match="workers"):
        rngstream.draws(0, "t", range(3), lambda rng: 0, workers=bad)


def _offenders(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and \
                (getattr(node, "id", None) or getattr(node, "attr", None)) == "ThreadPoolExecutor":
            out.append(f"line {node.lineno}: ThreadPoolExecutor")
        elif isinstance(node, ast.ImportFrom) and \
                any(a.name == "ThreadPoolExecutor" for a in node.names):
            out.append(f"line {node.lineno}: imports ThreadPoolExecutor")
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name == "stream":
                out.append(f"line {node.lineno}: calls stream")
    return out


def test_only_rngstream_derives_streams_or_starts_threads():
    found = {path.name: bad for path in sorted(SRC.glob("*.py"))
             if path.name != "rngstream.py"
             and (bad := _offenders(ast.parse(path.read_text())))}
    assert not found, f"draw sample j through rngstream.draws instead: {found}"
    # the guard sees what it looks for
    assert _offenders(ast.parse(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "rngstream.stream(0, 'x', 1)\n")) == [
            "line 1: imports ThreadPoolExecutor", "line 2: calls stream"]
