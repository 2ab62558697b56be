"""The draw map, and the rule that keeps it the only one.

rngstream.draws is the one place that hands sample j its stream, and it
runs the samples in one plain loop.  The guard below fails if a module of
src/dwedge other than rngstream derives a stream itself, or if any module
imports a thread or process pool, so the rule that keys each sample to its
own stream stays in one place.  Like the unused-names guard, it reads code,
not strings.
"""

import ast
from pathlib import Path

import numpy as np

from dwedge import rngstream
from dwedge.rngstream import stream

SRC = Path(__file__).resolve().parents[1] / "src" / "dwedge"

# the packages that start threads or processes (concurrent holds only futures)
POOLS = ("concurrent", "threading", "multiprocessing")


def test_draws_maps_fn_over_the_stream_of_each_index_in_order():
    def row(rng):
        return rng.standard_normal(4)

    indices = [7, 3, 12, 0, 19, 5]
    # row i is fn of the stream (seed, purpose, indices[i])
    np.testing.assert_array_equal(
        np.array(rngstream.draws(9, "t", indices, row)),
        np.array([row(stream(9, "t", j)) for j in indices]))


def _offenders(tree: ast.AST, may_call_stream: bool = False) -> list[str]:
    out = []
    for node in ast.walk(tree):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
            [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        out += [f"line {node.lineno}: imports {name}" for name in names
                if name.split(".")[0] in POOLS]
        if isinstance(node, ast.Call) and not may_call_stream:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name == "stream":
                out.append(f"line {node.lineno}: calls stream")
    return out


def test_only_rngstream_derives_streams_or_starts_threads():
    found = {path.name: bad for path in sorted(SRC.glob("*.py"))
             if (bad := _offenders(ast.parse(path.read_text()),
                                   may_call_stream=path.name == "rngstream.py"))}
    assert not found, f"draw sample j through rngstream.draws, in one loop: {found}"
    # the guard sees what it looks for
    probe = ast.parse("from concurrent.futures import ThreadPoolExecutor\n"
                      "import threading\n"
                      "import multiprocessing.pool\n"
                      "rngstream.stream(0, 'x', 1)\n")
    imports = ["line 1: imports concurrent.futures", "line 2: imports threading",
               "line 3: imports multiprocessing.pool"]
    assert _offenders(probe) == [*imports, "line 4: calls stream"]
    assert _offenders(probe, may_call_stream=True) == imports
