"""The draw map, its pool, and the rule that keeps both in one place.

rngstream.draws is the one place that hands sample j its stream and the one
place that forks: it splits the indices over a pool of processes, each at
one BLAS thread.  The guard below fails if a module of src/dwedge other
than rngstream derives a stream itself or calls fork, or if any module
imports a thread or process pool, so the rule that keys each sample to its
own stream stays in one place.  Like the unused-names guard, it reads code,
not strings.  The pool tests check that every caller's output is
byte-identical at one and two workers (one BLAS thread, as under
OPENBLAS_NUM_THREADS=1), that an exception crosses back with its type, and
that no worker outlives draws.
"""

import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dwedge import cli
from dwedge import ensemble as ens
from dwedge import freeconv as fc
from dwedge import measure as ms
from dwedge import rngstream
from dwedge import twstats as tw
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


def _offenders(tree: ast.AST, in_rngstream: bool = False) -> list[str]:
    out = []
    for node in ast.walk(tree):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
            [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        out += [f"line {node.lineno}: imports {name}" for name in names
                if name.split(".")[0] in POOLS]
        if isinstance(node, ast.Call) and not in_rngstream:
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name in ("stream", "fork", "forkpty"):
                out.append(f"line {node.lineno}: calls {name}")
    return out


def test_only_rngstream_derives_streams_or_starts_threads():
    found = {path.name: bad for path in sorted(SRC.glob("*.py"))
             if (bad := _offenders(ast.parse(path.read_text()),
                                   in_rngstream=path.name == "rngstream.py"))}
    assert not found, f"draw sample j through rngstream.draws, its one pool: {found}"
    # the guard sees what it looks for
    probe = ast.parse("from concurrent.futures import ThreadPoolExecutor\n"
                      "import threading\n"
                      "import multiprocessing.pool\n"
                      "rngstream.stream(0, 'x', 1)\n"
                      "os.fork()\n"
                      "fork()\n")
    imports = ["line 1: imports concurrent.futures", "line 2: imports threading",
               "line 3: imports multiprocessing.pool"]
    assert _offenders(probe) == [*imports, "line 4: calls stream",
                                 "line 5: calls fork", "line 6: calls fork"]
    assert _offenders(probe, in_rngstream=True) == imports


# ---------------------------------------------------------------------------
# The pool.

CPUS = len(os.sched_getaffinity(0))
two_cpus = pytest.mark.skipif(CPUS < 2 or not ens._BLAS_THREADS,
                              reason="a pool needs two usable CPUs and the bundled OpenBLAS")
TWO = ms.Atomic(locations=(-1.0, 1.0), weights=(0.5, 0.5))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_size_resolves_without_starting_processes():
    assert rngstream.pool_size(None, 10 ** 9) == rngstream.pool_size(10 ** 9, 10 ** 9) \
        == (CPUS if ens._BLAS_THREADS else 1)
    assert rngstream.pool_size(None, 1) == rngstream.pool_size(5, 0) == 1
    assert rngstream.pool_size(1, 10 ** 9) == 1
    for bad in (0, -1, True, 1.5, "2"):
        with pytest.raises(ValueError, match="workers"):
            rngstream.pool_size(bad, 10)


def _mc_edge(tmp_path):
    spec = ens.EnsembleSpec(N=60, lam0=0.5, potential=ens.IIDFrom(TWO), seed=3)
    r = tw.mc_edge(spec, 7, top_k=2)
    return [r.samples, r.e_plus, r.gamma0, r.ks]


def _rigidity(tmp_path):
    spec = ens.EnsembleSpec(N=60, lam0=0.5, potential=ens.IIDFrom(TWO), seed=3)
    r = tw.rigidity_report(spec, 5, 4)
    return [r["median"], r["p95"]]


def _regime(delta):
    def run(tmp_path):
        (r,) = tw.regime_test(TWO, 0.5, delta, [60], 7, seed=2)
        return [r["samples"], r["ks"]]
    return run


def _command(*argv, table=".csv"):
    def run(tmp_path):
        out = tmp_path / f"o{table}"
        assert cli.main([*argv, "--out", str(out)]) in (0, 3)
        return [out.read_bytes()]
    return run


CALLERS = {
    "mc_edge": _mc_edge, "rigidity_report": _rigidity,
    "regime_i": _regime(1.0 / 3.0), "regime_iii": _regime(0.0),
    "sample": _command("sample", "--N", "30", "--lam0", "0.5", "--potential",
                       '{"type":"atomic","atoms":[[-1,0.5],[1,0.5]]}', "--n", "5"),
    "dbm": _command("dbm", "--N", "30", "--n", "5", "--times", "0", "0.5"),
    "dbm_m_edge": _command("dbm", "--N", "30", "--n", "3", "--times", "0", "0.5",
                           "--observable", "m-edge"),
    "verify": _command("verify", "--seeds", "3", table=".json"),
}


@two_cpus
@pytest.mark.parametrize("caller", CALLERS)
def test_every_caller_gives_the_same_bytes_at_one_and_two_workers(
        caller, tmp_path, one_blas_thread, force_workers):
    outs = []
    for w in (1, 2):
        force_workers(w)
        outs.append([np.asarray(x).tobytes() for x in CALLERS[caller](tmp_path)])
    assert outs[0] == outs[1]
    assert_no_child_left()


@two_cpus
def test_the_pool_runs_every_share_at_one_blas_thread(request):
    # at N = 400 the float32 solve's last digits depend on the thread count,
    # so a share left at the caller's default threading would differ
    spec = ens.EnsembleSpec(N=400, lam0=0.5, potential=ens.IIDFrom(TWO), seed=4)
    threads = ens._BLAS_THREADS[0]()
    pooled = tw.mc_edge(spec, 6, workers=2).samples
    assert ens._BLAS_THREADS[0]() == threads  # the caller's count is restored
    request.getfixturevalue("one_blas_thread")
    assert pooled.tobytes() == tw.mc_edge(spec, 6, workers=1).samples.tobytes()
    assert_no_child_left()


@two_cpus
def test_rows_come_back_in_index_order_from_their_own_processes():
    rows = rngstream.draws(5, "order", range(7), lambda rng: (os.getpid(), rng.random()), 2)
    assert [x for _, x in rows] == [stream(5, "order", j).random() for j in range(7)]
    # the caller runs the even positions, one child the odd ones
    pids = [pid for pid, _ in rows]
    assert set(pids[0::2]) == {os.getpid()} and len(set(pids[1::2])) == 1 != os.getpid()
    assert_no_child_left()


@two_cpus
@pytest.mark.parametrize("j", [2, 3])  # in the caller's share, in the child's
def test_a_raise_on_one_index_is_raised_again_with_its_type(j):
    bad = stream(9, "raise", j).random()

    def fn(rng):
        if rng.random() == bad:
            raise KeyError(f"index {j}")
        return 0

    with pytest.raises(KeyError, match=f"index {j}"):
        rngstream.draws(9, "raise", range(6), fn, 2)
    assert_no_child_left()


@two_cpus
@pytest.mark.parametrize("error, code", [(fc.IterationError("no fixed point", 0.5, 7), 1),
                                         (cli.ConfigError("bad value"), 2)])
def test_a_worker_s_error_keeps_its_exit_code(monkeypatch, capsys, error, code):
    real = ens.sample_deformed

    def sample_deformed(spec, rng):
        if rngstream._in_worker:
            raise error
        return real(spec, rng)

    monkeypatch.setattr(ens, "sample_deformed", sample_deformed)
    assert cli.main(["mc-edge", "--N", "30", "--n", "4", "--workers", "2"]) == code
    assert str(error) in capsys.readouterr().err
    assert_no_child_left()


@two_cpus
def test_draws_inside_a_worker_starts_no_process():
    def outer(rng):
        return os.getpid(), rngstream.draws(0, "inner", range(4), lambda r: os.getpid(), 2)

    rows = rngstream.draws(0, "outer", range(4), outer, 2)
    # the caller's own rows may fork; a child's run in the child alone
    in_child = [(pid, inner) for pid, inner in rows if pid != os.getpid()]
    assert len(in_child) == 2
    for pid, inner in in_child:
        assert inner == [pid] * 4
    assert_no_child_left()


def _running(pid: int) -> bool:
    """Whether pid is alive: it exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@two_cpus
def test_a_killed_caller_leaves_no_worker(tmp_path):
    # each process prints its pid once, so a worker does not die of writing
    # to the closed pipe; its share takes 40 s
    script = ("import os, time\n"
              "from dwedge import rngstream\n"
              "seen = set()\n"
              "def fn(rng):\n"
              "    if not seen:\n"
              "        print(os.getpid(), flush=True)\n"
              "        seen.add(os.getpid())\n"
              "    time.sleep(0.02)\n"
              "rngstream.draws(0, 'kill', range(4000), fn, 2)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        worker = None
        for _ in range(2):
            pid = int(proc.stdout.readline())
            if pid != proc.pid:
                worker = pid
                break
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
    assert worker is not None
    deadline = time.monotonic() + 10
    while _running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(worker)
