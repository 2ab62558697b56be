"""Counter-based random streams, and the one loop that maps them.

Every random draw in the package flows from a 64-bit master seed through
a named stream: the (seed, purpose, index) triple is hashed to a 128-bit
Philox key. Streams are therefore independent of the order samples are
drawn in, and any stream can be reconstructed in isolation. draws is the
one place that hands sample j its stream, and the one place in the package
that forks: it splits the indices across processes, each of which runs its
share at one BLAS thread, so its output is byte-identical for every worker
count (under OPENBLAS_NUM_THREADS=1, where the serial loop runs at one
thread too).
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import numbers
import os
import pickle
import signal

import numpy as np

from . import ensemble as ens

_PR_SET_PDEATHSIG = 1
# set in a forked worker, whose own draws calls then run serially
_in_worker = False


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Derive the generator for one named stream of a master seed.

    Distinct (purpose, index) pairs give statistically independent
    generators; the same triple always gives the same bit stream.
    """
    token = f"{seed}:{purpose}:{index}".encode()
    key = int.from_bytes(hashlib.blake2b(token, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def pool_size(workers: int | None, n: int) -> int:
    """The number of processes draws runs n indices on: workers (None: the
    usable-CPU count), capped by n and by the usable CPUs, and 1 inside a
    worker or without numpy's bundled OpenBLAS, whose thread count the
    workers pin.  workers must be None or an integer >= 1."""
    if workers is not None and not (isinstance(workers, numbers.Integral)
                                    and not isinstance(workers, bool) and workers >= 1):
        raise ValueError(f"need an integer workers >= 1, got {workers!r}")
    if _in_worker or not ens._BLAS_THREADS:
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(workers or cpus, n, cpus))


def draws(seed: int, purpose: str, indices, fn, workers: int | None = None) -> list:
    """fn of the stream (seed, purpose, j) for each j of indices, in order.

    With W = pool_size(workers, len(indices)) > 1, W - 1 forked children
    compute indices[r::W] for r = 1 .. W-1 and the caller computes
    indices[0::W], every share at one BLAS thread; each child pickles its
    rows, or the exception fn raised, back through a pipe.  The caller's
    thread count is restored, every child is reaped, also when something
    raises, and an exception of a child is raised again here.  A child dies
    with its parent (PR_SET_PDEATHSIG), so a killed caller leaves no worker.
    """
    indices = list(indices)
    w = pool_size(workers, len(indices))

    def share(r: int) -> list:
        return [fn(stream(seed, purpose, j)) for j in indices[r::w]]

    if w == 1:
        return share(0)
    get_threads, set_threads = ens._BLAS_THREADS
    parent, kids = os.getpid(), []
    try:
        gc.freeze()  # the children's collections leave the parent's pages shared
        try:
            for r in range(1, w):
                rd, wr = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _work(parent, wr, lambda: share(r), set_threads)
                os.close(wr)
                kids.append((pid, rd))
        finally:
            gc.unfreeze()
        threads = get_threads()
        set_threads(1)
        try:
            shares = [share(0)]
        finally:
            set_threads(threads)
        for _, rd in kids:
            with os.fdopen(rd, "rb", closefd=False) as fh:
                ok, rows = pickle.load(fh)
            if not ok:
                raise rows
            shares.append(rows)
    finally:
        for pid, rd in kids:
            os.close(rd)
            # a child that has sent its rows is already exiting
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    out = [None] * len(indices)
    for r, rows in enumerate(shares):
        out[r::w] = rows
    return out


def _work(parent: int, wr: int, rows, set_threads) -> None:
    """The body of a forked child: (True, rows()) or (False, the exception)
    pickled to the pipe wr, then exit without unwinding the parent's stack."""
    global _in_worker
    try:
        _in_worker = True
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL))
        if os.getppid() != parent:  # the parent died before prctl
            os._exit(1)
        set_threads(1)
        try:
            data = pickle.dumps((True, rows()))
        except BaseException as e:
            try:
                data = pickle.dumps((False, e))
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"a worker raised {e!r}")))
        with os.fdopen(wr, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)
