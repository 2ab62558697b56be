"""Per-layer spans, recorded from outside the package.

A Tracer replaces module attributes (the public functions of each dwedge
layer and the LAPACK entry points they call) with thin wrappers for the
duration of a `with` block and puts the originals back on exit.  Each call
through a wrapper records one span: name, start, end, parent span and the
process CPU time spent inside it.  Spans stay in memory until the caller
writes them out.  Calls run on one thread (the workloads use workers=1), so
a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module, attribute).  The span name is "<layer>.<function>".
TARGETS = [
    ("cli.main", "dwedge.cli", "main"),
    ("twstats.mc_edge", "dwedge.twstats", "mc_edge"),
    ("twstats.regime_test", "dwedge.twstats", "regime_test"),
    ("twstats.rigidity_report", "dwedge.twstats", "rigidity_report"),
    ("twstats.ks_statistic", "dwedge.twstats", "ks_statistic"),
    ("twstats.classical_locations", "dwedge.twstats", "classical_locations"),
    ("ensemble.sample_deformed", "dwedge.ensemble", "sample_deformed"),
    ("ensemble.sample_wigner", "dwedge.ensemble", "sample_wigner"),
    ("ensemble.eigenvalues", "dwedge.ensemble", "eigenvalues"),
    ("measure.empirical_from_values", "dwedge.measure", "empirical_from_values"),
    ("measure.sample", "dwedge.measure", "sample"),
    ("edgescale.build", "dwedge.edgescale", "build"),
    ("freeconv.assumption_margin", "dwedge.freeconv", "assumption_margin"),
    ("freeconv.support_endpoints", "dwedge.freeconv", "support_endpoints"),
    ("freeconv.solve_grid", "dwedge.freeconv", "solve_grid"),
    ("freeconv.solve_point", "dwedge.freeconv", "solve_point"),
    ("resolvent.optical_window", "dwedge.resolvent", "optical_window"),
    ("resolvent.green", "dwedge.resolvent", "green"),
    ("resolvent.local_law_residuals", "dwedge.resolvent", "local_law_residuals"),
    ("resolvent.verify_identities", "dwedge.resolvent", "verify_identities"),
    ("rngstream.stream", "dwedge.rngstream", "stream"),
    ("lapack.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("lapack.eigh", "scipy.linalg", "eigh"),
    ("lapack.solve", "scipy.linalg", "solve"),
]

# Spans whose CPU-to-wall ratio is reported: BLAS threads show up here.
CPU_RATIO_SPANS = [name for name, _, _ in TARGETS if name.startswith("lapack.")]


class Span:
    __slots__ = ("name", "start", "end", "parent", "cpu_s")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 cpu_s: float = 0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent      # index into the span list, -1 for a root
        self.cpu_s = cpu_s

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.cpu_s]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Context manager that wraps TARGETS-style attributes in place."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            c0 = time.process_time()
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_s = time.process_time() - c0
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for name, modname, attr in self.targets:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals and clipped to the parent, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans: list[Span], names) -> dict[str, dict[str, float]]:
    """calls, self_s, total_s and cpu_s per span name.

    total_s counts only the outermost span of a name, so a function that
    reaches itself again through a wrapper is not counted twice.
    """
    out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "cpu_s": 0.0}
           for n in names}
    for s, self_s in zip(spans, self_times(spans)):
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += self_s
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["total_s"] += s.end - s.start
            row["cpu_s"] += s.cpu_s
    return out
