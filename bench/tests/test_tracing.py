import importlib
import sys
import types

import pytest

import tracing
from tracing import Span, Tracer, layer_totals, self_times


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    # every instant of the root is some span's self time, exactly once
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 1.0, 5.0, 0),
        Span("y", 3.0, 7.0, 0),       # overlaps x on [3, 5]
        Span("z", 9.0, 12.0, 0),      # runs past the parent; clipped to 10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_total_counts_outermost_span_of_a_name_once():
    spans = [
        Span("f", 0.0, 4.0, -1, cpu_s=4.0),
        Span("g", 1.0, 3.0, 0, cpu_s=2.0),
        Span("f", 1.5, 2.5, 1, cpu_s=1.0),   # f reached again under g
    ]
    rows = layer_totals(spans, ["f", "g", "unused"])
    assert rows["f"]["calls"] == 2
    assert rows["f"]["total_s"] == pytest.approx(4.0)
    assert rows["f"]["cpu_s"] == pytest.approx(4.0)
    assert rows["f"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert rows["g"]["self_s"] == pytest.approx(1.0)
    assert rows["unused"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                              "cpu_s": 0.0}


@pytest.fixture
def toy_module():
    mod = types.ModuleType("toy_layer")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * inner(x)\n", mod.__dict__)
    sys.modules["toy_layer"] = mod
    yield mod
    del sys.modules["toy_layer"]


def test_tracer_records_parents_and_restores(toy_module):
    orig_outer, orig_inner = toy_module.outer, toy_module.inner
    targets = [("toy.outer", "toy_layer", "outer"),
               ("toy.inner", "toy_layer", "inner")]
    with Tracer(targets) as tracer:
        assert toy_module.outer is not orig_outer
        assert toy_module.outer(2) == 9
    assert toy_module.outer is orig_outer and toy_module.inner is orig_inner
    names = [s.name for s in tracer.spans]
    assert names == ["toy.outer", "toy.inner", "toy.inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root.end - root.start)


def test_tracer_restores_on_error(toy_module):
    orig = toy_module.inner
    with pytest.raises(ZeroDivisionError):
        with Tracer([("toy.inner", "toy_layer", "inner")]):
            toy_module.inner(1) / 0
    assert toy_module.inner is orig


def test_every_wrapped_attribute_is_restored_after_a_traced_run():
    from dwedge import ensemble as ens
    from dwedge import rngstream

    def current():
        return [getattr(importlib.import_module(m), a)
                for _, m, a in tracing.TARGETS]

    before = current()
    with Tracer() as tracer:
        assert all(w is not o for w, o in zip(current(), before))
        h = ens.sample_wigner(30, ens.GAUSSIAN, 0.0, rngstream.stream(0, "t"))
        ens.eigenvalues(h)
    assert all(a is b for a, b in zip(current(), before))
    assert [s.name for s in tracer.spans] == [
        "rngstream.stream", "ensemble.sample_wigner", "ensemble.eigenvalues",
        "lapack.eigvalsh"]
    assert tracer.spans[-1].parent == 2
