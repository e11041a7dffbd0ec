"""Span bookkeeping and the self-time arithmetic the per-layer metrics use."""

import threading
import types

import pytest

from spans import Span, Tracer, covered_length, self_times


def _span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent, 0, 1)


@pytest.mark.parametrize(
    "intervals, lo, hi, want",
    [
        ([], 0.0, 10.0, 0.0),
        ([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0, 3.0),  # disjoint
        ([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0, 3.0),  # overlapping
        ([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0, 8.0),  # nested
        ([(-5.0, 2.0), (8.0, 15.0)], 0.0, 10.0, 4.0),  # clipped at both ends
        ([(11.0, 12.0)], 0.0, 10.0, 0.0),  # outside
        ([(3.0, 4.0), (4.0, 5.0)], 0.0, 10.0, 2.0),  # touching
    ],
)
def test_covered_length(intervals, lo, hi, want):
    assert covered_length(intervals, lo, hi) == pytest.approx(want)


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),  # grandchild: counted in span 2, not 1
        _span(4, 6.0, 8.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)


def test_self_times_sum_to_root_duration():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 6.0, 8.0, parent=1),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_tracer_records_nesting_work_and_restores():
    mod = types.ModuleType("fake")

    def inner(n):
        return list(range(n))

    def outer(n):
        return mod.inner(n) + mod.inner(1)

    mod.inner, mod.outer = inner, outer
    alias = types.ModuleType("alias")
    alias.inner = inner  # a second binding, as `from fake import inner` makes

    tracer = Tracer()
    assert tracer.patch_everywhere([mod, alias], inner, "inner", lambda a, k, r: len(r)) == 2
    assert tracer.patch_everywhere([mod], outer, "outer") == 1
    assert mod.outer(3) == [0, 1, 2, 0]
    alias.inner(2)
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer and alias.inner is inner

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (out,) = by_name["outer"]
    assert [s.work for s in by_name["inner"]] == [3, 1, 2]
    assert [s.parent for s in by_name["inner"]] == [out.id, out.id, None]
    assert out.parent is None and out.work == 1


def test_tracer_patch_method_on_class():
    class Model:
        def draw(self, n):
            return n * 2

    tracer = Tracer()
    tracer.patch(Model, "draw", "model.draw", lambda a, k, r: a[1])
    assert Model().draw(5) == 10
    tracer.uninstall()
    assert Model.__dict__["draw"].__name__ == "draw"
    assert not hasattr(Model.__dict__["draw"], "__wrapped__")
    assert [(s.name, s.work) for s in tracer.spans] == [("model.draw", 5)]


def test_spans_on_other_threads_have_their_own_stack():
    mod = types.ModuleType("fake")
    mod.leaf = lambda: None

    def root():
        t = threading.Thread(target=mod.leaf)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        mod.leaf()

    mod.root = root
    tracer = Tracer()
    tracer.patch_everywhere([mod], mod.leaf, "leaf")
    tracer.patch_everywhere([mod], root, "root")
    mod.root()
    tracer.uninstall()
    (r,) = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert sorted(s.parent is None for s in leaves) == [False, True]
    assert {s.thread for s in leaves} != {r.thread}


def test_span_recorded_with_no_work_when_the_call_raises():
    mod = types.ModuleType("fake")

    def boom():
        raise ValueError("x")

    mod.boom = boom
    tracer = Tracer()
    tracer.patch_everywhere([mod], boom, "boom", lambda a, k, r: 1)
    with pytest.raises(ValueError):
        mod.boom()
    tracer.uninstall()
    assert [(s.name, s.work) for s in tracer.spans] == [("boom", 0)]
