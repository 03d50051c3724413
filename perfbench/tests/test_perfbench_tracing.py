import types

import pytest

import tracing


def span(name, start, end, parent):
    return [name, start, end, parent, None]


# root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
TREE = [
    span("root", 0.0, 10.0, -1),
    span("a", 1.0, 4.0, 0),
    span("c", 2.0, 3.0, 1),
    span("b", 5.0, 9.0, 0),
    span("other_root", 20.0, 21.5, -1),
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(TREE) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_self_times_sum_to_each_root_duration():
    selfs = tracing.self_times(TREE)
    assert sum(selfs[:4]) == 10.0 and selfs[4] == 1.5


def test_well_nested_tree_has_no_misnested_span():
    assert tracing.misnested(TREE, tracing.self_times(TREE)) == 0


def test_child_outside_parent_or_overlapping_siblings_are_misnested():
    outside = TREE + [span("late", 9.5, 10.5, 0)]  # ends after root; overlaps b too
    assert tracing.misnested(outside, tracing.self_times(outside)) == 1
    # Siblings that overlap leave the parent a negative self time.
    overlap = [span("p", 0.0, 4.0, -1), span("x", 0.0, 3.0, 0), span("y", 1.0, 4.0, 0)]
    assert tracing.misnested(overlap, tracing.self_times(overlap)) == 1


def test_wrapped_calls_nest_inherit_origin_and_unwrap():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda example: ns.inner(example.value)
    original_outer = ns.outer
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "inner", count=lambda counts, args, result: counts.update(calls=1))
    tracer.wrap(ns, "outer", "outer", origin=lambda args: args[0].origin)
    with tracer.span("root"):
        assert ns.outer(types.SimpleNamespace(value=1, origin=("d", 0, "T"))) == 2
    tracer.unwrap_all()
    assert ns.outer is original_outer
    names = [s[tracing.NAME] for s in tracer.spans]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    origins = [s[tracing.ORIGIN] for s in tracer.spans]
    assert names == ["root", "outer", "inner"]
    assert parents == [-1, 0, 1]
    assert origins == [None, ("d", 0, "T"), ("d", 0, "T")]
    assert tracer.counts["calls"] == 1
    selfs = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(selfs) == pytest.approx(root[tracing.END] - root[tracing.START], abs=1e-12)


def test_span_is_closed_when_the_call_raises():
    ns = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = tracing.Tracer()
    tracer.wrap(ns, "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        ns.fail()
    tracer.unwrap_all()
    assert tracer.stack == []
    assert tracer.spans[0][tracing.END] >= tracer.spans[0][tracing.START] > 0
