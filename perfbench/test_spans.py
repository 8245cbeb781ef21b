"""Self-time arithmetic of the span recorder.

Run with: python3 -m pytest perfbench/test_spans.py
"""

import threading

import pytest

from spans import Recorder, Span, self_times, union_length


def span(id, start, end, parent=None, thread=1):
    return Span(id, f"layer.s{id}", start, end, parent, thread, 1)


def test_union_of_disjoint_nested_and_overlapping_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)
    assert union_length([(3.0, 6.0), (1.0, 4.0), (6.0, 7.0)]) == pytest.approx(6.0)


def test_overlapping_children_on_two_threads_are_counted_once():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1, thread=2),
        span(3, 3.0, 6.0, parent=1, thread=3),   # overlaps span 2 on [3, 4]
        span(4, 8.0, 12.0, parent=1, thread=2),  # clipped to the parent at 10
        span(5, 1.5, 2.0, parent=2, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)


def test_pool_thread_spans_hang_from_the_operation_root():
    rec = Recorder()
    barrier = threading.Barrier(2, timeout=10)

    def worker():
        with rec.span("layer.cell"):
            barrier.wait()
            with rec.span("layer.leaf"):
                pass

    with rec.operation("bench.op") as root:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [c.parent for c in by_name["layer.cell"]] == [root.id, root.id]
    cell_ids = {c.id for c in by_name["layer.cell"]}
    assert {leaf.parent for leaf in by_name["layer.leaf"]} == cell_ids
    assert len({c.thread for c in by_name["layer.cell"]}) == 2
    own = self_times(rec.spans)
    assert 0.0 <= own[root.id] <= root.duration
    assert all(s.op == root.op for s in rec.spans)


def test_adopted_child_process_spans_are_renumbered_under_the_parent():
    rec = Recorder()
    with rec.span("bench.command") as cmd:
        pass
    child = [span(1, 0.0, 5.0), span(2, 1.0, 2.0, parent=1)]
    rec.adopt(child, cmd.id)
    main, inner = rec.spans[1:]
    assert main.parent == cmd.id
    assert inner.parent == main.id
    assert len({s.id for s in rec.spans}) == 3
