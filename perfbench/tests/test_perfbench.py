"""Small-size tests for the benchmark's own measurement code.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from perfbench.stats import (
    answer,
    due_times,
    expected_answer,
    percentile,
    permute_columns,
    samples_beyond,
    scan,
    sleep_until,
    steal_share,
)
from perfbench.tracer import Span, Tracer, outermost, self_times


# -- percentiles -------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_samples_beyond_p95():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(100, 95) == 5


# -- open-loop schedule ------------------------------------------------
def test_due_times_follow_the_rate():
    assert due_times(10.0, 4.0, 3) == [10.0, 10.25, 10.5]
    with pytest.raises(ValueError):
        due_times(0.0, 0.0, 3)


def test_sleep_until_returns_lateness():
    assert sleep_until(time.monotonic() + 0.01) >= 0.0
    # Already past due: no sleep, and the lateness shows the delay.
    assert sleep_until(time.monotonic() - 0.5) >= 0.5


# -- oracle ------------------------------------------------------------
COLUMNS = {
    "a": np.array([1, 2, 3, 1, 2, 3, 1, 2], dtype=np.int32),
    "b": np.array([0, 5, 9, 5, 0, 9, 5, 0], dtype=np.int32),
}


def test_scan_ands_its_leaves():
    spec = (("in", "a", (1, 2)), ("range", "b", 4, 9))
    assert scan(COLUMNS, spec, 8).tolist() == [1, 3, 6]
    assert scan(COLUMNS, spec, 4).tolist() == [1, 3]
    assert scan(COLUMNS, (("eq", "b", 9),), 8).tolist() == [2, 5]


def test_expected_answer_matches_the_packed_bitmap():
    # Rows 0, 3 and 64 of a 70-row universe: two little-endian words.
    words = np.array([0b1001, 0b1], dtype=np.uint64)
    assert expected_answer(np.array([0, 3, 64, 80]), 70) == answer(3, words)
    assert expected_answer(np.array([0, 3, 64, 80]), 64) == answer(
        2, words[:1])
    assert answer(3, words) != answer(3, np.array([0b1011, 0], dtype=np.uint64))


def test_expected_answer_of_every_prefix_agrees_with_a_scan():
    spec = (("in", "a", (1, 2)),)
    ids = scan(COLUMNS, spec, 8)
    for rows in range(1, 9):
        mask = np.zeros(64, dtype=bool)
        mask[scan(COLUMNS, spec, rows)] = True
        words = np.packbits(mask, bitorder="little").view(np.uint64)
        assert expected_answer(ids, rows) == answer(int(mask.sum()), words)


def test_permute_columns_maps_reordered_row_ids():
    # Two partitions of four rows; each reversed in place.
    permuted = permute_columns(COLUMNS, [[3, 2, 1, 0], [3, 2, 1, 0]], [0, 4])
    assert permuted["a"].tolist() == [1, 3, 2, 1, 2, 1, 3, 2]
    assert permuted["b"].tolist() == [5, 9, 5, 0, 0, 5, 9, 0]


def test_steal_share():
    before = [0, 0, 0, 0, 0, 0, 0, 0]
    after = [60, 0, 20, 10, 0, 0, 0, 10]
    assert steal_share(before, after) == pytest.approx(0.1)
    assert steal_share([], []) == 0.0


# -- spans -------------------------------------------------------------
def span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, 1, 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 2.0, 3.0, parent=2),
        span(4, 5.0, 7.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    own = self_times([span(1, 0.0, 2.0), span(2, 1.0, 5.0, parent=1)])
    assert own[1] == pytest.approx(1.0)


def test_outermost_skips_same_name_nesting():
    spans = [
        span(1, 0, 5, name="plan"),
        span(2, 1, 2, parent=1, name="plan"),
        span(3, 6, 7, name="plan"),
    ]
    assert [s.sid for s in outermost(spans, "plan")] == [1, 3]


class Layer:
    def inner(self, x):
        return x + 1

    def outer(self, x):
        return self.inner(x) * 2

    @staticmethod
    def static(x):
        return -x


def test_tracer_records_nesting_read_ids_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(Layer, "inner", "layer.inner")
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "static", "layer.static")
    tracer.set_read(7)
    assert Layer().outer(1) == 4
    assert Layer.static(3) == -3
    tracer.unwrap_all()
    inner, outer, static = tracer.spans
    assert (outer.name, outer.parent, outer.read_id) == ("layer.outer", None, 7)
    assert (inner.parent, inner.read_id) == (outer.sid, 7)
    assert static.parent is None
    assert self_times(tracer.spans)[outer.sid] == pytest.approx(
        outer.duration - inner.duration
    )
    assert Layer.__dict__["inner"].__name__ == "inner"
    assert isinstance(Layer.__dict__["static"], staticmethod)
    Layer().outer(1)
    assert len(tracer.spans) == 3


def test_tracer_roots_on_other_threads_start_their_own_read():
    tracer = Tracer()
    tracer.wrap(Layer, "inner", "layer.inner")
    try:
        tracer.set_read(5)
        worker = threading.Thread(target=Layer().inner, args=(1,))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    finally:
        tracer.unwrap_all()
    (only,) = tracer.spans
    assert only.read_id == only.sid


def test_tracer_names_a_span_from_the_result_and_drops_none():
    tracer = Tracer()
    tracer.wrap(Layer, "inner",
                lambda args, kwargs, result: "odd" if result % 2 else None)
    try:
        Layer().inner(0)
        Layer().inner(1)
    finally:
        tracer.unwrap_all()
    assert [s.name for s in tracer.spans] == ["odd"]
