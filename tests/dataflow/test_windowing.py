"""Unit tests for keyed windowed aggregation (``repro.dataflow.windowing``).

Pins :class:`WindowedAggregateFunction`'s semantics — window assignment,
pane accumulation, trigger firing, drain and snapshot/restore — plus the
trigger gating of its kernel spec.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.beam.window import AfterCount, AfterWatermark, FixedWindows, IntervalWindow
from repro.dataflow.compiler import lower_stage
from repro.dataflow.windowing import WindowedAggregateFunction


def make(**kwargs):
    defaults = dict(
        window_fn=FixedWindows(10.0),
        key_fn=lambda v: v[0],
        timestamp_fn=lambda v: v[1],
    )
    defaults.update(kwargs)
    return WindowedAggregateFunction(**defaults)


class TestCountingPanes:
    def test_counts_per_key_and_window(self):
        fn = make()
        for value in [("a", 1.0), ("a", 2.0), ("b", 3.0), ("a", 11.0)]:
            assert fn.process(value) == ()
        assert list(fn.finish()) == [
            ("a", IntervalWindow(0.0, 10.0), 2),
            ("b", IntervalWindow(0.0, 10.0), 1),
            ("a", IntervalWindow(10.0, 20.0), 1),
        ]

    def test_filter_drops_before_assignment(self):
        fn = make(filter_fn=lambda v: v[0] != "skip")
        fn.process(("skip", float("nan")))  # never reaches the window fn
        fn.process(("a", 1.0))
        assert list(fn.finish()) == [("a", IntervalWindow(0.0, 10.0), 1)]

    def test_custom_reducer_folds_from_initial(self):
        fn = make(reducer=lambda acc, v: acc + v[2], initial=100)
        fn.process(("a", 1.0, 5))
        fn.process(("a", 2.0, 7))
        assert list(fn.finish()) == [("a", IntervalWindow(0.0, 10.0), 112)]

    def test_open_clears_state(self):
        fn = make()
        fn.process(("a", 1.0))
        fn.open()
        assert fn.panes == {} and fn.pane_counts == {}


class TestTriggers:
    def test_after_count_fires_accumulating_panes(self):
        fn = make(trigger=AfterCount(2))
        assert fn.process(("a", 1.0)) == ()
        assert fn.process(("a", 2.0)) == (("a", IntervalWindow(0.0, 10.0), 2),)
        assert fn.process(("a", 3.0)) == ()
        # Final firing at drain covers the unfired remainder only.
        assert list(fn.finish()) == [("a", IntervalWindow(0.0, 10.0), 3)]

    def test_after_count_exact_multiple_skips_final_firing(self):
        fn = make(trigger=AfterCount(2))
        fn.process(("a", 1.0))
        fn.process(("a", 2.0))
        assert list(fn.finish()) == []

    def test_after_watermark_behaves_trigger_less(self):
        fn = make(trigger=AfterWatermark())
        assert fn.process(("a", 1.0)) == ()
        assert list(fn.finish()) == [("a", IntervalWindow(0.0, 10.0), 1)]

    def test_unsupported_trigger_rejected(self):
        with pytest.raises(ValueError, match="unsupported trigger"):
            make(trigger=object())

    def test_spec_gated_on_trigger(self):
        """Trigger-less (and AfterWatermark) declare the kernel spec;
        AfterCount must not — its mid-stream firing stays off the kernel
        tier (a documented fallback edge)."""
        assert make().kernel_spec is not None
        assert make(trigger=AfterWatermark()).kernel_spec is not None
        assert getattr(make(trigger=AfterCount(3)), "kernel_spec", None) is None


class TestSnapshotRestore:
    def test_round_trip(self):
        fn = make(trigger=AfterCount(2))
        fn.process(("a", 1.0))
        fn.process(("b", 2.0))
        state = fn.snapshot()
        replica = make(trigger=AfterCount(2))
        replica.restore(state)
        # Divergence after restore proves the copies are independent…
        fn.process(("c", 3.0))
        assert ("c", 0.0, 10.0) not in replica.panes
        # …and the replica continues exactly where the snapshot was taken.
        assert replica.process(("a", 4.0)) == (("a", IntervalWindow(0.0, 10.0), 2),)

    def test_snapshot_is_deep_enough(self):
        fn = make()
        fn.process(("a", 1.0))
        state = fn.snapshot()
        fn.process(("a", 2.0))
        assert state[0][("a", 0.0, 10.0)] == 1


class TestReclamation:
    def test_lowered_function_freed_by_reference_counting(self):
        """The spec's back-reference to its function must not form a
        cycle: a drained windowed function dies with its last reference,
        with the cyclic collector switched off."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            fn = make()
            kernel = lower_stage(fn)
            kernel([("a", 1.0), ("b", 2.0), ("a", 11.0)])
            kernel.flush()
            assert len(list(fn.finish())) == 3
            dead = weakref.ref(fn)
            del fn, kernel
            assert dead() is None
        finally:
            if was_enabled:
                gc.enable()
