"""Unit tests for the pump pool's shard arithmetic (``repro.dataflow.sharding``)."""

from __future__ import annotations

import threading

from repro.dataflow import sharding


class TestShardSpans:
    def test_spans_cover_and_balance(self):
        for total in (0, 1, 7, 512, 1001):
            for parallelism in (1, 2, 3, 8):
                spans = sharding.shard_spans(total, parallelism)
                assert len(spans) == parallelism
                assert spans[0][0] == 0 and spans[-1][1] == total
                # Contiguous, non-overlapping, balanced within one record.
                for (_a, b), (c, _d) in zip(spans, spans[1:]):
                    assert b == c
                sizes = [b - a for a, b in spans]
                assert min(sizes) >= 0
                assert max(sizes) - min(sizes) <= 1


class TestRunShardTasks:
    def test_runs_in_order_on_the_calling_thread(self):
        calls: list[tuple[int, int]] = []

        def task(index):
            def run():
                calls.append((index, threading.get_ident()))
                return index * 10

            return run

        assert sharding.run_shard_tasks([task(i) for i in range(4)]) == [0, 10, 20, 30]
        caller = threading.get_ident()
        assert calls == [(i, caller) for i in range(4)]
        assert sharding.run_shard_tasks([]) == []
