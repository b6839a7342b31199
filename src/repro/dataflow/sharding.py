"""Shard arithmetic for the pump pool (:class:`~repro.engines.common.sharded.ShardedPump`).

A polled chunk is cut into P contiguous partition-group spans, one per
simulated pump worker.  The workers' simulated costs merge by straggler
max, so the parallelism axis lives entirely in simulated time; host-side,
the shard tasks run one after another on the calling thread, which keeps
outputs, merge order and owner state trivially identical to a serial
drain.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


def shard_spans(total: int, parallelism: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` spans covering ``total``."""
    return [
        (s * total // parallelism, (s + 1) * total // parallelism)
        for s in range(parallelism)
    ]


def run_shard_tasks(tasks: Sequence[Callable[[], Any]]) -> list[Any]:
    """Run shard thunks in order on the calling thread; results in task order."""
    return [task() for task in tasks]
