"""The pump pool's kernel-state contract: adopt across chunks, flush once.

:meth:`ShardedPump.process_chunk` steps its shards without flushing, so
the ``sample`` kernel keeps its MT19937 state in NumPy from one chunk to
the next; :meth:`ShardedPump.flush` must then leave every shard's Python
RNG exactly where the per-record reference draws would have.
"""

import random

from repro.benchmark.capacity import build_native_stages
from repro.benchmark.queries import SAMPLE_FRACTION, get_query
from repro.dataflow.kernels import SampleKernel
from repro.dataflow.sharding import shard_spans
from repro.engines.common.costs import RunVariance
from repro.engines.common.pump import StreamPump
from repro.engines.common.sharded import ShardedPump
from repro.simtime import Simulator
from repro.workloads.aol import generate_records

SHARDS = 2
CHUNK = 250


def _pool(seeds):
    simulator = Simulator(seed=5)
    rngs = [random.Random(seed) for seed in seeds]
    pumps = [
        StreamPump(
            simulator=simulator,
            stages=build_native_stages(
                "flink", get_query("sample"), len(seeds), rng
            ),
            variance=RunVariance(),
            rng=random.Random(0),
        )
        for rng in rngs
    ]
    return ShardedPump(pumps), rngs


def _sample_kernel(pump):
    kernels = [
        kernel
        for kernel in (stage.cached_kernel() for stage in pump.stages)
        if isinstance(kernel, SampleKernel)
    ]
    assert len(kernels) == 1
    return kernels[0]


def test_flush_leaves_each_shard_rng_where_reference_draws_do():
    seeds = [11, 12]
    pool, rngs = _pool(seeds)
    records = generate_records(4 * CHUNK + 37)
    references = [random.Random(seed) for seed in seeds]
    outputs, expected = [], []
    for start in range(0, len(records), CHUNK):
        chunk = records[start : start + CHUNK]
        outputs.extend(pool.process_chunk(chunk)[1])
        for shard, (lo, hi) in enumerate(shard_spans(len(chunk), SHARDS)):
            draw = references[shard].random
            expected.extend(v for v in chunk[lo:hi] if draw() < SAMPLE_FRACTION)
        # No per-chunk flush: the adopted state stays in NumPy.
        for pump in pool.pumps:
            assert _sample_kernel(pump)._state is not None
    assert outputs == expected

    pool.flush()
    for shard, pump in enumerate(pool.pumps):
        assert _sample_kernel(pump)._state is None
        assert rngs[shard].getstate() == references[shard].getstate()

    pool.flush()  # idempotent
    for shard, rng in enumerate(rngs):
        assert rng.getstate() == references[shard].getstate()
