"""The compiled-kernel tier is observationally identical to the reference.

``StreamPump.vectorized = True`` (the production default) runs every
operator stage through the kernel the plan compiler lowered it to:
spec-declaring functions through ``repro.dataflow.kernels``, spec-less
ones through a ``BatchSegment`` over ``process_batch``.  This must be a
pure host-side optimisation: for every system × query × API combination
the simulated world — run durations, broker-timestamp measurements,
output topic contents, cost totals, operator metrics — has to be
**bit-identical** to the per-record reference loop.  This suite runs the
full benchmark matrix both ways under one fixed seed (the ingested
workload is a slab column, so the slab fast path is genuinely
exercised), repeats the comparison under broker chaos, checks spec-less
user function shapes through the pump, and property-tests that the
sample kernel consumes the *exact same RNG stream* as per-record draws.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.dataflow.kernels as kernels
from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.harness import StreamBenchHarness
from repro.broker.faults import FaultPlan, NodeOutage
from repro.dataflow.functions import (
    FilterFunction,
    FlatMapFunction,
    IdentityFunction,
    MapFunction,
    StreamFunction,
    compose,
)
from repro.dataflow.kernels import KernelSpec, SlabColumn, slab_from_columns
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.pump import StreamPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.simtime import Simulator
from repro.workloads.columnar import generate_columns

SYSTEMS = ("flink", "spark", "apex")
QUERIES = ("identity", "sample", "projection", "grep")
KINDS = ("native", "beam")
PARALLELISMS = (1, 2)

#: The two execution tiers as their ``StreamPump.vectorized`` setting.
TIERS = {"kernel": True, "reference": False}


def _campaign() -> tuple[list, dict, float]:
    """Run the full matrix at the active tier; return (runs, outputs, now).

    ``outputs`` maps each (system, query, kind, parallelism) setup to the
    output-topic values of its last executed run, read straight from the
    partition log's column storage (no consumer, so no extra clock charges
    that could mask a divergence).

    The matrix is iterated as explicit ``run_setup`` calls on one shared
    world (``run_matrix`` itself executes each cell in an isolated world —
    see ``repro.benchmark.parallel`` — which would hide the master
    harness's broker and clock from this test's introspection).
    """
    config = BenchmarkConfig(
        records=2_000,
        runs=2,
        parallelisms=PARALLELISMS,
        systems=SYSTEMS,
        queries=QUERIES,
        kinds=KINDS,
    )
    harness = StreamBenchHarness(config)
    outputs: dict[tuple, list] = {}
    original = harness._execute_once

    def capturing_execute(system, spec, kind, parallelism, rng, data_rng):
        job, measurement = original(system, spec, kind, parallelism, rng, data_rng)
        log = harness.broker.topic(config.output_topic).partition(0)
        outputs[(system, spec.name, kind, parallelism)] = log.read_values(0)
        return job, measurement

    harness._execute_once = capturing_execute
    runs = []
    for system in config.systems:
        for query in config.queries:
            for kind in config.kinds:
                for parallelism in config.parallelisms:
                    runs.extend(harness.run_setup(system, query, kind, parallelism))
    return runs, outputs, harness.simulator.now()


@pytest.fixture(scope="module")
def campaigns():
    """One full-matrix campaign per tier.

    The harness ingests the workload as a slab column, so the kernel
    campaign takes the slab path (the reference tier never consults it).
    """
    results = {}
    mp = pytest.MonkeyPatch()
    try:
        for tier, vectorized in TIERS.items():
            mp.setattr(StreamPump, "vectorized", vectorized)
            results[tier] = _campaign()
    finally:
        mp.undo()
    return results


class TestFullMatrixEquivalence:
    def test_run_records_bit_identical(self, campaigns):
        """Durations, measurements and counts agree for all 96 runs."""
        kernel_runs = campaigns["kernel"][0]
        assert len(kernel_runs) == len(SYSTEMS) * len(QUERIES) * len(KINDS) * len(
            PARALLELISMS
        ) * 2
        assert kernel_runs == campaigns["reference"][0]  # exact field equality

    def test_output_topics_bit_identical(self, campaigns):
        """Every setup's output records match value for value, in order."""
        kernel_out = campaigns["kernel"][1]
        ref_out = campaigns["reference"][1]
        assert kernel_out.keys() == ref_out.keys()
        for setup, values in kernel_out.items():
            assert values == ref_out[setup], f"outputs diverge for {setup}"

    def test_simulated_clock_bit_identical(self, campaigns):
        """Total simulated time of the whole campaign is exactly equal.

        This subsumes every cost charge along the way: a single extra or
        reordered charge anywhere in either path would skew the final clock.
        """
        assert campaigns["kernel"][2] == campaigns["reference"][2]


class TestChaosEquivalence:
    """Tier choice changes nothing under broker chaos either.

    Chaos draws ride the request sequence (guards, retries, jittered
    backoff); if any tier issued even one extra or reordered broker
    request, the fault schedule would land differently and the reports
    would diverge.
    """

    @pytest.fixture(scope="class")
    def chaos_reports(self):
        plan = FaultPlan(
            seed=5,
            error_rate=0.05,
            timeout_rate=0.02,
            latency_jitter=0.0005,
            outages=(NodeOutage(node_id=1, start=0.01, duration=0.05),),
        )
        config = BenchmarkConfig(
            records=1_500,
            runs=2,
            systems=("flink", "spark"),
            queries=("grep", "identity"),
            kinds=KINDS,
            parallelisms=(1,),
        )
        reports = {}
        mp = pytest.MonkeyPatch()
        try:
            for tier, vectorized in TIERS.items():
                mp.setattr(StreamPump, "vectorized", vectorized)
                harness = StreamBenchHarness(config, chaos=plan)
                reports[tier] = harness.run_matrix(parallel=False)
        finally:
            mp.undo()
        return reports

    def test_chaos_reports_equal_per_field(self, chaos_reports):
        assert chaos_reports["kernel"].runs == chaos_reports["reference"].runs
        assert chaos_reports["kernel"] == chaos_reports["reference"]

    def test_chaos_actually_bit(self, chaos_reports):
        """The fault plan fired (the equality above is not vacuous)."""
        assert chaos_reports["kernel"].sender_report.retries > 0


# ---------------------------------------------------------------------------
# Spec-less user functions on the production path


class _StatefulDedup(StreamFunction):
    """A user subclass with state and no process_batch override."""

    name = "Dedup"

    def __init__(self) -> None:
        self.seen: set = set()

    def process(self, value):
        if value in self.seen:
            return ()
        self.seen.add(value)
        return (value,)


class _RngSampler(StreamFunction):
    """A user subclass drawing per-record randomness (order-sensitive)."""

    name = "RngSampler"
    rng_draws_per_record = 1.0

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def process(self, value):
        return (value,) if self.rng.random() < 0.5 else ()


def _pump_once(function: StreamFunction, records: list, tier: str):
    pump = StreamPump(
        simulator=Simulator(seed=11),
        stages=[
            PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
            PhysicalStage(
                "op",
                StageKind.OPERATOR,
                StageCosts(per_weight=1e-6, per_rng_draw=1e-6),
                function=function,
            ),
            PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
        ],
        variance=RunVariance(),
        rng=random.Random(11),
        chunk_size=7,  # deliberately awkward: chunks straddle everything
    )
    pump.vectorized = TIERS[tier]
    outputs: list = []
    pump.emit = outputs.extend
    result = pump.run(records)
    return result, outputs


@pytest.mark.parametrize(
    "make_function",
    [
        pytest.param(lambda: IdentityFunction(), id="identity"),
        pytest.param(lambda: MapFunction(str.upper), id="map"),
        pytest.param(lambda: FilterFunction(lambda v: "3" in v), id="filter"),
        pytest.param(
            lambda: FlatMapFunction(lambda v: v.split("-")), id="flatmap"
        ),
        pytest.param(
            lambda: compose(
                [
                    FlatMapFunction(lambda v: v.split("-")),
                    FilterFunction(lambda v: v != "x"),
                    MapFunction(str.upper),
                ]
            ),
            id="composed",
        ),
        pytest.param(lambda: _StatefulDedup(), id="stateful-fallback"),
        pytest.param(lambda: _RngSampler(random.Random(5)), id="rng-fallback"),
    ],
)
def test_function_shapes_equivalent(make_function):
    """Each function shape produces identical outputs, costs and metrics.

    All but ``identity`` are spec-less, so the kernel tier runs each
    through a ``BatchSegment`` over its ``process_batch``.
    """
    records = [f"r{i}-x-{i % 13}" for i in range(100)]
    kernel_result, kernel_out = _pump_once(make_function(), records, "kernel")
    ref_result, ref_out = _pump_once(make_function(), records, "reference")
    assert kernel_out == ref_out
    assert kernel_result.records_out == ref_result.records_out
    assert kernel_result.base_duration == ref_result.base_duration
    assert kernel_result.duration == ref_result.duration
    assert kernel_result.metrics == ref_result.metrics


# ---------------------------------------------------------------------------
# Sample RNG stream property


def _sample_function(seed: int, fraction: float) -> FilterFunction:
    rng = random.Random(seed)
    return FilterFunction(
        lambda _v: rng.random() < fraction,
        name="Sample",
        kernel_spec=KernelSpec.bernoulli(fraction, rng),
    )


def _pump_sample(
    records: list, seed: int, fraction: float, tier: str
) -> tuple[list, object, object]:
    """Run a sample pipeline at ``tier``; return (outputs, rng state, result)."""
    function = _sample_function(seed, fraction)
    function.open()
    pump = StreamPump(
        simulator=Simulator(seed=3),
        stages=[
            PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
            PhysicalStage(
                "op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=function
            ),
            PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
        ],
        variance=RunVariance(),
        rng=random.Random(3),
        chunk_size=17,  # deliberately awkward chunk boundaries
    )
    pump.vectorized = TIERS[tier]
    outputs: list = []
    pump.emit = outputs.extend
    result = pump.run(records)
    function.close()
    # The function's rng is shared with its kernel spec; after flush it
    # must hold the true post-run MT19937 state.
    return outputs, function.kernel_spec.rng.getstate(), result


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    count=st.integers(min_value=0, max_value=300),
)
def test_sample_draws_identical_rng_stream(seed, fraction, count):
    """The mask kernel consumes the exact per-record Bernoulli stream.

    For any seed, fraction and input size, both tiers must select the
    same records AND leave the Python RNG in the same state — i.e. the
    transplanted MT19937 advanced draw-for-draw identically.
    """
    records = [f"rec-{i}" for i in range(count)]
    out_ref, state_ref, result_ref = _pump_sample(records, seed, fraction, "reference")
    outputs, state, result = _pump_sample(records, seed, fraction, "kernel")
    assert outputs == out_ref
    assert state == state_ref
    assert result.records_out == result_ref.records_out
    assert result.duration == result_ref.duration


def test_sample_rng_state_continues_across_runs():
    """Back-to-back kernel runs resume the stream where the last stopped."""
    records = [f"rec-{i}" for i in range(100)]

    def two_runs(tier: str):
        function = _sample_function(99, 0.4)
        function.open()
        picked = []
        for _ in range(2):
            pump = StreamPump(
                simulator=Simulator(seed=3),
                stages=[
                    PhysicalStage(
                        "op",
                        StageKind.OPERATOR,
                        StageCosts(per_weight=1e-6),
                        function=function,
                    ),
                ],
                variance=RunVariance(),
                rng=random.Random(3),
            )
            pump.vectorized = TIERS[tier]
            pump.emit = picked.extend
            pump.run(records)
        function.close()
        return picked, function.kernel_spec.rng.getstate()

    assert two_runs("kernel") == two_runs("reference")


# ---------------------------------------------------------------------------
# Slab fast path through the pump


def _slab_column(num_records):
    """A fresh, undecoded slab column over the generated workload."""
    data, starts = generate_columns(num_records)
    return SlabColumn(slab_from_columns(data, starts))


def _grep_stages(function=None):
    from repro.workloads.aol import GREP_NEEDLE

    function = function or FilterFunction(
        lambda v: GREP_NEEDLE in v,
        name="Grep",
        kernel_spec=KernelSpec.contains(GREP_NEEDLE),
    )
    return [
        PhysicalStage("source", StageKind.SOURCE, StageCosts(per_record_in=1e-6)),
        PhysicalStage(
            "op", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=function
        ),
        PhysicalStage("sink", StageKind.SINK, StageCosts(per_record_out=1e-6)),
    ]


def _pump_stages(stages, records, tier="kernel"):
    pump = StreamPump(
        simulator=Simulator(seed=3),
        stages=stages,
        variance=RunVariance(),
        rng=random.Random(3),
    )
    pump.vectorized = TIERS[tier]
    outputs: list = []
    pump.emit = outputs.extend
    result = pump.run(records)
    return outputs, result


class TestSlabPumpPath:
    def test_slab_path_taken_and_identical(self, monkeypatch):
        """A slab column input makes the pump serve grep from the slab scan."""
        records = _slab_column(1_000)
        calls = []
        original = kernels.GrepKernel.call_slab

        def spying(self, slab, base, values):
            calls.append(base)
            return original(self, slab, base, values)

        monkeypatch.setattr(kernels.GrepKernel, "call_slab", spying)
        outputs, _ = _pump_stages(_grep_stages(), records)
        assert calls, "slab path was not taken"
        # Slab grep decodes only its hits, never the whole slab.
        assert records.slab.records is None
        reference, _ = _pump_stages(_grep_stages(), records, tier="reference")
        assert outputs == reference

    def test_leading_identity_keeps_slab_eligibility(self, monkeypatch):
        """An identity stage passes chunks through without breaking the
        downstream kernel's slab path (zero-copy preserves identity)."""
        from repro.workloads.aol import GREP_NEEDLE

        records = _slab_column(500)
        calls = []
        original = kernels.GrepKernel.call_slab

        def spying(self, slab, base, values):
            calls.append(base)
            return original(self, slab, base, values)

        monkeypatch.setattr(kernels.GrepKernel, "call_slab", spying)
        stages = [
            PhysicalStage(
                "wrap",
                StageKind.OPERATOR,
                StageCosts(per_weight=1e-6),
                function=IdentityFunction(),
            ),
            *_grep_stages()[1:],
        ]
        outputs, _ = _pump_stages(stages, records)
        assert calls, "identity stage broke the slab path"
        assert outputs == [v for v in records if GREP_NEEDLE in v]

    def test_transformed_chunks_leave_slab_path(self):
        """After a non-slab transform the grep kernel gets real values."""
        from repro.workloads.aol import GREP_NEEDLE

        records = _slab_column(500)
        upper = compose(
            [
                FilterFunction(
                    lambda v: GREP_NEEDLE in v,
                    name="Grep",
                    kernel_spec=KernelSpec.contains(GREP_NEEDLE),
                ),
            ]
        )
        sample_rng = random.Random(7)
        sample = FilterFunction(
            lambda _v: sample_rng.random() < 0.5,
            name="Sample",
            kernel_spec=KernelSpec.bernoulli(0.5, sample_rng),
        )
        stages = [
            PhysicalStage(
                "sample",
                StageKind.OPERATOR,
                StageCosts(per_weight=1e-6),
                function=sample,
            ),
            PhysicalStage(
                "grep", StageKind.OPERATOR, StageCosts(per_weight=1e-6), function=upper
            ),
        ]
        outputs, _ = _pump_stages(stages, records)

        ref_rng = random.Random(7)
        expected = [
            v for v in records if ref_rng.random() < 0.5 and GREP_NEEDLE in v
        ]
        assert outputs == expected

    def test_records_with_newlines_fall_back_correctly(self):
        """Plain lists (here with embedded newlines) take the per-chunk
        kernels; outputs stay exact."""
        records = [f"line-{i}\nneedle-{i}" if i % 7 == 0 else f"line-{i}" for i in range(200)]
        function = FilterFunction(
            lambda v: "needle" in v,
            name="Grep",
            kernel_spec=KernelSpec.contains("needle"),
        )
        stages = _grep_stages(function)
        outputs, _ = _pump_stages(stages, records)
        assert outputs == [v for v in records if "needle" in v]

    def test_below_threshold_no_slab(self, monkeypatch):
        """Plain record lists never take the slab path."""
        from repro.workloads.aol import generate_records

        records = generate_records(100)
        calls = []
        original = kernels.GrepKernel.call_slab

        def spying(self, slab, base, values):
            calls.append(base)
            return original(self, slab, base, values)

        monkeypatch.setattr(kernels.GrepKernel, "call_slab", spying)
        outputs, _ = _pump_stages(_grep_stages(), records)
        reference, _ = _pump_stages(_grep_stages(), records, tier="reference")
        assert not calls
        assert outputs == reference

    def test_recovery_chunk_path_flushes_per_chunk(self):
        """_process_chunk (the recovery entry point) stays slab-free and
        leaves no kernel state behind between chunks."""
        from repro.workloads.aol import GREP_NEEDLE, generate_records
        from repro.dataflow.metrics import JobMetrics

        records = generate_records(200)
        function = FilterFunction(
            lambda v: GREP_NEEDLE in v,
            name="Grep",
            kernel_spec=KernelSpec.contains(GREP_NEEDLE),
        )
        pump = StreamPump(
            simulator=Simulator(seed=3),
            stages=_grep_stages(function),
            variance=RunVariance(),
            rng=random.Random(3),
        )
        metrics = JobMetrics("job")
        _, outputs = pump._process_chunk(records[:100], metrics)
        kernel = pump.stages[1].cached_kernel()
        assert kernel is not None
        assert kernel._slab is None  # flushed
        assert outputs == [v for v in records[:100] if GREP_NEEDLE in v]
