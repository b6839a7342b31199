"""Serial-vs-parallel bit-identity of the matrix runner.

The contract that makes ``repro.benchmark.parallel`` a subsystem rather
than a wrapper: fanning the grid out over worker processes must produce a
:class:`BenchmarkReport` **equal per field** — every run record including
synthesised repeats, the sender report, the config — to the serial
reference, for clean and chaos-attached campaigns alike.
"""

from __future__ import annotations

import pytest

from repro.benchmark import BenchmarkConfig, StreamBenchHarness
from repro.benchmark.parallel import (
    CellSpec,
    MatrixRunner,
    default_workers,
    enumerate_cells,
)
from repro.broker import FaultPlan
from repro.broker.faults import NodeOutage


def full_grid_config(**overrides):
    defaults = dict(records=1_500, runs=3)
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


class TestCellEnumeration:
    def test_grid_order_matches_serial_loop(self):
        config = full_grid_config()
        cells = enumerate_cells(config)
        expected = [
            (s, q, k, p)
            for s in config.systems
            for q in config.queries
            for k in config.kinds
            for p in config.parallelisms
        ]
        assert [(c.system, c.query, c.kind, c.parallelism) for c in cells] == expected
        assert [c.index for c in cells] == list(range(len(expected)))

    def test_full_paper_grid_has_48_cells(self):
        assert len(enumerate_cells(full_grid_config())) == 3 * 4 * 2 * 2

    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1


class TestBitIdentity:
    """The acceptance contract: workers=2 over the full grid == serial."""

    @pytest.fixture(scope="class")
    def config(self):
        return full_grid_config()

    @pytest.fixture(scope="class")
    def serial(self, config):
        return StreamBenchHarness(config).run_matrix(parallel=False)

    @pytest.fixture(scope="class")
    def parallel(self, config):
        return StreamBenchHarness(config).run_matrix(parallel=True, workers=2)

    def test_covers_full_grid(self, config, serial):
        assert len(serial.runs) == 48 * config.runs

    def test_reports_equal_per_field(self, serial, parallel):
        assert serial.config == parallel.config
        assert serial.sender_report == parallel.sender_report
        assert serial.runs == parallel.runs  # every field of every RunRecord
        assert serial == parallel

    def test_synthesized_repeats_included_and_identical(self, config, serial, parallel):
        synthesized = [r for r in serial.runs if r.synthesized]
        assert len(synthesized) == 48 * (config.runs - 1)
        assert synthesized == [r for r in parallel.runs if r.synthesized]

    def test_grid_order_preserved(self, config, serial):
        keys = [(r.system, r.query, r.kind, r.parallelism) for r in serial.runs]
        expected = [
            (c.system, c.query, c.kind, c.parallelism)
            for c in enumerate_cells(config)
            for _ in range(config.runs)
        ]
        assert keys == expected

    def test_run_cell_matches_matrix_slice(self, config, serial):
        """One cell rerun in isolation reproduces its slice of the report."""
        runner = MatrixRunner(config)
        cell = runner.cells()[5]
        records = runner.run_cell(cell)
        start = cell.index * config.runs
        assert records == serial.runs[start : start + config.runs]


class TestChaosBitIdentity:
    """Chaos campaigns fan out identically: every cell world re-attaches
    the same declarative plan, so faults hit each cell reproducibly."""

    @pytest.fixture(scope="class")
    def reports(self):
        config = full_grid_config(
            records=1_500,
            runs=2,
            systems=("flink", "spark"),
            queries=("grep", "identity"),
        )
        # Ingestion appends in batches, so per-operation fault rates need to
        # be fairly high before any roll lands on the few broker calls.
        plan = FaultPlan(
            seed=5,
            error_rate=0.05,
            timeout_rate=0.02,
            latency_jitter=0.0005,
            outages=(NodeOutage(node_id=1, start=0.01, duration=0.05),),
        )
        serial = StreamBenchHarness(config, chaos=plan).run_matrix(parallel=False)
        parallel = StreamBenchHarness(config, chaos=plan).run_matrix(
            parallel=True, workers=2
        )
        return serial, parallel

    def test_chaos_reports_equal_per_field(self, reports):
        serial, parallel = reports
        assert serial.runs == parallel.runs
        assert serial == parallel

    def test_chaos_ingestion_did_retry(self, reports):
        """The fault plan actually bites (the equality above is not vacuous)."""
        serial, _ = reports
        assert serial.sender_report.retries > 0


class TestRunnerPlumbing:
    def test_workers_validated(self):
        runner = MatrixRunner(full_grid_config(systems=("flink",), queries=("grep",)))
        with pytest.raises(ValueError):
            runner.run(parallel=True, workers=0)

    def test_config_workers_validated(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(workers=0)

    def test_config_knobs_drive_run_matrix(self):
        config = full_grid_config(
            systems=("flink",),
            queries=("grep",),
            kinds=("native",),
            parallelisms=(1,),
            parallel=True,
            workers=2,
        )
        parallel_by_config = StreamBenchHarness(config).run_matrix()
        serial = StreamBenchHarness(config).run_matrix(parallel=False)
        assert parallel_by_config.runs == serial.runs

    def test_cellspec_is_slotted_and_picklable(self):
        import pickle

        cell = CellSpec(0, "flink", "grep", "native", 1)
        assert not hasattr(cell, "__dict__")
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_matrix_runner_standalone(self):
        """MatrixRunner works without a harness (builds its own sender report)."""
        config = full_grid_config(
            systems=("flink",), queries=("grep",), kinds=("native",), parallelisms=(1,)
        )
        report = MatrixRunner(config).run(parallel=False)
        assert report.sender_report is not None
        assert report.sender_report.records_sent == config.records
        assert report == StreamBenchHarness(config).run_matrix(parallel=False)

    def test_every_pool_forks(self, monkeypatch):
        """All three process pools pin the ``fork`` start method: workers
        inherit the parent's workload memo instead of regenerating it,
        whatever the interpreter's default start method is."""
        from repro.benchmark import capacity, parallel
        from repro.benchmark.capacity import CapacityRunner
        from repro.benchmark.config import CapacitySettings

        contexts = []

        class InlinePool:
            """Records its ``mp_context`` and maps in-process."""

            def __init__(self, max_workers=None, mp_context=None):
                contexts.append(mp_context)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(capacity, "ProcessPoolExecutor", InlinePool)
        config = full_grid_config(
            systems=("flink",),
            queries=("grep",),
            kinds=("native",),
            parallelisms=(1,),
            capacity=CapacitySettings(
                records=500, queue_bound=200, search_iterations=1,
                parallelisms=(1,), kinds=("native",),
            ),
        )
        MatrixRunner(config).run(parallel=True, workers=2)
        CapacityRunner(config).run(parallel=True, workers=2)
        CapacityRunner(config).run_scalability(parallel=True, workers=2)
        assert [c.get_start_method() for c in contexts] == ["fork"] * 3


class TestCellWorldRelease:
    """A finished cell frees its broker world by reference count alone.

    Each cell's world is a web of reference cycles (broker, engines,
    pipeline graphs); only deleting its topics lets the ingested input
    and the query output go as soon as the cell returns, without waiting
    for the cyclic collector.
    """

    @pytest.mark.parametrize("kind", ["native", "beam"])
    @pytest.mark.parametrize("system", ["flink", "spark", "apex"])
    def test_input_log_is_freed_without_gc(self, monkeypatch, system, kind):
        import gc
        import weakref

        logs = []
        original = StreamBenchHarness.ingest

        def ingest(harness):
            report = original(harness)
            topic = harness.broker.topic(harness.config.input_topic)
            logs.append(weakref.ref(topic.partition(0)))
            return report

        monkeypatch.setattr(StreamBenchHarness, "ingest", ingest)
        config = full_grid_config(records=1_000, runs=2)
        runner = MatrixRunner(config)
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = runner.run_cell(CellSpec(0, system, "grep", kind, 1))
            assert len(runs) == 2
            assert len(logs) == 1
            assert logs[0]() is None
        finally:
            if enabled:
                gc.enable()

    def test_warmup_input_log_is_freed_before_the_cells(self, monkeypatch):
        """The standalone runner's ingest-only warm-up world is released
        as soon as it has produced the sender report, not when ``run``
        returns — its input log must not add to the cells' peak memory."""
        import gc
        import weakref

        logs = []
        alive_at_ingest = []
        original = StreamBenchHarness.ingest

        def ingest(harness):
            alive_at_ingest.append([log() is not None for log in logs])
            report = original(harness)
            topic = harness.broker.topic(harness.config.input_topic)
            logs.append(weakref.ref(topic.partition(0)))
            return report

        monkeypatch.setattr(StreamBenchHarness, "ingest", ingest)
        config = full_grid_config(
            records=1_000,
            runs=2,
            systems=("flink",),
            queries=("grep",),
            kinds=("native",),
            parallelisms=(1,),
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            MatrixRunner(config).run(parallel=False)
            # The warm-up world ingests first, then the one cell's world.
            assert alive_at_ingest == [[], [False]]
        finally:
            if enabled:
                gc.enable()
