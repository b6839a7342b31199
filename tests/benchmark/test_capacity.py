"""Tests for repro.benchmark.capacity: probes, knee search, determinism."""

import pytest

from repro.benchmark import capacity
from repro.benchmark.capacity import (
    CapacityRunner,
    estimate_service_rate,
    find_capacity,
    run_probe,
)
from repro.benchmark.config import BenchmarkConfig, CapacitySettings
from repro.engines.common.pump import StreamPump


SMALL = CapacitySettings(records=2_000, queue_bound=500, search_iterations=3)


def config(**overrides):
    defaults = dict(capacity=SMALL, systems=("flink",), queries=("grep",))
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


class TestProbe:
    def test_sustainable_probe_drains_within_grace(self):
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep") * 0.5
        probe = run_probe(cfg, "flink", "grep", rate, columnar=False)
        assert probe.sustainable
        assert probe.shed == 0
        assert probe.accepted == SMALL.records
        assert probe.elapsed <= probe.offer_window * (1 + SMALL.grace)

    def test_overload_probe_is_unsustainable_but_terminates(self):
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep") * 4.0
        probe = run_probe(cfg, "flink", "grep", rate, columnar=False)
        assert not probe.sustainable
        # Backpressure, not loss: everything lands, just late.
        assert probe.accepted == SMALL.records
        assert probe.offered == probe.accepted + probe.shed
        assert probe.max_queue_depth <= SMALL.queue_bound
        assert probe.elapsed > probe.offer_window * (1 + SMALL.grace)

    def test_percentiles_are_ordered(self):
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep") * 0.8
        probe = run_probe(cfg, "flink", "grep", rate, columnar=False)
        assert probe.event_p50 <= probe.event_p95 <= probe.event_p99
        assert probe.proc_p50 <= probe.proc_p95 <= probe.proc_p99
        # Event time includes the nominal wait before admission.
        assert probe.event_p99 >= probe.proc_p99

    def test_probe_is_deterministic(self):
        cfg = config()
        a = run_probe(cfg, "apex", "sample", 100_000.0, columnar=False)
        b = run_probe(cfg, "apex", "sample", 100_000.0, columnar=False)
        assert a == b

    @pytest.mark.parametrize("parallelism", (1, 2))
    @pytest.mark.parametrize("query", ("grep", "sample", "statistics", "windowed"))
    def test_probe_identical_across_planes(self, query, parallelism):
        cfg = config()
        probes = [
            run_probe(
                cfg,
                "spark",
                query,
                120_000.0,
                columnar=columnar,
                parallelism=parallelism,
            )
            for columnar in (False, True)
        ]
        assert probes[0] == probes[1]
        # At P=2 the drain really ran through the ShardedPump pool; a P=1
        # probe uses the plain pump and records no per-shard costs.
        assert len(probes[0].shard_costs) == (parallelism if parallelism > 1 else 0)

    def test_probe_identical_across_tiers(self):
        cfg = config()
        results = {}
        tiers = {"tuple": False, "kernel": True}
        saved = StreamPump.vectorized
        try:
            for tier, vectorized in tiers.items():
                StreamPump.vectorized = vectorized
                results[tier] = run_probe(
                    cfg, "flink", "projection", 50_000.0, columnar=False
                )
        finally:
            StreamPump.vectorized = saved
        assert results["tuple"] == results["kernel"]


class TestKneeSearch:
    def test_finds_a_bracketed_knee(self):
        cfg = config()
        cell = find_capacity(cfg, "flink", "grep", columnar=False)
        assert cell.sustainable_rate > 0
        assert cell.probes >= 1 + SMALL.search_iterations
        # The knee is genuinely the boundary: sustainable at the knee,
        # unsustainable a factor above it.
        at_knee = run_probe(
            cfg, "flink", "grep", cell.sustainable_rate, columnar=False
        )
        above = run_probe(
            cfg, "flink", "grep", cell.sustainable_rate * 2.0, columnar=False
        )
        assert at_knee.sustainable
        assert not above.sustainable

    def test_overload_at_twice_the_knee_is_safe(self):
        """The ISSUE's acceptance scenario, on both data planes."""
        cfg = config()
        cell = find_capacity(cfg, "flink", "grep", columnar=False)
        for columnar in (False, True):
            probe = run_probe(
                cfg, "flink", "grep", cell.sustainable_rate * 2.0,
                columnar=columnar,
            )
            assert probe.max_queue_depth <= SMALL.queue_bound
            assert probe.offered == probe.accepted + probe.shed
            assert probe.accepted == SMALL.records  # terminated, no loss

    def test_search_is_deterministic(self):
        cfg = config()
        a = find_capacity(cfg, "spark", "sample", columnar=False)
        b = find_capacity(cfg, "spark", "sample", columnar=False)
        assert a == b


class TestCapacityReport:
    def test_serial_parallel_bit_identical(self):
        cfg = config(systems=("flink", "apex"), queries=("grep", "identity"))
        runner = CapacityRunner(cfg, columnar=False)
        serial = runner.run(parallel=False)
        parallel = runner.run(parallel=True, workers=2)
        assert serial.cells == parallel.cells

    def test_grid_order_and_lookup(self):
        cfg = config(systems=("flink", "spark"), queries=("grep",))
        report = CapacityRunner(cfg, columnar=False).run()
        assert [(c.system, c.query) for c in report.cells] == [
            ("flink", "grep"),
            ("spark", "grep"),
        ]
        assert report.cell("spark", "grep").system == "spark"
        with pytest.raises(KeyError):
            report.cell("spark", "identity")

    def test_harness_entry_point(self):
        from repro.benchmark.harness import StreamBenchHarness

        harness = StreamBenchHarness(config(), columnar=False)
        report = harness.run_capacity()
        assert len(report.cells) == 1
        assert report.cells[0].queue_bound == SMALL.queue_bound

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            CapacitySettings(records=0)
        with pytest.raises(ValueError):
            CapacitySettings(queue_bound=0)
        with pytest.raises(ValueError):
            CapacitySettings(grace=-0.1)
        with pytest.raises(ValueError):
            CapacitySettings(process="poisson")
        with pytest.raises(ValueError):
            CapacitySettings(stall_timeout=0.0)

    def test_render_capacity(self):
        from repro.benchmark.reporting import render_capacity

        cfg = config()
        report = CapacityRunner(cfg, columnar=False).run()
        text = render_capacity(report)
        assert "Sustainable throughput" in text
        assert "Flink" in text
        assert "grep" in text


SWEEP = CapacitySettings(
    records=2_000,
    queue_bound=500,
    search_iterations=3,
    parallelisms=(1, 2, 4),
    kinds=("native", "beam"),
)


class TestParallelProbes:
    """Capacity probes at P > 1: pump-pool drain, same open-loop physics."""

    def test_parallel_probe_drains_and_accounts(self):
        # The pipeline estimate scales with P but the broker append path
        # does not, so 0.5x the P=4 estimate already overloads; 0.15x is
        # safely below the serial fraction's ceiling.
        cfg = config()
        rate = estimate_service_rate(cfg, "flink", "grep", parallelism=4) * 0.15
        probe = run_probe(
            cfg, "flink", "grep", rate, columnar=False, parallelism=4
        )
        assert probe.sustainable
        assert probe.accepted == SMALL.records
        assert probe.offered == probe.accepted + probe.shed

    def test_parallel_probe_is_deterministic(self):
        cfg = config()
        a = run_probe(
            cfg, "apex", "sample", 100_000.0, columnar=False, parallelism=2
        )
        b = run_probe(
            cfg, "apex", "sample", 100_000.0, columnar=False, parallelism=2
        )
        assert a == b

    @pytest.mark.parametrize("parallelism", (1, 2))
    def test_stalled_probe_leaves_no_adopted_kernel_state(
        self, monkeypatch, parallelism
    ):
        # The drain's poll goes dry after a few chunks, so the probe ends
        # in PumpStalledError; its finally must still flush every pump.
        from repro.broker.consumer import Consumer
        from repro.dataflow.kernels import SampleKernel
        from repro.engines.common.progress import PumpStalledError

        pumps = []

        class RecordingPump(StreamPump):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pumps.append(self)

        polls = []
        real_poll = Consumer.poll_values

        def drying_poll(self, *args, **kwargs):
            polls.append(None)
            if len(polls) > 3:
                return [], None
            return real_poll(self, *args, **kwargs)

        monkeypatch.setattr(capacity, "StreamPump", RecordingPump)
        monkeypatch.setattr(Consumer, "poll_values", drying_poll)
        with pytest.raises(PumpStalledError):
            run_probe(
                config(),
                "apex",
                "sample",
                100_000.0,
                columnar=False,
                parallelism=parallelism,
            )
        kernels = [
            kernel
            for pump in pumps
            for kernel in (stage.cached_kernel() for stage in pump.stages)
            if isinstance(kernel, SampleKernel)
        ]
        assert len(kernels) == parallelism
        assert all(kernel._state is None for kernel in kernels)

    def test_parallelism_one_matches_legacy_path(self):
        # P=1 goes through the exact serial pump with the old stream
        # names — a probe asked for parallelism=1 must equal one that
        # never mentioned parallelism at all.
        cfg = config()
        legacy = run_probe(cfg, "flink", "grep", 80_000.0, columnar=False)
        explicit = run_probe(
            cfg, "flink", "grep", 80_000.0, columnar=False, parallelism=1
        )
        assert explicit == legacy

    def test_knee_grows_sublinearly_with_parallelism(self):
        # More pipeline parallelism raises the knee, but the broker
        # append/fetch path stays serial (Amdahl) and the engines charge
        # per-record coordination — so speedup stays below linear.
        cfg = config()
        knees = {
            p: find_capacity(
                cfg, "flink", "grep", columnar=False, parallelism=p
            ).sustainable_rate
            for p in (1, 2, 4)
        }
        assert knees[1] < knees[2] < knees[4]
        assert knees[2] < 2 * knees[1]
        assert knees[4] < 4 * knees[1]

    def test_beam_knee_below_native(self):
        # The abstraction penalty holds at the capacity knee too.
        cfg = config()
        for parallelism in (1, 2):
            native = find_capacity(
                cfg, "flink", "grep", columnar=False,
                kind="native", parallelism=parallelism,
            )
            beam = find_capacity(
                cfg, "flink", "grep", columnar=False,
                kind="beam", parallelism=parallelism,
            )
            assert beam.sustainable_rate < native.sustainable_rate

    def test_beam_estimate_includes_runner_overheads(self):
        cfg = config()
        native = estimate_service_rate(cfg, "spark", "grep", kind="native")
        beam = estimate_service_rate(cfg, "spark", "grep", kind="beam")
        assert beam < native


class TestScalabilityReport:
    def test_sweep_shape_order_and_lookups(self):
        cfg = config(capacity=SWEEP)
        report = CapacityRunner(cfg, columnar=False).run_scalability()
        assert [
            (c.system, c.kind, c.query, c.parallelism) for c in report.cells
        ] == [
            ("flink", kind, "grep", p)
            for kind in ("native", "beam")
            for p in (1, 2, 4)
        ]
        assert report.cell("flink", "beam", "grep", 4).parallelism == 4
        curve = report.curve("flink", "native", "grep")
        assert [c.parallelism for c in curve] == [1, 2, 4]
        with pytest.raises(KeyError):
            report.cell("flink", "native", "grep", 8)

    def test_sweep_serial_parallel_bit_identical(self):
        cfg = config(capacity=SWEEP)
        runner = CapacityRunner(cfg, columnar=False)
        serial = runner.run_scalability(parallel=False)
        parallel = runner.run_scalability(parallel=True, workers=2)
        assert serial.cells == parallel.cells

    def test_curves_monotonic_per_kind(self):
        cfg = config(capacity=SWEEP)
        report = CapacityRunner(cfg, columnar=False).run_scalability()
        for kind in ("native", "beam"):
            rates = [
                c.sustainable_rate
                for c in report.curve("flink", kind, "grep")
            ]
            assert rates == sorted(rates)
            assert rates[0] < rates[-1]

    def test_harness_entry_point(self):
        from repro.benchmark.harness import StreamBenchHarness

        cfg = config(
            capacity=CapacitySettings(
                records=2_000,
                queue_bound=500,
                search_iterations=3,
                parallelisms=(1, 2),
                kinds=("native",),
            )
        )
        report = StreamBenchHarness(cfg, columnar=False).run_scalability()
        assert len(report.cells) == 2

    def test_sweep_settings_validation(self):
        with pytest.raises(ValueError):
            CapacitySettings(parallelisms=())
        with pytest.raises(ValueError):
            CapacitySettings(parallelisms=(1, 0))
        with pytest.raises(ValueError):
            CapacitySettings(kinds=())
        with pytest.raises(ValueError):
            CapacitySettings(kinds=("native", "storm"))

    def test_render_scalability(self):
        from repro.benchmark.reporting import render_scalability

        cfg = config(capacity=SWEEP)
        report = CapacityRunner(cfg, columnar=False).run_scalability()
        text = render_scalability(report)
        assert "Scalability curves" in text
        assert "Speedup vs P=1" in text
        assert "1.00x" in text
