"""Sustainable-throughput capacity search (the benchmark's second figure family).

Karimov et al. define *sustainable throughput* as the highest load a
system processes without ever-growing queues; Henning & Hasselbring's
scalability benchmarking gives the method — ramp the load, detect where
the system stops keeping up, and report the knee per configuration.  This
module implements that method on the simulated stack:

* a **probe** offers a fixed record count open-loop at a target rate
  (:class:`~repro.benchmark.loadgen.LoadGenerator`, backpressure policy,
  bounded input partition) while a consumer drains the queue through the
  engine's native stages at their cost-model service rate.  The probe is
  *sustainable* when nothing was shed and the whole workload is processed
  within the nominal offer window plus a grace fraction — i.e. the queue
  drained instead of growing;
* a **search** brackets the knee geometrically from an analytic
  service-rate estimate, then binary-searches it, and reports the highest
  sustained rate together with event-time (completion − scheduled
  arrival) and processing-time (completion − broker admission) latency
  percentiles measured at that knee.

Determinism: every probe runs in a fresh isolated world seeded from the
campaign seed alone (the :class:`~repro.benchmark.parallel.MatrixRunner`
pattern), the pump charges raw cost-model costs (no variance draws), and
the arrival schedule is precomputed once per probe — so the capacity
report is bit-identical between serial and parallel execution, across
both execution tiers, and on both data planes.

**Scalability curves** (:meth:`CapacityRunner.run_scalability`) sweep the
knee over parallelism levels per system × SDK kind × query: a probe at
parallelism P drains each polled chunk through a pump pool
(:class:`~repro.engines.common.sharded.ShardedPump`) of P partition-group
workers and charges the *straggler* shard's cost, while the stages are
priced at that P — so the knee scales sub-linearly with the engine's
``parallelism_per_record`` coordination term, knee(P) ≈ P·rate(1)/(1 +
coord·(P−1)/cost).  The ``beam`` kind prices the same pipeline through the
Beam runner's translation wrapping (:func:`build_beam_stages`), which is
what puts an abstraction-penalty number on every point of the curve.  The
sweep is simulated parallelism: the pool's shards run one after another
on the host, so the curves are bit-identical on every host regardless of
cores.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

import numpy as np

from repro.benchmark import stats
from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.loadgen import ArrivalProcess, LoadGenerator, make_arrivals
from repro.benchmark.queries import QuerySpec, get_query
from repro.broker import AdminClient, BrokerCluster, Consumer, TopicPartition
from repro.broker.broker import BrokerCosts
from repro.dataflow.metrics import JobMetrics
from repro.engines.apex import ApexCostModel
from repro.engines.common.costs import RunVariance, StageCosts
from repro.engines.common.progress import LagTracker, PumpStalledError
from repro.engines.common.pump import StreamPump
from repro.engines.common.sharded import ShardedPump
from repro.engines.common.stages import PhysicalStage, StageKind
from repro.engines.flink import FlinkCostModel
from repro.engines.spark import SparkCostModel
from repro.simtime import Simulator
from repro.workloads.aol import AolWorkload

_COST_MODELS = {
    "flink": FlinkCostModel,
    "spark": SparkCostModel,
    "apex": ApexCostModel,
}

#: Topic the capacity probes offer load into (bounded partition).
CAPACITY_TOPIC = "capacity-input"

#: Latency percentiles every probe reports (p50, p95, p99).
_LATENCY_QUANTILES = (50, 95, 99)


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """Outcome of one open-loop probe at a fixed target rate."""

    rate: float
    sustainable: bool
    offered: int
    accepted: int
    shed: int
    blocked_seconds: float
    max_queue_depth: int
    #: Nominal offer window (records / rate), in simulated seconds.
    offer_window: float
    #: Simulated seconds from phase start until the last record was
    #: processed (>= offer_window by construction).
    elapsed: float
    event_p50: float
    event_p95: float
    event_p99: float
    proc_p50: float
    proc_p95: float
    proc_p99: float
    #: Cumulative simulated cost charged per shard over the whole probe
    #: (empty at parallelism 1: the serial pump has no shard pool).  The
    #: spread between max and mean is the straggler skew the straggler-max
    #: merge paid for.
    shard_costs: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class CapacityCell:
    """Sustainable throughput + latency percentiles for one system × query."""

    system: str
    query: str
    #: The knee: highest probed rate that sustained (records/sim-second).
    sustainable_rate: float
    #: Probes spent bracketing + binary-searching this cell.
    probes: int
    queue_bound: int
    records: int
    #: Observed at the knee probe.
    max_queue_depth: int
    blocked_seconds: float
    event_p50: float
    event_p95: float
    event_p99: float
    proc_p50: float
    proc_p95: float
    proc_p99: float
    #: SDK kind of the probed pipeline: ``native`` or ``beam``.
    kind: str = "native"
    #: Simulated operator parallelism of the probed pipeline.
    parallelism: int = 1
    #: Per-shard cumulative drain costs at the knee probe (straggler skew
    #: surface; empty at parallelism 1).
    shard_costs: tuple[float, ...] = ()


@dataclass
class CapacityReport:
    """All capacity cells of a campaign, in grid order."""

    config: BenchmarkConfig
    cells: list[CapacityCell] = field(default_factory=list)

    def cell(self, system: str, query: str) -> CapacityCell:
        """Look one cell up; raises ``KeyError`` when absent."""
        for cell in self.cells:
            if (cell.system, cell.query) == (system, query):
                return cell
        raise KeyError((system, query))


@dataclass
class ScalabilityReport:
    """Capacity knees swept over parallelism — the scalability curves.

    One :class:`CapacityCell` per (system × kind × query × parallelism)
    point, in sweep order.  :meth:`curve` returns one curve sorted by
    parallelism, ready for the knee-vs-P rendering.
    """

    config: BenchmarkConfig
    cells: list[CapacityCell] = field(default_factory=list)

    def cell(
        self, system: str, kind: str, query: str, parallelism: int
    ) -> CapacityCell:
        """Look one sweep point up; raises ``KeyError`` when absent."""
        for cell in self.cells:
            key = (cell.system, cell.kind, cell.query, cell.parallelism)
            if key == (system, kind, query, parallelism):
                return cell
        raise KeyError((system, kind, query, parallelism))

    def curve(
        self, system: str, kind: str, query: str
    ) -> list[CapacityCell]:
        """One scalability curve, sorted by parallelism."""
        cells = [
            cell
            for cell in self.cells
            if (cell.system, cell.kind, cell.query) == (system, kind, query)
        ]
        return sorted(cells, key=lambda cell: cell.parallelism)


class _FixedSchedule(ArrivalProcess):
    """Replays a precomputed batch schedule (no RNG draws of its own).

    The probe computes each schedule exactly once (latency accounting
    needs per-record arrival instants *before* the generator runs), then
    hands the generator this replay so both observe identical arrivals.
    """

    def __init__(self, rate: float, name: str, batches: tuple) -> None:
        self.rate = rate
        self.name = name
        self._batches = batches

    def schedule(
        self, total: int, batch_size: int, rng: random.Random
    ) -> Iterator[tuple[int, float]]:
        return iter(self._batches)


def build_native_stages(
    system: str, spec: QuerySpec, parallelism: int, data_rng: random.Random
) -> list[PhysicalStage]:
    """Source → operator → sink stages priced by one engine's cost model.

    The capacity probe's service model: the same per-record stage costs
    the engine executors charge, without the engines' scheduling wrappers
    (micro-batch overheads amortize at production batch sizes and are
    deliberately excluded — capacity is the record-throughput knee).
    """
    model = _COST_MODELS[system]()
    function = spec.make_function(data_rng)
    stages = [
        PhysicalStage(
            name="source",
            kind=StageKind.SOURCE,
            costs=model.source_costs(parallelism),
            parallelism=parallelism,
        )
    ]
    if function is not None:
        if system == "flink":
            operator_costs = model.operator_costs(chained_after_previous=False)
        elif system == "spark":
            operator_costs = model.operator_costs(shuffle_input=False)
        else:
            operator_costs = model.operator_costs()
        stages.append(
            PhysicalStage(
                name=spec.name,
                kind=StageKind.OPERATOR,
                costs=operator_costs,
                function=function,
                parallelism=parallelism,
            )
        )
    stages.append(
        PhysicalStage(
            name="sink",
            kind=StageKind.SINK,
            costs=model.sink_costs(),
            parallelism=parallelism,
        )
    )
    return stages


def build_beam_stages(
    system: str, spec: QuerySpec, parallelism: int, data_rng: random.Random
) -> list[PhysicalStage]:
    """Native stages plus the Beam runner's translation wrapping costs.

    Mirrors the runners' ``translate()`` charging onto the capacity
    probe's simplified stage list: ``source_wrap_in`` on the source (plus
    the per-parallelism extra, which Flink and Spark charge on the source
    path and Apex on its partitioned output path), the KafkaIO-read
    *Flat Map* identity stage that Flink and Apex insert (chained, so it
    charges only its ParDo wrapping), the per-stage ParDo wrapping /
    weight / RNG-draw penalties folded via the stage's own function
    profile, and ``sink_wrap_out`` on the sink.  Micro-batch scheduling
    overheads stay excluded exactly as in :func:`build_native_stages`:
    capacity is the record-throughput knee, and excluding them for both
    kinds keeps the abstraction penalty a like-for-like ratio.
    """
    from repro.beam.runners.apex import ApexRunnerOverheads
    from repro.beam.runners.flink import FlinkRunnerOverheads
    from repro.dataflow.functions import FlatMapFunction
    from repro.dataflow.kernels import KernelSpec
    from repro.beam.runners.spark import SparkRunnerOverheads

    overheads = {
        "flink": FlinkRunnerOverheads,
        "spark": SparkRunnerOverheads,
        "apex": ApexRunnerOverheads,
    }[system]()
    model = _COST_MODELS[system]()
    function = spec.make_function(data_rng)
    pardo_wrap = getattr(overheads, "pardo_wrap_in", 0.0)
    weight_extra = getattr(overheads, "pardo_weight_extra", 0.0)
    parallel_extra = overheads.parallel_extra_per_record * (parallelism - 1)

    source_extra = overheads.source_wrap_in + (
        parallel_extra if system != "apex" else 0.0
    )
    stages = [
        PhysicalStage(
            name="source",
            kind=StageKind.SOURCE,
            costs=model.source_costs(parallelism).plus(
                extra_per_record_in=source_extra
            ),
            parallelism=parallelism,
        )
    ]
    if system != "spark":
        # The KafkaIO read translation (Figure 13's Flat Map): an extra
        # identity ParDo that every record pays wrapping for.
        stages.append(
            PhysicalStage(
                name="Flat Map",
                kind=StageKind.OPERATOR,
                costs=StageCosts(per_record_in=pardo_wrap),
                function=FlatMapFunction(
                    lambda record: (record,),
                    name="Flat Map",
                    kernel_spec=KernelSpec.identity(),
                ),
                parallelism=parallelism,
            )
        )
    if function is not None:
        if system == "flink":
            operator_costs = model.operator_costs(chained_after_previous=False)
        elif system == "spark":
            operator_costs = model.operator_costs(shuffle_input=False)
        else:
            operator_costs = model.operator_costs()
        stages.append(
            PhysicalStage(
                name=spec.name,
                kind=StageKind.OPERATOR,
                costs=operator_costs.plus(
                    extra_per_record_in=pardo_wrap,
                    extra_per_weight=weight_extra,
                    extra_per_rng_draw=overheads.rng_penalty_per_draw,
                ),
                function=function,
                parallelism=parallelism,
            )
        )
    sink_extra = overheads.sink_wrap_out + (
        parallel_extra if system == "apex" else 0.0
    )
    stages.append(
        PhysicalStage(
            name="sink",
            kind=StageKind.SINK,
            costs=model.sink_costs().plus(extra_per_record_out=sink_extra),
            parallelism=parallelism,
        )
    )
    return stages


_STAGE_BUILDERS = {"native": build_native_stages, "beam": build_beam_stages}


def estimate_service_rate(
    config: BenchmarkConfig,
    system: str,
    query: str,
    kind: str = "native",
    parallelism: int | None = None,
) -> float:
    """Analytic records/second estimate seeding the bracketing search.

    Sums every stage's per-record charge (weights and RNG draws included)
    plus the broker's append + fetch costs, then multiplies by the
    parallelism: P partition-group workers split each drained chunk, so
    the straggler's cost is ~1/P of the serial chunk's.  Only a starting
    point — the geometric bracket corrects any error before the binary
    search begins.
    """
    spec = get_query(query)
    if parallelism is None:
        parallelism = config.capacity.parallelism
    stages = _STAGE_BUILDERS[kind](system, spec, parallelism, random.Random(0))
    per_record = 0.0
    for stage in stages:
        per_record += stage.costs.charge(
            records_in=1,
            records_out=1,
            cost_weight=stage.cost_weight,
            rng_draws=stage.rng_draws,
        )
    # Broker participation: one append on admission, one fetch on drain.
    broker = BrokerCosts()
    per_record += broker.append_per_record + broker.fetch_per_record
    return parallelism / per_record


def run_probe(
    config: BenchmarkConfig,
    system: str,
    query: str,
    rate: float,
    columnar: bool | None = None,
    kind: str = "native",
    parallelism: int | None = None,
) -> ProbeResult:
    """One open-loop probe at ``rate`` in a fresh isolated world.

    At ``parallelism`` > 1 the drain runs through a
    :class:`~repro.engines.common.sharded.ShardedPump` pool of P workers —
    one pump per partition group, each with its own stages, function
    instance, RNG streams and lag tracker — charging the straggler
    shard's cost per chunk.  At P = 1 the probe takes exactly the serial
    path (same RNG stream names, same pump), so existing capacity
    results are unchanged.

    The drain is columnar: each polled chunk writes its event- and
    processing-time latencies into preallocated float64 arrays, and each
    series is sorted once for its percentiles.  Chunks step through the
    stages without a kernel flush; every pump is flushed exactly once
    when the probe ends, stalled or not — nothing observes the probe's
    private RNG streams in between, so the results are bit-identical to
    a per-chunk flush.
    """
    settings = config.capacity
    if parallelism is None:
        parallelism = settings.parallelism
    simulator = Simulator(seed=config.seed)
    from repro.broker.broker import default_num_nodes

    cluster = BrokerCluster(simulator, num_nodes=default_num_nodes())
    admin = AdminClient(cluster)
    admin.create_topic(CAPACITY_TOPIC, max_queue=settings.queue_bound)
    if columnar is None:
        from repro.workloads.columnar import columnar_enabled

        columnar = columnar_enabled()
    workload = AolWorkload(settings.records, seed=config.seed)
    records = workload.columnar().column() if columnar else workload.records
    total = len(records)

    spec = get_query(query)
    build_stages = _STAGE_BUILDERS[kind]
    metrics = JobMetrics(f"capacity/{system}/{query}")
    if parallelism <= 1:
        data_rng = simulator.random.stream(f"capacity/data/{system}/{query}")
        stages = build_stages(system, spec, parallelism, data_rng)
        pump = StreamPump(
            simulator=simulator,
            stages=stages,
            variance=RunVariance(),  # probes charge raw costs: no noise draws
            rng=simulator.random.stream("capacity/pump"),
            job_name=metrics.job_name,
        )
        sharded = None
    else:
        pumps = []
        for shard in range(parallelism):
            data_rng = simulator.random.stream(
                f"capacity/data/{system}/{query}/shard{shard}"
            )
            pumps.append(
                StreamPump(
                    simulator=simulator,
                    stages=build_stages(system, spec, parallelism, data_rng),
                    variance=RunVariance(),
                    rng=simulator.random.stream(f"capacity/pump/shard{shard}"),
                    job_name=metrics.job_name,
                )
            )
        sharded = ShardedPump(pumps, stall_timeout=settings.stall_timeout)
        pump = pumps[0]  # tier/diagnostic surface of the pool
    consumer = Consumer(cluster)
    consumer.assign([TopicPartition(CAPACITY_TOPIC, 0)])
    log = cluster.topic(CAPACITY_TOPIC).partition(0)

    # The arrival schedule, precomputed once: the generator replays it and
    # the latency accounting reads per-record nominal arrival instants.
    process = make_arrivals(settings.process, rate)
    schedule_rng = simulator.random.stream(f"loadgen/{CAPACITY_TOPIC}/schedule")
    batches = tuple(process.schedule(total, settings.arrival_batch, schedule_rng))
    started = simulator.now()
    # Per-record nominal arrival instants for event-time latency: a batch's
    # offset is when its *last* record has arrived, so records interpolate
    # linearly from the previous batch's offset up to it.  Each element is
    # ``base + step * (i + 1)``, the same two IEEE operations per record.
    arrivals = np.empty(total, dtype=np.float64)
    prev = 0.0
    filled = 0
    for count, offset in batches:
        step = (offset - prev) / count
        base = started + prev
        arrivals[filled : filled + count] = np.arange(1, count + 1) * step + base
        filled += count
        prev = offset

    event_lat = np.empty(total, dtype=np.float64)
    proc_lat = np.empty(total, dtype=np.float64)
    consumed = 0

    def drain() -> int:
        nonlocal consumed
        values, stamps = consumer.poll_values(
            max_records=settings.drain_chunk, with_timestamps=True
        )
        if not values:
            return 0
        # No per-chunk flush: the finally below flushes once per probe.
        if sharded is None:
            cost, _outputs = pump._run_stages(values, metrics, 0)
        else:
            cost, _outputs = sharded.process_chunk(values)
        simulator.charge(cost)
        consumer.acknowledge()
        done = simulator.now()
        stop = consumed + len(values)
        np.subtract(done, arrivals[consumed:stop], out=event_lat[consumed:stop])
        np.subtract(done, np.frombuffer(stamps), out=proc_lat[consumed:stop])
        consumed = stop
        if sharded is not None:
            sharded.observe(done, backlog=log.queue_depth())
        return len(values)

    generator = LoadGenerator(
        cluster,
        CAPACITY_TOPIC,
        target_rate=rate,
        process=_FixedSchedule(rate, process.name, batches),
        policy="backpressure",
        batch_size=settings.arrival_batch,
        tracker=LagTracker(
            depth_fn=log.queue_depth,
            stall_timeout=settings.stall_timeout,
            tier=pump.tier,
        ),
    )
    try:
        report = generator.run(records, drain=drain)
        # Completion phase: drain whatever the offer window left queued.
        while log.queue_depth() > 0:
            if not drain():
                raise PumpStalledError(
                    queue_depth=log.queue_depth(),
                    last_offset=consumed,
                    tier=pump.tier,
                    stalled_for=0.0,
                    stall_timeout=settings.stall_timeout,
                )
    finally:
        if sharded is None:
            pump._flush_kernels()
        else:
            sharded.flush()
    elapsed = simulator.now() - started
    offer_window = total / rate
    sustainable = (
        report.records_shed == 0
        and elapsed <= offer_window * (1.0 + settings.grace)
    )
    event_p50, event_p95, event_p99 = stats.percentiles(
        event_lat[:consumed], _LATENCY_QUANTILES
    )
    proc_p50, proc_p95, proc_p99 = stats.percentiles(
        proc_lat[:consumed], _LATENCY_QUANTILES
    )
    return ProbeResult(
        rate=rate,
        sustainable=sustainable,
        offered=report.records_offered,
        accepted=report.records_accepted,
        shed=report.records_shed,
        blocked_seconds=report.blocked_seconds,
        max_queue_depth=report.max_queue_depth,
        offer_window=offer_window,
        elapsed=elapsed,
        event_p50=event_p50,
        event_p95=event_p95,
        event_p99=event_p99,
        proc_p50=proc_p50,
        proc_p95=proc_p95,
        proc_p99=proc_p99,
        shard_costs=(
            tuple(sharded.shard_costs) if sharded is not None else ()
        ),
    )


def find_capacity(
    config: BenchmarkConfig,
    system: str,
    query: str,
    columnar: bool | None = None,
    kind: str = "native",
    parallelism: int | None = None,
) -> CapacityCell:
    """Bracket + binary-search the capacity knee for one system × query."""
    settings = config.capacity
    if parallelism is None:
        parallelism = settings.parallelism
    probes = 0

    def probe(rate: float) -> ProbeResult:
        nonlocal probes
        probes += 1
        return run_probe(
            config,
            system,
            query,
            rate,
            columnar=columnar,
            kind=kind,
            parallelism=parallelism,
        )

    rate = estimate_service_rate(
        config, system, query, kind=kind, parallelism=parallelism
    )
    result = probe(rate)
    if result.sustainable:
        low, low_probe = rate, result
        high = None
        for _ in range(12):  # geometric bracket upward
            rate *= 2.0
            result = probe(rate)
            if result.sustainable:
                low, low_probe = rate, result
            else:
                high = rate
                break
        if high is None:  # estimate was absurdly low; accept the ceiling
            high = rate * 2.0
    else:
        high = rate
        low, low_probe = None, None
        for _ in range(20):  # geometric bracket downward
            rate /= 2.0
            result = probe(rate)
            if result.sustainable:
                low, low_probe = rate, result
                break
            high = rate
        if low is None:
            raise RuntimeError(
                f"no sustainable rate found for {system}/{query} "
                f"down to {rate:.1f} records/s"
            )

    for _ in range(settings.search_iterations):
        mid = (low + high) / 2.0
        result = probe(mid)
        if result.sustainable:
            low, low_probe = mid, result
        else:
            high = mid

    assert low_probe is not None
    return CapacityCell(
        system=system,
        query=query,
        kind=kind,
        parallelism=parallelism,
        sustainable_rate=low,
        probes=probes,
        queue_bound=settings.queue_bound,
        records=settings.records,
        max_queue_depth=low_probe.max_queue_depth,
        blocked_seconds=low_probe.blocked_seconds,
        event_p50=low_probe.event_p50,
        event_p95=low_probe.event_p95,
        event_p99=low_probe.event_p99,
        proc_p50=low_probe.proc_p50,
        proc_p95=low_probe.proc_p95,
        proc_p99=low_probe.proc_p99,
        shard_costs=low_probe.shard_costs,
    )


def _capacity_cell(
    config: BenchmarkConfig, columnar: bool | None, pair: tuple[str, str]
) -> CapacityCell:
    """One cell, top-level so worker processes can pickle it."""
    system, query = pair
    return find_capacity(config, system, query, columnar=columnar)


def _scalability_cell(
    config: BenchmarkConfig,
    columnar: bool | None,
    point: tuple[str, str, str, int],
) -> CapacityCell:
    """One sweep point, top-level so worker processes can pickle it."""
    system, kind, query, parallelism = point
    return find_capacity(
        config, system, query, columnar=columnar, kind=kind, parallelism=parallelism
    )


class CapacityRunner:
    """Runs the capacity grid (systems × queries), serially or fanned out.

    Every cell's probes run in fresh isolated worlds seeded from the
    campaign seed alone, so serial and parallel execution produce
    bit-identical reports — the :class:`~repro.benchmark.parallel.MatrixRunner`
    guarantee, extended to the capacity mode.
    """

    def __init__(
        self, config: BenchmarkConfig, columnar: bool | None = None
    ) -> None:
        self.config = config
        if columnar is None:
            from repro.workloads.columnar import columnar_enabled

            columnar = columnar_enabled()
        self.columnar = columnar

    def cells(self) -> tuple[tuple[str, str], ...]:
        """The capacity grid in canonical (system → query) order."""
        return tuple(
            (system, query)
            for system in self.config.systems
            for query in self.config.queries
        )

    def scalability_cells(self) -> tuple[tuple[str, str, str, int], ...]:
        """The sweep grid: system → kind → query → parallelism order."""
        settings = self.config.capacity
        return tuple(
            (system, kind, query, parallelism)
            for system in self.config.systems
            for kind in settings.kinds
            for query in self.config.queries
            for parallelism in settings.parallelisms
        )

    def _warm_caches(self) -> None:
        """Pre-build the shared workload cache before forking workers."""
        from repro.workloads.cache import (
            ensure_columns_cached,
            ensure_disk_cached,
        )

        if self.columnar:
            ensure_columns_cached(self.config.capacity.records, self.config.seed)
        else:
            ensure_disk_cached(self.config.capacity.records, self.config.seed)

    def _worker_count(self, workers: int | None, jobs: int) -> int:
        from repro.benchmark.parallel import default_workers

        count = workers if workers is not None else default_workers()
        if count < 1:
            raise ValueError(f"workers must be >= 1, got {count}")
        return min(count, jobs)

    def run(
        self, parallel: bool = False, workers: int | None = None
    ) -> CapacityReport:
        """Execute every cell; merge into a report in grid order."""
        pairs = self.cells()
        report = CapacityReport(config=self.config)
        if not pairs:
            return report
        if parallel:
            self._warm_caches()
            count = self._worker_count(workers, len(pairs))
            with ProcessPoolExecutor(max_workers=count) as pool:
                cells = list(
                    pool.map(
                        _capacity_cell,
                        repeat(self.config),
                        repeat(self.columnar),
                        pairs,
                    )
                )
        else:
            cells = [_capacity_cell(self.config, self.columnar, p) for p in pairs]
        report.cells.extend(cells)
        return report

    def run_scalability(
        self, parallel: bool = False, workers: int | None = None
    ) -> ScalabilityReport:
        """Sweep the knee over systems × kinds × queries × parallelisms.

        Each sweep point is an independent capacity search in fresh
        isolated worlds, so the sweep parallelises cell-wise exactly like
        :meth:`run` with the same bit-identity guarantee.
        """
        points = self.scalability_cells()
        report = ScalabilityReport(config=self.config)
        if not points:
            return report
        if parallel:
            self._warm_caches()
            count = self._worker_count(workers, len(points))
            with ProcessPoolExecutor(max_workers=count) as pool:
                cells = list(
                    pool.map(
                        _scalability_cell,
                        repeat(self.config),
                        repeat(self.columnar),
                        points,
                    )
                )
        else:
            cells = [
                _scalability_cell(self.config, self.columnar, p) for p in points
            ]
        report.cells.extend(cells)
        return report
