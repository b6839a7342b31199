"""Extension — end-to-end chaos: broker faults + engine crashes combined.

The tentpole robustness scenario: the full Figure-5 pipeline (sender →
Kafka → engine → Kafka → result calculator) runs while a seeded
:class:`~repro.broker.faults.FaultPlan` crashes a broker node, injects
transient request errors and lost acknowledgements, and adds latency
jitter — and the engine additionally crashes twice mid-run.  With
idempotent produce, retries and exactly-once checkpointing the output
record count must equal the failure-free count; the recovery-time penalty
per system is reported the way the paper reports execution times (broker
LogAppendTime deltas).

Runs in smoke mode (``REPRO_CHAOS_SMOKE=1``: fewer records, Flink only)
so CI can exercise the whole chaos path in seconds.
"""

import os

from conftest import save_artifact

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.harness import StreamBenchHarness
from repro.benchmark.loadgen import LoadGenerator
from repro.broker import (
    AdminClient,
    BrokerCluster,
    Consumer,
    DeliveryTimeoutError,
    FaultPlan,
    NodeOutage,
    Producer,
    QueueFullError,
    RetryPolicy,
    TopicPartition,
)
from repro.engines.common.recovery import FailureInjector
from repro.simtime import Simulator

SMOKE = os.environ.get("REPRO_CHAOS_SMOKE", "") not in ("", "0")
RECORDS = 5_000 if SMOKE else 20_000
SYSTEMS = ("flink",) if SMOKE else ("flink", "spark", "apex")

#: One broker node goes down for half a simulated second early in the run;
#: on top of that every request risks a transient error or a lost ack.
CHAOS = FaultPlan(
    seed=97,
    error_rate=0.10,
    timeout_rate=0.05,
    latency_jitter=0.001,
    outages=(NodeOutage(node_id=1, start=0.05, duration=0.5),),
)
#: The engine crashes twice, off checkpoint boundaries.
ENGINE_CRASHES = FailureInjector(at_fractions=(0.37, 0.73), recovery_delay=0.5)


def _config():
    return BenchmarkConfig(records=RECORDS, runs=1)


def clean_run(system):
    """Failure-free reference run (no chaos, no engine crashes)."""
    return StreamBenchHarness(_config()).run_fault_tolerant(system)


def chaotic_run(system, exactly_once=True):
    """The same pipeline under broker chaos plus two engine crashes."""
    harness = StreamBenchHarness(_config(), chaos=CHAOS)
    return harness.run_fault_tolerant(
        system, failure=ENGINE_CRASHES, exactly_once=exactly_once
    )


def run_campaign():
    return {system: (clean_run(system), chaotic_run(system)) for system in SYSTEMS}


def test_chaos_end_to_end(benchmark):
    campaign = benchmark.pedantic(run_campaign, rounds=1, iterations=1)

    lines = [
        "Chaos end-to-end — broker faults + engine crashes, grep query",
        f"{'system':8s} {'clean(s)':>10s} {'chaos(s)':>10s} {'penalty':>8s}"
        f" {'crashes':>8s} {'errors':>7s} {'acks lost':>9s} {'retries':>8s}",
    ]
    for system, (clean, chaotic) in campaign.items():
        penalty = chaotic.measured - clean.measured
        lines.append(
            f"{system:8s} {clean.measured:10.3f} {chaotic.measured:10.3f}"
            f" {penalty:8.3f} {chaotic.failures + chaotic.broker_crashes:8d}"
            f" {chaotic.broker_errors_injected:7d}"
            f" {chaotic.broker_timeouts_injected:9d}"
            f" {chaotic.sender_retries:8d}"
        )
    save_artifact("chaos_end_to_end", "\n".join(lines))

    for system, (clean, chaotic) in campaign.items():
        # Exactly-once under chaos: the output record count matches the
        # failure-free run despite broker faults and two engine crashes.
        assert chaotic.records_out == clean.records_out, system
        assert chaotic.failures == 2, system
        assert not chaotic.duplicates_possible, system
        # The chaos actually happened: faults were injected and the
        # pipeline paid for riding them out in simulated time.
        assert chaotic.broker_crashes >= 1, system
        assert (
            chaotic.broker_errors_injected + chaotic.broker_timeouts_injected > 0
        ), system
        assert chaotic.duration > clean.duration, system


def test_same_chaos_seed_is_bit_identical():
    """Two fresh worlds under the same fault plan agree exactly."""
    system = SYSTEMS[0]
    assert chaotic_run(system) == chaotic_run(system)


def test_kernel_path_composes_with_chaos(monkeypatch):
    """The compiled production path changes nothing under broker chaos.

    A lost acknowledgement makes the producer replay a whole vectorized
    batch; idempotent produce must still recognise it by sequence number
    and drop it.  The entire chaotic run — fault schedule, retries,
    deduplication, recovery, measured times — has to be bit-identical
    between the kernel tier and the per-record reference loop.
    """
    from repro.engines.common.pump import StreamPump

    system = SYSTEMS[0]
    fast = chaotic_run(system)
    monkeypatch.setattr(StreamPump, "vectorized", False)
    reference = chaotic_run(system)
    assert fast == reference
    # The scenario is non-trivial: acks were actually lost and their
    # replayed batches deduplicated, not merely never retried.
    assert fast.sender_retries > 0
    assert fast.sender_duplicates_avoided > 0


#: The backpressure campaign's bounded partition and consumer chunk.
FLOW_BOUND = 400
FLOW_CHUNK = 150
FLOW_RECORDS = 2_000 if SMOKE else 4_000


def run_backpressure_chaos(seed=13):
    """Open-loop backpressure under broker chaos, with a racing producer.

    A load generator offers records credit-based against a bounded
    partition while a consumer drains at half the offered rate — so
    arrivals block — and a rival producer periodically over-offers past
    the remaining capacity, taking genuine :class:`QueueFullError`
    rejections that are retried (after simulated-time backoff and a
    drain) interleaved with the fault plan's node outage, transient
    errors and lost acknowledgements.  Exactly-once end to end: every
    generator and rival record lands exactly once, and broker-resident
    records never exceed the bound.
    """
    sim = Simulator(seed=seed)
    cluster = BrokerCluster(sim, num_nodes=3)
    AdminClient(cluster).create_topic("flow", max_queue=FLOW_BOUND)
    log = cluster.topic("flow").partition(0)
    # Aim the outage at the partition leader so produce genuinely fails
    # over the outage window instead of missing the topic entirely.
    leader = log.leader if hasattr(log, "leader") else 1
    cluster.attach_chaos(
        FaultPlan(
            seed=97,
            error_rate=0.10,
            timeout_rate=0.05,
            latency_jitter=0.001,
            outages=(NodeOutage(node_id=leader, start=0.002, duration=0.02),),
        )
    )

    consumer = Consumer(cluster)
    consumer.assign([TopicPartition("flow", 0)])
    consumed = []

    def drain():
        values = consumer.poll_values(max_records=FLOW_CHUNK)
        if not values:
            return 0
        sim.charge(len(values) * 2e-5)  # service at ~50k records/s
        consumer.acknowledge()
        consumed.extend(values)
        return len(values)

    # The rival producer: exercises the QueueFullError path the
    # credit-based generator avoids by design.  Its internal retries ride
    # chaos faults; a full queue exhausts them, surfaces as a delivery
    # timeout caused by QueueFullError, and is re-offered after a
    # simulated-time backoff once the consumer has drained.
    rival = Producer(
        cluster,
        batch_size=FLOW_CHUNK,
        retry_policy=RetryPolicy(
            max_retries=4, backoff_initial=0.01, backoff_max=0.05, jitter=0.1
        ),
        idempotent=True,
    )
    backoff_policy = RetryPolicy(backoff_initial=0.005, backoff_max=0.05, jitter=0.1)
    backoff_rng = sim.random.stream("rival/backoff")
    stats = {"queue_full_rejections": 0, "rival_sent": 0, "drain_calls": 0}

    def drain_and_race():
        stats["drain_calls"] += 1
        freed = drain()
        if stats["drain_calls"] % 6 == 0:
            # Deliberately over-offer past the remaining capacity: the
            # broker must reject the whole batch (all-or-nothing) before
            # registering its idempotent sequence.
            capacity = log.remaining_capacity()
            doomed = [f"r-doomed-{stats['drain_calls']}-{i}" for i in range(capacity + 25)]
            try:
                rival.send_values("flow", doomed)
                raise AssertionError("over-offer unexpectedly fit")
            except DeliveryTimeoutError as err:
                assert isinstance(err.__cause__, QueueFullError)
                stats["queue_full_rejections"] += 1
            # Retry smaller after backoff + drain: the classified-retryable
            # path, driven at the campaign level so the consumer actually
            # runs between attempts.
            sim.charge(backoff_policy.backoff(1, backoff_rng))
            drain()
            capacity = log.remaining_capacity()
            take = min(capacity, 100)
            if take:
                batch = [f"r-{stats['rival_sent'] + i}" for i in range(take)]
                rival.send_values("flow", batch)
                stats["rival_sent"] += take
        return freed

    generator = LoadGenerator(
        cluster, "flow", target_rate=100_000.0, policy="backpressure",
        batch_size=FLOW_CHUNK,
    )
    report = generator.run(
        [f"g-{i}" for i in range(FLOW_RECORDS)], drain=drain_and_race
    )
    while log.queue_depth() > 0:
        drain()
    rival.close()
    return report, stats, consumed, generator.tracker.max_depth, sim.now(), log


def test_backpressure_rides_out_chaos():
    report, stats, consumed, max_depth, _now, log = run_backpressure_chaos()

    # Exact overload accounting, end to end.
    assert report.reconciles()
    assert report.records_sent == FLOW_RECORDS
    assert report.records_shed == 0

    # Exactly-once despite lost acks, outage retries and queue-full
    # rejections: every offered record landed exactly once.
    expected = {f"g-{i}" for i in range(FLOW_RECORDS)} | {
        f"r-{i}" for i in range(stats["rival_sent"])
    }
    assert len(consumed) == len(expected)
    assert set(consumed) == expected

    # The queue bound held everywhere: peak observed depth and final
    # broker-resident storage are both within the bound.
    assert max_depth <= FLOW_BOUND
    assert len(log._values) <= FLOW_BOUND

    # The chaos actually happened and was ridden out.
    assert stats["queue_full_rejections"] > 0
    assert report.blocked_seconds > 0.0
    assert report.retries > 0 or report.duplicates_avoided > 0

    save_artifact(
        "chaos_backpressure",
        "Backpressure × chaos — bounded queue, racing producer\n"
        f"generator: {report.records_sent} accepted, "
        f"{report.blocked_seconds:.3f}s blocked, {report.retries} retries, "
        f"{report.duplicates_avoided} duplicates avoided\n"
        f"rival: {stats['rival_sent']} accepted, "
        f"{stats['queue_full_rejections']} queue-full rejections retried\n"
        f"peak queue depth {max_depth}/{FLOW_BOUND}",
    )


def test_backpressure_chaos_is_bit_identical():
    a_report, a_stats, a_consumed, a_depth, a_now, _ = run_backpressure_chaos()
    b_report, b_stats, b_consumed, b_depth, b_now, _ = run_backpressure_chaos()
    assert a_report == b_report
    assert a_stats == b_stats
    assert a_consumed == b_consumed
    assert (a_depth, a_now) == (b_depth, b_now)


def test_at_least_once_reports_duplicates():
    """With the transactional sink off, the crash leaks duplicates — and
    the run record says so instead of hiding them."""
    system = SYSTEMS[0]
    clean = clean_run(system)
    lossy = chaotic_run(system, exactly_once=False)
    assert lossy.duplicates_possible
    duplicates = lossy.records_out - clean.records_out
    assert duplicates > 0
    save_artifact(
        "chaos_at_least_once",
        f"At-least-once under chaos — {system}: {lossy.records_out} outputs vs "
        f"{clean.records_out} clean ({duplicates} duplicates leaked)",
    )
