"""Tests for the KafkaIO transforms (expansion structure and semantics)."""

import pytest

import repro.beam as beam
from repro.beam.errors import BeamError
from repro.beam.io.kafka import (
    KafkaRead,
    KafkaRecord,
    KafkaRecordColumn,
    KafkaWrite,
    ReadFromKafka,
    WriteToKafka,
    read,
    write,
)
from repro.broker import (
    BrokerCluster,
    Consumer,
    FaultPlan,
    NodeOutage,
    Producer,
    TopicConfig,
    TopicPartition,
)
from repro.dataflow.kernels import KafkaKvKernel, PairColumn
from repro.engines.common.io import BoundedKafkaReader
from repro.simtime import Simulator


@pytest.fixture
def topic(broker, admin):
    admin.create_topic("t")
    with Producer(broker) as producer:
        producer.send_values("t", ["v0", "v1", "v2"])
    return "t"


class TestReadExpansion:
    def test_plain_read_produces_records_with_metadata(self, broker, topic):
        p = beam.Pipeline()
        pcoll = p | read(broker, topic)
        result = p.run()
        records = result.outputs[pcoll.producer.full_label]
        assert all(isinstance(r, KafkaRecord) for r in records)
        assert [r.value for r in records] == ["v0", "v1", "v2"]
        assert [r.offset for r in records] == [0, 1, 2]

    def test_without_metadata_yields_kv_pairs(self, broker, topic):
        p = beam.Pipeline()
        pcoll = p | read(broker, topic).without_metadata()
        result = p.run()
        assert result.outputs[pcoll.producer.full_label] == [
            (None, "v0"),
            (None, "v1"),
            (None, "v2"),
        ]

    def test_without_metadata_adds_a_pardo_node(self, broker, topic):
        plain = beam.Pipeline()
        plain | read(broker, topic)
        chained = beam.Pipeline()
        chained | read(broker, topic).without_metadata()
        # the paper: "The first ParDo represents calling withoutMetadata()"
        assert len(chained.applied) == len(plain.applied) + 1

    def test_read_must_be_root(self, broker, topic):
        p = beam.Pipeline()
        pcoll = p | beam.Create([1])
        with pytest.raises(BeamError):
            pcoll | KafkaRead(broker, topic)

    def test_bounded_flag_propagates(self, broker, topic):
        p = beam.Pipeline()
        pcoll = p | read(broker, topic, bounded=False)
        assert not pcoll.is_bounded

    def test_record_kv_view(self):
        record = KafkaRecord("t", 0, 5, 1.0, "k", "v")
        assert record.kv() == ("k", "v")

    def test_kafka_record_timestamps_carried(self, sim, broker, admin):
        admin.create_topic("ts")
        with Producer(broker, batch_size=1) as producer:
            producer.send("ts", "a")
            sim.charge(3.0)
            producer.send("ts", "b")
        p = beam.Pipeline()
        pcoll = p | read(broker, "ts")
        result = p.run()
        records = result.outputs[pcoll.producer.full_label]
        # ~3 s of clock advance plus the second produce request's overhead
        assert records[1].timestamp - records[0].timestamp == pytest.approx(
            3.0, abs=0.01
        )


class TestWriteExpansion:
    def test_write_expands_to_ensure_kv_plus_primitive(self, broker, admin, topic):
        admin.create_topic("out")
        p = beam.Pipeline()
        pcoll = p | beam.Create(["x"])
        pcoll | write(broker, "out")
        transforms = [type(node.transform).__name__ for node in p.applied]
        assert transforms == ["Create", "ParDo", "KafkaWrite"]

    def test_write_unwraps_values(self, broker, admin):
        admin.create_topic("out")
        p = beam.Pipeline()
        p | beam.Create(["x", "y"]) | write(broker, "out")
        p.run()
        assert broker.topic("out").partition(0).read_values(0) == ["x", "y"]

    def test_write_keeps_value_of_kv_pairs(self, broker, admin):
        admin.create_topic("out")
        p = beam.Pipeline()
        p | beam.Create([("k1", "a"), ("k2", "b")]) | write(broker, "out")
        p.run()
        assert broker.topic("out").partition(0).read_values(0) == ["a", "b"]

    def test_write_requires_pcollection(self, broker, admin):
        admin.create_topic("out")
        p = beam.Pipeline()
        with pytest.raises(BeamError):
            p | WriteToKafka(broker, "out")

    def test_builders_return_composites(self, broker):
        assert isinstance(read(broker, "x"), ReadFromKafka)
        assert isinstance(write(broker, "x"), WriteToKafka)


def poll_loop_records(broker, topic):
    """The record list a ``Consumer.poll(max_records=10_000)`` loop reads.

    Registers the same two clients the column read does (the reader's
    own retry stream, then the consumer's), so both paths leave the
    cluster in the same state.
    """
    BoundedKafkaReader(broker, topic)
    consumer = Consumer(broker)
    count = broker.topic(topic).num_partitions
    consumer.assign([TopicPartition(topic, p) for p in range(count)])
    polled = []
    while True:
        batch = consumer.poll(max_records=10_000)
        if not batch:
            break
        polled.extend(batch)
    consumer.close()
    return [
        KafkaRecord(r.topic, r.partition, r.offset, r.timestamp, r.key, r.value)
        for r in polled
    ]


def column_of(broker, topic):
    column = KafkaRead(broker, topic).read_records()
    assert isinstance(column, KafkaRecordColumn)
    return column


def pairs_of(column):
    """``withoutMetadata`` over a column window: its pair column, listed."""
    pairs = KafkaKvKernel()(column)
    assert isinstance(pairs, PairColumn)
    return list(pairs)


class TestColumnRead:
    """``KafkaRead.read_records`` returns a column equal to the poll loop's list."""

    def test_unkeyed_column_matches_poll_loop(self, broker, topic):
        column = column_of(broker, topic)
        assert list(column) == poll_loop_records(broker, topic)
        assert pairs_of(column) == [(None, "v0"), (None, "v1"), (None, "v2")]

    def test_keyed_records(self, broker, admin):
        admin.create_topic("keyed")
        with Producer(broker) as producer:
            for i in range(5):
                producer.send("keyed", f"v{i}", key=f"k{i}" if i % 2 else None)
        column = column_of(broker, "keyed")
        records = poll_loop_records(broker, "keyed")
        assert list(column) == records
        assert [r.key for r in column] == [None, "k1", None, "k3", None]
        assert pairs_of(column) == [r.kv() for r in records]
        assert pairs_of(column[1:4]) == [r.kv() for r in records[1:4]]

    def test_adopted_column_has_short_key_column(self, broker, admin):
        from repro.workloads.columnar import ColumnarWorkload

        admin.create_topic("adopted")
        lines = ColumnarWorkload.generate(300).column()
        log = broker.topic("adopted").partition(0)
        log.append_batch(lines.view(0, 300))
        assert len(log._keys) < len(log)  # adopted: no key column at all
        column = column_of(broker, "adopted")
        assert column.keys is None
        assert list(column) == poll_loop_records(broker, "adopted")
        assert pairs_of(column) == [(None, line) for line in lines]

    def test_keyed_and_adopted_partitions_mix(self, broker):
        from repro.workloads.columnar import ColumnarWorkload

        broker.create_topic("mixed", TopicConfig(num_partitions=2))
        lines = ColumnarWorkload.generate(50).column()
        broker.topic("mixed").partition(0).append_batch(lines.view(0, 50))
        broker.topic("mixed").partition(1).append_batch(["a", "b"], keys=["x", "y"])
        column = column_of(broker, "mixed")
        assert column.keys == [None] * 50 + ["x", "y"]
        assert list(column) == poll_loop_records(broker, "mixed")

    def test_three_partitions_partition_major(self, broker):
        broker.create_topic("multi", TopicConfig(num_partitions=3))
        with Producer(broker) as producer:
            for i in range(10):
                producer.send("multi", f"v{i}", partition=i % 3)
        column = column_of(broker, "multi")
        records = poll_loop_records(broker, "multi")
        assert list(column) == records
        assert [(r.partition, r.offset) for r in column] == [
            (0, 0), (0, 1), (0, 2), (0, 3),
            (1, 0), (1, 1), (1, 2),
            (2, 0), (2, 1), (2, 2),
        ]
        assert [column[i] for i in range(len(column))] == records

    def test_empty_topic(self, broker, admin):
        admin.create_topic("empty")
        column = column_of(broker, "empty")
        assert len(column) == 0
        assert list(column) == [] == poll_loop_records(broker, "empty")
        assert pairs_of(column) == []
        with pytest.raises(IndexError):
            column[0]

    def test_negative_indices_and_nested_slices(self, broker):
        broker.create_topic("multi", TopicConfig(num_partitions=3))
        with Producer(broker) as producer:
            for i in range(30):
                producer.send("multi", f"v{i}", key=i, partition=i % 3)
        column = column_of(broker, "multi")
        records = list(column)
        assert records == poll_loop_records(broker, "multi")
        for index in (-1, -5, -30, 0, 17):
            assert column[index] == records[index]
        with pytest.raises(IndexError):
            column[-31]
        with pytest.raises(IndexError):
            column[30]
        window = column[3:25]
        assert isinstance(window, KafkaRecordColumn)
        assert len(window) == 22
        assert list(window) == records[3:25]
        inner = window[-15:-2]
        assert isinstance(inner, KafkaRecordColumn)
        assert list(inner) == records[3:25][-15:-2]
        assert inner[-1] == records[3:25][-15:-2][-1]
        assert pairs_of(inner) == [r.kv() for r in records[3:25][-15:-2]]
        assert list(inner[5:100]) == records[3:25][-15:-2][5:100]
        assert list(column[20:5]) == []
        assert column[::4] == records[::4]
        assert window[::-3] == records[3:25][::-3]

    @pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
    def test_charges_and_client_ids_match_poll_loop(self, chaos):
        """Same simulated clock and client-id counter as the poll loop.

        ~25k records over two partitions make the loop span several
        10k-record requests, one of them straddling the partitions; under
        chaos the guarded requests draw the fault streams, so any extra
        or reordered request would move the clock.
        """

        def world():
            sim = Simulator(seed=7)
            broker = BrokerCluster(sim, num_nodes=3)
            if chaos:
                broker.attach_chaos(
                    FaultPlan(
                        error_rate=0.3,
                        latency_jitter=1e-4,
                        outages=(NodeOutage(node_id=1, start=0.0, duration=0.001),),
                    )
                )
            broker.create_topic("big", TopicConfig(num_partitions=2))
            with Producer(broker, batch_size=5_000) as producer:
                producer.send_values("big", [f"r{i}" for i in range(13_000)], partition=0)
                producer.send_values("big", [f"s{i}" for i in range(12_000)], partition=1)
            return sim, broker

        sim_a, broker_a = world()
        sim_b, broker_b = world()
        assert sim_a.now() == sim_b.now()
        injected = broker_a.chaos.errors_injected if chaos else 0
        column = column_of(broker_a, "big")
        records = poll_loop_records(broker_b, "big")
        assert list(column) == records
        assert len(column) == 25_000
        assert sim_a.now() == sim_b.now()
        assert broker_a.register_client() == broker_b.register_client()
        if chaos:  # the read's own requests drew faults and retried
            assert broker_a.chaos.errors_injected > injected
            assert broker_a.chaos.errors_injected == broker_b.chaos.errors_injected
