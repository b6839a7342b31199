"""Beam pipelines are bit-identical on both pump tiers, adversarially.

The KafkaIO read hands the runners a
:class:`~repro.broker.records.KafkaRecordColumn`; on the kernel tier the
read translation's Flat Map passes it through, ``withoutMetadata`` reads
its key and value columns (``kafka_kv``) and the write's ``EnsureKV``
runs as a generated comprehension (``ensure_kv``).  The tuple tier
builds every ``KafkaRecord`` and calls the DoFns per element.  This
suite feeds the Flink, Spark and Apex runners the inputs those shortcuts
could get wrong — values that already are 2-tuples, non-``None`` keys,
non-ASCII lines, an empty topic — and requires outputs, LogAppendTimes,
per-operator metrics and the simulated clock to be equal on both tiers.
It also pins the point of the column read: on the kernel tier a Beam
benchmark cell builds no ``ConsumerRecord`` and no ``KafkaRecord``.
"""

from __future__ import annotations

import operator

import pytest

import repro.beam as beam
from repro.beam.io import kafka
from repro.beam.runners import ApexRunner, FlinkRunner, SparkRunner
from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.parallel import CellSpec, MatrixRunner
from repro.benchmark.queries import get_query
from repro.broker import BrokerCluster, Producer
from repro.broker.records import ConsumerRecord, KafkaRecord
from repro.engines.common.pump import StreamPump
from repro.engines.flink import FlinkCluster
from repro.engines.spark import SparkCluster
from repro.simtime import Simulator
from repro.yarn import YarnCluster

#: The two execution tiers as their ``StreamPump.vectorized`` setting.
TIERS = {"kernel": True, "tuple": False}

UNICODE_LINES = [
    f"user{i}\t{word} {'test' if i % 3 == 0 else 'zeile'} {i}\t2006-03-01\t\t"
    for i, word in enumerate(["zürich", "東京", "café", "naïve", "ascii", "ß"] * 12)
]


def _fill_pairs(producer):
    """Values that already are KV pairs, mixed with other shapes."""
    for i in range(60):
        if i % 3 == 0:
            value = (f"k{i}", f"v{i}")  # a 2-tuple: EnsureKV passes it through
        elif i % 3 == 1:
            value = (i, i + 1, i + 2)  # a 3-tuple: wrapped as (None, value)
        else:
            value = f"plain{i}"
        producer.send("in", value)


def _fill_keyed(producer):
    for i in range(60):
        producer.send("in", f"value-{i}-ü", key=f"key{i % 4}" if i % 5 else None)


def _fill_unicode(producer):
    producer.send_values("in", UNICODE_LINES)


def _fill_empty(producer):
    pass


INPUTS = {
    "pairs": _fill_pairs,
    "keyed": _fill_keyed,
    "unicode": _fill_unicode,
    "empty": _fill_empty,
}


def _values(pcoll, rng):
    return pcoll | beam.Values()


def _keys(pcoll, rng):
    return pcoll | beam.Keys()


def _kv(pcoll, rng):
    return pcoll  # the KV pairs themselves reach EnsureKV


def _query(name):
    def build(pcoll, rng):
        return pcoll | beam.Values() | get_query(name).make_beam_transform(rng)

    return build


PIPELINES = {
    "values": _values,
    "keys": _keys,
    "kv": _kv,
    "grep": _query("grep"),
    "projection": _query("projection"),
    "sample": _query("sample"),
}

#: (input, pipeline) pairs: every pipeline that is defined on the input.
CASES = [
    ("pairs", "values"),
    ("pairs", "kv"),
    ("keyed", "keys"),
    ("keyed", "kv"),
    ("keyed", "values"),
    ("unicode", "grep"),
    ("unicode", "projection"),
    ("unicode", "sample"),
    ("empty", "values"),
    ("empty", "grep"),
]


def _runner(system: str, sim: Simulator, parallelism: int):
    rng = sim.random.stream("runs")
    if system == "flink":
        return FlinkRunner(FlinkCluster(sim), parallelism=parallelism, rng=rng)
    if system == "spark":
        return SparkRunner(
            SparkCluster(sim), parallelism=parallelism, rng=rng, records_per_batch=25
        )
    return ApexRunner(YarnCluster(sim), parallelism=parallelism, rng=rng)


def _run(system: str, input_name: str, pipeline_name: str, parallelism: int):
    """Run one pipeline in a fresh world; return everything observable."""
    sim = Simulator(seed=11)
    broker = BrokerCluster(sim, num_nodes=3)
    broker.create_topic("in")
    broker.create_topic("out")
    with Producer(broker, batch_size=16) as producer:
        INPUTS[input_name](producer)
    pipeline = beam.Pipeline(runner=_runner(system, sim, parallelism))
    pcoll = pipeline | kafka.read(broker, "in").without_metadata()
    pcoll = PIPELINES[pipeline_name](pcoll, sim.random.stream("data"))
    pcoll | kafka.write(broker, "out")
    job = pipeline.run().job_result
    log = broker.topic("out").partition(0)
    return {
        "values": log.read_values(0),
        "timestamps": list(log.read_timestamps(0)),
        "operators": {
            name: (op.records_in, op.records_out, op.busy_seconds)
            for name, op in job.metrics.operators.items()
        },
        "duration": job.duration,
        "records": (job.records_in, job.records_out),
        "clock": sim.now(),
    }


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("system", ["flink", "spark", "apex"])
@pytest.mark.parametrize(
    "input_name,pipeline_name", CASES, ids=[f"{i}-{p}" for i, p in CASES]
)
def test_tiers_bit_identical(
    monkeypatch, system, input_name, pipeline_name, parallelism
):
    observed = {}
    for tier, vectorized in TIERS.items():
        monkeypatch.setattr(StreamPump, "vectorized", vectorized)
        observed[tier] = _run(system, input_name, pipeline_name, parallelism)
    reference = observed["tuple"]
    if input_name != "empty" and pipeline_name != "sample":
        assert reference["values"], "the case must produce output"
    for field, value in reference.items():
        assert observed["kernel"][field] == value, f"{field} differs on kernel"


def test_cases_cover_the_adversarial_inputs():
    """The pairs case reaches the sink both as 2-tuples and as wrapped values."""
    result = _run("flink", "pairs", "values", 1)
    assert "v0" in result["values"]  # a 2-tuple value: (k, v) kept, v written
    assert (1, 2, 3) in result["values"]  # a 3-tuple: (None, value) written
    keyed = _run("spark", "keyed", "keys", 1)
    assert "key1" in keyed["values"] and None in keyed["values"]


class _Constructions:
    """Counts ``__init__`` calls of the broker's record types."""

    def __init__(self, monkeypatch) -> None:
        self.counts = {ConsumerRecord: 0, KafkaRecord: 0}
        for record_type in self.counts:
            original = record_type.__init__

            def counting(instance, *args, _original=original, _type=record_type, **kw):
                self.counts[_type] += 1
                _original(instance, *args, **kw)

            monkeypatch.setattr(record_type, "__init__", counting)


@pytest.mark.parametrize("system", ["flink", "spark", "apex"])
def test_kernel_tier_beam_cell_builds_no_records(monkeypatch, system):
    config = BenchmarkConfig(records=2_000, runs=1, kinds=("beam",))
    runner = MatrixRunner(config)
    cell = CellSpec(0, system, "identity", "beam", 1)
    built = _Constructions(monkeypatch)
    runs = runner.run_cell(cell)
    assert runs[0].records_out == 2_000
    assert built.counts == {ConsumerRecord: 0, KafkaRecord: 0}
    # The counter works: the tuple tier builds one KafkaRecord per input.
    monkeypatch.setattr(StreamPump, "vectorized", False)
    assert runner.run_cell(cell) == runs
    assert built.counts == {ConsumerRecord: 0, KafkaRecord: 2_000}


@pytest.mark.parametrize("system", ["flink", "apex"])
def test_beam_identity_sink_writes_the_read_value_column(monkeypatch, system):
    """On a keyless, slab-adopted input topic the Beam identity cell's
    sink gets ``withoutMetadata``'s pair column and writes the read's
    value strings themselves: no ``(key, value)`` pair is ever built."""
    from repro.beam.io.kafka import KafkaRead
    from repro.beam.runners import apex as apex_runner
    from repro.beam.runners import flink as flink_runner
    from repro.broker.log import PartitionLog
    from repro.dataflow.kernels import PairColumn

    adopted = []
    adopt = PartitionLog._adopt_column
    monkeypatch.setattr(
        PartitionLog,
        "_adopt_column",
        lambda log, view: (adopted.append(len(view)), adopt(log, view)),
    )
    reads = []
    read_records = KafkaRead.read_records
    monkeypatch.setattr(
        KafkaRead,
        "read_records",
        lambda read: reads.append(read_records(read)) or reads[-1],
    )
    sink = (
        flink_runner._BeamKafkaSink if system == "flink" else apex_runner._BeamKafkaOutput
    )
    chunks = []
    write = sink.write
    monkeypatch.setattr(
        sink, "write", lambda self, values: (chunks.append(values), write(self, values))
    )

    def no_pairs(*args):
        raise AssertionError("a (key, value) pair was built")

    monkeypatch.setattr(PairColumn, "__iter__", no_pairs)
    monkeypatch.setattr(PairColumn, "__getitem__", no_pairs)

    config = BenchmarkConfig(records=2_000, runs=1, kinds=("beam",))
    runs = MatrixRunner(config).run_cell(CellSpec(0, system, "identity", "beam", 1))
    assert runs[0].records_out == 2_000
    assert sum(adopted) >= 2_000  # the input topic holds the slab column
    column = reads[-1]
    assert column.keys is None
    assert chunks
    assert all(type(chunk) is PairColumn and chunk.keys is None for chunk in chunks)
    written = [value for chunk in chunks for value in chunk.values]
    assert len(written) == len(column.values) == 2_000
    assert all(map(operator.is_, written, column.values))
