"""KafkaIO: reading from and writing to the broker (paper Figure 13).

Mirrors the Java KafkaIO surface the paper describes: ``read()`` creates a
Read PTransform producing ``KafkaRecord`` elements; calling
``without_metadata()`` on it appends the ParDo that drops the Kafka
metadata, leaving KV pairs; ``write()`` expands into a ParDo ensuring KV
shape followed by the write primitive.  Those extra ParDos are precisely
the ``ParDoTranslation.RawParDo`` operators visible in the paper's Beam
execution plan.
"""

from __future__ import annotations

from typing import Any

from repro.beam.errors import BeamError
from repro.beam.pvalue import PBegin, PCollection, PDone, PValue
from repro.beam.transforms.core import DoFn, ParDo, PTransform
from repro.broker import BrokerCluster
from repro.broker.records import KafkaRecord, KafkaRecordColumn
from repro.dataflow.kernels import KernelSpec
from repro.engines.common.io import BoundedKafkaReader


class KafkaRead(PTransform):
    """The Read primitive: a root transform over a broker topic."""

    def __init__(
        self,
        cluster: BrokerCluster,
        topic: str,
        bounded: bool = True,
        label: str | None = None,
    ) -> None:
        super().__init__(label or f"KafkaIO.Read({topic})")
        self.cluster = cluster
        self.topic = topic
        self.bounded = bounded

    def expand(self, input_value: PValue) -> PCollection:
        if not isinstance(input_value, PBegin):
            raise BeamError("KafkaIO.Read must be applied to the pipeline root")
        return PCollection(input_value.pipeline, is_bounded=self.bounded)

    def read_records(self) -> KafkaRecordColumn:
        """The topic as a ``Sequence[KafkaRecord]`` (used by runners).

        A :class:`~repro.broker.records.KafkaRecordColumn`: records are
        built only where something indexes or iterates it, so the
        compiled kernels of ``withoutMetadata`` and the read translation's
        Flat Map never build one.
        """
        return BoundedKafkaReader(self.cluster, self.topic).read_column()


class _DropMetadataDoFn(DoFn):
    """``withoutMetadata()``: KafkaRecord → (key, value)."""

    cost_weight = 0.2
    kernel_spec = KernelSpec.kafka_kv()

    def process(self, element: KafkaRecord) -> tuple[tuple[Any, Any], ...]:
        return (element.kv(),)

    def default_label(self) -> str:
        return "withoutMetadata"


class ReadFromKafka(PTransform):
    """Composite read: the Read primitive plus optional metadata dropping.

    ``read(...).without_metadata()`` mirrors the Java builder chain the
    paper walks through when explaining Figure 13.
    """

    def __init__(
        self,
        cluster: BrokerCluster,
        topic: str,
        bounded: bool = True,
        label: str | None = None,
    ) -> None:
        super().__init__(label or f"ReadFromKafka({topic})")
        self.cluster = cluster
        self.topic = topic
        self.bounded = bounded
        self._without_metadata = False

    def without_metadata(self) -> "ReadFromKafka":
        """Drop Kafka metadata, producing KV pairs (returns self)."""
        self._without_metadata = True
        return self

    def expand(self, input_value: PValue) -> PCollection:
        pcoll = input_value.pipeline.apply(
            KafkaRead(self.cluster, self.topic, self.bounded, label=f"{self.label}/Read"),
            input_value,
        )
        if self._without_metadata:
            pcoll = input_value.pipeline.apply(
                ParDo(_DropMetadataDoFn(), label=f"{self.label}/withoutMetadata"),
                pcoll,
            )
        return pcoll


class _EnsureKvDoFn(DoFn):
    """``write()``'s input adapter: values become (None, value) pairs."""

    cost_weight = 0.2
    kernel_spec = KernelSpec.ensure_kv()

    def process(self, element: Any) -> tuple[tuple[Any, Any], ...]:
        if isinstance(element, tuple) and len(element) == 2:
            return (element,)
        return ((None, element),)

    def default_label(self) -> str:
        return "Kafka values to KV"


class KafkaWrite(PTransform):
    """The write primitive: terminal transform into a broker topic."""

    def __init__(self, cluster: BrokerCluster, topic: str, label: str | None = None) -> None:
        super().__init__(label or f"KafkaIO.Write({topic})")
        self.cluster = cluster
        self.topic = topic

    def expand(self, input_value: PValue) -> PDone:
        if not isinstance(input_value, PCollection):
            raise BeamError("KafkaIO.Write must be applied to a PCollection")
        return PDone(input_value.pipeline)


class WriteToKafka(PTransform):
    """Composite write: KV-shaping ParDo plus the write primitive."""

    def __init__(self, cluster: BrokerCluster, topic: str, label: str | None = None) -> None:
        super().__init__(label or f"WriteToKafka({topic})")
        self.cluster = cluster
        self.topic = topic

    def expand(self, input_value: PValue) -> PDone:
        pipeline = input_value.pipeline
        kvs = pipeline.apply(
            ParDo(_EnsureKvDoFn(), label=f"{self.label}/EnsureKV"), input_value
        )
        return pipeline.apply(
            KafkaWrite(self.cluster, self.topic, label=f"{self.label}/Write"), kvs
        )


def read(cluster: BrokerCluster, topic: str, bounded: bool = True) -> ReadFromKafka:
    """``kafka.read(...)``: builder-style entry point."""
    return ReadFromKafka(cluster, topic, bounded)


def write(cluster: BrokerCluster, topic: str) -> WriteToKafka:
    """``kafka.write(...)``: builder-style entry point."""
    return WriteToKafka(cluster, topic)
