"""Record types exchanged with the broker."""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterable, Iterator


class TimestampType(enum.Enum):
    """How the timestamp stored with a record was assigned.

    The paper configures Kafka to use ``LogAppendTime`` so that execution
    times can be derived purely from broker-side timestamps (Section
    III-A-3).  ``CreateTime`` (producer-assigned) is also supported so tests
    can demonstrate the difference.
    """

    CREATE_TIME = "CreateTime"
    LOG_APPEND_TIME = "LogAppendTime"


@dataclass(frozen=True, slots=True)
class ProducerRecord:
    """A record as handed to a producer: destination plus key/value.

    ``partition`` may be set to pin the record to a partition; otherwise the
    producer's partitioner chooses one.  ``timestamp`` is the producer-side
    create time; it is preserved only when the topic uses ``CreateTime``.
    """

    topic: str
    value: Any
    key: Any = None
    partition: int | None = None
    timestamp: float | None = None


@dataclass(frozen=True, slots=True)
class ConsumerRecord:
    """A record as returned from a fetch: position plus key/value/timestamp.

    Benchmark runs materialise millions of these; ``slots=True`` keeps each
    instance to a fixed-size struct (no per-record ``__dict__``).
    """

    topic: str
    partition: int
    offset: int
    timestamp: float
    timestamp_type: TimestampType
    key: Any
    value: Any

    def __repr__(self) -> str:  # compact, logs are full of these
        return (
            f"ConsumerRecord({self.topic}-{self.partition}@{self.offset}, "
            f"t={self.timestamp:.6f}, key={self.key!r}, value={self.value!r})"
        )


@dataclass(frozen=True, slots=True)
class KafkaRecord:
    """A record as produced by the Beam KafkaIO Read transform (with metadata).

    The Beam layer re-exports it as ``repro.beam.io.kafka.KafkaRecord``;
    it lives with the broker record types so that
    :class:`KafkaRecordColumn` (and the compiled kernels that read one)
    need no Beam import.
    """

    topic: str
    partition: int
    offset: int
    timestamp: float
    key: Any
    value: Any

    def kv(self) -> tuple[Any, Any]:
        """The (key, value) view used by ``withoutMetadata``."""
        return (self.key, self.value)


def concat_keys(parts: Iterable[tuple[int, list | None]]) -> list | None:
    """Concatenate per-chunk key columns; ``None`` means all-``None`` keys.

    ``parts`` holds one ``(row_count, keys)`` pair per chunk, where
    ``keys`` is ``None`` for a chunk without a key column (an adopted
    value column).  The result is ``None`` when no chunk carries keys,
    otherwise one list with the missing keys filled in as ``None``.
    """
    parts = list(parts)
    if all(keys is None for _, keys in parts):
        return None
    out: list = []
    for count, keys in parts:
        out.extend([None] * count if keys is None else keys)
    return out


class KafkaRecordColumn(Sequence):
    """A bounded topic read as parallel columns, viewed as KafkaRecords.

    What :meth:`repro.engines.common.io.BoundedKafkaReader.read_column`
    returns and the Beam KafkaIO read hands to the runners.  The rows are
    partition-major, offset order within a partition.  ``values`` is a
    list, ``timestamps`` an ``array('d')`` and ``keys`` a list or
    ``None`` (no record carries a key).  ``segments`` holds one
    ``(row_start, row_stop, partition, first_offset)`` entry per
    partition.  ``start``/``stop`` bound this window's rows.

    The column is an immutable ``Sequence[KafkaRecord]``: ``len`` and
    slicing (a new window over the same columns) build nothing, while
    indexing, iteration and extended slices (``[::step]``, a list) build
    each :class:`KafkaRecord` on demand, so per-record consumers see
    exactly the elements a record list would hold.  The compiled kernels
    read the columns directly: ``withoutMetadata`` slices the window's key
    and value columns into a :class:`~repro.dataflow.kernels.PairColumn`.
    """

    __slots__ = ("topic", "values", "timestamps", "keys", "segments", "start", "stop")

    def __init__(
        self,
        topic: str,
        values: list,
        timestamps: Sequence[float],
        keys: list | None,
        segments: tuple[tuple[int, int, int, int], ...],
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        self.topic = topic
        self.values = values
        self.timestamps = timestamps
        self.keys = keys
        self.segments = segments
        self.start = start
        self.stop = len(values) if stop is None else stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self._record(self.start + i) for i in range(start, stop, step)]
            return KafkaRecordColumn(
                self.topic,
                self.values,
                self.timestamps,
                self.keys,
                self.segments,
                self.start + start,
                self.start + max(start, stop),
            )
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record column index out of range")
        return self._record(self.start + index)

    def __iter__(self) -> Iterator[KafkaRecord]:
        topic, values, timestamps, keys = (
            self.topic, self.values, self.timestamps, self.keys,
        )
        for row_start, row_stop, partition, first_offset in self.segments:
            lo = max(self.start, row_start)
            hi = min(self.stop, row_stop)
            if lo >= hi:
                continue
            offset = first_offset + lo - row_start
            yield from map(
                KafkaRecord,
                repeat(topic),
                repeat(partition),
                range(offset, offset + hi - lo),
                timestamps[lo:hi],
                repeat(None) if keys is None else keys[lo:hi],
                values[lo:hi],
            )

    def _record(self, row: int) -> KafkaRecord:
        for row_start, row_stop, partition, first_offset in self.segments:
            if row < row_stop:
                return KafkaRecord(
                    self.topic,
                    partition,
                    first_offset + row - row_start,
                    self.timestamps[row],
                    None if self.keys is None else self.keys[row],
                    self.values[row],
                )
        raise IndexError("record column index out of range")  # pragma: no cover

    def __repr__(self) -> str:
        return f"KafkaRecordColumn({self.topic!r}, rows {self.start}:{self.stop})"
