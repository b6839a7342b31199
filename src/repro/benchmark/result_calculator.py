"""The result calculator (benchmark phase 3, paper Figure 5).

Execution time is derived purely from broker-side **LogAppendTime**
timestamps: the difference between the first and the last record appended
to the result topic.  The paper stresses why: definitions of performance
metrics vary between systems, so system-reported numbers are not
comparable, while the overhead between computing a result and having it
appended to the broker log is identical for every system under test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker import BrokerCluster
from repro.broker.records import TimestampType
from repro.broker.retry import RetryPolicy, run_with_retries


@dataclass(frozen=True, slots=True)
class ExecutionMeasurement:
    """Broker-derived measurement of one query execution."""

    topic: str
    records: int
    first_timestamp: float | None
    last_timestamp: float | None

    @property
    def execution_time(self) -> float:
        """Seconds between the first and last result append.

        Zero for empty or single-record outputs.
        """
        if self.first_timestamp is None or self.last_timestamp is None:
            return 0.0
        return self.last_timestamp - self.first_timestamp


class ResultCalculator:
    """Reads a result topic and computes the execution time.

    ``retry_policy`` (defaulting to the cluster-wide policy installed by an
    attached chaos schedule) lets the measurement phase ride out broker
    faults: the read of each partition is guarded and retried like any
    consumer fetch.  Retries happen *after* the run under measurement, so
    they never distort the LogAppendTime-derived execution time itself.
    """

    def __init__(
        self, cluster: BrokerCluster, retry_policy: RetryPolicy | None = None
    ) -> None:
        self.cluster = cluster
        self.retry_policy = retry_policy
        self._retry_rng = cluster.simulator.random.stream(
            f"broker/retry/calculator-{cluster.register_client()}"
        )

    def measure(self, topic: str) -> ExecutionMeasurement:
        """Measure the execution recorded in ``topic``.

        Requires the topic to use LogAppendTime — with producer-assigned
        timestamps the measurement would no longer be system-independent,
        so this raises ``ValueError`` instead of silently measuring wrong.

        The measurement is fully columnar: each partition's bounds come
        off its ``array('d')`` timestamp column in one guarded
        :meth:`~repro.broker.log.PartitionLog.timestamp_bounds` read — no
        result record is ever materialised, whichever log storage holds
        the topic.
        """
        topic_obj = self.cluster.topic(topic)
        if topic_obj.config.timestamp_type is not TimestampType.LOG_APPEND_TIME:
            raise ValueError(
                f"topic {topic!r} does not use LogAppendTime; execution "
                "times would not be comparable across systems"
            )
        first: float | None = None
        last: float | None = None
        total = 0
        for index, partition in enumerate(topic_obj.partitions):

            def attempt(index: int = index, partition=partition):
                self.cluster.guard_request(topic, index)
                bounds = partition.timestamp_bounds()
                if bounds is None:
                    return len(partition), None, None
                return (len(partition),) + bounds

            policy = self.retry_policy or self.cluster.default_retry_policy
            if policy is not None:
                count, p_first, p_last = run_with_retries(
                    self.cluster.simulator, policy, self._retry_rng, attempt
                )
            else:
                count, p_first, p_last = attempt()
            total += count
            if p_first is not None and (first is None or p_first < first):
                first = p_first
            if p_last is not None and (last is None or p_last > last):
                last = p_last
        return ExecutionMeasurement(
            topic=topic, records=total, first_timestamp=first, last_timestamp=last
        )
