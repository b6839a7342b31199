"""Per-layer host-time tracing, wrapped around the program from outside.

:class:`Tracer` replaces the public calls listed in :data:`PROBES` with
wrappers that record one span per call (name, start, end, parent) and
count the work each call did.  Nothing under ``src/`` changes: the
wrappers are installed on the classes and modules at run time and removed
again by :meth:`Tracer.uninstall`.

A layer's *self time* is the duration of its spans minus the part covered
by their child spans, so the self times of all layers plus ``other_s``
(wall time no span covers) add up to the traced wall time exactly.

Spans are recorded on the main thread only.  Work that the program fans
out to helper threads (the in-process shard plane on multi-core hosts)
still updates the counters, but its time shows as the self time of the
main-thread span that waited for it, ``dataflow.shard_s``.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    """Positional-or-keyword argument ``name`` (``index`` counts ``self``)."""
    return args[index] if len(args) > index else kwargs[name]


def _count_append(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    tracer.add("broker.append_calls", 1)
    if error is None:
        tracer.add("broker.append_records", len(_arg(args, kwargs, 1, "values")))
    elif type(error).__name__ == "QueueFullError":
        tracer.add("broker.append_rejects", 1)


def _count_poll(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    if error is None:
        values = result[0] if type(result) is tuple else result
        tracer.add("broker.poll_calls", 1)
        tracer.add("broker.poll_records", len(values))


def _count_sink(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    if error is None:
        tracer.add("broker.sink_records", len(_arg(args, kwargs, 2, "values")))


def _count_sender(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    if error is None:
        tracer.add("sender.retries", result.retries)


def _count_generated_n(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    if error is None:
        tracer.add("workloads.records", _arg(args, kwargs, 0, "num_records"))


def _count_lower(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    tracer.add("dataflow.lower_calls", 1)
    if result is not None:
        tracer.wrap_kernel_type(type(result))


def _count_shard(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    tracer.add("dataflow.shard_calls", 1)


def _count_read(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    if error is None and isinstance(result, list):
        # Record objects built per input record: the ConsumerRecords the
        # nested polls returned plus the list this call rebuilt from them.
        polled = tracer.counters.get("broker.poll_records", 0) - before
        tracer.add("beam.read_records", len(result))
        tracer.add("beam.read_objects", polled + len(result))


def _count_adapter_batch(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    tracer.add("beam.adapter_records", len(_arg(args, kwargs, 1, "values")))


def _count_adapter_one(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    tracer.add("beam.adapter_records", 1)


def _count_probe(tracer: "Tracer", args, kwargs, result, error, before) -> None:
    tracer.add("capacity.probes", 1)


@dataclass(frozen=True)
class Probe:
    """One public call to wrap: where it lives and what it measures."""

    module: str
    #: ``"function"`` or ``"Class.method"`` (properties are wrapped too).
    qualname: str
    #: Self-time metric its spans add to; ``None`` wraps for counting only.
    metric: str | None
    count: Callable[..., None] | None = None
    #: Calls made while a span of one of these metrics is innermost are
    #: passed through untraced (their time stays with that span).
    skip_under: frozenset[str] = frozenset()
    #: Counter whose value is handed to ``count`` as it was before the call.
    snapshot: str | None = None


_INGEST = frozenset({"sender.send_s", "loadgen.run_s"})

#: The wrapped calls, by layer (module) of the program.
PROBES: tuple[Probe, ...] = (
    Probe("repro.workloads.aol", "AolWorkload.columnar", "workloads.generate_s"),
    Probe("repro.workloads.aol", "AolWorkload.records", "workloads.generate_s"),
    Probe("repro.workloads.columnar", "generate_columns", None, _count_generated_n),
    Probe("repro.workloads.aol", "generate_records", None, _count_generated_n),
    Probe("repro.benchmark.sender", "DataSender.send", "sender.send_s", _count_sender),
    Probe("repro.broker.log", "PartitionLog.append_batch", "broker.append_s", _count_append),
    Probe("repro.broker.consumer", "Consumer.poll", "broker.poll_s", _count_poll),
    Probe("repro.broker.consumer", "Consumer.poll_values", "broker.poll_s", _count_poll),
    Probe(
        "repro.broker.producer",
        "Producer.send_values",
        "broker.sink_s",
        _count_sink,
        skip_under=_INGEST,
    ),
    Probe("repro.dataflow.compiler", "lower_stage", "dataflow.lower_s", _count_lower),
    Probe("repro.dataflow.sharding", "run_shard_tasks", "dataflow.shard_s", _count_shard),
    Probe("repro.engines.common.pump", "StreamPump.run", "engines.pump_s"),
    Probe("repro.engines.common.sharded", "ShardedPump.process_chunk", "engines.sharded_s"),
    Probe(
        "repro.engines.flink.datastream",
        "StreamExecutionEnvironment.execute",
        "engines.submit_s",
    ),
    Probe("repro.engines.spark.streaming", "StreamingContext.run", "engines.submit_s"),
    Probe("repro.engines.apex.launcher", "ApexLauncher.launch", "engines.submit_s"),
    Probe(
        "repro.beam.io.kafka",
        "KafkaRead.read_records",
        "beam.read_s",
        _count_read,
        snapshot="broker.poll_records",
    ),
    Probe(
        "repro.beam.runners.util",
        "DoFnAdapter.process_batch",
        "beam.adapter_s",
        _count_adapter_batch,
    ),
    Probe("repro.beam.runners.util", "DoFnAdapter.process", "beam.adapter_s", _count_adapter_one),
    Probe("repro.beam.pipeline", "Pipeline.run", "beam.translate_s"),
    Probe(
        "repro.benchmark.result_calculator",
        "ResultCalculator.measure",
        "result_calculator.measure_s",
    ),
    Probe("repro.benchmark.capacity", "run_probe", "capacity.probe_s", _count_probe),
    Probe("repro.benchmark.loadgen", "LoadGenerator.run", "loadgen.run_s"),
)

KERNEL_METRIC = "dataflow.kernel_s"

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {
    "workloads.generate_s": "s",
    "workloads.records": "count",
    "sender.send_s": "s",
    "sender.retries": "count",
    "broker.append_s": "s",
    "broker.append_calls": "count",
    "broker.append_records": "count",
    "broker.append_reject_share": "ratio",
    "broker.poll_s": "s",
    "broker.poll_calls": "count",
    "broker.poll_records": "count",
    "broker.sink_s": "s",
    "broker.sink_records": "count",
    "dataflow.lower_s": "s",
    "dataflow.lower_calls": "count",
    KERNEL_METRIC: "s",
    "dataflow.kernel_records": "count",
    "dataflow.shard_s": "s",
    "dataflow.shard_calls": "count",
    "engines.pump_s": "s",
    "engines.sharded_s": "s",
    "engines.submit_s": "s",
    "beam.read_s": "s",
    "beam.read_objects_per_record": "count",
    "beam.adapter_s": "s",
    "beam.adapter_records": "count",
    "beam.translate_s": "s",
    "result_calculator.measure_s": "s",
    "capacity.probe_s": "s",
    "capacity.probes": "count",
    "loadgen.run_s": "s",
    "other_s": "s",
}

#: The self-time metrics: every span adds to exactly one of these.
TIME_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items() if unit == "s" and name != "other_s"
)


def preload() -> None:
    """Import every module a probe names, so neither run pays it inside timing."""
    for probe in PROBES:
        try:
            importlib.import_module(probe.module)
        except ImportError:
            pass


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs the wrappers and starts
    the wall clock, leaving stops it and removes them again.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        #: ``(name, metric, start, end, parent index or -1)`` per span.
        self.spans: list[tuple[str, str, float, float, int] | None] = []
        #: Probes whose target does not exist in this version of the program.
        self.missing: list[str] = []
        self.started = 0.0
        self.wall = 0.0
        self._covered = 0.0
        self._stack: list[list] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any, bool]] = []
        self._kernel_types: set[type] = set()

    # -- counters ------------------------------------------------------
    def add(self, name: str, value: float) -> None:
        # Shard-plane helper threads count too, so updates take the lock.
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- installation --------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        self.started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = perf_counter() - self.started
        self.uninstall()

    def install(self) -> None:
        for probe in PROBES:
            self._install(probe)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._kernel_types.clear()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def _install(self, probe: Probe) -> None:
        try:
            module = importlib.import_module(probe.module)
        except ImportError:
            self.missing.append(f"{probe.module}.{probe.qualname}")
            return
        owner_name, _, attr = probe.qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{probe.module}.{probe.qualname}")
            return
        if isinstance(original, property):
            wrapped = property(
                self._wrap(probe, original.fget), original.fset, original.fdel,
                original.__doc__,
            )
            self._set(owner, attr, wrapped)
            return
        wrapper = self._wrap(probe, original)
        if owner_name:
            self._set(owner, attr, wrapper)
            return
        # A module-level function: rebind every name that refers to it, so
        # ``from module import function`` call sites are wrapped too.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def wrap_kernel_type(self, kernel_type: type) -> None:
        """Wrap ``__call__``/``call_slab`` of a kernel class ``lower_stage`` built."""
        if kernel_type in self._kernel_types:
            return
        self._kernel_types.add(kernel_type)
        for attr in ("__call__", "call_slab"):
            original = getattr(kernel_type, attr, None)
            if original is not None:
                self._set(kernel_type, attr, self._wrap_kernel(original, attr))

    # -- wrappers ------------------------------------------------------
    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self
        metric = probe.metric
        count = probe.count
        skip_under = probe.skip_under
        snapshot = probe.snapshot
        name = probe.qualname

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if threading.get_ident() != tracer._main or metric is None:
                result = original(*args, **kwargs)
                if count is not None:
                    count(tracer, args, kwargs, result, None, 0)
                return result
            if stack and stack[-1][1] in skip_under:
                return original(*args, **kwargs)
            before = tracer.counters.get(snapshot, 0) if snapshot else 0
            result = error = None
            frame = tracer._open(name, metric)
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(frame)
                if count is not None:
                    count(tracer, args, kwargs, result, error, before)

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_kernel(self, original: Callable, attr: str) -> Callable:
        tracer = self
        # ``kernel(values)`` / ``kernel.call_slab(slab, base, values)``
        values_at = 0 if attr == "__call__" else 2

        def wrapper(kernel, *args, **kwargs):
            values = args[values_at]
            if threading.get_ident() != tracer._main:
                tracer.add("dataflow.kernel_records", len(values))
                return original(kernel, *args, **kwargs)
            stack = tracer._stack
            # Nested kernels (chain members) count their records once, at
            # the outermost kernel call.
            if not (stack and stack[-1][1] == KERNEL_METRIC):
                tracer.add("dataflow.kernel_records", len(values))
            frame = tracer._open(f"{type(kernel).__name__}.{attr}", KERNEL_METRIC)
            try:
                return original(kernel, *args, **kwargs)
            finally:
                tracer._close(frame)

        wrapper.__wrapped__ = original
        return wrapper

    def _open(self, name: str, metric: str) -> list:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, metric, name, stack[-1][0] if stack else -1, 0.0, 0.0]
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        index, metric, name, parent, start, children = frame
        self._stack.pop()
        duration = end - start
        self.self_time[metric] = self.self_time.get(metric, 0.0) + duration - children
        if self._stack:
            self._stack[-1][5] += duration
        else:
            self._covered += duration
        self.spans[index] = (name, metric, start, end, parent)

    # -- results -------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS` for the finished trace."""
        counters = self.counters
        values: dict[str, float] = {}
        for name, unit in LAYER_METRICS.items():
            if unit == "s":
                values[name] = self.self_time.get(name, 0.0)
            else:
                values[name] = counters.get(name, 0)
        calls = counters.get("broker.append_calls", 0)
        values["broker.append_reject_share"] = (
            counters.get("broker.append_rejects", 0) / calls if calls else 0.0
        )
        read = counters.get("beam.read_records", 0)
        values["beam.read_objects_per_record"] = (
            counters.get("beam.read_objects", 0) / read if read else 0.0
        )
        values["other_s"] = self.wall - self._covered
        return values

    def write_chrome_trace(self, path, metadata: dict | None = None) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``)."""
        events = []
        for index, span in enumerate(self.spans):
            if span is None:  # still open: cannot happen after __exit__
                continue
            name, metric, start, end, parent = span
            events.append(
                {
                    "name": name,
                    "cat": metric,
                    "ph": "X",
                    "ts": round((start - self.started) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": index, "parent": parent},
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata or {},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
