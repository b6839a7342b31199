"""The benchmark's workloads: what one pass runs, how set-up is timed,
and how every unit's output is checked.

A *unit* is one grid cell (:class:`GridWorkload`) or one capacity probe
(:class:`ScalabilityWorkload`).  Both run through the program's serial
paths only — ``MatrixRunner.run(parallel=False)`` and
``CapacityRunner.run_scalability(parallel=False)`` — so no process pool
is ever forked.  Units are timed from outside: the grid through a
``MatrixRunner`` subclass whose ``run_cell`` is the serial path's
per-cell hook, the sweep by wrapping ``capacity.run_probe``.

The checks do not call the query functions.  Expected counts come from
the generator's parameters (``expected_grep_matches``) and from a
reference replay of the sample query's RNG stream; a SHA-256 digest over
the simulated report fields is compared against ``digests.json`` at the
default seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

import repro.benchmark.capacity as capacity
from repro.benchmark.config import (
    SYSTEMS,
    STATELESS_QUERIES,
    BenchmarkConfig,
    CapacitySettings,
)
from repro.benchmark.parallel import MatrixRunner
from repro.benchmark.queries import SAMPLE_FRACTION
from repro.simtime.randomness import RandomSource
from repro.workloads.aol import AolWorkload, expected_grep_matches
from repro.workloads.cache import CACHE_DIR_ENV, clear_memo
from repro.workloads.columnar import columnar_enabled

#: The paper-calibrated campaign seed (``BenchmarkConfig.seed``'s default).
DEFAULT_SEED = BenchmarkConfig().seed

DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")


@dataclass
class Unit:
    """One timed unit: a grid cell or a capacity probe."""

    name: str
    start: float
    end: float
    #: Simulated input records the unit pushed through the program.
    records: int
    ok: bool
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    """One full run of a workload's units, in their fixed order."""

    units: list[Unit] = field(default_factory=list)
    #: SHA-256 over the simulated report fields (``None`` if the pass broke).
    digest: str | None = None
    #: Why the pass stopped early, if it did.
    error: str = ""

    @property
    def wall(self) -> float:
        """Host seconds from the first unit's start to the last unit's end."""
        if not self.units:
            return 0.0
        return self.units[-1].end - self.units[0].start


class _FirstUnit(Exception):
    """Raised at the first unit of a set-up measurement to stop the run there."""

    def __init__(self) -> None:
        super().__init__("first unit reached")
        self.at = perf_counter()


@contextlib.contextmanager
def private_cache(parent: pathlib.Path) -> Iterator[pathlib.Path]:
    """A cold start: empty in-process memo and an empty workload-cache directory."""
    parent.mkdir(parents=True, exist_ok=True)
    directory = pathlib.Path(tempfile.mkdtemp(prefix="cache-", dir=parent))
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(directory)
    clear_memo()
    try:
        yield directory
    finally:
        if previous is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = previous
        shutil.rmtree(directory, ignore_errors=True)


def digest(rows: list) -> str:
    """SHA-256 of simulated report rows (floats kept to every digit)."""
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    """The digest pinned for ``workload`` at ``seed``, if one is."""
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def sample_reference_count(seed: int, label: str, records: int) -> int:
    """Records the sample query keeps: a replay of its ``data/{label}`` draws."""
    draw = RandomSource(seed).stream(f"data/{label}").random
    return sum(draw() < SAMPLE_FRACTION for _ in range(records))


class _CellHookRunner(MatrixRunner):
    """A ``MatrixRunner`` whose serial path hands every cell to ``hook``."""

    def __init__(self, config: BenchmarkConfig, hook: Callable) -> None:
        super().__init__(config)
        self._hook = hook

    def run_cell(self, cell):
        return self._hook(cell, super().run_cell)


@dataclass(frozen=True)
class GridWorkload:
    """The paper grid of one SDK kind: system × query × parallelism cells."""

    name: str
    kind: str
    records: int
    systems: tuple[str, ...] = SYSTEMS
    queries: tuple[str, ...] = STATELESS_QUERIES
    parallelisms: tuple[int, ...] = (1, 2)
    #: Cold set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 5

    def config(self, seed: int) -> BenchmarkConfig:
        return BenchmarkConfig(
            records=self.records,
            kinds=(self.kind,),
            systems=self.systems,
            queries=self.queries,
            parallelisms=self.parallelisms,
            seed=seed,
        )

    def expectations(self, seed: int) -> dict[tuple[str, str, int], int]:
        """Expected ``records_out`` per cell, computed without the queries."""
        config = self.config(seed)
        expected = {}
        for system in self.systems:
            for query in self.queries:
                for parallelism in self.parallelisms:
                    if query == "grep":
                        count = expected_grep_matches(self.records)
                    elif query == "sample":
                        label = (
                            f"{config.noise_label}/{system}/{query}/"
                            f"{self.kind}/p{parallelism}"
                        )
                        count = sample_reference_count(seed, label, self.records)
                    else:  # identity and projection emit one record per input
                        count = self.records
                    expected[(system, query, parallelism)] = count
        return expected

    def cold_setup(self, seed: int, cache_parent: pathlib.Path) -> float:
        """Host seconds from a cold start to the first cell."""

        def stop(cell, run_cell):
            raise _FirstUnit()

        with private_cache(cache_parent):
            runner = _CellHookRunner(self.config(seed), stop)
            started = perf_counter()
            try:
                runner.run(parallel=False)
            except _FirstUnit as first:
                return first.at - started
        raise RuntimeError(f"{self.name}: the grid has no cells")

    def run_pass(self, seed: int, expected: dict) -> Pass:
        config = self.config(seed)
        result = Pass()

        def timed(cell, run_cell):
            name = f"{cell.system}/{cell.query}/{cell.kind}/p{cell.parallelism}"
            start = perf_counter()
            try:
                runs = run_cell(cell)
            except Exception as exc:  # a failing cell is a failed unit
                result.units.append(
                    Unit(name, start, perf_counter(), config.records, False, repr(exc))
                )
                return []
            end = perf_counter()
            want = expected[(cell.system, cell.query, cell.parallelism)]
            got = {run.records_out for run in runs}
            ok = got == {want} and len(runs) == config.runs
            detail = "" if ok else f"records_out {sorted(got)} != {want}"
            result.units.append(Unit(name, start, end, config.records, ok, detail))
            return runs

        report = _CellHookRunner(config, timed).run(parallel=False)
        rows = [list(dataclasses.astuple(run)) for run in report.runs]
        rows.append(list(dataclasses.astuple(report.sender_report)))
        result.digest = digest(rows)
        return result


@dataclass(frozen=True)
class ScalabilityWorkload:
    """The capacity-knee sweep over system × kind × query × parallelism."""

    name: str
    systems: tuple[str, ...] = ("flink", "apex")
    kinds: tuple[str, ...] = ("native", "beam")
    queries: tuple[str, ...] = ("grep", "sample", "statistics", "windowed")
    parallelisms: tuple[int, ...] = (1, 2, 4)
    #: Records per probe (the ``CapacitySettings`` default unless shrunk).
    probe_records: int = CapacitySettings().records
    setup_repeats: int = 40

    def config(self, seed: int) -> BenchmarkConfig:
        return BenchmarkConfig(
            seed=seed,
            systems=self.systems,
            queries=self.queries,
            capacity=CapacitySettings(
                records=self.probe_records,
                parallelisms=self.parallelisms,
                kinds=self.kinds,
            ),
        )

    def expectations(self, seed: int) -> dict:
        return {}

    @contextlib.contextmanager
    def _probe_hook(self, hook: Callable) -> Iterator[None]:
        original = capacity.run_probe

        def wrapped(*args, **kwargs):
            return hook(original, args, kwargs)

        capacity.run_probe = wrapped
        try:
            yield
        finally:
            capacity.run_probe = original

    def _load_probe_workload(self, config: BenchmarkConfig):
        """Generate the probe workload on the data plane ``run_probe`` reads."""
        workload = AolWorkload(config.capacity.records, seed=config.seed)
        return workload.columnar() if columnar_enabled() else workload.records

    def cold_setup(self, seed: int, cache_parent: pathlib.Path) -> float:
        """Host seconds from a cold start (probe workload not yet generated)
        to the first probe."""

        def stop(original, args, kwargs):
            raise _FirstUnit()

        config = self.config(seed)
        with private_cache(cache_parent), self._probe_hook(stop):
            started = perf_counter()
            try:
                self._load_probe_workload(config)
                capacity.CapacityRunner(config).run_scalability(parallel=False)
            except _FirstUnit as first:
                return first.at - started
        raise RuntimeError(f"{self.name}: the sweep has no probes")

    def run_pass(self, seed: int, expected: dict) -> Pass:
        config = self.config(seed)
        records = config.capacity.records
        result = Pass()

        def timed(original, args, kwargs):
            system, query, rate = args[1:4]
            name = (
                f"{system}/{query}/{kwargs.get('kind')}/"
                f"p{kwargs.get('parallelism')}@{rate:.6g}"
            )
            start = perf_counter()
            try:
                probe = original(*args, **kwargs)
            except Exception as exc:
                result.units.append(
                    Unit(name, start, perf_counter(), records, False, repr(exc))
                )
                raise
            end = perf_counter()
            balanced = probe.offered == probe.accepted + probe.shed
            ok = balanced and probe.shed == 0 and probe.offered == records
            detail = "" if ok else (
                f"offered {probe.offered} accepted {probe.accepted} shed {probe.shed}"
            )
            result.units.append(Unit(name, start, end, records, ok, detail))
            return probe

        try:
            with self._probe_hook(timed):
                report = capacity.CapacityRunner(config).run_scalability(
                    parallel=False
                )
        except Exception as exc:  # the failed probe is already counted
            result.error = repr(exc)
            return result
        # ``effective_parallelism`` is host metadata, so it stays out.
        result.digest = digest(
            [list(dataclasses.astuple(cell)) for cell in report.cells]
        )
        return result


#: The workloads ``run.py --workload`` accepts.
WORKLOADS = {
    "paper-native": GridWorkload("paper-native", kind="native", records=1_000_001),
    "paper-beam": GridWorkload(
        "paper-beam", kind="beam", records=100_000, setup_repeats=15
    ),
    "scalability": ScalabilityWorkload("scalability"),
}
