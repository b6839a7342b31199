"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from bench_trace import TIME_METRICS, Tracer  # noqa: E402
from bench_workloads import (  # noqa: E402
    WORKLOADS,
    GridWorkload,
    ScalabilityWorkload,
    sample_reference_count,
)

SEED = 11

TINY_NATIVE = GridWorkload(
    "tiny-native",
    kind="native",
    records=3_000,
    systems=("flink",),
    queries=("identity", "sample", "grep"),
    setup_repeats=2,
)
TINY_BEAM = GridWorkload(
    "tiny-beam",
    kind="beam",
    records=2_000,
    systems=("spark", "apex"),
    queries=("sample", "projection"),
    parallelisms=(1,),
    setup_repeats=2,
)
TINY_SWEEP = ScalabilityWorkload(
    "tiny-sweep",
    systems=("flink",),
    queries=("grep", "statistics"),
    parallelisms=(1, 2),
    probe_records=600,
    setup_repeats=2,
)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries: list[dict]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", [TINY_NATIVE, TINY_SWEEP], ids=lambda w: w.name)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload, tmp_path):
    metrics, passes = run.measure(workload, SEED, 0.0, tmp_path)
    emitted = {name: unit for name, (value, unit) in metrics.items()}
    assert emitted == _units(_spec()["end_to_end"])
    for name, (value, unit) in metrics.items():
        assert math.isfinite(value) and value > 0, name
    attempted, failed, problems = run.check_passes(workload, SEED, passes)
    assert attempted > 0 and failed == 0 and not problems


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path):
    metrics, passes = run.trace(
        TINY_BEAM, SEED, tmp_path, tmp_path / "trace.json", {"test": True}
    )
    emitted = {name: unit for name, (value, unit) in metrics.items()}
    assert emitted == _units(_spec()["per_layer"])
    document = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    assert document["traceEvents"] and document["otherData"]["test"] is True
    values = {name: value for name, (value, unit) in metrics.items()}
    # The Beam read rebuilds each polled ConsumerRecord as a KafkaRecord.
    assert values["beam.read_objects_per_record"] == 2.0
    assert values["beam.adapter_records"] > 0
    assert values["capacity.probes"] == 0


def test_wrong_expected_count_is_a_failed_unit():
    expected = TINY_NATIVE.expectations(SEED)
    key = ("flink", "grep", 2)
    expected[key] += 1
    result = TINY_NATIVE.run_pass(SEED, expected)
    failed = [unit for unit in result.units if not unit.ok]
    assert [unit.name for unit in failed] == ["flink/grep/native/p2"]
    attempted, count, problems = run.check_passes(TINY_NATIVE, SEED, [result])
    assert (attempted, count) == (len(result.units), 1)
    assert problems


def test_sample_reference_matches_the_program():
    expected = TINY_BEAM.expectations(SEED)
    result = TINY_BEAM.run_pass(SEED, expected)
    assert all(unit.ok for unit in result.units)
    label = "default/apex/sample/beam/p1"
    assert expected[("apex", "sample", 1)] == sample_reference_count(
        SEED, label, TINY_BEAM.records
    )
    assert 0 < expected[("apex", "sample", 1)] < TINY_BEAM.records


def test_self_times_plus_other_equal_traced_wall(tmp_path):
    expected = TINY_SWEEP.expectations(SEED)
    with Tracer() as tracer:
        TINY_SWEEP.cold_setup(SEED, tmp_path)
        TINY_SWEEP.run_pass(SEED, expected)
    values = tracer.layer_metrics()
    total = sum(values[name] for name in TIME_METRICS) + values["other_s"]
    assert total == pytest.approx(tracer.wall, rel=1e-9, abs=1e-9)
    assert values["capacity.probes"] > 0 and values["loadgen.run_s"] > 0
    assert not tracer.missing


def test_tracer_uninstall_restores_the_program():
    from repro.broker.consumer import Consumer
    from repro.dataflow.compiler import lower_stage
    from repro.engines.common import sharded

    before = (Consumer.poll, lower_stage, sharded.run_shard_tasks)
    with Tracer():
        assert Consumer.poll is not before[0]
    from repro.dataflow.compiler import lower_stage as after_lower

    assert (Consumer.poll, after_lower, sharded.run_shard_tasks) == before


def test_missing_probe_targets_read_zero(monkeypatch):
    import bench_trace

    gone = (
        bench_trace.Probe("repro.dataflow.sharding", "GoneClass.run", "dataflow.shard_s"),
        bench_trace.Probe("repro.gone_module", "gone", "dataflow.shard_s"),
    )
    monkeypatch.setattr(bench_trace, "PROBES", gone)
    with Tracer() as tracer:
        pass
    assert tracer.missing == [
        "repro.dataflow.sharding.GoneClass.run",
        "repro.gone_module.gone",
    ]
    assert tracer.layer_metrics()["dataflow.shard_s"] == 0.0


@pytest.mark.parametrize("workload", [TINY_NATIVE, TINY_SWEEP], ids=lambda w: w.name)
def test_same_seed_gives_same_digest(workload):
    expected = workload.expectations(SEED)
    first = workload.run_pass(SEED, expected)
    second = workload.run_pass(SEED, expected)
    assert first.digest is not None and first.digest == second.digest


def test_cold_setup_leaves_no_cache_behind(tmp_path):
    assert TINY_NATIVE.cold_setup(SEED, tmp_path) > 0
    assert list(tmp_path.iterdir()) == []


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-native",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
