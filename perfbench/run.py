"""Host-time benchmark of the paper grid and the scalability sweep.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-native --seed 3972 --seconds 10 --trace 0

Each invocation is one fresh process running one workload through the
program's serial paths.  With ``--trace 0`` it times cold set-ups and
then whole passes over the workload's units until ``--seconds`` have
passed, and reports the end-to-end metrics.  With ``--trace 1`` it runs
one untraced and one traced pass (each after a cold set-up) and reports
the per-layer metrics of the traced one, ``other_s`` and the tracing
overhead; the spans are written as Chrome trace-event JSON under
``.perfbench_run/``.

Every unit's output is checked.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"

#: Units of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "unit_p50_s": "s",
    "unit_p95_s": "s",
    "peak_rss_mb": "MB",
}


def clean_environment(work_dir: pathlib.Path) -> None:
    """Production defaults: drop every ``REPRO_*`` knob, then give the run a
    private, empty workload cache and keep temporary files in ``work_dir``."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_WORKLOAD_CACHE_DIR"] = str(work_dir / "workload-cache")
    os.environ["TMPDIR"] = str(work_dir)
    tempfile.tempdir = str(work_dir)


def peak_rss_mb() -> float:
    """Peak resident memory (``VmHWM``) of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _call(module: str, function: str):
    """``module.function()``, or ``None`` where this version lacks it."""
    import importlib

    try:
        return getattr(importlib.import_module(module), function)()
    except (ImportError, AttributeError, ValueError):
        return None


def provenance() -> dict:
    """Resolved knob set, host facts and program version of this run."""
    import numpy

    knobs = {
        "columnar_plane": _call("repro.workloads.columnar", "columnar_enabled"),
        "native_generator": _call("repro.workloads.columnar", "native_enabled"),
        "workload_disk_cache": _call("repro.workloads.cache", "disk_cache_enabled"),
        "workload_cache_dir": os.environ.get("REPRO_WORKLOAD_CACHE_DIR"),
        "broker_nodes": _call("repro.broker.broker", "default_num_nodes"),
        "query_parallelism": _call("repro.dataflow.sharding", "query_parallelism"),
        "shard_min_chunk": _call("repro.dataflow.sharding", "shard_min_chunk"),
        "repro_env": sorted(n for n in os.environ if n.startswith("REPRO_")),
    }
    return {
        "knobs": knobs,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_generator_available": _call(
            "repro.workloads.columnar", "native_generator_available"
        ),
        "git_commit": git_commit(),
    }


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; a single value is itself)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_passes(workload, seed: int, passes: list) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every unit of every pass."""
    from bench_workloads import pinned_digest

    units = [unit for one in passes for unit in one.units]
    failed = sum(not unit.ok for unit in units)
    problems = [f"{unit.name}: {unit.detail}" for unit in units if not unit.ok]
    problems += [one.error for one in passes if one.error]
    digests = {one.digest for one in passes}
    print(f"# report digest(s): {sorted(d or 'none' for d in digests)}")
    if None in digests:
        problems.append("a pass ended without a report")
    elif len(digests) != 1:
        problems.append(f"passes disagree: digests {sorted(digests)}")
    pinned = pinned_digest(workload.name, seed)
    if pinned is not None and digests != {pinned}:
        problems.append(f"digest {sorted(d or '' for d in digests)} != pinned {pinned}")
    return len(units), failed, problems


def measure(
    workload, seed: int, seconds: float, work_dir: pathlib.Path
) -> tuple[dict, list]:
    """Cold set-ups, then whole passes until ``seconds`` have passed."""
    from time import perf_counter

    expected = workload.expectations(seed)
    setups = [
        workload.cold_setup(seed, work_dir / "setups")
        for _ in range(workload.setup_repeats)
    ]
    passes = []
    started = perf_counter()
    while True:
        passes.append(workload.run_pass(seed, expected))
        if perf_counter() - started >= seconds or passes[-1].error:
            break
    times = [unit.seconds for one in passes for unit in one.units]
    records = sum(unit.records for one in passes for unit in one.units)
    timed = sum(one.wall for one in passes)
    values = {
        "setup_s": statistics.median(setups),
        "records_per_s": records / timed if timed > 0 else 0.0,
        "unit_p50_s": statistics.median(times) if times else 0.0,
        "unit_p95_s": quantile(times, 95) if times else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"# {workload.name}: {len(passes)} pass(es), {len(times)} units, "
        f"{len(setups)} cold set-ups, timed {timed:.3f} s",
        flush=True,
    )
    return {name: (value, END_TO_END[name]) for name, value in values.items()}, passes


def trace(
    workload, seed: int, work_dir: pathlib.Path, trace_path: pathlib.Path, meta: dict
) -> tuple[dict, list]:
    """A warm-up, an untraced and a traced pass, each after a cold set-up;
    per-layer metrics of the traced one."""
    from time import perf_counter

    from bench_trace import LAYER_METRICS, Tracer, preload

    preload()
    expected = workload.expectations(seed)
    cache_parent = work_dir / "setups"
    passes = []
    for _ in range(2):  # the first one warms the process up and is not timed
        started = perf_counter()
        workload.cold_setup(seed, cache_parent)
        passes.append(workload.run_pass(seed, expected))
        untraced_wall = perf_counter() - started
    with Tracer() as tracer:
        workload.cold_setup(seed, cache_parent)
        passes.append(workload.run_pass(seed, expected))
    values = tracer.layer_metrics()
    units = dict(LAYER_METRICS)
    values["traced_wall_s"] = tracer.wall
    values["untraced_wall_s"] = untraced_wall
    values["trace_overhead_s"] = tracer.wall - untraced_wall
    units.update(traced_wall_s="s", untraced_wall_s="s", trace_overhead_s="s")
    meta = dict(meta, workload=workload.name, seed=seed, missing_probes=tracer.missing)
    tracer.write_chrome_trace(trace_path, meta)
    spans = sum(span is not None for span in tracer.spans)
    print(f"# per-layer self time of the traced run ({spans} spans, {trace_path.name})")
    for name, value in values.items():
        print(f"#   {name:32s} {value:16.6f} {units[name]}")
    if tracer.missing:
        print(f"# probes not found in this version: {', '.join(tracer.missing)}")
    return {name: (value, units[name]) for name, value in values.items()}, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    clean_environment(work_dir)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro

        if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
            return 2
        from bench_workloads import DEFAULT_SEED, WORKLOADS
        from repro.workloads.columnar import native_generator_available

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        seed = DEFAULT_SEED if args.seed is None else args.seed
        native_generator_available()  # build the C generator before any timing
        meta = provenance()
        print("# provenance: " + json.dumps(meta, sort_keys=True), flush=True)

        if args.trace:
            trace_path = RUN_DIR / f"trace-{workload.name}-seed{seed}.json"
            metrics, passes = trace(workload, seed, work_dir, trace_path, meta)
        else:
            metrics, passes = measure(workload, seed, args.seconds, work_dir)
        attempted, failed, problems = check_passes(workload, seed, passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if attempted == 0:
        print("error: the workload ran no units", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"# check failed: {problem}", flush=True)
    print(f"# failed_share {failed / attempted:.6f} ratio")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
