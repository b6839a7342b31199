"""Golden regression pin for the scalability sweep's capacity cells.

The capacity search's knees and latency percentiles are simulated
numbers: host-side rewrites of the probe loop (columnar drains, kernel
flush placement, percentile selection) must leave every field of every
:class:`~repro.benchmark.capacity.CapacityCell` bit-identical.  This test
hashes a small sweep — flink/apex × native/beam × grep/sample/statistics/
windowed × P ∈ {1, 2} at 2,000 records — and compares the SHA-256 to a
pinned value.  The digest is the same on both data planes.

If it fails after an *intentional* cost-model or search change,
regenerate the value with::

    python - <<'PY'
    from tests.benchmark.test_scalability_golden import sweep_digest
    print(sweep_digest())
    PY
"""

import dataclasses
import hashlib
import json

from repro.benchmark.capacity import CapacityRunner
from repro.benchmark.config import BenchmarkConfig, CapacitySettings

GOLDEN_DIGEST = "18d407db702355db79f40fe5609a24311ff0d480b046251e4448ed05fb2c89c2"

CONFIG = BenchmarkConfig(
    capacity=CapacitySettings(
        records=2_000, parallelisms=(1, 2), kinds=("native", "beam")
    ),
    systems=("flink", "apex"),
    queries=("grep", "sample", "statistics", "windowed"),
)


def sweep_digest() -> str:
    """SHA-256 over every cell of the small sweep (floats to every digit)."""
    report = CapacityRunner(CONFIG).run_scalability()
    rows = [list(dataclasses.astuple(cell)) for cell in report.cells]
    assert len(rows) == 32
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_scalability_sweep_matches_golden():
    assert sweep_digest() == GOLDEN_DIGEST, (
        "scalability cells drifted — see this module's docstring for the "
        "refresh procedure"
    )
