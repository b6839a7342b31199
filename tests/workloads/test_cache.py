"""Tiering and sharing of the workload cache.

Round trips, corruption and staleness of the on-disk entry itself live
in ``test_columnar_cache.py``; this file pins when the disk tier engages
and that workloads share one in-process copy.
"""

from __future__ import annotations

import pytest

from repro.workloads import aol
from repro.workloads.cache import (
    WorkloadCache,
    clear_memo,
    ensure_columns_cached,
    load_columnar_workload,
)
from repro.workloads.columnar import generate_columns


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test sees an empty in-process memo."""
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def cache(tmp_path):
    """A disk cache in a temp directory with no size threshold."""
    return WorkloadCache(tmp_path / "workloads", min_records=0)


class TestRoundTrip:
    def test_empty_workload(self, cache):
        assert load_columnar_workload(0, seed=3, cache=cache).records == []
        clear_memo()
        assert load_columnar_workload(0, seed=3, cache=cache).records == []
        assert not cache.directory.exists()  # nothing worth persisting

    def test_keys_are_independent(self, cache):
        a = load_columnar_workload(1_000, seed=1, cache=cache).records
        b = load_columnar_workload(1_000, seed=2, cache=cache).records
        c = load_columnar_workload(1_500, seed=1, cache=cache).records
        assert a != b
        assert len(c) == 1_500
        assert len(list(cache.directory.iterdir())) == 3


class TestCorruptionAndStaleness:
    def test_stale_generator_version_is_a_miss(self, cache, monkeypatch):
        load_columnar_workload(2_000, seed=9, cache=cache)
        stale_path = cache.columns_path(9, 2_000)
        monkeypatch.setattr(aol, "GENERATOR_VERSION", aol.GENERATOR_VERSION + 1)
        # The new version keys a different path, so the old entry is
        # simply never consulted again.
        assert cache.columns_path(9, 2_000) != stale_path
        assert cache.load_columns(9, 2_000) is None

    def test_store_rejects_wrong_record_count(self, cache):
        data, starts = generate_columns(3, seed=1)
        with pytest.raises(ValueError):
            cache.store_columns(1, 10, data, starts)
        assert not cache.directory.exists() or not any(
            e.name.endswith(".tmp") for e in cache.directory.iterdir()
        )


class TestTiering:
    def test_small_workloads_stay_memory_only(self, tmp_path, monkeypatch):
        directory = tmp_path / "disk"
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(directory))
        workload = load_columnar_workload(500, seed=4)  # default threshold is 100k
        assert workload.records == aol.generate_records(500, seed=4)
        assert not directory.exists()

    def test_disk_tier_can_be_disabled(self, tmp_path, monkeypatch):
        directory = tmp_path / "disk"
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(directory))
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_MIN", "100")
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE", "0")
        load_columnar_workload(500, seed=4)
        assert not directory.exists()

    def test_threshold_env_engages_disk(self, tmp_path, monkeypatch):
        directory = tmp_path / "disk"
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(directory))
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_MIN", "100")
        load_columnar_workload(500, seed=4)
        assert directory.exists()
        loaded = WorkloadCache().load_columns(4, 500)
        assert loaded is not None
        assert loaded.records == aol.generate_records(500, seed=4)

    def test_ensure_columns_cached_respects_threshold(self, tmp_path, monkeypatch):
        directory = tmp_path / "disk"
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(directory))
        assert ensure_columns_cached(500, seed=4) is None
        assert not directory.exists()

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        cache = WorkloadCache(blocked / "sub", min_records=0)
        workload = load_columnar_workload(800, seed=2, cache=cache)
        assert workload.records == aol.generate_records(800, seed=2)


class TestWorkloadIntegration:
    def test_aol_workload_uses_memo(self):
        a = aol.AolWorkload(1_200, seed=8)
        b = aol.AolWorkload(1_200, seed=8)
        assert a.columnar() is b.columnar()
        assert a.records is b.records

    def test_harness_workloads_share_one_list(self):
        from repro.benchmark import BenchmarkConfig, StreamBenchHarness

        config = BenchmarkConfig(records=1_200, runs=1)
        first = StreamBenchHarness(config)
        second = StreamBenchHarness(config)
        assert first.workload.columnar() is second.workload.columnar()
        assert first.workload.records is second.workload.records
