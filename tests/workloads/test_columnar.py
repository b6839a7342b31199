"""Bit-identity of the slab-direct (columnar) workload generator.

The columnar plane is only admissible because its byte stream is exactly
``"\\n".join(generate_records(n, seed))`` — these tests pin that equality
for the compiled fast path *and* the pure-Python fallback, across sizes
and seeds, plus the structural contract of the offset column.
"""

from __future__ import annotations

import pytest

from repro.workloads import aol
from repro.workloads import columnar


def reference_blob(num_records: int, seed: int = 2006) -> bytes:
    return "\n".join(aol.generate_records(num_records, seed)).encode("ascii")


def assert_valid_starts(data: bytes, starts, lines: list[str]) -> None:
    assert len(starts) == len(lines)
    offset = 0
    for i, line in enumerate(lines):
        assert starts[i] == offset
        offset += len(line) + 1
    if lines:
        assert len(data) == offset - 1  # no trailing newline


class TestGenerateColumns:
    @pytest.mark.parametrize("num_records", [0, 1, 2, 17, 4_097])
    def test_bit_identical_to_reference(self, num_records):
        data, starts = columnar.generate_columns(num_records)
        assert bytes(data) == reference_blob(num_records)
        assert_valid_starts(data, starts, aol.generate_records(num_records))

    def test_bit_identical_at_20k(self):
        # Large enough to cross the C kernel's chunk/refill boundaries and
        # to contain many needle records interleaved with plain runs.
        data, starts = columnar.generate_columns(20_001)
        lines = aol.generate_records(20_001)
        assert bytes(data) == "\n".join(lines).encode("ascii")
        assert_valid_starts(data, starts, lines)

    @pytest.mark.parametrize("seed", [1, 11, 4242])
    def test_seeds_vary_and_match(self, seed):
        data, starts = columnar.generate_columns(512, seed)
        assert bytes(data) == reference_blob(512, seed)

    def test_python_fallback_matches_native(self):
        fast = columnar.generate_columns(3_000)
        slow_chunks = list(columnar._iter_columns_python(3_000, 2006, 1_000))
        assert bytes(fast[0]) == b"\n".join(data for data, _ in slow_chunks)
        offset = 0
        slow_starts = []
        for data, starts in slow_chunks:
            slow_starts.extend(value + offset for value in starts)
            offset += len(data) + 1
        assert list(fast[1]) == slow_starts

    def test_native_kill_switch(self, monkeypatch):
        monkeypatch.setenv(columnar.NATIVE_ENV, "0")
        columnar.reset_native_cache()
        try:
            assert not columnar.native_generator_available()
            data, _ = columnar.generate_columns(256)
            assert bytes(data) == reference_blob(256)
        finally:
            monkeypatch.undo()
            columnar.reset_native_cache()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            columnar.generate_columns(-1)

    def test_grep_matches_exact(self):
        data, _ = columnar.generate_columns(10_000)
        expected = aol.expected_grep_matches(10_000)
        assert bytes(data).count(aol.GREP_NEEDLE.encode()) >= expected
        lines = bytes(data).decode("ascii").split("\n")
        assert sum(1 for l in lines if aol.GREP_NEEDLE in l) == expected


class TestColumnarWorkload:
    def test_records_decode_lazily_and_match(self):
        workload = columnar.ColumnarWorkload.generate(4_500, seed=9)
        reference = aol.generate_records(4_500, seed=9)
        assert workload.records == reference
        # The decoded list is cached on the shared slab.
        assert workload.records is workload.records
        # The workload wrapper decodes the same lines from its columns.
        assert aol.AolWorkload(4_500, seed=9).records == reference

    def test_column_windows(self):
        workload = columnar.ColumnarWorkload.generate(5_000)
        column = workload.column()
        assert len(column) == 5_000
        view = column.view(10, 20)
        assert list(view) == workload.records[10:20]
        assert view[0] == workload.records[10]
        assert view[-1] == workload.records[19]

    def test_single_record_decode_before_materialise(self):
        workload = columnar.ColumnarWorkload.generate(4_096)
        column = workload.column()
        # Indexing decodes one line without materialising the list.
        line = column[7]
        assert line == aol.generate_records(4_096)[7]

    def test_slab_is_shared(self):
        workload = columnar.ColumnarWorkload.generate(4_200)
        assert workload.to_slab() is workload.column().slab
