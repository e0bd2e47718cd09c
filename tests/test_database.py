"""Unit tests for the database catalog and column statistics."""

import threading
import time

import numpy as np
import pytest

import repro.relational.database as database_module
from repro.errors import SchemaError
from repro.relational import ColumnDef, ColumnStats, Database, DataType, Table, TableSchema


def make_table(values) -> Table:
    return Table(
        TableSchema.of(ColumnDef("x", DataType.FLOAT64)),
        {"x": np.asarray(values, dtype=np.float64)},
    )


class TestColumnStats:
    def test_from_array(self):
        stats = ColumnStats.from_array(np.array([1.0, 5.0, 5.0, 9.0]))
        assert stats.minimum == 1.0
        assert stats.maximum == 9.0
        assert stats.distinct == 3
        assert stats.count == 4

    def test_empty(self):
        stats = ColumnStats.from_array(np.array([]))
        assert stats.count == 0
        assert stats.range_selectivity(None, None) == 0.0
        assert stats.equality_selectivity() == 0.0

    def test_range_selectivity_full(self):
        stats = ColumnStats(0.0, 10.0, 11, 100)
        assert stats.range_selectivity(None, None) == 1.0

    def test_range_selectivity_half(self):
        stats = ColumnStats(0.0, 10.0, 11, 100)
        assert stats.range_selectivity(None, 5.0) == pytest.approx(0.5)
        assert stats.range_selectivity(5.0, None) == pytest.approx(0.5)

    def test_range_selectivity_clamps(self):
        stats = ColumnStats(0.0, 10.0, 11, 100)
        assert stats.range_selectivity(-100, 200) == 1.0
        assert stats.range_selectivity(20, 30) == 0.0

    def test_range_degenerate(self):
        stats = ColumnStats(5.0, 5.0, 1, 10)
        assert stats.range_selectivity(0, 10) == 1.0

    def test_equality_selectivity(self):
        stats = ColumnStats(0.0, 10.0, 4, 100)
        assert stats.equality_selectivity() == pytest.approx(0.25)


class TestLazyDistinct:
    def test_distinct_computed_on_first_read_only(self, distinct_scans):
        stats = ColumnStats.from_array(np.array([3, 1, 3, 7], dtype=np.int32))
        assert (stats.minimum, stats.maximum, stats.count) == (1.0, 7.0, 4)
        assert distinct_scans == []
        assert stats.distinct == 3
        assert stats.distinct == 3
        assert len(distinct_scans) == 1

    def test_integer_bound_is_capped_span(self):
        dense = ColumnStats.from_array(np.array([5, 6, 6, 6, 7], dtype=np.int64))
        assert dense.distinct_bound == 3  # max - min + 1
        sparse = ColumnStats.from_array(np.array([0, 1000], dtype=np.int32))
        assert sparse.distinct_bound == 2  # count

    def test_bool_bound(self):
        stats = ColumnStats.from_array(np.array([True, False, True, True]))
        assert stats.distinct_bound == 2
        assert stats.distinct == 2

    def test_float_bound_is_count(self):
        stats = ColumnStats.from_array(np.array([0.5, 0.5, 0.5]))
        assert stats.distinct_bound == 3
        assert stats.distinct == 1
        assert stats.distinct_bound == 1  # exact once known

    def test_int64_bound_uses_exact_extremes(self):
        base = 2**60  # float64 cannot tell base from base + 1
        values = np.array([base, base + 1, base + 3], dtype=np.int64)
        stats = ColumnStats.from_array(values)
        assert stats.minimum == stats.maximum  # the float fields collapse
        assert stats.distinct_bound == 3
        assert stats.distinct == 3

    def test_uint64_bound(self):
        values = np.array([2**64 - 1, 2**64 - 2, 0], dtype=np.uint64)
        stats = ColumnStats.from_array(values)
        assert stats.distinct_bound == 3
        assert stats.distinct == 3

    def test_positional_bound_is_distinct(self):
        assert ColumnStats(0.0, 10.0, 4, 100).distinct_bound == 4

    def test_empty_bound(self):
        stats = ColumnStats.from_array(np.array([], dtype=np.int32))
        assert stats.distinct_bound == 0
        assert stats.distinct == 0

    def test_concurrent_first_read_agrees(self, monkeypatch):
        original = database_module._distinct_count

        def slow(array, minimum, maximum):
            time.sleep(0.01)  # widen the window for overlapping first reads
            return original(array, minimum, maximum)

        monkeypatch.setattr(database_module, "_distinct_count", slow)
        values = np.arange(10_000, dtype=np.int64) % 777
        db = Database()
        db.add(
            "t",
            Table(TableSchema.of(ColumnDef("k", DataType.INT64)), {"k": values}),
        )
        barrier = threading.Barrier(4)
        seen = []

        def read():
            barrier.wait()
            seen.append(db.stats("t", "k").distinct)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == [777] * 4
        assert db.stats("t", "k").distinct == 777


class TestDatabase:
    def test_add_and_lookup(self):
        db = Database()
        db.add("t", make_table([1, 2, 3]))
        assert "t" in db
        assert db.num_rows("t") == 3
        assert db.names == ("t",)

    def test_missing_table(self):
        with pytest.raises(SchemaError):
            Database().table("nope")

    def test_stats_cached_and_invalidated(self):
        db = Database()
        db.add("t", make_table([1, 2, 3]))
        first = db.stats("t", "x")
        assert db.stats("t", "x") is first  # cached
        db.add("t", make_table([10, 20]))
        second = db.stats("t", "x")
        assert second.maximum == 20.0  # cache invalidated on replace

    def test_total_bytes(self):
        db = Database()
        db.add("t", make_table([1, 2, 3]))
        assert db.total_bytes() == 3 * 8

    def test_analyze(self, tiny_db):
        tiny_db.analyze()
        stats = tiny_db.stats("lineitem", "l_discount")
        assert 0.0 <= stats.minimum <= stats.maximum <= 0.1

    def test_analyze_forces_every_distinct(self, tiny_db, distinct_scans):
        db = Database()
        for name in tiny_db.names:
            db.add(name, tiny_db.table(name))
        db.analyze()
        columns = sum(len(db.table(name).schema) for name in db.names)
        assert len(distinct_scans) == columns
        for name in db.names:
            for column in db.table(name).schema:
                db.stats(name, column.name).distinct
        assert len(distinct_scans) == columns  # nothing left to compute

    def test_iteration(self):
        db = Database()
        db.add("a", make_table([1]))
        db.add("b", make_table([2]))
        assert sorted(db) == ["a", "b"]
