"""Tests for the shared runtime structures: HashTable, GroupAggState."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.plans import AggSpec
from repro.plans.runtime import (
    GroupAggState,
    HashTable,
    PartitionedHashTable,
    batch_bytes,
    batch_rows,
)
from repro.relational import col


class TestBatchHelpers:
    def test_rows(self):
        assert batch_rows({}) == 0
        assert batch_rows({"a": np.arange(5)}) == 5

    def test_bytes(self):
        batch = {"a": np.arange(4, dtype=np.int32)}
        assert batch_bytes(batch) == 16


class TestHashTable:
    def build(self):
        table = HashTable("k", ("k", "payload"))
        table.insert(
            {"k": np.array([2, 1, 2]), "payload": np.array([20.0, 10.0, 21.0])}
        )
        table.insert({"k": np.array([3]), "payload": np.array([30.0])})
        table.finalize()
        return table

    def test_incremental_build(self):
        table = self.build()
        assert table.num_rows == 4
        assert table.nbytes > 0

    def test_probe_single_match(self):
        table = self.build()
        probe_idx, build_idx = table.probe(np.array([1]))
        assert list(probe_idx) == [0]
        payload = table.payload_rows(build_idx)
        assert list(payload["payload"]) == [10.0]

    def test_probe_multi_match_expansion(self):
        table = self.build()
        probe_idx, build_idx = table.probe(np.array([2]))
        assert list(probe_idx) == [0, 0]
        payload = table.payload_rows(build_idx)
        assert sorted(payload["payload"]) == [20.0, 21.0]

    def test_probe_no_match(self):
        table = self.build()
        probe_idx, build_idx = table.probe(np.array([99, 98]))
        assert probe_idx.size == 0 and build_idx.size == 0

    def test_probe_mixed(self):
        table = self.build()
        probe_idx, build_idx = table.probe(np.array([9, 3, 2]))
        # key 9: none; key 3: one; key 2: two -> 3 matches
        assert list(probe_idx) == [1, 2, 2]

    def test_probe_before_finalize(self):
        table = HashTable("k", ("k",))
        table.insert({"k": np.array([1])})
        with pytest.raises(ExecutionError):
            table.probe(np.array([1]))

    def test_insert_after_finalize(self):
        table = self.build()
        with pytest.raises(ExecutionError):
            table.insert({"k": np.array([5]), "payload": np.array([1.0])})

    def test_empty_table(self):
        table = HashTable("k", ("k",))
        table.finalize()
        probe_idx, _ = table.probe(np.array([1, 2]))
        assert probe_idx.size == 0

    def test_key_not_in_payload(self):
        table = HashTable("k", ("v",))
        table.insert({"k": np.array([1, 2]), "v": np.array([5.0, 6.0])})
        table.finalize()
        _, build_idx = table.probe(np.array([2]))
        assert list(table.payload_rows(build_idx)["v"]) == [6.0]


def _reference_pairs(build_keys, probe_keys):
    """Brute-force join: every (probe position, sorted build position)
    match in probe order, the order binary search over the stably
    sorted keys produces."""
    sorted_keys = build_keys[np.argsort(build_keys, kind="stable")].tolist()
    probe_idx, build_idx = [], []
    for position, key in enumerate(probe_keys.tolist()):
        for slot, candidate in enumerate(sorted_keys):
            if candidate == key:
                probe_idx.append(position)
                build_idx.append(slot)
    return (
        np.asarray(probe_idx, dtype=np.int64),
        np.asarray(build_idx, dtype=np.int64),
    )


def _built(keys, table_cls=HashTable, *args):
    table = table_cls("k", ("k", "v"), *args)
    # Two inserts: the index is built once over every part in finalize.
    half = keys.size // 2
    for part in (slice(None, half), slice(half, None)):
        table.insert({"k": keys[part], "v": np.arange(keys.size)[part] * 0.5})
    table.finalize()
    return table


def _assert_identical(got, expected):
    for array, reference in zip(got, expected):
        assert array.dtype == reference.dtype == np.int64
        assert array.tobytes() == reference.tobytes()


class TestDirectAddressProbe:
    """The direct-address index returns the binary-search pairs exactly."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def check(self, build_keys, probe_keys, dense=True):
        table = _built(build_keys)
        assert (table._dense is not None) == dense
        got = table.probe(probe_keys)
        _assert_identical(got, table._probe_sorted(probe_keys))
        _assert_identical(got, _reference_pairs(build_keys, probe_keys))
        # Keys, the key payload column and the float64 ``v`` column.
        assert table.nbytes == 2 * build_keys.nbytes + 8 * build_keys.size
        return got

    def test_unique_keys(self):
        keys = self.rng.permutation(200).astype(np.int32) + 1
        probe_idx, _ = self.check(keys, self.rng.integers(-5, 210, 300))
        assert probe_idx.size > 0

    def test_duplicate_keys(self):
        keys = self.rng.integers(0, 40, 150).astype(np.int32)
        probe_idx, _ = self.check(keys, self.rng.integers(-3, 45, 120))
        assert probe_idx.size > 120 // 2

    def test_negative_keys(self):
        self.check(
            self.rng.permutation(np.arange(-120, -20)),
            self.rng.integers(-130, 0, 200),
        )

    def test_uint32_keys(self):
        base = np.uint32(2**32 - 300)
        keys = self.rng.permutation(256).astype(np.uint32) + base
        probe = np.concatenate(
            [keys[:50], np.array([0, 1, base - 1, 2**32 - 1], dtype=np.uint32)]
        )
        self.check(keys, probe)
        self.check(keys, probe.astype(np.int64) - 7)

    def test_int64_keys_beyond_int32(self):
        keys = np.int64(3 * 2**40) + self.rng.permutation(300)
        probe = np.concatenate(
            [keys[::3], keys[:20] + 1000, np.array([0, -1, 2**31])]
        )
        self.check(keys, probe)

    def test_probes_that_wrap_the_subtraction(self):
        info32, info64 = np.iinfo(np.int32), np.iinfo(np.int64)
        keys32 = np.arange(info32.max - 99, info32.max + 1, dtype=np.int32)
        probe32 = np.array(
            [info32.min, info32.min + 1, -1, 0, info32.max, info32.max - 99,
             info32.max - 100],
            dtype=np.int32,
        )
        self.check(keys32, probe32)
        keys64 = np.arange(-50, 50, dtype=np.int64)
        probe64 = np.array(
            [info64.min, info64.min + 49, info64.max, info64.max - 50, -51,
             -50, 49, 50],
            dtype=np.int64,
        )
        self.check(keys64, probe64)

    def test_mixed_key_widths(self):
        keys32 = self.rng.permutation(100).astype(np.int32)
        self.check(keys32, np.array([-(2**40), 5, 99, 100, 2**40]))
        keys64 = self.rng.permutation(100).astype(np.int64) - 10
        self.check(keys64, np.array([-11, -10, 0, 89, 90], dtype=np.int32))
        self.check(keys64, np.array([0, 5, 89, 90], dtype=np.uint8))

    def test_narrow_keys_over_their_full_range(self):
        keys = np.arange(-128, 128, dtype=np.int8)
        self.check(keys, np.array([-128, 0, 127], dtype=np.int8))
        self.check(keys.astype(np.uint8), np.arange(256, dtype=np.uint8))

    def test_empty_table_and_empty_probe(self):
        empty = np.empty(0, dtype=np.int32)
        self.check(empty, np.arange(5), dense=False)
        self.check(np.arange(10), empty)
        self.check(np.repeat(np.arange(10), 2), empty)

    def test_sparse_range_falls_back(self):
        # 100 rows over a span far above both the slot floor and the
        # per-row ratio.
        keys = self.rng.choice(10**7, size=100, replace=False)
        self.check(keys, np.concatenate([keys[:30], [-1, 10**7]]), dense=False)

    def test_float_keys_fall_back(self):
        keys = self.rng.permutation(50).astype(np.float64)
        self.check(keys, np.array([0.0, 0.5, 49.0, np.nan, -1.0]), dense=False)

    def test_float_probe_into_integer_table(self):
        keys = self.rng.permutation(50).astype(np.int32)
        self.check(keys, np.array([0.0, 0.5, 49.0, 50.0, -1.0]))

    def test_uint64_probe_into_integer_table(self):
        keys = self.rng.permutation(50).astype(np.int64)
        self.check(keys, np.array([0, 49, 50, 2**64 - 1], dtype=np.uint64))

    def test_uint64_keys_fall_back(self):
        keys = np.arange(40, dtype=np.uint64) + np.uint64(2**63)
        self.check(keys, keys[::4], dense=False)

    def test_nbytes_excludes_index(self):
        dense = _built(np.arange(1000, dtype=np.int64))
        sparse = _built(np.arange(1000, dtype=np.int64) * 10**6)
        assert dense._dense is not None and sparse._dense is None
        assert dense.nbytes == sparse.nbytes == 3 * 1000 * 8

    def test_partitioned_table(self):
        build = np.concatenate(
            [self.rng.permutation(500), self.rng.integers(0, 500, 200)]
        )
        probe = self.rng.integers(-10, 520, 800)
        table = _built(build, PartitionedHashTable, 8)
        assert all(p._dense is not None for p in table._partitions)
        got = table.probe(probe)
        working_set = table.probe_working_set
        for partition in table._partitions:
            partition._dense = None
        _assert_identical(got, table.probe(probe))
        assert table.probe_working_set == working_set
        assert table.nbytes == 2 * build.nbytes + 8 * build.size
        expected = _reference_pairs(build, probe)
        _assert_identical(got[:1], expected[:1])
        matched = table.payload_rows(got[1])["k"]
        assert np.array_equal(matched, probe[got[0]])


class TestGroupAggState:
    def batch(self):
        return {
            "g": np.array([0, 1, 0, 1, 2]),
            "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }

    def test_grouped_sum_and_count(self):
        state = GroupAggState(
            ("g",),
            (AggSpec("total", "sum", col("v")), AggSpec("n", "count")),
        )
        state.update(self.batch())
        result = state.result()
        assert list(result["g"]) == [0, 1, 2]
        assert list(result["total"]) == [4.0, 6.0, 5.0]
        assert list(result["n"]) == [2.0, 2.0, 1.0]

    def test_streaming_equals_single_batch(self):
        whole = GroupAggState(("g",), (AggSpec("total", "sum", col("v")),))
        whole.update(self.batch())
        parts = GroupAggState(("g",), (AggSpec("total", "sum", col("v")),))
        batch = self.batch()
        for index in range(5):
            parts.update(
                {name: arr[index : index + 1] for name, arr in batch.items()}
            )
        assert list(whole.result()["total"]) == list(parts.result()["total"])

    def test_avg(self):
        state = GroupAggState(("g",), (AggSpec("mean", "avg", col("v")),))
        state.update(self.batch())
        assert list(state.result()["mean"]) == [2.0, 3.0, 5.0]

    def test_min_max(self):
        state = GroupAggState(
            ("g",),
            (AggSpec("lo", "min", col("v")), AggSpec("hi", "max", col("v"))),
        )
        state.update(self.batch())
        result = state.result()
        assert list(result["lo"]) == [1.0, 2.0, 5.0]
        assert list(result["hi"]) == [3.0, 4.0, 5.0]

    def test_global_aggregate(self):
        state = GroupAggState((), (AggSpec("total", "sum", col("v")),))
        state.update(self.batch())
        state.update(self.batch())
        result = state.result()
        assert list(result["total"]) == [30.0]

    def test_global_empty_input(self):
        state = GroupAggState((), (AggSpec("total", "sum", col("v")),))
        result = state.result()
        assert list(result["total"]) == [0.0]

    def test_grouped_empty_input(self):
        state = GroupAggState(("g",), (AggSpec("total", "sum", col("v")),))
        result = state.result()
        assert batch_rows(result) == 0

    def test_empty_batches_ignored(self):
        state = GroupAggState(("g",), (AggSpec("total", "sum", col("v")),))
        state.update({"g": np.array([]), "v": np.array([])})
        state.update(self.batch())
        assert state.num_groups == 3

    def test_multi_key_groups(self):
        state = GroupAggState(
            ("g", "h"), (AggSpec("n", "count"),)
        )
        state.update(
            {
                "g": np.array([0, 0, 1]),
                "h": np.array([0, 1, 0]),
                "v": np.array([1.0, 2.0, 3.0]),
            }
        )
        result = state.result()
        assert list(zip(result["g"], result["h"])) == [(0, 0), (0, 1), (1, 0)]

    def test_expression_aggregate(self):
        state = GroupAggState(
            (), (AggSpec("weighted", "sum", col("v") * col("g")),)
        )
        state.update(self.batch())
        assert list(state.result()["weighted"]) == [
            pytest.approx(0 + 2 + 0 + 4 + 10)
        ]
