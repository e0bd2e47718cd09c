"""Tests for selectivity and cardinality estimation."""

import numpy as np
import pytest

from repro.plans import (
    DEFAULT_SELECTIVITY,
    SelingerOptimizer,
    StatisticsEstimator,
)
from repro.core import GPLEngine
from repro.gpu import AMD_A10
from repro.plans.stats import max_distinct
from repro.relational import ColumnStats, Database, col, lit
from repro.relational.types import date_to_days
from repro.ssb import SSB_QUERIES, generate_ssb
from repro.tpch import QUERIES, generate_database, query_by_name


@pytest.fixture()
def estimator(tiny_db):
    est = StatisticsEstimator(tiny_db)
    est.register_columns("lineitem", tiny_db.table("lineitem").schema, {})
    est.register_columns("orders", tiny_db.table("orders").schema, {})
    est.register_columns(
        "nation",
        tiny_db.table("nation").schema,
        {"n_name": "n1_name", "n_nationkey": "n1_nationkey", "n_regionkey": "n1_regionkey"},
    )
    return est


class TestPredicateSelectivity:
    def test_range_half(self, estimator, tiny_db):
        stats = tiny_db.stats("lineitem", "l_shipdate")
        midpoint = (stats.minimum + stats.maximum) / 2
        selectivity = estimator.selectivity(col("l_shipdate").le(midpoint))
        assert selectivity == pytest.approx(0.5, abs=0.05)

    def test_range_flipped_literal(self, estimator, tiny_db):
        stats = tiny_db.stats("lineitem", "l_shipdate")
        midpoint = (stats.minimum + stats.maximum) / 2
        # literal <= column is the mirror image
        selectivity = estimator.selectivity(lit(midpoint).le(col("l_shipdate")))
        assert selectivity == pytest.approx(0.5, abs=0.05)

    def test_impossible_range(self, estimator):
        far_future = date_to_days("2050-01-01")
        assert estimator.selectivity(col("l_shipdate").ge(far_future)) == 0.0

    def test_equality_uses_distinct(self, estimator, tiny_db):
        distinct = tiny_db.stats("orders", "o_custkey").distinct
        selectivity = estimator.selectivity(col("o_custkey").eq(5))
        assert selectivity == pytest.approx(1.0 / distinct)

    def test_interval_recognized(self, estimator, tiny_db):
        stats = tiny_db.stats("lineitem", "l_shipdate")
        span = stats.maximum - stats.minimum
        lo = stats.minimum + span * 0.4
        hi = stats.minimum + span * 0.6
        predicate = col("l_shipdate").ge(lo) & col("l_shipdate").lt(hi)
        # Interval detection gives ~0.2, not independence's ~0.24*0.6.
        assert estimator.selectivity(predicate) == pytest.approx(0.2, abs=0.03)

    def test_interval_different_columns_not_confused(self, estimator):
        predicate = col("l_discount").ge(0.02) & col("l_tax").lt(0.04)
        a = estimator.selectivity(col("l_discount").ge(0.02))
        b = estimator.selectivity(col("l_tax").lt(0.04))
        assert estimator.selectivity(predicate) == pytest.approx(a * b)

    def test_conjunction_multiplies(self, estimator):
        a = col("l_discount").le(0.05)
        b = col("l_tax").le(0.04)
        combined = estimator.selectivity(a & b)
        assert combined == pytest.approx(
            estimator.selectivity(a) * estimator.selectivity(b)
        )

    def test_disjunction_inclusion_exclusion(self, estimator):
        a = col("l_discount").le(0.05)
        b = col("l_tax").le(0.04)
        sa, sb = estimator.selectivity(a), estimator.selectivity(b)
        assert estimator.selectivity(a | b) == pytest.approx(
            sa + sb - sa * sb
        )

    def test_negation(self, estimator):
        a = col("l_discount").le(0.05)
        assert estimator.selectivity(~a) == pytest.approx(
            1.0 - estimator.selectivity(a)
        )

    def test_renamed_column_resolves(self, estimator):
        selectivity = estimator.selectivity(col("n1_name").eq(6))
        assert selectivity == pytest.approx(1.0 / 25)

    def test_unknown_column_falls_back(self, estimator):
        assert estimator.selectivity(col("mystery").le(5)) == (
            DEFAULT_SELECTIVITY
        )

    def test_column_equals_column(self, estimator, tiny_db):
        predicate = col("o_custkey").eq(col("l_orderkey"))
        distinct = max(
            tiny_db.stats("orders", "o_custkey").distinct,
            tiny_db.stats("lineitem", "l_orderkey").distinct,
        )
        assert estimator.selectivity(predicate) == pytest.approx(1.0 / distinct)

    def test_inlist(self, estimator):
        selectivity = estimator.selectivity(col("n1_name").isin([1, 2, 3]))
        assert selectivity == pytest.approx(3 / 25)

    def test_inlist_caps_at_one(self, estimator):
        selectivity = estimator.selectivity(
            col("n1_name").isin(list(range(100)))
        )
        assert selectivity == 1.0


class TestJoinAndGroup:
    def test_join_cardinality_pk_fk(self, estimator, tiny_db):
        lineitem_rows = tiny_db.num_rows("lineitem")
        orders_rows = tiny_db.num_rows("orders")
        estimate = estimator.join_cardinality(
            lineitem_rows, orders_rows, "l_orderkey", "o_orderkey"
        )
        # PK-FK join keeps roughly the fact-table cardinality.
        assert estimate == pytest.approx(lineitem_rows, rel=0.05)

    def test_join_cardinality_without_stats(self):
        from repro.relational import Database

        estimator = StatisticsEstimator(Database())
        assert estimator.join_cardinality(100, 50, "a", "b") == 5000.0

    def test_group_cardinality_capped_by_rows(self, estimator):
        assert estimator.group_cardinality(10, ["n1_name"]) == 10

    def test_group_cardinality_product(self, estimator):
        estimate = estimator.group_cardinality(1e9, ["n1_name", "n1_regionkey"])
        assert estimate == pytest.approx(25 * 5)

    def test_global_aggregate(self, estimator):
        assert estimator.group_cardinality(1e9, []) == 1.0


def _column_cases():
    rng = np.random.default_rng(7)
    big = 2**60
    with_nan = rng.random(50)
    with_nan[::7] = np.nan
    return {
        "int8": rng.integers(-128, 128, 300).astype(np.int8),
        "uint8": rng.integers(0, 256, 300).astype(np.uint8),
        "int32": rng.integers(0, 40, 200).astype(np.int32),
        "int32-key": np.arange(1, 41, dtype=np.int32),
        "int64": rng.integers(-(2**40), 2**40, 100),
        "int64-beyond-2^53": big + rng.integers(0, 5, 64),
        "uint64": rng.integers(0, 2**63, 64, dtype=np.uint64) * np.uint64(2),
        "float-nan": with_nan,
        "bool": rng.random(30) < 0.5,
        "constant": np.full(25, 9, dtype=np.int32),
        "empty": np.array([], dtype=np.int64),
    }


class TestMaxDistinct:
    CASES = _column_cases()

    @pytest.mark.parametrize("left", sorted(CASES))
    @pytest.mark.parametrize("right", sorted(CASES))
    def test_equals_max_of_exact_counts(self, left, right):
        exact = max(
            ColumnStats.from_array(self.CASES[left]).distinct,
            ColumnStats.from_array(self.CASES[right]).distinct,
        )
        got = max_distinct(
            ColumnStats.from_array(self.CASES[left]),
            ColumnStats.from_array(self.CASES[right]),
        )
        assert got == exact

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bound_holds(self, name):
        stats = ColumnStats.from_array(self.CASES[name])
        bound = stats.distinct_bound  # read before the count is known
        assert stats.distinct <= bound

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_missing_side_counts_zero(self, name):
        exact = ColumnStats.from_array(self.CASES[name]).distinct
        assert max_distinct(ColumnStats.from_array(self.CASES[name]), None) == exact
        assert max_distinct(None, ColumnStats.from_array(self.CASES[name])) == exact
        assert max_distinct(None, None) == 0

    def test_primary_key_side_decides(self, distinct_scans):
        keys = ColumnStats.from_array(np.arange(1, 101, dtype=np.int32))
        foreign = ColumnStats.from_array(
            np.random.default_rng(3).integers(1, 101, 5000).astype(np.int32)
        )
        assert max_distinct(foreign, keys) == 100
        assert [array.size for array in distinct_scans] == [100]  # key side only


def _fresh(database):
    fresh = Database()
    for name in database.names:
        fresh.add(name, database.table(name))
    return fresh


@pytest.fixture(scope="module")
def workloads():
    return [
        (generate_database(scale=0.01), QUERIES),
        (generate_ssb(scale=0.01), SSB_QUERIES),
    ]


class TestColdStatisticsPlanEquality:
    @pytest.mark.parametrize("choose_fact", [False, True])
    def test_cold_catalog_plans_like_analyzed(self, workloads, choose_fact):
        for database, queries in workloads:
            cold = _fresh(database)
            warm = _fresh(database)
            warm.analyze()
            for name, spec in sorted(queries.items()):
                a = SelingerOptimizer(cold, choose_fact=choose_fact).optimize(spec)
                b = SelingerOptimizer(warm, choose_fact=choose_fact).optimize(spec)
                assert a.join_order == b.join_order, name
                assert a.fact == b.fact, name
                assert a.estimated_rows == b.estimated_rows, name
                assert a.plan.describe() == b.plan.describe(), name


class TestColdRunSkipsFactScans:
    def test_gpl_never_counts_lineitem_or_dates(self, small_db, distinct_scans):
        names = {
            id(small_db.table(table).column(column.name)): (table, column.name)
            for table in small_db.names
            for column in small_db.table(table).schema
        }
        for query in ("Q5", "Q7", "Q8", "Q9", "Q14"):
            GPLEngine(_fresh(small_db), AMD_A10).execute(query_by_name(query))
        counted = [names[id(array)] for array in distinct_scans]
        assert counted  # dimension keys still decide join estimates
        for table, column in counted:
            assert table != "lineitem", column
            assert column not in ("l_shipdate", "o_orderdate")
