"""Cardinality and selectivity estimation.

The estimator serves two consumers with the same arithmetic:

* the Selinger-style join-order optimizer, which compares candidate probe
  chains by estimated intermediate cardinalities;
* the analytical cost model, whose per-kernel data-reduction ratios
  ``lambda_Ki`` (paper Table 2, "query optimizer" inputs) come from these
  estimates.

Estimates use the textbook uniformity assumptions: range predicates from
min/max, equality from distinct counts, conjunctions multiply,
disjunctions use inclusion–exclusion, and equi-joins divide by the larger
key-distinct count.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..relational import (
    And,
    CaseWhen,
    Col,
    Compare,
    Database,
    Expression,
    InList,
    Lit,
    Not,
    Or,
)

__all__ = ["StatisticsEstimator", "DEFAULT_SELECTIVITY", "max_distinct"]

#: Fallback when a predicate's shape is not recognized (System R's 1/3).
DEFAULT_SELECTIVITY = 1.0 / 3.0


def max_distinct(left, right) -> int:
    """``max(left.distinct, right.distinct)``, scanning only what decides it.

    Either side may be ``None`` (no statistics), which counts as 0.  The
    side with the larger :attr:`~ColumnStats.distinct_bound` is counted
    first (on a tie, the one with fewer rows: it is cheaper to scan); the
    other is counted only if its bound exceeds that exact value.  Because
    ``distinct <= distinct_bound``, the result equals the plain ``max``.
    """
    sides = sorted(
        (stats for stats in (left, right) if stats is not None),
        key=lambda stats: (-stats.distinct_bound, stats.count),
    )
    best = 0
    for stats in sides:
        if stats.distinct_bound > best:
            best = max(best, stats.distinct)
    return best


class StatisticsEstimator:
    """Estimates selectivities/cardinalities against a database's stats.

    ``column_origin`` maps post-rename column names back to
    ``(table, original_column)`` so aliased tables resolve correctly.
    """

    def __init__(
        self,
        database: Database,
        column_origin: Optional[Mapping[str, tuple]] = None,
    ):
        self._database = database
        self._origin = dict(column_origin or {})

    def register_columns(self, table: str, schema, rename: Mapping[str, str]) -> None:
        """Record that ``schema``'s columns (post-rename) come from ``table``."""
        for column in schema:
            new_name = rename.get(column.name, column.name)
            self._origin[new_name] = (table, column.name)

    def _column_stats(self, name: str):
        origin = self._origin.get(name)
        if origin is None:
            return None
        table, column = origin
        if table not in self._database:
            return None
        return self._database.stats(table, column)

    # -- selectivity -----------------------------------------------------

    def selectivity(self, predicate: Expression) -> float:
        """Estimated fraction of rows satisfying ``predicate``."""
        if isinstance(predicate, And):
            interval = self._interval_selectivity(predicate)
            if interval is not None:
                return interval
            return self.selectivity(predicate.left) * self.selectivity(
                predicate.right
            )
        if isinstance(predicate, Or):
            left = self.selectivity(predicate.left)
            right = self.selectivity(predicate.right)
            return min(1.0, left + right - left * right)
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.operand)
        if isinstance(predicate, Compare):
            return self._compare_selectivity(predicate)
        if isinstance(predicate, InList):
            return self._inlist_selectivity(predicate)
        return DEFAULT_SELECTIVITY

    def _interval_selectivity(self, predicate: And) -> Optional[float]:
        """Recognize ``lo <= col AND col < hi`` and estimate the interval.

        The independence assumption grossly overestimates range pairs on
        the same column (0.5 x 0.5 instead of the interval width), which
        would mislead both the optimizer and the cost model's lambda.
        """
        if not (
            isinstance(predicate.left, Compare)
            and isinstance(predicate.right, Compare)
        ):
            return None
        bounds = {}
        column_name = None
        for part in (predicate.left, predicate.right):
            name, literal, op = self._normalize_compare(part)
            if name is None:
                return None
            if column_name is None:
                column_name = name
            elif column_name != name:
                return None
            if op in (">", ">="):
                bounds["low"] = literal
            elif op in ("<", "<="):
                bounds["high"] = literal
            else:
                return None
        if set(bounds) != {"low", "high"}:
            return None
        stats = self._column_stats(column_name)
        if stats is None:
            return None
        return stats.range_selectivity(bounds["low"], bounds["high"])

    def _compare_selectivity(self, predicate: Compare) -> float:
        if isinstance(predicate.left, Col) and isinstance(predicate.right, Col):
            # column = column (residual join predicates): 1 / max distinct
            distinct = max(
                max_distinct(
                    self._column_stats(predicate.left.name),
                    self._column_stats(predicate.right.name),
                ),
                1,
            )
            if predicate.op == "==":
                return 1.0 / distinct
            if predicate.op == "!=":
                return 1.0 - 1.0 / distinct
            return DEFAULT_SELECTIVITY
        column, literal, op = self._normalize_compare(predicate)
        if column is None:
            return DEFAULT_SELECTIVITY
        stats = self._column_stats(column)
        if stats is None:
            return DEFAULT_SELECTIVITY
        if op == "==":
            return stats.equality_selectivity()
        if op == "!=":
            return 1.0 - stats.equality_selectivity()
        if op in ("<", "<="):
            return stats.range_selectivity(None, literal)
        if op in (">", ">="):
            return stats.range_selectivity(literal, None)
        return DEFAULT_SELECTIVITY

    @staticmethod
    def _normalize_compare(predicate: Compare):
        """Rewrite to (column, literal, op) with the column on the left."""
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(left, Lit) and isinstance(right, Col):
            left, right, op = right, left, flip[op]
        if isinstance(left, Col) and isinstance(right, Lit):
            return left.name, float(right.value), op
        return None, None, op

    def _inlist_selectivity(self, predicate: InList) -> float:
        if not isinstance(predicate.operand, Col):
            return DEFAULT_SELECTIVITY
        stats = self._column_stats(predicate.operand.name)
        if stats is None or stats.distinct == 0:
            return DEFAULT_SELECTIVITY
        return min(1.0, len(predicate.values) / stats.distinct)

    # -- joins -----------------------------------------------------------

    def join_cardinality(
        self,
        left_rows: float,
        right_rows: float,
        left_key: str,
        right_key: str,
    ) -> float:
        """Estimated output rows of an equi-join (textbook formula)."""
        distinct = max(
            max_distinct(self._column_stats(left_key), self._column_stats(right_key)),
            1,
        )
        return left_rows * right_rows / float(distinct)

    def group_cardinality(self, input_rows: float, group_keys) -> float:
        """Estimated group count: capped product of key distinct counts."""
        if not group_keys:
            return 1.0
        product = 1.0
        for key in group_keys:
            stats = self._column_stats(key)
            product *= float(stats.distinct) if stats else 100.0
        return min(input_rows, product)
