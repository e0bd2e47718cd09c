"""Read-only views of query answers for the correctness gate.

Nothing here writes into a result's arrays: rows are built from
``tolist()`` copies and digests hash the array bytes as they are.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

Rows = Tuple[Tuple[float, ...], ...]

#: Relative tolerance between engines, shard merges and the reference
#: implementation: they fold float sums in different orders.
REL_TOL = 1e-9


def result_rows(result) -> Rows:
    """The result's rows as floats, under a canonical total order."""
    columns = [result.batch[name].tolist() for name in result.columns]
    return tuple(
        sorted(tuple(float(value) for value in row) for row in zip(*columns))
    )


def reference_rows(answer: Dict[str, list]) -> Rows:
    """Rows of a :mod:`repro.tpch.reference` answer, canonically ordered."""
    columns = list(answer.values())
    return tuple(
        sorted(tuple(float(value) for value in row) for row in zip(*columns))
    )


def rows_close(actual: Rows, expected: Rows, rel: float = REL_TOL) -> bool:
    """Equal row counts and every value within ``rel`` (absolute below 1)."""
    if len(actual) != len(expected):
        return False
    for row_a, row_e in zip(actual, expected):
        if len(row_a) != len(row_e):
            return False
        for a, e in zip(row_a, row_e):
            if abs(a - e) > rel * max(1.0, abs(a), abs(e)):
                return False
    return True


def result_digest(result) -> str:
    """Exact digest of column names, dtypes and bytes, in output order."""
    digest = hashlib.sha1()
    for name in result.columns:
        array = np.ascontiguousarray(result.batch[name])
        digest.update(name.encode())
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
