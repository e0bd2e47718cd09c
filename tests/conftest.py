"""Shared fixtures: one small TPC-H database and engine factories.

The database is session-scoped (generation is deterministic, engines
never mutate it), so the whole suite shares one copy.
"""

from __future__ import annotations

import pytest

import repro.relational.database as database_module
from repro.gpu import AMD_A10, NVIDIA_K40
from repro.relational import Database
from repro.tpch import generate_database

TINY_SCALE = 0.002
SMALL_SCALE = 0.01


@pytest.fixture(scope="session")
def tiny_db() -> Database:
    """A very small database for per-operator and planning tests."""
    return generate_database(scale=TINY_SCALE)


@pytest.fixture(scope="session")
def small_db() -> Database:
    """A small database for end-to-end engine tests."""
    return generate_database(scale=SMALL_SCALE)


@pytest.fixture(scope="session")
def amd():
    return AMD_A10


@pytest.fixture(scope="session")
def nvidia():
    return NVIDIA_K40


def assert_rows_close(actual, expected, rel=1e-9):
    """Compare two sorted row lists with floating-point tolerance."""
    assert len(actual) == len(expected), (
        f"row count {len(actual)} != {len(expected)}"
    )
    for row_a, row_e in zip(actual, expected):
        assert len(row_a) == len(row_e)
        for a, e in zip(row_a, row_e):
            tolerance = rel * max(1.0, abs(float(a)), abs(float(e)))
            assert abs(float(a) - float(e)) <= tolerance, (
                f"{a} != {e} (tolerance {tolerance})"
            )


@pytest.fixture()
def distinct_scans(monkeypatch):
    """The column arrays that exact distinct counts scanned, in order."""
    scans = []
    original = database_module._distinct_count

    def counting(array, minimum, maximum):
        scans.append(array)
        return original(array, minimum, maximum)

    monkeypatch.setattr(database_module, "_distinct_count", counting)
    return scans
