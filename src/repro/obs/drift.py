"""Cost-model drift: predicted-vs-actual cycles from live telemetry.

Figures 11 and 24 of the paper characterize the cost model by running
every query twice — once through the model, once on the device — and
plotting the relative error.  In a serving deployment that second pass
is free: the model already predicted each admitted query's cycles
(`ScheduledQuery.est_cost_cycles`), and the device then measured them
(`result.counters.elapsed_cycles`).  :class:`DriftRecorder` pairs the
two per (query, device, Δ) and summarizes the error exactly the way the
figures do:

``relative_error = |measured - predicted| / measured``

with ``underestimated`` meaning the model predicted fewer cycles than
the device spent — the direction the paper says its model errs, because
it ignores some overlap-breaking stalls.

A recorder can feed a :class:`~repro.obs.metrics.MetricsRegistry`
(``model_drift_relative_error`` histogram and
``model_drift_observations_total`` counter) so drift shows up alongside
the serving metrics without a separate export path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["DriftRecord", "DriftRecorder"]

# Since Python 3.12 the builtin ``sum`` of floats is compensated
# (Neumaier); running totals follow whichever ``sum`` this interpreter
# has, so a roll-up equals summing the records in append order.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


@dataclass(frozen=True)
class DriftRecord:
    """One predicted-vs-measured observation for a query execution."""

    query: str
    device: str
    tile_bytes: int
    predicted_cycles: float
    measured_cycles: float

    @property
    def relative_error(self) -> float:
        """``|measured - predicted| / measured`` (0.0 when measured is 0)."""
        if self.measured_cycles <= 0:
            return 0.0
        return (
            abs(self.measured_cycles - self.predicted_cycles)
            / self.measured_cycles
        )

    @property
    def underestimated(self) -> bool:
        """True when the model predicted fewer cycles than were spent."""
        return self.predicted_cycles < self.measured_cycles

    @property
    def direction(self) -> str:
        if self.predicted_cycles == self.measured_cycles:
            return "exact"
        return "under" if self.underestimated else "over"


class _Rollup:
    """Running count, error sum, max error and underestimate count of a
    record stream: the numbers a regroup-and-sum over the stream gives,
    kept up to date in O(1) per record."""

    __slots__ = ("count", "total", "compensation", "max_error", "under")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.compensation = 0.0
        self.max_error = 0.0
        self.under = 0

    def add(self, observation: DriftRecord) -> None:
        error = observation.relative_error
        if _COMPENSATED_SUM:
            total = self.total + error
            if abs(self.total) >= abs(error):
                self.compensation += (self.total - total) + error
            else:
                self.compensation += (error - total) + self.total
            self.total = total
        else:
            self.total += error
        # ``max`` keeps the first item and replaces it only on ``>``.
        if self.count == 0 or error > self.max_error:
            self.max_error = error
        self.count += 1
        self.under += observation.underestimated

    def summary(self) -> Dict[str, float]:
        total = self.total
        if self.compensation and math.isfinite(self.compensation):
            total += self.compensation
        return {
            "observations": self.count,
            "mean_relative_error": total / self.count,
            "max_relative_error": self.max_error,
            "underestimated_share": self.under / self.count,
        }


class DriftRecorder:
    """Accumulates :class:`DriftRecord` observations and summarizes them.

    ``registry`` is optional; when given, every :meth:`record` also
    observes ``model_drift_relative_error`` and increments
    ``model_drift_observations_total{direction=...}``.

    Summaries come from running roll-ups updated in :meth:`record`, so
    a serve drain that reads them pays per query name, not per record.
    """

    def __init__(self, registry=None):
        self.records: List[DriftRecord] = []
        self._registry = registry
        self._per_query: Dict[str, _Rollup] = {}
        self._overall = _Rollup()

    def record(
        self,
        query: str,
        device: str,
        tile_bytes: int,
        predicted_cycles: float,
        measured_cycles: float,
    ) -> DriftRecord:
        observation = DriftRecord(
            query=query,
            device=device,
            tile_bytes=int(tile_bytes),
            predicted_cycles=float(predicted_cycles),
            measured_cycles=float(measured_cycles),
        )
        self.records.append(observation)
        rollup = self._per_query.get(query)
        if rollup is None:
            rollup = self._per_query[query] = _Rollup()
        rollup.add(observation)
        self._overall.add(observation)
        if self._registry is not None:
            self._registry.histogram("model_drift_relative_error").observe(
                observation.relative_error
            )
            self._registry.counter("model_drift_observations_total").inc(
                direction=observation.direction
            )
        return observation

    def __len__(self) -> int:
        return len(self.records)

    # -- summaries -------------------------------------------------------

    def per_query(self) -> Dict[str, Dict[str, float]]:
        """Mean error and underestimate share per query name, sorted."""
        return {
            query: self._per_query[query].summary()
            for query in sorted(self._per_query)
        }

    def overall(self) -> Dict[str, float]:
        """The Fig 11/24 headline numbers across all observations."""
        if not self.records:
            return {
                "observations": 0,
                "mean_relative_error": 0.0,
                "max_relative_error": 0.0,
                "underestimated_share": 0.0,
            }
        return self._overall.summary()

    def to_json(self) -> Dict[str, object]:
        """Full dump: every observation plus the roll-ups."""
        return {
            "records": [
                {
                    "query": observation.query,
                    "device": observation.device,
                    "tile_bytes": observation.tile_bytes,
                    "predicted_cycles": observation.predicted_cycles,
                    "measured_cycles": observation.measured_cycles,
                    "relative_error": observation.relative_error,
                    "underestimated": observation.underestimated,
                }
                for observation in self.records
            ],
            "per_query": self.per_query(),
            "overall": self.overall(),
        }

    def to_text(self) -> str:
        """Terminal-friendly drift table (the serve report appends it)."""
        if not self.records:
            return "cost-model drift: no observations"
        lines = ["cost-model drift (predicted vs measured cycles):"]
        for query, stats in self.per_query().items():
            lines.append(
                f"  {query:12s} n={int(stats['observations']):3d}  "
                f"mean err {stats['mean_relative_error']:6.1%}  "
                f"max err {stats['max_relative_error']:6.1%}  "
                f"under {stats['underestimated_share']:5.0%}"
            )
        overall = self.overall()
        lines.append(
            f"  {'overall':12s} n={int(overall['observations']):3d}  "
            f"mean err {overall['mean_relative_error']:6.1%}  "
            f"max err {overall['max_relative_error']:6.1%}  "
            f"under {overall['underestimated_share']:5.0%}"
        )
        return "\n".join(lines)
