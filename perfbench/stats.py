"""Summary arithmetic for the benchmark: percentiles, failure counting.

A timing is reported as its median and the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, together with the
sample count, so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles tried in order, highest first.
TAIL_PERCENTILES: Tuple[float, ...] = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)


def nearest_rank(sorted_values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile of sorted data and the samples beyond it."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


@dataclass(frozen=True)
class Tail:
    """The highest well-supported percentile of a sample."""

    pct: float
    value: float
    beyond: int
    count: int


def tail(values: Sequence[float], wanted: float = 99.0) -> Tail:
    """The highest percentile, at most ``wanted``, with enough beyond it.

    Falls back through :data:`TAIL_PERCENTILES`; when even the lowest has
    fewer than :data:`MIN_BEYOND` samples beyond it, the median is used.
    """
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        if pct > wanted:
            continue
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            return Tail(pct, value, beyond, len(ordered))
    value, beyond = nearest_rank(ordered, 50.0)
    return Tail(50.0, value, beyond, len(ordered))


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


@dataclass
class Outcomes:
    """Attempted and failed operations, with failures kept by reason.

    A failure is anything a user would see as a failed operation: a wrong
    answer, a non-2xx reply, an exception, or a refresh that was not
    published.  ``error_rate`` is failed / attempted.
    """

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    examples: List[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, detail: Optional[str] = None) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if detail is not None and len(self.examples) < 5:
            self.examples.append(f"{reason}: {detail}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
