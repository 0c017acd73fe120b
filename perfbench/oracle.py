"""Independent answers for slice queries, straight from the fact rows.

The oracle never touches the program's storage, views or answer code: it
indexes the generated fact rows (plus every increment applied so far) by
each key value and aggregates ``sum(measure)`` per group itself.  Each
fact row is tagged with the number of increments applied when it
arrived, so an answer can be computed for any earlier generation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Row = Tuple[object, ...]


class FactOracle:
    """``sum(measure)`` slice answers over base facts plus increments."""

    def __init__(
        self,
        fact_keys: Sequence[str],
        measure_position: int,
        facts: Sequence[Row],
    ) -> None:
        self.positions = {attr: i for i, attr in enumerate(fact_keys)}
        self.measure_position = measure_position
        #: attr -> key value -> [(increments applied, row), ...]
        self._index: Dict[str, Dict[object, List[Tuple[int, Row]]]] = {
            attr: {} for attr in fact_keys
        }
        self._rows: List[Tuple[int, Row]] = []
        self.increments = 0
        self._add(facts)

    def _add(self, rows: Sequence[Row]) -> None:
        tag = self.increments
        for row in rows:
            entry = (tag, tuple(row))
            self._rows.append(entry)
            for attr, position in self.positions.items():
                self._index[attr].setdefault(row[position], []).append(entry)

    def apply(self, rows: Sequence[Row]) -> int:
        """Add one increment; returns the new increment count."""
        self.increments += 1
        self._add(rows)
        return self.increments

    def answer(self, query, increments: int) -> List[Row]:
        """The query's rows as of ``increments`` applied increments.

        Rows are the group-by values followed by the float sum, sorted by
        group key; an empty slice has no rows.
        """
        bounds = dict(query.bounds)
        candidates = self._rows
        if bounds:
            # Equality predicates come first in ``bounds``; any bound
            # attribute narrows the scan, the tightest one most.
            best = None
            for attr, (low, high) in bounds.items():
                if low == high and attr in self._index:
                    found = self._index[attr].get(low, [])
                    if best is None or len(found) < len(best):
                        best = found
            if best is not None:
                candidates = best
        checks = [
            (self.positions[attr], low, high)
            for attr, (low, high) in bounds.items()
        ]
        group = [self.positions[attr] for attr in query.group_by]
        measure = self.measure_position
        sums: Dict[Tuple[object, ...], float] = {}
        for tag, row in candidates:
            if tag > increments:
                continue
            if any(not low <= row[pos] <= high for pos, low, high in checks):
                continue
            key = tuple(row[pos] for pos in group)
            sums[key] = sums.get(key, 0.0) + float(row[measure])  # type: ignore[arg-type]
        return [key + (sums[key],) for key in sorted(sums)]
