"""Execution traces and trace analysis helpers.

Traces let tests assert structural properties the paper relies on — e.g.
that a channel never serves two ops at once, or how utilized each NVLink
was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One op's occupancy of one resource."""

    op_id: int
    resource: Hashable
    start: float
    finish: float
    label: str = ""


def overlapping_pairs(
    trace: Iterable[TraceRecord],
) -> list[tuple[TraceRecord, TraceRecord]]:
    """Pairs of records that overlap in time on the *same* resource.

    A correct simulation returns an empty list; tests use this as a
    mutual-exclusion check on every channel and processor.
    """
    by_resource: dict[Hashable, list[TraceRecord]] = {}
    for rec in trace:
        by_resource.setdefault(rec.resource, []).append(rec)
    bad: list[tuple[TraceRecord, TraceRecord]] = []
    for records in by_resource.values():
        records.sort(key=lambda r: (r.start, r.finish))
        for prev, cur in zip(records, records[1:]):
            if cur.start < prev.finish - 1e-12:
                bad.append((prev, cur))
    return bad


def utilization(
    trace: Iterable[TraceRecord], resource: Hashable, horizon: float
) -> float:
    """Fraction of ``[0, horizon]`` during which ``resource`` was busy."""
    if horizon <= 0:
        return 0.0
    busy = sum(
        rec.finish - rec.start for rec in trace if rec.resource == resource
    )
    return busy / horizon

