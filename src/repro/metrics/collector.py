"""Metrics collector: the terminal sink for every request.

The collector implements both the server completion-sink and the NLB
drop-sink signatures, so every request's fate — served, firewalled,
shaped away or queue-overflowed — lands in one flat record list.  All
query methods return NumPy arrays or filtered record lists, keeping the
analysis layer vectorised.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..network.request import (
    FAULT_OUTCOMES,
    CompletionRecord,
    Request,
    RequestOutcome,
)
from ..workloads.catalog import TrafficClass

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Accumulates :class:`CompletionRecord` objects for one run."""

    def __init__(self) -> None:
        self.records: List[CompletionRecord] = []

    # ------------------------------------------------------------------
    # Sink interfaces
    # ------------------------------------------------------------------
    def sink(self, request: Request, outcome: RequestOutcome, time_s: float) -> None:
        """Record the terminal *outcome* of *request* at *time_s*.

        This single method satisfies both the server ``completion_sink``
        and the NLB ``drop_sink`` contracts.
        """
        self.records.append(CompletionRecord(request, outcome, time_s))

    def sink_bulk(
        self,
        count: int,
        type_name: str,
        traffic_class: TrafficClass,
        outcome: RequestOutcome,
        time_s: float,
    ) -> None:
        """Record *count* identical terminals as one aggregate record.

        The fluid-drain path lands here: a whole analytically absorbed
        cohort becomes a single weighted record instead of *count*
        per-request ones.  Count-style queries (:meth:`outcome_counts`,
        :meth:`drop_attribution`, :meth:`total`, availability) sum
        weights, so the aggregate is indistinguishable from its
        expansion everywhere except record-list length.
        """
        self.records.append(
            CompletionRecord.aggregate(
                count, type_name, traffic_class, outcome, time_s
            )
        )

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def filtered(
        self,
        traffic_class: Optional[TrafficClass] = None,
        type_name: Optional[str] = None,
        outcome: Optional[RequestOutcome] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
        completed_only: bool = False,
    ) -> List[CompletionRecord]:
        """Records matching every given criterion.

        Time filtering is on *arrival* time, so a window captures the
        requests offered during it regardless of when they finished.
        """
        out = []
        for r in self.records:
            if traffic_class is not None and r.traffic_class is not traffic_class:
                continue
            if type_name is not None and r.type_name != type_name:
                continue
            if outcome is not None and r.outcome is not outcome:
                continue
            if completed_only and not r.completed:
                continue
            if start_s is not None and r.arrival_time_s < start_s:
                continue
            if end_s is not None and r.arrival_time_s >= end_s:
                continue
            out.append(r)
        return out

    def response_times(
        self,
        traffic_class: Optional[TrafficClass] = None,
        type_name: Optional[str] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> np.ndarray:
        """Response times (seconds) of completed matching requests."""
        recs = self.filtered(
            traffic_class=traffic_class,
            type_name=type_name,
            start_s=start_s,
            end_s=end_s,
            completed_only=True,
        )
        return np.array([r.response_time for r in recs])

    def outcome_counts(
        self,
        traffic_class: Optional[TrafficClass] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> dict:
        """Histogram of outcomes over the matching records."""
        counts = {outcome: 0 for outcome in RequestOutcome}
        for r in self.filtered(
            traffic_class=traffic_class, start_s=start_s, end_s=end_s
        ):
            counts[r.outcome] += r.weight
        return counts

    def drop_attribution(
        self,
        traffic_class: Optional[TrafficClass] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> dict:
        """Split drops into policy-caused vs fault-caused counts.

        Policy drops are deliberate rejections (firewall, token bucket,
        queue overflow/timeout); fault drops are losses the chaos layer
        inflicted (server crash mid-service, no healthy backend).  The
        distinction keeps "the scheme shed load" separate from "the
        infrastructure failed" in chaos-run reports.
        """
        policy = fault = 0
        for r in self.filtered(
            traffic_class=traffic_class, start_s=start_s, end_s=end_s
        ):
            if r.outcome is RequestOutcome.COMPLETED:
                continue
            if r.outcome in FAULT_OUTCOMES:
                fault += r.weight
            else:
                policy += r.weight
        return {"dropped_policy": policy, "dropped_fault": fault}

    def total(self, traffic_class: Optional[TrafficClass] = None) -> int:
        """Number of matching requests (aggregate records count fully)."""
        if traffic_class is None:
            return sum(r.weight for r in self.records)
        return sum(
            r.weight for r in self.records if r.traffic_class is traffic_class
        )

    def clear(self) -> None:
        """Drop all records (reuse across warm-up phases)."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)
