"""Oracle defence: the perfect-knowledge upper bound.

Anti-DOPE deliberately does *not* try to distinguish malicious requests
from legitimate ones ("KISS principle", Section 5.4) — it isolates by
power profile and accepts the collateral on legitimate heavy requests.
The natural research question is how much that simplicity costs, so
this module provides the cheating upper bound: a defence that reads the
simulator's ground-truth traffic class and drops attack requests at the
load balancer, with rack-level capping behind it for any residual
peaks.

No real deployment can implement this (the anonymity of the Internet is
the paper's premise); it exists to *bound* the achievable, so the
oracle-gap bench can report how close Anti-DOPE's KISS design gets.
"""

from __future__ import annotations

from typing import Optional

from ..network.request import Request
from ..power.capping import CappingScheme
from ..workloads.catalog import TrafficClass

__all__ = [
    "GroundTruthFilter",
    "OracleScheme",
]


class GroundTruthFilter:
    """NLB admission filter that drops ground-truth attack traffic."""

    def __init__(self) -> None:
        self.dropped_attack = 0
        self.admitted = 0

    def admit(self, request: Request, now: float) -> bool:
        """Reject exactly the requests tagged as attack traffic."""
        if request.traffic_class is TrafficClass.ATTACK:
            self.dropped_attack += 1
            return False
        self.admitted += 1
        return True


class OracleScheme(CappingScheme):
    """Perfect attack knowledge + rack capping (the upper bound).

    Extends :class:`~repro.power.capping.CappingScheme` so any power
    peak the (purely legitimate) residual load produces is still
    enforced — the oracle removes the attack, not the laws of physics.
    """

    name = "oracle"

    def __init__(self) -> None:
        super().__init__()
        self.filter = GroundTruthFilter()

    def admission_filter(self) -> Optional[GroundTruthFilter]:
        """The ground-truth attack filter (installed on the NLB)."""
        return self.filter
