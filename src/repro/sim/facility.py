"""Facility simulation: several racks behind one oversubscribed feed.

The paper studies one rack; real oversubscription is hierarchical.
:class:`FacilitySimulation` instantiates ``num_racks`` complete
data-center stacks (each with its own NLB, firewall, battery and power
scheme) on one shared event engine, and runs a facility-level re-plan
loop: every interval, each rack's *unthrottled* power demand is
estimated and the :class:`~repro.power.hierarchy.FacilityBudgetAllocator`
water-fills the facility budget across the racks, updating each rack's
:class:`~repro.power.budget.PowerBudget` in place so its local scheme
enforces the new share in the next control slot.

This is the substrate for cross-rack DOPE questions: an attack on one
rack inflates that rack's demand, bids facility headroom away from its
neighbours, and degrades *their* users without a single packet sent to
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .._validation import check_fraction, check_int, check_positive
from ..power.hierarchy import FacilityBudgetAllocator, RackAllocation
from ..power.manager import NullScheme, PowerManagementScheme
from .config import SimulationConfig
from .engine import EventEngine
from .events import PRIORITY_CONTROL
from .simulation import DataCenterSimulation

__all__ = [
    "ReplanRecord",
    "FacilityStats",
    "FacilitySimulation",
]

SchemeFactory = Callable[[], PowerManagementScheme]


@dataclass
class ReplanRecord:
    """One facility re-plan decision."""

    time_s: float
    demands_w: List[float]
    allocations: List[RackAllocation]


@dataclass
class FacilityStats:
    """Re-plan history."""

    replans: int = 0
    records: List[ReplanRecord] = field(default_factory=list)


class FacilitySimulation:
    """Several racks sharing one power feed and one simulated world.

    Parameters
    ----------
    num_racks:
        How many rack stacks to instantiate.
    facility_fraction:
        Facility budget as a fraction of the summed rack nameplates
        (the facility-level oversubscription knob).
    scheme_factory:
        Builds each rack's local power-management scheme.
    rack_config:
        Per-rack configuration template; rack *i* runs with seed
        ``rack_config.seed + i``.  Rack-level budgets start at the
        template's level and are overwritten by the facility re-plan.
    replan_interval_s:
        Seconds between facility allocations.
    floor_fraction:
        Per-rack allocation floor (see the allocator).
    """

    def __init__(
        self,
        num_racks: int = 3,
        facility_fraction: float = 0.85,
        scheme_factory: Optional[SchemeFactory] = None,
        rack_config: SimulationConfig = SimulationConfig(),
        replan_interval_s: float = 5.0,
        floor_fraction: float = 0.2,
    ) -> None:
        check_int("num_racks", num_racks, minimum=1)
        check_fraction("facility_fraction", facility_fraction, inclusive=False)
        check_positive("replan_interval_s", replan_interval_s)
        factory = scheme_factory or NullScheme
        self.engine = EventEngine()
        self.racks: List[DataCenterSimulation] = [
            DataCenterSimulation(
                rack_config.with_seed(rack_config.seed + i),
                scheme=factory(),
                engine=self.engine,
            )
            for i in range(num_racks)
        ]
        total_nameplate = sum(r.rack.nameplate_w for r in self.racks)
        self.facility_budget_w = total_nameplate * facility_fraction
        self.allocator = FacilityBudgetAllocator(
            self.facility_budget_w, floor_fraction=floor_fraction
        )
        self.replan_interval_s = float(replan_interval_s)
        self.stats = FacilityStats()
        self._started = False

    # ------------------------------------------------------------------
    # Facility control
    # ------------------------------------------------------------------
    def rack_demand_w(self, sim: DataCenterSimulation) -> float:
        """A rack's unthrottled power demand (what it *wants* to draw).

        Uses the scheme's model-based prediction at nominal frequency,
        so a throttled rack still reports its true appetite — the
        signal the facility needs to re-plan fairly.
        """
        return sim.scheme.predict_power_at_level(sim.rack.ladder.max_level)

    def replan(self) -> ReplanRecord:
        """One facility allocation; updates every rack budget in place."""
        demands = [self.rack_demand_w(sim) for sim in self.racks]
        allocations = self.allocator.allocate(demands)
        for sim, allocation in zip(self.racks, allocations):
            # Never allocate below the rack's gated-off floor; a budget
            # of ~0 would be unenforceable anyway (idle power remains).
            sim.budget.supply_w = max(allocation.allocated_w, 1e-6)
        record = ReplanRecord(self.engine.now, demands, allocations)
        self.stats.replans += 1
        self.stats.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> None:
        """Advance the shared world by *duration_s* seconds."""
        if not self._started:
            for sim in self.racks:
                sim.ensure_started()
            self.replan()  # initial split before any control slot
            self.engine.every(
                self.replan_interval_s, self.replan, priority=PRIORITY_CONTROL
            )
            self._started = True
        self.engine.run(until=self.engine.now + duration_s)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    def total_power(self) -> float:
        """Instantaneous facility IT power."""
        return sum(sim.rack.total_power() for sim in self.racks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FacilitySimulation({len(self.racks)} racks, "
            f"feed={self.facility_budget_w:.0f}W, t={self.now:.0f}s)"
        )
