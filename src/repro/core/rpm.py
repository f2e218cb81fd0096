"""RPM — request-aware power management (Anti-DOPE step 2).

RPM is the server-side control loop.  Every slot it plays the roles the
paper assigns to the *server power monitor* and *server health
checker*: read the instantaneous rack power, compare against the
supply, and when the budget is violated:

1. discharge the battery as a **transition medium** covering the
   deficit for the slot in which the V/F configuration is being
   reconfigured (the "booting delay of DVFS" in Section 6.4) — not as
   a bulk peak-shaving store;
2. ask the :class:`~repro.core.dpm.DPMPlanner` for the differentiated
   throttle configuration and actuate it on the suspect/innocent pools;
3. once the configuration is in place and power is back under budget,
   recharge the battery immediately (Fig. 18's saw-tooth dark line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from .._validation import check_fraction, check_positive
from ..cluster.server import Server
from ..power.battery import Battery
from ..power.budget import PowerBudget
from ..power.manager import append_decision
from .dpm import DPMPlanner, ThrottlePlan

__all__ = [
    "RPMDecision",
    "RPMStats",
    "RequestAwarePowerManager",
]


@dataclass
class RPMDecision:
    """Per-slot control record (drives the Fig. 15a/18 benches)."""

    time_s: float
    power_w: float
    deficit_w: float
    battery_w: float
    plan: ThrottlePlan
    reconfigured: bool


@dataclass
class RPMStats:
    """Aggregate controller statistics."""

    slots: int = 0
    violations: int = 0
    reconfigurations: int = 0
    infeasible_slots: int = 0
    degraded_slots: int = 0
    #: The most recent ``DECISION_HISTORY_CAP`` per-slot decisions.
    decisions: List[RPMDecision] = field(default_factory=list)


class RequestAwarePowerManager:
    """The Anti-DOPE runtime controller.

    Parameters
    ----------
    suspect_pool, innocent_pool:
        The PDF server partition (suspect pool is throttled first).
    budget:
        The enforced power budget.
    battery:
        Optional transition-medium battery; ``None`` disables the
        ride-through (the ablation arm).
    planner:
        DPM planner; defaults to one sized to the pools' ladder.
    slot_s:
        Control-slot length in seconds.
    recharge_headroom_fraction:
        Fraction of spare headroom offered to the battery per slot.
    power_reader:
        Optional override for the power observation used by control —
        the Anti-DOPE scheme passes its (possibly sensor-degraded)
        ``current_power`` so RPM plans against what the meter reports,
        not omniscient truth.  ``None`` keeps the exact pool sum.
    """

    def __init__(
        self,
        suspect_pool: Sequence[Server],
        innocent_pool: Sequence[Server],
        budget: PowerBudget,
        battery: Optional[Battery] = None,
        planner: Optional[DPMPlanner] = None,
        slot_s: float = 1.0,
        recharge_headroom_fraction: float = 0.5,
        power_reader: Optional[Callable[[], float]] = None,
    ) -> None:
        if not suspect_pool or not innocent_pool:
            raise ValueError("both pools must be non-empty")
        check_positive("slot_s", slot_s)
        check_fraction("recharge_headroom_fraction", recharge_headroom_fraction)
        self.suspect_pool = list(suspect_pool)
        self.innocent_pool = list(innocent_pool)
        self.budget = budget
        self.battery = battery
        ladder = self.suspect_pool[0].ladder
        self.planner = planner or DPMPlanner(ladder.max_level)
        self.slot_s = float(slot_s)
        self.recharge_headroom_fraction = recharge_headroom_fraction
        self.power_reader = power_reader
        self.stats = RPMStats()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _pool_power(self, pool: Sequence[Server], level: int) -> float:
        ladder = pool[0].ladder
        ratio = ladder.ratio(ladder.clamp(level))
        total = 0.0
        for server in pool:
            if not server.healthy:
                # Crashed/powered-off servers draw nothing and will not
                # respond to DVFS — predicting them at idle would bias
                # the planner toward needless extra throttling.
                continue
            types = (e.request.rtype for e in server._active.values())
            total += server.power_model.power(types, ratio)
        return total

    def predict(self, suspect_level: int, innocent_level: int) -> float:
        """Rack power if the pools moved to the given levels now."""
        return self._pool_power(self.suspect_pool, suspect_level) + self._pool_power(
            self.innocent_pool, innocent_level
        )

    def current_power(self) -> float:
        """Instantaneous power of both pools."""
        return sum(s.current_power() for s in self.suspect_pool) + sum(
            s.current_power() for s in self.innocent_pool
        )

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def step(self, now: float) -> RPMDecision:
        """One control slot; returns the decision record.

        When servers have crashed out of a pool the slot is *degraded*:
        planning proceeds over the healthy survivors (a fully-dead pool
        contributes zero power and its level defaults to the ladder
        top), and the slot is counted in ``stats.degraded_slots``.
        """
        if self.power_reader is not None:
            power_w = self.power_reader()
        else:
            power_w = self.current_power()
        deficit = self.budget.deficit(power_w)
        self.stats.slots += 1
        if deficit > 0:
            self.stats.violations += 1

        suspect_alive = [s for s in self.suspect_pool if s.healthy]
        innocent_alive = [s for s in self.innocent_pool if s.healthy]
        if len(suspect_alive) < len(self.suspect_pool) or len(
            innocent_alive
        ) < len(self.innocent_pool):
            self.stats.degraded_slots += 1

        ladder = self.suspect_pool[0].ladder
        plan = self.planner.plan(
            self.budget.supply_w,
            self.predict,
            current_suspect_level=min(
                (s.level for s in suspect_alive), default=ladder.max_level
            ),
            current_innocent_level=min(
                (s.level for s in innocent_alive), default=ladder.max_level
            ),
        )
        if not plan.feasible:
            self.stats.infeasible_slots += 1

        reconfigured = self._apply(plan)
        battery_w = 0.0
        if self.battery is not None:
            if deficit > 0 and reconfigured:
                # Transition medium: carry the deficit across the slot in
                # which the new V/F settings take effect.
                battery_w = self.battery.discharge(deficit, self.slot_s)
            elif deficit <= 0:
                headroom = self.budget.headroom(power_w)
                self.battery.charge(
                    headroom * self.recharge_headroom_fraction, self.slot_s
                )
            else:
                self.battery.idle()
        if reconfigured:
            self.stats.reconfigurations += 1

        decision = RPMDecision(
            time_s=now,
            power_w=power_w,
            deficit_w=deficit,
            battery_w=battery_w,
            plan=plan,
            reconfigured=reconfigured,
        )
        append_decision(self.stats.decisions, decision)
        return decision

    def _apply(self, plan: ThrottlePlan) -> bool:
        """Actuate the plan on healthy servers; True when any changed."""
        changed = False
        for server in self.suspect_pool:
            if server.healthy and server.level != plan.suspect_level:
                server.set_level(plan.suspect_level)
                changed = True
        for server in self.innocent_pool:
            if server.healthy and server.level != plan.innocent_level:
                server.set_level(plan.innocent_level)
                changed = True
        return changed
