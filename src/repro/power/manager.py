"""Power-management scheme interface (paper Table 2).

Every evaluated scheme — Capping, Shaving, Token, Anti-DOPE — is a
:class:`PowerManagementScheme`: an object the simulation *binds* to the
rack/budget/battery/NLB once, then ticks every control slot.  Schemes
can additionally contribute a forwarding policy (Anti-DOPE's PDF) and
an admission filter (Token's bucket) to the ingress pipeline, so the
whole Table 2 matrix is expressed by swapping one object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .._validation import check_positive
from .battery import Battery
from .budget import PowerBudget
from .sensor import SensorReading

__all__ = [
    "PowerManagementScheme",
    "NullScheme",
    "UniformCappingMixin",
    "DECISION_HISTORY_CAP",
    "append_decision",
]

#: Per-slot decisions a controller's ``decisions`` trace retains: the
#: most recent ones, oldest discarded first.  Exact slot totals live in
#: the ``power.*`` counters, so a multi-hour run keeps bounded memory.
DECISION_HISTORY_CAP = 1024


def append_decision(
    history: list, decision: object, cap: int = DECISION_HISTORY_CAP
) -> None:
    """Append *decision* to *history*, trimming it to the newest *cap*."""
    history.append(decision)
    if len(history) > cap:
        del history[: len(history) - cap]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.rack import Rack
    from ..cluster.server import Server
    from ..cluster.topology import PowerTopology
    from ..network.load_balancer import AdmissionFilter, ForwardingPolicy
    from ..sim.engine import EventEngine
    from .sensor import FaultyPowerSensor


class PowerManagementScheme:
    """Base class for Table 2 schemes.

    Subclasses override :meth:`step` (the per-slot control action) and
    optionally :meth:`forwarding_policy` / :meth:`admission_filter` to
    hook the NLB.  :meth:`bind` wires in the shared infrastructure and
    may be extended, but subclasses must call ``super().bind(...)``.
    """

    #: Human-readable scheme name (Table 2 key).
    name: str = "base"

    def __init__(self) -> None:
        self.engine: Optional[EventEngine] = None
        self.rack: Optional[Rack] = None
        self.budget: Optional[PowerBudget] = None
        self.battery: Optional[Battery] = None
        self.slot_s: float = 1.0
        self.bound = False
        # Optional power tree (hierarchical mode); None = flat rack.
        self.topology: Optional[PowerTopology] = None
        # Optional faultable sensing path (chaos layer); None = exact.
        self.power_sensor: Optional[FaultyPowerSensor] = None
        self.staleness_bound_s: float = 5.0
        self._last_good_reading: Optional[SensorReading] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(
        self,
        engine: EventEngine,
        rack: Rack,
        budget: PowerBudget,
        battery: Optional[Battery],
        slot_s: float,
    ) -> None:
        """Attach the scheme to the simulated infrastructure."""
        if self.bound:
            raise RuntimeError(f"scheme {self.name!r} already bound")
        self.engine = engine
        self.rack = rack
        self.budget = budget
        self.battery = battery
        self.slot_s = float(slot_s)
        self.bound = True

    def bind_topology(self, topology: "PowerTopology") -> None:
        """Overlay a power tree on the bound rack.

        The tree adds the per-PDU protection sweep to every control
        slot (when the spec opts in): after the scheme's own step, each
        rack and row node whose subtree still exceeds its budget gets
        capped independently — PDU protection belongs to the
        infrastructure, so it runs under every scheme including
        :class:`NullScheme`.
        """
        self._require_bound()
        self.topology = topology

    def step(self) -> None:
        """One control-slot action.  Default: do nothing."""

    def slot_tick(self) -> None:
        """Instrumented per-slot entry point: observe, then :meth:`step`.

        Records the control-slot counters every scheme shares — slots
        ticked, budget violations seen at slot entry (the power the
        *previous* decision produced, matching the meter's view), and
        slots in which the step discharged the battery — then delegates
        to the scheme's :meth:`step`.  The simulation facade schedules
        this instead of ``step`` so the counters exist for every scheme
        without any per-scheme code.
        """
        self._require_bound()
        counters = self.engine.obs.counters
        counters.inc("power.control_slots")
        if self.budget.deficit(self.rack.total_power()) > 0.0:
            counters.inc("power.budget_violation_slots")
        if self.battery is not None:
            delivered_before_j = self.battery.delivered_j
            self.step()
            if self.battery.delivered_j > delivered_before_j:
                counters.inc("power.battery_discharge_slots")
        else:
            self.step()
        if self.topology is not None and self.topology.spec.enforce_levels:
            self._enforce_node_budgets()

    # ------------------------------------------------------------------
    # NLB hooks
    # ------------------------------------------------------------------
    def forwarding_policy(
        self, servers: Sequence["Server"]
    ) -> Optional[ForwardingPolicy]:
        """Scheme-specific NLB policy, or ``None`` for the default."""
        return None

    def admission_filter(self) -> Optional[AdmissionFilter]:
        """Scheme-specific NLB shaper, or ``None`` for pass-through."""
        return None

    # ------------------------------------------------------------------
    # Shared control arithmetic
    # ------------------------------------------------------------------
    def _require_bound(self) -> None:
        if not self.bound:
            raise RuntimeError(f"scheme {self.name!r} used before bind()")

    def attach_power_sensor(
        self, sensor: "FaultyPowerSensor", staleness_bound_s: float = 5.0
    ) -> None:
        """Route :meth:`current_power` through *sensor*.

        The degradation contract: an ``ok`` reading refreshes the
        last-known-good value; a missing (dropout) or old (stale) reading
        is answered with last-known-good while its age stays within
        *staleness_bound_s*; beyond the bound the scheme must assume the
        worst case — full rack nameplate — which forces a throttle
        rather than letting a blind controller exceed the budget.
        """
        check_positive("staleness_bound_s", staleness_bound_s)
        self.power_sensor = sensor
        self.staleness_bound_s = float(staleness_bound_s)
        self._last_good_reading = None

    def current_power(self) -> float:
        """Instantaneous rack power as the scheme perceives it.

        Exact (``rack.total_power()``) without an attached sensor;
        otherwise the sensed value under the bounded-staleness contract
        of :meth:`attach_power_sensor`.
        """
        self._require_bound()
        if self.power_sensor is None:
            return self.rack.total_power()
        return self._sensed_power()

    def _sensed_power(self) -> float:
        """Sensor path with last-known-good / worst-case fallbacks."""
        now = self.engine.now
        reading = self.power_sensor.read(now)
        counters = self.engine.obs.counters
        if reading.ok:
            self._last_good_reading = reading
        last = self._last_good_reading
        if last is not None and now - last.time_s <= self.staleness_bound_s:
            if not reading.ok:
                counters.inc("power.sensor_stale_fallbacks")
            return last.power_w
        counters.inc("power.sensor_worst_case_fallbacks")
        return self.rack.nameplate_w

    def deficit(self) -> float:
        """Watts above budget right now (zero when compliant)."""
        self._require_bound()
        return self.budget.deficit(self.current_power())

    def predict_power_at_level(
        self, level: int, servers: Optional[Sequence["Server"]] = None
    ) -> float:
        """Rack power if *servers* (default: all) moved to *level* now.

        Uses the servers' actual in-service request types, so the
        prediction is exact for the current instant — the idealised
        model-based capping controller the paper assumes RAPL provides.
        """
        self._require_bound()
        self.engine.obs.counters.inc("power.prediction_evals")
        pool = self.rack.servers if servers is None else list(servers)
        pool_ids = {s.server_id for s in pool}
        clamped = self.rack.ladder.clamp(level)
        total = 0.0
        for server in self.rack.servers:
            if server.server_id in pool_ids:
                # Count-based prediction against the cached physics
                # rows; like the per-type iteration it replaces, this
                # deliberately ignores health (a crashed pool server
                # predicts as its idle floor).
                total += server.power_at_level(clamped)
            else:
                total += server.current_power()
        return total

    # ------------------------------------------------------------------
    # Hierarchical (per-PDU) protection
    # ------------------------------------------------------------------
    def _enforce_node_budgets(self) -> None:
        """Cap every tree node whose subtree still exceeds its budget.

        Sweeps deepest nodes first (all racks, then rows; the feed is
        the scheme's own budget), re-reading subtree power after each
        cap so a parent only reacts to what its capped children still
        draw.  Levels only ever move *down* here — the scheme's global
        decision is a ceiling the PDU protection tightens per subtree.
        """
        counters = self.engine.obs.counters
        for node in self.topology.enforcement_order:
            servers = self.rack.servers[node.start : node.stop]
            power_w = 0.0
            for server in servers:
                power_w += server.current_power()
            if power_w <= node.budget_w:
                continue
            counters.inc(f"topology.cap_slots.{node.name}")
            target = self.highest_level_within_subtree(node.budget_w, servers)
            for server in servers:
                if server.level > target:
                    server.set_level(target)

    def predict_subtree_power_at_level(
        self, level: int, servers: Sequence["Server"]
    ) -> float:
        """Power of *servers* alone if all moved to *level* now.

        The subtree analogue of :meth:`predict_power_at_level`: sums
        only the given servers (a per-PDU budget constrains its own
        subtree, not the rack), and like it deliberately ignores health.
        """
        self._require_bound()
        self.engine.obs.counters.inc("power.prediction_evals")
        clamped = self.rack.ladder.clamp(level)
        total = 0.0
        for server in servers:
            total += server.power_at_level(clamped)
        return total

    def highest_level_within_subtree(
        self, cap_w: float, servers: Sequence["Server"]
    ) -> int:
        """Highest uniform level keeping *servers*' power ≤ *cap_w*."""
        self._require_bound()
        ladder = self.rack.ladder
        for level in range(ladder.max_level, -1, -1):
            if self.predict_subtree_power_at_level(level, servers) <= cap_w:
                return level
        return 0

    def highest_level_within(
        self,
        cap_w: float,
        servers: Optional[Sequence["Server"]] = None,
    ) -> int:
        """Highest uniform level keeping predicted rack power ≤ *cap_w*.

        Returns 0 (deepest throttle) when even the bottom of the ladder
        cannot satisfy the cap — power is then idle-floor dominated.
        """
        self._require_bound()
        ladder = self.rack.ladder
        for level in range(ladder.max_level, -1, -1):
            if self.predict_power_at_level(level, servers) <= cap_w:
                return level
        return 0


class NullScheme(PowerManagementScheme):
    """No power management at all — the unconstrained reference arm."""

    name = "none"


class UniformCappingMixin:
    """Shared "pick a uniform V/F level to satisfy a cap" step logic.

    Both Capping and the DVFS tail of Shaving need the same action:
    choose the highest ladder level whose predicted power fits under a
    cap and apply it to a server set, with a small hysteresis band so
    the controller does not chatter between adjacent levels.
    """

    #: Fraction of the budget kept as a raise-guard band.
    hysteresis: float = 0.02

    def apply_uniform_cap(
        self,
        cap_w: float,
        servers: Optional[Sequence["Server"]] = None,
    ) -> int:
        """Move *servers* to the best uniform level for *cap_w*.

        Returns the level chosen.  Raising frequency only happens when
        the predicted power at the higher level stays below the cap
        minus the hysteresis band.
        """
        self._require_bound()  # type: ignore[attr-defined]
        rack: Rack = self.rack  # type: ignore[attr-defined]
        pool = rack.servers if servers is None else list(servers)
        if not pool:
            return rack.ladder.max_level
        current = min(s.level for s in pool)
        target = self.highest_level_within(cap_w, pool)  # type: ignore[attr-defined]
        if target > current:
            # Raising: demand a hysteresis margin to avoid chatter.
            guard = cap_w * (1.0 - self.hysteresis)
            while target > current and self.predict_power_at_level(  # type: ignore[attr-defined]
                target, pool
            ) > guard:
                target -= 1
        for server in pool:
            server.set_level(target)
        return target
