"""Capping: DVFS-only peak power management (Table 2, row 1).

The traditional design the paper baselines against: every control slot,
if rack power exceeds the budget, *all* servers are throttled to the
highest uniform V/F level that fits — blind to which requests caused
the peak.  That blindness is exactly what DOPE exploits: attack
requests drag every legitimate request down with them (Figs 7, 16, 17).
"""

from __future__ import annotations

from .manager import (
    HYSTERESIS,
    PowerManagementScheme,
    UniformCappingMixin,
    append_decision,
)

__all__ = [
    "CappingScheme",
    "LocalCappingScheme",
]


class CappingScheme(UniformCappingMixin, PowerManagementScheme):
    """Performance-scaling-only power capping.

    Raising a level needs the :data:`~repro.power.manager.HYSTERESIS`
    margin below the budget, which prevents level chatter at the cap.
    """

    name = "capping"

    def __init__(self) -> None:
        super().__init__()
        #: Per-slot (time, level) control decisions — a bounded trace of
        #: the most recent ``DECISION_HISTORY_CAP`` slots.
        self.decisions = []

    def step(self) -> None:
        """Throttle (or recover) every server to fit the budget."""
        self._require_bound()
        level = self.apply_uniform_cap(self.budget.supply_w)
        append_decision(self.decisions, (self.engine.now, level))


class LocalCappingScheme(PowerManagementScheme):
    """Decentralised capping: each server enforces its fair share.

    Instead of one rack-level controller choosing a uniform V/F point,
    every server independently caps itself at ``budget / num_servers``.
    This is how static per-node power caps (BIOS/BMC limits) behave and
    it exhibits the classic *power fragmentation* problem the paper's
    related work discusses (Hsu et al., ASPLOS'18): headroom stranded
    on lightly loaded servers cannot help heavily loaded ones, so the
    rack under-uses its budget while hot nodes over-throttle.

    Included as a comparison arm for the fragmentation ablation; not
    one of the paper's Table-2 schemes.
    """

    name = "local-capping"

    def __init__(self) -> None:
        super().__init__()
        #: Per-slot (time, per-server levels) decisions, bounded like
        #: :attr:`CappingScheme.decisions`.
        self.decisions = []

    def step(self) -> None:
        """Each server independently fits under its static share."""
        self._require_bound()
        share = self.budget.supply_w / self.rack.num_servers
        guard = share * (1.0 - HYSTERESIS)
        levels = []
        for server in self.rack.servers:
            ladder = server.ladder
            target = 0
            for level in range(ladder.max_level, -1, -1):
                ratio = ladder.ratio(level)
                types = (e.request.rtype for e in server._active.values())
                power_w = server.power_model.power(types, ratio)
                limit = guard if level > server.level else share
                if power_w <= limit:
                    target = level
                    break
            server.set_level(target)
            levels.append(target)
        append_decision(self.decisions, (self.engine.now, tuple(levels)))
