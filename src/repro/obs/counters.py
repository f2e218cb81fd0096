"""Deterministic named counters.

A :class:`Counters` table maps dotted counter names (``"engine.events_
dispatched"``, ``"cluster.dvfs_transitions"``) to numeric totals.  The
table is part of a run's *deterministic* output: every increment is
driven by simulation state, never by wall-clock or scheduling
accidents, so two same-seed runs — serial or parallel — produce
byte-identical tables.  Anything wall-clock-shaped belongs in
:class:`~repro.obs.timers.WallTimers` instead.

Counter values are ``int`` or ``float`` (floats appear where the
counted quantity is simulated time, e.g. ``engine.sim_time_advanced_s``).
"""

from __future__ import annotations

from typing import Dict, Union

__all__ = ["Counters"]

Number = Union[int, float]


class Counters:
    """A table of named monotonic counters.

    Increment-only by convention: nothing in the simulator decrements,
    so a counter table is a faithful event tally for the whole run.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, Number] = {}

    def inc(self, name: str, amount: Number = 1) -> None:
        """Add *amount* (default 1) to counter *name*, creating it at 0."""
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> Number:
        """Current value of *name* (0 when never incremented)."""
        return self._values.get(name, 0)

    def as_dict(self) -> Dict[str, Number]:
        """Name-sorted snapshot — the canonical serialised form."""
        return {name: self._values[name] for name in sorted(self._values)}

    def clear(self) -> None:
        """Reset every counter (fresh measurement window)."""
        self._values.clear()

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({len(self._values)} names)"
