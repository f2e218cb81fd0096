"""Per-slot decision traces stay bounded on long runs.

Capping, local capping, Shaving and Anti-DOPE's request-aware power
manager each record one decision per control slot.  Past ``DECISION_HISTORY_CAP``
slots the oldest entries are discarded, so a long run keeps the newest
``DECISION_HISTORY_CAP`` decisions and its memory stays flat.
"""

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    ShavingScheme,
    SimulationConfig,
)
from repro.power.capping import LocalCappingScheme
from repro.power.manager import DECISION_HISTORY_CAP, append_decision

HISTORIES = {
    "capping": (CappingScheme, lambda s: s.decisions, lambda d: d[0]),
    "local-capping": (LocalCappingScheme, lambda s: s.decisions, lambda d: d[0]),
    "shaving": (ShavingScheme, lambda s: s.decisions, lambda d: d[0]),
    "rpm": (AntiDopeScheme, lambda s: s.rpm.stats.decisions, lambda d: d.time_s),
}


def test_append_decision_keeps_the_newest_entries():
    history = []
    for slot in range(10):
        append_decision(history, slot, cap=4)
    assert history == [6, 7, 8, 9]


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_decision_trace_bounded_past_the_cap(name):
    factory, decisions, slot_time = HISTORIES[name]
    duration_s = DECISION_HISTORY_CAP + 76.0
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
        scheme=factory(),
    )
    sim.run(duration_s)
    # More slots ran than the trace holds...
    assert sim.obs.counters.get("power.control_slots") > DECISION_HISTORY_CAP
    # ...and the trace kept exactly the cap, newest slot last.
    trace = decisions(sim.scheme)
    assert len(trace) == DECISION_HISTORY_CAP
    assert slot_time(trace[-1]) == pytest.approx(duration_s)
