"""Property tests for request conservation (Hypothesis).

Where ``test_fluid_agreement.py`` pins fluid integration against the
per-event engine on fixed seeds, this suite searches the input space
for counterexamples to two invariants:

* **conservation** — neither the per-event engine nor fluid integration
  loses or invents requests: every generated request is either finished
  (in a completion record), still in the system, or was dropped with an
  attributed cause;
* **aggregate records** — a fluid segment's weighted completion record
  carries its count, and cannot be built from a non-positive count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataCenterSimulation, SimulationConfig
from repro.network.request import CompletionRecord, RequestOutcome
from repro.power import BudgetLevel
from repro.sim.engine import EventEngine
from repro.workloads import VOLUME_DOS, TrafficClass

# ----------------------------------------------------------------------
# Conservation on random scenarios
# ----------------------------------------------------------------------


def _run_open_loop(seed, rate_rps, num_agents, fluid=False):
    cfg = SimulationConfig(
        budget_level=BudgetLevel.LOW, seed=seed, firewall_poll_s=2.0
    )
    sim = DataCenterSimulation(cfg, engine=EventEngine(fluid=fluid))
    sim.add_normal_traffic(rate_rps=25.0)
    sim.add_flood(
        mix=VOLUME_DOS,
        rate_rps=rate_rps,
        num_agents=num_agents,
        closed_loop=False,
        poisson=True,
        label="prop-flood",
    )
    sim.run(8.0)
    return sim


def _assert_conserved(sim):
    generated = sum(g.generated for g in sim.generators)
    report = sim.availability_report(traffic_class=None)
    assert report.offered + sim.rack.total_in_system() == generated
    assert (
        report.served_within_sla + report.served_late + report.dropped
        == report.offered
    )
    assert 0 <= report.dropped_fault <= report.dropped


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    rate_rps=st.floats(min_value=10.0, max_value=900.0),
    num_agents=st.integers(min_value=1, max_value=12),
)
def test_conservation(seed, rate_rps, num_agents):
    _assert_conserved(_run_open_loop(seed, rate_rps, num_agents))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_fluid_conservation(seed):
    sim = _run_open_loop(seed, 3000.0, 4, fluid=True)
    _assert_conserved(sim)
    assert sim.obs.counters.get("engine.fluid_time_advanced_s") >= 0.0


# ----------------------------------------------------------------------
# Aggregate record construction
# ----------------------------------------------------------------------


@given(count=st.integers(min_value=1, max_value=10**9))
def test_aggregate_record_carries_its_count(count):
    record = CompletionRecord.aggregate(
        count,
        "volume_dos",
        TrafficClass.ATTACK,
        RequestOutcome.DROPPED_FIREWALL,
        12.5,
    )
    assert record.weight == count
    assert record.request_id == -1


@given(count=st.integers(max_value=0))
def test_aggregate_record_rejects_nonpositive_counts(count):
    with pytest.raises(ValueError):
        CompletionRecord.aggregate(
            count,
            "volume_dos",
            TrafficClass.ATTACK,
            RequestOutcome.DROPPED_FIREWALL,
            12.5,
        )
