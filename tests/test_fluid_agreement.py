"""Fluid integration agrees with the per-event engine.

Fluid mode (``EventEngine(fluid=True)``) integrates provably-steady
segments analytically: absorbed arrivals never materialise ids and their
interarrival gaps collapse into one Poisson count per segment, so a
fluid run is *statistically* faithful rather than byte-identical.  This
suite pins what "faithful" means for the quantities the figures consume.
On the benchmark's volume flood (a 12000 rps open-loop DoS that the
firewall bans at its first 1 s poll) every legitimate-traffic metric,
the peak and mean rack power and the firewall's detection record must be
*exactly* equal across seeds, and the dispatched event totals must agree
to within 1%.  The fluid path only re-draws the banned flood's arrivals,
which reach neither a server nor a meter.

It also checks that fluid runs never lose or invent requests.
"""

import pytest

from repro import DataCenterSimulation, SimulationConfig
from repro.power import BudgetLevel
from repro.sim.engine import EventEngine
from repro.workloads import VOLUME_DOS

SEEDS = (1, 2, 3, 7, 1009)

#: Largest relative gap in dispatched events between the two engines.
EVENTS_REL_TOL = 0.01


def _volume_flood(seed: int, fluid: bool) -> DataCenterSimulation:
    """The benchmark's volume-flood workload on a 4-server rack."""
    cfg = SimulationConfig(
        budget_level=BudgetLevel.LOW, seed=seed, firewall_poll_s=1.0
    )
    sim = DataCenterSimulation(cfg, engine=EventEngine(fluid=fluid))
    sim.add_normal_traffic(rate_rps=40.0, num_users=200)
    sim.add_flood(
        mix=VOLUME_DOS,
        rate_rps=12000.0,
        num_agents=10,
        start_s=0.0,
        closed_loop=False,
        poisson=True,
        label="volume-dos",
    )
    sim.run(15.0)
    return sim


def _figure_quantities(sim: DataCenterSimulation) -> dict:
    latency = sim.latency_stats()
    return {
        "availability": sim.availability_report().availability,
        "p50_s": latency.p50,
        "p99_s": latency.p99,
        "peak_power_w": sim.meter.peak_power(),
        "mean_power_w": sim.meter.mean_power(),
        "first_detection_time_s": sim.firewall.stats.first_detection_time_s,
        "bans": sim.firewall.stats.bans,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_fluid_agrees_with_scalar_on_volume_flood(seed):
    scalar = _volume_flood(seed, fluid=False)
    fluid = _volume_flood(seed, fluid=True)

    # The comparison means nothing unless fluid actually integrated.
    assert scalar.obs.counters.get("engine.fluid_segments") == 0
    assert fluid.obs.counters.get("engine.fluid_segments") > 0

    assert _figure_quantities(fluid) == _figure_quantities(scalar)

    scalar_events = scalar.engine.dispatched
    fluid_events = fluid.engine.dispatched
    assert abs(fluid_events - scalar_events) <= EVENTS_REL_TOL * scalar_events


def test_fluid_mode_conserves_requests_outside_the_contract():
    """Fluid runs are approximate but never lose or invent requests."""
    cfg = SimulationConfig(
        budget_level=BudgetLevel.LOW, seed=5, firewall_poll_s=1.0
    )
    sim = DataCenterSimulation(cfg, engine=EventEngine(fluid=True))
    sim.add_normal_traffic(rate_rps=20.0)
    sim.add_flood(
        mix=VOLUME_DOS,
        rate_rps=4000.0,
        num_agents=8,
        closed_loop=False,
        poisson=True,
        label="volume-dos",
    )
    sim.run(30.0)
    assert sim.obs.counters.get("engine.fluid_segments") > 0
    generated = sum(g.generated for g in sim.generators)
    report = sim.availability_report(traffic_class=None)
    in_flight = sim.rack.total_in_system()
    assert report.offered + in_flight == generated
    assert (
        report.served_within_sla
        + report.served_late
        + report.dropped
        == report.offered
    )
