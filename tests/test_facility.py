"""Integration tests for the multi-rack facility simulation."""

import pytest

from repro import CappingScheme, SimulationConfig
from repro.sim.facility import FacilitySimulation
from repro.workloads import COLLA_FILT, K_MEANS, WORD_COUNT, TrafficClass, uniform_mix

ATTACK = uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))


def make_facility(**kwargs):
    kwargs.setdefault("num_racks", 3)
    kwargs.setdefault("facility_fraction", 0.85)
    kwargs.setdefault("scheme_factory", CappingScheme)
    kwargs.setdefault("rack_config", SimulationConfig(seed=3))
    kwargs.setdefault("replan_interval_s", 5.0)
    return FacilitySimulation(**kwargs)


class TestConstruction:
    def test_racks_share_one_engine(self):
        facility = make_facility()
        assert all(sim.engine is facility.engine for sim in facility.racks)

    def test_distinct_seeds_per_rack(self):
        facility = make_facility()
        draws = [sim.new_rng().random() for sim in facility.racks]
        assert len(set(draws)) == len(draws)

    def test_facility_budget_fraction(self):
        facility = make_facility(facility_fraction=0.85)
        assert facility.facility_budget_w == pytest.approx(0.85 * 3 * 400.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_facility(num_racks=0)
        with pytest.raises(ValueError):
            make_facility(facility_fraction=1.0)


class TestReplanning:
    def test_idle_facility_satisfies_all_racks(self):
        facility = make_facility()
        facility.run(20.0)
        record = facility.stats.records[-1]
        assert all(a.satisfied for a in record.allocations)

    def test_budgets_updated_in_place(self):
        facility = make_facility()
        budgets_before = [sim.budget.supply_w for sim in facility.racks]
        facility.run(10.0)
        # Idle demand ≈ idle floor: allocations shrink to demand.
        for sim, before in zip(facility.racks, budgets_before):
            assert sim.budget.supply_w < before

    def test_attacked_rack_bids_away_headroom(self):
        facility = make_facility()
        victim = facility.racks[0]
        for sim in facility.racks:
            sim.add_normal_traffic(rate_rps=30)
        victim.add_flood(mix=ATTACK, rate_rps=300, num_agents=20, start_s=10)
        facility.run(120.0)
        record = facility.stats.records[-1]
        # The attacked rack demands (and receives) far more than peers.
        assert record.demands_w[0] > 1.5 * record.demands_w[1]
        assert record.allocations[0].allocated_w > record.allocations[1].allocated_w

    def test_total_allocation_never_exceeds_feed(self):
        facility = make_facility()
        for sim in facility.racks:
            sim.add_normal_traffic(rate_rps=30)
            sim.add_flood(mix=ATTACK, rate_rps=250, num_agents=20, start_s=5)
        facility.run(60.0)
        for record in facility.stats.records:
            total = sum(a.allocated_w for a in record.allocations)
            assert total <= facility.facility_budget_w + 1e-6

    def test_cross_rack_collateral_damage(self):
        """DOPE on rack 0 degrades rack 1's users without touching them."""

        def run(attacked: bool):
            # A tight facility feed (50 % of summed nameplates) so the
            # attacked rack's demand genuinely displaces its peers'.
            facility = make_facility(facility_fraction=0.50)
            for sim in facility.racks:
                sim.add_normal_traffic(rate_rps=120)
            if attacked:
                facility.racks[0].add_flood(
                    mix=ATTACK, rate_rps=300, num_agents=20, start_s=20
                )
            facility.run(180.0)
            bystander = facility.racks[1]
            stats = bystander.latency_stats(
                traffic_class=TrafficClass.NORMAL, start_s=60.0
            )
            return stats, facility.stats.records[-1]

        quiet, quiet_rec = run(attacked=False)
        noisy, noisy_rec = run(attacked=True)
        # The re-plan shrank the bystander's budget...
        assert (
            noisy_rec.allocations[1].allocated_w
            < quiet_rec.allocations[1].allocated_w
        )
        # ...and its users — who never saw an attack packet — slow down.
        assert noisy.mean > 1.1 * quiet.mean

    def test_sequential_runs_continue(self):
        facility = make_facility()
        facility.run(10.0)
        replans_first = facility.stats.replans
        facility.run(10.0)
        assert facility.stats.replans > replans_first
        assert facility.now == pytest.approx(20.0)
