"""Unit tests for the RPM controller (Anti-DOPE step 2)."""

import pytest

from repro.core import RequestAwarePowerManager
from repro.core.pdf import split_pools
from repro.network import Request
from repro.power import Battery, PowerBudget
from repro.workloads import COLLA_FILT, TEXT_CONT, TrafficClass


def load_pool(pool, rtype=COLLA_FILT, per_server=8):
    for s in pool:
        for i in range(per_server):
            s.submit(Request(rtype, i, TrafficClass.ATTACK, 0.0))


@pytest.fixture
def pools(rack):
    return split_pools(rack.servers, 1)


def make_rpm(rack, pools, supply_w, battery=None):
    innocent, suspect = pools
    return RequestAwarePowerManager(
        suspect_pool=suspect,
        innocent_pool=innocent,
        budget=PowerBudget(supply_w),
        battery=battery,
    )


class TestControl:
    def test_no_violation_no_throttle(self, rack, pools):
        rpm = make_rpm(rack, pools, supply_w=400.0)
        decision = rpm.step(0.0)
        assert decision.deficit_w == 0.0
        assert not decision.plan.degrades_innocent(12)
        assert rack.levels() == [12] * 4

    def test_suspect_pool_throttled_first(self, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        load_pool(innocent, TEXT_CONT, per_server=2)
        # Load: suspect server at 100 W + 3 innocent at ~43 W = ~230 W.
        rpm = make_rpm(rack, pools, supply_w=220.0)
        rpm.step(0.0)
        assert suspect[0].level < 12
        assert all(s.level == 12 for s in innocent)
        assert rpm.current_power() <= 220.0 + 1e-6

    def test_innocent_untouched_even_at_deep_suspect_throttle(self, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        rpm = make_rpm(rack, pools, supply_w=200.0)
        rpm.step(0.0)
        assert all(s.level == 12 for s in innocent)

    def test_violation_statistics(self, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        rpm = make_rpm(rack, pools, supply_w=200.0)
        rpm.step(0.0)
        rpm.step(1.0)
        assert rpm.stats.slots == 2
        assert rpm.stats.violations >= 1
        assert rpm.stats.reconfigurations >= 1

    def test_recovery_after_load_drains(self, engine, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        # Load: suspect at 100 W + 3 idle innocent at 38 W = 214 W.
        rpm = make_rpm(rack, pools, supply_w=205.0)
        rpm.step(0.0)
        assert suspect[0].level < 12
        engine.run(until=60.0)
        rpm.step(60.0)
        assert suspect[0].level == 12


class TestBatteryTransition:
    def test_battery_covers_reconfiguration_slot(self, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        battery = Battery.for_rack(400.0)
        rpm = make_rpm(rack, pools, supply_w=205.0, battery=battery)
        decision = rpm.step(0.0)
        assert decision.reconfigured
        assert decision.battery_w > 0
        assert battery.delivered_j > 0

    def test_no_discharge_without_reconfiguration(self, rack, pools):
        battery = Battery.for_rack(400.0)
        rpm = make_rpm(rack, pools, supply_w=400.0, battery=battery)
        rpm.step(0.0)
        rpm.step(1.0)
        assert battery.delivered_j == 0.0

    def test_recharges_when_compliant(self, rack, pools):
        battery = Battery.for_rack(400.0)
        battery.soc_j = battery.capacity_j / 2
        rpm = make_rpm(rack, pools, supply_w=400.0, battery=battery)
        rpm.step(0.0)
        assert battery.soc_j > battery.capacity_j / 2

    def test_steady_violation_after_reconfig_does_not_drain(self, rack, pools):
        """Once the throttle plan is in place, a persistent residual
        violation must not bleed the battery (it is a transition medium,
        not a shaving store)."""
        innocent, suspect = pools
        load_pool(suspect)
        load_pool(innocent, COLLA_FILT, per_server=8)
        battery = Battery.for_rack(400.0)
        # Budget below idle floor: infeasible, always violating.
        rpm = make_rpm(rack, pools, supply_w=140.0, battery=battery)
        rpm.step(0.0)
        after_first = battery.delivered_j
        for t in range(1, 10):
            rpm.step(float(t))
        assert battery.delivered_j == after_first


class TestPrediction:
    def test_predict_matches_actual_after_apply(self, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        rpm = make_rpm(rack, pools, supply_w=330.0)
        predicted = rpm.predict(5, 12)
        for s in suspect:
            s.set_level(5)
        assert rpm.current_power() == pytest.approx(predicted)

    def test_predict_monotone_in_levels(self, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        load_pool(innocent, COLLA_FILT, per_server=4)
        rpm = make_rpm(rack, pools, supply_w=330.0)
        for p in range(0, 12):
            assert rpm.predict(p, 12) <= rpm.predict(p + 1, 12) + 1e-9
            assert rpm.predict(12, p) <= rpm.predict(12, p + 1) + 1e-9


class TestValidation:
    def test_empty_pools_rejected(self, rack):
        with pytest.raises(ValueError):
            RequestAwarePowerManager(
                suspect_pool=[],
                innocent_pool=rack.servers,
                budget=PowerBudget(400.0),
            )

    def test_infeasible_flagged(self, rack, pools):
        innocent, suspect = pools
        load_pool(suspect)
        load_pool(innocent)
        rpm = make_rpm(rack, pools, supply_w=100.0)
        decision = rpm.step(0.0)
        assert not decision.plan.feasible
        assert rpm.stats.infeasible_slots == 1
