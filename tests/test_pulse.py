"""Unit tests for the pulse (duty-cycled) DOPE attacker."""

import numpy as np
import pytest

from repro import BudgetLevel, DataCenterSimulation, NullScheme, SimulationConfig
from repro.workloads import TrafficClass
from repro.workloads.pulse import PulseAttacker


@pytest.fixture
def sim():
    return DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=4), scheme=NullScheme()
    )


def make_pulse(sim, **kwargs):
    kwargs.setdefault("rate_rps", 200.0)
    kwargs.setdefault("period_s", 20.0)
    kwargs.setdefault("duty", 0.5)
    return PulseAttacker(
        sim.engine, sim.nlb.dispatch, sim.registry, sim.new_rng(), **kwargs
    )


class TestPulsing:
    def test_square_wave_transitions(self, sim):
        attacker = make_pulse(sim)
        attacker.start()
        sim.run(65.0)
        kinds = [k for _, k in attacker.stats.transitions]
        assert kinds[:6] == ["on", "off", "on", "off", "on", "off"]
        times = [t for t, _ in attacker.stats.transitions]
        gaps = np.diff(times)
        np.testing.assert_allclose(gaps, 10.0, atol=0.01)

    def test_traffic_only_during_on_phase(self, sim):
        attacker = make_pulse(sim, period_s=20.0, duty=0.5)
        attacker.start()
        sim.run(60.0)
        arrivals = [
            r.arrival_time_s
            for r in sim.collector.filtered(traffic_class=TrafficClass.ATTACK)
        ]
        # Arrivals fall inside on-windows [0,10), [20,30), [40,50)
        # (plus terminal drain just past each boundary).
        for t in arrivals:
            phase = t % 20.0
            assert phase < 10.5, f"arrival at {t} outside on-phase"

    def test_mean_rate_is_duty_scaled(self, sim):
        attacker = make_pulse(sim, rate_rps=200.0, duty=0.3)
        assert attacker.mean_rate_rps == pytest.approx(60.0)

    def test_power_oscillates_with_pulses(self, sim):
        attacker = make_pulse(sim, rate_rps=250.0, period_s=30.0, duty=0.5)
        attacker.start()
        sim.run(120.0)
        powers = sim.meter.powers()
        # High during on-phases, near idle during off-phases.
        assert powers.max() > 320.0
        assert powers.min() < 200.0
        swing = powers.max() - powers.min()
        assert swing > 100.0

    def test_stop_ends_attack(self, sim):
        attacker = make_pulse(sim)
        attacker.start()
        sim.run(15.0)
        attacker.stop()
        n = attacker.generator.generated
        sim.run(60.0)
        assert attacker.generator.generated == n

    def test_restart_rejected_while_running(self, sim):
        attacker = make_pulse(sim)
        attacker.start()
        with pytest.raises(RuntimeError):
            attacker.start()

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            make_pulse(sim, duty=0.0)
        with pytest.raises(ValueError):
            make_pulse(sim, duty=1.0)
        with pytest.raises(ValueError):
            make_pulse(sim, period_s=0.0)


class TestBatteryRatchet:
    def test_pulses_ratchet_shaving_battery_down(self):
        """A duty cycle denser than the recharge rate walks the SoC
        down pulse by pulse — the battery-targeting extension."""
        from repro import ShavingScheme

        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=4),
            scheme=ShavingScheme(),
        )
        sim.add_normal_traffic(rate_rps=30)
        attacker = PulseAttacker(
            sim.engine,
            sim.nlb.dispatch,
            sim.registry,
            sim.new_rng(),
            rate_rps=300.0,
            period_s=60.0,
            duty=0.7,
        )
        attacker.start(10.0)
        sim.run(400.0)
        socs = sim.meter.socs()
        # Multiple discharge cycles happened and the envelope decays.
        assert sim.battery.discharge_cycles >= 3
        assert socs[-1] < 0.6
