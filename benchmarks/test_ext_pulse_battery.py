"""Extension — pulsed DOPE ratchets battery-backed shaving down.

A duty-cycled flood (paper's battery discussion, extended): each pulse
forces Shaving to discharge at full-carry rate, while the off-phase is
too short to recharge what was spent (charging is rate-limited at a
fraction of discharge).  The SoC envelope ratchets downward until the
battery is spent — at a *time-averaged* request rate well below the
sustained attack the defender provisioned the battery against.
"""

from repro import BudgetLevel, DataCenterSimulation, ShavingScheme, SimulationConfig
from repro.analysis import print_table
from repro.workloads.pulse import PulseAttacker

DURATION = 420.0


def run(duty):
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
        duty=duty,
        num_agents=20,
    )
    attacker.start(10.0)
    sim.run(DURATION)
    return sim, attacker


def test_ext_pulse_battery(benchmark):
    duties = (0.25, 0.5, 0.75)
    sims = benchmark.pedantic(
        lambda: {duty: run(duty) for duty in duties}, rounds=1, iterations=1
    )

    rows = []
    for duty, (sim, attacker) in sims.items():
        socs = sim.meter.socs()
        rows.append(
            (
                duty,
                attacker.mean_rate_rps,
                attacker.stats.pulses,
                float(socs[-1]),
                sim.battery.discharge_cycles,
            )
        )
    print_table(
        ["duty", "mean rate rps", "pulses", "final SoC", "cycles"],
        rows,
        title="Extension: pulsed DOPE vs the Shaving battery",
    )

    final_soc = {r[0]: r[3] for r in rows}
    # Denser duty cycles drain the battery further.
    assert final_soc[0.75] < final_soc[0.5] < final_soc[0.25]
    # A 75 % duty cycle — only 225 rps time-averaged — still guts the
    # battery the defender sized for 2 minutes of full load.
    assert final_soc[0.75] < 0.3
    # Each run cycled the battery repeatedly (the ratchet signature).
    for _, (sim, _) in sims.items():
        assert sim.battery.discharge_cycles >= 3
