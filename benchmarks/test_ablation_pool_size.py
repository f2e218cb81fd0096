"""Ablation — suspect-pool sizing.

How many servers PDF carves out for suspect traffic trades isolation
against capacity:

* a small pool (1 of 4) caps the attack's power footprint hardest and
  keeps most capacity for innocent traffic — at the cost of crowding
  legitimate heavy requests;
* a large pool (3 of 4) gives suspects capacity but squeezes innocent
  traffic onto one server and lets the isolated flood draw much more
  power.
"""

from repro import AntiDopeScheme, BudgetLevel
from repro.analysis import print_table
from repro.workloads import TrafficClass

from _support import DURATION_S, MEASURE_FROM_S, normal_latency, run_attack_scenario

POOL_SIZES = (1, 2, 3)


def test_ablation_pool_size(benchmark):
    def sweep():
        return {
            size: run_attack_scenario(
                lambda s=size: AntiDopeScheme(suspect_pool_size=s),
                BudgetLevel.LOW,
            )
            for size in POOL_SIZES
        }

    sims = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for size, sim in sims.items():
        stats = normal_latency(sim)
        light = sim.latency_stats(
            traffic_class=TrafficClass.NORMAL,
            type_name="text-cont",
            start_s=MEASURE_FROM_S,
            end_s=DURATION_S,
        )
        rows.append(
            (
                size,
                stats.mean * 1e3,
                stats.p90 * 1e3,
                light.mean * 1e3,
                sim.meter.peak_power(),
            )
        )
    print_table(
        ["pool size", "normal mean ms", "p90 ms", "light mean ms", "peak W"],
        rows,
        title="Ablation: suspect-pool size (Low-PB, DOPE attack)",
    )

    peaks = {r[0]: r[4] for r in rows}
    light_means = {r[0]: r[3] for r in rows}
    # Isolation strength: the attack's power footprint grows with the
    # pool it is allowed to occupy.
    assert peaks[1] < peaks[2] < peaks[3]
    # Light innocent traffic keeps low latency for pools that leave it
    # adequate capacity.
    assert light_means[1] < 50.0
    assert light_means[2] < 50.0
