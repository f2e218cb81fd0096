"""Fig. 6 — the effect of HTTP DoS attack on power capping.

(a) V/F reduction versus traffic rate under Medium-PB: larger floods
force deeper uniform throttling, heavy endpoints trigger it at low
rates, and past a threshold the V/F floor saturates;
(b) V/F reduction by request type at a high attack rate: K-means'
frequency-insensitive power forces the deepest throttle.
"""

import numpy as np

from repro import BudgetLevel, CappingScheme, DataCenterSimulation, SimulationConfig
from repro.analysis import print_table
from repro.workloads import COLLA_FILT, K_MEANS, VICTIM_TYPES

RATES = (50.0, 100.0, 200.0, 400.0, 800.0)
HIGH_RATE = 800.0
WINDOW_S = 90.0


def mean_freq(rtype, rate):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=3, use_firewall=False),
        scheme=CappingScheme(),
    )
    sim.add_normal_traffic(rate_rps=20)
    sim.add_flood(mix=rtype, rate_rps=rate, num_agents=20, start_s=10)
    sim.run(WINDOW_S)
    levels = sim.meter.mean_levels()[30:]
    return 1.2 + 0.1 * float(np.mean(levels))


def test_fig06_vf_reduction(benchmark):
    def sweep():
        return {
            (t.name, r): mean_freq(t, r)
            for t in VICTIM_TYPES
            for r in RATES
        }

    freqs = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (t.name, *(freqs[(t.name, r)] for r in RATES)) for t in VICTIM_TYPES
    ]
    print_table(
        ["type"] + [f"{int(r)}rps" for r in RATES],
        rows,
        title="Fig 6a: mean operating frequency (GHz) vs attack rate, Medium-PB",
    )
    print_table(
        ["type", "GHz @ high rate", "V/F reduction (GHz)"],
        [
            (t.name, freqs[(t.name, HIGH_RATE)], 2.4 - freqs[(t.name, HIGH_RATE)])
            for t in VICTIM_TYPES
        ],
        title=f"Fig 6b: V/F reduction by type @ {int(HIGH_RATE)} rps",
    )

    # Shape: frequency non-increasing with rate for the heavy types.
    for t in (COLLA_FILT, K_MEANS):
        series = [freqs[(t.name, r)] for r in RATES]
        assert all(a >= b - 0.05 for a, b in zip(series, series[1:]))
        # Saturation: the V/F floor stops moving at the top rates.
        assert abs(series[-1] - series[-2]) < 0.15
    # Heavy endpoints trigger throttling at rates where light text does not.
    assert freqs[("colla-filt", 200.0)] < freqs[("text-cont", 200.0)] - 0.1
    # Fig 6b: K-means forces the deepest V/F cut.
    high = {t.name: freqs[(t.name, HIGH_RATE)] for t in VICTIM_TYPES}
    assert high["k-means"] == min(high.values())
