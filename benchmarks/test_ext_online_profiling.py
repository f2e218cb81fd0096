"""Extension — learning the suspect list online.

The paper builds the suspect list offline.  This bench shows the
telemetry-only alternative converging to the same classification: run
mixed traffic, let the least-squares profiler attribute per-URL power
from (power, active-request) samples, and compare the emitted suspect
list and full-load estimates against the analytic ground truth.
"""

from repro import DataCenterSimulation, NullScheme, SimulationConfig
from repro.analysis import print_table
from repro.core import OnlineUrlPowerProfiler, SuspectList
from repro.workloads import ALL_TYPES

PROFILE_WINDOW_S = 120.0


def test_ext_online_profiling(benchmark):
    def learn():
        sim = DataCenterSimulation(
            SimulationConfig(seed=8, use_firewall=False), scheme=NullScheme()
        )
        profiler = OnlineUrlPowerProfiler(
            sim.engine, sim.rack, interval_s=0.5, min_samples=30
        )
        profiler.start()
        # Mixed live traffic covering every endpoint: the normal mix
        # plus a moderate probe stream of each heavy type.
        sim.add_normal_traffic(rate_rps=60)
        for t in ALL_TYPES:
            # Sub-ms volume packets are almost never caught in flight by
            # a 0.5 s sampler at low rates; probe them at the packet
            # rates a volume flood actually presents.
            rate = 40.0 if t.base_service_s > 0.01 else 2000.0
            sim.add_flood(
                mix=t, rate_rps=rate, num_agents=5, label=f"probe-{t.name}"
            )
        sim.run(PROFILE_WINDOW_S)
        return sim, profiler

    sim, profiler = benchmark.pedantic(learn, rounds=1, iterations=1)

    truth = SuspectList.from_model(ALL_TYPES, sim.rack.power_model, 0.70)
    learned = profiler.to_suspect_list(threshold_fraction=0.70)

    rows = []
    for t in ALL_TYPES:
        rows.append(
            (
                t.name,
                sim.rack.power_model.full_load_power(t, 1.0),
                profiler.full_load_estimate_w(t.url),
                truth.is_suspect(t.url),
                learned.is_suspect(t.url),
            )
        )
    print_table(
        ["type", "true full-load W", "learned W", "offline suspect", "online suspect"],
        rows,
        title="Extension: online profiling vs analytic ground truth",
    )

    # Classification agrees with the offline list on every endpoint.
    for t in ALL_TYPES:
        assert learned.is_suspect(t.url) == truth.is_suspect(t.url)
    # Power estimates are within 15 % of ground truth for all types.
    for t in ALL_TYPES:
        true_w = sim.rack.power_model.full_load_power(t, 1.0)
        est_w = profiler.full_load_estimate_w(t.url)
        assert abs(est_w - true_w) / true_w < 0.15
