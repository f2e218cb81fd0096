#!/usr/bin/env python
"""Elastic infrastructure vs DOPE: auto-scaling and facility budgets.

Two extension scenarios built on the paper's observation that clouds
"excessively rely on NLB and auto-scaling resource allocation":

1. **Auto-scaling amplification** — the same DOPE flood against a
   fixed one-server footprint and against an auto-scaled rack: the
   scaler recruits every standby server for the attacker.
2. **Facility-level allocation** — three racks under one oversubscribed
   facility feed; when one rack is attacked, demand-proportional
   water-filling shows how the attacked rack's inflated demand bids
   headroom away from its honest neighbours (and how per-rack floors
   bound the damage).

Run:  python examples/elastic_infrastructure.py
"""

import numpy as np

from repro import DataCenterSimulation, NullScheme, SimulationConfig
from repro.analysis import print_table
from repro.cluster import AutoScaler
from repro.power import FacilityBudgetAllocator
from repro.workloads import COLLA_FILT, K_MEANS, WORD_COUNT, uniform_mix

ATTACK = uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))


def autoscaling_demo() -> None:
    print("\n--- 1. auto-scaling amplification -------------------------")
    rows = []
    for autoscale in (False, True):
        sim = DataCenterSimulation(SimulationConfig(seed=5), scheme=NullScheme())
        if autoscale:
            scaler = AutoScaler(
                sim.engine, sim.rack, sim.nlb, min_active=1,
                high_util=0.6, low_util=0.2,
            )
            scaler.start()
        else:
            scaler = None
            for server in sim.rack.servers[1:]:
                server.set_powered(False)
            sim.nlb.set_servers(sim.rack.servers[:1])
        sim.add_normal_traffic(rate_rps=15)
        sim.add_flood(mix=ATTACK, rate_rps=250, num_agents=20, start_s=60)
        sim.run(240)
        powers = sim.meter.powers()
        rows.append(
            (
                "auto-scaled" if autoscale else "fixed (1 server)",
                float(np.max(powers)),
                scaler.stats.scale_outs if scaler else 0,
                sim.firewall.stats.bans,
            )
        )
    print_table(
        ["footprint", "peak W", "scale-outs", "firewall bans"],
        rows,
        title="Same flood, two provisioning policies",
    )
    print("The scaler powered on every standby server for the attacker —")
    print("elasticity converts a 100 W nuisance into a rack-scale peak.")


def facility_demo() -> None:
    print("\n--- 2. facility budget allocation under a skewed attack ----")
    # Three 400 W racks behind a 900 W facility feed (25 % facility
    # oversubscription).  Rack 0 is under DOPE and demands nameplate;
    # racks 1-2 run honest diurnal load.
    allocator = FacilityBudgetAllocator(900.0, floor_fraction=0.2)
    scenarios = [
        ("quiet night", [180.0, 170.0, 160.0]),
        ("rack 0 attacked", [400.0, 170.0, 160.0]),
        ("rack 0+1 attacked", [400.0, 400.0, 160.0]),
    ]
    rows = []
    for label, demands in scenarios:
        allocations = allocator.allocate(demands)
        rows.append(
            (
                label,
                *(f"{a.allocated_w:.0f}/{a.demand_w:.0f}" for a in allocations),
                sum(a.allocated_w for a in allocations),
            )
        )
    print_table(
        ["scenario", "rack0 W (got/want)", "rack1", "rack2", "total W"],
        rows,
        title="Demand-proportional water-filling (900 W feed, 20% floors)",
    )
    print("An attacked rack's inflated demand bids real watts away from")
    print("honest racks; the floors bound how far they can be starved.")


def main() -> None:
    print(__doc__)
    autoscaling_demo()
    facility_demo()


if __name__ == "__main__":
    main()
