"""Robustness — the headline claim across seeds.

Every figure bench runs one seeded world; this bench replicates the
headline comparison (Anti-DOPE vs Capping under Low-PB DOPE) across
several seeds and reports mean ± 95 % CI, asserting the paper's floors
hold for the *confidence bound*, not just a lucky draw.
"""

from repro import AntiDopeScheme, BudgetLevel, CappingScheme
from repro.analysis import print_table, replicate
from repro.workloads import TrafficClass

from _support import bench_cache, bench_workers, run_attack_scenario

SEEDS = (1, 2, 3, 4, 5)
DURATION = 180.0
RATE = 300.0


def experiment(seed: int):
    def stats_for(factory):
        sim = run_attack_scenario(
            factory,
            BudgetLevel.LOW,
            attack_rate=RATE,
            duration=DURATION,
            seed=seed,
        )
        return sim.latency_stats(
            traffic_class=TrafficClass.NORMAL, start_s=60.0, end_s=DURATION
        )

    capping = stats_for(CappingScheme)
    anti = stats_for(AntiDopeScheme)
    return {
        "capping_mean_ms": capping.mean * 1e3,
        "anti_mean_ms": anti.mean * 1e3,
        "capping_p90_ms": capping.p90 * 1e3,
        "anti_p90_ms": anti.p90 * 1e3,
        "mean_saving": 1 - anti.mean / capping.mean,
        "p90_saving": 1 - anti.p90 / capping.p90,
    }


def test_robustness_seeds(benchmark):
    # replicate() fans seeds out over REPRO_BENCH_WORKERS processes (the
    # experiment is module-level, hence picklable); summaries are
    # identical for any worker count.
    summaries = benchmark.pedantic(
        lambda: replicate(
            experiment,
            seeds=SEEDS,
            workers=bench_workers(),
            cache=bench_cache(),
        ),
        rounds=1,
        iterations=1,
    )

    print_table(
        ["metric", "mean", "std", "ci low", "ci high"],
        [
            (s.name, s.mean, s.std, s.ci_low, s.ci_high)
            for s in summaries.values()
        ],
        title=f"Robustness: headline comparison over {len(SEEDS)} seeds",
    )

    # The paper's floors hold at the lower confidence bound.
    assert summaries["mean_saving"].ci_low > 0.44
    assert summaries["p90_saving"].ci_low > 0.681
    # And the effect is stable: relative spread of the saving is small.
    assert summaries["mean_saving"].std < 0.15
