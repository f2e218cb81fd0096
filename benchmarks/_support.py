"""Shared scenario runners for the figure/table benchmarks.

Every benchmark regenerates one of the paper's tables or figures: it
runs the corresponding simulation(s), prints the same rows/series the
paper reports (via :func:`repro.analysis.print_table`), and asserts the
qualitative shape so a regression in the model breaks the bench.  The
heavy lifting shared by several figures lives here.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    NullScheme,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis import DopeRegionAnalyzer
from repro.runner import ResultCache
from repro.workloads import TrafficClass

# Scenario constants live in repro.bench (the machine-readable bench
# driver measures the exact workload these benches assert on); the
# legacy unsuffixed names are kept as aliases.  Engine selection also
# comes from repro.bench: one env var (``REPRO_BENCH_ENGINE``) switches
# both the machine-readable bench and every figure bench between the
# per-event engine and fluid integration.
from repro.bench import (
    ATTACK_MIX,
    ATTACK_RATE_RPS as ATTACK_RATE,
    ATTACK_START_S as ATTACK_START,
    DURATION_S as DURATION,
    MEASURE_FROM_S as MEASURE_FROM,
    NORMAL_RATE_RPS as NORMAL_RATE,
    REGION_RATES_RPS as REGION_RATES,
    REGION_TYPES,
    SEED,
    bench_engine,
)
from repro.sim.engine import resolve_engine_selection

#: The Table 2 scheme matrix.
SCHEMES = {
    "capping": CappingScheme,
    "shaving": ShavingScheme,
    "token": TokenScheme,
    "anti-dope": AntiDopeScheme,
}

#: Budget scenarios in the paper's order.
BUDGETS = (
    BudgetLevel.NORMAL,
    BudgetLevel.HIGH,
    BudgetLevel.MEDIUM,
    BudgetLevel.LOW,
)


def bench_workers(default: int = 1) -> int:
    """Worker processes for runner-backed benches.

    Serial by default so every bench stays byte-reproducible without
    configuration; export ``REPRO_BENCH_WORKERS=N`` to fan sweep cells
    out across N processes (the merged output is identical either way).
    """
    return int(os.environ.get("REPRO_BENCH_WORKERS", default))


def bench_cache() -> Optional[ResultCache]:
    """Optional on-disk result cache for runner-backed benches.

    Export ``REPRO_BENCH_CACHE=/path`` to make repeat bench runs reuse
    stored sweep cells (e.g. when iterating on assertions).
    """
    root = os.environ.get("REPRO_BENCH_CACHE")
    return ResultCache(root) if root else None


def fig11_analyzer(seed: int = 5) -> DopeRegionAnalyzer:
    """The Fig 11 analyzer configuration (Medium-PB, 20 agents)."""
    return DopeRegionAnalyzer(
        config=SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=seed),
        window_s=50.0,
        num_agents=20,
        background_rate_rps=20.0,
    )


def run_attack_scenario(
    scheme_factory=NullScheme,
    budget: BudgetLevel = BudgetLevel.LOW,
    attack: bool = True,
    attack_rate: float = ATTACK_RATE,
    attack_mix=None,
    normal_rate: float = NORMAL_RATE,
    duration: float = DURATION,
    seed: int = SEED,
    config: Optional[SimulationConfig] = None,
    engine: Optional[str] = None,
) -> DataCenterSimulation:
    """The evaluation scenario: trace-like normal load + DOPE flood.

    *engine* picks the execution engine (``scalar``/``fluid``); the
    default follows ``REPRO_BENCH_ENGINE``.  These closed-loop floods
    never satisfy the fluid steadiness proof, so the figure benches'
    model outputs are exact under either selection and only wall-clock
    changes.
    """
    cfg = config or SimulationConfig(budget_level=budget, seed=seed)
    fluid = resolve_engine_selection(
        engine if engine is not None else bench_engine()
    )
    sim = DataCenterSimulation(cfg, scheme=scheme_factory(), fluid=fluid)
    sim.add_normal_traffic(rate_rps=normal_rate)
    if attack:
        sim.add_flood(
            mix=attack_mix if attack_mix is not None else ATTACK_MIX,
            rate_rps=attack_rate,
            num_agents=20,
            start_s=ATTACK_START,
        )
    sim.run(duration)
    return sim


def normal_latency(sim: DataCenterSimulation, start: float = MEASURE_FROM):
    """Latency of the legitimate population in the measurement window."""
    return sim.latency_stats(
        traffic_class=TrafficClass.NORMAL, start_s=start, end_s=DURATION
    )


_MATRIX_CACHE: Dict[tuple, Dict] = {}


def scheme_budget_matrix(
    duration: float = DURATION, seed: int = SEED
) -> Dict[str, Dict[BudgetLevel, DataCenterSimulation]]:
    """Run every (scheme × budget) cell of Figs 16/17/19.

    Memoized: the three figures drawn from the same evaluation matrix
    (mean RT, tail latency, energy) share one set of simulations.
    """
    key = (duration, seed)
    if key in _MATRIX_CACHE:
        return _MATRIX_CACHE[key]
    matrix: Dict[str, Dict[BudgetLevel, DataCenterSimulation]] = {}
    for name, factory in SCHEMES.items():
        matrix[name] = {}
        for budget in BUDGETS:
            matrix[name][budget] = run_attack_scenario(
                factory, budget, duration=duration, seed=seed
            )
    _MATRIX_CACHE[key] = matrix
    return matrix
