"""The benchmark's workloads, their output checks and their digests.

Every constant a workload needs is defined here, so the benchmark does
not depend on ``repro.bench`` or the figure suite.  The simulator is
driven only through its public facade: the top-level ``repro`` exports,
``DataCenterSimulation``, ``DopeRegionAnalyzer`` and ``ResultCache``, plus
the request-type catalog in ``repro.workloads`` for the traffic mixes.

A workload is run in *rounds*.  One round is the workload's whole unit of
work (six Table-2 simulations, two fleet simulations, one volume flood, or
one cold plus one warm Fig-11 sweep), and every round of one seed must
produce the same ``sim_digest``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    OnlineDetectScheme,
    PredictionScheme,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis import DopeRegionAnalyzer
from repro.runner import ResultCache
from repro.workloads import (
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VOLUME_DOS,
    WORD_COUNT,
    uniform_mix,
)

#: The DOPE flood's mix: the high-power catalog types of Table 2.
ATTACK_MIX = uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))

SCHEMES: Dict[str, Callable[[], object]] = {
    "capping": CappingScheme,
    "shaving": ShavingScheme,
    "token": TokenScheme,
    "anti-dope": AntiDopeScheme,
    "online-detect": OnlineDetectScheme,
    "prediction": PredictionScheme,
}

#: Counters that record how the simulator computed a run (they vary with
#: the engine mode) rather than what happened in it; kept out of digests.
EXECUTION_COUNTERS = frozenset(
    {
        "engine.cohorts_dispatched",
        "engine.cohort_requests",
        "engine.fluid_segments",
        "engine.fluid_time_advanced_s",
        "cluster.power_model_evals",
        "cluster.power_model_vector_evals",
    }
)

ZONES = frozenset({"benign", "dope", "detected", "filtered"})


@dataclass(frozen=True)
class SimSpec:
    """One simulation: a rack, a scheme and two traffic populations."""

    label: str
    scheme: Optional[str]
    duration_s: float
    num_servers: int = 4
    budget: BudgetLevel = BudgetLevel.LOW
    firewall_poll_s: float = 10.0
    normal_rps: float = 40.0
    normal_users: int = 200
    flood_mix: object = ATTACK_MIX
    flood_rps: float = 220.0
    flood_agents: int = 20
    flood_start_s: float = 30.0
    closed_loop: bool = True
    poisson: bool = False
    flood_label: str = "flood"

    def build(self, seed: int) -> DataCenterSimulation:
        """Construct the simulation on the facade's default engine."""
        config = SimulationConfig(
            budget_level=self.budget,
            num_servers=self.num_servers,
            firewall_poll_s=self.firewall_poll_s,
            seed=seed,
        )
        scheme = SCHEMES[self.scheme]() if self.scheme is not None else None
        sim = DataCenterSimulation(config, scheme=scheme)
        sim.add_normal_traffic(rate_rps=self.normal_rps, num_users=self.normal_users)
        sim.add_flood(
            mix=self.flood_mix,
            rate_rps=self.flood_rps,
            num_agents=self.flood_agents,
            start_s=self.flood_start_s,
            closed_loop=self.closed_loop,
            poisson=self.poisson,
            label=self.flood_label,
        )
        return sim


@dataclass
class Round:
    """What one round measured and checked.

    ``run_s`` holds host seconds inside ``run()`` per simulation label (on
    region-sweep: the whole cold pass); ``unit_s`` holds host seconds per
    unit of work including construction and checks.
    """

    setup_s: float
    run_s: Dict[str, float]
    unit_s: Dict[str, float]
    units: int
    sim_seconds: float
    digests: List[str]
    attempted: int
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    engine: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """The workload's ``sim_digest``: a hash over every unit digest."""
        return _sha256("\n".join(self.digests))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_digest(sim: DataCenterSimulation) -> str:
    """Hash of a simulation's deterministic outcome.

    Covers the ``sim.obs`` counters (minus :data:`EXECUTION_COUNTERS`),
    legitimate availability, legitimate p50/p99 latency and peak power.
    """
    counters = {
        name: value
        for name, value in sim.obs.counters.as_dict().items()
        if name not in EXECUTION_COUNTERS
    }
    latency = sim.latency_stats()
    payload = {
        "counters": counters,
        "availability": sim.availability_report().availability,
        "p50_s": latency.p50,
        "p99_s": latency.p99,
        "peak_power_w": sim.meter.peak_power(),
    }
    return _sha256(json.dumps(payload, sort_keys=True))


def engine_name(sim: DataCenterSimulation) -> str:
    """The execution engine *sim* ran on (``scalar``, ``batched``, ``+fluid``)."""
    return sim.engine.mode + ("+fluid" if sim.engine.fluid else "")


def check_sim(sim: DataCenterSimulation, duration_s: float) -> List[str]:
    """Output check of one finished simulation; returns the problems found.

    Every request the generators issued must end exactly once: a terminal
    record in the collector (unique per request id) or still queued or in
    service at the end.
    """
    problems = []
    issued = sum(gen.generated for gen in sim.generators)
    records = sim.collector.records
    ended = sum(record.weight for record in records)
    in_system = sim.rack.total_in_system()
    if issued != ended + in_system:
        problems.append(
            f"request conservation: issued {issued} != "
            f"ended {ended} + in system {in_system}"
        )
    ids = [r.request_id for r in records if r.weight == 1]
    if len(set(ids)) != len(ids):
        problems.append(f"{len(ids) - len(set(ids))} requests ended twice")
    if not math.isclose(sim.now, duration_s):
        problems.append(f"clock at {sim.now} s after a {duration_s} s run")
    peak = sim.meter.peak_power()
    if not (math.isfinite(peak) and peak > 0.0):
        problems.append(f"peak power {peak}")
    return problems


@dataclass(frozen=True)
class SimWorkload:
    """A workload made of independent simulations run one after another."""

    name: str
    sims: Tuple[SimSpec, ...]

    def run_round(self, seed: int, scratch_dir: str = ".") -> Round:
        """Build, run and check every simulation once (writes no files)."""
        result = Round(
            setup_s=math.nan,
            run_s={},
            unit_s={},
            units=0,
            sim_seconds=0.0,
            digests=[],
            attempted=0,
        )
        for spec in self.sims:
            result.attempted += 1
            began = time.perf_counter()
            try:
                sim = spec.build(seed)
                built = time.perf_counter()
                sim.run(spec.duration_s)
                ran = time.perf_counter()
                problems = check_sim(sim, spec.duration_s)
                digest = sim_digest(sim)
            except Exception as exc:  # a crash is a failed unit, not an abort
                result.failed += 1
                result.problems.append(f"{spec.label}: {exc!r}")
                result.digests.append("error")
                continue
            checked = time.perf_counter()
            if math.isnan(result.setup_s):
                result.setup_s = built - began
            result.run_s[spec.label] = ran - built
            result.unit_s[spec.label] = checked - began
            result.units += 1
            result.sim_seconds += sim.now
            result.engine = engine_name(sim)
            result.digests.append(digest)
            if problems:
                result.failed += 1
                result.problems.extend(f"{spec.label}: {p}" for p in problems)
        return result


@dataclass(frozen=True)
class SweepWorkload:
    """The Fig-11 grid: a cold sweep into a fresh cache, then a warm one."""

    name: str
    types: Tuple[object, ...]
    rates_rps: Tuple[float, ...]
    window_s: float
    num_agents: int
    background_rps: float
    budget: BudgetLevel

    @property
    def num_cells(self) -> int:
        """Cells per sweep pass."""
        return len(self.types) * len(self.rates_rps)

    def run_round(self, seed: int, scratch_dir: str = ".") -> Round:
        """Sweep cold then warm over a fresh temporary cache; check both."""
        began = time.perf_counter()
        analyzer = DopeRegionAnalyzer(
            config=SimulationConfig(budget_level=self.budget, seed=seed),
            window_s=self.window_s,
            num_agents=self.num_agents,
            background_rate_rps=self.background_rps,
        )
        grid, rates, n = self.types, self.rates_rps, self.num_cells
        result = Round(
            setup_s=math.nan,
            run_s={},
            unit_s={},
            units=0,
            sim_seconds=0.0,
            digests=[],
            attempted=2 * n,
        )
        with tempfile.TemporaryDirectory(dir=scratch_dir) as root:
            cache = ResultCache(root)
            result.setup_s = time.perf_counter() - began
            try:
                t0 = time.perf_counter()
                cold = analyzer.sweep(grid, rates, workers=1, cache=cache)
                t1 = time.perf_counter()
                cold_hits, cold_misses = cache.hits, cache.misses
                warm = analyzer.sweep(grid, rates, workers=1, cache=cache)
                t2 = time.perf_counter()
            except Exception as exc:  # the pass's cells all count as failed
                result.failed = 2 * n
                result.problems.append(f"sweep: {exc!r}")
                result.digests.append("error")
                return result
            warm_hits = cache.hits - cold_hits
            warm_lookups = warm_hits + cache.misses - cold_misses
        result.run_s["cold"] = result.unit_s["cold"] = t1 - t0
        result.units = len(cold.cells)
        result.sim_seconds = len(cold.cells) * self.window_s
        result.extra["warm_pass_s"] = t2 - t1
        result.extra["cache_hit_ratio"] = (
            warm_hits / warm_lookups if warm_lookups else 0.0
        )
        rows = [json.dumps(dataclasses.asdict(c), sort_keys=True) for c in cold.cells]
        result.digests = [_sha256(row) for row in rows]
        bad_cells = sum(not _cell_ok(cell) for cell in cold.cells)
        bad_warm = sum(a != b for a, b in zip(cold.cells, warm.cells))
        bad_warm += abs(len(warm.cells) - len(cold.cells))
        if len(cold.cells) != n:
            bad_cells += n - len(cold.cells)
        if bad_cells:
            result.problems.append(f"{bad_cells} cold cells out of range")
        if bad_warm:
            result.problems.append(f"{bad_warm} warm cells differ from cold")
        if (cold_hits, cold_misses) != (0, n):
            result.problems.append(
                f"cold pass on a fresh cache: {cold_hits} hits, {cold_misses} misses"
            )
            bad_cells = n
        if result.extra["cache_hit_ratio"] != 1.0:
            result.problems.append(
                f"warm cache hit ratio {result.extra['cache_hit_ratio']}"
            )
            bad_warm = max(bad_warm, n)
        result.failed = min(bad_cells, n) + min(bad_warm, n)
        return result


def _cell_ok(cell) -> bool:
    return (
        math.isfinite(cell.peak_power_w)
        and cell.peak_power_w > 0.0
        and cell.budget_w > 0.0
        and cell.zone in ZONES
    )


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------

TABLE2 = SimWorkload(
    name="table2",
    sims=tuple(
        SimSpec(label=name, scheme=name, duration_s=120.0) for name in SCHEMES
    ),
)

#: Fleet-128 scales Table-2 traffic 32x onto a flat 128-server rack.
FLEET_SCALE = 32

FLEET_128 = SimWorkload(
    name="fleet-128",
    sims=tuple(
        SimSpec(
            label=name,
            scheme=name,
            duration_s=14.0,
            flood_start_s=10.0,
            num_servers=4 * FLEET_SCALE,
            normal_rps=40.0 * FLEET_SCALE,
            normal_users=200 * FLEET_SCALE,
            flood_rps=220.0 * FLEET_SCALE,
            flood_agents=20 * FLEET_SCALE,
        )
        for name in ("anti-dope", "online-detect")
    ),
)

VOLUME_FLOOD = SimWorkload(
    name="volume-flood",
    sims=(
        SimSpec(
            label="unmanaged",
            scheme=None,
            duration_s=15.0,
            firewall_poll_s=1.0,
            flood_mix=VOLUME_DOS,
            flood_rps=12000.0,
            flood_agents=10,
            flood_start_s=0.0,
            closed_loop=False,
            poisson=True,
            flood_label="volume-dos",
        ),
    ),
)

REGION_SWEEP = SweepWorkload(
    name="region-sweep",
    types=(COLLA_FILT, K_MEANS, WORD_COUNT, TEXT_CONT, VOLUME_DOS),
    rates_rps=(50.0, 150.0, 300.0, 600.0),
    window_s=10.0,
    num_agents=20,
    background_rps=20.0,
    budget=BudgetLevel.MEDIUM,
)

WORKLOADS = {w.name: w for w in (TABLE2, FLEET_128, VOLUME_FLOOD, REGION_SWEEP)}
