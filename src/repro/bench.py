"""Machine-readable benchmarks: the engine behind ``repro bench``.

One call to :func:`run_bench` exercises the simulator's two hot paths —
the Table-2 evaluation scenario (normal load + DOPE flood under
Anti-DOPE) and the Fig-11 region sweep through the cached experiment
runner — with a single shared :class:`~repro.obs.Recorder`, and returns
one JSON-ready payload in the ``repro-bench/1`` schema:

* **headline** — ``events_per_wall_s``: simulator events dispatched per
  wall-clock second inside the event loop, the throughput number CI
  regression-checks (``scripts/bench_compare.py``);
* **counters** — the deterministic counter table (same-seed runs are
  identical);
* **timings_s / phases** — segregated wall-clock (never part of any
  deterministic hash);
* **derived** — headline plus sim-time-per-wall-second and the runner
  cache hit rate measured by a cold-then-warm sweep pass.

The scenario constants here are the single source shared with the
figure/table bench suite (``benchmarks/_support.py`` imports them), so
``repro bench`` measures the same workload the benches assert on.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ._version import __version__
from .analysis import DopeRegionAnalyzer
from .core import AntiDopeScheme
from .detect import OnlineDetectScheme
from .faults import FaultInjector, FaultPlan
from .obs import BENCH_SCHEMA_ID, Recorder, config_hash, validate_bench_payload
from .power import BudgetLevel, CappingScheme, PredictionScheme
from .runner import ResultCache
from .sim import DataCenterSimulation, SimulationConfig
from .sim.engine import (
    ENGINE_SELECT_ENV,
    ENGINE_SELECTIONS,
    EventEngine,
    engine_from_env,
    resolve_engine_selection,
)
from .workloads import (
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VOLUME_DOS,
    WORD_COUNT,
    RequestMix,
    RequestType,
    uniform_mix,
)

__all__ = [
    "SEED",
    "ATTACK_START_S",
    "MEASURE_FROM_S",
    "DURATION_S",
    "ATTACK_RATE_RPS",
    "NORMAL_RATE_RPS",
    "ATTACK_MIX",
    "REGION_TYPES",
    "REGION_RATES_RPS",
    "VOLUME_RATE_RPS",
    "VOLUME_AGENTS",
    "VOLUME_POLL_S",
    "BENCH_ENGINE_ENV",
    "BENCH_ENGINES",
    "bench_engine",
    "BenchPlan",
    "plan_for",
    "run_bench",
]

# ----------------------------------------------------------------------
# Evaluation-scenario constants (shared with benchmarks/_support.py)
# ----------------------------------------------------------------------

#: Master seed of the evaluation scenario.
SEED = 7

#: Attack onset within the evaluation window.
ATTACK_START_S = 30.0

#: Start of the steady-state measurement window.
MEASURE_FROM_S = 60.0

#: Full evaluation-scenario duration.
DURATION_S = 240.0

# Attack sized at roughly the rack's nominal-frequency service capacity:
# strong enough that power-fitting DVFS pushes the cluster into overload
# (the paper's degradation regime) while Normal-PB stays serviceable.
ATTACK_RATE_RPS = 220.0

#: Legitimate background load of the evaluation scenario.
NORMAL_RATE_RPS = 40.0

#: The DOPE flood's request mix (high-power catalog types).
ATTACK_MIX: RequestMix = uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))

# Volume-flood phase: the paper's network-layer volume DoS — a raw
# open-loop deluge the perimeter firewall absorbs after detection.
# Network-layer floods run orders of magnitude above application
# capacity; sized so each agent (rate/agents = 1200 rps/source) trips
# the DDoS-deflate threshold at the very first poll, leaving most of
# the window provably steady: the workload fluid integration exists
# for.
VOLUME_RATE_RPS = 12000.0
VOLUME_AGENTS = 10
#: Faster perimeter polling for the volume phase only (short detection
#: lag keeps the phase about absorption, not about queue explosions).
VOLUME_POLL_S = 1.0

#: Environment variable selecting the bench execution engine.
BENCH_ENGINE_ENV = ENGINE_SELECT_ENV

#: Valid bench engine names: ``"scalar"`` (one event per arrival) and
#: ``"fluid"`` (hybrid fluid integration opted in).
BENCH_ENGINES = ENGINE_SELECTIONS


def bench_engine() -> str:
    """The bench execution engine selected by ``REPRO_BENCH_ENGINE``.

    Defaults to ``"fluid"`` — the bench measures the simulator at full
    speed; export ``REPRO_BENCH_ENGINE=scalar`` to baseline the
    per-event path with the same scenarios.
    """
    return engine_from_env(default="fluid")


#: The Fig 11 region-grid axes shared by the bench and the perf suite.
REGION_TYPES: Tuple[RequestType, ...] = (
    COLLA_FILT,
    K_MEANS,
    WORD_COUNT,
    TEXT_CONT,
    VOLUME_DOS,
)
REGION_RATES_RPS: Tuple[float, ...] = (50.0, 150.0, 300.0, 600.0)


# ----------------------------------------------------------------------
# Bench plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchPlan:
    """Workload sizing of one bench mode."""

    mode: str
    attack_duration_s: float
    attack_repetitions: int
    region_types: Tuple[RequestType, ...]
    region_rates_rps: Tuple[float, ...]
    region_window_s: float
    chaos_duration_s: float
    volume_duration_s: float
    tree_duration_s: float
    online_detect_duration_s: float
    prediction_duration_s: float


def plan_for(mode: str) -> BenchPlan:
    """The sizing of ``"smoke"`` (seconds, CI) or ``"full"`` (minutes)."""
    if mode == "smoke":
        return BenchPlan(
            mode="smoke",
            attack_duration_s=60.0,
            attack_repetitions=3,
            region_types=REGION_TYPES[:2],
            region_rates_rps=REGION_RATES_RPS[:2],
            region_window_s=20.0,
            chaos_duration_s=30.0,
            volume_duration_s=60.0,
            tree_duration_s=30.0,
            online_detect_duration_s=30.0,
            prediction_duration_s=30.0,
        )
    if mode == "full":
        return BenchPlan(
            mode="full",
            attack_duration_s=DURATION_S,
            attack_repetitions=3,
            region_types=REGION_TYPES,
            region_rates_rps=REGION_RATES_RPS,
            region_window_s=50.0,
            chaos_duration_s=90.0,
            volume_duration_s=120.0,
            tree_duration_s=90.0,
            online_detect_duration_s=90.0,
            prediction_duration_s=90.0,
        )
    raise ValueError(f"mode must be 'smoke' or 'full', got {mode!r}")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_bench(
    mode: str = "smoke",
    seed: int = SEED,
    name: str = "bench",
    engine: Optional[str] = None,
) -> Dict[str, object]:
    """Run the bench scenario and return a ``repro-bench/1`` payload.

    Phases share one recorder: the evaluation scenario under Anti-DOPE
    (drives the engine/cluster/network/power counters), a short chaos
    run, the volume-flood absorption phase (where fluid integration
    carries the event throughput), the tree-topology phase (flowlet
    ECMP plus per-PDU enforcement on the ``tree-dc`` preset), then the
    region sweep twice against a fresh temporary cache — a cold pass
    (all misses) and a warm pass (all hits) — so the payload reports a
    real runner cache hit rate.  Each ``phases`` row carries its own ``events`` /
    ``events_per_wall_s`` so the per-phase regression gate can check
    phases individually.

    The evaluation scenario runs ``attack_repetitions`` times and the
    payload keeps the **fastest** repetition (standard best-of-N:
    repetitions are identical same-seed runs, so the fastest one is the
    least noise-polluted measurement of the event loop).  Counters are
    the same for every repetition, so best-of-N changes no
    deterministic output; for a fixed engine the ``counters`` table is
    deterministic per seed and every wall-clock number stays in
    ``timings_s``/``phases``/``derived``.

    *engine* overrides the ``REPRO_BENCH_ENGINE`` selection (default
    ``"fluid"``); it is recorded in the payload's ``engine`` field.
    """
    plan = plan_for(mode)
    engine_name = engine if engine is not None else bench_engine()
    fluid = resolve_engine_selection(engine_name)
    recorder = Recorder()
    cfg = SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed)

    # Events dispatched inside each bench phase, keyed by phase name.
    # Phases run sequentially against the shared recorder, so a phase's
    # events are the counter delta across it; the attack phase instead
    # reads the kept repetition's private recorder directly.
    phase_events: Dict[str, float] = {}

    def _events_now() -> float:
        return float(recorder.counters.get("engine.events_dispatched"))

    best: Recorder = _attack_repetition(cfg, plan, fluid)
    for _ in range(plan.attack_repetitions - 1):
        candidate = _attack_repetition(cfg, plan, fluid)
        if _engine_throughput(candidate) > _engine_throughput(best):
            best = candidate
    phase_events["bench.attack_scenario"] = float(
        best.counters.get("engine.events_dispatched")
    )
    recorder.counters.merge(best.counters)
    recorder.timers.merge(best.timers)

    mark = _events_now()
    _chaos_scenario(cfg, plan, recorder, fluid)
    phase_events["bench.chaos_scenario"] = _events_now() - mark
    mark = _events_now()
    _volume_flood_scenario(plan, recorder, seed, fluid)
    phase_events["bench.volume_flood"] = _events_now() - mark
    mark = _events_now()
    _tree_topology_scenario(plan, recorder, seed, fluid)
    phase_events["bench.tree_topology"] = _events_now() - mark
    mark = _events_now()
    _online_detect_scenario(plan, recorder, seed, fluid)
    phase_events["bench.online_detect"] = _events_now() - mark
    mark = _events_now()
    _prediction_scenario(plan, recorder, seed, fluid)
    phase_events["bench.prediction"] = _events_now() - mark

    analyzer = DopeRegionAnalyzer(
        config=SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=seed),
        window_s=plan.region_window_s,
        num_agents=20,
        background_rate_rps=20.0,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        cache = ResultCache(tmp)
        mark = _events_now()
        with recorder.timers.phase("bench.region_sweep_cold"):
            analyzer.sweep(
                plan.region_types,
                plan.region_rates_rps,
                cache=cache,
                recorder=recorder,
            )
        phase_events["bench.region_sweep_cold"] = _events_now() - mark
        mark = _events_now()
        with recorder.timers.phase("bench.region_sweep_warm"):
            analyzer.sweep(
                plan.region_types,
                plan.region_rates_rps,
                cache=cache,
                recorder=recorder,
            )
        phase_events["bench.region_sweep_warm"] = _events_now() - mark

    counters = recorder.counters.as_dict()
    timings = recorder.timers.as_dict()
    payload = {
        "schema": BENCH_SCHEMA_ID,
        "name": name,
        "mode": plan.mode,
        "engine": engine_name,
        "version": __version__,
        "seed": seed,
        "config_hash": config_hash(cfg.to_dict()),
        "headline": {},
        "counters": counters,
        "timings_s": timings,
        "derived": _derive(counters, timings),
        "phases": [
            _phase_entry(phase_name, entry, phase_events)
            for phase_name, entry in timings.items()
            if phase_name.startswith("bench.")
        ],
    }
    derived = payload["derived"]
    payload["headline"] = {
        "metric": "events_per_wall_s",
        "value": derived["events_per_wall_s"],  # type: ignore[index]
    }
    errors = validate_bench_payload(payload)
    if errors:
        raise ValueError(
            "bench payload failed validation: " + "; ".join(errors)
        )
    return payload


def _attack_repetition(
    cfg: SimulationConfig, plan: BenchPlan, fluid: bool
) -> Recorder:
    """One timed run of the evaluation scenario; returns its recorder."""
    recorder = Recorder()
    with recorder.timers.phase("bench.attack_scenario"):
        engine = EventEngine(obs=recorder, fluid=fluid)
        sim = DataCenterSimulation(cfg, scheme=AntiDopeScheme(), engine=engine)
        sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
        sim.add_flood(
            mix=ATTACK_MIX,
            rate_rps=ATTACK_RATE_RPS,
            num_agents=20,
            start_s=ATTACK_START_S,
        )
        sim.run(plan.attack_duration_s)
    return recorder


def _chaos_scenario(
    cfg: SimulationConfig,
    plan: BenchPlan,
    recorder: Recorder,
    fluid: bool,
) -> None:
    """A short faulted run exercising the degradation paths.

    Anti-DOPE under the flood with a mid-window server crash and meter
    noise — small relative to the attack repetitions, but it keeps the
    fault/degradation code on the measured path so a regression there
    shows up in the bench counters and timings.
    """
    with recorder.timers.phase("bench.chaos_scenario"):
        engine = EventEngine(obs=recorder, fluid=fluid)
        sim = DataCenterSimulation(cfg, scheme=AntiDopeScheme(), engine=engine)
        crash_at_s = plan.chaos_duration_s / 2.0
        fault_plan = (
            FaultPlan(seed=cfg.seed)
            .meter_noise(ATTACK_START_S / 2.0, sigma_w=8.0)
            .server_crash(crash_at_s, 0, plan.chaos_duration_s / 4.0)
        )
        FaultInjector(sim, fault_plan).arm()
        sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
        sim.add_flood(
            mix=ATTACK_MIX,
            rate_rps=ATTACK_RATE_RPS,
            num_agents=20,
            start_s=ATTACK_START_S / 2.0,
        )
        sim.run(plan.chaos_duration_s)


def _volume_flood_scenario(
    plan: BenchPlan,
    recorder: Recorder,
    seed: int,
    fluid: bool,
) -> None:
    """The perimeter-absorption phase: a raw volume DoS vs the firewall.

    An open-loop Poisson deluge of :data:`VOLUME_DOS` requests from a
    small agent pool, each agent far above the DDoS-deflate threshold —
    the paper's network-layer flood (Figs. 3/5), which the firewall
    detects at its first poll and then rejects wholesale.  After
    detection the workload is provably steady, which is exactly what
    fluid integration accelerates; on the scalar engine the same phase
    grinds through every arrival individually.  This phase
    dominates the headline event count by design: it measures the
    million-events regime the aggregate-flow refactor targets.
    """
    with recorder.timers.phase("bench.volume_flood"):
        engine = EventEngine(obs=recorder, fluid=fluid)
        cfg = SimulationConfig(
            budget_level=BudgetLevel.LOW,
            seed=seed,
            firewall_poll_s=VOLUME_POLL_S,
        )
        sim = DataCenterSimulation(cfg, engine=engine)
        sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
        sim.add_flood(
            mix=VOLUME_DOS,
            rate_rps=VOLUME_RATE_RPS,
            num_agents=VOLUME_AGENTS,
            closed_loop=False,
            poisson=True,
            label="volume-dos",
        )
        sim.run(plan.volume_duration_s)


def _tree_topology_scenario(
    plan: BenchPlan,
    recorder: Recorder,
    seed: int,
    fluid: bool,
) -> None:
    """The hierarchical phase: flowlet ECMP across the tree-dc fat-tree.

    Capping on the 16-server ``tree-dc`` preset under an open-loop
    heavy-mix flood: every arrival crosses the flowlet-ECMP fabric and
    every control slot walks the per-PDU enforcement pass, so the cost
    of the topology layer sits on this phase's measured hot path.  The
    per-phase regression gate (``scripts/bench_compare.py
    --phase-threshold``) checks each phase's events-per-wall-second
    individually — a flat-path slowdown cannot hide behind this phase's
    added events, nor a fabric slowdown behind the volume flood's bulk.
    """
    with recorder.timers.phase("bench.tree_topology"):
        engine = EventEngine(obs=recorder, fluid=fluid)
        cfg = SimulationConfig.for_topology(
            "tree-dc", budget_level=BudgetLevel.LOW, seed=seed
        )
        sim = DataCenterSimulation(cfg, scheme=CappingScheme(), engine=engine)
        sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
        sim.add_flood(
            mix=ATTACK_MIX,
            rate_rps=ATTACK_RATE_RPS,
            num_agents=20,
            start_s=5.0,
            closed_loop=False,
        )
        sim.run(plan.tree_duration_s)


def _online_detect_scenario(
    plan: BenchPlan,
    recorder: Recorder,
    seed: int,
    fluid: bool,
) -> None:
    """The inference-pipeline phase: streaming detection under a flood.

    OnlineDetect on the flat rack under the evaluation flood: every
    admitted arrival crosses the per-source feature tap, every
    completion updates the attributed-energy windows, and every control
    slot walks the full score-and-quarantine pass over the source
    population.  Its own phase keeps the detector's per-request
    overhead visible to the per-phase regression gate rather than
    diluted into the attack phase's Anti-DOPE numbers.
    """
    with recorder.timers.phase("bench.online_detect"):
        engine = EventEngine(obs=recorder, fluid=fluid)
        cfg = SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed)
        sim = DataCenterSimulation(
            cfg, scheme=OnlineDetectScheme(), engine=engine
        )
        sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
        sim.add_flood(
            mix=ATTACK_MIX,
            rate_rps=ATTACK_RATE_RPS,
            num_agents=20,
            start_s=5.0,
        )
        sim.run(plan.online_detect_duration_s)


def _prediction_scenario(
    plan: BenchPlan,
    recorder: Recorder,
    seed: int,
    fluid: bool,
) -> None:
    """The predictor phase: history-driven oversubscription under poisoning.

    Prediction on the flat rack against the ``predictor-poison``
    attacker: every control slot runs the quantile/floor update, the
    effective-budget recomputation and the admission-filter refill
    retune, and the shaping→flood transition exercises both the graded
    tier ladder and the hard-cap fallback.  Its own phase keeps the
    predictor's per-slot overhead visible to the per-phase regression
    gate.  The shaping window is sized to a third of the phase so the
    flood lands well inside the measured run at either plan size.
    """
    with recorder.timers.phase("bench.prediction"):
        engine = EventEngine(obs=recorder, fluid=fluid)
        cfg = SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed)
        sim = DataCenterSimulation(cfg, scheme=PredictionScheme(), engine=engine)
        sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
        sim.add_dope_attacker(
            start_delay_s=2.0,
            mode="predictor-poison",
            poison_duration_s=plan.prediction_duration_s / 3.0,
            max_rate_rps=ATTACK_RATE_RPS,
            num_agents=20,
        )
        sim.run(plan.prediction_duration_s)


def _phase_entry(
    name: str, entry: Dict[str, object], phase_events: Dict[str, float]
) -> Dict[str, object]:
    """One ``phases`` row: wall clock plus per-phase event throughput."""
    wall_s = float(entry["total_s"])  # type: ignore[arg-type]
    row: Dict[str, object] = {"name": name, "wall_s": wall_s}
    if name in phase_events:
        events = phase_events[name]
        row["events"] = events
        row["events_per_wall_s"] = events / wall_s if wall_s > 0.0 else 0.0
    return row


def _engine_throughput(recorder: Recorder) -> float:
    """Events dispatched per wall second inside this recorder's event loop."""
    wall_s = recorder.timers.total_s("engine.run")
    if wall_s <= 0.0:
        return 0.0
    return recorder.counters.get("engine.events_dispatched") / wall_s


def _derive(
    counters: Dict[str, object], timings: Dict[str, Dict[str, object]]
) -> Dict[str, float]:
    """The wall-normalised metrics the payload's ``derived`` block holds."""
    engine_entry = timings.get("engine.run", {})
    engine_wall_s = float(engine_entry.get("total_s", 0.0))
    events = float(counters.get("engine.events_dispatched", 0))  # type: ignore[arg-type]
    sim_advanced_s = float(counters.get("engine.sim_time_advanced_s", 0.0))  # type: ignore[arg-type]
    hits = float(counters.get("runner.cache_hits", 0))  # type: ignore[arg-type]
    misses = float(counters.get("runner.cache_misses", 0))  # type: ignore[arg-type]
    lookups = hits + misses
    return {
        "events_per_wall_s": events / engine_wall_s if engine_wall_s > 0.0 else 0.0,
        "sim_time_per_wall_s": (
            sim_advanced_s / engine_wall_s if engine_wall_s > 0.0 else 0.0
        ),
        "runner_cache_hit_rate": hits / lookups if lookups > 0.0 else 0.0,
    }
