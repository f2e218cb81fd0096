#!/usr/bin/env python3
"""Benchmark of the DOPE / Anti-DOPE simulator, measured from outside it.

Run from the repository root::

    python3 perfbench/run.py                        # every workload
    python3 perfbench/run.py --workload table2 --seed 7 --seconds 25
    python3 perfbench/run.py --workload fleet-128 --trace 1

Each workload runs in its own process.  ``--trace 0`` repeats the
workload's round until ``--seconds`` have passed (at least two rounds)
and reports the end-to-end metrics; ``--trace 1`` runs one untraced
round, one traced round and one round under ``tracemalloc``, and reports
the per-layer metrics.  Every run checks the simulated outputs.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record and, for traced
runs, the spans are written under ``perfbench/out/``.  The exit code is 0
only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Environment variable the region analyzer reads to pick its engine.
ENGINE_ENV = "REPRO_BENCH_ENGINE"

#: Fewest fresh interpreters timed importing the package in one run.
IMPORT_SAMPLES = 7

#: Child program that times importing the simulator in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "began = time.perf_counter()\n"
    "import repro, repro.analysis, repro.runner, repro.workloads\n"
    "print(time.perf_counter() - began)\n"
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed; 1009 is held out"
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    if args.workload == "all":
        return run_all(list(suite.WORKLOADS), args)
    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(suite.WORKLOADS[args.workload], args)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_one(workload, args) -> int:
    engine_env = os.environ.pop(ENGINE_ENV, None)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        record = traced_run(workload, args.seed)
    else:
        record = untraced_run(workload, args.seed, args.seconds)
    record.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        commit=_git_commit(),
        nproc=len(os.sched_getaffinity(0)),
        engine_env=engine_env,
    )
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    _report(record, declared_units()["per_layer" if args.trace else "end_to_end"])
    return 0 if record["correct"] else 1


def _time_import() -> float:
    """Seconds a fresh interpreter spends importing the simulator."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        cwd=ROOT,
    ).stdout
    return float(out.strip())


def _rounds_agree(rounds) -> int:
    """Units whose digest differs from the first round's (same seed)."""
    first = rounds[0].digests
    return sum(
        a != b for r in rounds[1:] for a, b in zip(first, r.digests)
    )


def untraced_run(workload, seed: int, seconds: float) -> Dict[str, object]:
    """Repeat rounds for *seconds* (at least two) and report medians.

    One fresh-interpreter import is timed before each round, so the import
    samples behind ``setup_s`` span the same stretch of host time as the
    rounds do; at least :data:`IMPORT_SAMPLES` are taken.
    """
    began = time.perf_counter()
    deadline = began + seconds
    rounds = []
    import_s = []
    while True:
        import_s.append(_time_import())
        start = time.perf_counter()
        rounds.append(workload.run_round(seed, scratch_dir=str(OUT)))
        took = time.perf_counter() - start
        if len(rounds) >= 2 and time.perf_counter() + took > deadline:
            break
    while len(import_s) < IMPORT_SAMPLES:
        import_s.append(_time_import())
    attempted = sum(r.attempted for r in rounds)
    mismatched = _rounds_agree(rounds)
    failed = min(attempted, sum(r.failed for r in rounds) + mismatched)
    problems = [p for r in rounds for p in r.problems]
    if mismatched:
        problems.append(f"{mismatched} units changed digest between same-seed rounds")
    labels = [k for k in rounds[0].run_s if all(k in r.run_s for r in rounds)]
    run_s = sum(statistics.median(r.run_s[k] for r in rounds) for k in labels)
    unit_s = sum(statistics.median(r.unit_s[k] for r in rounds) for k in labels)
    built = [r.setup_s for r in rounds if not math.isnan(r.setup_s)]
    metrics = {
        "setup_s": statistics.median(import_s)
        + (statistics.median(built) if built else 0.0),
        "sim_s_per_wall_s": rounds[0].sim_seconds / run_s if run_s else 0.0,
        "cells_per_wall_s": rounds[0].units / unit_s if unit_s else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "sim_digest": rounds[0].digest,
        "engine": rounds[0].engine or _sweep_engine(workload, seed),
        "rounds": len(rounds),
        "round_run_s": [r.run_s for r in rounds],
        "round_setup_s": [r.setup_s for r in rounds],
        "import_s": import_s,
        "measured_s": time.perf_counter() - began,
    }


def _sweep_engine(workload, seed: int) -> str:
    """Engine the region analyzer builds its probes on (one extra probe)."""
    from repro.analysis import DopeRegionAnalyzer
    from repro import SimulationConfig
    from repro.sim import DataCenterSimulation

    import suite
    from spans import Boundary, Tracer

    tracer = Tracer(
        [Boundary(DataCenterSimulation, "__init__", "sim.build", "new_run")]
    )
    analyzer = DopeRegionAnalyzer(
        config=SimulationConfig(budget_level=workload.budget, seed=seed),
        window_s=1.0,
    )
    with tracer:
        analyzer.probe(workload.types[0], workload.rates_rps[0])
    return suite.engine_name(tracer.sims[0])


def traced_run(workload, seed: int) -> Dict[str, object]:
    """Untraced, traced and tracemalloc rounds; per-layer metrics."""
    import spans as sp
    import suite

    began = time.perf_counter()
    base = workload.run_round(seed, scratch_dir=str(OUT))
    base_s = time.perf_counter() - began

    tracer = sp.Tracer(sp.boundaries())
    began = time.perf_counter()
    with tracer:
        traced = workload.run_round(seed, scratch_dir=str(OUT))
    traced_s = time.perf_counter() - began

    tracemalloc.start()
    mem = workload.run_round(seed, scratch_dir=str(OUT))
    heap_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    rounds = (base, traced, mem)
    problems = [p for r in rounds for p in r.problems]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if isinstance(workload, suite.SweepWorkload):
        # The probes' simulations are reachable only through the tracer.
        for index, sim in enumerate(tracer.sims):
            attempted += 1
            found = suite.check_sim(sim, workload.window_s)
            failed += bool(found)
            problems.extend(f"probe {index}: {p}" for p in found)
    mismatched = _rounds_agree(rounds)
    if mismatched:
        problems.append(
            f"{mismatched} units differ between the untraced, traced "
            "and tracemalloc rounds"
        )
    failed = min(attempted, failed + mismatched)

    spans = tracer.spans()
    sp.save(OUT / f"{workload.name}-spans.npz", spans)
    metrics = layer_metrics(workload, tracer, spans, base, traced)
    metrics["mem.py_heap_peak_mib"] = heap_peak / 2**20
    metrics["trace.overhead_ratio"] = traced_s / base_s
    engine = traced.engine or (
        suite.engine_name(tracer.sims[0]) if tracer.sims else "none built"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "sim_digest": base.digest,
        "traced_sim_digest": traced.digest,
        "engine": engine,
        "spans": len(spans.name_id),
        "layer_self_s": layer_self_times(spans),
        "untraced_round_s": base_s,
        "traced_round_s": traced_s,
    }


def layer_metrics(workload, tracer, spans, base, traced) -> Dict[str, float]:
    """The per-layer metrics of one traced round (see README)."""
    import numpy as np
    import spans as sp
    import suite

    own = sp.by_name(spans, sp.self_times(spans))
    calls = sp.by_name(spans, np.ones(len(spans.name_id)))
    duration = spans.end - spans.start

    def self_s(name: str) -> float:
        return own.get(name, 0.0)

    def n(name: str) -> int:
        return int(calls.get(name, 0))

    def total_s(name: str) -> float:
        return float(duration[spans.of(name)].sum())

    def pct(name: str, q: float, scale: float = 1.0) -> float:
        picked = duration[spans.of(name)]
        return float(np.percentile(picked, q)) * scale if len(picked) else 0.0

    counters: Dict[str, float] = {}
    admitted = rejected = 0
    issued = records = 0
    for sim in tracer.sims:
        for key, value in sim.obs.counters.as_dict().items():
            counters[key] = counters.get(key, 0) + value
        admitted += sim.firewall.stats.admitted
        rejected += sim.firewall.stats.rejected
        issued += sum(gen.generated for gen in sim.generators)
        records = max(records, len(sim.collector.records))
    executed = int(counters.get("engine.events_dispatched", 0)) - tracer.credited
    dispatches = n("network.dispatch")
    submits = n("cluster.submit")
    features = spans.of("detect.features")
    slots = len(np.unique(spans.parent[features]))
    lookups = admitted + rejected
    base_run_s = sum(base.run_s.values())
    is_table2 = workload.name == "table2"

    metrics = {
        "sim.events_executed": executed,
        "sim.events_credited": tracer.credited,
        "sim.us_per_event": 1e6 * base_run_s / executed if executed else 0.0,
        "sim.residual_self_s": self_s("sim.engine_run"),
        "sim.build_s": self_s("sim.build"),
        "workloads.requests_issued": issued,
        "network.dispatch_calls": dispatches,
        "network.dispatch_self_s": self_s("network.dispatch"),
        "network.dispatch_us_p50": pct("network.dispatch", 50, 1e6),
        "network.dispatch_us_p99": pct("network.dispatch", 99, 1e6),
        "network.select_s": self_s("network.select"),
        "network.forwarded_ratio": (
            counters.get("network.nlb_forwarded", 0) / dispatches if dispatches else 0.0
        ),
        "network.firewall_admit_s": self_s("network.firewall_admit"),
        "network.firewall_reject_ratio": rejected / lookups if lookups else 0.0,
        "core.rpm_step_s": self_s("core.rpm_step"),
        "core.dpm_plan_s": self_s("core.dpm_plan"),
        "cluster.submit_calls": submits,
        "cluster.submit_self_s": self_s("cluster.submit"),
        "cluster.queue_full_ratio": (
            counters.get("network.nlb_dropped.dropped_queue_full", 0) / submits
            if submits
            else 0.0
        ),
        "cluster.rack_power_s": self_s("cluster.rack_power"),
        "cluster.power_model_evals": counters.get("cluster.power_model_evals", 0),
        "cluster.dvfs_transitions": counters.get("cluster.dvfs_transitions", 0),
        "power.slot_tick_calls": n("power.slot_tick"),
        "power.slot_tick_self_s": self_s("power.slot_tick"),
        "power.meter_sample_s": self_s("power.meter_sample"),
        "power.predictor_observe_s": self_s("power.predictor_observe"),
    }
    for scheme in suite.SCHEMES:
        run_s = base.run_s.get(scheme, 0.0) if is_table2 else 0.0
        metrics[f"scheme.{scheme}.run_s"] = run_s
    probe_total = total_s("analysis.probe")
    cache_total = total_s("runner.cache_get") + total_s("runner.cache_put")
    sweep_total = total_s("runner.sweep")
    metrics.update(
        {
            "detect.observe_arrival_s": self_s("detect.observe_arrival"),
            "detect.observe_completion_s": self_s("detect.observe_completion"),
            "detect.score_pass_s": (
                self_s("detect.features") + self_s("detect.model_update")
            ),
            "detect.sources_per_slot": int(features.sum()) / slots if slots else 0.0,
            "metrics.sink_calls": n("metrics.sink"),
            "metrics.sink_s": self_s("metrics.sink"),
            "metrics.records_held": records,
            "obs.counter_inc_calls": n("obs.counter_inc"),
            "obs.counter_inc_s": self_s("obs.counter_inc"),
            "analysis.probe_s_p50": pct("analysis.probe", 50),
            "runner.overhead_s": (
                sweep_total - probe_total - cache_total if sweep_total else 0.0
            ),
            "runner.cache_get_s": self_s("runner.cache_get"),
            "runner.cache_put_s": self_s("runner.cache_put"),
            "runner.cache_hit_ratio": traced.extra.get("cache_hit_ratio", 0.0),
            "runner.warm_pass_s": base.extra.get("warm_pass_s", 0.0),
        }
    )
    return metrics


def layer_self_times(spans) -> Dict[str, float]:
    """Self time per layer (``src/repro`` package), largest first."""
    import spans as sp

    layers: Dict[str, float] = {}
    for name, value in sp.by_name(spans, sp.self_times(spans)).items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return dict(sorted(layers.items(), key=lambda item: -item[1]))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def declared_units() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per ``--trace`` value, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def _report(record: Dict[str, object], units: Dict[str, str]) -> None:
    """Print the run's metrics by name with units; JSON summary last."""
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  commit {record['commit']}  "
        f"nproc {record['nproc']}  engine {record['engine']}  "
        f"{ENGINE_ENV}={record['engine_env'] or '(unset)'}"
    )
    for problem in record["problems"]:
        print(f"  FAILED  {problem}")
    metrics: Dict[str, float] = record["metrics"]  # type: ignore[assignment]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both "
            "computed and declared in BENCHMARK.json"
        )
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    attempted, failed = record["attempted"], record["failed"]
    share = failed / attempted
    print(f"  {'failed_frac':32s} {share:>16.6g} ratio  ({failed}/{attempted})")
    print(f"  {'sim_digest':32s} {record['sim_digest']}")
    if "layer_self_s" in record:
        print("  self time by layer (traced round):")
        for layer, value in record["layer_self_s"].items():  # type: ignore[union-attr]
            print(f"    {layer:12s} {value:10.4f} s")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# Every workload, one process each
# ----------------------------------------------------------------------


def run_all(names: List[str], args) -> int:
    """Run each workload in its own child process; exit 1 if any failed."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or proc.returncode or (0 if result["correct"] else 1)
        summary["correct"] &= bool(result["correct"]) and not proc.returncode
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
