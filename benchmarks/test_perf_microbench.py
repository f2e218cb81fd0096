"""Performance micro-benchmarks on the simulator's hot paths.

Unlike the figure benches (one-shot scenario reproductions), these are
true pytest-benchmark timings with many rounds, tracking regressions in
the code the event loop spends its time in: event scheduling/dispatch,
the server submit→finish cycle, power-model evaluation and mix
sampling.  A trace-driven run executes each of these millions of times.
"""

import os
import time

import numpy as np
import pytest

from repro.cluster import Rack, ServerPowerModel
from repro.network import NetworkLoadBalancer, Request
from repro.sim import EventEngine
from repro.workloads import COLLA_FILT, TEXT_CONT, TrafficClass, alios_mix

from _support import REGION_RATES_RPS, REGION_TYPES, fig11_analyzer


def test_perf_engine_event_throughput(benchmark):
    """Schedule + dispatch cost per event (heap push/pop + callback)."""

    def run_10k_events():
        engine = EventEngine()
        for i in range(10_000):
            engine.schedule(i * 1e-4, lambda: None)
        engine.run()
        return engine.dispatched

    dispatched = benchmark(run_10k_events)
    assert dispatched == 10_000


def test_perf_server_request_cycle(benchmark):
    """Full submit → serve → complete cycle including energy accrual."""

    def serve_1k_requests():
        engine = EventEngine()
        rack = Rack(engine, num_servers=4, rng=np.random.default_rng(0))
        nlb = NetworkLoadBalancer(rack.servers, now=lambda: engine.now)
        t = 0.0
        for i in range(1_000):
            t += 0.001
            req = Request(TEXT_CONT, i % 50, TrafficClass.NORMAL, t)
            engine.schedule_at(t, lambda r=req: nlb.dispatch(r))
        engine.run()
        return nlb.forwarded

    forwarded = benchmark(serve_1k_requests)
    assert forwarded == 1_000


def test_perf_power_model_evaluation(benchmark):
    """The power query every control slot and meter sample issues."""
    model = ServerPowerModel()
    active = [COLLA_FILT] * 5 + [TEXT_CONT] * 3

    result = benchmark(lambda: model.power(active, 0.875))
    assert result > model.idle_power(0.875)


def test_perf_mix_sampling(benchmark):
    """Vectorised request-type sampling (the arrival hot path)."""
    mix = alios_mix()
    rng = np.random.default_rng(0)

    samples = benchmark(lambda: mix.sample_many(rng, 1_000))
    assert len(samples) == 1_000


def _timed_region_sweep(workers):
    """One full Fig 11 region sweep; returns (seconds, result rows)."""
    analyzer = fig11_analyzer(seed=5)
    started = time.perf_counter()
    result = analyzer.sweep(REGION_TYPES, REGION_RATES_RPS, workers=workers)
    return time.perf_counter() - started, result.as_rows()


# Shared between the equivalence and speedup tests below so the 20-cell
# grid is swept once per mode, not once per test.
_SWEEP_MEMO = {}


def _region_sweep(workers):
    if workers not in _SWEEP_MEMO:
        _SWEEP_MEMO[workers] = _timed_region_sweep(workers)
    return _SWEEP_MEMO[workers]


def test_perf_parallel_region_sweep_byte_identical():
    """4-worker Fig 11 sweep merges to byte-identical serial output."""
    _, serial_rows = _region_sweep(1)
    _, parallel_rows = _region_sweep(4)
    assert repr(parallel_rows) == repr(serial_rows)


def test_perf_parallel_region_sweep_speedup():
    """Acceptance: 4 workers ≥ 2× faster than serial on the Fig 11 grid.

    The bound is hardware-conditional: process parallelism cannot beat
    serial execution without cores to run on, so the assertion needs at
    least 4 usable CPUs (CI containers pinned to 1 core skip it; the
    byte-identity guarantee above is asserted regardless).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    if cpus < 4:
        pytest.skip(f"needs >=4 usable CPUs for a 2x bound, have {cpus}")
    serial_s, _ = _region_sweep(1)
    parallel_s, _ = _region_sweep(4)
    speedup = serial_s / parallel_s
    print(
        f"\nFig 11 region grid ({len(REGION_TYPES) * len(REGION_RATES_RPS)} cells): "
        f"serial {serial_s:.2f}s, 4 workers {parallel_s:.2f}s, {speedup:.2f}x"
    )
    assert speedup >= 2.0


def test_perf_dvfs_transition(benchmark):
    """Level change with in-flight work rescaling (8 busy workers)."""

    def transition():
        engine = EventEngine()
        rack = Rack(engine, num_servers=1, rng=np.random.default_rng(0))
        server = rack.servers[0]
        for i in range(8):
            server.submit(Request(COLLA_FILT, i, TrafficClass.NORMAL, 0.0))
        server.set_level(0)
        server.set_level(12)
        return server.busy_workers

    busy = benchmark(transition)
    assert busy == 8
