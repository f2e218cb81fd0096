"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``.

They check the self-time arithmetic on synthetic spans, that tracing
leaves simulated results unchanged on a tiny workload, that the output
checks catch a broken run, and that the metrics the benchmark computes are
exactly the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans as sp  # noqa: E402
import suite  # noqa: E402

TINY_SIM = suite.SimWorkload(
    name="tiny-sim",
    sims=(
        suite.SimSpec(
            label="online-detect",
            scheme="online-detect",
            duration_s=4.0,
            normal_rps=20.0,
            normal_users=20,
            flood_rps=60.0,
            flood_agents=4,
            flood_start_s=1.0,
        ),
        suite.SimSpec(
            label="token",
            scheme="token",
            duration_s=3.0,
            flood_rps=60.0,
            flood_agents=4,
            flood_start_s=0.5,
        ),
    ),
)

TINY_SWEEP = suite.SweepWorkload(
    name="tiny-sweep",
    types=suite.REGION_SWEEP.types[:1],
    rates_rps=(50.0, 300.0),
    window_s=2.0,
    num_agents=5,
    background_rps=10.0,
    budget=suite.REGION_SWEEP.budget,
)


def synthetic(rows):
    """Spans from ``(name, start, end, parent)`` rows."""
    names = sorted({row[0] for row in rows})
    return sp.Spans(
        names=names,
        name_id=np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        start=np.array([r[1] for r in rows], dtype=np.float64),
        end=np.array([r[2] for r in rows], dtype=np.float64),
        parent=np.array([r[3] for r in rows], dtype=np.int64),
        run=np.zeros(len(rows), dtype=np.int32),
    )


def test_self_time_subtracts_children_not_grandchildren():
    spans = synthetic(
        [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 4.0, 8.0, 0),
            ("a", 5.0, 6.0, 2),
            ("root", 20.0, 21.0, -1),
        ]
    )
    own = sp.self_times(spans)
    assert np.allclose(own, [4.0, 2.0, 3.0, 1.0, 1.0])
    assert sp.by_name(spans, own) == {"a": 3.0, "b": 3.0, "root": 5.0}
    # Self times of a nested tree add up to the top-level spans' duration.
    assert np.isclose(own.sum(), 11.0)


def test_self_time_charges_only_the_overlap_of_a_child():
    spans = synthetic([("p", 0.0, 10.0, -1), ("c", 9.0, 12.0, 0)])
    assert np.allclose(sp.self_times(spans), [9.0, 3.0])


def test_tracer_restores_every_method():
    bounds = sp.boundaries()
    before = [b.owner.__dict__[b.attr] for b in bounds]
    with sp.Tracer(bounds):
        assert all(
            b.owner.__dict__[b.attr] is not f for b, f in zip(bounds, before)
        )
    assert all(b.owner.__dict__[b.attr] is f for b, f in zip(bounds, before))


def test_tracing_leaves_simulation_results_unchanged():
    plain = TINY_SIM.run_round(3)
    tracer = sp.Tracer(sp.boundaries())
    with tracer:
        traced = TINY_SIM.run_round(3)
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest
    assert TINY_SIM.run_round(3).digest == plain.digest
    assert TINY_SIM.run_round(4).digest != plain.digest
    spans = tracer.spans()
    for name in ("network.dispatch", "cluster.submit", "detect.features",
                 "power.slot_tick", "sim.build", "sim.engine_run"):
        assert spans.of(name).any(), name
    assert sorted(set(spans.run)) == [0, 1]
    assert (sp.self_times(spans) > -1e-9).all()


def test_tracing_leaves_sweep_cells_unchanged(tmp_path):
    plain = TINY_SWEEP.run_round(3, scratch_dir=str(tmp_path))
    with sp.Tracer(sp.boundaries()):
        traced = TINY_SWEEP.run_round(3, scratch_dir=str(tmp_path))
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest
    assert plain.extra["cache_hit_ratio"] == 1.0


def test_output_check_catches_a_request_that_ends_twice():
    spec = TINY_SIM.sims[1]
    sim = spec.build(3)
    sim.run(spec.duration_s)
    assert suite.check_sim(sim, spec.duration_s) == []
    sim.collector.records.append(sim.collector.records[0])
    problems = suite.check_sim(sim, spec.duration_s)
    assert any("conservation" in p for p in problems)
    assert any("ended twice" in p for p in problems)


def test_metrics_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    monkeypatch.setattr(run, "OUT", tmp_path)
    units = run.declared_units()
    untraced = run.untraced_run(TINY_SIM, 3, seconds=0.0)
    assert untraced["correct"] and untraced["rounds"] == 2
    assert set(untraced["metrics"]) == set(units["end_to_end"])
    assert all(v > 0 for v in untraced["metrics"].values())
    traced = run.traced_run(TINY_SIM, 3)
    assert traced["correct"], traced["problems"]
    assert traced["traced_sim_digest"] == traced["sim_digest"]
    assert set(traced["metrics"]) == set(units["per_layer"])
    assert traced["metrics"]["sim.events_credited"] == 0
    assert traced["metrics"]["network.dispatch_calls"] == (
        traced["metrics"]["workloads.requests_issued"]
    )
