"""``python -m repro bench`` and the bench driver's JSON contract."""

import json

import pytest

from repro.bench import BenchPlan, plan_for, run_bench
from repro.cli import main
from repro.obs import BENCH_SCHEMA_ID, validate_bench_payload


def _valid_payload():
    """A minimal hand-built document that satisfies repro-bench/1."""
    return {
        "schema": BENCH_SCHEMA_ID,
        "name": "t",
        "mode": "smoke",
        "version": "1.2.0",
        "seed": 7,
        "config_hash": "ab" * 32,
        "headline": {"metric": "events_per_wall_s", "value": 1000.0},
        "counters": {"engine.events_dispatched": 10},
        "timings_s": {"engine.run": {"total_s": 0.01, "count": 1}},
        "derived": {
            "events_per_wall_s": 1000.0,
            "sim_time_per_wall_s": 50.0,
            "runner_cache_hit_rate": 0.5,
        },
        "phases": [{"name": "bench.attack_scenario", "wall_s": 0.01}],
    }


# ----------------------------------------------------------------------
# Schema validator
# ----------------------------------------------------------------------


def test_validator_accepts_valid_payload():
    assert validate_bench_payload(_valid_payload()) == []


@pytest.mark.parametrize("missing", ["schema", "headline", "derived", "phases"])
def test_validator_flags_missing_keys(missing):
    payload = _valid_payload()
    del payload[missing]
    assert any(missing in problem for problem in validate_bench_payload(payload))


def test_validator_rejects_bool_seed():
    # Type errors short-circuit before content checks.
    payload = _valid_payload()
    payload["seed"] = True
    assert validate_bench_payload(payload) == ["key 'seed' must be an int"]


def test_validator_rejects_wrong_schema_and_mode():
    payload = _valid_payload()
    payload["schema"] = "other/9"
    payload["mode"] = "hyper"
    problems = "\n".join(validate_bench_payload(payload))
    assert "schema" in problems
    assert "mode" in problems


def test_validator_rejects_headline_metric_not_in_derived():
    payload = _valid_payload()
    payload["headline"]["metric"] = "made_up_metric"
    assert any(
        "made_up_metric" in problem for problem in validate_bench_payload(payload)
    )


def test_validator_rejects_malformed_timings_and_phases():
    payload = _valid_payload()
    payload["timings_s"]["bad"] = {"total_s": "fast"}
    payload["phases"].append({"name": 3})
    problems = "\n".join(validate_bench_payload(payload))
    assert "timing 'bad'" in problems
    assert "phases[1]" in problems


def test_validator_rejects_non_object():
    assert validate_bench_payload([1, 2]) != []


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


def test_plans_cover_both_modes_and_reject_others():
    smoke = plan_for("smoke")
    full = plan_for("full")
    assert isinstance(smoke, BenchPlan) and smoke.mode == "smoke"
    assert full.mode == "full"
    # Smoke must be a strict subset of full's workload.
    assert smoke.attack_duration_s < full.attack_duration_s
    assert len(smoke.region_types) < len(full.region_types)
    assert len(smoke.region_rates_rps) < len(full.region_rates_rps)
    with pytest.raises(ValueError, match="mode"):
        plan_for("nightly")


# ----------------------------------------------------------------------
# The real driver, end to end (smoke-sized: a few seconds)
# ----------------------------------------------------------------------


def test_bench_cli_smoke_emits_schema_valid_json(tmp_path, capsys):
    out = tmp_path / "BENCH_smoke.json"
    assert main(["bench", "--smoke", "--out", str(out)]) == 0
    assert "events_per_wall_s" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert validate_bench_payload(payload) == []
    assert payload["mode"] == "smoke"
    assert payload["name"] == "bench-smoke"
    assert payload["schema"] == BENCH_SCHEMA_ID

    counters = payload["counters"]
    # Every instrumented layer shows up in one bench run.
    assert counters["engine.events_dispatched"] > 0
    assert counters["network.nlb_forwarded"] > 0
    assert counters["power.control_slots"] > 0
    assert counters["cluster.power_model_evals"] > 0
    assert counters["runner.cells_total"] == 2 * counters["runner.cells_executed"]

    derived = payload["derived"]
    assert derived["events_per_wall_s"] > 0.0
    assert derived["sim_time_per_wall_s"] > 0.0
    # Cold pass misses, warm pass hits: exactly half the lookups hit.
    assert derived["runner_cache_hit_rate"] == pytest.approx(0.5)
    assert payload["headline"]["value"] == derived["events_per_wall_s"]

    phase_names = {phase["name"] for phase in payload["phases"]}
    assert phase_names == {
        "bench.attack_scenario",
        "bench.chaos_scenario",
        "bench.online_detect",
        "bench.prediction",
        "bench.tree_topology",
        "bench.volume_flood",
        "bench.region_sweep_cold",
        "bench.region_sweep_warm",
    }
    # Default engine is the full-speed fluid path, recorded in the payload.
    assert payload["engine"] == "fluid"
    assert counters["engine.fluid_segments"] > 0


def test_run_bench_counters_deterministic_across_calls():
    a = run_bench(mode="smoke", seed=3)
    b = run_bench(mode="smoke", seed=3)
    assert a["counters"] == b["counters"]
    assert a["config_hash"] == b["config_hash"]
    # Wall-clock blocks exist but are not required to agree.
    assert set(a["timings_s"]) == set(b["timings_s"])


# ----------------------------------------------------------------------
# Engine selection (REPRO_BENCH_ENGINE)
# ----------------------------------------------------------------------


def test_bench_engine_env_var_selects_engine(monkeypatch):
    from repro.bench import BENCH_ENGINE_ENV, BENCH_ENGINES, bench_engine
    from repro.sim.engine import resolve_engine_selection

    # One event loop: the per-event engine, optionally with fluid
    # integration.  Every other name is rejected.
    assert BENCH_ENGINES == ("scalar", "fluid")
    monkeypatch.delenv(BENCH_ENGINE_ENV, raising=False)
    assert bench_engine() == "fluid"
    for name in ("scalar", "fluid"):
        monkeypatch.setenv(BENCH_ENGINE_ENV, name)
        assert bench_engine() == name
    monkeypatch.setenv(BENCH_ENGINE_ENV, "Scalar ")
    assert bench_engine() == "scalar"
    monkeypatch.setenv(BENCH_ENGINE_ENV, "turbo")
    with pytest.raises(ValueError, match="REPRO_BENCH_ENGINE"):
        bench_engine()

    assert resolve_engine_selection("scalar") is False
    assert resolve_engine_selection("fluid") is True
    with pytest.raises(ValueError, match="engine"):
        resolve_engine_selection("turbo")
    with pytest.raises(SystemExit):
        main(["bench", "--engine", "turbo"])


def test_support_runner_follows_bench_engine(monkeypatch):
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
    try:
        import _support
    finally:
        sys.path.pop(0)
    from repro.bench import BENCH_ENGINE_ENV

    monkeypatch.setenv(BENCH_ENGINE_ENV, "scalar")
    sim = _support.run_attack_scenario(duration=5.0, attack=False)
    assert not sim.engine.fluid
    monkeypatch.setenv(BENCH_ENGINE_ENV, "fluid")
    sim = _support.run_attack_scenario(duration=5.0, attack=False)
    assert sim.engine.fluid
    # An explicit argument wins over the environment.
    sim = _support.run_attack_scenario(duration=5.0, attack=False, engine="scalar")
    assert not sim.engine.fluid
