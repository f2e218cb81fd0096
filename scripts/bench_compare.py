#!/usr/bin/env python
"""Compare a fresh bench payload against a committed baseline.

CI's bench-smoke job runs ``python -m repro bench --smoke`` and then::

    python scripts/bench_compare.py BENCH_baseline.json BENCH_smoke.json

The comparison has two parts:

* **Schema + identity** — both files must be valid ``repro-bench/1``
  payloads of the same mode; mismatches are configuration errors and
  fail immediately.
* **Headline regression** — the fresh run's headline metric (event
  throughput) must not fall more than ``--threshold`` (default 20%)
  below the baseline's.  Faster-than-baseline is never a failure.
* **Absolute speedup floor** — the fresh headline must also stay above
  ``--floor`` events per wall-second (default: 10× the last committed
  per-request-engine headline).  The relative threshold protects the
  *current* baseline; the floor protects the aggregate-flow refactor
  itself — it fails CI the day the fluid path stops being an
  order of magnitude faster than the old per-request hot loop, even if
  someone "fixes" that by committing a slower baseline.  Pass
  ``--floor 0`` to disable (e.g. when comparing scalar-engine runs).
* **Per-phase regression** — every baseline phase that reports
  ``events_per_wall_s`` must still exist in the fresh payload and must
  not fall more than ``--phase-threshold`` (default 50%) below its own
  baseline.  The aggregate headline mixes phases with very different
  event volumes, so adding a heavy phase (the tree-topology scenario)
  could otherwise mask a multiple-times slowdown of a lighter one —
  the per-phase check pins each scenario to its own history.  A phase
  present in the baseline but missing from the fresh payload is a
  failure (deleting a phase is how a regression hides); zero-event
  phases are skipped.

Wall-clock throughput varies across machines, so the committed baseline
is only a coarse floor — the threshold catches "the event loop got
multiples slower", not single-digit noise.  Exit code 0 on pass, 1 on
regression or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.obs import validate_bench_payload  # noqa: E402

__all__ = [
    "LEGACY_HEADLINE_EVENTS_PER_WALL_S",
    "MIN_SPEEDUP",
    "DEFAULT_FLOOR",
    "DEFAULT_PHASE_THRESHOLD",
    "load_payload",
    "compare_payloads",
    "compare_phases",
    "main",
]

#: The committed smoke headline of the per-request (scalar) engine
#: before the aggregate-flow refactor, in events per
#: wall-second.  Kept as the fixed reference the speedup floor is
#: anchored to — deliberately *not* read from the evolving baseline.
LEGACY_HEADLINE_EVENTS_PER_WALL_S = 55_389.0

#: The speedup over the per-request engine the default floor enforces.
MIN_SPEEDUP = 10.0

#: Default ``--floor``: the fluid bench must keep at least a
#: 10× headline over the old per-request hot loop.
DEFAULT_FLOOR = LEGACY_HEADLINE_EVENTS_PER_WALL_S * MIN_SPEEDUP

#: Default ``--phase-threshold``: the allowed fractional drop of any
#: single phase's events-per-wall-second.  Looser than the headline
#: threshold because individual phases are shorter and noisier, but
#: tight enough to catch "one scenario got multiples slower while the
#: aggregate stayed flat".
DEFAULT_PHASE_THRESHOLD = 0.50


def load_payload(path: Path) -> Tuple[Optional[Dict[str, object]], List[str]]:
    """Read and schema-validate one bench JSON file.

    Returns ``(payload, [])`` on success or ``(None, errors)`` when the
    file is missing, unparsable or fails ``repro-bench/1`` validation.
    """
    if not path.is_file():
        return None, [f"{path}: no such file"]
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return None, [f"{path}: invalid JSON: {exc}"]
    if not isinstance(payload, dict):
        return None, [f"{path}: top level must be a JSON object"]
    errors = [f"{path}: {e}" for e in validate_bench_payload(payload)]
    if errors:
        return None, errors
    return payload, []


def compare_payloads(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    threshold: float = 0.20,
    floor: Optional[float] = None,
) -> List[str]:
    """Regression check; returns a list of failure messages (empty = pass).

    *floor*, when positive, is an absolute lower bound on the fresh
    headline value in addition to the relative *threshold* against the
    baseline.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    failures = []
    base_head: Dict[str, object] = baseline["headline"]  # type: ignore[assignment]
    fresh_head: Dict[str, object] = fresh["headline"]  # type: ignore[assignment]
    if baseline["mode"] != fresh["mode"]:
        failures.append(
            f"mode mismatch: baseline is {baseline['mode']!r}, "
            f"fresh is {fresh['mode']!r}"
        )
    # Headlines are engine-dependent; comparing across engines is a
    # configuration error, not a regression.  Pre-refactor payloads
    # carry no engine field, so the check is conditional.
    if (
        "engine" in baseline
        and "engine" in fresh
        and baseline["engine"] != fresh["engine"]
    ):
        failures.append(
            f"engine mismatch: baseline ran {baseline['engine']!r}, "
            f"fresh ran {fresh['engine']!r}"
        )
    if base_head["metric"] != fresh_head["metric"]:
        failures.append(
            f"headline metric mismatch: baseline tracks "
            f"{base_head['metric']!r}, fresh tracks {fresh_head['metric']!r}"
        )
        return failures
    base_value = float(base_head["value"])  # type: ignore[arg-type]
    fresh_value = float(fresh_head["value"])  # type: ignore[arg-type]
    if base_value <= 0.0:
        failures.append(f"baseline headline value must be positive, got {base_value}")
        return failures
    relative_floor = base_value * (1.0 - threshold)
    if fresh_value < relative_floor:
        drop = 1.0 - fresh_value / base_value
        failures.append(
            f"headline regression: {base_head['metric']} fell "
            f"{drop:.1%} (baseline {base_value:.0f}, fresh {fresh_value:.0f}, "
            f"allowed floor {relative_floor:.0f} at threshold {threshold:.0%})"
        )
    if floor is not None and floor > 0.0 and fresh_value < floor:
        failures.append(
            f"speedup floor violated: {base_head['metric']} "
            f"{fresh_value:.0f} is below the absolute floor {floor:.0f} "
            f"({MIN_SPEEDUP:.0f}x the {LEGACY_HEADLINE_EVENTS_PER_WALL_S:.0f} "
            f"per-request-engine headline)"
        )
    return failures


def _phase_rates(payload: Dict[str, object]) -> Dict[str, float]:
    """Phase name → events_per_wall_s, for phases that report one."""
    rates: Dict[str, float] = {}
    for phase in payload.get("phases", []):  # type: ignore[union-attr]
        if isinstance(phase, dict) and "events_per_wall_s" in phase:
            rates[str(phase["name"])] = float(phase["events_per_wall_s"])  # type: ignore[arg-type]
    return rates


def compare_phases(
    baseline: Dict[str, object],
    fresh: Dict[str, object],
    phase_threshold: float = DEFAULT_PHASE_THRESHOLD,
) -> List[str]:
    """Per-phase regression check; returns failure messages (empty = pass).

    Each baseline phase with a positive ``events_per_wall_s`` must
    still be present in the fresh payload (a dropped phase fails — it
    is how a per-scenario regression disappears from the aggregate)
    and must stay above ``baseline × (1 - phase_threshold)``.  Phases
    the baseline does not report rates for (pre-refactor baselines,
    zero-event phases) are skipped, so old baselines keep comparing.
    """
    if not 0.0 < phase_threshold < 1.0:
        raise ValueError(
            f"phase_threshold must be in (0, 1), got {phase_threshold}"
        )
    failures: List[str] = []
    base_rates = _phase_rates(baseline)
    fresh_rates = _phase_rates(fresh)
    for name in sorted(base_rates):
        base_rate = base_rates[name]
        if base_rate <= 0.0:
            continue
        if name not in fresh_rates:
            failures.append(
                f"phase {name!r} reported events_per_wall_s in the "
                "baseline but is missing from the fresh payload"
            )
            continue
        fresh_rate = fresh_rates[name]
        allowed = base_rate * (1.0 - phase_threshold)
        if fresh_rate < allowed:
            drop = 1.0 - fresh_rate / base_rate
            failures.append(
                f"phase regression: {name} events_per_wall_s fell "
                f"{drop:.1%} (baseline {base_rate:.0f}, fresh "
                f"{fresh_rate:.0f}, allowed floor {allowed:.0f} at "
                f"phase threshold {phase_threshold:.0%})"
            )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="fail when a bench payload regresses against a baseline"
    )
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("fresh", type=Path, help="freshly produced bench JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional headline drop (default: 0.20)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR,
        help=(
            "absolute headline floor in events per wall-second "
            f"(default: {DEFAULT_FLOOR:.0f} = {MIN_SPEEDUP:.0f}x the "
            "pre-refactor per-request headline; 0 disables)"
        ),
    )
    parser.add_argument(
        "--phase-threshold",
        type=float,
        default=DEFAULT_PHASE_THRESHOLD,
        help=(
            "allowed fractional events_per_wall_s drop of any single "
            f"phase (default: {DEFAULT_PHASE_THRESHOLD})"
        ),
    )
    args = parser.parse_args(argv)

    baseline, errors = load_payload(args.baseline)
    fresh, fresh_errors = load_payload(args.fresh)
    errors += fresh_errors
    if baseline is not None and fresh is not None:
        errors += compare_payloads(
            baseline, fresh, threshold=args.threshold, floor=args.floor
        )
        errors += compare_phases(
            baseline, fresh, phase_threshold=args.phase_threshold
        )
    if errors:
        for line in errors:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    base_head = baseline["headline"]  # type: ignore[index]
    fresh_head = fresh["headline"]  # type: ignore[index]
    print(
        f"OK: {fresh_head['metric']} {fresh_head['value']:.0f} vs "  # type: ignore[index]
        f"baseline {base_head['value']:.0f} "  # type: ignore[index]
        f"(threshold {args.threshold:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
