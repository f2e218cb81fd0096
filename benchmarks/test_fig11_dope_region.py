"""Fig. 11 — the DOPE attack region.

Sweeps the (request type × traffic rate) plane and classifies every
cell into benign / dope / detected / filtered zones.  The DOPE region
is where the power budget is violated while the firewall sees nothing:
its request rate "can be close to the normal while far smaller than
the DoS-detecting network capacity".
"""

from repro.analysis import print_table

from _support import (
    REGION_RATES_RPS as RATES,
    REGION_TYPES as TYPES,
    bench_cache,
    bench_workers,
    fig11_analyzer,
)


def test_fig11_dope_region(benchmark):
    # The sweep runs through the experiment runner: REPRO_BENCH_WORKERS
    # fans cells out across processes and REPRO_BENCH_CACHE reuses
    # stored cells — the merged result is identical in every mode.
    analyzer = fig11_analyzer(seed=5)
    result = benchmark.pedantic(
        lambda: analyzer.sweep(
            TYPES, RATES, workers=bench_workers(), cache=bench_cache()
        ),
        rounds=1,
        iterations=1,
    )

    grid_rows = []
    for t in TYPES:
        grid_rows.append(
            (t.name, *(result.zone_of(t.name, r) for r in RATES))
        )
    print_table(
        ["type"] + [f"{int(r)}rps" for r in RATES],
        grid_rows,
        title="Fig 11: DOPE attack region (Medium-PB, 20 agents)",
    )
    print_table(
        ["type", "rate", "agents", "peak W", "budget W", "zone"],
        result.as_rows(),
        title="Fig 11 (detail): swept cells",
    )

    # Shape: a non-empty DOPE region exists...
    assert result.dope_cells()
    # ...entered by the heavy analytics endpoints at moderate rates...
    for heavy in ("colla-filt", "k-means"):
        onset = result.dope_onset_rate(heavy)
        assert onset is not None and onset <= 300.0
    # ...while light text needs far more traffic (or never gets there)
    text_onset = result.dope_onset_rate("text-cont")
    assert text_onset is None or text_onset > 300.0
    # ...and volume floods never violate the budget undetected.
    assert result.dope_onset_rate("volume-dos") is None
    # Low rates are benign for everything.
    for t in TYPES:
        assert result.zone_of(t.name, 50.0) == "benign"
