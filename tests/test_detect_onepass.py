"""The detector's tuple path equals its dataclass API.

``features()``, ``score()``, ``observe()`` and ``update()`` are thin
wrappers over the tuple implementation (``feature_vector``,
``update_vector``).  These tests check, on Hypothesis streams, that

* ``features()`` equals ``SourceFeatures(*vector)`` for the tuple
  path's vector, on twin extractors fed the same events;
* ``update(sid, f)`` and ``update_vector(sid, f.as_tuple())`` give
  identical scores and verdicts on twin models;
* the comparison-spelled scorer matches the ``max()`` formulas bit for
  bit, infinities and -0.0 included, and NaN exactly where they give
  NaN;

and pin a golden hash of ``source_scores()`` for a 32-server
online-detect run (the value the ``max()``-based scorer produced).
"""

import hashlib
import json
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BudgetLevel, DataCenterSimulation, OnlineDetectScheme, SimulationConfig
from repro.detect import (
    OnlineAnomalyModel,
    SourceFeatures,
    StreamingFeatureExtractor,
)
from repro.workloads import ALL_TYPES, COLLA_FILT, K_MEANS, WORD_COUNT, uniform_mix

#: sha256 of ``json.dumps(scheme.source_scores())`` for :func:`_golden_run`.
GOLDEN_SCORES_SHA256 = (
    "7f9b1677295b50ed8059311717f0899df7adbc8d38abd04e749fc717dc495034"
)

_events = st.lists(
    st.tuples(
        st.sampled_from(("arrival", "completion", "slot")),
        st.integers(0, 7),
        st.sampled_from(ALL_TYPES),
        st.floats(0.0, 3.0, allow_nan=False),
    ),
    max_size=120,
)


def _twin_extractors():
    energy = {rtype.name: 0.5 + i for i, rtype in enumerate(ALL_TYPES)}
    return [
        StreamingFeatureExtractor(
            ALL_TYPES, tau_s=2.0, energy_of=lambda rtype: energy[rtype.name]
        )
        for _ in range(2)
    ]


def _bits(x: float) -> bytes:
    """The float's bit pattern; every NaN maps to one token.

    A NaN's sign and payload after ``nan + nan`` depend on which CPython
    float path (generic or specialised) ran the addition, so they are
    not part of the formulas; whether the result *is* NaN is.
    """
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


@settings(max_examples=80, deadline=None)
@given(_events, st.floats(0.5, 2.0))
def test_tuple_path_matches_dataclass_api(events, gain):
    fast, slow = _twin_extractors()
    model_tuple = OnlineAnomalyModel(warmup_observations=5)
    model_feats = OnlineAnomalyModel(warmup_observations=5)
    now = 0.0
    for kind, source, rtype, dt in events:
        now += dt
        for ex in (fast, slow):
            ex.set_calibration(gain)
            if kind == "arrival":
                ex.observe_arrival(source, rtype, now)
            elif kind == "completion":
                ex.observe_completion(source, rtype, now)
        if kind != "slot":
            continue
        assert fast.sources() == slow.sources()
        for sid in slow.sources():
            vector = fast.feature_vector(sid, now)
            feats = slow.features(sid, now)
            assert feats == SourceFeatures(*vector)
            by_tuple = model_tuple.update_vector(sid, vector)
            assert by_tuple == model_feats.update(sid, feats)
            assert model_tuple.is_suspect(sid) == by_tuple
        assert model_tuple.last_scores == model_feats.last_scores
        assert model_tuple.observations == model_feats.observations


def _reference_score(vec, means, sq_means):
    """The scorer as first written, with ``max()`` and a running total."""
    total = 0.0
    for value, mean, sq_mean in zip(vec, means, sq_means):
        variance = max(0.0, sq_mean - mean * mean)
        std = math.sqrt(variance)
        floor = max(1e-6, 0.05 * abs(mean))
        std = max(std, floor)
        total += abs(value - mean) / std
    return total / len(vec)


_specials = st.sampled_from(
    (0.0, -0.0, 1e-6, 2e-5, 5e-324, 1e300, math.inf, -math.inf, math.nan)
)
_any_float = st.one_of(_specials, st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(_any_float, _any_float, _any_float, _any_float),
    st.tuples(_any_float, _any_float, _any_float, _any_float),
)
def test_scorer_matches_max_formulas_bit_for_bit(seed_vec, vec):
    model = OnlineAnomalyModel()
    model.observe(SourceFeatures(*seed_vec))
    model.observe(SourceFeatures(*vec))
    d = model.decay
    assert [_bits(m) for m in model._mean] == [
        _bits(d * m + (1.0 - d) * v) for m, v in zip(seed_vec, vec)
    ]
    assert [_bits(s) for s in model._sq_mean] == [
        _bits(d * (m * m) + (1.0 - d) * v * v) for m, v in zip(seed_vec, vec)
    ]
    reference = _reference_score(vec, model._mean, model._sq_mean)
    assert _bits(model.score(SourceFeatures(*vec))) == _bits(reference)


def _golden_run():
    config = SimulationConfig(budget_level=BudgetLevel.LOW, num_servers=32, seed=13)
    sim = DataCenterSimulation(config, scheme=OnlineDetectScheme())
    sim.add_normal_traffic(rate_rps=320.0, num_users=1600)
    sim.add_flood(
        mix=uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT)),
        rate_rps=1760.0,
        num_agents=160,
        start_s=8.0,
    )
    sim.run(16.0)
    return sim.scheme


def test_source_scores_golden_32_servers():
    scheme = _golden_run()
    scores = scheme.source_scores()
    assert len(scores) == 1760
    assert len(scheme.suspect_sources) == 140
    digest = hashlib.sha256(json.dumps(scores).encode()).hexdigest()
    assert digest == GOLDEN_SCORES_SHA256
