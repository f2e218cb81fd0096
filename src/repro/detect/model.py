"""Online anomaly scoring with warm-up and hysteresis (detector back end).

A dependency-free streaming z-score model in the shape of the per-source
behavioural scorers used against web-server application floods: the
population of per-source feature vectors defines "normal", and a source
whose vector sits far from the population mean — in units of the
population's own spread — is anomalous.  Both moments are exponentially
weighted, so the baseline tracks legitimate drift (diurnal load, mix
changes) while a flood that arrives faster than the decay constant
stands out.

Design constraints, in order:

* **Deterministic.**  The model draws no random numbers; the ``seed``
  parameter is recorded for run fingerprints only.  Scoring a fixed
  observation sequence is byte-identical on every platform and engine
  execution mode (pure float arithmetic, fixed iteration order supplied
  by the caller).
* **Warm-up.**  Until ``warmup_observations`` vectors have been folded
  in, the population moments are still forming and every verdict is
  "innocent" — the cold-start false-positive guard.
* **Hysteresis.**  A source becomes suspect when its score crosses
  ``enter_threshold`` and stays suspect until the score falls below the
  *lower* ``exit_threshold``: the forwarding pool must not flap on a
  source hovering at the boundary, because every flip reshuffles which
  servers its requests land on.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from .._validation import check_int, check_positive, require
from .features import FeatureVector, SourceFeatures

__all__ = ["OnlineAnomalyModel"]

#: Floor of the per-feature standard deviation, in units of the feature
#: itself.  A population that agrees perfectly on a feature would
#: otherwise turn an infinitesimal deviation into an unbounded z-score.
_MIN_STD_FRACTION = 0.05
_MIN_STD_ABS = 1e-6

Moments = Tuple[float, ...]


def _z(value: float, mean: float, sq_mean: float) -> float:
    """``|value - mean|`` in units of the floored population spread.

    Each ``max`` of the formula is spelled as the comparison ``max``
    performs, so NaN and -0.0 resolve exactly as ``max`` resolves them.
    """
    variance = sq_mean - mean * mean
    if not variance > 0.0:  # max(0.0, variance)
        variance = 0.0
    std = math.sqrt(variance)
    floor = _MIN_STD_FRACTION * abs(mean)
    if not floor > _MIN_STD_ABS:  # max(_MIN_STD_ABS, floor)
        floor = _MIN_STD_ABS
    if floor > std:  # max(std, floor)
        std = floor
    return abs(value - mean) / std


def _score(vec: FeatureVector, mean: Moments, sq_mean: Moments) -> float:
    """Mean absolute z of *vec* against the moments (0.0 before any)."""
    if not mean:
        return 0.0
    v0, v1, v2, v3 = vec
    m0, m1, m2, m3 = mean
    s0, s1, s2, s3 = sq_mean
    return (
        _z(v0, m0, s0) + _z(v1, m1, s1) + _z(v2, m2, s2) + _z(v3, m3, s3)
    ) / 4


def _fold(
    vec: FeatureVector, mean: Moments, sq_mean: Moments, decay: float
) -> Tuple[Moments, Moments]:
    """The moments after folding *vec* in (the first vector seeds them)."""
    v0, v1, v2, v3 = vec
    if not mean:
        return (v0, v1, v2, v3), (v0 * v0, v1 * v1, v2 * v2, v3 * v3)
    d = decay
    e = 1.0 - d
    m0, m1, m2, m3 = mean
    s0, s1, s2, s3 = sq_mean
    return (
        (d * m0 + e * v0, d * m1 + e * v1, d * m2 + e * v2, d * m3 + e * v3),
        (
            d * s0 + e * v0 * v0,
            d * s1 + e * v1 * v1,
            d * s2 + e * v2 * v2,
            d * s3 + e * v3 * v3,
        ),
    )


class OnlineAnomalyModel:
    """Streaming population z-score with hysteresis verdicts.

    Parameters
    ----------
    seed:
        Recorded in :meth:`fingerprint`; the model itself is
        deterministic and draws nothing from it.
    warmup_observations:
        Vectors to absorb before any source may be flagged.
    enter_threshold / exit_threshold:
        Hysteresis band on the anomaly score (mean absolute z across
        features).  ``enter > exit`` is required.
    decay:
        Per-observation retention of the population moments (EW mean and
        EW mean-of-squares).  With ~one observation per source per
        control slot, ``0.995`` remembers a few hundred slots of
        population history.
    """

    def __init__(
        self,
        seed: int = 0,
        warmup_observations: int = 100,
        enter_threshold: float = 1.5,
        exit_threshold: float = 1.0,
        decay: float = 0.995,
    ) -> None:
        check_int("seed", seed, minimum=0)
        check_int("warmup_observations", warmup_observations, minimum=1)
        check_positive("enter_threshold", enter_threshold)
        check_positive("exit_threshold", exit_threshold)
        require(
            enter_threshold > exit_threshold,
            f"enter_threshold ({enter_threshold}) must exceed "
            f"exit_threshold ({exit_threshold}) for hysteresis to hold",
        )
        require(0.0 < decay < 1.0, f"decay must be in (0,1), got {decay}")
        self.seed = seed
        self.warmup_observations = warmup_observations
        self.enter_threshold = float(enter_threshold)
        self.exit_threshold = float(exit_threshold)
        self.decay = float(decay)
        self.observations = 0
        self._mean: Tuple[float, ...] = ()
        self._sq_mean: Tuple[float, ...] = ()
        self._suspects: Dict[int, bool] = {}
        self.last_scores: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Population moments
    # ------------------------------------------------------------------
    def observe(self, features: SourceFeatures) -> None:
        """Fold one feature vector into the population moments."""
        self._mean, self._sq_mean = _fold(
            features.as_tuple(), self._mean, self._sq_mean, self.decay
        )
        self.observations += 1

    def score(self, features: SourceFeatures) -> float:
        """Anomaly score: mean absolute z across the feature vector."""
        return _score(features.as_tuple(), self._mean, self._sq_mean)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    @property
    def warmed_up(self) -> bool:
        """Whether the warm-up period has elapsed."""
        return self.observations >= self.warmup_observations

    def update(self, source_id: int, features: SourceFeatures) -> bool:
        """Score *source_id*, fold the vector in, return the verdict."""
        return self.update_vector(source_id, features.as_tuple())

    def update_vector(self, source_id: int, vector: FeatureVector) -> bool:
        """:meth:`update` on a plain feature tuple.

        Scoring happens against the moments *before* this vector is
        absorbed, so a source never dilutes the baseline it is being
        judged against within the same call.  The verdict applies
        warm-up and the enter/exit hysteresis band.
        """
        mean, sq_mean = self._mean, self._sq_mean
        value = _score(vector, mean, sq_mean)
        self._mean, self._sq_mean = _fold(vector, mean, sq_mean, self.decay)
        self.observations += 1
        self.last_scores[source_id] = value
        if self.observations < self.warmup_observations:
            self._suspects[source_id] = False
            return False
        if self._suspects.get(source_id, False):
            verdict = value >= self.exit_threshold
        else:
            verdict = value >= self.enter_threshold
        self._suspects[source_id] = verdict
        return verdict

    def is_suspect(self, source_id: int) -> bool:
        """The source's current hysteresis state."""
        return self._suspects.get(source_id, False)

    def forget(self, source_id: int) -> None:
        """Drop a source's verdict state and last score."""
        self._suspects.pop(source_id, None)
        self.last_scores.pop(source_id, None)

    def fingerprint(self) -> Dict[str, object]:
        """JSON-ready identity of this model configuration."""
        return {
            "seed": self.seed,
            "warmup_observations": self.warmup_observations,
            "enter_threshold": self.enter_threshold,
            "exit_threshold": self.exit_threshold,
            "decay": self.decay,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flagged = sum(1 for v in self._suspects.values() if v)
        return (
            f"OnlineAnomalyModel(obs={self.observations}, "
            f"suspects={flagged}, warmed_up={self.warmed_up})"
        )
