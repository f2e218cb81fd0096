"""Aggregate anomaly detection — and why it cannot stop DOPE.

The paper argues that "mainstream network protection mechanisms are
incapable of handling DOPE due to their primary dependency on
rate-limiting techniques".  A fair test of that claim needs a smarter
detector than DDoS-deflate: this module provides an EWMA z-score
detector over the *aggregate* request rate, the standard statistical
anomaly monitor.

The detector demonstrates the attribution gap precisely:

* the **aggregate** alarm fires reliably when a DOPE flood starts (the
  total rate steps up far beyond its learned variance), but
* the **offender query** — which sources individually exceed a rate
  threshold — returns nothing, because every DOPE agent sits at a few
  requests per second.

Detection without attribution leaves only indiscriminate responses
(rate-limit everyone — the Token scheme's collateral), which is exactly
the paper's point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .._validation import check_positive
from ..sim.engine import EventEngine
from ..sim.events import PRIORITY_MONITOR

__all__ = [
    "AnomalyAlarm",
    "AnomalyStats",
    "AggregateAnomalyDetector",
]


@dataclass
class AnomalyAlarm:
    """One aggregate-rate alarm."""

    time_s: float
    rate_rps: float
    zscore: float
    offenders: List[int]


@dataclass
class AnomalyStats:
    """Detector history."""

    windows: int = 0
    alarms: List[AnomalyAlarm] = field(default_factory=list)

    @property
    def alarm_count(self) -> int:
        """Number of alarms raised so far."""
        return len(self.alarms)


class AggregateAnomalyDetector:
    """EWMA z-score monitor over the aggregate request rate.

    Parameters
    ----------
    window_s:
        Counting window (one rate sample per window).
    alpha:
        EWMA smoothing factor for mean and variance.
    z_threshold:
        Alarm when ``(rate − mean) / std`` exceeds this.
    warmup_windows:
        Windows used purely for learning before alarms may fire.
    offender_rps:
        Per-source rate above which a source is *attributable* — the
        same kind of threshold a rate-limiting mitigation would need.
    """

    def __init__(
        self,
        window_s: float = 5.0,
        alpha: float = 0.2,
        z_threshold: float = 4.0,
        warmup_windows: int = 6,
        offender_rps: float = 50.0,
    ) -> None:
        check_positive("window_s", window_s)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        check_positive("z_threshold", z_threshold)
        check_positive("offender_rps", offender_rps)
        self.window_s = float(window_s)
        self.alpha = float(alpha)
        self.z_threshold = float(z_threshold)
        self.warmup_windows = int(warmup_windows)
        self.offender_rps = float(offender_rps)

        self._counts: Dict[int, int] = {}
        self._total = 0
        self._mean: Optional[float] = None
        self._var = 0.0
        self.stats = AnomalyStats()
        self._stop: Optional[Callable[[], None]] = None
        self._now: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, engine: EventEngine) -> None:
        """Start windowed evaluation on *engine*."""
        if self._stop is not None:
            raise RuntimeError("detector already attached")
        self._now = lambda: engine.now
        self._stop = engine.every(
            self.window_s, self._evaluate, priority=PRIORITY_MONITOR
        )

    def detach(self) -> None:
        """Stop evaluating."""
        if self._stop is not None:
            self._stop()
            self._stop = None

    def observe(self, source_id: int) -> None:
        """Count one request (call from the ingress path)."""
        self._counts[source_id] = self._counts.get(source_id, 0) + 1
        self._total += 1

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate(self) -> None:
        rate = self._total / self.window_s
        self.stats.windows += 1
        in_warmup = self.stats.windows <= self.warmup_windows
        if self._mean is None:
            self._mean = rate
        else:
            z = self._zscore(rate)
            if not in_warmup and z > self.z_threshold:
                self.stats.alarms.append(
                    AnomalyAlarm(
                        time_s=self._now(),
                        rate_rps=rate,
                        zscore=z,
                        offenders=self.offenders(),
                    )
                )
                # An alarmed window is excluded from the model update:
                # learning the attack as the new normal would silence
                # the detector exactly when it matters.
                self._reset_window()
                return
            # EWMA update (mean first, then variance of the residual).
            residual = rate - self._mean
            self._mean += self.alpha * residual
            self._var = (1 - self.alpha) * (self._var + self.alpha * residual**2)
        self._reset_window()

    def _zscore(self, rate: float) -> float:
        std = math.sqrt(self._var)
        if std < 1e-9:
            # Degenerate variance: any deviation beyond 10% is anomalous.
            return float("inf") if abs(rate - self._mean) > 0.1 * max(
                self._mean, 1.0
            ) else 0.0
        return (rate - self._mean) / std

    def offenders(self) -> List[int]:
        """Sources individually above the attribution threshold."""
        limit = self.offender_rps * self.window_s
        return sorted(s for s, c in self._counts.items() if c > limit)

    def _reset_window(self) -> None:
        self._counts.clear()
        self._total = 0

    @property
    def learned_rate_rps(self) -> Optional[float]:
        """The EWMA baseline rate (None before the first window)."""
        return self._mean

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mean = "?" if self._mean is None else f"{self._mean:.1f}"
        return (
            f"AggregateAnomalyDetector(baseline={mean}rps, "
            f"alarms={self.stats.alarm_count})"
        )
