"""Unit tests for the aggregate anomaly detector."""

import pytest

from repro.network.anomaly import AggregateAnomalyDetector


def feed_steady(engine, detector, rate, duration, sources=20, start=0.0):
    """Feed *rate* req/s spread over *sources* ids during the window."""
    gap = 1.0 / rate
    n = int(duration / gap)
    for i in range(n):
        t = start + i * gap
        engine.schedule_at(t, lambda s=i % sources: detector.observe(s))


class TestLearning:
    def test_learns_baseline_rate(self, engine):
        detector = AggregateAnomalyDetector(window_s=5.0)
        detector.attach(engine)
        feed_steady(engine, detector, rate=40.0, duration=60.0)
        engine.run(until=60.0)
        assert detector.learned_rate_rps == pytest.approx(40.0, rel=0.1)

    def test_no_alarms_on_steady_traffic(self, engine):
        detector = AggregateAnomalyDetector(window_s=5.0)
        detector.attach(engine)
        feed_steady(engine, detector, rate=40.0, duration=120.0)
        engine.run(until=120.0)
        assert detector.stats.alarm_count == 0

    def test_warmup_suppresses_early_alarms(self, engine):
        detector = AggregateAnomalyDetector(window_s=5.0, warmup_windows=6)
        detector.attach(engine)
        # Wild swings inside the warmup only.
        feed_steady(engine, detector, rate=200.0, duration=20.0)
        engine.run(until=30.0)
        assert detector.stats.alarm_count == 0


class TestDetectionWithoutAttribution:
    def test_dope_step_raises_aggregate_alarm(self, engine):
        detector = AggregateAnomalyDetector(window_s=5.0, offender_rps=50.0)
        detector.attach(engine)
        feed_steady(engine, detector, rate=40.0, duration=60.0)
        # DOPE onset: +200 rps over 40 agents from t=60.
        feed_steady(
            engine, detector, rate=200.0, duration=30.0, sources=40, start=60.0
        )
        feed_steady(engine, detector, rate=40.0, duration=30.0, start=60.0)
        engine.run(until=90.0)
        assert detector.stats.alarm_count >= 1

    def test_but_no_source_is_attributable(self, engine):
        detector = AggregateAnomalyDetector(window_s=5.0, offender_rps=50.0)
        detector.attach(engine)
        feed_steady(engine, detector, rate=40.0, duration=60.0)
        feed_steady(
            engine, detector, rate=200.0, duration=30.0, sources=40, start=60.0
        )
        engine.run(until=90.0)
        assert detector.stats.alarm_count >= 1
        for alarm in detector.stats.alarms:
            # 200 rps over 40 sources = 5 rps each — nobody crosses 50.
            assert alarm.offenders == []

    def test_single_source_flood_is_attributable(self, engine):
        detector = AggregateAnomalyDetector(window_s=5.0, offender_rps=50.0)
        detector.attach(engine)
        feed_steady(engine, detector, rate=40.0, duration=60.0)
        feed_steady(
            engine, detector, rate=300.0, duration=20.0, sources=1, start=60.0
        )
        engine.run(until=80.0)
        assert detector.stats.alarm_count >= 1
        assert any(alarm.offenders for alarm in detector.stats.alarms)

    def test_alarmed_windows_do_not_poison_baseline(self, engine):
        detector = AggregateAnomalyDetector(window_s=5.0)
        detector.attach(engine)
        feed_steady(engine, detector, rate=40.0, duration=60.0)
        feed_steady(
            engine, detector, rate=300.0, duration=60.0, sources=40, start=60.0
        )
        feed_steady(engine, detector, rate=40.0, duration=60.0, start=60.0)
        engine.run(until=120.0)
        # Despite a minute of attack, the learned baseline stays near
        # the legitimate 40 rps (alarmed windows are excluded).
        assert detector.learned_rate_rps == pytest.approx(40.0, rel=0.2)


class TestLifecycle:
    def test_double_attach_rejected(self, engine):
        detector = AggregateAnomalyDetector()
        detector.attach(engine)
        with pytest.raises(RuntimeError):
            detector.attach(engine)

    def test_detach_stops_windows(self, engine):
        detector = AggregateAnomalyDetector(window_s=1.0)
        detector.attach(engine)
        engine.run(until=3.0)
        detector.detach()
        engine.run(until=10.0)
        assert detector.stats.windows == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            AggregateAnomalyDetector(alpha=0.0)
        with pytest.raises(ValueError):
            AggregateAnomalyDetector(z_threshold=0.0)
