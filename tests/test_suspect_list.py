"""Unit tests for the offline suspect-list profiling."""

import math

import pytest

from repro.core import SuspectList
from repro.workloads import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VOLUME_DOS,
    WORD_COUNT,
)


class TestFromModel:
    def test_paper_classification_at_default_threshold(self, power_model):
        # The attack-capable types (Fig 4a: Colla-Filt, K-means,
        # Word-Count "generate power surges with light traffic rate")
        # are suspect; the light text endpoint and volume floods are not.
        sl = SuspectList.from_model(ALL_TYPES, power_model)
        assert sl.is_suspect(COLLA_FILT.url)
        assert sl.is_suspect(K_MEANS.url)
        assert sl.is_suspect(WORD_COUNT.url)
        assert not sl.is_suspect(TEXT_CONT.url)
        assert not sl.is_suspect(VOLUME_DOS.url)

    def test_threshold_sweep_changes_boundary(self, power_model):
        strict = SuspectList.from_model(ALL_TYPES, power_model, 0.85)
        assert strict.is_suspect(COLLA_FILT.url)
        assert strict.is_suspect(K_MEANS.url)
        assert not strict.is_suspect(WORD_COUNT.url)

    def test_profiles_match_power_model(self, power_model):
        sl = SuspectList.from_model(ALL_TYPES, power_model)
        profile = sl.profile(COLLA_FILT.url)
        assert profile.full_load_power_w == pytest.approx(
            power_model.full_load_power(COLLA_FILT, 1.0)
        )
        assert profile.energy_per_request_j == pytest.approx(
            power_model.energy_per_request(COLLA_FILT, 1.0)
        )

    def test_suspect_and_innocent_partition(self, power_model):
        sl = SuspectList.from_model(ALL_TYPES, power_model)
        assert set(sl.suspect_urls) | set(sl.innocent_urls) == {
            t.url for t in ALL_TYPES
        }
        assert not set(sl.suspect_urls) & set(sl.innocent_urls)
        assert len(sl) == len(ALL_TYPES)

    def test_unknown_url_defaults_innocent(self, power_model):
        sl = SuspectList.from_model(ALL_TYPES, power_model)
        assert not sl.is_suspect("/never/profiled")

    def test_profile_unknown_url_raises(self, power_model):
        sl = SuspectList.from_model(ALL_TYPES, power_model)
        with pytest.raises(KeyError):
            sl.profile("/never/profiled")

    def test_empty_types_rejected(self, power_model):
        with pytest.raises(ValueError):
            SuspectList.from_model([], power_model)

    def test_invalid_threshold_rejected(self, power_model):
        with pytest.raises(ValueError):
            SuspectList.from_model(ALL_TYPES, power_model, threshold_fraction=0.0)


class TestFromMeasurements:
    def test_classifies_by_mean_observed_power(self):
        samples = [
            ("/api/heavy", 95.0),
            ("/api/heavy", 90.0),
            ("/api/light", 45.0),
            ("/api/light", 55.0),
        ]
        sl = SuspectList.from_measurements(samples, nameplate_w=100.0)
        assert sl.is_suspect("/api/heavy")
        assert not sl.is_suspect("/api/light")

    def test_energy_is_nan_for_measured_profiles(self):
        sl = SuspectList.from_measurements([("/x", 80.0)], nameplate_w=100.0)
        assert math.isnan(sl.profile("/x").energy_per_request_j)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            SuspectList.from_measurements([], nameplate_w=100.0)
