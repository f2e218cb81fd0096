"""Unit tests for power-driven forwarding (PDF)."""

import pytest

from repro.core import PDFPolicy, SuspectList, split_pools
from repro.network import Request
from repro.workloads import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    WORD_COUNT,
    TrafficClass,
)


@pytest.fixture
def suspect_list(power_model):
    return SuspectList.from_model(ALL_TYPES, power_model)


def req(rtype):
    return Request(rtype, 0, TrafficClass.NORMAL, 0.0)


class TestSplitPools:
    def test_last_servers_become_suspect_pool(self, rack):
        innocent, suspect = split_pools(rack.servers, 1)
        assert [s.server_id for s in innocent] == [0, 1, 2]
        assert [s.server_id for s in suspect] == [3]

    def test_two_server_suspect_pool(self, rack):
        innocent, suspect = split_pools(rack.servers, 2)
        assert [s.server_id for s in suspect] == [2, 3]

    def test_must_leave_innocent_servers(self, rack):
        with pytest.raises(ValueError):
            split_pools(rack.servers, 4)

    def test_zero_pool_rejected(self, rack):
        with pytest.raises(ValueError):
            split_pools(rack.servers, 0)


class TestRouting:
    def test_suspect_urls_to_suspect_pool(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, *split_pools(rack.servers, 1))
        for rtype in (COLLA_FILT, K_MEANS, WORD_COUNT):
            server = policy.select(req(rtype), rack.servers)
            assert server.server_id == 3

    def test_innocent_urls_to_innocent_pool(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, *split_pools(rack.servers, 1))
        for _ in range(6):
            server = policy.select(req(TEXT_CONT), rack.servers)
            assert server.server_id in {0, 1, 2}

    def test_round_robin_within_pools(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, *split_pools(rack.servers, 2))
        picks = [policy.select(req(COLLA_FILT), rack.servers).server_id for _ in range(4)]
        assert picks == [2, 3, 2, 3]
        picks = [policy.select(req(TEXT_CONT), rack.servers).server_id for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_counters(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, *split_pools(rack.servers, 1))
        policy.select(req(COLLA_FILT), rack.servers)
        policy.select(req(TEXT_CONT), rack.servers)
        policy.select(req(TEXT_CONT), rack.servers)
        assert policy.suspect_forwarded == 1
        assert policy.innocent_forwarded == 2

    def test_unprofiled_url_goes_innocent(self, rack, suspect_list):
        from repro.workloads import RequestType

        new_type = RequestType("new", "/api/new", 0.01, 0.5, 0.5, 0.5)
        policy = PDFPolicy(suspect_list, *split_pools(rack.servers, 1))
        assert policy.select(req(new_type), rack.servers).server_id != 3

    def test_suspect_server_ids(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, *split_pools(rack.servers, 2))
        assert policy.suspect_server_ids == [2, 3]
