"""The healthy-pool cache: every cached pool equals a fresh health filter.

Routing reads healthy servers through :class:`HealthyPool`, which
re-filters only when the engine's ``health_epoch`` moves.  These tests
drive random ``fail``/``recover``/``set_powered`` sequences over a
16-server rack with the NLB, PDF, online-detect's dynamic policy and
RPM all wired, and check after every step that

* each cached pool equals a fresh ``[s for s in pool if s.healthy]``
  (or the fallback's survivors when the preferred pool is fully down);
* a fully dead preferred pool fails over, and the failover counter
  counts failed-over *requests*, not cache refreshes;
* with no health change in between, the cache returns the same list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.cluster import Rack
from repro.core import PDFPolicy, RequestAwarePowerManager, SuspectList, split_pools
from repro.detect import DynamicSuspectPolicy, StreamingFeatureExtractor
from repro.network import HealthyPool, NetworkLoadBalancer, Request
from repro.power import PowerBudget
from repro.sim import EventEngine
from repro.workloads import ALL_TYPES, COLLA_FILT, TEXT_CONT, TrafficClass

NUM_SERVERS = 16
SUSPECT_POOL = 4
REQUESTS_PER_CHECK = 3

OPS = ("fail", "recover", "power_off", "power_on")


class World:
    """A 16-server rack with every healthy-pool reader wired."""

    def __init__(self) -> None:
        self.engine = EventEngine()
        self.counters = self.engine.obs.counters
        self.rack = Rack(
            self.engine, num_servers=NUM_SERVERS, rng=np.random.default_rng(3)
        )
        servers = self.rack.servers
        self.nlb = NetworkLoadBalancer(servers, obs=self.engine.obs)
        self.pdf = PDFPolicy(
            SuspectList.from_model(ALL_TYPES, self.rack.power_model),
            *split_pools(servers, SUSPECT_POOL),
            obs=self.engine.obs,
        )
        self.detect = DynamicSuspectPolicy(
            StreamingFeatureExtractor(ALL_TYPES),
            self.pdf.innocent_pool,
            self.pdf.suspect_pool,
            now=lambda: self.engine.now,
            obs=self.engine.obs,
        )
        self.detect.set_suspects(frozenset({1}))
        self.rpm = RequestAwarePowerManager(
            self.pdf.suspect_pool,
            self.pdf.innocent_pool,
            budget=PowerBudget(1000.0),
        )

    def apply(self, op: str, index: int) -> None:
        server = self.rack.servers[index]
        if op == "fail":
            server.fail()
        elif op == "recover":
            server.recover()
        else:
            server.set_powered(op == "power_on")

    def pools(self):
        """(cached pool, preferred servers, fallback servers) triples."""
        pdf, detect, rpm = self.pdf, self.detect, self.rpm
        return [
            (self.rack._healthy, self.rack.servers, []),
            (self.nlb._pool, self.nlb.servers, []),
            (pdf._suspect_live, pdf.suspect_pool, pdf.innocent_pool),
            (pdf._innocent_live, pdf.innocent_pool, pdf.suspect_pool),
            (detect._suspect_live, detect.suspect_pool, detect.innocent_pool),
            (detect._innocent_live, detect.innocent_pool, detect.suspect_pool),
            (rpm._suspect_live, rpm.suspect_pool, []),
            (rpm._innocent_live, rpm.innocent_pool, []),
        ]

    def routes(self):
        """(policy, request, preferred, fallback, failover counter) per class."""
        pdf, detect = self.pdf, self.detect
        pdf_failover = "network.pdf_failover_forwarded"
        detect_failover = "detect.failover_forwarded"
        suspect, innocent = pdf.suspect_pool, pdf.innocent_pool
        return [
            (pdf, _request(COLLA_FILT), suspect, innocent, pdf_failover),
            (pdf, _request(TEXT_CONT), innocent, suspect, pdf_failover),
            (detect, _request(TEXT_CONT, 1), suspect, innocent, detect_failover),
            (detect, _request(TEXT_CONT, 0), innocent, suspect, detect_failover),
        ]


def _request(rtype, source_id=0) -> Request:
    return Request(rtype, source_id, TrafficClass.NORMAL, 0.0)


def _fresh(servers):
    return [s for s in servers if s.healthy]


def check_world(world: World) -> None:
    for pool, preferred, fallback in world.pools():
        expected = _fresh(preferred) or _fresh(fallback)
        members = pool.members()
        assert members == expected
        assert pool.failed_over == (not _fresh(preferred))
        # No health change in between: the very same list object.
        assert pool.members() is members
    assert world.rack.healthy_servers() == _fresh(world.rack.servers)
    assert world.rack.num_healthy == len(_fresh(world.rack.servers))
    for policy, request, preferred, fallback, counter in world.routes():
        alive = _fresh(preferred)
        survivors = alive or _fresh(fallback)
        if not survivors:
            continue
        before = world.counters.get(counter)
        for _ in range(REQUESTS_PER_CHECK):
            assert policy.select(request, world.nlb.servers) in survivors
        failed_over = world.counters.get(counter) - before
        assert failed_over == (0 if alive else REQUESTS_PER_CHECK)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, NUM_SERVERS - 1)),
        max_size=40,
    )
)
def test_cached_pools_equal_a_fresh_filter(steps):
    world = World()
    check_world(world)
    for op, index in steps:
        world.apply(op, index)
        check_world(world)


def test_dead_suspect_pool_fails_over_and_counts_requests():
    world = World()
    for server in world.pdf.suspect_pool:
        server.fail()
    check_world(world)
    # The pool refreshed once after the failures; the counter still
    # counts every request: 3 from check_world plus 10 here.
    for _ in range(10):
        assert world.pdf.select(_request(COLLA_FILT), world.nlb.servers) in (
            world.pdf.innocent_pool
        )
    assert world.counters.get("network.pdf_failover_forwarded") == 13


def test_shed_requests_reroute_past_the_dying_server():
    # fail() bumps the epoch before it sheds its queue, so the NLB's
    # re-route already sees the crashed server out of rotation.
    world = World()
    victim = world.rack.servers[0]
    assert victim in world.nlb._pool.members()  # warm the cache
    queued = [_request(TEXT_CONT) for _ in range(victim.num_workers + 3)]
    for request in queued:
        assert victim.submit(request)
    victim.fail(shed_sink=world.nlb.reroute)
    shed = queued[victim.num_workers:]
    assert world.nlb.rerouted == len(shed) and world.nlb.dropped == 0
    assert all(request.server_id != victim.server_id for request in shed)


def test_noop_mutators_do_not_invalidate():
    world = World()
    server = world.rack.servers[0]
    members = world.nlb._pool.members()
    server.recover()  # not failed: no-op
    server.set_powered(True)  # already on: no-op
    assert world.nlb._pool.members() is members
    server.fail()
    server.fail()  # idempotent
    assert server not in world.nlb._pool.members()


def test_rotation_change_goes_through_set_servers():
    world = World()
    world.nlb.set_servers(world.rack.servers[:2])
    assert world.nlb._pool.members() == world.rack.servers[:2]
    world.rack.servers[0].fail()
    assert world.nlb._pool.members() == [world.rack.servers[1]]


def test_pool_members_must_share_an_engine():
    other = Rack(EventEngine(), num_servers=1)
    world = World()
    with pytest.raises(ValueError):
        HealthyPool(world.rack.servers, other.servers)
    with pytest.raises(ValueError):
        HealthyPool([])
