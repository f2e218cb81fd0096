"""PDF — power-driven forwarding (Anti-DOPE step 1, Section 5.1).

PDF lives on the network load balancer.  For every incoming request the
HTTP-process module classifies the access URL against the offline
suspect list, and the URL-based forwarding module redirects suspects to
a dedicated *suspect pool* of backend servers while innocent requests
keep the full remaining pool.  The isolation is what lets step 2 (RPM)
throttle power attacks without collateral damage: when DVFS has to
bite, it bites servers that mostly hold high-power (probably hostile)
requests.

:class:`PDFPolicy` implements the NLB :class:`ForwardingPolicy`
interface, so Anti-DOPE drops into the ingress pipeline exactly where a
round-robin policy would sit — "minute system modification".  Its pool
plumbing lives in :class:`SuspectPoolPolicy`, which OnlineDetect's
source-keyed policy shares.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .._validation import check_int, require
from ..cluster.server import Server
from ..network.load_balancer import HealthyPool, RoundRobinPolicy
from ..network.request import Request
from ..obs import Recorder
from .suspect_list import SuspectList

__all__ = [
    "split_pools",
    "SuspectPoolPolicy",
    "PDFPolicy",
]


def split_pools(
    servers: Sequence[Server], suspect_pool_size: int
) -> tuple:
    """Partition *servers* into (innocent_pool, suspect_pool).

    The *last* ``suspect_pool_size`` servers in rack order form the
    suspect pool; a stable, position-based carve-out so that the power
    manager and the forwarder always agree on which nodes are isolated.
    """
    check_int("suspect_pool_size", suspect_pool_size, minimum=1)
    require(
        suspect_pool_size < len(servers),
        f"suspect pool ({suspect_pool_size}) must leave at least one "
        f"innocent server out of {len(servers)}",
    )
    cut = len(servers) - suspect_pool_size
    return list(servers[:cut]), list(servers[cut:])


class SuspectPoolPolicy:
    """Pool plumbing of a forwarding policy that isolates suspects.

    Holds the two fixed pools, a :class:`HealthyPool` over each (a fully
    crashed pool fails over to the other pool's survivors), one
    round-robin per pool and the per-pool forwarded tallies.  Subclasses
    add the classification and their own ``select``.

    Parameters
    ----------
    innocent_pool, suspect_pool:
        The server carve; both must be non-empty.
    obs:
        Observation context recording per-decision counters; defaults
        to a private recorder (the schemes pass the engine's at bind).
    """

    def __init__(
        self,
        innocent_pool: Sequence[Server],
        suspect_pool: Sequence[Server],
        obs: Optional[Recorder] = None,
    ) -> None:
        require(len(innocent_pool) > 0, "innocent pool must be non-empty")
        require(len(suspect_pool) > 0, "suspect pool must be non-empty")
        self.innocent_pool = list(innocent_pool)
        self.suspect_pool = list(suspect_pool)
        self._innocent_live = HealthyPool(self.innocent_pool, self.suspect_pool)
        self._suspect_live = HealthyPool(self.suspect_pool, self.innocent_pool)
        self._innocent_rr = RoundRobinPolicy()
        self._suspect_rr = RoundRobinPolicy()
        self._obs = obs if obs is not None else Recorder()
        self.suspect_forwarded = 0
        self.innocent_forwarded = 0

    @property
    def suspect_server_ids(self) -> List[int]:
        """Rack ids of the isolated pool (the DPM throttle targets)."""
        return [s.server_id for s in self.suspect_pool]


class PDFPolicy(SuspectPoolPolicy):
    """Suspect-aware forwarding by the offline URL suspect list.

    Parameters
    ----------
    suspect_list:
        Offline URL classification.
    innocent_pool, suspect_pool:
        The server carve (see :func:`split_pools`; the paper's mini rack
        isolates 1 of 4).
    obs:
        As in :class:`SuspectPoolPolicy`.
    """

    def __init__(
        self,
        suspect_list: SuspectList,
        innocent_pool: Sequence[Server],
        suspect_pool: Sequence[Server],
        obs: Optional[Recorder] = None,
    ) -> None:
        super().__init__(innocent_pool, suspect_pool, obs)
        self.suspect_list = suspect_list

    def select(self, request: Request, servers: Sequence[Server]) -> Server:
        """Route by suspect-list classification of the request URL.

        The *servers* argument (the NLB's full pool) is ignored in
        favour of the pools fixed at construction: the carve-out must
        stay consistent with the power manager's view.  Crashed servers
        are skipped; when a pool is entirely dead the request fails over
        to the other pool's survivors (isolation is worth less than
        availability), and the NLB's retry path handles a fully-dead
        rack before this policy ever sees the request.
        """
        counters = self._obs.counters
        suspect = self.suspect_list.is_suspect(request.url)
        live = self._suspect_live if suspect else self._innocent_live
        pool = live.members()
        if live.failed_over:
            counters.inc("network.pdf_failover_forwarded")
        if suspect:
            self.suspect_forwarded += 1
            counters.inc("network.pdf_suspect_forwarded")
            return self._suspect_rr.select(request, pool)
        self.innocent_forwarded += 1
        counters.inc("network.pdf_innocent_forwarded")
        return self._innocent_rr.select(request, pool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PDFPolicy(suspect_pool={self.suspect_server_ids}, "
            f"suspect_fwd={self.suspect_forwarded}, "
            f"innocent_fwd={self.innocent_forwarded})"
        )
