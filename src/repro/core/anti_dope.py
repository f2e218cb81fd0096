"""Anti-DOPE: the full framework (paper Section 5, Table 2 row 4).

Anti-DOPE couples the two halves the rest of this package provides:

* **PDF** (:mod:`repro.core.pdf`) on the load-balancer side splits
  traffic by the offline suspect list and isolates high-power requests
  on a dedicated server pool;
* **RPM** (:mod:`repro.core.rpm`) on the power-manager side enforces
  the budget with differentiated DVFS (DPM, Algorithm 1), throttling
  the suspect pool first and using the battery only as a transition
  medium while V/F settings reconfigure.

:class:`SuspectPoolScheme` owns that actuation — the pool carve, the
short suspect queues, RPM and its DPM planner — so the schemes built on
it differ only in how they pick suspects: :class:`AntiDopeScheme` by
offline URL profile, OnlineDetect (:mod:`repro.detect.scheme`) by a
live per-source detector.  Both sit behind the standard
:class:`~repro.power.manager.PowerManagementScheme` interface, so they
are drop-in peers of Capping/Shaving/Token — "orthogonal to prior power
management schemes and requires minute system modification".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .._validation import check_fraction, check_int
from ..cluster.server import Server
from ..power.manager import PowerManagementScheme
from ..workloads.catalog import ALL_TYPES, RequestType
from .pdf import PDFPolicy, SuspectPoolPolicy, split_pools
from .rpm import RequestAwarePowerManager
from .suspect_list import SuspectList

__all__ = [
    "AntiDopeScheme",
    "SuspectPoolScheme",
    "SUSPECT_POOL_SIZE",
    "SUSPECT_QUEUE_FACTOR",
]

#: Servers isolated for suspect traffic (the paper's 4-node mini rack
#: isolates 1).
SUSPECT_POOL_SIZE = 1

#: Backlog bound of suspect-pool servers, as a multiple of their worker
#: count.  This is DPM's request-regulation knob ("regulates the length
#: of throttled requests"): a short suspect queue sheds excess
#: high-power requests instead of letting a flood build an unbounded
#: backlog that legitimate heavy requests would have to wait behind.
SUSPECT_QUEUE_FACTOR = 4.0


class SuspectPoolScheme(PowerManagementScheme):
    """Isolate suspect requests on a server pool that RPM throttles first.

    At :meth:`bind` the last :attr:`suspect_pool_size` servers in rack
    order become the suspect pool; subclasses build the forwarding
    policy over that carve (:meth:`_make_policy`) and may re-carve later
    through :meth:`_carve`.  RPM plans against the scheme's perceived
    power, so an attached (possibly faulty) sensor degrades it too.
    """

    #: Servers in the suspect pool of the default carve.
    suspect_pool_size: int = SUSPECT_POOL_SIZE
    #: False runs RPM without the battery ride-through.
    use_battery_transition: bool = True
    #: Suspect-server backlog per worker; ``None`` keeps the default.
    suspect_queue_factor: Optional[float] = SUSPECT_QUEUE_FACTOR

    def __init__(self) -> None:
        super().__init__()
        self.policy: Optional[SuspectPoolPolicy] = None
        self.rpm: Optional[RequestAwarePowerManager] = None
        self._queue_capped = False

    def bind(self, engine, rack, budget, battery, slot_s) -> None:
        """Attach infrastructure and carve the suspect pool."""
        super().bind(engine, rack, budget, battery, slot_s)
        self._carve(*split_pools(rack.servers, self.suspect_pool_size))

    def _make_policy(
        self, innocent: Sequence[Server], suspect: Sequence[Server]
    ) -> SuspectPoolPolicy:
        """The scheme's forwarding policy over one pool carve."""
        raise NotImplementedError

    def _carve(self, innocent: Sequence[Server], suspect: Sequence[Server]) -> None:
        """(Re)build the forwarding policy and RPM over a pool carve."""
        self.policy = self._make_policy(innocent, suspect)
        self.rpm = RequestAwarePowerManager(
            suspect_pool=suspect,
            innocent_pool=innocent,
            budget=self.budget,
            battery=self.battery if self.use_battery_transition else None,
            slot_s=self.slot_s,
            power_reader=self.current_power,
        )

    def forwarding_policy(self, servers: Sequence[Server]) -> SuspectPoolPolicy:
        """The suspect-aware policy for the NLB.

        The suspect queues are capped here, on the first call, not at
        :meth:`bind`: the facade fetches the policy only after
        :meth:`bind_topology`, so the short queue lands on the *final*
        carve (a re-carve must not leave a stray capped server behind).
        """
        self._require_bound()
        if self.suspect_queue_factor is not None and not self._queue_capped:
            for server in self.policy.suspect_pool:
                cap = int(self.suspect_queue_factor * server.num_workers)
                server.queue_capacity = min(server.queue_capacity, cap)
            self._queue_capped = True
        return self.policy

    def step(self) -> None:
        """One RPM control slot."""
        self._require_bound()
        self.rpm.step(self.engine.now)

    @property
    def suspect_server_ids(self) -> List[int]:
        """Rack ids of the isolated suspect pool."""
        self._require_bound()
        return self.policy.suspect_server_ids


class AntiDopeScheme(SuspectPoolScheme):
    """Request-aware power management (PDF + RPM).

    Parameters
    ----------
    suspect_pool_size:
        Servers isolated for suspect traffic.
    suspect_threshold_fraction:
        Offline-profiling threshold: a URL is suspect when its
        full-load power reaches this fraction of nameplate.
    use_battery_transition:
        When False, RPM runs without the battery ride-through — the
        ablation arm for the "battery as transition medium" design
        choice.
    suspect_queue_factor:
        Backlog bound of suspect-pool servers, as a multiple of their
        worker count (see :data:`SUSPECT_QUEUE_FACTOR`).  ``None``
        leaves the servers' default backlog.
    profiled_types:
        Request types covered by the offline profile (defaults to the
        full catalog).
    suspect_list:
        Pre-built suspect list; overrides offline profiling entirely.
    """

    name = "anti-dope"

    def __init__(
        self,
        suspect_pool_size: int = SUSPECT_POOL_SIZE,
        suspect_threshold_fraction: float = 0.70,
        use_battery_transition: bool = True,
        suspect_queue_factor: Optional[float] = SUSPECT_QUEUE_FACTOR,
        profiled_types: Sequence[RequestType] = ALL_TYPES,
        suspect_list: Optional[SuspectList] = None,
    ) -> None:
        super().__init__()
        check_int("suspect_pool_size", suspect_pool_size, minimum=1)
        check_fraction(
            "suspect_threshold_fraction", suspect_threshold_fraction, inclusive=False
        )
        if suspect_queue_factor is not None and suspect_queue_factor < 1.0:
            raise ValueError(
                f"suspect_queue_factor must be >= 1, got {suspect_queue_factor}"
            )
        self.suspect_pool_size = suspect_pool_size
        self.suspect_threshold_fraction = suspect_threshold_fraction
        self.use_battery_transition = use_battery_transition
        self.suspect_queue_factor = suspect_queue_factor
        self.profiled_types: Tuple[RequestType, ...] = tuple(profiled_types)
        self.suspect_list = suspect_list

    def _make_policy(
        self, innocent: Sequence[Server], suspect: Sequence[Server]
    ) -> PDFPolicy:
        """PDF over the suspect list, profiled offline unless pre-built."""
        if self.suspect_list is None:
            self.suspect_list = SuspectList.from_model(
                self.profiled_types,
                self.rack.power_model,
                threshold_fraction=self.suspect_threshold_fraction,
            )
        return PDFPolicy(self.suspect_list, innocent, suspect, obs=self.engine.obs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pool = self.suspect_server_ids if self.bound else "?"
        return f"AntiDopeScheme(suspect_pool={pool})"
