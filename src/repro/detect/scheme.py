"""OnlineDetect — the fifth Table-2 scheme (streaming Anti-DOPE).

Anti-DOPE's forwarding half classifies requests by an *offline* URL
suspect list; an adaptive attacker that shifts its mix, or a deployment
whose profile has drifted, slips straight past it.  OnlineDetect keeps
the same actuation machinery — a dedicated suspect server pool fed by
the NLB, throttled first by the differentiated power manager (RPM) —
but replaces the static classification with a live inference pipeline:

    arrivals + completions → :class:`StreamingFeatureExtractor`
        → :class:`OnlineAnomalyModel` (per control slot)
            → dynamic *source* suspect set
                → :class:`DynamicSuspectPolicy` (NLB forwarding)

The unit of suspicion moves from URL to **source identity**: the
detector quarantines the agents behaving like a power flood, whatever
they happen to request, which is exactly the gap the probe-and-adjust
attacker exploits against the static list.

Topology placement: in the flat model (and ``placement="dc"``) the
suspect pool is the last ``suspect_pool_size`` servers in rack order,
matching Anti-DOPE's carve-out.  Under a power tree,
``placement="row"`` instead isolates the *last server of every row*, so
each row PDU contains its own quarantine node and a quarantined flood
cannot concentrate whole-row power behind a single PDU.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

from .._validation import check_fraction, check_int, check_positive, require
from ..cluster.server import Server
from ..core.dpm import DPMPlanner
from ..core.pdf import split_pools
from ..core.rpm import RequestAwarePowerManager
from ..network.load_balancer import RoundRobinPolicy
from ..network.request import Request, RequestOutcome
from ..obs import Recorder
from ..power.manager import PowerManagementScheme
from ..workloads.catalog import ALL_TYPES, RequestType
from .features import StreamingFeatureExtractor
from .model import OnlineAnomalyModel

__all__ = ["DynamicSuspectPolicy", "OnlineDetectScheme", "PLACEMENTS"]

#: Valid suspect-pool placements (config knob ``detect_placement``).
PLACEMENTS = ("dc", "row")


class DynamicSuspectPolicy:
    """Source-keyed forwarding over a live suspect set.

    The shape of :class:`~repro.core.pdf.PDFPolicy` with two changes:
    requests are classified by ``request.source_id`` membership in a
    set the scheme replaces every control slot (not by URL), and every
    admitted arrival is tapped into the feature extractor — the policy
    sits exactly where the NLB sees post-firewall traffic, in every
    engine execution mode.
    """

    def __init__(
        self,
        extractor: StreamingFeatureExtractor,
        innocent_pool: Sequence[Server],
        suspect_pool: Sequence[Server],
        now,
        obs: Optional[Recorder] = None,
    ) -> None:
        require(len(innocent_pool) > 0, "innocent pool must be non-empty")
        require(len(suspect_pool) > 0, "suspect pool must be non-empty")
        self.extractor = extractor
        self.innocent_pool = list(innocent_pool)
        self.suspect_pool = list(suspect_pool)
        self.suspect_sources: FrozenSet[int] = frozenset()
        self._now = now
        self._innocent_rr = RoundRobinPolicy()
        self._suspect_rr = RoundRobinPolicy()
        self._obs = obs if obs is not None else Recorder()
        self.suspect_forwarded = 0
        self.innocent_forwarded = 0

    def set_suspects(self, sources: FrozenSet[int]) -> None:
        """Replace the quarantined source set (scheme-driven, per slot)."""
        self.suspect_sources = frozenset(sources)

    def select(self, request: Request, servers: Sequence[Server]) -> Server:
        """Tap the arrival, then route by live source classification.

        Like PDF, the NLB's *servers* argument is ignored in favour of
        the pools fixed at construction, crashed servers are skipped,
        and a fully-dead pool fails over to the other pool's survivors.
        """
        self.extractor.observe_arrival(
            request.source_id, request.rtype, self._now()
        )
        self._obs.counters.inc("detect.arrivals_observed")
        if request.source_id in self.suspect_sources:
            pool = self._alive(self.suspect_pool, self.innocent_pool)
            self.suspect_forwarded += 1
            self._obs.counters.inc("detect.suspect_forwarded")
            return self._suspect_rr.select(request, pool)
        pool = self._alive(self.innocent_pool, self.suspect_pool)
        self.innocent_forwarded += 1
        self._obs.counters.inc("detect.innocent_forwarded")
        return self._innocent_rr.select(request, pool)

    def _alive(
        self, preferred: Sequence[Server], fallback: Sequence[Server]
    ) -> Sequence[Server]:
        if all(s.healthy for s in preferred):
            return preferred
        alive = [s for s in preferred if s.healthy]
        if alive:
            return alive
        self._obs.counters.inc("detect.failover_forwarded")
        return [s for s in fallback if s.healthy]

    @property
    def suspect_server_ids(self) -> List[int]:
        """Rack ids of the quarantine pool (the RPM throttle targets)."""
        return [s.server_id for s in self.suspect_pool]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSuspectPolicy(suspect_servers={self.suspect_server_ids}, "
            f"suspect_sources={len(self.suspect_sources)}, "
            f"suspect_fwd={self.suspect_forwarded})"
        )


class OnlineDetectScheme(PowerManagementScheme):
    """Streaming detection + differentiated power management.

    Parameters
    ----------
    suspect_pool_size:
        Servers isolated for quarantined traffic in ``"dc"`` placement
        (``"row"`` placement isolates one server per row instead).
    tau_s:
        Decay time constant of the feature windows.
    warmup_observations:
        Feature vectors the scorer absorbs before flagging anything.
    enter_threshold / exit_threshold:
        Hysteresis band on the anomaly score.
    placement:
        ``"dc"`` (one pool at the end of rack order) or ``"row"`` (one
        quarantine server per row of the bound power tree; falls back
        to ``"dc"`` in the flat model, which has no rows).
    use_battery_transition / suspect_queue_factor / hysteresis:
        As in :class:`~repro.core.anti_dope.AntiDopeScheme` — the RPM
        half is shared machinery.
    profiled_types:
        Type universe of the entropy feature and energy attribution.
    """

    name = "online-detect"

    def __init__(
        self,
        suspect_pool_size: int = 1,
        tau_s: float = 10.0,
        warmup_observations: int = 100,
        enter_threshold: float = 1.5,
        exit_threshold: float = 1.0,
        placement: str = "dc",
        use_battery_transition: bool = True,
        suspect_queue_factor: Optional[float] = 4.0,
        hysteresis: float = 0.02,
        profiled_types: Sequence[RequestType] = ALL_TYPES,
    ) -> None:
        super().__init__()
        check_int("suspect_pool_size", suspect_pool_size, minimum=1)
        check_positive("tau_s", tau_s)
        check_fraction("hysteresis", hysteresis)
        require(
            placement in PLACEMENTS,
            f"placement must be one of {PLACEMENTS}, got {placement!r}",
        )
        if suspect_queue_factor is not None and suspect_queue_factor < 1.0:
            raise ValueError(
                f"suspect_queue_factor must be >= 1, got {suspect_queue_factor}"
            )
        self.suspect_pool_size = suspect_pool_size
        self.tau_s = float(tau_s)
        self.warmup_observations = warmup_observations
        self.enter_threshold = float(enter_threshold)
        self.exit_threshold = float(exit_threshold)
        self.placement = placement
        self.use_battery_transition = use_battery_transition
        self.suspect_queue_factor = suspect_queue_factor
        self.dpm_hysteresis = hysteresis
        self.profiled_types = tuple(profiled_types)
        self.extractor: Optional[StreamingFeatureExtractor] = None
        self.model: Optional[OnlineAnomalyModel] = None
        self.policy: Optional[DynamicSuspectPolicy] = None
        self.rpm: Optional[RequestAwarePowerManager] = None
        self._queue_capped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine, rack, budget, battery, slot_s) -> None:
        """Attach infrastructure; build the pipeline over the flat carve."""
        super().bind(engine, rack, budget, battery, slot_s)
        self.extractor = StreamingFeatureExtractor(
            self.profiled_types,
            tau_s=self.tau_s,
            # The same offline-profiling energy hook the static suspect
            # list uses — here it prices completions online instead.
            energy_of=lambda rtype: rack.power_model.energy_per_request(
                rtype, 1.0
            ),
        )
        self.model = OnlineAnomalyModel(
            seed=0,
            warmup_observations=self.warmup_observations,
            enter_threshold=self.enter_threshold,
            exit_threshold=self.exit_threshold,
        )
        innocent, suspect = split_pools(rack.servers, self.suspect_pool_size)
        self._build_pools(innocent, suspect)
        for server in rack.servers:
            server.completion_sink = self._tee_completion(
                server.completion_sink
            )

    def bind_topology(self, topology) -> None:
        """Overlay the tree; re-carve the pools for row placement."""
        super().bind_topology(topology)
        if self.placement != "row":
            return
        rows = [
            node
            for node in topology.nodes.values()
            if node.kind == "row"
        ]
        require(len(rows) > 0, "row placement needs a tree with row nodes")
        suspect_ids = {
            self.rack.servers[row.stop - 1].server_id
            for row in rows
        }
        suspect = [
            s for s in self.rack.servers if s.server_id in suspect_ids
        ]
        innocent = [
            s for s in self.rack.servers if s.server_id not in suspect_ids
        ]
        require(
            len(innocent) > 0,
            "row placement must leave at least one innocent server",
        )
        self._build_pools(innocent, suspect)

    def _build_pools(
        self, innocent: Sequence[Server], suspect: Sequence[Server]
    ) -> None:
        """(Re)build the forwarding policy and RPM over a pool carve.

        Called once at :meth:`bind` and possibly again at
        :meth:`bind_topology` — the simulation facade asks for the
        forwarding policy only after both, so the NLB always sees the
        final carve.
        """
        self.policy = DynamicSuspectPolicy(
            self.extractor,
            innocent,
            suspect,
            now=lambda: self.engine.now,
            obs=self.engine.obs,
        )
        self.rpm = RequestAwarePowerManager(
            suspect_pool=self.policy.suspect_pool,
            innocent_pool=self.policy.innocent_pool,
            budget=self.budget,
            battery=self.battery if self.use_battery_transition else None,
            planner=DPMPlanner(self.rack.ladder.max_level, self.dpm_hysteresis),
            slot_s=self.slot_s,
            # Plan against perceived power so an attached (possibly
            # faulty) sensor degrades the controller too.
            power_reader=self.current_power,
        )

    def _tee_completion(self, original):
        """Wrap a server's completion sink with the attribution tap.

        Completion sinks fire per request; the fluid path only
        bulk-absorbs firewall drops, which never reach a server — so the
        tap is safe under fluid integration too.
        """

        def tee(request, outcome, now):
            if outcome is RequestOutcome.COMPLETED:
                self.extractor.observe_completion(
                    request.source_id, request.rtype, now
                )
                self.engine.obs.counters.inc("detect.completions_observed")
            if original is not None:
                original(request, outcome, now)

        return tee

    def forwarding_policy(self, servers: Sequence[Server]) -> DynamicSuspectPolicy:
        """The dynamic suspect policy for the NLB.

        Queue capping happens here, not in :meth:`bind`: the facade
        fetches the policy only after :meth:`bind_topology`, so the
        short quarantine queue lands on the *final* pool carve (a
        ``"row"`` re-carve must not leave a stray capped server behind).
        """
        self._require_bound()
        if self.suspect_queue_factor is not None and not self._queue_capped:
            for server in self.policy.suspect_pool:
                cap = int(self.suspect_queue_factor * server.num_workers)
                server.queue_capacity = min(server.queue_capacity, cap)
            self._queue_capped = True
        return self.policy

    # ------------------------------------------------------------------
    # Control slot
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Calibrate, score every live source, re-carve the suspect set,
        then run one RPM slot against the updated pools."""
        self._require_bound()
        now = self.engine.now
        counters = self.engine.obs.counters
        self._calibrate(counters)
        suspects = set()
        for source_id in self.extractor.sources():
            feats = self.extractor.features(source_id, now)
            verdict = self.model.update(source_id, feats)
            if verdict:
                suspects.add(source_id)
        previous = self.policy.suspect_sources
        entered = len(suspects - previous)
        exited = len(previous - suspects)
        if entered:
            counters.inc("detect.quarantine_enters", entered)
        if exited:
            counters.inc("detect.quarantine_exits", exited)
        if not self.model.warmed_up:
            counters.inc("detect.warmup_slots")
        self.policy.set_suspects(frozenset(suspects))
        self.rpm.step(now)

    def _calibrate(self, counters) -> None:
        """Derive the power-attribution gain from the sensing path.

        ``current_power()`` walks the bounded-staleness ladder (exact →
        sensed → last-known-good → worst-case nameplate), so the gain
        inherits exactly the degradation the chaos layer injects; the
        extractor clamps it, keeping scores finite under a blind meter.
        """
        modelled = self.rack.total_power()
        if modelled <= 0.0:
            return
        gain = self.current_power() / modelled
        self.extractor.set_calibration(gain)
        if self.extractor.gain_clamped:
            counters.inc("detect.calibration_clamped")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def suspect_sources(self) -> FrozenSet[int]:
        """Source ids currently quarantined by the detector."""
        self._require_bound()
        return self.policy.suspect_sources

    @property
    def suspect_server_ids(self) -> List[int]:
        """Rack ids of the quarantine server pool."""
        self._require_bound()
        return self.policy.suspect_server_ids

    def source_scores(self) -> Dict[int, float]:
        """Last anomaly score per source (detector audit trail)."""
        self._require_bound()
        return dict(sorted(self.model.last_scores.items()))

    def report(self) -> Dict[str, object]:
        """JSON-ready detector state (see ``analysis.export``)."""
        self._require_bound()
        return {
            "scheme": self.name,
            "placement": self.placement,
            "suspect_servers": self.suspect_server_ids,
            "suspect_sources": sorted(self.policy.suspect_sources),
            "source_scores": {
                str(sid): score
                for sid, score in sorted(self.model.last_scores.items())
            },
            "observations": self.model.observations,
            "warmed_up": self.model.warmed_up,
            "calibration_gain": self.extractor.calibration_gain,
            "model": self.model.fingerprint(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.bound:
            return "OnlineDetectScheme(unbound)"
        return (
            f"OnlineDetectScheme(placement={self.placement!r}, "
            f"suspect_servers={self.suspect_server_ids}, "
            f"quarantined={len(self.policy.suspect_sources)})"
        )
