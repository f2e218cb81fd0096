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
suspect pool is Anti-DOPE's carve-out, the last
:data:`~repro.core.anti_dope.SUSPECT_POOL_SIZE` servers in rack order.
Under a power tree, ``placement="row"`` instead isolates the *last
server of every row*, so each row PDU contains its own quarantine node
and a quarantined flood cannot concentrate whole-row power behind a
single PDU.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence

from .._validation import require
from ..cluster.server import Server
from ..core.anti_dope import SuspectPoolScheme
from ..core.pdf import SuspectPoolPolicy
from ..network.request import Request, RequestOutcome
from ..obs import Recorder
from ..workloads.catalog import ALL_TYPES
from .features import StreamingFeatureExtractor
from .model import OnlineAnomalyModel

__all__ = ["DynamicSuspectPolicy", "OnlineDetectScheme", "PLACEMENTS"]

#: Valid suspect-pool placements (config knob ``detect_placement``).
PLACEMENTS = ("dc", "row")


class DynamicSuspectPolicy(SuspectPoolPolicy):
    """Source-keyed forwarding over a live suspect set.

    The pool plumbing of :class:`~repro.core.pdf.PDFPolicy` with two
    changes: requests are classified by ``request.source_id`` membership
    in a set the scheme replaces every control slot (not by URL), and
    every admitted arrival is tapped into the feature extractor — the
    policy sits exactly where the NLB sees post-firewall traffic, in
    every engine execution mode.
    """

    def __init__(
        self,
        extractor: StreamingFeatureExtractor,
        innocent_pool: Sequence[Server],
        suspect_pool: Sequence[Server],
        now,
        obs: Optional[Recorder] = None,
    ) -> None:
        super().__init__(innocent_pool, suspect_pool, obs)
        self.extractor = extractor
        self.suspect_sources: FrozenSet[int] = frozenset()
        self._now = now

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
        counters = self._obs.counters
        counters.inc("detect.arrivals_observed")
        suspect = request.source_id in self.suspect_sources
        live = self._suspect_live if suspect else self._innocent_live
        pool = live.members()
        if live.failed_over:
            counters.inc("detect.failover_forwarded")
        if suspect:
            self.suspect_forwarded += 1
            counters.inc("detect.suspect_forwarded")
            return self._suspect_rr.select(request, pool)
        self.innocent_forwarded += 1
        counters.inc("detect.innocent_forwarded")
        return self._innocent_rr.select(request, pool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSuspectPolicy(suspect_servers={self.suspect_server_ids}, "
            f"suspect_sources={len(self.suspect_sources)}, "
            f"suspect_fwd={self.suspect_forwarded})"
        )


class OnlineDetectScheme(SuspectPoolScheme):
    """Streaming detection + differentiated power management.

    Shares Anti-DOPE's actuation (:class:`~repro.core.anti_dope
    .SuspectPoolScheme` with its default pool size, queue factor and
    battery ride-through); only the suspect classification differs.
    The detector runs at its component defaults: the
    :class:`StreamingFeatureExtractor` windows decay with ``tau_s`` =
    10 s over the full request catalog, and the
    :class:`OnlineAnomalyModel` warms up on 100 feature vectors and
    flags a source above a score of 1.5 until it falls below 1.0.

    Parameters
    ----------
    placement:
        ``"dc"`` (one pool at the end of rack order) or ``"row"`` (one
        quarantine server per row of the bound power tree; falls back
        to ``"dc"`` in the flat model, which has no rows).
    """

    name = "online-detect"

    def __init__(self, placement: str = "dc") -> None:
        super().__init__()
        require(
            placement in PLACEMENTS,
            f"placement must be one of {PLACEMENTS}, got {placement!r}",
        )
        self.placement = placement
        self.extractor = StreamingFeatureExtractor(
            ALL_TYPES,
            # The same offline-profiling energy hook the static suspect
            # list uses — here it prices completions online instead.
            energy_of=lambda rtype: self.rack.power_model.energy_per_request(
                rtype, 1.0
            ),
        )
        self.model = OnlineAnomalyModel(seed=0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine, rack, budget, battery, slot_s) -> None:
        """Attach infrastructure; carve the pools and tap completions."""
        super().bind(engine, rack, budget, battery, slot_s)
        for server in rack.servers:
            server.completion_sink = self._tee_completion(
                server.completion_sink
            )

    def bind_topology(self, topology) -> None:
        """Overlay the tree; re-carve the pools for row placement.

        The facade asks for the forwarding policy only after this, so
        the NLB always sees the final carve.
        """
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
        self._carve(innocent, suspect)

    def _make_policy(
        self, innocent: Sequence[Server], suspect: Sequence[Server]
    ) -> DynamicSuspectPolicy:
        """The dynamic suspect policy over one pool carve."""
        return DynamicSuspectPolicy(
            self.extractor,
            innocent,
            suspect,
            now=lambda: self.engine.now,
            obs=self.engine.obs,
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
        features, update = self.extractor.features, self.model.update
        suspects = set()
        for source_id in self.extractor.sources():
            if update(source_id, features(source_id, now)):
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
        super().step()

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
