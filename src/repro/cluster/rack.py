"""Rack: the aggregation the power budget is enforced against.

The paper's testbed is a mini rack of four 100 W leaf nodes behind one
switch; its power budget scenarios (Normal/High/Medium/Low-PB) are all
fractions of the rack's total supplied power.  The :class:`Rack` is a
thin aggregate over :class:`~repro.cluster.server.Server` providing the
cluster-level views the power managers and meters need — total power,
total nameplate, per-server level vectors — plus bulk DVFS operations.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from .._validation import check_int, require
from ..network.load_balancer import HealthyPool
from ..sim.engine import EventEngine
from .dvfs import FrequencyLadder
from .power_model import PowerEvalTable, ServerPowerModel
from .server import CompletionSink, Server

__all__ = ["Rack"]


class Rack:
    """A set of identical leaf servers sharing one power feed.

    Parameters
    ----------
    engine:
        Discrete-event engine.
    num_servers:
        Leaf-node count (paper: 4).
    rng:
        Seeded generator; each server gets an independent child stream
        so per-server noise is decorrelated but reproducible.
    power_model, ladder:
        Hardware models shared by all nodes.
    queue_capacity:
        Per-server backlog bound.
    completion_sink:
        Forwarded to every server.
    """

    def __init__(
        self,
        engine: EventEngine,
        num_servers: int = 4,
        rng: Optional[np.random.Generator] = None,
        power_model: Optional[ServerPowerModel] = None,
        ladder: Optional[FrequencyLadder] = None,
        queue_capacity: int = 512,
        completion_sink: Optional[CompletionSink] = None,
        queue_timeout_s: Optional[float] = None,
    ) -> None:
        check_int("num_servers", num_servers, minimum=1)
        self.engine = engine
        self.power_model = power_model or ServerPowerModel()
        self.ladder = ladder or FrequencyLadder()
        # One shared physics table: all servers agree on the type→slot
        # map and share one cache of per-level factor rows.
        self.eval_table = PowerEvalTable(self.power_model, self.ladder)
        base_rng = rng if rng is not None else np.random.default_rng(0)
        seeds = base_rng.integers(0, 2**63 - 1, size=num_servers)
        self.servers: List[Server] = [
            Server(
                server_id=i,
                engine=engine,
                rng=np.random.default_rng(int(seeds[i])),
                power_model=self.power_model,
                ladder=self.ladder,
                queue_capacity=queue_capacity,
                completion_sink=completion_sink,
                queue_timeout_s=queue_timeout_s,
                eval_table=self.eval_table,
            )
            for i in range(num_servers)
        ]
        self._healthy = HealthyPool(self.servers)

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        """Number of leaf nodes."""
        return len(self.servers)

    @property
    def nameplate_w(self) -> float:
        """Total faceplate power of the rack."""
        return self.power_model.nameplate_w * len(self.servers)

    def total_power(self) -> float:
        """Instantaneous rack power draw (watts).

        The left-to-right sum of the per-server cached evaluations.
        """
        return sum(s.current_power() for s in self.servers)

    #: Alias kept because the external benchmark (``perfbench``) binds
    #: its rack-power span to this name.
    total_power_vector = total_power

    def per_server_power(self) -> List[float]:
        """Instantaneous per-server power draws, in rack order.

        The per-element view :meth:`total_power` reduces over; the power
        topology layer slices it into per-subtree (rack PDU / row PDU /
        feed) readings.
        """
        return [s.current_power() for s in self.servers]

    def total_energy_joules(self) -> float:
        """Total energy consumed by all servers so far."""
        return sum(s.energy_joules() for s in self.servers)

    def idle_floor(self) -> float:
        """Rack power with all servers idle at their current levels."""
        return sum(
            s.power_model.idle_power(s.freq_ratio) for s in self.servers
        )

    def levels(self) -> List[int]:
        """Per-server frequency levels (rack order)."""
        return [s.level for s in self.servers]

    def mean_freq_ghz(self) -> float:
        """Average operating frequency across the rack."""
        return float(np.mean([s.frequency_ghz for s in self.servers]))

    def total_in_system(self) -> int:
        """Requests queued or in service anywhere in the rack."""
        return sum(s.in_system for s in self.servers)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def healthy_servers(self) -> List[Server]:
        """Servers currently able to accept traffic (a shared list)."""
        return self._healthy.members()

    @property
    def num_healthy(self) -> int:
        """Count of healthy servers."""
        return len(self._healthy.members())

    # ------------------------------------------------------------------
    # Bulk DVFS operations
    # ------------------------------------------------------------------
    def set_all_levels(self, level: int) -> None:
        """Set every server to the same frequency level."""
        for server in self.servers:
            server.set_level(level)

    def set_levels(self, levels: Sequence[int]) -> None:
        """Set per-server levels from a vector in rack order."""
        require(
            len(levels) == len(self.servers),
            f"expected {len(self.servers)} levels, got {len(levels)}",
        )
        for server, level in zip(self.servers, levels):
            server.set_level(level)

    def step_all(self, steps: int) -> None:
        """Step every server up (positive) or down (negative) the ladder."""
        for server in self.servers:
            if steps >= 0:
                server.step_up(steps)
            else:
                server.step_down(-steps)

    def subset(self, indices: Iterable[int]) -> List[Server]:
        """Servers at the given rack positions (used for pool carve-outs)."""
        servers = []
        for i in indices:
            check_int("index", i, minimum=0)
            if i >= len(self.servers):
                raise IndexError(f"server index {i} out of range")
            servers.append(self.servers[i])
        return servers

    def for_each(self, fn: Callable[[Server], None]) -> None:
        """Apply *fn* to every server (helper for managers)."""
        for server in self.servers:
            fn(server)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Rack({len(self.servers)} servers, "
            f"nameplate={self.nameplate_w:.0f}W, P={self.total_power():.1f}W)"
        )
