"""REP004 clean fixture: cluster-legal imports only (kernel + network)."""

from typing import TYPE_CHECKING

from repro.sim.engine import EventEngine
from repro.network.request import Request

if TYPE_CHECKING:  # annotation-only imports are exempt from layering
    from repro.sim.simulation import DataCenterSimulation  # noqa: F401

__all__ = ["EventEngine", "Request"]
