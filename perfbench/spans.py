"""Span tracing of the simulator's layer boundaries, from outside the package.

A :class:`Tracer` replaces public methods of the simulator's classes with
wrappers that record one span per call: name, start, end, parent span and
run id.  Wrapping happens at class level and before any simulation is
built, because the facade binds methods such as ``nlb.dispatch`` into the
traffic generators during construction; :meth:`Tracer.uninstall` puts the
original functions back.  Spans stay in memory, in flat typed arrays, and
are written out once the workload has ended.

A layer's self time is its spans' duration minus the time its child spans
cover (:func:`self_times`).  The simulator runs single-threaded, so the
children of one span are sequential and never overlap one another.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np


class Boundary(NamedTuple):
    """One wrapped method: ``owner.attr`` recorded as span *name*.

    *kind* is ``"span"`` for a plain span, ``"new_run"`` for a span that
    also starts a new run id (simulation construction), or ``"credit"``
    for the fluid-credit counter, which records no span.
    """

    owner: type
    attr: str
    name: str
    kind: str = "span"


def boundaries() -> Tuple[Boundary, ...]:
    """The layer boundaries the traced run wraps, by ``src/repro`` package."""
    from repro.analysis import DopeRegionAnalyzer
    from repro.cluster import Rack, Server
    from repro.core import DPMPlanner, PDFPolicy, RequestAwarePowerManager
    from repro.detect import (
        DynamicSuspectPolicy,
        OnlineAnomalyModel,
        StreamingFeatureExtractor,
    )
    from repro.metrics import MetricsCollector
    from repro.network import (
        FlowletEcmpFabric,
        NetworkLoadBalancer,
        NullFirewall,
        RateLimitFirewall,
        RoundRobinPolicy,
    )
    from repro.obs import Counters
    from repro.power import PowerHistoryPredictor, PowerManagementScheme, PowerMeter
    from repro.runner import ResultCache
    from repro.sim import DataCenterSimulation, EventEngine

    B = Boundary
    return (
        B(DataCenterSimulation, "__init__", "sim.build", "new_run"),
        B(DataCenterSimulation, "add_normal_traffic", "sim.build"),
        B(DataCenterSimulation, "add_flood", "sim.build"),
        B(DataCenterSimulation, "add_dope_attacker", "sim.build"),
        B(EventEngine, "run", "sim.engine_run"),
        B(EventEngine, "try_advance_fluid", "sim.fluid", "credit"),
        B(NetworkLoadBalancer, "dispatch", "network.dispatch"),
        B(RoundRobinPolicy, "select", "network.select"),
        B(PDFPolicy, "select", "network.select"),
        B(DynamicSuspectPolicy, "select", "network.select"),
        B(FlowletEcmpFabric, "select", "network.select"),
        B(RateLimitFirewall, "admit", "network.firewall_admit"),
        B(NullFirewall, "admit", "network.firewall_admit"),
        B(RequestAwarePowerManager, "step", "core.rpm_step"),
        B(DPMPlanner, "plan", "core.dpm_plan"),
        B(Server, "submit", "cluster.submit"),
        B(Rack, "total_power", "cluster.rack_power"),
        B(Rack, "per_server_power", "cluster.rack_power"),
        B(Rack, "total_power_vector", "cluster.rack_power"),
        B(PowerManagementScheme, "slot_tick", "power.slot_tick"),
        B(PowerMeter, "sample", "power.meter_sample"),
        B(PowerHistoryPredictor, "observe", "power.predictor_observe"),
        B(StreamingFeatureExtractor, "observe_arrival", "detect.observe_arrival"),
        B(StreamingFeatureExtractor, "observe_completion", "detect.observe_completion"),
        B(StreamingFeatureExtractor, "features", "detect.features"),
        B(OnlineAnomalyModel, "update", "detect.model_update"),
        B(MetricsCollector, "sink", "metrics.sink"),
        B(MetricsCollector, "sink_bulk", "metrics.sink"),
        B(Counters, "inc", "obs.counter_inc"),
        B(DopeRegionAnalyzer, "probe", "analysis.probe"),
        B(DopeRegionAnalyzer, "sweep", "runner.sweep"),
        B(ResultCache, "get", "runner.cache_get"),
        B(ResultCache, "put", "runner.cache_put"),
    )


class Spans(NamedTuple):
    """Recorded spans as parallel numpy arrays (one row per call)."""

    names: List[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    run: np.ndarray

    def of(self, name: str) -> np.ndarray:
        """Boolean row mask of the spans called *name*."""
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    Besides spans it keeps every :class:`DataCenterSimulation` built while
    installed (``sims``), so per-layer counts can be read from the
    simulations' own counters, and the number of events the fluid engine
    credited without executing them (``credited``).
    """

    def __init__(self, bounds: Sequence[Boundary]) -> None:
        self.bounds = tuple(bounds)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.stack: List[int] = []
        self.run_id = -1
        self.credited = 0
        self.sims: list = []
        self._originals: List[Tuple[type, str, Callable]] = []

    def install(self) -> None:
        """Replace every boundary method with its recording wrapper."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        for bound in self.bounds:
            original = bound.owner.__dict__[bound.attr]
            self._originals.append((bound.owner, bound.attr, original))
            setattr(bound.owner, bound.attr, self._wrap(original, bound))

    def uninstall(self) -> None:
        """Restore the original methods (in reverse installation order)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, bound: Boundary) -> Callable:
        if bound.kind == "credit":
            tracer = self

            @functools.wraps(fn)
            def credit(engine, time_s, n_events):
                advanced = fn(engine, time_s, n_events)
                if advanced:
                    tracer.credited += n_events
                return advanced

            return credit

        nid = self._name(bound.name)
        starts, ends, parents = self.start, self.end, self.parent
        name_ids, runs, stack = self.name_id, self.run, self.stack
        clock = time.perf_counter
        tracer = self
        new_run = bound.kind == "new_run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_run:
                tracer.run_id += 1
                tracer.sims.append(args[0])
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def spans(self) -> Spans:
        """The recorded spans as numpy arrays."""
        return Spans(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            run=np.frombuffer(self.run, dtype=np.int32).copy(),
        )


def self_times(spans: Spans) -> np.ndarray:
    """Per-span self time: duration minus the part its children cover.

    Each child interval is clipped to its parent's interval before it is
    subtracted, so a child that outlives its parent (impossible for
    nested calls, but representable in the arrays) is charged only for
    the overlap.
    """
    duration = spans.end - spans.start
    covered = np.zeros(len(duration))
    child = spans.parent >= 0
    parent = spans.parent[child]
    overlap = np.minimum(spans.end[child], spans.end[parent]) - np.maximum(
        spans.start[child], spans.start[parent]
    )
    np.add.at(covered, parent, np.maximum(overlap, 0.0))
    return duration - covered


def by_name(spans: Spans, values: np.ndarray) -> Dict[str, float]:
    """Sum *values* (one per span) per span name."""
    totals = np.bincount(
        spans.name_id, weights=values, minlength=len(spans.names)
    )
    return {name: float(totals[i]) for i, name in enumerate(spans.names)}


def save(path, spans: Spans) -> None:
    """Write *spans* to *path* as an uncompressed ``.npz`` archive."""
    np.savez(
        path,
        names=np.array(spans.names),
        name_id=spans.name_id,
        start=spans.start,
        end=spans.end,
        parent=spans.parent,
        run=spans.run,
    )
