"""Per-layer metrics of the traced run: where the wrappers go and what
the recorded spans and counts add up to.

:class:`LayerProbe` installs span wrappers on the public functions of
each ``repro`` layer and a :class:`~spans.DispatchObserver` on every
simulator built while it is installed.  :meth:`LayerProbe.metrics`
reduces the spans to the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any, Dict, Tuple

from spans import DispatchObserver, Patcher, SpanRecorder, layer_of, self_times

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("des.events", "count", "lower"),
    ("des.dispatch_self_s", "s", "lower"),
    ("des.heap_high_water", "count", "lower"),
    ("mac.attempts", "count", "lower"),
    ("mac.busy_polls", "count", "lower"),
    ("mac.attempts_per_frame", "ratio", "lower"),
    ("mac.self_s", "s", "lower"),
    ("mac.retries", "count", "lower"),
    ("mac.failures", "count", "lower"),
    ("mac.queue_drops", "count", "lower"),
    ("phy.frames", "count", "lower"),
    ("phy.transmit_self_s", "s", "lower"),
    ("phy.carrier_sense_s", "s", "lower"),
    ("phy.completion_self_s", "s", "lower"),
    ("phy.fanout", "ratio", "lower"),
    ("phy.useful_rx_frac", "ratio", "higher"),
    ("phy.ras_pages", "count", "lower"),
    ("energy.calls", "count", "lower"),
    ("energy.self_s", "s", "lower"),
    ("mobility.position_calls", "count", "lower"),
    ("mobility.crossings", "count", "lower"),
    ("mobility.self_s", "s", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("protocol.ctrl_per_data", "ratio", "lower"),
    ("protocol.rreq_per_data", "ratio", "lower"),
    ("protocol.rerr_per_fwd_fail", "ratio", "lower"),
    ("protocol.hello_per_host_s", "1/s", "lower"),
    ("traffic.packets", "count", "higher"),
    ("experiments.build_s", "s", "lower"),
    ("experiments.reduce_s", "s", "lower"),
    ("experiments.export_s", "s", "lower"),
    ("experiments.cache_get_s", "s", "lower"),
    ("experiments.cache_put_s", "s", "lower"),
    ("experiments.cache_hit_frac", "ratio", "higher"),
    ("experiments.sweep_overhead_frac", "ratio", "lower"),
    ("serve.queue_wait_frac", "ratio", "lower"),
    ("serve.exec_frac", "ratio", "higher"),
    ("serve.client_overhead_frac", "ratio", "lower"),
    ("serve.requests_per_job", "count", "lower"),
    ("serve.refused", "count", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)

#: Protocol entry points a ``Node`` calls (overrides are wrapped too).
PROTOCOL_HANDLERS = (
    "on_message", "send_data", "on_cell_changed", "on_paged",
    "on_battery_level_change",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """Span wrappers plus the counts read at the same boundaries."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.observer = DispatchObserver(self.recorder)
        self.patcher = Patcher(self.recorder)
        self._lock = threading.Lock()
        self.frames: Counter = Counter()
        self.mac: Counter = Counter()
        self.medium: Counter = Counter()
        self.counters: Counter = Counter()
        self.events = 0
        self.sent = 0
        self.host_seconds = 0.0
        self.heap_high_water = 0
        self.cache_gets = 0
        self.cache_hits = 0
        self.sweep_loop_s = 0.0

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        import repro.api as api
        from repro.des.core import Simulator
        from repro.energy.accounting import BatteryMonitor
        from repro.energy.battery import Battery
        from repro.experiments.runner import result_from_network
        from repro.mac.csma import CsmaMac
        from repro.mobility.base import MobilityModel
        from repro.phy.medium import Medium
        from repro.phy.ras import RasChannel
        from repro.protocols.base import RoutingProtocol
        from repro.serve import JobTable

        p = self.patcher
        p.method(Simulator, "run", "des.loop")
        p.method(Medium, "transmit", "phy.transmit", after=self._on_transmit)
        p.method(Medium, "channel_busy", "phy.channel_busy")
        p.method(RasChannel, "page_host", "phy.page")
        p.method(RasChannel, "page_grid", "phy.page")
        p.method(Battery, "set_draw", "energy.set_draw")
        p.method(BatteryMonitor, "set_draw", "energy.set_draw")
        p.method(MobilityModel, "position", "mobility.position")
        p.method(CsmaMac, "send", "mac.send")
        for attr in PROTOCOL_HANDLERS:
            p.method(RoutingProtocol, attr, "protocol.handler")
        p.function(api.build_network, "experiments.build",
                   after=self._on_build)
        p.function(result_from_network, "experiments.reduce",
                   after=self._on_reduce)
        p.function(api.result_to_dict, "experiments.export")
        p.method(api.ResultCache, "get", "experiments.cache_get",
                 after=self._on_cache_get)
        p.method(api.ResultCache, "put", "experiments.cache_put")
        p.method(api.SweepRunner, "run_points", "experiments.run_points",
                 after=self._on_run_points)
        p.method(JobTable, "submit", "serve.submit")

    def restore(self) -> None:
        self.patcher.restore()

    # -- counts at the wrapped boundaries --------------------------------
    def _on_build(self, network: Any, *args: Any, **kwargs: Any) -> None:
        network.sim.instrument(self.observer)

    def _on_transmit(self, out: Any, medium: Any, sender: Any,
                     payload: Any, *args: Any, **kwargs: Any) -> None:
        from repro.mac.frames import AckFrame
        from repro.net.packet import DataPacket

        if isinstance(payload, AckFrame):
            self.frames["ack"] += 1
        elif isinstance(getattr(payload, "message", None), DataPacket):
            self.frames["data"] += 1
        else:
            self.frames["control"] += 1

    def _on_reduce(self, result: Any, network: Any, config: Any,
                   *args: Any, **kwargs: Any) -> None:
        mac: Counter = Counter()
        for node in network.nodes:
            s = node.mac.stats
            mac["frames"] += s.sent_unicast + s.sent_broadcast
            mac["retries"] += s.retries
            mac["failures"] += s.failures
            mac["queue_drops"] += s.queue_drops
            mac["delivered_up"] += s.delivered_up
        with self._lock:
            self.mac.update(mac)
            self.medium.update(result.medium)
            self.counters.update(result.counters)
            self.events += result.events_executed
            self.sent += result.sent
            self.host_seconds += config.n_hosts * config.sim_time_s
            self.heap_high_water = max(
                self.heap_high_water, network.sim.heap_high_water
            )

    def _on_cache_get(self, out: Any, *args: Any, **kwargs: Any) -> None:
        with self._lock:
            self.cache_gets += 1
            self.cache_hits += out is not None

    def _on_run_points(self, run: Any, runner: Any,
                       *args: Any, **kwargs: Any) -> None:
        loop_s = sum(o.result.wall_time_s for o in run.outcomes if not o.cached)
        with self._lock:
            self.sweep_loop_s += loop_s / max(1, runner.workers)

    # -- reduction -------------------------------------------------------
    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"count", "total_s", "self_s"}}``."""
        t = self.recorder.table()
        selfs = self_times(t["start"], t["end"], t["parent"])
        durs = t["end"] - t["start"]
        out: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.recorder.names):
            mask = t["name"] == nid
            out[name] = {
                "count": float(mask.sum()),
                "total_s": float(durs[mask].sum()),
                "self_s": float(selfs[mask].sum()),
            }
        return out

    def metrics(self, serve: Dict[str, float],
                overheads: Dict[str, float]) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric; ``serve`` and ``overheads``
        carry the ones measured outside the spans."""
        spans = self.span_totals()

        def get(name: str, key: str) -> float:
            return spans.get(name, {}).get(key, 0.0)

        def layer_self(layer: str) -> float:
            return sum(v["self_s"] for k, v in spans.items()
                       if layer_of(k) == layer)

        def mean(name: str) -> float:
            return _ratio(get(name, "total_s"), get(name, "count"))

        by_q = self.observer.by_qualname
        attempts = by_q.get("CsmaMac._attempt", 0)
        frames = self.mac["frames"]
        receptions = (self.medium["frames_delivered"]
                      + self.medium["frames_corrupted"])
        c = self.counters
        loop_total = get("des.loop", "total_s")
        m: Dict[str, float] = {
            "des.events": self.events,
            "des.dispatch_self_s": max(
                0.0, get("des.loop", "self_s") - self.observer.overhead_s
            ),
            "des.heap_high_water": self.heap_high_water,
            "mac.attempts": attempts,
            "mac.busy_polls": max(0, attempts - frames),
            "mac.attempts_per_frame": _ratio(attempts, frames),
            "mac.self_s": layer_self("mac"),
            "mac.retries": self.mac["retries"],
            "mac.failures": self.mac["failures"],
            "mac.queue_drops": self.mac["queue_drops"],
            "phy.frames": get("phy.transmit", "count"),
            "phy.transmit_self_s": get("phy.transmit", "self_s"),
            "phy.carrier_sense_s": get("phy.channel_busy", "self_s"),
            "phy.completion_self_s": get("phy.completion", "self_s"),
            "phy.fanout": _ratio(receptions, self.medium["frames_sent"]),
            "phy.useful_rx_frac": _ratio(self.mac["delivered_up"], receptions),
            "phy.ras_pages": get("phy.page", "count"),
            "energy.calls": get("energy.set_draw", "count"),
            "energy.self_s": layer_self("energy"),
            "mobility.position_calls": get("mobility.position", "count"),
            "mobility.crossings": by_q.get("Node._on_crossing", 0),
            "mobility.self_s": layer_self("mobility"),
            "protocol.self_s": layer_self("protocol"),
            "protocol.ctrl_per_data": _ratio(self.frames["control"], self.sent),
            "protocol.rreq_per_data": _ratio(
                c["rreq_originated"] + c["rreq_forwarded"], self.sent
            ),
            "protocol.rerr_per_fwd_fail": _ratio(
                c["rerr_sent"], c["forward_failures"]
            ),
            "protocol.hello_per_host_s": _ratio(
                c["hello_sent"], self.host_seconds
            ),
            "traffic.packets": self.sent,
            "experiments.build_s": mean("experiments.build"),
            "experiments.reduce_s": mean("experiments.reduce"),
            "experiments.export_s": mean("experiments.export"),
            "experiments.cache_get_s": mean("experiments.cache_get"),
            "experiments.cache_put_s": mean("experiments.cache_put"),
            "experiments.cache_hit_frac": _ratio(
                self.cache_hits, self.cache_gets
            ),
            "experiments.sweep_overhead_frac": (
                1.0 - _ratio(self.sweep_loop_s,
                             get("experiments.run_points", "total_s"))
                if get("experiments.run_points", "count") else 0.0
            ),
            "trace.unattributed_frac": _ratio(
                get("other.dispatch", "self_s"), loop_total
            ),
        }
        m.update(serve)
        m.update(overheads)
        missing = [name for name, _, _ in PER_LAYER if name not in m]
        if missing:
            raise KeyError(f"per-layer metrics not computed: {missing}")
        return {name: float(m[name]) for name, _, _ in PER_LAYER}
