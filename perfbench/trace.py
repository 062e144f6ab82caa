"""Spans around every layer's public callables, recorded from outside.

:func:`install` replaces the callables listed in :data:`TARGETS` — on
their classes, and for module-level functions in every ``repro`` module
that imported them — with wrappers that record a span per call; the
returned :class:`Tracer` puts everything back on :meth:`Tracer.remove`.
Spans are ``(callable, start_ns, end_ns, parent)`` rows kept in memory;
a layer's **self time** is its spans' durations minus the part their
child spans cover, so the layers partition the traced time instead of
double-counting it.

Two things to know when reading the numbers:

* ``sim.events`` (``EventLoop.run``) and ``live.clock`` (the callbacks a
  ``WallClock`` fires) are the dispatchers, so their self time is
  dispatch *plus* every callback body that no other span covers
  (private methods such as ``Sender._capture_tick``). On reference
  workloads the traced pass also attaches the repo's ``LoopProfiler``,
  whose ``component_totals()`` split that remainder by event name.
* Entering and leaving a span costs about a microsecond, spent in the
  parent's interval. It is measured once per install (``overhead_ns``)
  and taken out of the parent's self time, so a layer with many traced
  children is not charged for the tracing itself.
"""

from __future__ import annotations

import sys
from array import array
from importlib import import_module
from time import perf_counter_ns
from typing import Callable, Optional

from perfbench.spec import LAYERS

#: layer -> [(module, class or None, (callable, ...)), ...]
TARGETS = {
    "sim.events": [
        ("repro.sim.events", "EventLoop",
         ("run", "drain", "call_at", "call_later"))],
    "sim.batch": [
        ("repro.sim.batch", "BatchEngine", ("prepare", "advance", "finalize")),
        ("repro.sim.batch", "BatchPipeline",
         ("run_until", "drain_to", "on_frame_encoded", "materialize"))],
    "video.source": [
        ("repro.video.source", "VideoSource", ("next_frame",)),
        ("repro.video.source", "MixedSource", ("next_frame",))],
    "video.codec": [
        ("repro.video.codec.model", "CodecModel", ("encode",)),
        ("repro.video.codec.rate_control", "AbrVbvRateControl",
         ("plan_bytes", "on_encoded")),
        ("repro.video.codec.rate_control", "CbrRateControl",
         ("plan_bytes", "on_encoded")),
        ("repro.video.codec.rate_control", "CqpRateControl",
         ("plan_bytes", "on_encoded"))],
    "core.ace_c": [
        ("repro.core.ace_c", "AceCController",
         ("select_complexity", "on_encoded"))],
    "core.ace_n": [
        ("repro.core.ace_n", "AceNController",
         ("on_feedback", "on_frame_enqueued", "rate_factor"))],
    "core.queue_estimator": [
        ("repro.core.queue_estimator", "QueueEstimator", ("on_feedback",))],
    "transport.cc": [
        ("repro.transport.cc.gcc", "GccController", ("on_feedback",)),
        ("repro.transport.cc.bbr", "BbrController", ("on_feedback",)),
        ("repro.transport.cc.copa", "CopaController", ("on_feedback",)),
        ("repro.transport.cc.delivery_rate", "DeliveryRateController",
         ("on_feedback",))],
    "rtc.sender": [
        ("repro.rtc.sender", "Sender", ("start", "stop", "on_feedback"))],
    "rtc.session": [
        ("repro.rtc.baselines", None, ("build_session",)),
        ("repro.rtc.session", "RtcSession", ("run",)),
        ("repro.analysis.results", "RunResult", ("from_metrics",))],
    "transport.rtp": [
        ("repro.transport.rtp", "Packetizer", ("packetize", "assign_seq"))],
    "transport.pacer": [
        ("repro.transport.pacer.base", "Pacer",
         ("enqueue", "enqueue_retransmission", "enqueue_audio", "on_send",
          "set_pacing_rate")),
        ("repro.transport.pacer.leaky_bucket", "LeakyBucketPacer",
         ("on_send",)),
        ("repro.transport.pacer.token_bucket_pacer", "TokenBucketPacer",
         ("on_send", "set_pacing_rate", "set_bucket_size")),
        ("repro.core.token_bucket", "TokenBucket", ("consume",))],
    "net.path": [
        ("repro.net.path", "NetworkPath", ("send", "send_feedback"))],
    "net.link": [
        ("repro.net.link", "Link", ("send",)),
        ("repro.net.trace", "BandwidthTrace", ("rate_at",))],
    "net.aqm": [
        ("repro.net.aqm", name, ("enqueue", "select_head", "pop_head"))
        for name in ("DropTailQueue", "CoDelDiscipline", "PieDiscipline",
                     "ConfuciusDiscipline")],
    "arena": [
        ("repro.arena.topology", "ArenaPath", ("send",)),
        ("repro.arena.session", "ArenaMetrics", ("fairness",))],
    "transport.receiver": [
        ("repro.transport.receiver", "TransportReceiver",
         ("on_packet", "on_media_chunk", "skip_frame"))],
    "transport.feedback": [
        ("repro.transport.feedback", "FeedbackBuilder",
         ("on_packet", "on_chunk", "build"))],
    "obs": [
        ("repro.obs.recorder", "Telemetry",
         ("record", "frame_stage", "packet_wire")),
        ("repro.obs.burst", "BurstAnalyzer", ("on_packet", "flush")),
        ("repro.obs.timeseries", "SeriesRecorder", ("sample",)),
        ("repro.obs.slo", "SloWatchdog", ("evaluate",))],
    "bench.parallel": [
        ("repro.bench.parallel", "ParallelRunner", ("run",)),
        ("repro.bench.parallel", None, ("make_grid",))],
    "analysis.cache": [
        ("repro.analysis.cache", "ResultCache", ("make_key", "get", "put")),
        ("repro.analysis.results", None,
         ("metrics_to_dict", "metrics_from_dict")),
        ("repro.analysis.cache", None, ("trace_fingerprint",))],
    "live.clock": [
        ("repro.live.clock", "WallClock", ("call_at", "call_later"))],
    "live.transport": [
        ("repro.live.transport", "UdpTransport", ("send", "send_feedback"))],
    "live.wire": [
        ("repro.live.wire", None,
         ("encode_packet", "decode_packet", "encode_feedback",
          "decode_feedback"))],
    "live.impairment": [
        ("repro.live.impairment", "LoopbackImpairment", ("admit",))],
}

#: spans kept in memory; past this only the per-layer sums keep growing.
MAX_SPANS = 3_000_000


class Tracer:
    """Span store plus the bookkeeping that undoes :func:`install`."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        #: callable id -> "layer:Class.method"
        self.callables: list[str] = []
        #: calls per callable id.
        self.callable_calls: list[int] = []
        self.calls = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        self.total_ns = [0] * len(self.layers)
        #: span rows, in completion order.
        self.span_callable = array("H")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        #: cost of one span's entry and exit, charged to no layer.
        self.overhead_ns = 0
        self._stack: list = []
        self._next_id = 0
        self._patched: list = []

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, label: str,
             callback_arg: Optional[int] = None) -> Callable:
        """Wrap ``fn`` so each call records one span under ``layer``.

        ``callback_arg`` names the positional argument that is itself a
        callback to run later (``WallClock.call_later``): it is wrapped
        too, so work the asyncio loop starts has a root span.
        """
        lid = self.layers.index(layer)
        wrapper = self._span_wrapper(fn, lid, self._callable_id(layer, label))
        if callback_arg is not None:
            fired = self._callable_id(layer, label + "[fired]")
            schedule = wrapper
            span_wrapper = self._span_wrapper

            def wrapper(*args, **kwargs):
                if len(args) > callback_arg:
                    args = list(args)
                    args[callback_arg] = span_wrapper(
                        args[callback_arg], lid, fired)
                elif "callback" in kwargs:
                    kwargs["callback"] = span_wrapper(
                        kwargs["callback"], lid, fired)
                return schedule(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _callable_id(self, layer: str, label: str) -> int:
        self.callables.append(f"{layer}:{label}")
        self.callable_calls.append(0)
        return len(self.callables) - 1

    def _span_wrapper(self, fn: Callable, lid: int, cid: int) -> Callable:
        tracer = self
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        callable_calls = self.callable_calls
        ids, parents = self.span_id, self.span_parent
        starts, ends, cids = self.span_start, self.span_end, self.span_callable
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                own = elapsed - frame[1]
                calls[lid] += 1
                callable_calls[cid] += 1
                total_ns[lid] += elapsed
                self_ns[lid] += own if own > 0 else 0
                if stack:
                    stack[-1][1] += elapsed + tracer.overhead_ns
                if len(ids) < MAX_SPANS:
                    cids.append(cid)
                    ids.append(frame[0])
                    parents.append(parent)
                    starts.append(t0)
                    ends.append(t1)

        return wrapper

    def _calibrate(self) -> None:
        """Measure what one span costs its parent (entry + exit)."""
        probe = Tracer()
        inner = probe.wrap(lambda: None, LAYERS[0], "noop")
        outer = probe.wrap(lambda n: [inner() for _ in range(n)] and None,
                           LAYERS[1], "loop")
        n = 20_000
        outer(n)
        bare0 = perf_counter_ns()
        noop = inner.__wrapped__
        for _ in range(n):
            noop()
        bare = perf_counter_ns() - bare0
        loop_total = probe.total_ns[1]
        inner_total = probe.total_ns[0]
        self.overhead_ns = max(0, (loop_total - inner_total - bare) // n)

    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, new) -> None:
        self._patched.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, new)

    def remove(self) -> None:
        """Restore every callable :func:`install` replaced."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def layer_table(self) -> dict:
        """``{layer: {"calls", "self_s", "total_s"}}`` for every layer."""
        return {layer: {"calls": self.calls[i],
                        "self_s": self.self_ns[i] / 1e9,
                        "total_s": self.total_ns[i] / 1e9}
                for i, layer in enumerate(self.layers)}

    def calls_of(self, *labels: str) -> int:
        """Summed calls of callables named ``layer:Class.method``."""
        return sum(n for name, n in zip(self.callables, self.callable_calls)
                   if name in labels)

    def spans(self, limit: Optional[int] = None) -> list:
        """Span rows ``[id, callable, start_ns, end_ns, parent]``, with
        times relative to the first span's start."""
        n = len(self.span_id) if limit is None else min(limit,
                                                         len(self.span_id))
        if not n:
            return []
        origin = min(self.span_start[:n])
        return [[self.span_id[i], self.callables[self.span_callable[i]],
                 self.span_start[i] - origin, self.span_end[i] - origin,
                 self.span_parent[i]] for i in range(n)]


def install() -> Tracer:
    """Wrap every callable in :data:`TARGETS`; undo with ``.remove()``."""
    tracer = Tracer()
    tracer._calibrate()
    for layer, groups in TARGETS.items():
        for module_name, class_name, names in groups:
            module = import_module(module_name)
            if class_name is not None:
                cls = getattr(module, class_name)
                for name in names:
                    _wrap_method(tracer, layer, cls, name)
            else:
                for name in names:
                    _wrap_function(tracer, layer, module, name)
    return tracer


def _wrap_method(tracer: Tracer, layer: str, cls: type, name: str) -> None:
    raw = cls.__dict__[name]
    label = f"{cls.__name__}.{name}"
    callback_arg = 2 if layer == "live.clock" else None
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(tracer.wrap(raw.__func__, layer, label))
    else:
        wrapped = tracer.wrap(raw, layer, label, callback_arg)
    tracer._patch(cls, name, wrapped)


def _wrap_function(tracer: Tracer, layer: str, module, name: str) -> None:
    original = getattr(module, name)
    wrapped = tracer.wrap(original, layer, name)
    # ``from x import f`` leaves a second reference in the importer.
    for holder in list(sys.modules.values()):
        if holder is None or not getattr(holder, "__name__",
                                         "").startswith("repro"):
            continue
        for attr, value in list(vars(holder).items()):
            if value is original:
                tracer._patch(holder, attr, wrapped)
