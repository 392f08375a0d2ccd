"""Spans around the public calls into each layer of ``repro``, from outside.

The benchmark must not edit ``src/``, so a traced run wraps functions
where the program looks them up: a module-level function is replaced in
every ``repro`` module that imported it by name, a method is replaced on
its class. Each wrapper records one span (name, start, end, parent span,
and the request id or slot its arguments carry) and charges the span's
*self time* -- its duration minus the time its child spans cover -- to
one layer metric. Spans stay in memory; :meth:`Tracer.dump` writes them
out when the run ends. Time no span covers is reported as ``other``.

Wrapping changes no behaviour: every wrapper calls the original with the
same arguments and returns its result, so a traced run commits the same
work as an untraced one, only slower.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: The predicates the non-muteness monitors run on every protocol message.
PREDICATES = (
    "init_message_problems",
    "current_message_problems",
    "next_message_problems",
    "decide_message_problems",
)

#: (module, class or None, attribute, layer self-time metric). The span
#: name is ``module.Class.attribute``; the metric is where its self time
#: goes. Every span maps to exactly one self-time metric, so the self
#: times plus ``other`` add up to the traced wall time.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.net.wire", None, "encode_frame", "net.wire.encode_self_ms"),
    ("repro.net.wire", None, "decode_frame", "net.wire.decode_self_ms"),
    ("repro.net.wire", "FrameAssembler", "feed", "net.wire.decode_self_ms"),
    ("repro.net.transport", "LoopbackHub", "submit", "net.transport.send_self_ms"),
    ("repro.shard.loopback", "LatencyHub", "submit", "net.transport.send_self_ms"),
    ("repro.net.transport", "PeerTransport", "send", "net.transport.send_self_ms"),
    ("repro.net.transport", "LoopbackHub", "_drain", "net.transport.drain_self_ms"),
    ("repro.crypto.encoding", None, "canonical_bytes", "crypto.canonical_self_ms"),
    ("repro.crypto.signatures", "SignatureScheme", "sign", "crypto.signature_self_ms"),
    ("repro.crypto.signatures", "SignatureScheme", "verify", "crypto.signature_self_ms"),
    (
        "repro.crypto.signatures",
        "SignatureScheme",
        "verify_digest",
        "crypto.signature_self_ms",
    ),
    ("repro.crypto.keys", "KeyAuthority", "_mac", "crypto.mac_self_ms"),
    ("repro.core.certificates", "Certificate", "__init__", "core.certificate_self_ms"),
    ("repro.consensus.monitor", "MonitorBank", "admit", "consensus.monitor_admit_self_ms"),
    *(
        ("repro.consensus.certification", None, name, "consensus.predicate_self_ms")
        for name in PREDICATES
    ),
    (
        "repro.consensus.transformed",
        "TransformedConsensusProcess",
        "on_message",
        "consensus.engine_self_ms",
    ),
    *(
        ("repro.detectors.diamond_m", "MutenessDetector", name, "detectors.self_ms")
        for name in ("start", "on_protocol_message", "timeout_of")
    ),
    ("repro.detectors.base", "FailureDetector", "is_suspected", "detectors.self_ms"),
    ("repro.service.replica", "ServiceReplicaProcess", "on_message", "service.deliver_self_ms"),
    ("repro.net.node", "NetNode", "handle_message", "service.deliver_self_ms"),
    ("repro.replication.kvstore", "KeyValueStore", "apply", "replication.apply_self_ms"),
    ("repro.replication.kvstore", "KeyValueStore", "digest", "replication.digest_self_ms"),
    ("repro.sim.scheduler", "Scheduler", "run", "sim.dispatch_self_ms"),
    ("repro.sim.transport", "ReliableTransport", "send", "sim.send_self_ms"),
    ("repro.observability.registry", "MetricsRegistry", "inc", "observability.self_ms"),
    ("repro.observability.registry", "ModuleMetrics", "inc", "observability.self_ms"),
)

#: The simulator's run loop calls each event's callback directly (its
#: ``dispatch_event`` serves only the model checker), so the traced run
#: wraps callbacks as they are queued; their span carries this name.
SIM_EVENT = "repro.sim.events.callback"

#: span name -> self-time metric.
SELF_METRIC: dict[str, str] = {
    f"{module}.{cls + '.' if cls else ''}{attr}": metric
    for module, cls, attr, metric in TARGETS
}
SELF_METRIC[SIM_EVENT] = "sim.dispatch_self_ms"

#: Every self-time metric, in report order, plus the uncovered remainder.
SELF_METRICS: tuple[str, ...] = tuple(dict.fromkeys(SELF_METRIC.values())) + (
    "other.self_ms",
)

ENCODE_FRAME = "repro.net.wire.encode_frame"
CANONICAL = "repro.crypto.encoding.canonical_bytes"
MAC = "repro.crypto.keys.KeyAuthority._mac"
CERTIFICATE = "repro.core.certificates.Certificate.__init__"
REGISTRY_INC = "repro.observability.registry.MetricsRegistry.inc"


def import_all_repro() -> None:
    """Import every ``repro`` module, so each by-name import is patchable.

    A function imported by name into a module loaded *after* patching
    would keep the original, so the tracer loads the whole package first.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _tag(args: tuple) -> Any:
    """The request id or slot a call carries, if one of its arguments has it."""
    for arg in args[1:3]:
        for attr in ("slot", "req_id"):
            value = getattr(arg, attr, None)
            if isinstance(value, int):
                return f"{attr}={value}"
    return None


class Tracer:
    """In-memory spans and per-span aggregates of one process."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        #: (parent index, name, start ns, end ns, tag) by span index; a
        #: parent of -1 is a top-level span or one past the buffer.
        self.spans: list[tuple[int, str, int, int, Any] | None] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: Time covered by top-level spans (the complement is ``other``).
        self.covered_ns = 0
        self.wire_bytes = 0
        self.cert_entries = 0
        self.canonical_outputs: set[int] = set()
        self._stack: list[list[int]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``, keeping its metadata."""
        return functools.wraps(fn)(self._span(name, fn, observe))

    def _span(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns
        tracer = self

        def span(*args: Any, **kwargs: Any) -> Any:
            # A span takes its slot in the buffer when it opens, so a
            # parent is kept whenever any of its children is.
            slot = len(spans)
            if slot < tracer.max_spans:
                spans.append(None)
            else:
                slot = -1
            parent = stack[-1][1] if stack else -1
            frame = [0, slot]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.covered_ns += elapsed
                if slot >= 0:
                    spans[slot] = (parent, name, start, end, _tag(args))
            if observe is not None:
                observe(args, result)
            return result

        return span

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every target in :data:`TARGETS` (idempotent per tracer)."""
        if self._patches:
            return
        import_all_repro()
        observers: dict[str, Callable[[tuple, Any], None]] = {
            ENCODE_FRAME: self._observe_frame,
            CANONICAL: self._observe_canonical,
            CERTIFICATE: self._observe_certificate,
        }
        for module_name, cls, attr, _metric in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name}.{cls + '.' if cls else ''}{attr}"
            if cls is None:
                self._patch_function(module, attr, name, observers.get(name))
            else:
                owner = getattr(module, cls)
                original = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(name, original, observers.get(name)))
        from repro.sim.events import EventQueue

        push = EventQueue.push
        span = self._span

        def traced_push(queue, at, kind, callback, meta=None):
            return push(queue, at, kind, span(SIM_EVENT, callback), meta)

        self._set(EventQueue, "push", traced_push)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(
        self,
        module: Any,
        attr: str,
        name: str,
        observe: Callable[[tuple, Any], None] | None,
    ) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.startswith("repro") and loaded is not None:
                if vars(loaded).get(attr) is original:
                    self._set(loaded, attr, wrapper)

    # -- observers (counts measured where the work happens) ------------------

    def _observe_frame(self, args: tuple, frame: Any) -> None:
        self.wire_bytes += len(frame)

    def _observe_canonical(self, args: tuple, encoded: Any) -> None:
        self.canonical_outputs.add(hash(encoded))

    def _observe_certificate(self, args: tuple, _result: Any) -> None:
        if len(args) > 1:
            self.cert_entries += len(args[1])

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The aggregates so far; subtract two with :func:`delta`."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "covered_ns": self.covered_ns,
            "wire_bytes": self.wire_bytes,
            "cert_entries": self.cert_entries,
            "canonical_unique": len(self.canonical_outputs),
            "clock_ns": time.perf_counter_ns(),
        }

    def reset_unique(self) -> None:
        """Start a fresh distinct-output set (one per measured pass)."""
        self.canonical_outputs.clear()

    def dump(self, path: Path, extra: dict[str, Any] | None = None) -> None:
        """Write the recorded spans as JSON lines, after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            header = {"kind": "header", "spans": len(self.spans), **(extra or {})}
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, span in enumerate(self.spans):
                if span is None:  # still open when the run ended
                    continue
                parent, name, start, end, tag = span
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "tag": tag,
                        }
                    )
                    + "\n"
                )


def delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """``after - before`` of two :meth:`Tracer.snapshot` results.

    ``canonical_unique`` is not subtracted: callers reset the set at the
    start of the window with :meth:`Tracer.reset_unique`.
    """
    return {
        "self_ns": _sub(after["self_ns"], before["self_ns"]),
        "calls": _sub(after["calls"], before["calls"]),
        "covered_ns": after["covered_ns"] - before["covered_ns"],
        "wire_bytes": after["wire_bytes"] - before["wire_bytes"],
        "cert_entries": after["cert_entries"] - before["cert_entries"],
        "canonical_unique": after["canonical_unique"],
        "wall_ns": after["clock_ns"] - before["clock_ns"],
    }


def merge(windows: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several windows (e.g. the processes of one TCP cluster)."""
    total: dict[str, Any] = {
        "self_ns": Counter(),
        "calls": Counter(),
        "covered_ns": 0,
        "wire_bytes": 0,
        "cert_entries": 0,
        "canonical_unique": 0,
        "wall_ns": 0,
    }
    for window in windows:
        total["self_ns"].update(window["self_ns"])
        total["calls"].update(window["calls"])
        for key in ("covered_ns", "wire_bytes", "cert_entries", "canonical_unique", "wall_ns"):
            total[key] += window[key]
    total["self_ns"] = dict(total["self_ns"])
    total["calls"] = dict(total["calls"])
    return total


def _sub(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def self_times_ms(window: dict[str, Any], commits: int) -> dict[str, float]:
    """Self time per commit for every layer metric, plus ``other``.

    The values add up to the window's wall time per commit: spans charge
    their self time to exactly one metric and ``other`` is the wall time
    no top-level span covers.
    """
    per = max(commits, 1) * 1e6
    out = {metric: 0.0 for metric in SELF_METRICS}
    for name, nanos in window["self_ns"].items():
        out[SELF_METRIC[name]] += nanos / per
    out["other.self_ms"] = (window["wall_ns"] - window["covered_ns"]) / per
    return out


def calls_of(window: dict[str, Any], name: str) -> int:
    return window["calls"].get(name, 0)
