"""Per-layer self time, measured by wrapping calls into each layer.

The benchmark's traced run patches the public functions that form each
layer's boundary (see :func:`layer_targets`) with timing wrappers, runs the
workload, and restores the originals.  Spans nest on a per-thread stack,
and a layer is charged its *self* time: a span's duration minus the part
its child spans cover.  So ``advance -> process_timestep -> step ->
spawn_*`` charges each second to exactly one layer, and the self times of
all layers sum to at most the wall time.

The served workload crosses a thread boundary: the HTTP client blocks in
``Client._send`` while the ingress thread runs the server side.  A span
opened while the server thread's stack is empty is parented to the client
span that is in flight (:attr:`Tracer.remote_parent`), so the client's
self time is the transport: request time minus the server-side work.
"""

from __future__ import annotations

import functools
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Tracer:
    """Self-time and counter accumulator shared by all wrappers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: The in-flight client request span, parent of server-thread spans.
        self.remote_parent: Optional[_Frame] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, args, kwargs, remote: bool = False):
        """Run ``fn`` as a span of ``layer``; returns its result."""
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        frame = _Frame()
        stack.append(frame)
        if remote:
            self.remote_parent = frame
        tic = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - tic
            stack.pop()
            if remote:
                self.remote_parent = None
            with self._lock:
                self.self_s[layer] += elapsed - frame.child_s
                if parent is not None:
                    parent.child_s += elapsed

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _wrap(tracer: Tracer, layer: str, fn: Callable, count, remote: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(layer, fn, args, kwargs, remote=remote)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, targets):
    """Patch every ``(owner, name, layer, count, remote)`` target.

    ``owner`` is a class or module that defines ``name`` itself (inherited
    attributes are refused, so restoring never adds a new attribute).  The
    originals are put back when the block exits, also on error.
    """
    saved = []
    try:
        for owner, name, layer, count, remote in targets:
            original = vars(owner).get(name)
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{owner.__name__}.{name} is not a plain function")
            saved.append((owner, name, original))
            setattr(owner, name, _wrap(tracer, layer, original, count, remote))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------- #
# the layer map
# ---------------------------------------------------------------------- #
def _count_spends(tracer, args, kwargs, result) -> None:
    user_ids = args[1] if len(args) > 1 else kwargs["user_ids"]
    tracer.add("ldp.ledger_spends", len(user_ids))


def _count_oue(tracer, args, kwargs, result) -> None:
    values = args[1] if len(args) > 1 else kwargs["values"]
    tracer.add("ldp.oue_reports", len(values))


def _count_dmu(tracer, args, kwargs, result) -> None:
    tracer.add("dmu.selected", result.n_selected)
    tracer.add("dmu.states", result.mask.size)


def _count_round(tracer, args, kwargs, result) -> None:
    tracer.add("core.rounds", 1)
    tracer.peak("core.live_streams_max", result.n_live_synthetic)


def _count_send(tracer, args, kwargs, result) -> None:
    body = args[3] if len(args) > 3 else kwargs["body"]
    tracer.add("api.requests", 1)
    tracer.add("api.bytes_sent", len(body))


def layer_targets() -> list[tuple]:
    """Every wrapped boundary: ``(owner, name, layer, count, remote)``."""
    from repro.api import schema
    from repro.api.client import Client
    from repro.api.session import IngestSession
    from repro.core.dmu import DMUSelector
    from repro.core.fast_synthesis import VectorizedSynthesizer
    from repro.core.mobility_model import GlobalMobilityModel
    from repro.core.online import OnlineRetraSyn
    from repro.core.synthesis import Synthesizer
    from repro.datasets import tdrive
    from repro.ldp.accountant import ColumnarPrivacyAccountant, PrivacyAccountant
    from repro.ldp.oue import OptimizedUnaryEncoding
    from repro.metrics import registry
    from repro.stream.reports import ColumnarStreamView
    from repro.stream.user_tracker import UserTracker

    targets = [
        (tdrive, "make_tdrive", "datasets.make_tdrive_s", None, False),
        (ColumnarStreamView, "__init__", "stream.view_build_s", None, False),
        (OnlineRetraSyn, "result", "core.result_s", None, False),
        (OnlineRetraSyn, "process_timestep", "core.round_s", _count_round, False),
        (DMUSelector, "select", "core.dmu_s", _count_dmu, False),
        (GlobalMobilityModel, "set_all", "core.model_update_s", None, False),
        (GlobalMobilityModel, "update_selected", "core.model_update_s", None, False),
        (ColumnarPrivacyAccountant, "spend_many", "ldp.ledger_s", _count_spends, False),
        (PrivacyAccountant, "spend_many", "ldp.ledger_s", _count_spends, False),
        (OptimizedUnaryEncoding, "simulate_ones", "ldp.oue_s", _count_oue, False),
        (OptimizedUnaryEncoding, "debias", "ldp.oue_s", None, False),
        (IngestSession, "submit_batch", "stream.ingest_submit_s", None, False),
        (IngestSession, "advance", "api.advance_s", None, False),
        (Client, "_send", "api.transport_s", _count_send, True),
    ]
    for cls in (Synthesizer, VectorizedSynthesizer):
        for name in ("step", "spawn_from_entering", "spawn_uniform"):
            targets.append((cls, name, "core.synthesis_s", None, False))
    for name in ("register", "recycle", "active_mask", "mark_reported"):
        targets.append((UserTracker, name, "stream.tracker_s", None, False))
    for name in ("report_batch_message", "dump_frame", "dumps", "dumps_any"):
        targets.append((schema, name, "api.schema_encode_s", None, False))
    for name in ("load_frame", "loads", "loads_any", "parse_report_batch"):
        targets.append((schema, name, "api.schema_decode_s", None, False))
    for name in registry.ALL_METRICS:
        targets.append((registry, name, f"metrics.{name}_s", None, False))
    return targets
