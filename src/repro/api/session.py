"""Engine-agnostic curator sessions.

Before this module, callers hard-coded engine classes: experiments built
:class:`~repro.core.online.OnlineRetraSyn`, scale tests built
:class:`~repro.core.sharded.ShardedOnlineRetraSyn`, and deployments built
:class:`~repro.stream.ingest.IngestionService` — three overlapping
surfaces for one curator.  A :class:`CuratorSession` is the one protocol
they all speak now:

``submit_batch(t, reports)``
    Hand the session one timestamp's candidate reports (columnar
    :class:`~repro.stream.reports.ReportBatch` or object pairs).
``advance()``
    Run every collection → update → synthesis round that is ready, in
    timestamp order, returning the per-round
    :class:`~repro.core.online.TimestepResult`\\ s.
``snapshot()``
    Current cells of all live synthetic streams (numpy array).
``stats()``
    JSON-safe counters for monitoring.
``result()``
    Package everything synthesized so far as a
    :class:`~repro.core.retrasyn.SynthesisRun`.
``checkpoint(path)`` / ``close()``
    Persistence and lifecycle.

:func:`create_session` is the factory: it reads a
:class:`~repro.api.specs.SessionSpec` and returns the right engine family
behind the protocol — unsharded, sharded (``sharding.n_shards > 1``), or
the watermarked ingestion front-end (``service.transport="ingest"``).
The HTTP ingress (:mod:`repro.api.http`) serves exactly this protocol
over the wire, so remote and in-process callers are interchangeable.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.api.specs import ServiceSpec, SessionSpec
from repro.core.online import OnlineRetraSyn, TimestepResult
from repro.core.sharded import ShardedOnlineRetraSyn
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry


@runtime_checkable
class CuratorSession(Protocol):
    """The protocol every engine family implements (structural typing)."""

    spec: SessionSpec

    def submit_batch(
        self, t: int, participants, newly_entered=(), quitted=(),
        n_real_active: int = 0,
    ) -> None: ...

    def advance(self) -> list[TimestepResult]: ...

    def snapshot(self) -> np.ndarray: ...

    def stats(self) -> dict: ...

    def result(self, n_timestamps: Optional[int] = None, name: Optional[str] = None): ...

    def checkpoint(self, path=None) -> None: ...

    def close(self) -> None: ...


class _SessionBase:
    """State and behaviour shared by the in-process session flavours."""

    def __init__(self, curator, spec: Optional[SessionSpec] = None) -> None:
        self.curator = curator
        self.spec = (
            spec
            if spec is not None
            else SessionSpec.from_config(curator.config)
        )
        self._closed = False
        self._since_checkpoint = 0
        # The registry lives here, never on the curator: curator
        # checkpoint_state() pickles __dict__ and metrics must not leak
        # into checkpoints. Most series are callbacks over state the
        # engines already keep, so the hot path pays only one histogram
        # observation per round.
        self.metrics = MetricsRegistry()
        self._register_curator_metrics()

    def _register_curator_metrics(self) -> None:
        m, c = self.metrics, self.curator
        self._round_hist = m.histogram(
            "retrasyn_round_seconds",
            "End-to-end latency of one collection-update-synthesis round.",
        )
        m.counter(
            "retrasyn_rounds_total", "Closed timestamps processed."
        ).set_function(lambda: len(c.reporters_per_timestamp))
        m.gauge(
            "retrasyn_live_streams", "Live synthetic trajectory streams."
        ).set_function(lambda: int(c.synthesizer.n_live))
        m.gauge(
            "retrasyn_store_rows",
            "Total rows (live + retired) in the columnar trajectory store.",
        ).set_function(
            lambda: int(getattr(getattr(c, "synthesizer", None), "store").n_total)
            if getattr(getattr(c, "synthesizer", None), "store", None) is not None
            else 0
        )
        phases = m.counter(
            "retrasyn_phase_seconds_total",
            "Cumulative seconds spent per pipeline phase.",
            labelnames=("phase",),
        )
        for phase in getattr(c, "timings", {}):
            phases.labels(phase).set_function(
                lambda p=phase: float(getattr(c, "timings", {}).get(p, 0.0))
            )
        m.counter(
            "retrasyn_privacy_spend_events_total",
            "Per-user budget spends recorded by the privacy ledger(s).",
        ).set_function(
            lambda: int(getattr(c.accountant, "n_spend_events", 0))
            if c.accountant is not None else 0
        )
        m.counter(
            "retrasyn_privacy_refusals_total",
            "Spends refused (strict) or flagged for breaching the w-event "
            "window bound.",
        ).set_function(
            lambda: int(getattr(c.accountant, "n_refusals", 0))
            if c.accountant is not None else 0
        )
        m.gauge(
            "retrasyn_privacy_max_window_spend",
            "Largest any-user any-window budget spend observed so far.",
        ).set_function(
            lambda: float(c.accountant.max_window_spend())
            if c.accountant is not None else 0.0
        )
        pool = getattr(c, "_pool", None)
        if pool is not None:
            shard_gauge = m.gauge(
                "retrasyn_shard_round_seconds",
                "Wall-clock seconds of each distributed shard's last "
                "collection round.",
                labelnames=("shard",),
            )
            for k in range(len(pool)):
                shard_gauge.labels(str(k)).set_function(
                    lambda k=k: float(pool.shard_round_seconds.get(k, 0.0))
                )
            frames = m.counter(
                "retrasyn_shard_frames_total",
                "RSF2 frames exchanged with the shard workers.",
                labelnames=("direction",),
            )
            frames.labels("sent").set_function(lambda: int(pool.frames_sent))
            frames.labels("received").set_function(
                lambda: int(pool.frames_received)
            )
            sbytes = m.counter(
                "retrasyn_shard_bytes_total",
                "On-wire bytes exchanged with the shard workers.",
                labelnames=("direction",),
            )
            sbytes.labels("sent").set_function(lambda: int(pool.bytes_sent))
            sbytes.labels("received").set_function(
                lambda: int(pool.bytes_received)
            )
            # The pool observes each submit/advance round-trip's wall
            # seconds (fused or per-timestamp) into this histogram.
            rt_hist = m.histogram(
                "retrasyn_shard_roundtrip_seconds",
                "Wall-clock seconds of one coordinator-side shard "
                "round-trip (submit or advance, fused or per-timestamp).",
            )
            pool.latency_observer = rt_hist.observe

    # -- shared protocol surface --------------------------------------- #
    def snapshot(self) -> np.ndarray:
        """Current cells of all live synthetic streams."""
        return self.curator.live_snapshot()

    def stats(self) -> dict:
        """JSON-safe monitoring counters."""
        c = self.curator
        out = {
            "n_timestamps": len(c.reporters_per_timestamp),
            "last_t": -1 if c._last_t is None else int(c._last_t),
            "n_reporters": int(sum(c.reporters_per_timestamp)),
            "n_live_synthetic": int(c.synthesizer.n_live),
        }
        if c.accountant is not None:
            out["privacy"] = {
                k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
                for k, v in c.accountant.summary().items()
            }
        return out

    def result(
        self, n_timestamps: Optional[int] = None, name: Optional[str] = None
    ):
        """Everything synthesized so far as a finished SynthesisRun."""
        if n_timestamps is None:
            last_t = self.curator._last_t
            n_timestamps = 0 if last_t is None else last_t + 1
        if name is None:
            name = f"{self.curator.config.label}(session)"
        return self.curator.result(n_timestamps, name=name)

    def checkpoint(self, path=None) -> None:
        """Freeze the curator to ``path`` (default: the spec's path)."""
        from repro.core.persistence import save_checkpoint

        path = path if path is not None else self.spec.service.checkpoint_path
        if path is None:
            raise ConfigurationError(
                "checkpoint() needs a path: pass one or set "
                "ServiceSpec.checkpoint_path"
            )
        save_checkpoint(
            self.curator,
            path,
            spec=self.spec,
            keep=self.spec.service.checkpoint_keep,
        )

    def close(self, *, flush_partial: bool = True) -> None:
        """End of stream: final checkpoint, then release engine resources.

        ``flush_partial=False`` is the graceful-drain flavour: only
        watermark-complete timestamps are processed, so the final
        checkpoint lands on a timestamp boundary and a resumed replay of
        the unprocessed tail is bit-identical to an uninterrupted run.
        """
        if self._closed:
            return
        self._closed = True
        self._drain_on_close(flush_partial)
        if self.spec.service.checkpoint_path is not None:
            self.checkpoint()
        closer = getattr(self.curator, "close", None)
        if closer is not None:
            closer()

    def _drain_on_close(self, flush_partial: bool = True) -> None:
        pass  # overridden by IngestSession

    @property
    def _round_batch(self) -> int:
        """Pipeline depth: timestamps handed to the curator per group."""
        return max(1, int(getattr(self.spec.sharding, "round_batch", 1)))

    def _after_timestep(self, n: int = 1) -> None:
        """Periodic checkpointing shared by both session flavours.

        ``n`` counts the rounds a pipelined group just completed: with
        ``round_batch > 1`` at most one checkpoint is written per group
        boundary (a checkpoint can only freeze inter-round state).
        """
        svc = self.spec.service
        if svc.checkpoint_path is not None and svc.checkpoint_every:
            self._since_checkpoint += n
            if self._since_checkpoint >= svc.checkpoint_every:
                self.checkpoint()
                self._since_checkpoint = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DirectSession(_SessionBase):
    """Synchronous façade over an in-process curator engine.

    ``submit_batch`` stages exactly one timestamp's reports; ``advance``
    drives the staged rounds through
    :meth:`~repro.core.online.OnlineRetraSyn.process_timestep` in order.
    Backs both the unsharded and the hash-sharded collection engines —
    whichever :func:`create_session` routed to.
    """

    def __init__(self, curator, spec: Optional[SessionSpec] = None) -> None:
        super().__init__(curator, spec)
        self._staged: list[tuple] = []

    def _drain_on_close(self, flush_partial: bool = True) -> None:
        # close() means end of stream for every transport: whatever was
        # submitted but not yet advanced is processed, exactly as the
        # ingest session flushes its assembler.  There is no watermark
        # here — every staged batch is complete — so drain processes too.
        self.advance()

    def submit_batch(
        self, t: int, participants, newly_entered=(), quitted=(),
        n_real_active: int = 0,
    ) -> None:
        """Stage one timestamp's candidate reports (processed by advance)."""
        self._staged.append(
            (int(t), participants, newly_entered, quitted, int(n_real_active))
        )

    def advance(self) -> list[TimestepResult]:
        """Process every staged timestamp, in submission order.

        With ``sharding.round_batch > 1`` the staged timestamps are handed
        to the curator in groups of that depth
        (:meth:`~repro.core.online.OnlineRetraSyn.process_timesteps`), so
        the sharded engines can fuse shard round-trips and overlap
        synthesis with the next round's collection.  Depth 1 is today's
        exact per-timestamp path.
        """
        results = []
        staged, self._staged = self._staged, []
        depth = self._round_batch
        if depth == 1:
            for t, participants, entered, quitted, n_active in staged:
                tic = time.perf_counter()
                results.append(
                    self.curator.process_timestep(
                        t,
                        participants=participants,
                        newly_entered=entered,
                        quitted=quitted,
                        n_real_active=n_active,
                    )
                )
                self._round_hist.observe(time.perf_counter() - tic)
                self._after_timestep()
            return results
        for lo in range(0, len(staged), depth):
            group = staged[lo : lo + depth]
            tic = time.perf_counter()
            group_results = self.curator.process_timesteps(group)
            wall = time.perf_counter() - tic
            # Per-round share of the group's wall, so the histogram's
            # count stays one observation per round and its sum stays the
            # total wall-clock.
            for r in group_results:
                results.append(r)
                self._round_hist.observe(wall / max(1, len(group_results)))
            self._after_timestep(len(group_results))
        return results


class IngestSession(_SessionBase):
    """Session over the watermarked ingestion front-end.

    Reports may arrive out of order (within the
    ``ServiceSpec.max_lateness`` bound) and as loose per-user events
    (:meth:`submit_report`) or whole batches; a
    :class:`~repro.stream.ingest.TimestampAssembler` reorders them into
    canonical closed timestamps, and ``advance`` processes everything at
    or below the watermark.  ``close`` flushes the tail of the stream.
    The asyncio :class:`~repro.stream.ingest.IngestionService` is this
    session plus a bounded backpressure queue.
    """

    def __init__(self, curator, spec: Optional[SessionSpec] = None) -> None:
        from repro.stream.ingest import IngestStats, make_assembler

        if spec is None:
            spec = SessionSpec.from_config(
                curator.config, service=ServiceSpec(transport="ingest")
            )
        super().__init__(curator, spec)
        last_t = getattr(curator, "_last_t", None)
        self.assembler = make_assembler(
            curator.space,
            start_t=0 if last_t is None else last_t + 1,
            max_lateness=self.spec.service.max_lateness,
            consumers=self.spec.service.ingest_consumers,
        )
        self.ingest_stats = IngestStats()
        self._register_ingest_metrics()

    def _register_ingest_metrics(self) -> None:
        m, s, asm = self.metrics, self.ingest_stats, self.assembler
        m.counter(
            "retrasyn_ingest_submitted_total",
            "Reports accepted into the watermark assembler.",
        ).set_function(lambda: s.n_submitted)
        m.counter(
            "retrasyn_ingest_processed_total",
            "Reports whose timestamp closed and reached the curator.",
        ).set_function(lambda: s.n_reports_processed)
        m.counter(
            "retrasyn_ingest_late_dropped_total",
            "Reports dropped for arriving beyond the lateness bound.",
        ).set_function(lambda: int(asm.n_late_dropped))
        m.counter(
            "retrasyn_ingest_backpressure_waits_total",
            "Producer waits on the bounded ingestion queue.",
        ).set_function(lambda: s.backpressure_waits)
        m.counter(
            "retrasyn_checkpoints_written_total",
            "Checkpoints written (periodic and final).",
        ).set_function(lambda: s.checkpoints_written)
        m.gauge(
            "retrasyn_ingest_backlog",
            "Reports buffered awaiting their timestamp's close.",
        ).set_function(lambda: int(asm.backlog))
        m.gauge(
            "retrasyn_ingest_backlog_high_water",
            "Largest backlog observed since the session started.",
        ).set_function(lambda: int(asm.backlog_high_water))
        m.gauge(
            "retrasyn_ingest_watermark",
            "Largest timestamp currently safe to close.",
        ).set_function(lambda: int(asm.watermark))
        m.gauge(
            "retrasyn_ingest_watermark_lag",
            "Timestamps seen in the stream but not yet closed.",
        ).set_function(lambda: int(asm.watermark_lag))
        m.gauge(
            "retrasyn_ingest_next_t",
            "Next timestamp the assembler will close.",
        ).set_function(lambda: int(asm.next_t))

    # -- feeding -------------------------------------------------------- #
    def submit_report(self, report) -> None:
        """Buffer one loose :class:`~repro.stream.ingest.UserReport`."""
        self.assembler.add(report)
        self.ingest_stats.n_submitted += 1

    def submit_batch(
        self, t: int, participants, newly_entered=(), quitted=(),
        n_real_active: int = 0,
    ) -> None:
        """Buffer one timestamp's reports.

        ``newly_entered`` / ``quitted`` / ``n_real_active`` are accepted
        for protocol compatibility but derived from the report kinds when
        the timestamp closes — the assembler is the source of truth here.
        """
        from repro.stream.reports import as_report_batch

        batch = as_report_batch(self.curator.space, participants)
        self.assembler.add_batch(t, batch)
        self.ingest_stats.n_submitted += len(batch)

    # -- processing ----------------------------------------------------- #
    def advance(self) -> list[TimestepResult]:
        """Close and process every timestamp at or below the watermark.

        With ``sharding.round_batch > 1`` the closed timestamps are handed
        to the curator in groups of that depth so the sharded engines can
        fuse shard round-trips and overlap synthesis with the next round's
        collection.  Depth 1 keeps the exact per-timestamp path.
        """
        ready = self.assembler.pop_ready()
        depth = self._round_batch
        if depth == 1:
            results = [self._process(c) for c in ready]
        else:
            results = []
            for lo in range(0, len(ready), depth):
                results.extend(self._process_group(ready[lo : lo + depth]))
        self.ingest_stats.n_late_dropped = self.assembler.n_late_dropped
        return results

    def _process_group(self, group) -> list[TimestepResult]:
        tic = time.perf_counter()
        group_results = self.curator.process_timesteps(
            [
                (c.t, c.batch, c.newly_entered, c.quitted, c.n_active)
                for c in group
            ]
        )
        wall = time.perf_counter() - tic
        for closed in group:
            self._round_hist.observe(wall / max(1, len(group_results)))
            self.ingest_stats.n_timestamps += 1
            self.ingest_stats.n_reports_processed += len(closed.batch)
        self._after_timestep(len(group_results))
        return group_results

    def _process(self, closed) -> TimestepResult:
        tic = time.perf_counter()
        result = self.curator.process_timestep(
            closed.t,
            participants=closed.batch,
            newly_entered=closed.newly_entered,
            quitted=closed.quitted,
            n_real_active=closed.n_active,
        )
        self._round_hist.observe(time.perf_counter() - tic)
        self.ingest_stats.n_timestamps += 1
        self.ingest_stats.n_reports_processed += len(closed.batch)
        self._after_timestep()
        return result

    def _drain_on_close(self, flush_partial: bool = True) -> None:
        ready = (
            self.assembler.flush()
            if flush_partial
            else self.assembler.pop_ready()
        )
        for closed in ready:
            self._process(closed)
        self.ingest_stats.n_late_dropped = self.assembler.n_late_dropped

    def checkpoint(self, path=None) -> None:
        super().checkpoint(path)
        self.ingest_stats.checkpoints_written += 1

    def stats(self) -> dict:
        out = super().stats()
        s = self.ingest_stats
        out["ingest"] = {
            "n_submitted": s.n_submitted,
            "n_late_dropped": s.n_late_dropped,
            "n_reports_processed": s.n_reports_processed,
            "backpressure_waits": s.backpressure_waits,
            "checkpoints_written": s.checkpoints_written,
            "watermark": int(self.assembler.watermark),
            "next_t": int(self.assembler.next_t),
            "backlog": int(self.assembler.backlog),
            "backlog_high_water": int(self.assembler.backlog_high_water),
        }
        return out


def create_session(spec, grid, *, lam: Optional[float] = None) -> CuratorSession:
    """Build the curator session described by ``spec``.

    Parameters
    ----------
    spec:
        A :class:`~repro.api.specs.SessionSpec`.  A flat
        :class:`~repro.core.retrasyn.RetraSynConfig` is accepted for
        compatibility (lifted via ``SessionSpec.from_config``) but
        deprecated here — new callers should compose specs.
    grid:
        The discretisation grid shared with reporting users.
    lam:
        Termination restriction factor λ (Eq. 8); overrides
        ``spec.engine.lam``.  One of the two must be set: a session has no
        dataset to derive it from.

    Engine routing: ``sharding.n_shards > 1`` (or
    ``sharding.shard_executor="distributed"``, which promotes shards to
    socket-framed worker services) selects the hash-sharded collection
    engine, otherwise the unsharded one;
    ``service.transport="ingest"`` wraps the curator in the watermarked
    ingestion assembler, ``"direct"`` in the synchronous façade.
    """
    if not isinstance(spec, SessionSpec):
        warnings.warn(
            "passing a flat config to create_session() is deprecated; "
            "build a SessionSpec (e.g. config.to_spec() or "
            "SessionSpec.from_flat(...)) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        spec = SessionSpec.from_config(spec)
    lam = lam if lam is not None else spec.engine.lam
    if lam is None:
        raise ConfigurationError(
            "create_session() needs the termination factor lambda: set "
            "EngineSpec.lam or pass lam="
        )
    config = spec.to_config()
    if (
        spec.sharding.n_shards > 1
        or spec.sharding.shard_executor == "distributed"
    ):
        curator = ShardedOnlineRetraSyn(grid, config, lam=lam)
    else:
        curator = OnlineRetraSyn(grid, config, lam=lam)
    if spec.service.transport == "ingest":
        return IngestSession(curator, spec)
    return DirectSession(curator, spec)


def load_session(
    path,
    spec: Optional[SessionSpec] = None,
    service: Optional[ServiceSpec] = None,
) -> CuratorSession:
    """Resume the session frozen at ``path`` by :meth:`checkpoint`.

    The v3 checkpoint format stores the session spec; ``spec`` replaces
    it wholesale, while ``service`` replaces only the service layer
    (transport, lateness, cadence, binding) and keeps the stored
    privacy/engine/sharding layers — the right tool when a restarted
    deployment passes fresh service flags but must not misdescribe the
    engine the checkpoint actually restores.  Migrated v2 checkpoints
    fall back to lifting the stored flat config.
    """
    import dataclasses

    from repro.core.persistence import load_checkpoint_with_spec

    if spec is not None and service is not None:
        raise ConfigurationError(
            "pass either a whole spec or a service layer to load_session, "
            "not both"
        )
    curator, stored_spec = load_checkpoint_with_spec(path)
    if spec is None:
        spec = stored_spec
    if spec is None:
        spec = SessionSpec.from_config(curator.config)
    if service is not None:
        spec = dataclasses.replace(spec, service=service)
    if spec.service.transport == "ingest":
        return IngestSession(curator, spec)
    return DirectSession(curator, spec)
