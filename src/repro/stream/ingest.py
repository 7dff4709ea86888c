"""Async ingestion front-end: out-of-order reports → per-timestamp batches.

The batch pipeline replays a finished dataset, but a *deployed* curator is
a service: users emit perturbation-ready reports continuously, slightly out
of order, and the server must close each timestamp, aggregate, update the
model and synthesize before moving on.  This module is that front door:

* :class:`UserReport` — one user's report for one timestamp, either an
  explicit :class:`~repro.stream.events.TransitionState` or a pre-encoded
  ``(state_idx, kind)`` pair (the fast path: encoding happens user-side).
* :class:`TimestampAssembler` — pure, sans-IO reordering core.  Buffers
  reports per timestamp, advances a *watermark* ``max_seen_t −
  max_lateness`` and closes every timestamp at or below it, emitting
  columnar :class:`~repro.stream.reports.ReportBatch`es in strict
  timestamp order.  Reports for an already-closed timestamp are dropped
  and counted (the usual streaming late-data policy).  Closed batches are
  sorted by user id, giving the service a canonical row order that is
  independent of arrival order — so a fixed seed yields the same synthetic
  stream no matter how the network shuffled the reports.
* :class:`MultiConsumerAssembler` — the multi-feeder variant: buffering
  is hash-partitioned by user id behind per-partition locks, so parallel
  producers no longer serialize behind one buffer; closed batches stay
  bit-identical to the single-consumer reference (the canonical uid sort
  erases partitioning from the output).  ``ServiceSpec.ingest_consumers``
  selects it.
* :class:`IngestionService` — the asyncio event loop around the assembler:
  a bounded :class:`asyncio.Queue` provides backpressure (``submit``
  suspends the producer when the curator falls behind), a single consumer
  drains it into the assembler and drives ``curator.process_timestep`` for
  every closed timestamp, optionally checkpointing every N timestamps via
  :func:`repro.core.persistence.save_checkpoint`.
* :func:`ingest_events` — synchronous convenience driver used by the CLI
  (``repro serve``), tests and benchmarks.

The curator's round is CPU-bound and runs inline on the consumer task;
the event loop's job here is flow control, not parallelism — collection
parallelism lives in :class:`~repro.core.distributed.ShardSocketPool`.  The
closed batches' ``user_ids`` arrays feed the curator's columnar privacy
accountant directly (no per-uid conversion), and checkpoints written here
carry the full accounting plane — slot table and spend ring buffer — so a
resumed service keeps enforcing the same w-event ledger.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass
from typing import AsyncIterator, Iterable, Iterator, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stream.events import TransitionState
from repro.stream.reports import (
    KIND_ENTER,
    KIND_MOVE,
    KIND_OF_STATE,
    KIND_QUIT,
    ReportBatch,
    shard_of_array,
)


@dataclass(frozen=True, slots=True)
class UserReport:
    """One user's report for one timestamp.

    Either ``state`` is a :class:`TransitionState` (encoded on arrival) or
    ``state_idx``/``kind`` carry the already-encoded columnar form.
    """

    user_id: int
    t: int
    state: Optional[TransitionState] = None
    state_idx: int = -1
    kind: int = -1

    @staticmethod
    def encoded(user_id: int, t: int, state_idx: int, kind: int) -> "UserReport":
        return UserReport(user_id, t, None, int(state_idx), int(kind))


@dataclass(frozen=True)
class ClosedTimestamp:
    """Everything the curator needs for one closed collection round."""

    t: int
    batch: ReportBatch
    newly_entered: np.ndarray
    quitted: np.ndarray
    n_active: int


@dataclass
class IngestStats:
    """Counters the service exposes for monitoring."""

    n_submitted: int = 0
    n_late_dropped: int = 0
    n_timestamps: int = 0
    n_reports_processed: int = 0
    backpressure_waits: int = 0
    checkpoints_written: int = 0


class TimestampAssembler:
    """Reorders an out-of-order report stream into closed timestamps.

    Parameters
    ----------
    space:
        Transition-state space used to encode object-form reports; also
        decides whether enter/quit states are encodable (NoEQ spaces keep
        them as ``state_idx == -1`` rows, which the curator filters).
    start_t:
        First timestamp to emit (``curator._last_t + 1`` when resuming).
    max_lateness:
        Reorder bound: a report for timestamp ``t`` may still arrive as
        long as no report for any ``t' > t + max_lateness`` has been seen.
        ``0`` means arrivals are timestamp-ordered (reports within one
        timestamp may interleave freely); ``t`` then closes the moment a
        report for ``t+1`` arrives.  Reports that violate the bound are
        dropped — and if a user's *enter* report is among them, their later
        movement reports reference a user the tracker never met, which the
        curator rejects.  Size the bound to the transport's real skew.
    """

    def __init__(self, space, start_t: int = 0, max_lateness: int = 0) -> None:
        if max_lateness < 0:
            raise ConfigurationError(
                f"max_lateness must be >= 0, got {max_lateness}"
            )
        self.space = space
        self.max_lateness = int(max_lateness)
        self._next_t = int(start_t)
        self._max_seen = int(start_t) - 1
        # Per-timestamp arrival-ordered segments: either a list of loose
        # ``(uid, idx, kind)`` rows or a whole ReportBatch kept columnar
        # (the zero-copy fast path: batches decoded straight off the wire
        # are buffered as-is and only concatenated at close).
        self._buffers: dict[int, list] = {}
        self.n_late_dropped = 0
        self._n_buffered = 0
        #: Most rows ever buffered at once — the assembler's queue-depth
        #: high-water mark, reported by the serve load harness.
        self.backlog_high_water = 0

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #
    def _encode(self, report: UserReport) -> tuple[int, int, int]:
        """``(user_id, state_idx, kind)`` of one report (pure, lock-free)."""
        if report.state is not None:
            kind = KIND_OF_STATE[report.state.kind]
            if kind == KIND_MOVE or self.space.include_eq:
                idx = self.space.index_of(report.state)
            else:
                idx = -1
        else:
            if report.kind not in (KIND_MOVE, KIND_ENTER, KIND_QUIT):
                raise ConfigurationError(
                    f"report carries neither a state nor a valid kind: {report}"
                )
            idx, kind = int(report.state_idx), int(report.kind)
        return int(report.user_id), idx, kind

    def add(self, report: UserReport) -> None:
        """Buffer one report; late reports are dropped and counted."""
        t = int(report.t)
        if t < self._next_t:
            self.n_late_dropped += 1
            return
        uid, idx, kind = self._encode(report)
        self._append_row(self._buffers.setdefault(t, []), (uid, idx, kind))
        self._track_buffered(1)
        if t > self._max_seen:
            self._max_seen = t

    def add_batch(self, t: int, batch: ReportBatch) -> int:
        """Buffer one timestamp's pre-encoded reports in one call.

        The columnar zero-copy twin of per-report :meth:`add`: the batch
        is buffered *as-is* (its arrays are never exploded into rows) and
        concatenated with its timestamp's other segments at close, where
        one stable uid sort restores the canonical order — so mixing
        batch and loose submissions is fine.  Returns the number of rows
        buffered (0 when the whole batch is late).
        """
        t = int(t)
        if t < self._next_t:
            self.n_late_dropped += len(batch)
            return 0
        if len(batch):
            self._buffers.setdefault(t, []).append(batch)
            self._track_buffered(len(batch))
        if t > self._max_seen:
            self._max_seen = t
        return len(batch)

    # ------------------------------------------------------------------ #
    # closing
    # ------------------------------------------------------------------ #
    @property
    def watermark(self) -> int:
        """Largest timestamp that is safe to close.

        Seeing a report for ``max_seen`` promises nothing about timestamps
        within ``max_lateness`` of it — including ``max_seen`` itself, whose
        own reports are still arriving — hence the additional ``− 1``.
        """
        return self._max_seen - self.max_lateness - 1

    @property
    def next_t(self) -> int:
        return self._next_t

    @property
    def watermark_lag(self) -> int:
        """Timestamps seen in the stream but not yet closed.

        Zero when fully caught up; under steady traffic it hovers around
        ``max_lateness + 1`` (the window the watermark holds open), and a
        growing value means closing has fallen behind arrival.
        """
        return max(0, self._max_seen - self._next_t + 1)

    def pop_ready(self) -> list[ClosedTimestamp]:
        """Close every timestamp at or below the watermark, in order.

        Timestamps with no buffered reports still close (as empty rounds)
        so the curator's consecutive-timestamp invariant holds across
        quiet periods.
        """
        out: list[ClosedTimestamp] = []
        while self._next_t <= self.watermark:
            out.append(self._close(self._next_t))
            self._next_t += 1
        return out

    def flush(self) -> list[ClosedTimestamp]:
        """Close everything buffered (end of stream)."""
        out: list[ClosedTimestamp] = []
        while self._next_t <= self._max_seen:
            out.append(self._close(self._next_t))
            self._next_t += 1
        return out

    def _track_buffered(self, n: int) -> None:
        """Maintain the backlog counter and its high-water mark."""
        self._n_buffered += n
        if self._n_buffered > self.backlog_high_water:
            self.backlog_high_water = self._n_buffered

    @property
    def backlog(self) -> int:
        """Rows currently buffered and awaiting their timestamp's close."""
        return self._n_buffered

    @staticmethod
    def _append_row(segments: list, row: tuple) -> None:
        """Append one loose row, extending the trailing row segment."""
        if segments and isinstance(segments[-1], list):
            segments[-1].append(row)
        else:
            segments.append([row])

    def _pop_segments(self, t: int) -> list:
        """Drain timestamp ``t``'s buffered segments (hook for subclasses)."""
        segments = self._buffers.pop(t, [])
        self._n_buffered -= sum(len(s) for s in segments)
        return segments

    def _close(self, t: int) -> ClosedTimestamp:
        segments = self._pop_segments(t)
        uid_parts: list[np.ndarray] = []
        idx_parts: list[np.ndarray] = []
        kind_parts: list[np.ndarray] = []
        for seg in segments:
            if isinstance(seg, ReportBatch):
                uid_parts.append(seg.user_ids)
                idx_parts.append(seg.state_idx)
                kind_parts.append(seg.kinds)
                continue
            m = len(seg)
            u = np.empty(m, dtype=np.int64)
            ix = np.empty(m, dtype=np.int64)
            kd = np.empty(m, dtype=np.int8)
            for i, (uid, state_idx, kind) in enumerate(seg):
                u[i], ix[i], kd[i] = uid, state_idx, kind
            uid_parts.append(u)
            idx_parts.append(ix)
            kind_parts.append(kd)
        if not uid_parts:
            uids = np.empty(0, dtype=np.int64)
            idx = np.empty(0, dtype=np.int64)
            kinds = np.empty(0, dtype=np.int8)
        elif len(uid_parts) == 1:
            uids, idx, kinds = uid_parts[0], idx_parts[0], kind_parts[0]
        else:
            uids = np.concatenate(uid_parts)
            idx = np.concatenate(idx_parts)
            kinds = np.concatenate(kind_parts)
        # Canonical row order: stable sort of the arrival-order
        # concatenation by user id, so the batch (and therefore the
        # curator's RNG consumption) is arrival-order independent —
        # identical to the historical row-at-a-time materialisation.
        order = np.argsort(uids, kind="stable")
        batch = ReportBatch(uids[order], idx[order], kinds[order])
        return ClosedTimestamp(
            t=t,
            batch=batch,
            newly_entered=batch.user_ids[batch.kinds == KIND_ENTER],
            quitted=batch.user_ids[batch.kinds == KIND_QUIT],
            n_active=int((batch.kinds != KIND_QUIT).sum()),
        )


class MultiConsumerAssembler(TimestampAssembler):
    """A :class:`TimestampAssembler` safe to feed from several consumers.

    The single-consumer assembler serializes every ``add`` behind the one
    thread that owns it — with parallel shard rounds upstream, assembly
    becomes the serial section.  This subclass hash-partitions buffering
    by user id (:func:`~repro.stream.reports.shard_of_array`, the same
    Knuth hash the sharded engine uses), so ``n_partitions`` feeders can
    buffer concurrently, each touching only its partition's lock.

    Closed output is **canonical and identical to the single-consumer
    reference**: a close drains every partition and stable-sorts the
    concatenation by user id — the same order :meth:`TimestampAssembler
    ._close` produces — and duplicate reports of one uid hash to one
    partition, so even their relative order survives.  The property tests
    in ``tests/stream/test_multi_consumer.py`` pin this equivalence under
    randomized lateness/shuffle schedules.

    Correctness of the late check under concurrency: feeders take their
    partition's lock *before* comparing ``t`` against ``next_t``, and a
    close bumps ``next_t`` (under the state lock) *before* draining the
    partitions — so a feeder either sees the bumped ``next_t`` and counts
    the row late, or lands the row before the drain reaches its
    partition.  Rows are never silently stranded in a closed timestamp's
    buffer.
    """

    def __init__(
        self, space, start_t: int = 0, max_lateness: int = 0,
        n_partitions: int = 2,
    ) -> None:
        import threading

        super().__init__(space, start_t=start_t, max_lateness=max_lateness)
        if n_partitions < 1:
            raise ConfigurationError(
                f"n_partitions must be >= 1, got {n_partitions}"
            )
        self.n_partitions = int(n_partitions)
        self._parts: list[dict[int, list[tuple[int, int, int]]]] = [
            {} for _ in range(self.n_partitions)
        ]
        self._part_locks = [threading.Lock() for _ in range(self.n_partitions)]
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # feeding (concurrent)
    # ------------------------------------------------------------------ #
    def add(self, report: UserReport) -> None:
        t = int(report.t)
        uid, idx, kind = self._encode(report)  # pure: outside any lock
        p = int(shard_of_array([uid], self.n_partitions)[0])
        with self._part_locks[p]:
            if t < self._next_t:
                with self._state_lock:
                    self.n_late_dropped += 1
                return
            self._append_row(self._parts[p].setdefault(t, []), (uid, idx, kind))
            with self._state_lock:
                self._track_buffered(1)
                if t > self._max_seen:
                    self._max_seen = t

    def add_batch(self, t: int, batch: ReportBatch) -> int:
        t = int(t)
        if len(batch) == 0:
            # Still advances the watermark clock for empty rounds.
            with self._part_locks[0]:
                if t < self._next_t:
                    return 0
                with self._state_lock:
                    if t > self._max_seen:
                        self._max_seen = t
            return 0
        pids = shard_of_array(batch.user_ids, self.n_partitions)
        buffered = 0
        for p in range(self.n_partitions):
            rows_p = np.flatnonzero(pids == p)
            if rows_p.size == 0:
                continue
            sub = batch.take(rows_p)
            with self._part_locks[p]:
                if t < self._next_t:
                    with self._state_lock:
                        self.n_late_dropped += len(sub)
                    continue
                self._parts[p].setdefault(t, []).append(sub)
                buffered += len(sub)
                with self._state_lock:
                    self._track_buffered(len(sub))
                    if t > self._max_seen:
                        self._max_seen = t
        return buffered

    # ------------------------------------------------------------------ #
    # closing (single closer at a time; safe against concurrent feeders)
    # ------------------------------------------------------------------ #
    def _claim_next(self, bound: int) -> Optional[int]:
        with self._state_lock:
            if self._next_t > bound:
                return None
            t = self._next_t
            self._next_t += 1
            return t

    def pop_ready(self) -> list[ClosedTimestamp]:
        out: list[ClosedTimestamp] = []
        while True:
            t = self._claim_next(self.watermark)
            if t is None:
                return out
            out.append(self._close(t))

    def flush(self) -> list[ClosedTimestamp]:
        out: list[ClosedTimestamp] = []
        while True:
            t = self._claim_next(self._max_seen)
            if t is None:
                return out
            out.append(self._close(t))

    def _pop_segments(self, t: int) -> list:
        segments: list = []
        for buf, lock in zip(self._parts, self._part_locks):
            with lock:
                segments.extend(buf.pop(t, []))
        with self._state_lock:
            self._n_buffered -= sum(len(s) for s in segments)
        return segments

    # ------------------------------------------------------------------ #
    # pickling (quiesced snapshots only)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # Locks are process-local machinery and must never reach a pickle;
        # buffered rows and watermark state are plain data.  Snapshots are
        # only meaningful with no concurrent feeders (the service drains
        # before checkpointing).
        state = dict(self.__dict__)
        state["_part_locks"] = None
        state["_state_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        import threading

        self.__dict__.update(state)
        self._part_locks = [
            threading.Lock() for _ in range(self.n_partitions)
        ]
        self._state_lock = threading.Lock()


def make_assembler(
    space, start_t: int = 0, max_lateness: int = 0, consumers: int = 1
) -> TimestampAssembler:
    """The assembler a service should run: single- or multi-consumer."""
    if consumers <= 1:
        return TimestampAssembler(
            space, start_t=start_t, max_lateness=max_lateness
        )
    return MultiConsumerAssembler(
        space, start_t=start_t, max_lateness=max_lateness,
        n_partitions=consumers,
    )


class IngestionService:
    """Bounded-queue asyncio service driving a curator from raw reports.

    The ordering/processing core is an
    :class:`~repro.api.session.IngestSession` — the same object the
    unified curator API and the HTTP ingress drive — so the asyncio shell
    here adds exactly one thing: a bounded ingress queue whose ``submit``
    suspends producers when the curator falls behind (backpressure).

    Parameters
    ----------
    curator:
        An :class:`~repro.core.online.OnlineRetraSyn` (or sharded
        subclass).  Resume is automatic: ingestion starts at
        ``curator._last_t + 1``.
    queue_size:
        Bound of the ingress queue; a full queue suspends ``submit``
        callers until the consumer catches up (backpressure).
    max_lateness:
        Watermark slack forwarded to :class:`TimestampAssembler`.
    checkpoint_path / checkpoint_every:
        When ``checkpoint_path`` is set, a final checkpoint is always
        written at end of stream; ``checkpoint_every > 0`` additionally
        checkpoints after every that many processed timestamps.
    """

    _SENTINEL = None

    def __init__(
        self,
        curator,
        queue_size: int = 10_000,
        max_lateness: int = 0,
        checkpoint_path=None,
        checkpoint_every: int = 0,
        checkpoint_keep: int = 1,
        ingest_consumers: int = 1,
    ) -> None:
        from repro.api.session import IngestSession
        from repro.api.specs import ServiceSpec, SessionSpec

        if queue_size < 1:
            raise ConfigurationError(
                f"queue_size must be >= 1, got {queue_size}"
            )
        self.curator = curator
        self.session = IngestSession(
            curator,
            SessionSpec.from_config(
                curator.config,
                service=ServiceSpec(
                    transport="ingest",
                    queue_size=queue_size,
                    max_lateness=max_lateness,
                    checkpoint_path=(
                        None if checkpoint_path is None else str(checkpoint_path)
                    ),
                    checkpoint_every=checkpoint_every,
                    checkpoint_keep=checkpoint_keep,
                    ingest_consumers=ingest_consumers,
                ),
            ),
        )
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._draining = False

    @property
    def assembler(self) -> TimestampAssembler:
        return self.session.assembler

    @property
    def stats(self) -> IngestStats:
        return self.session.ingest_stats

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    async def submit(self, report: UserReport) -> None:
        """Enqueue one report; suspends while the queue is full."""
        if self.queue.full():
            self.stats.backpressure_waits += 1
        await self.queue.put(report)
        self.stats.n_submitted += 1

    async def stop(self) -> None:
        """Signal end-of-stream; ``run`` flushes and returns."""
        await self.queue.put(self._SENTINEL)

    def begin_drain(self) -> None:
        """Mark the service draining (SIGTERM path).

        A drained shutdown closes only watermark-complete timestamps:
        the trailing timestamps whose reports were still arriving stay
        unprocessed, so the final checkpoint lands on a timestamp
        boundary and a resumed replay (which re-reads those reports from
        the source) is bit-identical to an uninterrupted run.
        """
        self._draining = True

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    async def run(self) -> IngestStats:
        """Drain the queue until the sentinel, driving the curator."""
        while True:
            report = await self.queue.get()
            if report is self._SENTINEL:
                self.session.close(flush_partial=not self._draining)
                return self.stats
            self.session.assembler.add(report)
            if self.session.advance():
                # Yield so suspended producers resume promptly after a
                # CPU-heavy curator round.
                await asyncio.sleep(0)


async def _drive(
    service: IngestionService,
    reports: Union[Iterable[UserReport], AsyncIterator[UserReport]],
    handle_signals: bool = True,
) -> IngestStats:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: list[signal.Signals] = []

    def _on_signal() -> None:
        # Graceful drain: the producer stops feeding, the consumer closes
        # watermark-complete rounds only and writes the final checkpoint.
        service.begin_drain()
        stop.set()

    if handle_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            # add_signal_handler is main-thread / Unix only; callers
            # driving from worker threads simply get no drain hook.
            try:
                loop.add_signal_handler(sig, _on_signal)
            except (NotImplementedError, RuntimeError, ValueError):
                continue
            installed.append(sig)

    async def _produce() -> None:
        if hasattr(reports, "__aiter__"):
            async for report in reports:  # pragma: no cover - async sources
                if stop.is_set():
                    break
                await service.submit(report)
        else:
            for report in reports:
                if stop.is_set():
                    break
                await service.submit(report)
        await service.stop()

    consumer = asyncio.ensure_future(service.run())
    producer = asyncio.ensure_future(_produce())
    try:
        # FIRST_EXCEPTION: if the curator raises, stop immediately instead
        # of leaving the producer suspended on a full queue forever.
        done, _pending = await asyncio.wait(
            {consumer, producer}, return_when=asyncio.FIRST_EXCEPTION
        )
        for task in done:
            if task.cancelled():
                continue
            exc = task.exception()
            if exc is not None:
                raise exc
        return await consumer
    finally:
        for task in (consumer, producer):
            if not task.done():
                task.cancel()
        for sig in installed:
            loop.remove_signal_handler(sig)


def ingest_events(
    curator,
    reports: Iterable[UserReport],
    queue_size: int = 10_000,
    max_lateness: int = 0,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    checkpoint_keep: int = 1,
    ingest_consumers: int = 1,
) -> IngestStats:
    """Synchronously run the full ingestion loop over ``reports``.

    Builds an :class:`IngestionService`, feeds every report through the
    bounded queue, flushes, and returns the stats.  This is the CLI and
    test entry point; long-running deployments hold the service object and
    call ``submit`` from their own event loop instead.

    SIGTERM/SIGINT trigger a graceful drain (when running on the main
    thread): feeding stops, watermark-complete timestamps finish, and a
    final checkpoint is written before returning normally.
    """
    service = IngestionService(
        curator,
        queue_size=queue_size,
        max_lateness=max_lateness,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        checkpoint_keep=checkpoint_keep,
        ingest_consumers=ingest_consumers,
    )
    return asyncio.run(_drive(service, reports))


def dataset_reports(
    view,
    start_t: int = 0,
    shuffle_rng: Optional[np.random.Generator] = None,
    block: int = 1,
) -> Iterator[UserReport]:
    """Replay a :class:`~repro.stream.reports.ColumnarStreamView` as an
    event stream of pre-encoded :class:`UserReport`\\ s.

    ``shuffle_rng`` permutes arrival order inside blocks of ``block``
    consecutive timestamps, simulating out-of-order delivery: with
    ``block = max_lateness + 1`` every report still lands within the
    service's lateness budget, so nothing is dropped and — thanks to the
    assembler's canonical ordering — the synthetic output is identical to
    an in-order replay.
    """
    block = max(1, int(block))
    for t0 in range(start_t, view.n_timestamps, block):
        ts = range(t0, min(t0 + block, view.n_timestamps))
        rows: list[UserReport] = []
        for t in ts:
            b = view.batch_at(t)
            rows.extend(
                UserReport.encoded(uid, t, idx, kind)
                for uid, idx, kind in zip(
                    b.user_ids.tolist(),
                    b.state_idx.tolist(),
                    b.kinds.tolist(),
                )
            )
        if shuffle_rng is not None and len(rows) > 1:
            order = shuffle_rng.permutation(len(rows))
            rows = [rows[int(i)] for i in order]
        yield from rows
