"""Sharded collection engine: hash-partitioned parallel curator.

:class:`ShardedOnlineRetraSyn` scales the *collection* half of the pipeline
the way :class:`~repro.core.fast_synthesis.VectorizedSynthesizer` scaled the
synthesis half.  Users are hash-partitioned across ``K`` independent
collection shards, each owning its own :class:`~repro.stream.user_tracker
.UserTracker` and per-round frequency oracle.  Every timestamp each shard
runs selection + perturbation on its partition only and returns raw
per-position one-counts; the parent merges them with a single vector add and
debiases once **before** mobility-model construction, so the model, DMU and
synthesizer remain global and unchanged.

The shard wire format is columnar (:class:`~repro.stream.reports
.ReportBatch`): partitions travel as numpy index arrays — user ids, encoded
state indices, kind codes — never as per-user ``TransitionState`` objects.
For the distributed executor this is what lets a round's partitions cross
the socket as raw column buffers instead of pickled dataclass instances.

Why this is statistically equivalent to the unsharded curator:

* the hash partition is a fixed disjoint cover of the user population, so
  each user lives in exactly one shard and can never be sampled twice in a
  window — w-event accounting is preserved per user, not per shard; the
  parent's (columnar by default) privacy accountant receives the merged
  reporter-id array once per round, never per shard;
* every shard perturbs with the same ``(p, q)`` OUE parameters, and the sum
  of independent per-shard one-count vectors has exactly the distribution
  of the one-count vector over the union of reporters;
* the sampling rate ``p_t`` (population division) or budget ``ε_t`` (budget
  division) is proposed *globally* from the merged collection feedback, so
  allocation adapts on the same signal as the unsharded engine.

Shard rounds are embarrassingly parallel.  Two executors are provided:

* ``executor="serial"`` — rounds run in-process, one shard after another
  (no IPC overhead; the default and the reference semantics);
* ``executor="distributed"`` — shards are promoted to services: one
  persistent worker process per shard, speaking length-prefixed RSF2
  binary frames over a local socket
  (:class:`~repro.core.distributed.ShardSocketPool`) and holding the
  shard's tracker, rng and a **shard-local privacy accountant** across
  the whole stream, so per-shard spends and strict refusals never
  round-trip through the parent; the parent's ``accountant`` becomes a
  merged read-only
  :class:`~repro.core.distributed.DistributedAccountantView`.

Both executors draw shard randomness from the same per-shard seeds, so
they produce identical output streams for a fixed configuration.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import numpy as np

from repro.core.online import (
    _MIN_EPSILON,
    OnlineRetraSyn,
    TimestepResult,
    sample_population_reporters_batch,
    support_mask,
)
from repro.exceptions import ConfigurationError, ShardWorkerError
from repro.geo.grid import Grid
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.stream.reports import ReportBatch, as_report_batch, shard_of_array
from repro.stream.state_space import TransitionStateSpace
from repro.stream.user_tracker import UserTracker

#: Knuth multiplicative hash, so shard assignment is uncorrelated with any
#: arithmetic structure in the user-id space (parity, contiguous ranges, …).
_HASH_MULT = 2654435761


def shard_of(user_id: int, n_shards: int) -> int:
    """Stable hash partition of a user id into ``[0, n_shards)``.

    The xor-fold mixes the multiplied high bits back into the low bits —
    a bare ``% n_shards`` of the product would preserve arithmetic
    structure (e.g. parity) of the id space.  The vectorized twin is
    :func:`repro.stream.reports.shard_of_array`.
    """
    h = (int(user_id) * _HASH_MULT) & 0xFFFFFFFF
    h ^= h >> 16
    return h % n_shards


def _split_ids(ids: np.ndarray, n_shards: int) -> list[np.ndarray]:
    """Partition an id array by shard, preserving order inside each part."""
    ids = np.asarray(ids, dtype=np.int64)
    if n_shards == 1:
        return [ids]
    sid = shard_of_array(ids, n_shards)
    return [ids[sid == k] for k in range(n_shards)]


class CollectionShard:
    """One partition's tracker + oracle; no model, no synthesis.

    The shard consumes columnar :class:`ReportBatch` partitions whose
    states were encoded upstream (at ingestion or by the batch pipeline's
    stream view), so no per-user encoding happens here.
    """

    def __init__(self, grid: Grid, config, seed: int) -> None:
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.space = TransitionStateSpace(
            grid, include_entering_quitting=config.model_entering_quitting
        )
        self.tracker = (
            UserTracker(config.w) if config.division == "population" else None
        )
        self._report_phase: dict[int, int] = {}

    def round_batch(
        self,
        t: int,
        batch: ReportBatch,
        newly_entered: np.ndarray,
        quitted: np.ndarray,
        rate: Optional[float],
        eps_used: float,
    ) -> tuple[np.ndarray, np.ndarray, float, Optional[np.ndarray]]:
        """One timestamp on this shard's partition (columnar).

        ``rate`` is the globally proposed sampling fraction ``p_t``
        (population division, ``None`` for the user-driven "random"
        strategy); ``eps_used`` the per-report budget.  Returns the raw
        per-position one-counts, the reporter id array, the seconds spent
        in the perturbation itself (the user-side cost, excluding
        selection bookkeeping, so timings stay comparable with the
        unsharded engine), and — when ``config.dmu_prefilter`` is on —
        this round's plausibly-observed support mask.

        Selection uses :func:`~repro.core.online
        .sample_population_reporters_batch` with stochastic rounding: each
        partition samples ``rate``·eligible in *expectation*, so the total
        reporter volume is unbiased for any shard count (deterministic
        per-shard rounding would collapse to zero when partitions are
        small).
        """
        cfg = self.config
        if cfg.division == "population":
            rows = sample_population_reporters_batch(
                self.tracker, self._report_phase, self.rng, cfg,
                t, batch, newly_entered, rate,
                stochastic_round=True,
            )
            chosen = batch.take(rows)
        else:
            chosen = batch if eps_used > 0.0 else ReportBatch.empty()

        user_seconds = 0.0
        support: Optional[np.ndarray] = None
        if len(chosen):
            oracle = OptimizedUnaryEncoding(
                self.space.size, eps_used, rng=self.rng, mode=cfg.oracle_mode
            )
            tic = time.perf_counter()
            ones = oracle.simulate_ones(chosen.state_idx)
            user_seconds = time.perf_counter() - tic
            if cfg.dmu_prefilter:
                support = support_mask(ones, len(chosen), oracle.q)
        else:
            ones = np.zeros(self.space.size)
        if self.tracker is not None:
            self.tracker.mark_reported(chosen.user_ids, t)
            self.tracker.mark_quitted(quitted)
        return ones, chosen.user_ids, user_seconds, support


class ShardedOnlineRetraSyn(OnlineRetraSyn):
    """Drop-in :class:`OnlineRetraSyn` with a hash-partitioned collector.

    Exposes the same ``process_timestep`` / ``live_snapshot`` / ``result``
    surface; only the selection + collection phases differ.  ``n_shards``
    and ``executor`` default to the values in ``config`` (``n_shards``,
    ``shard_executor``) so :class:`~repro.core.retrasyn.RetraSyn` can route
    through this engine on configuration alone.
    """

    def __init__(
        self,
        grid: Grid,
        config,
        lam: float,
        n_shards: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> None:
        super().__init__(grid, config, lam)
        self.n_shards = int(
            n_shards if n_shards is not None else getattr(config, "n_shards", 1)
        )
        self.executor = (
            executor
            if executor is not None
            else getattr(config, "shard_executor", "serial")
        )
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.executor not in ("serial", "distributed"):
            raise ConfigurationError(
                f"shard executor must be 'serial' or 'distributed', "
                f"got {self.executor!r}"
            )
        # The parent never tracks users itself — shards own their partitions.
        self._tracker = None
        #: Final per-shard ledger stats, cached by :meth:`close` so the
        #: distributed accountant view stays auditable after shutdown.
        self._final_summaries = None
        seeds = [
            int(s) for s in self.rng.integers(0, 2**63 - 1, size=self.n_shards)
        ]
        if self.executor == "distributed":
            from repro.core.distributed import (
                DistributedAccountantView,
                ShardSocketPool,
            )

            self._pool = ShardSocketPool(grid, config, seeds)
            self._shards = None
            # The workers own the ledgers; the parent exposes a merged
            # read-only view so stats()/result()/audits work unchanged.
            if self.accountant is not None:
                self.accountant = DistributedAccountantView(self)
        else:
            self._pool = None
            self._shards = [CollectionShard(grid, config, s) for s in seeds]

    # ------------------------------------------------------------------ #
    # the sharded collection round
    # ------------------------------------------------------------------ #
    def _partition(self, batch: ReportBatch, newly_entered, quitted):
        """Hash-partition one timestamp's traffic: pure array slicing."""
        K = self.n_shards
        return batch.partition(K), _split_ids(newly_entered, K), _split_ids(quitted, K)

    def _propose(self, t, batch: ReportBatch, global_min: Optional[float]):
        """The round's globally proposed ``(rate, ε_t)``.

        Exactly the per-timestamp proposal sequence — including the budget
        allocators' ``commit`` — so the fused paths can replay it upfront
        for schedule-division allocators without changing a single call.
        """
        cfg = self.config
        rate: Optional[float] = None
        if cfg.division == "population":
            eps_t = cfg.epsilon
            if cfg.allocator != "random":
                rate = self._pop_alloc.propose(t, self.context)
        else:
            if self.executor == "distributed" and getattr(
                self._budget_alloc, "consults_users", False
            ):
                remaining = (
                    None if global_min is None else np.asarray([global_min])
                )
                eps_t = self._budget_alloc.propose_for(
                    t, self.context, remaining
                )
            else:
                eps_t = self._propose_budget(t, batch)
            if eps_t < _MIN_EPSILON:
                eps_t = 0.0
            self._budget_alloc.commit(eps_t)
        return rate, eps_t

    def _merge_outs(self, t, outs, eps_t):
        """Merge per-shard round outputs into one debiased collection.

        One vector add per shard, one debias for the union.  Only the
        perturbation seconds count as user-side cost — the unsharded
        engine does not time selection either, keeping Table V comparable.
        """
        cfg = self.config
        ones = np.zeros(self.space.size)
        uid_parts: list[np.ndarray] = []
        for shard_ones, uids, user_seconds, support in outs:
            ones += shard_ones
            uid_parts.append(uids)
            self.timings["user_side"] += user_seconds
            if support is not None:
                self._dmu_candidates |= support
        reporter_uids = np.concatenate(uid_parts) if uid_parts else np.empty(0, np.int64)
        n_reporters = int(reporter_uids.size)
        eps_used = eps_t

        collected = None
        if n_reporters:
            tic = time.perf_counter()
            oracle = OptimizedUnaryEncoding(
                self.space.size, eps_used, rng=self.rng, mode=cfg.oracle_mode
            )
            collected = oracle.debias(ones, n_reporters) / n_reporters
            self.timings["model_construction"] += time.perf_counter() - tic
            # Distributed shards spent their partitions locally already.
            if self.accountant is not None and self.executor != "distributed":
                self.accountant.spend_many(reporter_uids, t, eps_used)
            self.context.record_collection(collected)
        return collected, n_reporters, eps_used

    def _collect_round(self, t, batch: ReportBatch, newly_entered, quitted):
        cfg = self.config
        distributed = self.executor == "distributed"

        parts, entered, quits = self._partition(batch, newly_entered, quitted)

        # Distributed phase 1: stage the partitions on every shard and,
        # when a per-user allocator needs ledger feedback, collect the
        # global minimum remaining window budget from the shard-local
        # accountants.  ``propose_for`` reduces the whole remaining vector
        # to its minimum, so a min-of-shard-mins is an exact substitute
        # for the parent-ledger query the serial executor makes.
        global_min: Optional[float] = None
        if distributed:
            want_remaining = (
                cfg.division != "population"
                and getattr(self._budget_alloc, "consults_users", False)
                and getattr(cfg, "track_privacy", True)
            )
            global_min = self._pool.submit(
                t, parts, entered, quits, want_remaining
            )

        # Globally proposed rate / budget, from the merged feedback context.
        rate, eps_t = self._propose(t, batch, global_min)

        if distributed:
            # Phase 2: run the staged round everywhere; workers spend
            # their reporters' budget locally before replying.
            outs = self._pool.advance(t, rate, eps_t)
        else:
            outs = [
                shard.round_batch(t, parts[k], entered[k], quits[k], rate, eps_t)
                for k, shard in enumerate(self._shards)
            ]

        return self._merge_outs(t, outs, eps_t)

    # ------------------------------------------------------------------ #
    # the pipelined multi-timestamp round
    # ------------------------------------------------------------------ #
    def _fusion_mode(self) -> Optional[str]:
        """How far the distributed round protocol can be fused.

        ``"full"``   — one ``shard-submit-many`` *and* one
                       ``shard-advance-many`` per group: every per-t rate/ε
                       is computable from the schedule alone (population
                       uniform/sample/random; budget uniform/sample, whose
                       proposals read only the allocator's own commit
                       ledger, replayed here in the exact per-t order).
        ``"submit"`` — fused submit, per-t advance: adaptive allocators
                       read the collection feedback context, so each
                       round's proposal must wait for the previous merge.
        ``None``     — per-t submit *and* advance: ``adaptive-user``
                       proposals need each round's cross-shard minimum
                       remaining budget computed after the previous
                       round's spends.
        """
        cfg = self.config
        if self.executor != "distributed":
            return None
        if cfg.division == "population":
            if cfg.allocator in ("uniform", "sample", "random"):
                return "full"
            return "submit"
        if getattr(self._budget_alloc, "consults_users", False):
            return None
        if cfg.allocator in ("uniform", "sample"):
            return "full"
        return "submit"

    def _launch_synthesis(self, t, n_active, n_rep, eps_used, n_sig):
        """Start round ``t``'s synthesis on a background thread.

        Safe to overlap with the *next* round's collection because the
        sharded collector makes no parent-rng draws (shard randomness
        lives in the shard objects / workers) and never touches the model
        or the trajectory store.  The vectorized engine's compiled model
        is refreshed here, on the caller's thread, so the in-flight step
        reads only the front buffer while the caller's next merge stays
        off the model until :meth:`_join_synthesis`.
        """
        compile_fn = getattr(self.synthesizer, "_compile", None)
        if compile_fn is not None:
            compile_fn()
        holder: dict = {}

        def run() -> None:
            try:
                self._synthesize(t, n_active)
                holder["n_live"] = self.synthesizer.n_live
            except BaseException as exc:  # propagated at join
                holder["exc"] = exc

        thread = threading.Thread(
            target=run, name=f"retrasyn-synthesis-t{t}", daemon=True
        )
        thread.start()
        return thread, holder, t, n_rep, eps_used, n_sig

    def _join_synthesis(self, pending) -> TimestepResult:
        thread, holder, t, n_rep, eps_used, n_sig = pending
        thread.join()
        if "exc" in holder:
            raise holder["exc"]
        return TimestepResult(
            t=t,
            n_reporters=n_rep,
            epsilon_used=eps_used if n_rep else 0.0,
            n_significant=n_sig,
            n_live_synthetic=holder.get("n_live", self.synthesizer.n_live),
        )

    def process_timesteps(self, items) -> list[TimestepResult]:
        """Pipelined group round: fused shard frames + synthesis overlap.

        Bit-identical to running :meth:`process_timestep` per item: rounds
        advance in timestamp order on the same shard states, the proposal
        sequence is replayed exactly (see :meth:`_fusion_mode`), and the
        parent rng is only ever consumed by synthesis, which runs one
        round at a time — merely overlapped with the rng-free collection
        of the next round.
        """
        items = list(items)
        if len(items) <= 1:
            return super().process_timesteps(items)
        cfg = self.config

        prepared = []
        expect = self._last_t
        for t, participants, entered, quitted, n_active in items:
            t = int(t)
            if expect is not None and t != expect + 1:
                raise ConfigurationError(
                    f"timestamps must be consecutive: got {t} after {expect}"
                )
            expect = t
            batch = as_report_batch(self.space, participants)
            if not cfg.model_entering_quitting:
                batch = batch.moves_only()
            prepared.append(
                (
                    t,
                    batch,
                    np.asarray(entered, dtype=np.int64),
                    np.asarray(quitted, dtype=np.int64),
                    int(n_active),
                )
            )

        mode = self._fusion_mode()
        results: list[TimestepResult] = []
        pending = None
        try:
            if mode is None:
                # Per-t protocol (serial executor, or distributed
                # adaptive-user): only the synthesis overlap applies.
                for t, batch, entered, quitted, n_active in prepared:
                    self._last_t = t
                    collected, n_rep, eps_used = self._collect_round(
                        t, batch, entered, quitted
                    )
                    pending = self._finish_round(
                        results, pending, t, collected, n_rep, eps_used,
                        n_active,
                    )
            else:
                groups = [
                    (t, *self._partition(batch, entered, quitted))
                    for t, batch, entered, quitted, _n in prepared
                ]
                self._pool.submit_many(groups)
                if mode == "full":
                    proposals = [
                        self._propose(t, batch, None)
                        for t, batch, _e, _q, _n in prepared
                    ]
                    outs_by_t = self._pool.advance_many(
                        [t for t, *_ in prepared],
                        [rate for rate, _eps in proposals],
                        [eps for _rate, eps in proposals],
                    )
                    for i, (t, batch, _e, _q, n_active) in enumerate(prepared):
                        self._last_t = t
                        collected, n_rep, eps_used = self._merge_outs(
                            t, outs_by_t[i], proposals[i][1]
                        )
                        pending = self._finish_round(
                            results, pending, t, collected, n_rep, eps_used,
                            n_active,
                        )
                else:  # fused submit, per-t advance
                    for t, batch, _e, _q, n_active in prepared:
                        self._last_t = t
                        rate, eps_t = self._propose(t, batch, None)
                        outs = self._pool.advance(t, rate, eps_t)
                        collected, n_rep, eps_used = self._merge_outs(
                            t, outs, eps_t
                        )
                        pending = self._finish_round(
                            results, pending, t, collected, n_rep, eps_used,
                            n_active,
                        )
            if pending is not None:
                results.append(self._join_synthesis(pending))
                pending = None
        finally:
            if pending is not None:
                # An earlier phase raised: drain the in-flight synthesis so
                # no background thread outlives the error (its own failure,
                # if any, is secondary).
                try:
                    self._join_synthesis(pending)
                except Exception:
                    pass
        return results

    def _finish_round(
        self, results, pending, t, collected, n_rep, eps_used, n_active
    ):
        """Join the in-flight synthesis, update the model, launch round t's.

        The model (and the allocation context's significant-ratio signal)
        is only ever mutated here, after the previous round's synthesis
        has fully drained — the double-buffer handoff that keeps the
        overlap bit-identical.
        """
        self.reporters_per_timestamp.append(n_rep)
        if pending is not None:
            results.append(self._join_synthesis(pending))
        n_sig = self._update_model(collected, eps_used, n_rep)
        self.significant_per_timestamp.append(n_sig)
        return self._launch_synthesis(t, n_active, n_rep, eps_used, n_sig)

    def checkpoint_state(self) -> dict:
        """Base curator state plus each shard's full state.

        Distributed shards live in worker memory, so they are fetched over
        the sockets — each ``_shards`` entry is a ``(shard, accountant)``
        pair carrying the shard-local ledger — and the pool itself
        (sockets, processes) is never part of a checkpoint.  A distributed
        checkpoint therefore restores into a distributed engine (the
        session spec carried by the v3 format guarantees the executor
        matches).
        """
        state = {k: v for k, v in self.__dict__.items() if k != "_pool"}
        if self._pool is not None:
            state["_shards"] = self._pool.get_states()
        return state

    def restore_state(self, state: dict) -> None:
        state = dict(state)
        shards = state.pop("_shards")
        state.pop("_pool", None)
        self.__dict__.update(state)
        if self._pool is not None:
            self._pool.set_states(shards)
            self._shards = None
        else:
            self._shards = shards
        # The unpickled accountant view is frozen (no engine behind it);
        # re-bind it so it queries the freshly restored worker ledgers.
        if self.executor == "distributed" and self.accountant is not None:
            self.accountant._engine = self

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down worker processes and the synthesizer's thread slabs."""
        if self._pool is not None:
            # Freeze the shard-local ledgers' final summaries so the
            # distributed accountant view answers audits after shutdown.
            if self._pool.alive and getattr(self.config, "track_privacy", True):
                try:
                    self._final_summaries = self._pool.stats()
                except Exception:  # pragma: no cover - dead workers
                    pass
            self._pool.close()
        closer = getattr(self.synthesizer, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "ShardedOnlineRetraSyn":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
