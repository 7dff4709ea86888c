"""Incremental (online) curator interface.

:class:`~repro.core.retrasyn.RetraSyn` processes a finished
:class:`~repro.stream.stream.StreamDataset` in one call — convenient for
experiments, but a *real-time* deployment receives reports timestamp by
timestamp.  :class:`OnlineRetraSyn` is that interface::

    curator = OnlineRetraSyn(grid, RetraSynConfig(epsilon=1.0, w=20), lam=14)
    for t in range(...):                      # as wall-clock time advances
        step = curator.process_timestep(
            t,
            participants=[(uid, state), ...],  # users able to report at t
            newly_entered=[uid, ...],
            quitted=[uid, ...],
            n_real_active=count,
        )
        publish(curator.live_snapshot())       # current synthetic positions

    run = curator.result(n_timestamps=T)       # full SynthesisRun at the end

The batch pipeline is implemented on top of this class, so both paths share
one code base and one set of invariants (privacy accounting, DMU, size
adjustment).

Internally the collection phase is *columnar*: ``participants`` may be a
:class:`~repro.stream.reports.ReportBatch` (numpy arrays of user ids,
encoded state indices, and transition-kind codes) and object-path inputs —
lists of ``(user_id, TransitionState)`` pairs — are bridged into one at the
boundary.  Both representations drive the same selection code and consume
the RNG identically, so they produce bit-identical synthetic streams for a
fixed seed (tested in ``tests/core/test_columnar_equivalence.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.allocation import (
    AllocationContext,
    make_budget_allocator,
    make_population_allocator,
)
from repro.core.dmu import DMUSelector
from repro.core.mobility_model import GlobalMobilityModel
from repro.core.synthesis import Synthesizer
from repro.exceptions import ConfigurationError
from repro.geo.grid import Grid
from repro.ldp.accountant import make_accountant
from repro.ldp.oue import OptimizedUnaryEncoding
from repro.rng import ensure_rng
from repro.stream.encoder import UserSideEncoder
from repro.stream.reports import ReportBatch, as_report_batch
from repro.stream.slots import UserSlotTable
from repro.stream.state_space import TransitionStateSpace
from repro.stream.user_tracker import UserTracker

#: Collections with less budget than this are skipped outright.
_MIN_EPSILON = 1e-8

#: z-score of the per-position one-count noise floor used by the DMU
#: prefilter: positions whose raw one-counts never exceed
#: ``n·q + z·sqrt(n·q(1−q))`` are treated as never observed.
_SUPPORT_Z = 3.0


def support_mask(ones: np.ndarray, n_reporters: int, q: float) -> np.ndarray:
    """Which positions plausibly received a true report this round.

    Pure post-processing of the perturbed one-counts (no privacy cost): a
    position whose count is within ``_SUPPORT_Z`` standard deviations of
    the all-noise expectation ``n·q`` is indistinguishable from never
    reported.  Used to build the DMU candidate set when
    ``RetraSynConfig.dmu_prefilter`` is on.
    """
    if n_reporters <= 0:
        return np.zeros(np.asarray(ones).shape, dtype=bool)
    floor = n_reporters * q + _SUPPORT_Z * np.sqrt(n_reporters * q * (1.0 - q))
    return np.asarray(ones) > floor


def sample_population_reporters(
    tracker,
    report_phase: dict,
    rng,
    cfg,
    t: int,
    participants,
    newly_entered,
    rate: Optional[float],
    stochastic_round: bool = False,
) -> list:
    """Algorithm 1's per-timestamp reporter selection over one user set.

    Registers arrivals, recycles the ``t − w`` cohort, then either applies
    the user-driven "random" phase rule or samples a ``rate`` fraction of
    the eligible set.  Shared by the unsharded engine (whole population)
    and each :class:`~repro.core.sharded.CollectionShard` (one partition),
    so the selection semantics cannot drift between engines.

    ``stochastic_round=True`` rounds the sample size probabilistically so
    that its *expectation* is exactly ``rate * len(eligible)`` — required
    when the population is split into many small partitions, where
    deterministic rounding would systematically under- or over-sample.
    """
    tracker.register(newly_entered)
    if cfg.allocator == "random":
        for uid in newly_entered:
            report_phase[uid] = int(rng.integers(0, cfg.w))
    tracker.recycle(t)
    eligible = [
        (uid, s)
        for uid, s in participants
        if tracker.status(uid).value == "active"
    ]
    if cfg.allocator == "random":
        return [
            (uid, s)
            for uid, s in eligible
            if report_phase.get(uid, 0) == t % cfg.w
        ]
    target = (rate or 0.0) * len(eligible)
    if stochastic_round:
        n_sample = int(target) + int(rng.random() < (target - int(target)))
    else:
        n_sample = int(round(target))
    if n_sample <= 0 or not eligible:
        return []
    idx = rng.choice(
        len(eligible), size=min(n_sample, len(eligible)), replace=False
    )
    return [eligible[int(i)] for i in np.atleast_1d(idx)]


def sample_population_reporters_batch(
    tracker,
    report_phase: dict,
    rng,
    cfg,
    t: int,
    batch: ReportBatch,
    newly_entered,
    rate: Optional[float],
    stochastic_round: bool = False,
) -> np.ndarray:
    """Columnar twin of :func:`sample_population_reporters`.

    Returns the selected *row indices* into ``batch`` (in selection order).
    Draws from ``rng`` in exactly the same sequence as the object version —
    one ``integers`` call per arrival under the "random" strategy, one
    ``random`` call for stochastic rounding, one ``choice`` call over the
    eligible set — so for a fixed seed both samplers select the same users
    in the same order (pinned by ``tests/core/test_columnar_equivalence``).
    """
    entered = [int(u) for u in newly_entered]
    tracker.register(entered)
    if cfg.allocator == "random":
        for uid in entered:
            report_phase[uid] = int(rng.integers(0, cfg.w))
    tracker.recycle(t)
    eligible_rows = np.flatnonzero(tracker.active_mask(batch.user_ids))
    if cfg.allocator == "random":
        phase = t % cfg.w
        keep = [
            i
            for i, uid in zip(
                eligible_rows.tolist(), batch.user_ids[eligible_rows].tolist()
            )
            if report_phase.get(uid, 0) == phase
        ]
        return np.asarray(keep, dtype=np.int64)
    n_eligible = int(eligible_rows.size)
    target = (rate or 0.0) * n_eligible
    if stochastic_round:
        n_sample = int(target) + int(rng.random() < (target - int(target)))
    else:
        n_sample = int(round(target))
    if n_sample <= 0 or n_eligible == 0:
        return np.empty(0, dtype=np.int64)
    idx = rng.choice(n_eligible, size=min(n_sample, n_eligible), replace=False)
    return eligible_rows[np.atleast_1d(idx)]


@dataclass(frozen=True)
class TimestepResult:
    """What happened inside one :meth:`OnlineRetraSyn.process_timestep`."""

    t: int
    n_reporters: int
    epsilon_used: float
    n_significant: int
    n_live_synthetic: int


class OnlineRetraSyn:
    """Stateful per-timestamp RetraSyn curator.

    Parameters
    ----------
    grid:
        Discretisation grid shared with the reporting users.
    config:
        A :class:`~repro.core.retrasyn.RetraSynConfig`.
    lam:
        Termination restriction factor λ (Eq. 8).  The batch pipeline
        defaults it to the dataset's average length; online deployments
        supply a domain estimate.
    """

    def __init__(self, grid: Grid, config, lam: float) -> None:
        if lam <= 0:
            raise ConfigurationError(f"lambda must be positive, got {lam}")
        self.grid = grid
        self.config = config
        self.lam = float(lam)
        self.rng = ensure_rng(config.seed)
        self.space = TransitionStateSpace(
            grid, include_entering_quitting=config.model_entering_quitting
        )
        self.encoder = UserSideEncoder(self.space)
        self.model = GlobalMobilityModel(self.space)
        if config.engine == "vectorized":
            from repro.core.fast_synthesis import VectorizedSynthesizer

            self.synthesizer = VectorizedSynthesizer(
                self.model,
                lam=lam,
                enable_termination=config.model_entering_quitting,
                rng=self.rng,
                compile_mode=getattr(config, "compile_mode", "incremental"),
                synthesis_shards=getattr(config, "synthesis_shards", 1),
            )
        else:
            self.synthesizer = Synthesizer(
                self.model,
                lam=lam,
                enable_termination=config.model_entering_quitting,
                rng=self.rng,
            )
        self.selector = DMUSelector()
        self.context = AllocationContext(kappa=config.kappa)
        # One uid -> slot table backs both columnar user-state planes: the
        # tracker's status columns and the accountant's spend ring buffer.
        self._slots = UserSlotTable()
        self.accountant = (
            make_accountant(
                config.epsilon,
                config.w,
                mode=getattr(config, "accountant_mode", "columnar"),
                slots=self._slots,
            )
            if config.track_privacy
            else None
        )
        self.timings = {
            "user_side": 0.0,
            "model_construction": 0.0,
            "dmu": 0.0,
            "synthesis": 0.0,
        }
        self.reporters_per_timestamp: list[int] = []
        self.significant_per_timestamp: list[int] = []
        self._model_initialized = False
        self._last_t: Optional[int] = None
        # Cumulative plausibly-observed support, grown by each collection
        # round; only consulted when config.dmu_prefilter is on.
        self._dmu_candidates = np.zeros(self.space.size, dtype=bool)

        if config.division == "population":
            self._pop_alloc = (
                None
                if config.allocator == "random"
                else make_population_allocator(
                    config.allocator, config.w,
                    alpha=config.alpha, p_max=config.p_max,
                )
            )
            self._budget_alloc = None
            self._tracker = UserTracker(config.w, slots=self._slots)
            self._report_phase: dict[int, int] = {}
        else:
            self._pop_alloc = None
            self._budget_alloc = make_budget_allocator(
                config.allocator, config.epsilon, config.w,
                alpha=config.alpha, p_max=config.p_max,
            )
            self._tracker = None

    # ------------------------------------------------------------------ #
    # the per-timestamp protocol round
    # ------------------------------------------------------------------ #
    def process_timestep(
        self,
        t: int,
        participants,
        newly_entered: Sequence[int] = (),
        quitted: Sequence[int] = (),
        n_real_active: int = 0,
    ) -> TimestepResult:
        """Run one full collection → update → synthesis round.

        ``participants`` describes every user *able* to report at ``t`` —
        either a columnar :class:`~repro.stream.reports.ReportBatch` (the
        native representation) or object-path ``(user_id, state)`` pairs,
        which are bridged into a batch here.  The allocation strategy
        decides who actually reports; ``n_real_active`` drives size
        adjustment.
        """
        cfg = self.config
        if self._last_t is not None and t != self._last_t + 1:
            raise ConfigurationError(
                f"timestamps must be consecutive: got {t} after {self._last_t}"
            )
        self._last_t = t

        batch = as_report_batch(self.space, participants)
        if not cfg.model_entering_quitting:
            batch = batch.moves_only()
        entered = np.asarray(newly_entered, dtype=np.int64)
        quit_ids = np.asarray(quitted, dtype=np.int64)

        collected, n_reporters, eps_used = self._collect_round(
            t, batch, entered, quit_ids
        )
        self.reporters_per_timestamp.append(n_reporters)

        n_significant = self._update_model(collected, eps_used, n_reporters)
        self.significant_per_timestamp.append(n_significant)

        self._synthesize(t, n_real_active)
        return TimestepResult(
            t=t,
            n_reporters=n_reporters,
            epsilon_used=eps_used if n_reporters else 0.0,
            n_significant=n_significant,
            n_live_synthetic=self.synthesizer.n_live,
        )

    def process_timesteps(self, items) -> list[TimestepResult]:
        """Run a group of consecutive rounds; one result per timestamp.

        ``items`` is a sequence of ``(t, participants, newly_entered,
        quitted, n_real_active)`` tuples in timestamp order.  The unsharded
        curator's collection phase draws from the engine RNG, so there is
        no safe overlap here — this base implementation is the sequential
        reference the sharded engine's pipelined override must stay
        bit-identical to.
        """
        return [
            self.process_timestep(t, participants, entered, quitted, n_active)
            for t, participants, entered, quitted, n_active in items
        ]

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #
    def _collect_round(self, t, batch: ReportBatch, newly_entered, quitted):
        """Selection + private collection for one timestamp (columnar).

        Returns ``(collected, n_reporters, eps_used)``.  This is the hook
        :class:`~repro.core.sharded.ShardedOnlineRetraSyn` overrides: the
        model-update and synthesis phases downstream are shared.
        """
        chosen, eps_used = self._select_reporters(t, batch, newly_entered)
        collected = self._collect(t, chosen, eps_used)
        if self._tracker is not None:
            self._tracker.mark_quitted(quitted)
        return collected, len(chosen), eps_used

    def _select_reporters(self, t, batch: ReportBatch, newly_entered):
        cfg = self.config
        if cfg.division == "population":
            rate = (
                None
                if cfg.allocator == "random"
                else self._pop_alloc.propose(t, self.context)
            )
            rows = sample_population_reporters_batch(
                self._tracker, self._report_phase, self.rng, cfg,
                t, batch, newly_entered, rate,
            )
            return batch.take(rows), cfg.epsilon

        eps_t = self._propose_budget(t, batch)
        if eps_t < _MIN_EPSILON:
            chosen, eps_used = ReportBatch.empty(), 0.0
        else:
            chosen, eps_used = batch, eps_t
        self._budget_alloc.commit(eps_used)
        return chosen, eps_used

    def _propose_budget(self, t, batch: ReportBatch) -> float:
        """The round's ε_t under budget division.

        Per-user allocators (``allocator="adaptive-user"``) additionally
        receive the candidate batch's remaining window budgets from the
        privacy ledger, so spends adapt to the tightest participant rather
        than the schedule-level worst case.
        """
        alloc = self._budget_alloc
        if getattr(alloc, "consults_users", False):
            remaining = None
            if self.accountant is not None and len(batch):
                remaining = self.accountant.remaining_many(batch.user_ids, t)
            return alloc.propose_for(t, self.context, remaining)
        return alloc.propose(t, self.context)

    def _collect(self, t, chosen: ReportBatch, eps_used):
        if len(chosen) == 0:
            return None
        oracle = OptimizedUnaryEncoding(
            self.space.size, eps_used, rng=self.rng, mode=self.config.oracle_mode
        )
        tic = time.perf_counter()
        ones = oracle.simulate_ones(chosen.state_idx)
        self.timings["user_side"] += time.perf_counter() - tic

        tic = time.perf_counter()
        counts = oracle.debias(ones, len(chosen))
        collected = counts / len(chosen)
        self.timings["model_construction"] += time.perf_counter() - tic

        if self.accountant is not None:
            self.accountant.spend_many(chosen.user_ids, t, eps_used)
        if self._tracker is not None:
            self._tracker.mark_reported(chosen.user_ids, t)
        if self.config.dmu_prefilter:
            self._dmu_candidates |= support_mask(ones, len(chosen), oracle.q)
        self.context.record_collection(collected)
        return collected

    def _update_model(self, collected, eps_used, n_reporters) -> int:
        tic = time.perf_counter()
        n_significant = 0
        if collected is not None:
            if not self._model_initialized or self.config.update_strategy == "all":
                self.model.set_all(collected)
                n_significant = self.space.size
                self._model_initialized = True
            else:
                candidates = (
                    self._dmu_candidates if self.config.dmu_prefilter else None
                )
                decision = self.selector.select(
                    self.model.frequencies, collected, eps_used, n_reporters,
                    candidates=candidates,
                )
                self.model.update_selected(decision.selected, collected)
                n_significant = decision.n_selected
            self.context.record_significant_ratio(n_significant / self.space.size)
        self.timings["dmu"] += time.perf_counter() - tic
        return n_significant

    def _synthesize(self, t, n_real_active) -> None:
        cfg = self.config
        tic = time.perf_counter()
        if t == 0:
            if cfg.model_entering_quitting:
                self.synthesizer.spawn_from_entering(0, n_real_active)
            else:
                self.synthesizer.spawn_uniform(0, n_real_active)
        else:
            target = n_real_active if cfg.model_entering_quitting else None
            self.synthesizer.step(t, target)
        self.timings["synthesis"] += time.perf_counter() - tic

    # ------------------------------------------------------------------ #
    # checkpointing (see repro.core.persistence)
    # ------------------------------------------------------------------ #
    def checkpoint_state(self) -> dict:
        """Everything needed to resume this curator bit-for-bit.

        The whole attribute graph (rng, model, synthesizer, tracker,
        allocators, accountant, feedback context, …) is returned as one
        dict so that shared references — e.g. the synthesizer drawing from
        the curator's rng — survive a pickle round trip intact.
        """
        return dict(self.__dict__)

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint_state` on a freshly built curator."""
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # outputs
    # ------------------------------------------------------------------ #
    def live_snapshot(self) -> np.ndarray:
        """Current cells of all live synthetic streams.

        Served straight from the trajectory store's cell buffer — no
        ``CellTrajectory`` objects are materialised.
        """
        return self.synthesizer.live_last_cells()

    def synthetic_dataset(self, n_timestamps: int, name: str = "online"):
        """Everything synthesized so far, as a store-backed StreamDataset.

        No ``CellTrajectory`` objects are materialised here: the dataset's
        trajectory sequence is a lazy view over the columnar store (built
        per stream only if a consumer indexes it), and the per-timestamp
        count matrix — what the streaming metrics actually consume — is
        primed from the store arrays directly.
        """
        from repro.stream.stream import StreamDataset

        dataset = StreamDataset.from_store(
            self.grid,
            self.synthesizer.store,
            rows=self.synthesizer.all_rows(),
            n_timestamps=n_timestamps,
            name=name,
        )
        dataset.prime_cell_counts(
            self.synthesizer.store.counts_matrix(
                dataset.n_timestamps, self.grid.n_cells
            )
        )
        return dataset

    def result(self, n_timestamps: int, name: str = "online", total_runtime: float = 0.0):
        """Package the curator's state as a finished SynthesisRun."""
        from repro.core.retrasyn import SynthesisRun

        return SynthesisRun(
            synthetic=self.synthetic_dataset(n_timestamps, name=name),
            config=self.config,
            accountant=self.accountant,
            timings=self.timings,
            reporters_per_timestamp=self.reporters_per_timestamp,
            significant_per_timestamp=self.significant_per_timestamp,
            total_runtime=total_runtime or sum(self.timings.values()),
        )
