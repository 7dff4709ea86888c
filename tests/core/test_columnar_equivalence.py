"""ISSUE 2 acceptance: columnar + async paths ≡ object path, bit for bit.

Three entry points feed the same curator code:

* the **object path** — ``process_timestep`` with per-user
  ``(uid, TransitionState)`` lists (the seed repo's representation);
* the **columnar path** — ``process_timestep`` with
  :class:`~repro.stream.reports.ReportBatch` index arrays from a
  :class:`~repro.stream.reports.ColumnarStreamView`;
* the **async path** — the full ingestion service, including out-of-order
  arrival within the watermark window.

For a fixed RNG seed all three must synthesize the *identical* stream —
across shard counts (K=1, K=4) and executors (serial, process).  Any drift
in selection order, partitioning, or batch assembly breaks these tests.
"""

import numpy as np
import pytest

from repro.core.online import (
    OnlineRetraSyn,
    sample_population_reporters,
    sample_population_reporters_batch,
)
from repro.core.retrasyn import RetraSynConfig
from repro.core.sharded import ShardedOnlineRetraSyn
from repro.datasets.synthetic import make_random_walks
from repro.stream.ingest import dataset_reports, ingest_events
from repro.stream.reports import ColumnarStreamView, ReportBatch
from repro.stream.user_tracker import UserTracker


@pytest.fixture(scope="module")
def stream():
    return make_random_walks(k=4, n_streams=130, n_timestamps=22, seed=1)


def _fingerprint(curator, n_timestamps):
    syn = curator.synthetic_dataset(n_timestamps)
    return [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]


def _make(stream, n_shards, executor, **overrides):
    cfg = RetraSynConfig(
        epsilon=1.0, w=5, seed=42, n_shards=n_shards,
        shard_executor=executor, **overrides,
    )
    if n_shards > 1:
        return ShardedOnlineRetraSyn(stream.grid, cfg, lam=5.0)
    return OnlineRetraSyn(stream.grid, cfg, lam=5.0)


def _drive_object(stream, curator):
    for t in range(stream.n_timestamps):
        curator.process_timestep(
            t,
            participants=stream.participants_at(t),
            newly_entered=stream.newly_entered_at(t),
            quitted=stream.quitted_at(t),
            n_real_active=stream.n_active_at(t),
        )
    return _fingerprint(curator, stream.n_timestamps)


def _drive_columnar(stream, curator):
    view = ColumnarStreamView(stream, curator.space)
    for t in range(stream.n_timestamps):
        curator.process_timestep(
            t,
            participants=view.batch_at(t),
            newly_entered=view.newly_entered_at(t),
            quitted=view.quitted_at(t),
            n_real_active=view.n_active_at(t),
        )
    return _fingerprint(curator, stream.n_timestamps)


def _drive_async(stream, curator, max_lateness=2, shuffle_seed=None):
    view = ColumnarStreamView(stream, curator.space)
    rng = (
        np.random.default_rng(shuffle_seed) if shuffle_seed is not None else None
    )
    reports = dataset_reports(
        view, shuffle_rng=rng, block=max_lateness + 1
    )
    stats = ingest_events(
        curator, reports, queue_size=256, max_lateness=max_lateness
    )
    assert stats.n_late_dropped == 0
    assert stats.n_timestamps == stream.n_timestamps
    return _fingerprint(curator, stream.n_timestamps)


CONFIGS = [
    pytest.param(1, "serial", id="K1-serial"),
    pytest.param(4, "serial", id="K4-serial"),
]


class TestColumnarMatchesObject:
    @pytest.mark.parametrize("n_shards,executor", CONFIGS)
    def test_identical_synthetic_stream(self, stream, n_shards, executor):
        a = _drive_object(stream, _make(stream, n_shards, executor))
        b = _drive_columnar(stream, _make(stream, n_shards, executor))
        assert a == b

    def test_budget_division_identical(self, stream):
        a = _drive_object(stream, _make(stream, 4, "serial", division="budget"))
        b = _drive_columnar(stream, _make(stream, 4, "serial", division="budget"))
        assert a == b

    def test_random_allocator_identical(self, stream):
        a = _drive_object(stream, _make(stream, 4, "serial", allocator="random"))
        b = _drive_columnar(stream, _make(stream, 4, "serial", allocator="random"))
        assert a == b

    def test_noeq_variant_identical(self, stream):
        a = _drive_object(
            stream, _make(stream, 4, "serial", model_entering_quitting=False)
        )
        b = _drive_columnar(
            stream, _make(stream, 4, "serial", model_entering_quitting=False)
        )
        assert a == b


class TestAsyncMatchesObject:
    @pytest.mark.parametrize("n_shards,executor", CONFIGS)
    def test_in_order_ingestion_identical(self, stream, n_shards, executor):
        a = _drive_object(stream, _make(stream, n_shards, executor))
        b = _drive_async(stream, _make(stream, n_shards, executor))
        assert a == b

    def test_shuffled_arrival_identical(self, stream):
        """Out-of-order delivery within the watermark changes nothing."""
        a = _drive_object(stream, _make(stream, 4, "serial"))
        b = _drive_async(
            stream, _make(stream, 4, "serial"), max_lateness=3, shuffle_seed=7
        )
        assert a == b


class TestSamplerEquivalence:
    """The two reporter samplers must draw the same users in the same order."""

    def test_object_and_batch_samplers_agree(self, stream):
        cfg = RetraSynConfig(epsilon=1.0, w=4, seed=0)
        participants = stream.participants_at(1)
        uids = [uid for uid, _s in participants]

        rng_a = np.random.default_rng(33)
        tr_a = UserTracker(cfg.w)
        tr_a.register(uids)
        chosen = sample_population_reporters(
            tr_a, {}, rng_a, cfg, 1, participants, [], rate=0.4
        )

        rng_b = np.random.default_rng(33)
        tr_b = UserTracker(cfg.w)
        tr_b.register(uids)
        batch = ReportBatch.from_arrays(
            uids, np.zeros(len(uids)), np.zeros(len(uids))
        )
        rows = sample_population_reporters_batch(
            tr_b, {}, rng_b, cfg, 1, batch, [], rate=0.4
        )
        assert [uid for uid, _s in chosen] == batch.user_ids[rows].tolist()
