"""ISSUE 9 acceptance: pipelined multi-timestamp rounds ≡ per-timestamp.

``round_batch > 1`` lets the coordinator coalesce several closed
timestamps into one shard round — fused ``-many`` frames for the
schedule-division allocators, fused submit + per-timestamp advance for
the adaptive ones — and overlaps synthesis of round ``t`` with the
collection of round ``t+1``.  None of that may be observable in the
output: for a fixed seed every depth must synthesize the identical
stream, return the identical :class:`TimestepResult` sequence and agree
on the privacy ledger with the depth-1 protocol, on every executor and
under both allocator families, including a checkpoint/restore that cuts
a pipeline batch in half.
"""

import pytest

from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.core.retrasyn import RetraSynConfig
from repro.core.sharded import ShardedOnlineRetraSyn
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def stream():
    # 17 timestamps: not a multiple of either tested depth, so every
    # pipelined drive ends on a partial tail group.
    return make_random_walks(k=4, n_streams=90, n_timestamps=17, seed=2)


def _make(stream, executor, n_shards=2, **overrides):
    cfg = RetraSynConfig(
        epsilon=1.0, w=5, seed=42, n_shards=n_shards,
        shard_executor=executor, **overrides,
    )
    return ShardedOnlineRetraSyn(stream.grid, cfg, lam=5.0)


def _rounds(stream):
    return [
        (
            t,
            stream.participants_at(t),
            stream.newly_entered_at(t),
            stream.quitted_at(t),
            stream.n_active_at(t),
        )
        for t in range(stream.n_timestamps)
    ]


def _drive(stream, curator, depth):
    """Feed the whole stream in ``depth``-sized groups; fingerprint it."""
    rounds = _rounds(stream)
    results = []
    try:
        for lo in range(0, len(rounds), depth):
            results.extend(curator.process_timesteps(rounds[lo : lo + depth]))
        syn = curator.synthetic_dataset(stream.n_timestamps)
        cells = [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]
        summary = (
            curator.accountant.summary()
            if curator.accountant is not None
            else None
        )
        return {"cells": cells, "results": results, "ledger": summary}
    finally:
        curator.close()


DEPTHS = [pytest.param(3, id="depth3"), pytest.param(8, id="depth8")]
EXECUTORS = ["serial", "distributed"]


class TestDepthsBitIdentical:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_executor_sweep(self, stream, executor, depth):
        reference = _drive(stream, _make(stream, executor), 1)
        pipelined = _drive(stream, _make(stream, executor), depth)
        assert pipelined == reference

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(
                {"division": "population", "allocator": alloc},
                id=f"population-{alloc}",
            )
            for alloc in ("uniform", "sample", "random", "adaptive")
        ]
        + [
            pytest.param(
                {"division": "budget", "allocator": alloc},
                id=f"budget-{alloc}",
            )
            for alloc in ("uniform", "sample", "adaptive", "adaptive-user")
        ],
    )
    def test_allocator_families_distributed(self, stream, overrides):
        """Every allocator, fused frames where eligible, depth 8 ≡ 1.

        The schedule-division allocators take the fully fused path
        (``shard-submit-many`` + ``shard-advance-many``); the adaptive
        ones degrade to fused submit + per-timestamp advance; budget
        ``adaptive-user`` needs per-user remainders and stays on the
        per-timestamp protocol entirely.  All must be unobservable.
        """
        reference = _drive(
            stream, _make(stream, "distributed", **overrides), 1
        )
        pipelined = _drive(
            stream, _make(stream, "distributed", **overrides), 8
        )
        assert pipelined == reference

    def test_depth_beyond_stream_length(self, stream):
        whole = _drive(stream, _make(stream, "serial"), stream.n_timestamps + 5)
        reference = _drive(stream, _make(stream, "serial"), 1)
        assert whole == reference


class TestCheckpointMidPipelineBatch:
    @pytest.mark.parametrize("resume_depth", [1, 8])
    def test_restore_cuts_a_batch(self, stream, tmp_path, resume_depth):
        """Checkpoint after t=5 with depth 3, resume at a different depth.

        The restored engine continues from timestamp 6 — the middle of
        what an uninterrupted depth-8 drive would have treated as one
        fused group — and must still reproduce the depth-1 run exactly.
        """
        reference = _drive(stream, _make(stream, "distributed"), 1)

        rounds = _rounds(stream)
        first = _make(stream, "distributed")
        for lo in (0, 3):
            first.process_timesteps(rounds[lo : lo + 3])
        path = tmp_path / "pipelined.ckpt"
        save_checkpoint(first, path)
        first.close()

        resumed = load_checkpoint(path)
        results = []
        try:
            assert resumed._last_t == 5
            for lo in range(6, len(rounds), resume_depth):
                results.extend(
                    resumed.process_timesteps(rounds[lo : lo + resume_depth])
                )
            syn = resumed.synthetic_dataset(stream.n_timestamps)
            cells = [
                (tr.start_time, list(tr.cells)) for tr in syn.trajectories
            ]
            summary = resumed.accountant.summary()
        finally:
            resumed.close()

        assert cells == reference["cells"]
        assert results == reference["results"][6:]
        assert summary == reference["ledger"]


class TestPipelineValidation:
    def test_round_batch_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RetraSynConfig(round_batch=0)

    def test_non_consecutive_timestamps_rejected(self, stream):
        rounds = _rounds(stream)
        curator = _make(stream, "serial")
        try:
            with pytest.raises(ConfigurationError):
                curator.process_timesteps([rounds[0], rounds[2]])
        finally:
            curator.close()

    def test_gap_after_earlier_groups_rejected(self, stream):
        rounds = _rounds(stream)
        curator = _make(stream, "distributed")
        try:
            curator.process_timesteps(rounds[0:3])
            with pytest.raises(ConfigurationError):
                curator.process_timesteps(rounds[4:6])
        finally:
            curator.close()
