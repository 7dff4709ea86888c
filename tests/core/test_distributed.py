"""The distributed shard plane ≡ the in-process serial engine.

``shard_executor="distributed"`` promotes every collection shard to its
own worker process behind a socketpair carrying length-prefixed RSF2
frames, with the privacy ledger living *inside* the worker.  None of
that may be observable in the output: for a fixed seed the distributed
engine must synthesize the identical stream to the serial executor at
every shard count, its merged accountant view must agree
with the single-process ledger, checkpoints must round-trip through the
coordinator, and worker-side failures must surface as the same typed
exceptions the in-process path raises.
"""

import pickle

import pytest

from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.core.retrasyn import RetraSynConfig
from repro.core.sharded import ShardedOnlineRetraSyn
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError, PrivacyBudgetError


@pytest.fixture(scope="module")
def stream():
    return make_random_walks(k=4, n_streams=130, n_timestamps=22, seed=1)


def _make(stream, n_shards, executor, **overrides):
    cfg = RetraSynConfig(
        epsilon=1.0, w=5, seed=42, n_shards=n_shards,
        shard_executor=executor, **overrides,
    )
    return ShardedOnlineRetraSyn(stream.grid, cfg, lam=5.0)


def _drive(stream, curator):
    try:
        for t in range(stream.n_timestamps):
            curator.process_timestep(
                t,
                participants=stream.participants_at(t),
                newly_entered=stream.newly_entered_at(t),
                quitted=stream.quitted_at(t),
                n_real_active=stream.n_active_at(t),
            )
        syn = curator.synthetic_dataset(stream.n_timestamps)
        return [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]
    finally:
        curator.close()


SHARD_COUNTS = [pytest.param(1, id="K1"), pytest.param(4, id="K4")]


class TestDistributedMatchesInProcess:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_identical_to_serial(self, stream, n_shards):
        serial = _drive(stream, _make(stream, n_shards, "serial"))
        distributed = _drive(stream, _make(stream, n_shards, "distributed"))
        assert distributed == serial

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(
                {"division": "budget", "allocator": "adaptive-user"},
                id="budget-adaptive-user",
            ),
            pytest.param(
                {"division": "budget", "allocator": "uniform"},
                id="budget-uniform",
            ),
            pytest.param(
                {"division": "population", "allocator": "random"},
                id="population-random",
            ),
            pytest.param({"dmu_prefilter": True}, id="dmu-prefilter"),
        ],
    )
    def test_config_variants_identical(self, stream, overrides):
        serial = _drive(stream, _make(stream, 4, "serial", **overrides))
        distributed = _drive(
            stream, _make(stream, 4, "distributed", **overrides)
        )
        assert distributed == serial


class TestDistributedAccountantView:
    def test_summary_matches_serial_ledger(self, stream):
        serial = _make(stream, 4, "serial")
        distributed = _make(stream, 4, "distributed")
        assert _drive(stream, serial) == _drive(stream, distributed)
        # _drive closed both engines; the view must keep answering from
        # the final summaries the coordinator cached at close().
        assert distributed.accountant.summary() == serial.accountant.summary()
        assert distributed.accountant.verify()
        assert (
            distributed.accountant.max_window_spend()
            == serial.accountant.max_window_spend()
        )
        assert distributed.accountant.n_users == serial.accountant.n_users
        assert list(distributed.accountant.violations) == list(
            serial.accountant.violations
        )

    def test_view_live_and_pickled(self, stream):
        curator = _make(stream, 2, "distributed")
        try:
            for t in range(6):
                curator.process_timestep(
                    t,
                    participants=stream.participants_at(t),
                    newly_entered=stream.newly_entered_at(t),
                    quitted=stream.quitted_at(t),
                    n_real_active=stream.n_active_at(t),
                )
            live = curator.accountant.summary()
            assert live["n_users"] > 0
            # Pickling freezes the stats and drops the engine reference.
            thawed = pickle.loads(pickle.dumps(curator.accountant))
            assert thawed.summary() == live
            assert thawed.epsilon == curator.accountant.epsilon
            assert thawed.w == curator.accountant.w
        finally:
            curator.close()

    def test_untracked_engine_has_no_accountant(self, stream):
        curator = _make(stream, 2, "distributed", track_privacy=False)
        try:
            assert curator.accountant is None
        finally:
            curator.close()


class TestDistributedCheckpoint:
    def test_roundtrip_through_coordinator(self, stream, tmp_path):
        half = stream.n_timestamps // 2

        def _step(curator, t):
            curator.process_timestep(
                t,
                participants=stream.participants_at(t),
                newly_entered=stream.newly_entered_at(t),
                quitted=stream.quitted_at(t),
                n_real_active=stream.n_active_at(t),
            )

        reference = _drive(stream, _make(stream, 2, "distributed"))

        first = _make(stream, 2, "distributed")
        for t in range(half):
            _step(first, t)
        path = tmp_path / "distributed.ckpt"
        save_checkpoint(first, path)
        first.close()

        resumed = load_checkpoint(path)
        try:
            assert resumed.executor == "distributed"
            assert resumed._last_t == half - 1
            for t in range(half, stream.n_timestamps):
                _step(resumed, t)
            syn = resumed.synthetic_dataset(stream.n_timestamps)
            result = [
                (tr.start_time, list(tr.cells)) for tr in syn.trajectories
            ]
            summary = resumed.accountant.summary()
        finally:
            resumed.close()

        assert result == reference
        assert summary["satisfied"]


class TestWorkerErrorPropagation:
    def test_privacy_refusal_surfaces_typed(self, stream):
        """A worker-side ledger refusal crosses the socket as the same
        PrivacyBudgetError the in-process path raises.

        Budget division makes every participant a reporter; with w=1 a
        duplicated user id in one batch double-spends its window.
        """
        cfg = RetraSynConfig(
            epsilon=1.0, w=1, seed=0, n_shards=2,
            shard_executor="distributed",
            division="budget", allocator="uniform",
        )
        curator = ShardedOnlineRetraSyn(stream.grid, cfg, lam=5.0)
        try:
            parts = stream.participants_at(0)
            doubled = list(parts) + [parts[0]]
            with pytest.raises(PrivacyBudgetError):
                curator.process_timestep(
                    0,
                    participants=doubled,
                    newly_entered=stream.newly_entered_at(0),
                    quitted=stream.quitted_at(0),
                    n_real_active=stream.n_active_at(0),
                )
        finally:
            curator.close()

    def test_protocol_error_surfaces_typed(self, stream):
        """Advancing a timestamp that was never staged is a worker-side
        ConfigurationError and must arrive as one (workers stay alive)."""
        curator = _make(stream, 2, "distributed")
        try:
            with pytest.raises(ConfigurationError, match="shard-advance"):
                curator._pool.advance(99, None, 0.5)
            # The workers replied with the error rather than dying; the
            # coordinator can still shut the pool down in an orderly way
            # (like the in-process path, an engine is closed after a
            # protocol/refusal error, not reused).
            assert curator._pool.alive
        finally:
            curator.close()
