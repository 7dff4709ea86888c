"""Tests for model/config persistence and curator checkpoint/resume."""

import numpy as np
import pytest

from repro.core.mobility_model import GlobalMobilityModel
from repro.core.online import OnlineRetraSyn
from repro.core.persistence import (
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    load_config,
    load_model,
    save_checkpoint,
    save_config,
    save_model,
)
from repro.core.retrasyn import RetraSynConfig
from repro.core.sharded import ShardedOnlineRetraSyn
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError, DatasetError


def _edit_checkpoint(path, edit):
    """Rewrite the pickled checkpoint payload at ``path`` in place."""
    import pickle

    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    edit(payload)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


class TestModelRoundTrip:
    def test_frequencies_preserved(self, space4, rng, tmp_path):
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(loaded.frequencies, model.frequencies)

    def test_space_geometry_preserved(self, space4, tmp_path):
        model = GlobalMobilityModel(space4)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.space.grid == space4.grid
        assert loaded.space.include_eq == space4.include_eq
        assert loaded.space.size == space4.size

    def test_noeq_space_round_trip(self, space4_noeq, tmp_path):
        model = GlobalMobilityModel(space4_noeq)
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.space.include_eq is False

    def test_distributions_survive(self, space4, rng, tmp_path):
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path)
        for origin in range(space4.n_cells):
            p1, q1 = model.row_distribution(origin)
            p2, q2 = loaded.row_distribution(origin)
            assert np.allclose(p1, p2)
            assert q1 == pytest.approx(q2)
        assert np.allclose(model.enter_distribution(), loaded.enter_distribution())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_model(tmp_path / "absent.npz")

    def test_resume_synthesis_from_saved_model(self, space4, rng, tmp_path):
        """A restored model must drive a synthesizer identically."""
        from repro.core.synthesis import Synthesizer

        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        save_model(model, tmp_path / "m.npz")
        loaded = load_model(tmp_path / "m.npz")

        def simulate(m, seed):
            syn = Synthesizer(m, lam=10.0, rng=seed)
            syn.spawn_from_entering(0, 50)
            for t in range(1, 8):
                syn.step(t)
            return [tr.cells for tr in syn.all_trajectories()]

        assert simulate(model, 7) == simulate(loaded, 7)


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = RetraSynConfig(
            epsilon=1.5, w=12, division="budget", allocator="uniform",
            engine="vectorized", seed=42,
        )
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = RetraSynConfig(epsilon=0.5, w=30, allocator="sample", seed=1)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_generator_seed_dropped(self):
        import numpy as np

        cfg = RetraSynConfig(seed=np.random.default_rng(0))
        d = config_to_dict(cfg)
        assert d["seed"] is None

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"epsilon": 1.0, "bogus": True})

    def test_invalid_values_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"epsilon": -1.0}')
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_config(tmp_path / "absent.json")


class TestCheckpointResume:
    """ISSUE 2 satellite: checkpoint → resume must be bitwise-lossless.

    A run interrupted at ``t = T/2`` and resumed from its checkpoint must
    synthesize the identical stream — same trajectories, same privacy
    ledger — as a run that was never interrupted.  The checkpoint
    therefore has to capture *everything*: rng state, model, live
    synthetic streams, per-shard trackers, allocator feedback and the
    accountant.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return make_random_walks(k=4, n_streams=100, n_timestamps=20, seed=4)

    def _step(self, curator, data, t):
        curator.process_timestep(
            t,
            participants=data.participants_at(t),
            newly_entered=data.newly_entered_at(t),
            quitted=data.quitted_at(t),
            n_real_active=data.n_active_at(t),
        )

    def _fingerprint(self, curator, data):
        syn = curator.synthetic_dataset(data.n_timestamps)
        return [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]

    def _run_with_interruption(
        self, data, make_curator, tmp_path, half, edit=None
    ):
        # Uninterrupted reference run.
        ref = make_curator()
        for t in range(data.n_timestamps):
            self._step(ref, data, t)
        reference = self._fingerprint(ref, data)
        ref_summary = ref.accountant.summary()
        if hasattr(ref, "close"):
            ref.close()

        # Interrupted run: checkpoint at `half`, discard, resume, finish.
        first = make_curator()
        for t in range(half):
            self._step(first, data, t)
        path = tmp_path / "curator.ckpt"
        save_checkpoint(first, path)
        if hasattr(first, "close"):
            first.close()
        del first
        if edit is not None:
            _edit_checkpoint(path, edit)

        resumed = load_checkpoint(path)
        assert resumed._last_t == half - 1
        for t in range(half, data.n_timestamps):
            self._step(resumed, data, t)
        result = self._fingerprint(resumed, data)
        res_summary = resumed.accountant.summary()
        if hasattr(resumed, "close"):
            resumed.close()

        assert result == reference
        assert res_summary == ref_summary

    def test_online_curator_roundtrip(self, data, tmp_path):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=17)
        self._run_with_interruption(
            data, lambda: OnlineRetraSyn(data.grid, cfg, lam=5.0),
            tmp_path, half=data.n_timestamps // 2,
        )

    def test_sharded_serial_roundtrip(self, data, tmp_path):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=17, n_shards=3)
        self._run_with_interruption(
            data, lambda: ShardedOnlineRetraSyn(data.grid, cfg, lam=5.0),
            tmp_path, half=data.n_timestamps // 2,
        )

    def test_checkpoints_naming_removed_executors(self, data, tmp_path):
        """Checkpoints written while the pipe-pool shard executor and the
        process synthesis slabs existed: a ``shard_executor="process"``
        config fails typed; the stale ``synthesis_executor`` attribute
        every such checkpoint pickles is inert."""
        cfg = RetraSynConfig(
            epsilon=1.0, w=5, seed=17, n_shards=2, engine="vectorized"
        )

        def stale_executor_field(payload):
            payload["config"].synthesis_executor = "thread"
            payload["state"]["synthesizer"].synthesis_executor = "thread"

        self._run_with_interruption(
            data, lambda: ShardedOnlineRetraSyn(data.grid, cfg, lam=5.0),
            tmp_path, half=data.n_timestamps // 2, edit=stale_executor_field,
        )

        def process_executor(payload):
            payload["config"].shard_executor = "process"

        for curator in (
            ShardedOnlineRetraSyn(data.grid, cfg, lam=5.0),
            OnlineRetraSyn(data.grid, cfg, lam=5.0),
        ):
            self._step(curator, data, 0)
            path = tmp_path / "process.ckpt"
            save_checkpoint(curator, path)
            if hasattr(curator, "close"):
                curator.close()
            _edit_checkpoint(path, process_executor)
            with pytest.raises(ConfigurationError, match="shard_executor"):
                load_checkpoint(path)

    def test_resumed_accountant_keeps_enforcing(self, data, tmp_path):
        """The restored ledger still refuses over-budget spends."""
        from repro.exceptions import PrivacyBudgetError

        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=3)
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(6):
            self._step(curator, data, t)
        path = tmp_path / "c.ckpt"
        save_checkpoint(curator, path)
        resumed = load_checkpoint(path)
        spenders = [
            uid for uid in resumed.accountant.user_ids()
            if resumed.accountant.window_spend(uid, 5) > 0
        ]
        assert spenders
        for uid in spenders[:5]:
            assert resumed.accountant.window_spend(
                uid, 5
            ) == curator.accountant.window_spend(uid, 5)
        # Strict mode must survive the round trip: a spend that would
        # overflow the window is refused, not recorded.
        with pytest.raises(PrivacyBudgetError):
            resumed.accountant.spend(spenders[0], 5, cfg.epsilon)

    def test_checkpoint_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_checkpoint_version_mismatch(self, data, tmp_path):
        import pickle

        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as fh:
            pickle.dump({"version": 999}, fh)
        with pytest.raises(DatasetError):
            load_checkpoint(path)


class TestCheckpointRotation:
    """``keep > 1``: timestamped generations, newest-valid fallback."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_random_walks(k=4, n_streams=60, n_timestamps=12, seed=4)

    def _curator_at(self, data, t_stop):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=17)
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(t_stop):
            curator.process_timestep(
                t,
                participants=data.participants_at(t),
                newly_entered=data.newly_entered_at(t),
                quitted=data.quitted_at(t),
                n_real_active=data.n_active_at(t),
            )
        return curator

    def test_keep_one_writes_the_bare_path(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        save_checkpoint(self._curator_at(data, 3), path, keep=1)
        assert path.exists()
        assert checkpoint_candidates(path) == [path]

    def test_generations_rotate_and_prune(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        for t_stop in (2, 4, 6, 8):
            save_checkpoint(self._curator_at(data, t_stop), path, keep=3)
        candidates = checkpoint_candidates(path)
        generations = [p for p in candidates if p.name != path.name]
        assert len(generations) == 3  # the oldest was pruned
        # lexicographic order of the zero-padded stamps == chronological
        assert generations == sorted(generations, reverse=True)
        assert load_checkpoint(path)._last_t == 7  # newest wins

    def test_corrupt_newest_falls_back_to_previous(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        save_checkpoint(self._curator_at(data, 4), path, keep=3)
        save_checkpoint(self._curator_at(data, 6), path, keep=3)
        newest = checkpoint_candidates(path)[0]
        newest.write_bytes(b"torn write: not a pickle")
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            resumed = load_checkpoint(path)
        assert resumed._last_t == 3  # the intact previous generation

    def test_all_generations_corrupt_raises(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        save_checkpoint(self._curator_at(data, 2), path, keep=2)
        save_checkpoint(self._curator_at(data, 3), path, keep=2)
        for p in checkpoint_candidates(path):
            p.write_bytes(b"garbage")
        with pytest.raises(DatasetError, match="no valid checkpoint"):
            with pytest.warns(RuntimeWarning):
                load_checkpoint(path)

    def test_checkpoint_exists_sees_generations_only(self, data, tmp_path):
        from repro.core.persistence import checkpoint_exists

        path = tmp_path / "c.ckpt"
        assert not checkpoint_exists(path)
        save_checkpoint(self._curator_at(data, 2), path, keep=2)
        assert checkpoint_exists(path)
        assert not path.exists()  # keep>1 writes generations, no bare file

    def test_resume_from_rotated_checkpoint_is_bitwise(self, data, tmp_path):
        path = tmp_path / "c.ckpt"
        half = data.n_timestamps // 2
        reference = self._curator_at(data, data.n_timestamps)
        interrupted = self._curator_at(data, half)
        save_checkpoint(interrupted, path, keep=4)
        resumed = load_checkpoint(path)
        for t in range(half, data.n_timestamps):
            resumed.process_timestep(
                t,
                participants=data.participants_at(t),
                newly_entered=data.newly_entered_at(t),
                quitted=data.quitted_at(t),
                n_real_active=data.n_active_at(t),
            )
        def fp(c):
            return [
                (tr.start_time, list(tr.cells))
                for tr in c.synthetic_dataset(data.n_timestamps).trajectories
            ]
        assert fp(resumed) == fp(reference)
        assert resumed.accountant.summary() == reference.accountant.summary()
