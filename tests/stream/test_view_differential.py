"""Differential tests: the flat ``ColumnarStreamView`` build against a loop.

``_loop_view`` is the reference oracle: it builds the view's six arrays one
trajectory at a time, the straightforward way.  The production build in
:mod:`repro.stream.reports` must match it byte for byte — values, dtypes
and row order inside each timestamp (which fixes the curator's RNG
consumption) — and must raise the same error text on the first illegal
move.  Inputs the loop mishandled (empty trajectories, out-of-grid cells
on enter/quit rows) are pinned separately as typed errors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.datasets.brinkhoff import make_oldenburg, make_sanjoaquin
from repro.datasets.io import load_stream_dataset, save_stream_dataset
from repro.datasets.synthetic import (
    make_lane_stream,
    make_random_walks,
    make_two_hotspot_stream,
)
from repro.datasets.tdrive import TDriveConfig, make_tdrive
from repro.exceptions import DatasetError, DomainError
from repro.geo.grid import unit_grid
from repro.geo.trajectory import CellTrajectory
from repro.stream.reports import (
    KIND_ENTER,
    KIND_MOVE,
    KIND_QUIT,
    ColumnarStreamView,
)
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset

FIELDS = ("_t", "_uid", "_idx", "_kind", "_lo", "_hi")


def _loop_view(dataset, space: TransitionStateSpace) -> dict[str, np.ndarray]:
    """Reference build of the view arrays, one trajectory at a time."""
    ts, uids, idxs, kinds = [], [], [], []
    for traj in dataset.trajectories:
        cells = np.asarray(traj.cells, dtype=np.int64)
        L = cells.size
        # enter at start, moves at start+1..end, quit at end+1
        t0 = traj.start_time
        n_rows = L + 1
        t_arr = np.arange(t0, t0 + n_rows, dtype=np.int64)
        uid_arr = np.full(n_rows, traj.user_id, dtype=np.int64)
        kind_arr = np.full(n_rows, KIND_MOVE, dtype=np.int8)
        kind_arr[0] = KIND_ENTER
        kind_arr[-1] = KIND_QUIT
        idx_arr = np.full(n_rows, -1, dtype=np.int64)
        if L > 1:
            idx_arr[1:L] = space.move_index_lookup(cells[:-1], cells[1:])
        if space.include_eq:
            idx_arr[0] = space.index_of_enter(0) + cells[0]
            idx_arr[-1] = space.index_of_quit(0) + cells[-1]
        ts.append(t_arr)
        uids.append(uid_arr)
        idxs.append(idx_arr)
        kinds.append(kind_arr)
    if ts:
        t_all = np.concatenate(ts)
        order = np.argsort(t_all, kind="stable")
        out = {
            "_t": t_all[order],
            "_uid": np.concatenate(uids)[order],
            "_idx": np.concatenate(idxs)[order],
            "_kind": np.concatenate(kinds)[order],
        }
    else:
        out = {
            "_t": np.empty(0, dtype=np.int64),
            "_uid": np.empty(0, dtype=np.int64),
            "_idx": np.empty(0, dtype=np.int64),
            "_kind": np.empty(0, dtype=np.int8),
        }
    bounds = np.searchsorted(
        out["_t"], np.arange(dataset.n_timestamps + 1, dtype=np.int64)
    )
    out["_lo"], out["_hi"] = bounds[:-1], bounds[1:]
    return out


def assert_matches_loop(dataset) -> None:
    for include_eq in (True, False):
        space = TransitionStateSpace(dataset.grid, include_eq)
        ref = _loop_view(dataset, space)
        view = ColumnarStreamView(dataset, space)
        for name in FIELDS:
            got = getattr(view, name)
            assert got.dtype == ref[name].dtype, (name, include_eq)
            assert got.tobytes() == ref[name].tobytes(), (name, include_eq)


def _error_text(build) -> str:
    with pytest.raises(DomainError) as info:
        build()
    return str(info.value)


def _dataset(k: int, trajs, n_timestamps=None) -> StreamDataset:
    return StreamDataset(
        unit_grid(k),
        [
            CellTrajectory(t0, list(cells), user_id=uid)
            for uid, (t0, cells) in enumerate(trajs)
        ],
        n_timestamps=n_timestamps,
    )


def _write_npz(path, k: int, trajs, n_timestamps: int) -> None:
    """Write a dataset archive directly, bypassing ``save_stream_dataset``."""
    lengths = [len(cells) for _t0, cells in trajs]
    np.savez_compressed(
        path,
        version=np.asarray([1]),
        cells=np.asarray([c for _t0, cells in trajs for c in cells], dtype=np.int64),
        offsets=np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]),
        start_times=np.asarray([t0 for t0, _cells in trajs], dtype=np.int64),
        user_ids=np.arange(len(trajs), dtype=np.int64),
        n_timestamps=np.asarray([n_timestamps]),
        grid_k=np.asarray([k]),
        bbox=np.asarray([0.0, 0.0, 1.0, 1.0]),
        name=np.asarray(["crafted"]),
    )


class TestMatchesLoop:
    def test_tdrive(self):
        assert_matches_loop(
            make_tdrive(TDriveConfig(n_taxis=60, n_timestamps=40, k=5), seed=3)
        )

    def test_brinkhoff(self):
        assert_matches_loop(make_oldenburg(scale=0.01, k=5, seed=1))
        assert_matches_loop(make_sanjoaquin(scale=0.01, k=4, seed=2))

    @pytest.mark.parametrize(
        "make",
        [make_random_walks, make_lane_stream, make_two_hotspot_stream],
    )
    def test_synthetic_generators(self, make):
        assert_matches_loop(make(k=5, seed=9))

    def test_save_load_round_trip(self, tmp_path):
        data = make_random_walks(k=4, n_streams=70, n_timestamps=25, seed=2)
        save_stream_dataset(data, tmp_path / "walks.npz")
        assert_matches_loop(load_stream_dataset(tmp_path / "walks.npz"))

    def test_one_cell_trajectories(self):
        assert_matches_loop(_dataset(3, [(0, [4]), (2, [8]), (2, [0, 1]), (5, [3])]))

    def test_late_starts_beyond_horizon(self):
        # Rows at or after n_timestamps are built but sliced away.
        data = _dataset(
            3, [(0, [0, 1, 2]), (8, [4, 5]), (9, [7]), (12, [3, 4])], n_timestamps=10
        )
        assert_matches_loop(data)

    def test_empty_dataset(self):
        assert_matches_loop(StreamDataset(unit_grid(4), [], n_timestamps=7))

    def test_store_backed_synthetic_dataset(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=2.0, w=5, seed=4)).run(walk_data)
        assert_matches_loop(run.synthetic)


@st.composite
def legal_walks(draw):
    k = draw(st.integers(1, 5))
    grid = unit_grid(k)
    trajs = []
    for _ in range(draw(st.integers(0, 12))):
        cell = draw(st.integers(0, grid.n_cells - 1))
        cells = [cell]
        for choice in draw(st.lists(st.integers(0, 8), max_size=9)):
            nbrs = grid.neighbor_lists[cell]
            cell = nbrs[choice % len(nbrs)]
            cells.append(cell)
        trajs.append((draw(st.integers(0, 15)), cells))
    horizon = draw(st.one_of(st.none(), st.integers(0, 30)))
    return _dataset(k, trajs, n_timestamps=horizon)


class TestMatchesLoopProperty:
    @given(data=legal_walks())
    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_random_legal_walks(self, data):
        assert_matches_loop(data)


class TestErrors:
    def test_first_illegal_move_same_text(self):
        # Trajectory 1 jumps 0 -> 8; trajectory 3 jumps 2 -> 6 and trajectory
        # 2 leaves the grid, so only trajectory order picks the message.
        data = _dataset(
            3, [(0, [0, 1]), (1, [4, 0, 8]), (0, [1, 99]), (2, [2, 6])]
        )
        for include_eq in (True, False):
            space = TransitionStateSpace(data.grid, include_eq)
            expected = _error_text(lambda: _loop_view(data, space))
            assert expected == (
                "movement 0->8 violates the reachability constraint "
                "(cells are not adjacent)"
            )
            assert _error_text(lambda: ColumnarStreamView(data, space)) == expected

    def test_out_of_grid_move_before_illegal_move_same_text(self):
        data = _dataset(3, [(0, [0, 1]), (1, [4, -1]), (0, [0, 8])])
        space = TransitionStateSpace(data.grid)
        expected = _error_text(lambda: _loop_view(data, space))
        assert expected == "cell ids outside the grid"
        assert _error_text(lambda: ColumnarStreamView(data, space)) == expected

    @pytest.mark.parametrize("cell", [40, -1, 9])
    @pytest.mark.parametrize("include_eq", [True, False])
    def test_out_of_grid_enter_quit_cell_rejected(self, cell, include_eq):
        # The loop let a one-cell trajectory through here (unit_grid(3) has
        # 9 cells), giving it enter/quit indices outside the state space.
        data = _dataset(3, [(0, [0, 1]), (1, [cell])])
        space = TransitionStateSpace(data.grid, include_eq)
        with pytest.raises(DomainError, match="cell ids outside the grid"):
            ColumnarStreamView(data, space)

    def test_out_of_grid_cell_from_npz_rejected_by_run(self, tmp_path):
        path = tmp_path / "crafted.npz"
        _write_npz(path, 3, [(0, [0, 1, 4]), (2, [40])], n_timestamps=6)
        data = load_stream_dataset(path)
        with pytest.raises(DomainError, match="cell ids outside the grid"):
            RetraSyn(RetraSynConfig(epsilon=1.0, w=3, seed=0)).run(data)

    @pytest.mark.parametrize("include_eq", [True, False])
    def test_empty_trajectory_names_user(self, include_eq):
        data = StreamDataset(
            unit_grid(3),
            [CellTrajectory(0, [0, 1], user_id=5), CellTrajectory(1, [], user_id=17)],
            n_timestamps=5,
        )
        space = TransitionStateSpace(data.grid, include_eq)
        with pytest.raises(DatasetError, match="user 17"):
            ColumnarStreamView(data, space)

    @pytest.mark.parametrize("include_eq", [True, False])
    def test_empty_trajectory_from_npz(self, tmp_path, include_eq):
        # Equal consecutive offsets load as a trajectory with no cells.
        path = tmp_path / "crafted.npz"
        _write_npz(path, 3, [(0, [0, 1]), (1, []), (2, [4])], n_timestamps=6)
        data = load_stream_dataset(path)
        space = TransitionStateSpace(data.grid, include_eq)
        with pytest.raises(DatasetError, match="user 1 "):
            ColumnarStreamView(data, space)
        cfg = RetraSynConfig(
            epsilon=1.0, w=3, seed=0, model_entering_quitting=include_eq
        )
        with pytest.raises(DatasetError, match="user 1 "):
            RetraSyn(cfg).run(data)
