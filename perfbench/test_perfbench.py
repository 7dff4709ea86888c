"""Tests of the benchmark's own parts: the churn stream and the tracer.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from churn import ChurnShape, churn_rounds
from layers import Tracer, installed, layer_targets
from repro.geo.grid import unit_grid
from repro.stream.reports import KIND_ENTER, KIND_MOVE, KIND_QUIT
from repro.stream.state_space import TransitionStateSpace
from workloads import ServeHttp, StreamBudget

SMALL = ChurnShape(n_live=300, n_timestamps=40)


# ---------------------------------------------------------------------- #
# churn stream
# ---------------------------------------------------------------------- #
def test_churn_stream_emits_only_legal_states():
    space = TransitionStateSpace(unit_grid(SMALL.k))
    moves = space.move_pairs
    enter0, quit0 = int(space.enter_indices[0]), int(space.quit_indices[0])
    live: dict[int, int] = {}  # uid -> current cell
    entered_once: set[int] = set()
    quitted_once: set[int] = set()
    rounds = churn_rounds(SMALL, seed=3)
    assert [r[0] for r in rounds] == list(range(SMALL.n_timestamps))
    for t, batch, entered, quitted, n_active in rounds:
        uids = batch.user_ids.tolist()
        assert uids == sorted(set(uids))
        # Every live user reports at every timestamp until it quits.
        assert set(live) <= set(uids)
        got_entered, got_quitted = [], []
        for uid, idx, kind in zip(uids, batch.state_idx.tolist(), batch.kinds.tolist()):
            if kind == KIND_ENTER:
                assert uid not in entered_once and uid not in live
                assert enter0 <= idx < enter0 + space.n_cells
                entered_once.add(uid)
                live[uid] = idx - enter0
                got_entered.append(uid)
            elif kind == KIND_MOVE:
                assert uid in live
                origin, dest = moves[idx]
                assert origin == live[uid]
                assert space.grid.are_adjacent(origin, dest)
                live[uid] = dest
            else:
                assert kind == KIND_QUIT
                assert uid in live and uid not in quitted_once
                assert idx == quit0 + live.pop(uid)
                quitted_once.add(uid)
                got_quitted.append(uid)
        assert entered.tolist() == got_entered
        assert quitted.tolist() == got_quitted
        assert n_active == len(live)
    assert not live
    assert quitted_once == entered_once


def test_churn_stream_is_deterministic_per_seed():
    def flat(rounds):
        return [np.concatenate([b.user_ids, b.state_idx, b.kinds]) for _, b, *_ in rounds]

    a, b, c = (flat(churn_rounds(SMALL, seed)) for seed in (5, 5, 6))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, c))


# ---------------------------------------------------------------------- #
# tracer
# ---------------------------------------------------------------------- #
class _Box:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)


def test_self_time_excludes_children_and_originals_come_back():
    before = dict(vars(_Box))
    tracer = Tracer()
    tic = time.perf_counter()
    with installed(tracer, [(_Box, "outer", "a", None, False), (_Box, "inner", "b", None, False)]):
        assert vars(_Box)["outer"] is not before["outer"]
        _Box().outer()
    wall = time.perf_counter() - tic
    assert dict(vars(_Box)) == before
    assert tracer.self_s["a"] >= 0.02 and tracer.self_s["b"] >= 0.03
    assert tracer.total_self_s() <= wall


def test_originals_come_back_on_error_and_inherited_names_are_refused():
    before = dict(vars(_Box))

    class Child(_Box):
        pass

    with pytest.raises(TypeError):
        with installed(Tracer(), [(_Box, "outer", "a", None, False), (Child, "inner", "b", None, False)]):
            pass
    assert dict(vars(_Box)) == before and "inner" not in vars(Child)

    with pytest.raises(RuntimeError):
        with installed(Tracer(), [(_Box, "outer", "a", None, False)]):
            raise RuntimeError
    assert dict(vars(_Box)) == before


@pytest.mark.parametrize("workload", [StreamBudget, ServeHttp])
def test_traced_pass_self_times_fit_in_wall_time(workload):
    targets = layer_targets()
    originals = [vars(owner)[name] for owner, name, *_ in targets]
    bench = workload(0, SMALL)
    tracer = Tracer()
    with installed(tracer, targets):
        traced = bench.run_pass(0)
    assert [vars(owner)[name] for owner, name, *_ in targets] == originals
    assert traced.failed == 0
    assert tracer.counts["core.rounds"] == SMALL.n_timestamps
    assert tracer.self_s["core.synthesis_s"] > 0 and tracer.self_s["ldp.ledger_s"] > 0
    assert all(v >= 0 for v in tracer.self_s.values())
    assert tracer.total_self_s() <= traced.wall_s
    if workload is ServeHttp:
        assert tracer.self_s["api.transport_s"] > 0
        assert tracer.counts["api.requests"] == SMALL.n_timestamps + 3  # + hello, close, stats


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
def test_trimmed_mean_drops_the_extreme_tenths():
    from run import trimmed_mean

    assert trimmed_mean([1.0] * 8 + [0.0, 100.0]) == 1.0
    assert trimmed_mean([1.0, 2.0, 6.0]) == 3.0  # under ten values: the plain mean
