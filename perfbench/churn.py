"""Seeded churn stream: the input of the served workloads.

A steady population of users on a ``k x k`` grid, in the report format the
curator protocol speaks (one columnar :class:`ReportBatch` per timestamp):

* arrivals are Poisson, at the rate that keeps ``n_live`` users live in
  steady state; the stream opens with ``n_live`` users entering at ``t=0``
  (trip lengths are geometric, hence memoryless, so this start is already
  the stationary population);
* trip lengths are geometric with mean ``mean_trip`` locations (13.61 is
  the paper's T-Drive average stream length, Table I), truncated so every
  trip quits inside the horizon;
* each step moves to a uniformly drawn legal successor cell: one of the
  up-to-eight neighbours, or staying put.

Report layout per trip, as :class:`~repro.stream.reports.ColumnarStreamView`
lays out a dataset: ENTER at the first location's timestamp, one MOVE per
later location, QUIT at the timestamp after the last location.  Every trip
is its own user id.  The generator is a loop over timestamps with numpy
work per step; the same seed gives byte-identical rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.tdrive import PAPER_AVG_LENGTH
from repro.geo.grid import unit_grid
from repro.stream.reports import KIND_ENTER, KIND_MOVE, KIND_QUIT, ReportBatch
from repro.stream.state_space import TransitionStateSpace


@dataclass(frozen=True)
class ChurnShape:
    """Size of the generated stream."""

    n_live: int = 20_000
    n_timestamps: int = 300
    k: int = 6
    mean_trip: float = PAPER_AVG_LENGTH


def churn_rounds(shape: ChurnShape, seed: int) -> list[tuple]:
    """One ``(t, batch, newly_entered, quitted, n_real_active)`` per timestamp.

    Rows of each batch are in ascending user-id order.
    """
    rng = np.random.default_rng(seed)
    space = TransitionStateSpace(unit_grid(shape.k))
    out_pad, dest_pad, degrees = space.padded_out_structure()
    enter_idx = space.enter_indices
    quit_idx = space.quit_indices
    horizon = shape.n_timestamps
    arrival_rate = shape.n_live / shape.mean_trip

    # Live users, in uid order: id, current cell, locations still to come.
    uid = np.empty(0, dtype=np.int64)
    cell = np.empty(0, dtype=np.int64)
    left = np.empty(0, dtype=np.int64)
    next_uid = 0
    rounds: list[tuple] = []
    for t in range(horizon):
        quits = left == 0
        moving = ~quits
        # Movers draw one legal successor of their current cell.
        origin = cell[moving]
        slot = (rng.random(origin.size) * degrees[origin]).astype(np.int64)
        move_state = out_pad[origin, slot]
        dest = dest_pad[origin, slot]

        state = np.empty(uid.size, dtype=np.int64)
        kinds = np.full(uid.size, KIND_MOVE, dtype=np.int8)
        state[moving] = move_state
        state[quits] = quit_idx[cell[quits]]
        kinds[quits] = KIND_QUIT
        reporting, quitted = uid, uid[quits]
        uid, cell, left = uid[moving], dest, left[moving] - 1

        # Arrivals must fit one location and the quit inside the horizon.
        if t <= horizon - 2:
            n_new = shape.n_live if t == 0 else int(rng.poisson(arrival_rate))
        else:
            n_new = 0
        new_uid = np.arange(next_uid, next_uid + n_new, dtype=np.int64)
        next_uid += n_new
        new_cell = rng.integers(0, space.n_cells, size=n_new)
        lengths = np.minimum(
            rng.geometric(1.0 / shape.mean_trip, size=n_new), horizon - 1 - t
        )

        # New ids exceed every live id, so appending keeps uid order.
        batch = ReportBatch(
            np.concatenate([reporting, new_uid]),
            np.concatenate([state, enter_idx[new_cell]]),
            np.concatenate([kinds, np.full(n_new, KIND_ENTER, dtype=np.int8)]),
        )
        rounds.append((t, batch, new_uid, quitted, int(uid.size + n_new)))

        uid = np.concatenate([uid, new_uid])
        cell = np.concatenate([cell, new_cell])
        left = np.concatenate([left, lengths - 1])
    return rounds
