"""The benchmark's three workloads, one per shape of the program.

``tdrive-batch``
    The paper's experiment path: ``make_tdrive`` -> ``RetraSyn.run`` ->
    ``evaluate_all``.  Dataset generation, the stream view, result packaging
    and evaluation run only here.
``serve-http``
    The ``repro serve --http`` deployment path: a closed loop of one
    :class:`~repro.api.client.Client` sending one timestamp per
    ``POST /v1/batch`` (binary frames, schema v2) to an in-process
    :class:`~repro.api.http.HttpIngress` on a background thread, the next
    request sent on the ack.  The only workload that crosses the client,
    the wire schema and the HTTP ingress.
``stream-budget``
    The same served core fed in-process (``submit_batch`` + ``advance`` per
    timestamp) under budget division, where every active user reports every
    round, so the privacy ledger does one spend per user per round.  It
    bypasses the transport: a transport gain must not show here.

Each workload drives public APIs only and runs in one process with at most
two threads.  A *pass* is one complete, checked execution; an untraced run
repeats passes until its time is up and reports medians.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from churn import ChurnShape, churn_rounds
from repro.api.client import Client
from repro.api.http import HttpIngress
from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.core.online import OnlineRetraSyn
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.datasets import tdrive
from repro.exceptions import ReproError
from repro.geo.grid import unit_grid
from repro.metrics import evaluate_all

TDRIVE_SHAPE = {"n_taxis": 5000, "n_timestamps": 120, "k": 6, "epsilon": 1.0, "w": 20, "phi": 10}
CHURN_SHAPE = ChurnShape()


@dataclass
class Pass:
    """One checked execution of a workload."""

    wall_s: float
    setup_s: Optional[float] = None
    values: dict = field(default_factory=dict)
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        """Count one correctness check as an attempted operation."""
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def sub_seed(seed: int, i: int) -> int:
    """Curator seed of a run's ``i``-th pass, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# ---------------------------------------------------------------------- #
# tdrive-batch
# ---------------------------------------------------------------------- #
@contextmanager
def timed_rounds(samples: list):
    """Append the wall time of every curator round to ``samples``.

    ``RetraSyn.run`` drives its rounds internally, so the batch workload
    times them at the one boundary it has: ``process_timestep``.
    """
    original = OnlineRetraSyn.process_timestep

    def timed(self, *args, **kwargs):
        tic = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            samples.append(time.perf_counter() - tic)

    OnlineRetraSyn.process_timestep = timed
    try:
        yield
    finally:
        OnlineRetraSyn.process_timestep = original


class TDriveBatch:
    """Generate once per set-up, then repeat ``RetraSyn.run`` on the data.

    Pass 0, the warm-up, also evaluates its output with ``evaluate_all``;
    the measured passes use fresh curator seeds, so ``run_s`` averages
    many runs while generation and evaluation (6 s each) stay affordable.
    """

    name = "tdrive-batch"
    setup_repeats = 3
    setups_per_pass = 0
    #: Two passes give 240 round samples, so 24 lie beyond p90.
    min_passes = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.data = None
        self.extra_setups: list[float] = []

    def shape(self) -> dict:
        return dict(TDRIVE_SHAPE)

    def time_setup(self) -> None:
        s = TDRIVE_SHAPE
        tic = time.perf_counter()
        self.data = tdrive.make_tdrive(
            tdrive.TDriveConfig(n_taxis=s["n_taxis"], n_timestamps=s["n_timestamps"], k=s["k"]),
            seed=self.seed,
        )
        self.extra_setups.append(time.perf_counter() - tic)

    def run_pass(self, i: int) -> Pass:
        s, data = TDRIVE_SHAPE, self.data
        seed = sub_seed(self.seed, i)
        start = time.perf_counter()
        p = Pass(wall_s=0.0)
        with timed_rounds(p.latencies_s):
            run = RetraSyn(RetraSynConfig(epsilon=s["epsilon"], w=s["w"], seed=seed)).run(data)
        ran = time.perf_counter()
        # One report per location plus the quit after the last, in the horizon.
        horizon = data.n_timestamps
        reports = sum(min(len(tr) + 1, horizon - tr.start_time) for tr in data.trajectories)
        p.values = {"run_s": ran - start, "reports": reports}
        p.check("make_tdrive", data.n_timestamps == s["n_timestamps"])
        p.check("run", run.synthetic.n_timestamps == data.n_timestamps)
        p.check("privacy_ledger", run.accountant.verify())
        if i == 0:
            tic = time.perf_counter()
            utility = evaluate_all(data, run.synthetic, phi=s["phi"], rng=self.seed)
            p.values.update(eval_s=time.perf_counter() - tic, **utility)
            p.check("evaluate_all", all(math.isfinite(v) for v in utility.values()))
        p.wall_s = time.perf_counter() - start
        return p

    def full_pass(self) -> Pass:
        """Generation, run and evaluation: the whole experiment path."""
        start = time.perf_counter()
        self.time_setup()
        p = self.run_pass(0)
        p.setup_s = self.extra_setups.pop()
        p.wall_s = time.perf_counter() - start
        return p


# ---------------------------------------------------------------------- #
# the served workloads
# ---------------------------------------------------------------------- #
def _session_spec(seed: int, division: str) -> SessionSpec:
    """The ``repro serve`` defaults: vectorized engine, ledger on, lateness 0."""
    return SessionSpec.from_flat(
        epsilon=1.0,
        w=20,
        seed=seed,
        engine="vectorized",
        division=division,
        transport="ingest",
        max_lateness=0,
    )


class IngressThread:
    """An :class:`HttpIngress` serving from its own thread's event loop."""

    def __init__(self, session) -> None:
        self.ingress = HttpIngress(session)
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, name="perfbench-ingress", daemon=True)
        self._thread.start()
        if not self._ready.wait(60):
            raise RuntimeError("the HTTP ingress did not start")

    def _serve(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            await self.ingress.start()
            self._ready.set()
            await self.ingress.serve_until_shutdown()

        asyncio.run(main())

    @property
    def port(self) -> int:
        return self.ingress.port

    def stop(self) -> None:
        """Stop the server and wait for its thread to end."""
        asyncio.run_coroutine_threadsafe(self.ingress.aclose(), self._loop).result(60)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("the HTTP ingress thread did not stop")


class _Served:
    """What the two served workloads share: input, session, checks."""

    division = "population"
    min_passes = 1

    def __init__(self, seed: int, shape: ChurnShape = CHURN_SHAPE) -> None:
        self.seed = seed
        self.churn = shape
        self.rounds = churn_rounds(shape, seed)
        self.n_reports = sum(len(batch) for _, batch, *_ in self.rounds)
        self.grid = unit_grid(shape.k)
        self.extra_setups: list[float] = []

    def shape(self) -> dict:
        return {**asdict(self.churn), "n_reports": self.n_reports, "division": self.division}

    def new_session(self):
        spec = _session_spec(self.seed, self.division)
        return create_session(spec, self.grid, lam=self.churn.mean_trip)

    def full_pass(self) -> Pass:
        return self.run_pass(0)

    def check_session(self, p: Pass, session, ingest_stats: dict) -> None:
        p.values["backlog_high_water"] = ingest_stats["backlog_high_water"]
        p.check("privacy_ledger", session.curator.accountant.verify())
        p.check("all_reports_processed",
                ingest_stats["n_reports_processed"] == ingest_stats["n_submitted"] == self.n_reports)
        p.check("no_late_drops", ingest_stats["n_late_dropped"] == 0)
        p.check("all_rounds", session.stats()["n_timestamps"] == len(self.rounds))


class ServeHttp(_Served):
    name = "serve-http"
    #: Extra start-ups, all before the first pass: starting ingress threads
    #: between passes fragments the heap and inflates peak RSS, by up to 40%.
    setup_repeats = 15
    setups_per_pass = 0

    def start(self):
        session = self.new_session()
        return session, IngressThread(session)

    def time_setup(self) -> None:
        tic = time.perf_counter()
        session, server = self.start()
        self.extra_setups.append(time.perf_counter() - tic)
        server.stop()
        session.close()

    def run_pass(self, i: int) -> Pass:
        start = time.perf_counter()
        session, server = self.start()
        setup = time.perf_counter() - start
        client = Client("127.0.0.1", server.port)
        p = Pass(wall_s=0.0, setup_s=setup)
        try:
            client.hello()
            p.check("schema_v2", client.schema_version == 2)
            first = time.perf_counter()
            for t, batch, entered, quitted, n_active in self.rounds:
                tic = time.perf_counter()
                try:
                    ack = client.submit_batch(t, batch, entered, quitted, n_real_active=n_active)
                    ok = ack["t"] == t and ack["n"] == len(batch)
                except (ReproError, OSError):  # at-most-once: counted, never resent
                    ok = False
                p.latencies_s.append(time.perf_counter() - tic)
                p.check("request", ok)
            client.close()
            p.values = {"run_s": time.perf_counter() - first, "reports": self.n_reports}
            self.check_session(p, session, client.stats()["ingest"])
            p.wall_s = time.perf_counter() - start
        finally:
            client.disconnect()
            server.stop()
        return p


class StreamBudget(_Served):
    name = "stream-budget"
    division = "budget"
    #: Extra start-ups after every pass, so ``setup_s`` is a median of
    #: samples spread over the run: a start-up takes half a millisecond, and
    #: its speed shifts by up to 2x from one second to the next.
    setup_repeats = 0
    setups_per_pass = 4

    def time_setup(self) -> None:
        tic = time.perf_counter()
        session = self.new_session()
        self.extra_setups.append(time.perf_counter() - tic)
        session.close()

    def run_pass(self, i: int) -> Pass:
        start = time.perf_counter()
        session = self.new_session()
        first = time.perf_counter()
        p = Pass(wall_s=0.0, setup_s=first - start)
        for t, batch, entered, quitted, n_active in self.rounds:
            tic = time.perf_counter()
            try:
                session.submit_batch(t, batch, entered, quitted, n_real_active=n_active)
                ok = len(session.advance()) == (1 if t else 0)
            except ReproError:
                ok = False
            p.latencies_s.append(time.perf_counter() - tic)
            p.check("round", ok)
        session.close()
        p.values = {"run_s": time.perf_counter() - first, "reports": self.n_reports}
        self.check_session(p, session, session.stats()["ingest"])
        p.wall_s = time.perf_counter() - start
        return p


WORKLOADS = {w.name: w for w in (TDriveBatch, ServeHttp, StreamBudget)}
