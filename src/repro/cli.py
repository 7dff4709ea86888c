"""Command-line interface.

Usage (after installing the package)::

    python -m repro datasets generate --name tdrive --scale 0.05 --out td.npz
    python -m repro datasets stats td.npz
    python -m repro run --method RetraSyn_p --input td.npz --epsilon 1.0 \
        --w 20 --out syn.npz
    python -m repro evaluate td.npz syn.npz --phi 10
    python -m repro experiment table3 --scale 0.02

Every command is deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.comparison import fidelity_report, format_fidelity_report
from repro.datasets.io import load_stream_dataset, save_stream_dataset
from repro.datasets.registry import available_datasets, load_dataset
from repro.experiments.runner import ExperimentSetting, make_method


def _add_datasets_parser(sub) -> None:
    p = sub.add_parser("datasets", help="generate or inspect datasets")
    inner = p.add_subparsers(dest="datasets_cmd", required=True)

    gen = inner.add_parser("generate", help="generate one of the paper's datasets")
    gen.add_argument("--name", required=True, choices=available_datasets())
    gen.add_argument("--scale", type=float, default=0.05)
    gen.add_argument("--k", type=int, default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .npz path")

    stats = inner.add_parser("stats", help="print Table I-style statistics")
    stats.add_argument("path", help="dataset .npz path")

    listing = inner.add_parser("list", help="list generatable dataset names")
    del listing  # no extra arguments


def _flag_dest(flag: str) -> str:
    """argparse destination of a ``--flag-name`` (its default derivation)."""
    return flag.lstrip("-").replace("-", "_")


def _add_spec_flag_group(parser, spec_classes=None, defaults=None) -> None:
    """One shared engine/service flag block, generated from the specs.

    Every flag is derived from the ``metadata["cli"]`` entry of a spec
    field in :mod:`repro.api.specs`, so ``repro run`` and ``repro serve``
    expose the *same* block and a new config field cannot silently miss
    (or drift from) its CLI flag.  ``defaults`` overrides per-command
    defaults (e.g. serve prefers the vectorized engine).
    """
    from repro.api.specs import iter_cli_fields

    defaults = defaults or {}
    group = parser.add_argument_group(
        "session configuration (generated from repro.api.specs)"
    )
    kwargs = {"spec_classes": spec_classes} if spec_classes is not None else {}
    for _cls, f in iter_cli_fields(**kwargs):
        meta = f.metadata["cli"]
        default = defaults.get(f.name, f.default)
        if meta["store_true"]:
            group.add_argument(meta["flag"], action="store_true",
                               help=meta["help"])
            continue
        add_kwargs = {"default": default, "help": meta["help"]}
        if meta["choices"] is not None:
            add_kwargs["choices"] = meta["choices"]
        if meta["type"] is not None:
            add_kwargs["type"] = meta["type"]
        group.add_argument(meta["flag"], **add_kwargs)


def _spec_kwargs_from_args(args, spec_classes=None) -> dict:
    """Flat spec-field dict collected from a parsed spec flag group."""
    from repro.api.specs import iter_cli_fields

    kwargs = {"spec_classes": spec_classes} if spec_classes is not None else {}
    return {
        f.name: getattr(args, _flag_dest(f.metadata["cli"]["flag"]))
        for _cls, f in iter_cli_fields(**kwargs)
    }


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run a synthesis method over a dataset")
    p.add_argument(
        "--method",
        default="RetraSyn_p",
        help="RetraSyn_b/RetraSyn_p/AllUpdate_*/NoEQ_*/LBD/LBA/LPD/LPA",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="dataset .npz path")
    src.add_argument("--dataset", choices=available_datasets(), help="generate fresh")
    p.add_argument("--scale", type=float, default=0.05, help="with --dataset")
    _add_spec_flag_group(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="synthetic output .npz path")
    p.add_argument("--no-audit", action="store_true",
                   help="skip the privacy-ledger audit (faster)")


def _add_serve_parser(sub) -> None:
    from repro.api.specs import ServiceSpec

    p = sub.add_parser(
        "serve",
        help="replay a dataset through the async ingestion service "
             "(bounded queue, watermarks, checkpoints), or — with --http — "
             "listen for remote repro.api.Client submissions",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="dataset .npz path")
    src.add_argument("--dataset", choices=available_datasets(), help="generate fresh")
    p.add_argument("--scale", type=float, default=0.05, help="with --dataset")
    p.add_argument("--division", default="population",
                   choices=("population", "budget"),
                   help="privacy division style (run derives this from "
                        "--method; serve takes it directly)")
    _add_spec_flag_group(p, defaults={"engine": "vectorized"})
    _add_spec_flag_group(p, spec_classes=(ServiceSpec,))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true",
                   help="shuffle arrival order inside the lateness window")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint instead of starting fresh")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve the versioned HTTP ingress on PORT "
                        "(0 = ephemeral) instead of replaying the dataset; "
                        "drive it with repro.api.Client")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --http")
    p.add_argument("--out", default=None, help="synthetic output .npz path")
    p.add_argument("--no-audit", action="store_true")


def _add_bench_parser(sub) -> None:
    p = sub.add_parser(
        "bench",
        help="end-to-end load benchmarks (machine-readable artifacts)",
    )
    inner = p.add_subparsers(dest="bench_cmd", required=True)
    serve = inner.add_parser(
        "serve",
        help="saturating load harness over the serve/HTTP ingress: "
             "replays a synthetic population against every boundary "
             "(in-process, HTTP v1/v2, subprocess) and writes "
             "BENCH_serve.json",
    )
    serve.add_argument("--users", type=int, default=100_000,
                       help="synthetic population size (reports per round)")
    serve.add_argument("--horizon", type=int, default=8,
                       help="timestamps replayed (enter + moves + quit)")
    serve.add_argument("--k", type=int, default=6, help="grid granularity")
    serve.add_argument("--epsilon", type=float, default=1.0)
    serve.add_argument("--w", type=int, default=10)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--pipeline", type=int, default=4,
                       help="timestamps per pipelined request (binary frames)")
    serve.add_argument("--ingest-consumers", type=int, default=1)
    serve.add_argument("--modes", default="inproc,http,subprocess",
                       help="comma-separated subset of inproc,http,subprocess")
    serve.add_argument("--quick", action="store_true",
                       help="CI smoke scale: caps users/horizon "
                            "(small populations, no speedup gate)")
    serve.add_argument("--out", default="BENCH_serve.json",
                       help="artifact path (JSON)")
    serve.add_argument("--profile", default=None, metavar="PATH",
                       help="profile the benchmark under cProfile: pstats "
                            "dump at PATH plus a top-20 cumulative text "
                            "summary at PATH.txt")

    dist = inner.add_parser(
        "distributed",
        help="collection-round throughput of the shard executors "
             "(serial / socket-framed worker processes) plus the "
             "pipelined round depths; writes BENCH_distributed.json",
    )
    dist.add_argument("--users", type=int, default=100_000,
                      help="synthetic population size (reports per round)")
    dist.add_argument("--horizon", type=int, default=8,
                      help="timestamps replayed (enter + moves + quit)")
    dist.add_argument("--k", type=int, default=6, help="grid granularity")
    dist.add_argument("--epsilon", type=float, default=1.0)
    dist.add_argument("--w", type=int, default=10)
    dist.add_argument("--seed", type=int, default=0)
    dist.add_argument("--shards", default="1,4",
                      help="comma-separated shard counts to sweep")
    dist.add_argument("--round-batches", default="1,4,8",
                      help="comma-separated pipelining depths swept by the "
                           "fused-round benchmark (1 always included)")
    dist.add_argument("--quick", action="store_true",
                      help="CI smoke scale: caps users/horizon "
                           "(speedup gate becomes report-only)")
    dist.add_argument("--out", default="BENCH_distributed.json",
                      help="artifact path (JSON)")
    dist.add_argument("--profile", default=None, metavar="PATH",
                      help="profile the benchmark under cProfile: pstats "
                           "dump at PATH plus a top-20 cumulative text "
                           "summary at PATH.txt")


def _add_evaluate_parser(sub) -> None:
    p = sub.add_parser("evaluate", help="score a synthetic DB against the real one")
    p.add_argument("real", help="real dataset .npz")
    p.add_argument("synthetic", help="synthetic dataset .npz")
    p.add_argument("--phi", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def _add_experiment_parser(sub) -> None:
    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument(
        "artifact",
        choices=(
            "table3", "table4", "table5",
            "fig3", "fig4", "fig5", "fig6", "fig7",
            "historical",
        ),
    )
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--w", type=int, default=10)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--datasets", nargs="+", default=None)


def _add_lint_parser(sub) -> None:
    from repro.analysis.lint.cli import add_lint_parser

    add_lint_parser(sub)


def _add_plan_parser(sub) -> None:
    p = sub.add_parser(
        "plan", help="predict noise/SNR for a deployment configuration"
    )
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--w", type=int, default=20)
    p.add_argument("--n-active", type=int, default=10_000)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--division", choices=("population", "budget"),
                   default="population")
    p.add_argument("--portion", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RetraSyn: LDP real-time trajectory synthesis (ICDE 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_datasets_parser(sub)
    _add_run_parser(sub)
    _add_serve_parser(sub)
    _add_bench_parser(sub)
    _add_evaluate_parser(sub)
    _add_experiment_parser(sub)
    _add_plan_parser(sub)
    _add_lint_parser(sub)
    return parser


# ---------------------------------------------------------------------- #
# command implementations
# ---------------------------------------------------------------------- #
def _cmd_datasets(args) -> int:
    if args.datasets_cmd == "list":
        for name in available_datasets():
            print(name)
        return 0
    if args.datasets_cmd == "generate":
        data = load_dataset(args.name, scale=args.scale, k=args.k, seed=args.seed)
        save_stream_dataset(data, args.out)
        print(f"wrote {args.out}: {data.stats()}")
        return 0
    if args.datasets_cmd == "stats":
        data = load_stream_dataset(args.path)
        for key, value in data.stats().items():
            print(f"{key:16s} {value}")
        return 0
    return 2


def _cmd_run(args) -> int:
    if args.input:
        data = load_stream_dataset(args.input)
    else:
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    flat = _spec_kwargs_from_args(args)
    epsilon, w = flat.pop("epsilon"), flat.pop("w")
    allocator = flat.pop("allocator")
    overrides = {"track_privacy": not args.no_audit}
    if args.method.lower() not in ("lbd", "lba", "lpd", "lpa"):
        # Baselines take only the shared privacy knobs; engine-layer flags
        # apply to the RetraSyn variants.
        overrides.update(flat)
    algo = make_method(
        args.method,
        epsilon=epsilon,
        w=w,
        seed=args.seed,
        allocator=allocator,
        **overrides,
    )
    run = algo.run(data)
    save_stream_dataset(run.synthetic, args.out)
    print(f"wrote {args.out}: {run.synthetic.stats()}")
    return _audit_exit_code(run)


def _cmd_serve(args) -> int:
    from repro.api.specs import ServiceSpec, SessionSpec
    from repro.serve import ServeSettings, serve_dataset

    if args.input:
        data = load_stream_dataset(args.input)
    else:
        data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    service = _spec_kwargs_from_args(args, spec_classes=(ServiceSpec,))
    spec = SessionSpec.from_flat(
        **_spec_kwargs_from_args(args),
        **service,
        division=args.division,
        track_privacy=not args.no_audit,
        seed=args.seed,
        transport="ingest",
    )
    if args.http is not None:
        return _serve_http(args, data, spec)
    settings = ServeSettings(
        config=spec.to_config(),
        service=spec.service,
        shuffle=args.shuffle,
        shuffle_seed=args.seed,
        resume=args.resume,
    )
    outcome = serve_dataset(data, settings)
    for line in outcome.report_lines():
        print(line)
    if args.out:
        save_stream_dataset(outcome.run.synthetic, args.out)
        print(f"wrote {args.out}: {outcome.run.synthetic.stats()}")
    return _audit_exit_code(outcome.run)


def _serve_http(args, data, spec) -> int:
    """`repro serve --http PORT`: the network ingress in front of a session.

    The dataset supplies the grid geometry and the λ estimate; the stream
    itself comes from remote :class:`repro.api.Client` submissions.  Runs
    until a client posts ``/v1/shutdown``, then reports and (optionally)
    writes the synthetic output.
    """
    import dataclasses

    from repro.api import schema
    from repro.api.http import serve_http
    from repro.api.session import create_session, load_session
    from repro.core.persistence import checkpoint_exists
    from repro.geo.trajectory import average_length

    spec = dataclasses.replace(
        spec,
        service=dataclasses.replace(
            spec.service, http_host=args.host, http_port=args.http
        ),
    )
    lam = spec.engine.lam or max(1.0, average_length(data.trajectories))
    if args.resume:
        if not spec.service.checkpoint_path:
            raise ValueError("--resume requires --checkpoint")
        if not checkpoint_exists(spec.service.checkpoint_path):
            raise FileNotFoundError(
                f"no checkpoint to resume from: {spec.service.checkpoint_path}"
            )
        # Engine + privacy layers come from the checkpoint's stored spec
        # (the flags of *this* invocation may be defaults that misdescribe
        # the restored engine); only the service shape — lateness,
        # cadence, binding — follows the current flags.
        session = load_session(
            spec.service.checkpoint_path, service=spec.service
        )
        last_t = session.curator._last_t
        print(f"resumed at t={0 if last_t is None else last_t + 1}", flush=True)
    else:
        session = create_session(spec, data.grid, lam=lam)
    ingress = serve_http(
        session,
        host=spec.service.http_host,
        port=spec.service.http_port,
        on_ready=lambda s: print(
            f"listening on http://{s.host}:{s.port} "
            f"(schema v{schema.SCHEMA_VERSION}, binary frames + JSON v1); "
            f"POST /v1/shutdown to stop", flush=True,
        ),
    )
    session = ingress.session
    run = session.result(name=f"{session.curator.config.label}(http:{data.name})")
    stats = session.stats()
    print(f"timestamps processed   {stats['n_timestamps']}")
    if "ingest" in stats:
        print(f"reports ingested       {stats['ingest']['n_submitted']}")
        print(f"late reports dropped   {stats['ingest']['n_late_dropped']}")
    if args.out:
        save_stream_dataset(run.synthetic, args.out)
        print(f"wrote {args.out}: {run.synthetic.stats()}")
    return _audit_exit_code(run)


def _audit_exit_code(run) -> int:
    """Shared privacy-audit epilogue of run/serve."""
    if run.accountant is not None:
        summary = run.accountant.summary()
        print(f"privacy audit: {summary}")
        if not summary["satisfied"]:
            print("ERROR: w-event LDP guarantee violated", file=sys.stderr)
            return 1
    return 0


def _profiled(profile_path, fn, /, *fn_args, **fn_kwargs):
    """Run ``fn`` (optionally) under cProfile.

    With a path: dumps the raw pstats file there and writes a top-20
    cumulative-time text summary next to it (``PATH.txt``), so the
    benchmark artifact always travels with a readable hot-spot digest.
    """
    if not profile_path:
        return fn(*fn_args, **fn_kwargs)
    import cProfile
    import io
    import pstats
    from pathlib import Path

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn, *fn_args, **fn_kwargs)
    finally:
        out = Path(profile_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(out)
        text = io.StringIO()
        stats = pstats.Stats(profiler, stream=text)
        stats.sort_stats("cumulative").print_stats(20)
        out.with_name(out.name + ".txt").write_text(text.getvalue())
        print(f"wrote profile {out} (+ {out.name}.txt)")


def _cmd_bench(args) -> int:
    import json
    from pathlib import Path

    if args.bench_cmd == "distributed":
        from repro.bench.distributed import (
            format_bench_distributed,
            run_bench_distributed,
        )

        shard_counts = tuple(
            int(s) for s in args.shards.split(",") if s.strip()
        )
        round_batches = tuple(
            int(d) for d in args.round_batches.split(",") if d.strip()
        )
        payload = _profiled(
            args.profile,
            run_bench_distributed,
            n_users=args.users,
            horizon=args.horizon,
            k=args.k,
            epsilon=args.epsilon,
            w=args.w,
            seed=args.seed,
            shard_counts=shard_counts,
            round_batches=round_batches,
            quick=args.quick,
        )
        formatted = format_bench_distributed(payload)
        # Bit-identity is a hard gate everywhere; the pipelining gate only
        # binds when the payload says it was enforced (multi-core, full
        # scale) — single-core CI records the ratio without failing.
        ok = payload["bit_identical"] and payload["pipeline"]["bit_identical"]
        if payload["pipeline"]["gate"]["enforced"]:
            ok = ok and payload["pipeline"]["gate"]["passed"]
    else:
        from repro.bench.load import format_bench_serve, run_bench_serve

        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        payload = _profiled(
            args.profile,
            run_bench_serve,
            n_users=args.users,
            horizon=args.horizon,
            k=args.k,
            epsilon=args.epsilon,
            w=args.w,
            seed=args.seed,
            pipeline=args.pipeline,
            ingest_consumers=args.ingest_consumers,
            modes=modes,
            quick=args.quick,
        )
        formatted = format_bench_serve(payload)
        ok = payload["remote_bit_identical"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for line in formatted:
        print(line)
    print(f"wrote {out}")
    return 0 if ok else 1


def _cmd_evaluate(args) -> int:
    real = load_stream_dataset(args.real)
    syn = load_stream_dataset(args.synthetic)
    report = fidelity_report(real, syn, phi=args.phi, rng=args.seed)
    print(format_fidelity_report(report))
    return 0


def _cmd_experiment(args) -> int:
    setting = ExperimentSetting(
        scale=args.scale, w=args.w, k=args.k, seed=args.seed
    )
    datasets = tuple(args.datasets) if args.datasets else None
    if args.artifact == "table3":
        from repro.experiments.table3 import format_table3, run_table3

        print(format_table3(run_table3(setting, datasets=datasets)))
    elif args.artifact == "table4":
        from repro.experiments.table4 import format_table4, run_table4

        print(format_table4(run_table4(setting, datasets=datasets)))
    elif args.artifact == "table5":
        from repro.experiments.table5 import format_table5, run_table5

        print(format_table5(run_table5(setting, datasets=datasets)))
    elif args.artifact == "fig3":
        from repro.experiments.fig3 import format_fig3, run_fig3

        print(format_fig3(run_fig3(setting, datasets=datasets or ("tdrive", "oldenburg"))))
    elif args.artifact == "fig4":
        from repro.experiments.fig4 import format_fig4, run_fig4

        print(format_fig4(run_fig4(setting, datasets=datasets or ("tdrive", "oldenburg"))))
    elif args.artifact == "fig5":
        from repro.experiments.fig5 import format_fig5, run_fig5

        print(format_fig5(run_fig5(setting, datasets=datasets or ("tdrive", "oldenburg"))))
    elif args.artifact == "fig6":
        from repro.experiments.fig6 import format_fig6, run_fig6

        print(format_fig6(run_fig6(setting, datasets=datasets)))
    elif args.artifact == "fig7":
        from repro.experiments.fig7 import format_fig7, run_fig7

        print(format_fig7(run_fig7(setting, datasets=datasets)))
    elif args.artifact == "historical":
        from repro.experiments.historical import format_historical, run_historical

        print(format_historical(run_historical(setting, datasets=datasets or ("tdrive",))))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint.cli import run_lint_cli

    return run_lint_cli(args)


def _cmd_plan(args) -> int:
    from repro.planning import DeploymentPlan, format_plan_report, plan_report

    plan = DeploymentPlan(
        epsilon=args.epsilon,
        w=args.w,
        n_active=args.n_active,
        k=args.k,
        division=args.division,
        portion=args.portion,
    )
    print(format_plan_report(plan_report(plan)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "plan": _cmd_plan,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
