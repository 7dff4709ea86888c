"""The repository benchmark: one command, three workloads, checked outputs.

Run one workload (what ``BENCHMARK.json`` names as the command)::

    python3 perfbench/run.py --workload serve-http --seed 0 --seconds 27 --trace 0

or every workload, each in its own process, with a summary table::

    python3 perfbench/run.py --workload all --seed 0 --seconds 27

``--trace 0`` runs one checked warm-up pass, then repeats checked passes of
the workload for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs one traced pass between two untraced ones on the same
input and reports the per-layer metrics (see ``layers.py``).  The last line
of standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  A JSON artifact with the run's context (core count, versions,
source revision, workload shape and seed, every pass) goes to ``--out``.  See ``README.md`` for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("tdrive-batch", "serve-http", "stream-budget")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Put the checkout's ``src`` on the path; exit non-zero without it."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")


# ---------------------------------------------------------------------- #
# context recorded in every artifact
# ---------------------------------------------------------------------- #
def git_commit() -> str:
    """HEAD of the checkout's git repository, or ``unknown`` outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's Python sources: a revision id without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_times() -> list[int]:
    """The host-wide ``cpu`` line of ``/proc/stat``, in clock ticks."""
    with open("/proc/stat") as stat:
        return [int(x) for x in stat.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests meanwhile."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def context() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def trimmed_mean(values, share: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``share`` of them.

    On a shared host the speed switches between a fast and a slow state
    every few seconds, so a median of passes follows whichever state held
    most of the run, while a mean weighs both by their time (README.md,
    "Aggregation").  The trim drops single stalled passes.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def end_to_end(passes, extra_setups) -> dict:
    """Every end-to-end metric over the measured passes of a run.

    Times and rates are trimmed means over passes.  The latency median is
    taken per pass and averaged the same way; p90 is taken over every
    round of the run, because a single pass has too few rounds in its tail
    to place it steadily.  ``setup_s`` is the median of every timed
    start-up.
    """
    import numpy as np

    latencies_ms = np.asarray([s for p in passes for s in p.latencies_s]) * 1e3
    return {
        "setup_s": statistics.median(
            [p.setup_s for p in passes if p.setup_s is not None] + extra_setups
        ),
        "run_s": trimmed_mean([p.values["run_s"] for p in passes]),
        "reports_per_s": trimmed_mean(
            [p.values["reports"] / p.values["run_s"] for p in passes]
        ),
        "round_latency_p50_ms": trimmed_mean(
            [float(np.percentile(p.latencies_s, 50)) * 1e3 for p in passes]
        ),
        "round_latency_p90_ms": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(names, tracer, untraced_wall_s: float, traced) -> dict:
    counts = tracer.counts
    derived = {
        "core.dmu_selected_ratio": (
            counts["dmu.selected"] / counts["dmu.states"] if counts["dmu.states"] else 0.0
        ),
        "stream.ingest_backlog_max": traced.values.get("backlog_high_water", 0),
        "untimed_s": traced.wall_s - tracer.total_self_s(),
        "trace_overhead_s": traced.wall_s - untraced_wall_s,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in tracer.self_s:
            out[name] = tracer.self_s[name]
        else:
            out[name] = counts.get(name, 0)
    return out


def pass_record(p) -> dict:
    return {
        "wall_s": p.wall_s,
        "setup_s": p.setup_s,
        "values": p.values,
        "latencies_s": p.latencies_s,
        "attempted": p.attempted,
        "failed": p.failed,
        "checks": p.checks,
    }


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
def window_full(passes, start: float, seconds: float) -> bool:
    """Whether another pass of typical length would overrun the window.

    So a run measures about ``seconds`` and not up to a pass more.
    """
    typical = statistics.median(p.wall_s for p in passes)
    return time.perf_counter() - start + typical > seconds


def run_workload(args, spec: dict) -> dict:
    import_program()
    from layers import Tracer, installed, layer_targets
    from workloads import WORKLOADS

    ticks = cpu_times()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        # The traced pass sits between two untraced ones on the same input,
        # so the first pass's cold start does not bias the overhead.
        before = workload.full_pass()
        gc.collect()
        tracer = Tracer()
        with installed(tracer, layer_targets()):
            traced = workload.full_pass()
        gc.collect()
        after = workload.full_pass()
        passes = [before, traced, after]
        warmup = []
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(names, tracer, (before.wall_s + after.wall_s) / 2, traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        for _ in range(workload.setup_repeats):
            workload.time_setup()
        # A checked warm-up pass (on tdrive-batch, the one that evaluates)
        # runs before the measured window and is left out of the metrics.
        warmup = [workload.run_pass(0)]
        gc.collect()
        passes = []
        start = time.perf_counter()
        while len(passes) < workload.min_passes or not window_full(passes, start, args.seconds):
            passes.append(workload.run_pass(len(passes) + 1))
            gc.collect()
            for _ in range(workload.setups_per_pass):
                workload.time_setup()
        metrics = end_to_end(passes, workload.extra_setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    attempted = sum(p.attempted for p in warmup + passes)
    failed = sum(p.failed for p in warmup + passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": workload.shape(),
        "context": {**context(), "steal_share": steal_share(ticks, cpu_times())},
        "samples": sum(len(p.latencies_s) for p in passes),
        "extra_setups_s": workload.extra_setups,
        "warmup_passes": [pass_record(p) for p in warmup],
        "passes": [pass_record(p) for p in passes],
        "layers": None if tracer is None else {
            "self_s": dict(tracer.self_s), "counts": dict(tracer.counts)
        },
        "result": result,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact, indent=2, default=float))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  latency samples {artifact['samples']}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for p in warmup + passes:
        for check, ok in p.checks.items():
            if not ok:
                print(f"  FAILED check: {check}")
    print(f"  attempted {attempted}  failed {failed}  artifact {path}")
    return result


# ---------------------------------------------------------------------- #
# every workload, one process each
# ---------------------------------------------------------------------- #
def run_all(args, spec: dict) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measurement time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".perfbench-out"),
                    help="directory for the JSON artifacts")
    args = ap.parse_args(argv)
    spec = load_spec()
    result = run_all(args, spec) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
