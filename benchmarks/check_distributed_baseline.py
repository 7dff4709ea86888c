"""Diff a fresh distributed-bench run against the committed baseline.

CI's ``distributed-smoke`` job regenerates ``BENCH_distributed.json`` on
every push; this script fails the job when the run regresses against
``benchmarks/baselines/BENCH_distributed.json`` (committed to the repo).

Absolute throughput is machine-dependent, so only **ratios** are
compared: every pipelined depth's speedup over the per-timestamp
protocol must stay within ``--floor`` (default 0.5x) of the committed
baseline's value.  Ratio regressions are *report-only on a single-core
host* (the workers serialize there, so the ratios carry no signal —
mirroring the artifact's own gate policy); bit-identity of the
distributed executor to serial and of every pipelining depth is an
absolute requirement regardless of speed or core count.

Usage::

    python benchmarks/check_distributed_baseline.py BENCH_distributed.json \
        [--baseline benchmarks/baselines/BENCH_distributed.json] [--floor 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = (
    Path(__file__).parent / "baselines" / "BENCH_distributed.json"
)


def _ratios(payload: dict) -> dict[str, float]:
    """The machine-portable ratio keys of one artifact."""
    out: dict[str, float] = {}
    pipe = payload.get("pipeline", {})
    for depth in pipe.get("round_batches", []):
        if depth > 1:
            out[f"pipeline_depth{depth}_speedup_vs_depth1"] = pipe["results"][
                f"depth{depth}"
            ]["speedup_vs_depth1"]
    return out


def check(new: dict, baseline: dict, floor: float) -> list[str]:
    """Return a list of human-readable failures (empty = pass)."""
    failures = []
    if not new.get("bit_identical"):
        failures.append("executor outputs are no longer bit-identical")
    if not new.get("pipeline", {}).get("bit_identical"):
        failures.append(
            "pipelined depths are no longer bit-identical to depth 1"
        )
    multi_core = (new.get("cpu_count") or 1) > 1
    new_ratios, base_ratios = _ratios(new), _ratios(baseline)
    for key, base in base_ratios.items():
        got = new_ratios.get(key)
        if got is None:
            failures.append(f"{key} missing from the new run")
            continue
        if got < floor * base:
            message = (
                f"{key} regressed: {got:.2f}x vs baseline {base:.2f}x "
                f"(floor {floor:.2f}x of baseline = {floor * base:.2f}x)"
            )
            if multi_core:
                failures.append(message)
            else:
                print(f"report-only (single-core host): {message}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help="fresh BENCH_distributed.json to check")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument("--floor", type=float, default=0.5,
                        help="minimum fraction of each baseline ratio")
    args = parser.parse_args(argv)

    new = json.loads(Path(args.artifact).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    failures = check(new, baseline, args.floor)
    new_ratios, base_ratios = _ratios(new), _ratios(baseline)
    for key in sorted(set(new_ratios) | set(base_ratios)):
        print(
            f"{key}: {new_ratios.get(key)}x (baseline {base_ratios.get(key)}x)"
        )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("distributed artifact within baseline envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main())
