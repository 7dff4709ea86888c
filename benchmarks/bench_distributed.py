"""Distributed shard plane throughput.

Runs the same deterministic collection workload through both shard
executors — ``serial`` (in-process) and ``distributed`` (socket-framed
worker services with shard-local privacy accountants) — at K∈{1,4},
records their ratio ungated, and persists
``results/BENCH_distributed.json``.

Gates:

* the distributed executor's full-pipeline output bit-identical to
  serial, always;
* every pipelining depth (``round_batch`` ∈ {1,4,8}) bit-identical to the
  per-timestamp protocol on the distributed executor, always;
* fused rounds (depth >= 4) >= 2x the depth-1 round throughput on the
  small-batch distributed workload — enforced only on a multi-core host
  at full scale (single-core CI serializes the workers, so the ratio is
  report-only there), mirroring ``pipeline.gate.enforced``.
"""

import os

from _util import run_once

from repro.bench.distributed import (
    REQUIRED_PIPELINE_SPEEDUP,
    format_bench_distributed,
    run_bench_distributed,
)


def test_distributed_shard_plane(
    benchmark, quick_mode, save_artifact, save_json_artifact
):
    out = run_once(benchmark, run_bench_distributed, quick=quick_mode)

    save_artifact("distributed", "\n".join(format_bench_distributed(out)))
    save_json_artifact("BENCH_distributed", out)

    assert out["bit_identical"], out
    assert out["pipeline"]["bit_identical"], out
    assert set(out["collection"]) == {"K1", "K4"}, out
    depths = out["pipeline"]["round_batches"]
    assert 1 in depths and any(d >= 4 for d in depths), out
    if (os.cpu_count() or 1) > 1 and not quick_mode:
        assert out["pipeline"]["gate"]["enforced"], out
        assert (
            out["pipeline"]["gate"]["measured"] >= REQUIRED_PIPELINE_SPEEDUP
        ), format_bench_distributed(out)
