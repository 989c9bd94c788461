"""The benchmark's own tests: tracer accounting and gate sensitivity.

    python3 -m pytest perfbench/check_sensitivity.py -q

The file is named so the repository's default test run does not collect
it: the sensitivity test runs the benchmark eight times (about four
minutes).  A deliberate slowdown -- a fixed delay injected into
``simulate_lanes`` and ``OutOfOrderCore.run`` by the benchmark's own
wrapper -- must fail the gate on ``sim_inst_per_s`` for ``batch`` (whose
first command is paper-cold's ``run_all``) and must not move
``latency_p50_ms`` on ``serve-warm``, whose cached requests never reach
the kernel.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402

#: Seconds added to every timing-kernel call in the slowed runs.
DELAY_S = 1.0
RUN_SECONDS = 6


def bench(workload: str, seed: int, delay: float = 0.0) -> dict:
    env = dict(os.environ)
    env.pop(tracer.DELAY_ENV, None)
    if delay:
        env[tracer.DELAY_ENV] = str(delay)
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    return {name: metric["value"] for name, metric in line["metrics"].items()}


def regressed(base: list, candidate: list, metric: str) -> bool:
    """The gate: the candidate's median is worse than the base's by more than the bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = next(m for m in json.load(handle)["end_to_end"] if m["name"] == metric)
    old = statistics.median(run[metric] for run in base)
    new = statistics.median(run[metric] for run in candidate)
    worse = (old - new) / old if spec["better"] == "higher" else (new - old) / old
    return worse > spec["bound"]


def test_kernel_delay_fails_batch_throughput():
    base = [bench("batch", seed) for seed in (1, 2)]
    slowed = [bench("batch", seed, DELAY_S) for seed in (1, 2)]
    assert regressed(base, slowed, "sim_inst_per_s")
    assert not regressed(base, base[::-1], "sim_inst_per_s")


def test_kernel_delay_leaves_serve_warm_median_latency():
    base = [bench("serve-warm", seed) for seed in (1, 2)]
    slowed = [bench("serve-warm", seed, DELAY_S) for seed in (1, 2)]
    assert not regressed(base, slowed, "latency_p50_ms")
    # The uncached tail does reach the kernel.
    assert regressed(base, slowed, "latency_p99_ms")


def _root(start, end, generation=0, **self_s):
    return tracer.Root(start, end, generation, dict(self_s), {"calls": 1})


def test_breakdown_adds_up_across_threads_and_workers():
    roots = [
        # One process, two threads overlapping on [2, 3].
        _root(0.0, 3.0, **{"executor.self": 2.0, "pipeline.kernel": 1.0}),
        _root(2.0, 4.0, **{"serve.http": 2.0}),
        # Two pool workers while the parent waits in executor.self.
        _root(0.5, 1.5, 1, **{"pipeline.kernel": 1.0}),
        _root(1.0, 1.5, 1, **{"store.get": 0.5}),
    ]
    bd = tracer.breakdown(roots, 0.0, 5.0)
    assert abs(sum(bd["seconds"].values()) + bd["other_s"] - 5.0) < 1e-9
    assert abs(bd["other_s"] - 1.0) < 1e-9
    assert bd["seconds"]["executor.self"] >= 0
    assert abs(bd["seconds"]["store.get"] - 0.25) < 1e-9
    assert bd["counts"]["calls"] == 4


def test_wrappers_keep_lane_routing():
    from repro.api import SchemeSpec
    from repro.pipeline.batched import stream_eligible

    recorder = tracer.install(tracer.Recorder())
    try:
        schemes = {kind: SchemeSpec.make(kind).build() for kind in ("conventional", "wish")}
        assert stream_eligible(schemes["conventional"])
        assert not stream_eligible(schemes["wish"])
    finally:
        recorder.uninstall()
