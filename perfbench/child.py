"""One measured user command of the ``batch`` workload, in a fresh process.

``run.py`` starts this script once per command in every iteration, so
each command pays what a user's ``repro all`` or ``repro sweep`` pays: a
fresh interpreter, empty in-process caches and no artifact store
(long-stream: a fresh one).
The script prints one JSON report as its last line: the measured interval
(its start ends set-up), the simulated instructions, a digest of every
cell's counters and, in a traced run, the per-layer breakdown.

    PYTHONPATH=src python3 perfbench/child.py --workload paper-cold \
        --work-dir /tmp/x [--trace]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import tracer

#: The benchmark subset: two integer and two floating-point programs.
BENCHMARKS = ("gzip", "twolf", "mcf", "swim")
PAPER_COLD_INSTRUCTIONS = 5_000
SHOOTOUT_INSTRUCTIONS = 10_000
SHOOTOUT_JOBS = 2
#: 20x paper-cold's budget, cut into 4 trace segments and 4 windows.
LONG_STREAM_INSTRUCTIONS = 100_000
LONG_STREAM_SEGMENT_ROWS = 25_000

Results = Dict[Tuple[str, ...], Any]


def _paper_cold(work_dir: str) -> Callable[[], Tuple[Results, Dict[str, Any]]]:
    from repro.api import ExecutionEngine
    from repro.experiments.setup import ExperimentProfile
    from repro.experiments.suite import run_all

    class RecordingEngine(ExecutionEngine):
        """Keeps every experiment's results; ``run_all`` returns only text."""

        def __init__(self, **kwargs) -> None:
            super().__init__(**kwargs)
            self.outputs: Results = {}

        def run(self, definitions, jobs=None):
            outputs = super().run(definitions, jobs=jobs)
            for experiment, table in outputs.items():
                for (benchmark, label), result in table.items():
                    self.outputs[(experiment, benchmark, label)] = result
            return outputs

    engine = RecordingEngine(
        profile=ExperimentProfile(
            name="paper-cold",
            instructions_per_benchmark=PAPER_COLD_INSTRUCTIONS,
            benchmarks=list(BENCHMARKS),
            profile_budget=PAPER_COLD_INSTRUCTIONS,
        )
    )

    def op():
        suite = run_all(engine=engine)
        if len(suite.reports) != 8:
            raise RuntimeError(f"run_all rendered {len(suite.reports)} reports, expected 8")
        return engine.outputs, engine.stats.as_dict()

    return op


def _shootout(work_dir: str) -> Callable[[], Tuple[Results, Dict[str, Any]]]:
    from repro.api import load_scenario, render_sweep, run_sweep

    # As the CLI's --benchmarks/--instructions overrides do.
    scenario = dataclasses.replace(
        load_scenario("scheme-shootout"),
        benchmarks=BENCHMARKS,
        instructions=SHOOTOUT_INSTRUCTIONS,
    )

    def op():
        run = run_sweep(scenario, jobs=SHOOTOUT_JOBS)
        render_sweep(run)
        expected = len(run.spec.definition().requests)
        if len(run.results) != expected:
            raise RuntimeError(f"sweep returned {len(run.results)} of {expected} cells")
        results = {
            (scheme, point.describe(), benchmark): result
            for (scheme, point, benchmark), result in run.results.items()
        }
        return results, run.stats.as_dict()

    return op


def _long_stream(work_dir: str) -> Callable[[], Tuple[Results, Dict[str, Any]]]:
    from repro.api import IF_CONVERTED, ArtifactStore, CellRequest, SchemeSpec, run_cells

    requests = [
        CellRequest(
            benchmark="gzip", flavour=IF_CONVERTED, label=kind, scheme=SchemeSpec.make(kind)
        )
        for kind in ("conventional", "predicate")
    ]
    store = ArtifactStore(os.path.join(work_dir, "store"))

    def op():
        outcome = run_cells(
            requests,
            store=store,
            instructions=LONG_STREAM_INSTRUCTIONS,
            trace_segment_rows=LONG_STREAM_SEGMENT_ROWS,
            checkpoint_every=LONG_STREAM_SEGMENT_ROWS,
        )
        if len(outcome.results) != len(requests):
            raise RuntimeError(f"run_cells returned {len(outcome.results)} of {len(requests)}")
        return {key: result for key, result in outcome.results.items()}, outcome.stats.as_dict()

    return op


WORKLOADS = {"paper-cold": _paper_cold, "shootout": _shootout, "long-stream": _long_stream}
BUDGETS = {
    "paper-cold": PAPER_COLD_INSTRUCTIONS,
    "shootout": SHOOTOUT_INSTRUCTIONS,
    "long-stream": LONG_STREAM_INSTRUCTIONS,
}


def cell_counters(result) -> Tuple[int, ...]:
    """The counters the output check digests for one simulated cell."""
    metrics = result.metrics
    return (
        metrics.committed_instructions,
        metrics.cycles,
        metrics.branch_mispredictions,
        metrics.override_flushes,
        metrics.predicate_flushes,
    )


def digest(rows: List[str]) -> str:
    return hashlib.sha256("\n".join(sorted(rows)).encode("utf-8")).hexdigest()[:16]


def check(results: Results, budget: int) -> Tuple[int, List[str]]:
    """Count implausible cells; return (failed, digest rows)."""
    failed = 0
    rows = []
    for key, result in results.items():
        counters = cell_counters(result)
        committed, cycles = counters[0], counters[1]
        if not (0 < committed <= budget and cycles > 0):
            failed += 1
        rows.append("|".join(map(str, key + counters)))
    return failed, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spans_dir = os.path.join(args.work_dir, "spans")
    recorder = tracer.prepare(spans_dir if args.trace else None)
    op = WORKLOADS[args.workload](args.work_dir)

    start = perf_counter()
    results, stats = op()
    end = perf_counter()

    failed, rows = check(results, BUDGETS[args.workload])
    distinct = {id(result): result for result in results.values()}
    report: Dict[str, Any] = {
        "start": start,
        "end": end,
        "cells": len(results),
        "failed": failed,
        "sim_inst": sum(r.metrics.committed_instructions for r in distinct.values()),
        "digest": digest(rows),
        "stats": stats,
    }
    if recorder is not None:
        roots = recorder.roots + tracer.read_roots(spans_dir)
        report["breakdown"] = tracer.breakdown(roots, start, end)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
