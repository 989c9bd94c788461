"""The repository's benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 50 --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no wrappers installed; ``--trace 1`` alternates untraced and
traced measurements and reports the per-layer breakdown instead.  Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

Workloads (see ``NOTES.md`` for why each exists):

* ``batch``       -- three user commands per iteration, each in a fresh
  process: ``run_all`` over four benchmarks (serial, no store), the
  ``scheme-shootout`` sweep through ``run_sweep`` (``jobs=2``, no store),
  and ``run_cells`` at 20x ``run_all``'s budget with chunked traces and
  checkpoints through a fresh store.
* ``serve-warm``  -- two closed-loop clients against a ``repro serve``
  daemon whose store set-up pre-warms; ``--seed`` draws their mix.

Batch commands run in a fresh process each (``child.py``), as a user's
command would; all scratch files live under ``.perfbench-work/`` in the
working directory and are removed at exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

import tracer
from child import digest

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("batch", "serve-warm")
#: The user commands one ``batch`` iteration runs, in order (``child.py``).
BATCH_COMMANDS = ("paper-cold", "shootout", "long-stream")

END_TO_END = {
    "sim_inst_per_s": "1/s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

KINDS = tuple(tracer.SCHEME_KINDS.values())
KIND_OF_CLASS = {path.rpartition(":")[2]: kind for path, kind in tracer.SCHEME_KINDS.items()}

PER_LAYER = dict(
    [
        ("compiler.build_s", "s"),
        ("compiler.builds", "count"),
        ("emulator.run_s", "s"),
        ("emulator.rows_per_s", "1/s"),
        ("tracepack.encode_s", "s"),
        ("tracepack.decode_s", "s"),
        ("tracepack.bytes", "bytes"),
        ("store.get_s", "s"),
        ("store.gets", "count"),
        ("store.hit_ratio", "ratio"),
        ("store.put_s", "s"),
        ("store.put_bytes", "bytes"),
        ("planner.plan_s", "s"),
        ("planner.dedup_ratio", "ratio"),
        ("serve.http_s", "s"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.coalesced", "count"),
        ("serve.polls_per_job", "count"),
        ("pipeline.kernel_s", "s"),
        ("pipeline.sim_inst", "count"),
        ("pipeline.stream_lanes", "count"),
        ("pipeline.hook_lanes", "count"),
        ("pipeline.checkpoint_s", "s"),
        ("pipeline.checkpoints", "count"),
    ]
    + [(f"core.{kind}.hook_s", "s") for kind in KINDS]
    + [(f"core.{kind}.hook_calls", "count") for kind in KINDS]
    + [
        ("predictors.perceptron_s", "s"),
        ("predictors.predicate_perceptron_s", "s"),
        ("predictors.tage_s", "s"),
        ("executor.self_s", "s"),
        ("executor.jobs_retried", "count"),
        ("executor.workers_lost", "count"),
        ("other_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)

# Wrappers each workload must fire in a traced run (a zero count fails it).
_ENGINE = ["ExecutionEngine.plan", "ExecutionEngine.run", "ExecutionEngine.run_cell_jobs"]
_BUILD = ["ExecutionEngine.build_binary", "compiler.builds", "Emulator.run_pack"]
_CONVENTIONAL = [
    "ConventionalScheme.on_branch_rename",
    "ConventionalScheme.on_branch_resolved",
    "PerceptronPredictor.predict_with_output",
    "PerceptronPredictor.predict",
    "PerceptronPredictor.update",
]
_PREDICATE = [
    "PredicatePredictionScheme.on_compare_rename",
    "PredicatePredictionScheme.on_compare_complete",
    "PredicatePredictionScheme.on_branch_rename",
    "PredicatePredictionScheme.on_branch_resolved",
    "PredicatePredictionScheme.on_predicated_rename",
    "PredicatePerceptronPredictor.predict_slot",
    "PredicatePerceptronPredictor.update_slot",
]
_PEPPA = [
    "PEPPAScheme.on_compare_complete",
    "PEPPAScheme.on_branch_rename",
    "PEPPAScheme.on_branch_resolved",
]
EXPECTED_CALLS = {
    "paper-cold": _ENGINE
    + _BUILD
    + _CONVENTIONAL
    + _PREDICATE
    + _PEPPA
    + [
        "simulate_lanes",
        "stream_eligible",
        "NoAliasPerceptron.predict_with_output",
        "NoAliasPredicatePerceptron.predict_slot",
    ],
    "shootout": _ENGINE
    + _BUILD
    + _CONVENTIONAL
    + _PREDICATE
    + _PEPPA
    + [
        "simulate_lanes",
        "stream_eligible",
        "ArtifactStore.get",
        "PredicateAwareScheme.on_compare_complete",
        "PredicateAwareScheme.on_branch_rename",
        "PredicateAwareScheme.on_branch_resolved",
        "WishBranchScheme.on_compare_rename",
        "WishBranchScheme.on_compare_complete",
        "WishBranchScheme.on_predicated_rename",
        "WishBranchScheme.on_branch_rename",
        "WishBranchScheme.on_branch_resolved",
        "TAGEPredictor.predict",
        "TAGEPredictor.update",
        "TagePredicatePredictor.predict_slot",
        "TagePredicatePredictor.update_slot",
    ],
    "long-stream": _ENGINE
    + _BUILD
    + _CONVENTIONAL
    + _PREDICATE
    + [
        "simulate_windowed",
        "ChunkedPackWriter.add_segment",
        "TracePack.to_bytes",
        "TracePack.from_bytes",
        "ChunkedTracePack.segment",
        "ArtifactStore.get",
        "ArtifactStore.put",
        "ArtifactStore.put_file",
        "pipeline.checkpoints",
    ],
    "serve-warm": _ENGINE
    + _PREDICATE
    + [
        "_Handler.do_GET",
        "_Handler.do_POST",
        "ArtifactStore.get",
        "ArtifactStore.put",
        "OutOfOrderCore.run",
    ],
}

# One ``batch`` iteration must fire every wrapper any of its commands fires.
EXPECTED_CALLS["batch"] = list(
    dict.fromkeys(name for command in BATCH_COMMANDS for name in EXPECTED_CALLS[command])
)

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 40


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any finished child or grandchild (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def layer_metrics(
    bd: Dict[str, Any], units: float, stats: Dict[str, float], serve: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics of one traced phase, per unit of work."""
    seconds, counts = bd["seconds"], bd["counts"]

    def sec(layer: str) -> float:
        return seconds.get(layer, 0.0) / units

    def cnt(name: str) -> float:
        return counts.get(name, 0) / units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "compiler.build_s": sec("compiler.build"),
        "compiler.builds": cnt("compiler.builds"),
        "emulator.run_s": sec("emulator.run"),
        "emulator.rows_per_s": ratio(
            counts.get("emulator.rows", 0), seconds.get("emulator.run", 0)
        ),
        "tracepack.encode_s": sec("tracepack.encode"),
        "tracepack.decode_s": sec("tracepack.decode"),
        "tracepack.bytes": cnt("tracepack.bytes"),
        "store.get_s": sec("store.get"),
        "store.gets": cnt("store.gets"),
        "store.hit_ratio": ratio(counts.get("store.hits", 0), counts.get("store.gets", 0)),
        "store.put_s": sec("store.put"),
        "store.put_bytes": cnt("store.put_bytes"),
        "planner.plan_s": sec("planner.plan"),
        "planner.dedup_ratio": ratio(
            counts.get("planner.requested", 0), counts.get("planner.planned", 0)
        ),
        "serve.http_s": sec("serve.http"),
        "pipeline.kernel_s": sec("pipeline.kernel"),
        "pipeline.sim_inst": cnt("pipeline.sim_inst"),
        "pipeline.stream_lanes": cnt("pipeline.stream_lanes"),
        "pipeline.hook_lanes": cnt("pipeline.hook_lanes"),
        "pipeline.checkpoint_s": sec("pipeline.checkpoint"),
        "pipeline.checkpoints": cnt("pipeline.checkpoints"),
        "predictors.perceptron_s": sec("predictors.perceptron"),
        "predictors.predicate_perceptron_s": sec("predictors.predicate_perceptron"),
        "predictors.tage_s": sec("predictors.tage"),
        "executor.self_s": sec(tracer.EXECUTOR),
        "executor.jobs_retried": stats.get("jobs_retried", 0) / units,
        "executor.workers_lost": stats.get("workers_lost", 0) / units,
        "other_s": bd["other_s"] / units,
        "trace.wall_s": bd["wall_s"] / units,
    }
    for kind in KINDS:
        metrics[f"core.{kind}.hook_s"] = sec(f"core.{kind}.hook")
        metrics[f"core.{kind}.hook_calls"] = 0.0
    for name, value in counts.items():
        cls, _, attr = name.partition(".")
        if cls in KIND_OF_CLASS and attr.startswith("on_"):
            metrics[f"core.{KIND_OF_CLASS[cls]}.hook_calls"] += value / units
    for name in ("serve.queue_wait_ms", "serve.coalesced", "serve.polls_per_job"):
        metrics[name] = serve.get(name, 0.0)
    return metrics


def trace_problems(workload: str, bd: Dict[str, Any]) -> List[str]:
    """Wrappers that never fired, and accounts that do not add up."""
    problems = [
        f"wrapper {name} recorded no calls"
        for name in EXPECTED_CALLS[workload]
        if not bd["counts"].get(name)
    ]
    slack = 1e-6 * max(1.0, bd["wall_s"])
    if bd["other_s"] < -slack:
        problems.append(f"layer self times exceed the wall-clock by {-bd['other_s']:.6f}s")
    if bd["seconds"].get(tracer.EXECUTOR, 0.0) < -slack:
        problems.append("pool workers were attributed more time than their parent waited")
    return problems


def merge_breakdowns(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"wall_s": 0.0, "seconds": {}, "counts": {}, "other_s": 0.0}
    for part in parts:
        merged["wall_s"] += part["wall_s"]
        merged["other_s"] += part["other_s"]
        for key in ("seconds", "counts"):
            for name, value in part[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


class Outcome:
    """What a workload run produced: checks, metrics and notes to print."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.digest = ""


# ----------------------------------------------------------------------
# batch: paper-cold, shootout and long-stream, one fresh process each
# ----------------------------------------------------------------------
def run_child(command: str, work: str, env: Dict[str, str], index: int, traced: bool):
    """One user command in a fresh process; its report, or ``None`` if it failed."""
    child_dir = os.path.join(work, f"iteration-{index}-{command}")
    os.makedirs(child_dir)
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", command]
    argv += ["--work-dir", child_dir] + (["--trace"] if traced else [])
    spawned = perf_counter()
    process = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(process)
        return None
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    if process.returncode != 0:
        return None
    report = json.loads(stdout.decode("utf-8").splitlines()[-1])
    report["setup_s"] = report["start"] - spawned
    return report


def run_iteration(work: str, env: Dict[str, str], index: int, traced: bool):
    """Each of ``BATCH_COMMANDS`` once; the iteration's report, or ``None``."""
    reports = {}
    for command in BATCH_COMMANDS:
        report = run_child(command, work, env, index, traced)
        if report is None:
            return None
        reports[command] = report
    parts = reports.values()
    iteration = {
        "wall": sum(r["end"] - r["start"] for r in parts),
        "setups": [r["setup_s"] for r in parts],
        "digests": {command: r["digest"] for command, r in reports.items()},
        "stats": {},
    }
    for key in ("cells", "failed", "sim_inst"):
        iteration[key] = sum(r[key] for r in parts)
    for report in parts:
        for name, value in report["stats"].items():
            iteration["stats"][name] = iteration["stats"].get(name, 0) + value
    if traced:
        iteration["breakdown"] = merge_breakdowns([r["breakdown"] for r in parts])
    return iteration


def run_batch(seconds: float, trace: bool, work: str, env) -> Outcome:
    outcome = Outcome()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    crashed = 0
    begin = perf_counter()
    index = 0
    while True:
        use_trace = trace and index % 2 == 1
        report = run_iteration(work, env, index, use_trace)
        index += 1
        if report is None:
            crashed += 1
        else:
            (traced if use_trace else plain).append(report)
        enough = index >= (2 * MIN_ITERATIONS if trace else MIN_ITERATIONS)
        if enough and perf_counter() - begin >= seconds:
            break

    reports = plain + traced
    cells = reports[0]["cells"] if reports else 1
    outcome.attempted = sum(r["cells"] for r in reports) + crashed * cells
    outcome.failed = sum(r["failed"] for r in reports) + crashed * cells
    if crashed:
        outcome.problems.append(f"{crashed} iteration(s) had a command exit abnormally")
    if reports:
        first = reports[0]["digests"]
        outcome.digest = digest([f"{command}:{value}" for command, value in first.items()])
        for report in reports:
            differing = [c for c, value in report["digests"].items() if value != first[c]]
            if differing:
                outcome.failed += report["cells"]
                outcome.problems.append(f"{', '.join(differing)} digest differs between iterations")
    if not plain:
        return outcome

    def rate(report: Dict[str, Any], key: str) -> float:
        return report[key] / report["wall"]

    walls = [r["wall"] for r in plain]
    throughput = statistics.median(rate(r, "sim_inst") for r in plain)
    if not trace:
        outcome.metrics = {
            "sim_inst_per_s": throughput,
            "jobs_per_s": statistics.median(rate(r, "cells") for r in plain),
            "latency_p50_ms": statistics.median(walls) * 1000,
            "latency_p99_ms": percentile(walls, 99) * 1000,
            "setup_s": statistics.median(s for r in plain for s in r["setups"]),
            "peak_rss_mb": children_peak_rss_mb(),
        }
        return outcome
    if not traced:
        return outcome
    bd = merge_breakdowns([r["breakdown"] for r in traced])
    outcome.problems += trace_problems("batch", bd)
    stats: Dict[str, float] = {}
    for report in traced:
        for name, value in report["stats"].items():
            stats[name] = stats.get(name, 0) + value
    outcome.metrics = layer_metrics(bd, len(traced), stats, {})
    outcome.metrics["trace.overhead"] = throughput / statistics.median(
        rate(r, "sim_inst") for r in traced
    )
    return outcome


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
SERVE_BENCHMARKS = ("gzip", "mcf")
SERVE_FLAVOURS = ("baseline", "if-converted")
SERVE_SCHEMES = ("conventional", "predicate", "pep-pa")
SERVE_INSTRUCTIONS = 5_000
#: Each client's submissions come in blocks of BLOCK: one cold document of
#: its own, MULTI documents of 2-3 cached cells and single cached cells,
#: in seeded order, then one cold document both clients send at once so
#: the daemon coalesces it.  Fixed proportions keep every seed's mix alike;
#: few cold documents keep the median on cached requests, and each client's
#: own cold document sits in its own half of the block, so two simulations
#: never compete and the tail stays one simulation long.
BLOCK = 50
MULTI = 8
SERVE_SETUPS = 3
POLL_INTERVAL_S = 0.005
DAEMON_TIMEOUT_S = 60

Cell = Dict[str, Any]


def warm_cells() -> List[Cell]:
    return [
        {
            "benchmark": benchmark,
            "flavour": flavour,
            "scheme": scheme,
            "label": f"{flavour}/{scheme}",
        }
        for benchmark in SERVE_BENCHMARKS
        for flavour in SERVE_FLAVOURS
        for scheme in SERVE_SCHEMES
    ]


def cold_cell(window: int) -> Cell:
    """One predicate-scheme cell on a machine point no earlier job simulated."""
    return {
        "benchmark": "gzip",
        "flavour": "if-converted",
        "scheme": "predicate",
        "machine": {"store_forward_window": window},
        "label": f"cold/store_forward_window={window}",
    }


def document(cells: List[Cell]) -> Dict[str, Any]:
    return {"cells": cells, "instructions": SERVE_INSTRUCTIONS}


def mix(seed: int, client: int, phase: int) -> Iterator[Tuple[bool, List[Cell]]]:
    """One client's submissions as ``(shared, cells)``; cold points never repeat."""
    rng = random.Random(f"{seed}:{client}:{phase}")
    warm = warm_cells()
    base = 1_000_000 * (phase + 1)
    for block in itertools.count():
        kinds = ["multi"] * MULTI + ["single"] * (BLOCK - MULTI - 2)
        rng.shuffle(kinds)
        half = len(kinds) // 2
        kinds.insert(client * half + rng.randrange(half), "cold")
        for position, kind in enumerate(kinds):
            if kind == "cold":
                yield False, [cold_cell(base + 100_000 * (client + 1) + block * BLOCK + position)]
            elif kind == "multi":
                yield False, rng.sample(warm, rng.choice((2, 3)))
            else:
                yield False, [rng.choice(warm)]
        yield True, [cold_cell(base + block)]


def wait(api, job_id: str) -> Dict[str, Any]:
    return api.wait(job_id, timeout=DAEMON_TIMEOUT_S, poll_interval=POLL_INTERVAL_S)


def row_key(row: Dict[str, Any]) -> Tuple[str, str]:
    return row["benchmark"], row["label"]


class Daemon:
    """A ``repro serve`` process started through ``serve_launcher.py``."""

    def __init__(self, store: str, env, spans_dir: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        command += ["--spans-dir", spans_dir] if spans_dir else []
        command += ["--", "--cache-dir", store, "serve", "--port", "0", "--journal", "none"]
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        watchdog = threading.Timer(DAEMON_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on " not in line:
            kill_group(self.process)
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]

    def stop(self) -> None:
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            kill_group(self.process)


def serve_clients(url: str, seed: int, phase: int, seconds: float):
    """Run both closed-loop clients for ``seconds``; return their records."""
    from repro.api import ServeClient

    class CountingClient(ServeClient):
        polls = 0

        def job(self, job_id):
            self.polls += 1
            return super().job(job_id)

    barrier = threading.Barrier(2)
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    polls = [0, 0]
    deadline = perf_counter() + seconds

    def client_loop(client: int) -> None:
        api = CountingClient(url, timeout=DAEMON_TIMEOUT_S)
        try:
            for shared, cells in mix(seed, client, phase):
                if perf_counter() >= deadline:
                    break
                if shared:
                    try:
                        barrier.wait(timeout=DAEMON_TIMEOUT_S)
                    except threading.BrokenBarrierError:
                        break
                record: Dict[str, Any] = {"cells": cells, "ok": False, "rows": None}
                started = perf_counter()
                try:
                    job = api.submit(document(cells))
                    snapshot = wait(api, job["id"])
                    if snapshot["state"] == "done":
                        record["rows"] = api.result(job["id"], format="json")["cells"]
                        record["snapshot"] = snapshot
                except Exception as error:  # noqa: BLE001 - counted as a failed submission
                    record["error"] = f"{type(error).__name__}: {error}"
                record["latency"] = perf_counter() - started
                rows = record["rows"]
                expected = {(cell["benchmark"], cell["label"]) for cell in cells}
                record["ok"] = (
                    isinstance(rows, list)
                    and len(rows) == len(cells)
                    and {row_key(row) for row in rows} == expected
                    and all(row["instructions"] > 0 for row in rows)
                )
                with lock:
                    records.append(record)
        finally:
            barrier.abort()
            polls[client] = api.polls

    begin = perf_counter()
    threads = [threading.Thread(target=client_loop, args=(client,)) for client in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, (begin, perf_counter()), sum(polls)


def warm_up(url: str) -> None:
    """Submit every cached cell once and wait for the job."""
    from repro.api import ServeClient

    api = ServeClient(url, timeout=DAEMON_TIMEOUT_S)
    job = api.submit(document(warm_cells()))
    snapshot = wait(api, job["id"])
    if snapshot["state"] != "done":
        raise RuntimeError(f"warm-up job failed: {snapshot.get('error')}")


def serve_setup(work: str, index: int, env) -> Tuple[Daemon, float]:
    """Start a daemon on a fresh store and pre-warm it; return it and the time."""
    started = perf_counter()
    store = os.path.join(work, f"store-{index}")
    daemon = Daemon(store, env)
    try:
        warm_up(daemon.url)
    except BaseException:
        daemon.stop()
        raise
    return daemon, perf_counter() - started


def reference_rows(cells: Dict[Tuple[str, str], Cell]) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """The same cells through ``run_cells`` in this process, with no store."""
    from repro.api import CellRequest, MachineSpec, SchemeSpec, run_cells

    requests = [
        CellRequest(
            benchmark=cell["benchmark"],
            flavour=cell["flavour"],
            label=cell["label"],
            scheme=SchemeSpec.make(cell["scheme"]),
            machine=MachineSpec.make(**cell.get("machine", {})),
        )
        for cell in cells.values()
    ]
    outcome = run_cells(requests, instructions=SERVE_INSTRUCTIONS)
    rows = {}
    for (benchmark, label), result in outcome.results.items():
        # The fields of the daemon's JSON result rows.
        rows[(benchmark, label)] = {
            "ipc": result.metrics.ipc,
            "cycles": result.metrics.cycles,
            "instructions": result.metrics.committed_instructions,
            "branches": result.accuracy.branches,
            "misprediction_rate": result.accuracy.misprediction_rate,
        }
    return rows


def check_serve(outcome: Outcome, records: List[Dict[str, Any]]) -> None:
    """Served rows must repeat exactly and equal ``run_cells``' results."""
    served: Dict[Tuple[str, str], Dict[str, Any]] = {}
    cells: Dict[Tuple[str, str], Cell] = {}
    bad: set = set()
    for record in records:
        for cell in record["cells"]:
            cells[(cell["benchmark"], cell["label"])] = cell
        for row in record["rows"] or []:
            values = {k: v for k, v in row.items() if k not in ("benchmark", "label", "scheme")}
            first = served.setdefault(row_key(row), values)
            if first != values:
                bad.add(row_key(row))
    if cells:
        reference = reference_rows(cells)
        bad |= {key for key, values in served.items() if reference.get(key) != values}
    if bad:
        outcome.problems.append(
            f"{len(bad)} served cell(s) differ from run_cells, e.g. {sorted(bad)[:3]}"
        )
    outcome.attempted += len(records)
    outcome.failed += sum(
        1
        for record in records
        if not record["ok"]
        or any((c["benchmark"], c["label"]) in bad for c in record["cells"])
    )
    errors = [r["error"] for r in records if "error" in r]
    if errors:
        outcome.problems.append(f"{len(errors)} submission(s) raised, e.g. {errors[0]}")
    warm = {(c["benchmark"], c["label"]) for c in warm_cells()}
    rows = [
        "|".join(map(str, key + tuple(sorted(values.items()))))
        for key, values in served.items()
        if key in warm
    ]
    outcome.digest = digest(rows)


def serve_metrics(records, window: Tuple[float, float]) -> Dict[str, float]:
    seconds = window[1] - window[0]
    latencies = [r["latency"] for r in records]
    instructions = sum(row["instructions"] for r in records for row in r["rows"] or [])
    return {
        "sim_inst_per_s": instructions / seconds,
        "jobs_per_s": sum(r["ok"] for r in records) / seconds,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p99_ms": percentile(latencies, 99) * 1000,
    }


def run_serve(seed: int, seconds: float, trace: bool, work: str, env) -> Outcome:
    outcome = Outcome()
    setups: List[float] = []
    daemon: Optional[Daemon] = None
    all_records: List[Dict[str, Any]] = []
    try:
        for index in range(1 if trace else SERVE_SETUPS):
            if daemon is not None:
                daemon.stop()
            daemon, elapsed = serve_setup(work, index, env)
            setups.append(elapsed)
        store = os.path.join(work, f"store-{len(setups) - 1}")
        phase_seconds = seconds / 2 if trace else seconds
        records, window, _ = serve_clients(daemon.url, seed, 0, phase_seconds)
        daemon.stop()
        daemon = None
        all_records += records
        untraced = serve_metrics(records, window)
        if not trace:
            outcome.metrics = dict(untraced, setup_s=statistics.median(setups))
            outcome.metrics["peak_rss_mb"] = children_peak_rss_mb()
        else:
            spans_dir = os.path.join(work, "spans")
            daemon = Daemon(store, env, spans_dir)
            # One untimed cached job, as the untraced daemon had its warm-up.
            warm_up(daemon.url)
            records, window, polls = serve_clients(daemon.url, seed, 1, phase_seconds)
            daemon.stop()
            daemon = None
            all_records += records
            bd = tracer.breakdown(tracer.read_roots(spans_dir), *window)
            outcome.problems += trace_problems("serve-warm", bd)
            snapshots = [r["snapshot"] for r in records if "snapshot" in r]
            stats: Dict[str, float] = {}
            for snapshot in snapshots:
                for name, value in (snapshot.get("stats") or {}).items():
                    stats[name] = stats.get(name, 0) + value
            waits = [1000 * (s["started"] - s["created"]) for s in snapshots if s.get("started")]
            units = max(1, len(records))
            serve = {
                "serve.queue_wait_ms": statistics.median(waits) if waits else 0.0,
                "serve.coalesced": sum(s["coalesced_keys"] for s in snapshots) / units,
                "serve.polls_per_job": polls / units,
            }
            outcome.metrics = layer_metrics(bd, units, stats, serve)
            traced = serve_metrics(records, window)["jobs_per_s"]
            outcome.metrics["trace.overhead"] = untraced["jobs_per_s"] / traced if traced else 0.0
    finally:
        if daemon is not None:
            daemon.stop()
    check_serve(outcome, all_records)
    return outcome


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}; run from the repo root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work_root = os.path.join(root, ".perfbench-work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Pool spill directories and any other temporary files stay in the checkout.
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    trace = bool(args.trace)
    try:
        if args.workload == "serve-warm":
            outcome = run_serve(args.seed, args.seconds, trace, work, env)
        else:
            outcome = run_batch(args.seconds, trace, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    units = PER_LAYER if trace else END_TO_END
    missing = [name for name in units if name not in outcome.metrics]
    if missing:
        outcome.problems.append(f"no measurement for {', '.join(missing)}")
    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"digest {outcome.digest}")
    attempted = max(1, outcome.attempted)
    print(f"error_rate {outcome.failed / attempted:.6f}  ({outcome.failed}/{outcome.attempted})")
    for problem in outcome.problems:
        print(f"problem: {problem}")
    metrics = {}
    for name, unit in units.items():
        if name in outcome.metrics:
            value = outcome.metrics[name]
            print(f"{name:36s} {value:16.6f} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
