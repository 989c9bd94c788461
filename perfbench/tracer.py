"""Per-layer span recorder for the benchmark's traced run.

The traced run wraps the public functions and methods of each program
layer from outside -- nothing under ``src/`` changes -- and records, per
thread, a stack of open spans.  A span's *self time* is its duration minus
the time of the wrapped calls it made, so the self times inside one
outermost ("root") span add up to that root's duration exactly.  Each root
is kept with its own self-time breakdown and counters; :func:`breakdown`
merges the roots of every process and thread into one account of a
wall-clock window.

Two rules keep the wrappers from changing what they measure:

* Only methods a class defines itself are wrapped (``cls.__dict__``).  The
  lane-batched kernel routes a scheme by testing hook identity against the
  base class (``stream_eligible``, the kernel's ``on_fetch`` skip), so
  wrapping an inherited no-op would reroute lanes.
* Module functions are replaced in every ``repro`` module that imported
  them by name, so callers holding the name see the wrapper.

Roots stay in memory.  Forked pool workers inherit the wrappers and write
their roots to ``spans_dir`` each time ``run_cell_jobs`` returns, because
pool workers exit without running ``atexit``; the traced daemon writes its
roots when it shuts down.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import import_module
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The waiting layer of a process that runs a worker pool: while workers
#: run, the parent sits in ``ExecutionEngine.run``'s own frame.
EXECUTOR = "executor.self"

SCHEME_KINDS = {
    "repro.core.conventional:ConventionalScheme": "conventional",
    "repro.core.peppa_scheme:PEPPAScheme": "pep-pa",
    "repro.core.predicate_scheme:PredicatePredictionScheme": "predicate",
    "repro.core.predicate_aware_scheme:PredicateAwareScheme": "predicate-aware",
    "repro.core.wish_scheme:WishBranchScheme": "wish",
}

HOOKS = (
    "on_fetch",
    "on_compare_rename",
    "on_compare_complete",
    "on_branch_rename",
    "on_branch_resolved",
    "on_predicated_rename",
)

PREDICTORS = {
    "repro.predictors.perceptron:PerceptronPredictor": "predictors.perceptron",
    "repro.predictors.ideal:NoAliasPerceptron": "predictors.perceptron",
    "repro.predictors.predicate_perceptron:PredicatePerceptronPredictor": (
        "predictors.predicate_perceptron"
    ),
    "repro.predictors.ideal:NoAliasPredicatePerceptron": "predictors.predicate_perceptron",
    "repro.predictors.tage:TAGEPredictor": "predictors.tage",
    "repro.predictors.tage:TagePredicatePredictor": "predictors.tage",
}

PREDICTOR_METHODS = (
    "predict",
    "predict_with_output",
    "update",
    "predict_slot",
    "predict_compare",
    "update_slot",
)


@dataclass
class Root:
    """One outermost span: its interval and what happened inside it."""

    start: float
    end: float
    generation: int
    self_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts")

    def __init__(self) -> None:
        #: One ``[child seconds]`` cell per open span.
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}


class Recorder:
    """Collects roots from every thread of one process."""

    def __init__(self, spans_dir: Optional[str] = None) -> None:
        self.spans_dir = spans_dir
        self._restorers: List[Callable[[], None]] = []
        self._reset(generation=0)

    def _reset(self, generation: int) -> None:
        self.pid = os.getpid()
        self.generation = generation
        self.roots: List[Root] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def close_root(self, state: _ThreadState, start: float, end: float) -> None:
        root = Root(start, end, self.generation, state.self_s, state.counts)
        state.self_s = {}
        state.counts = {}
        with self._lock:
            self.roots.append(root)

    def enter_worker(self) -> bool:
        """In a forked pool worker, start a fresh account; True in workers."""
        if os.getpid() != self.pid:
            self._reset(self.generation + 1)
        return self.generation > 0

    def flush(self) -> None:
        """Append this process's roots to ``spans_dir`` and forget them."""
        with self._lock:
            roots, self.roots = self.roots, []
        if not roots or self.spans_dir is None:
            return
        path = os.path.join(self.spans_dir, f"roots-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for root in roots:
                handle.write(json.dumps(asdict(root)) + "\n")

    def uninstall(self) -> None:
        """Put every wrapped function back (in reverse order)."""
        while self._restorers:
            self._restorers.pop()()


def read_roots(spans_dir: str) -> List[Root]:
    """Every root flushed into ``spans_dir`` by other processes."""
    roots: List[Root] = []
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("roots-") and name.endswith(".jsonl"):
            with open(os.path.join(spans_dir, name), encoding="utf-8") as handle:
                roots.extend(Root(**json.loads(line)) for line in handle if line.strip())
    return roots


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
After = Callable[[Dict[str, float], tuple, dict, Any], None]


def _bump(counts: Dict[str, float], name: str, amount: float = 1) -> None:
    counts[name] = counts.get(name, 0) + amount


def span(
    recorder: Recorder,
    fn: Callable,
    name: str,
    layer: Any,
    after: Optional[After] = None,
) -> Callable:
    """Wrap ``fn`` in a span of ``layer`` (a name, or ``f(args, kwargs)``)."""
    layer_of = layer if callable(layer) else None

    def wrapper(*args, **kwargs):
        state = recorder.state()
        stack = state.stack
        frame = [0.0]
        stack.append(frame)
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            key = layer_of(args, kwargs) if layer_of is not None else layer
            self_s = state.self_s
            self_s[key] = self_s.get(key, 0.0) + elapsed - frame[0]
            counts = state.counts
            counts[name] = counts.get(name, 0) + 1
            if stack:
                stack[-1][0] += elapsed
            if ok and after is not None:
                after(counts, args, kwargs, result)
            if not stack:
                recorder.close_root(state, start, end)

    return wrapper


def counter(recorder: Recorder, fn: Callable, name: str, after: Optional[After] = None):
    """Wrap ``fn`` to count calls (and whatever ``after`` adds), untimed."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts = recorder.state().counts
        _bump(counts, name)
        if after is not None:
            after(counts, args, kwargs, result)
        return result

    return wrapper


def resolve(path: str) -> Any:
    """``"package.module:Qualified.name"`` → the object."""
    module_name, _, attr = path.partition(":")
    obj: Any = import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def wrap_method(recorder: Recorder, cls: type, attr: str, make: Callable) -> None:
    """Replace a method ``cls`` defines itself; raise if it only inherits it."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))
    recorder._restorers.append(lambda: setattr(cls, attr, raw))


def wrap_function(recorder: Recorder, path: str, make: Callable) -> None:
    """Replace a module function in every ``repro`` module bound to it."""
    original = resolve(path)
    replacement = make(original)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                recorder._restorers.append(
                    lambda module=module, attr=attr: setattr(module, attr, original)
                )


# ----------------------------------------------------------------------
# The layer map
# ----------------------------------------------------------------------
def _count_rows(counts, args, kwargs, result) -> None:
    _bump(counts, "emulator.rows", result if isinstance(result, int) else len(result))


def _count_encoded(counts, args, kwargs, result) -> None:
    _bump(counts, "tracepack.bytes", len(result))


def _count_decoded(counts, args, kwargs, result) -> None:
    _bump(counts, "tracepack.bytes", len(args[1] if len(args) > 1 else kwargs["data"]))


def _count_get(counts, args, kwargs, result) -> None:
    _bump(counts, "store.gets")
    if result is not None:
        _bump(counts, "store.hits")


def _store_kind(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["kind"]


def _put_layer(args, kwargs) -> str:
    return "pipeline.checkpoint" if _store_kind(args, kwargs) == "checkpoints" else "store.put"


def _count_put(counts, args, kwargs, result) -> None:
    if _store_kind(args, kwargs) == "checkpoints":
        _bump(counts, "pipeline.checkpoints")
    else:
        _bump(counts, "store.put_bytes", os.path.getsize(result))


def _count_plan(counts, args, kwargs, graph) -> None:
    _bump(counts, "planner.requested", graph.requested_simulations())
    _bump(counts, "planner.planned", len(graph.simulations))


def _count_lane(counts, args, kwargs, eligible) -> None:
    _bump(counts, "pipeline.stream_lanes" if eligible else "pipeline.hook_lanes")


def _count_sim_inst(counts, args, kwargs, result) -> None:
    results = result if isinstance(result, list) else [result]
    _bump(counts, "pipeline.sim_inst", sum(r.metrics.committed_instructions for r in results))


def install(recorder: Recorder) -> Recorder:
    """Install every layer wrapper into the loaded program; return ``recorder``."""
    # Import every module that binds a wrapped function by name first, so
    # the replacement reaches all of them.
    for module in (
        "repro.engine.executor",
        "repro.engine.run",
        "repro.pipeline.batched",
        "repro.pipeline.windowed",
        "repro.serve.http",
        "repro.experiments.setup",
    ):
        import_module(module)

    def method(path: str, attr: str, layer: Any, after: Optional[After] = None) -> None:
        cls = resolve(path)
        name = f"{cls.__name__}.{attr}"
        wrap_method(recorder, cls, attr, lambda fn: span(recorder, fn, name, layer, after))

    def count_method(path: str, attr: str, name: str) -> None:
        wrap_method(recorder, resolve(path), attr, lambda fn: counter(recorder, fn, name))

    engine = "repro.engine.executor:ExecutionEngine"
    store = "repro.engine.store:ArtifactStore"
    pack = "repro.emulator.tracepack:TracePack"
    method(engine, "build_binary", "compiler.build")
    count_method("repro.compiler.binaries:BinaryFactory", "build_baseline", "compiler.builds")
    count_method("repro.compiler.binaries:BinaryFactory", "build_if_converted", "compiler.builds")
    method("repro.emulator.executor:Emulator", "run_pack", "emulator.run", _count_rows)
    method(pack, "to_bytes", "tracepack.encode", _count_encoded)
    method(pack, "from_bytes", "tracepack.decode", _count_decoded)
    method("repro.emulator.tracepack:ChunkedPackWriter", "add_segment", "tracepack.encode")
    method("repro.emulator.tracepack:ChunkedTracePack", "segment", "tracepack.decode")
    method(store, "get", "store.get", _count_get)
    method(store, "put", _put_layer, _count_put)
    method(store, "put_file", "store.put", _count_put)
    method(engine, "plan", "planner.plan", _count_plan)
    method(engine, "run", EXECUTOR)
    method("repro.pipeline.core:OutOfOrderCore", "run", "pipeline.kernel", _count_sim_inst)
    method("repro.serve.http:_Handler", "do_GET", "serve.http")
    method("repro.serve.http:_Handler", "do_POST", "serve.http")

    def worker_cell_jobs(fn: Callable) -> Callable:
        timed = span(recorder, fn, "ExecutionEngine.run_cell_jobs", EXECUTOR)

        def wrapper(*args, **kwargs):
            in_worker = recorder.enter_worker()
            try:
                return timed(*args, **kwargs)
            finally:
                if in_worker:
                    recorder.flush()

        return wrapper

    wrap_method(recorder, resolve(engine), "run_cell_jobs", worker_cell_jobs)

    kernels = ("repro.pipeline.batched:simulate_lanes", "repro.pipeline.windowed:simulate_windowed")
    for path in kernels:
        name = path.rpartition(":")[2]
        wrap_function(
            recorder,
            path,
            lambda fn, name=name: span(recorder, fn, name, "pipeline.kernel", _count_sim_inst),
        )
    wrap_function(
        recorder,
        "repro.pipeline.batched:stream_eligible",
        lambda fn: counter(recorder, fn, "stream_eligible", _count_lane),
    )

    kinds: Dict[type, str] = {resolve(path): kind for path, kind in SCHEME_KINDS.items()}
    hook_layers: Dict[type, str] = {}

    def hook_layer(args, kwargs) -> str:
        # Label by the instance's class: a subclass calling an inherited
        # hook is still its own kind.
        cls = type(args[0])
        layer = hook_layers.get(cls)
        if layer is None:
            kind = next(kinds[base] for base in cls.__mro__ if base in kinds)
            layer = hook_layers[cls] = f"core.{kind}.hook"
        return layer

    for cls in kinds:
        for hook in HOOKS:
            if hook in cls.__dict__:
                method_name = f"{cls.__name__}.{hook}"
                wrap_method(
                    recorder,
                    cls,
                    hook,
                    lambda fn, n=method_name: span(recorder, fn, n, hook_layer),
                )
    for path, layer in PREDICTORS.items():
        cls = resolve(path)
        for attr in PREDICTOR_METHODS:
            if attr in cls.__dict__:
                method(path, attr, layer)
    return recorder


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def attribute(roots: Iterable[Root], lo: float, hi: float) -> Tuple[Dict[str, float], float]:
    """Split the part of ``[lo, hi]`` the roots cover among their layers.

    Where ``k`` roots overlap (threads of one process, or pool workers),
    each gets ``1/k`` of the interval, spread over its layers in
    proportion to its own self times.  Returns the per-layer seconds and
    the covered length; the seconds add up to the covered length.
    """
    clipped = [
        (max(root.start, lo), min(root.end, hi), index, root)
        for index, root in enumerate(roots)
        if root.end > root.start and root.end > lo and root.start < hi
    ]
    events: List[Tuple[float, int, int]] = []
    for start, end, index, _ in clipped:
        events.append((start, 1, index))
        events.append((end, -1, index))
    events.sort()
    share: Dict[int, float] = {}
    active: set = set()
    covered = 0.0
    previous = None
    for point, kind, index in events:
        if previous is not None and active and point > previous:
            width = point - previous
            covered += width
            for member in active:
                share[member] = share.get(member, 0.0) + width / len(active)
        previous = point
        if kind > 0:
            active.add(index)
        else:
            active.discard(index)
    seconds: Dict[str, float] = {}
    for _, _, index, root in clipped:
        duration = root.end - root.start
        part = share.get(index, 0.0) / duration
        for layer, value in root.self_s.items():
            seconds[layer] = seconds.get(layer, 0.0) + value * part
    return seconds, covered


def breakdown(roots: List[Root], lo: float, hi: float) -> Dict[str, Any]:
    """Per-layer seconds and counters of the window ``[lo, hi]``.

    Roots of forked pool workers (generation > 0) take the time their
    parent spent waiting on them in ``ExecutionEngine.run``'s own frame.
    ``other_s`` is the window minus every layer's seconds; a negative
    ``other_s`` or executor time would mean double counting.
    """
    own = [root for root in roots if root.generation == 0]
    workers = [root for root in roots if root.generation > 0]
    seconds, _ = attribute(own, lo, hi)
    if workers:
        extra, covered = attribute(workers, lo, hi)
        seconds[EXECUTOR] = seconds.get(EXECUTOR, 0.0) - covered
        for layer, value in extra.items():
            seconds[layer] = seconds.get(layer, 0.0) + value
    counts: Dict[str, float] = {}
    for root in roots:
        if lo <= root.start < hi:
            for name, value in root.counts.items():
                counts[name] = counts.get(name, 0) + value
    wall = hi - lo
    return {
        "wall_s": wall,
        "seconds": seconds,
        "counts": counts,
        "other_s": wall - sum(seconds.values()),
    }


#: Seconds of delay per timing-kernel call; set only by the sensitivity test.
DELAY_ENV = "PERFBENCH_KERNEL_DELAY_S"


def prepare(spans_dir: Optional[str]) -> Optional[Recorder]:
    """Install the layer wrappers (given ``spans_dir``) and any injected delay."""
    recorder = None
    if spans_dir is not None:
        os.makedirs(spans_dir, exist_ok=True)
        recorder = install(Recorder(spans_dir))
    delay = os.environ.get(DELAY_ENV)
    if delay:
        inject_delay(recorder or Recorder(), float(delay))
    return recorder


def inject_delay(recorder: Recorder, seconds: float) -> None:
    """Slow the timing kernel down by ``seconds`` per call."""

    def make(fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            time.sleep(seconds)
            return fn(*args, **kwargs)

        return wrapper

    import_module("repro.engine.executor")
    wrap_function(recorder, "repro.pipeline.batched:simulate_lanes", make)
    wrap_method(recorder, resolve("repro.pipeline.core:OutOfOrderCore"), "run", make)
