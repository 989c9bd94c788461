"""Lane-batched multi-cell simulation: N (scheme, machine) cells, one trace.

Sweep-shaped workloads (the ROB-scaling scenario, predictor-geometry
studies, Table 4 idealization ladders) simulate the *same benchmark trace*
under many (scheme, machine) configurations.  The scalar engine runs each
cell through :meth:`~repro.pipeline.core.OutOfOrderCore._run_fast`, paying
the trace-decoding and per-row bookkeeping cost once per cell.  This module
runs all cells of one :class:`~repro.emulator.tracepack.TracePack` as
*lanes* of a single batched job:

* **Shared, once per batch** — the pack's column decode (one ``tolist`` per
  column), the per-static-instruction decode records (register keys, issue
  queue selection, functional-unit class — the ``_Decode`` work of the
  scalar fast loop), fetch-block ids, fetch-group-ending flags, and the
  per-unit issue totals.
* **Per lane** — everything cycle-dependent: the memory hierarchy (the
  shared L2 makes fetch stalls a function of the lane's own data-side
  traffic), load/store unit, issue queues, ROB window, register timing and
  functional-unit slots.

Every lane runs the same timing loop, :func:`_run_lane`, over the shared
row lists and decode records, with fetch, rename and commit held in
locals.  Lanes differ only in where each conditional branch takes its
decision from:

* **Stream lanes** — schemes that declare
  :attr:`~repro.pipeline.scheme_api.BranchHandlingScheme.timing_independent`
  and override no other hook.  Their prediction evolution is a pure
  function of the branch rows, so it is replayed *once per scheme spec* in
  a prepass (the **decision stream**: per-conditional-branch override and
  mispredict flags) and shared by every machine lane of that spec.  The
  loop makes no scheme calls at all for these lanes.
* **Hook lanes** — every other scheme (predicate prediction, wish
  branches, PEP-PA, predicate-aware).  Branch decisions come from the live
  ``on_branch_rename``/``on_branch_resolved`` hooks; compare and
  predicated-rename hooks are called only when the scheme overrides the
  base-class no-op, and the shared :class:`PackCursor` is filled only for
  rows that reach a hook.  A scheme that overrides ``on_fetch`` observes
  every row and keeps the scalar fast loop
  (:meth:`~repro.pipeline.core.OutOfOrderCore._run_fast`) over a
  shared-column cursor.

When a batch carries several *distinct* stream specs with the same
predictor geometry (``lane_bank_profile``), the prepass steps them in
lockstep through a :class:`~repro.predictors.batched.ConventionalLaneBank`,
which keeps the divergent perceptron weights as one lane-axis numpy array.

Bit-exactness contract: every lane's :class:`SimulationResult` — metrics,
counters, per-branch accuracy records — is identical to what the scalar
engine produces for that (scheme, machine) cell.  The parity suite
(``tests/perf/test_batched_parity.py``) enforces this over randomized lane
sets; any change here must keep it green.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.emulator.tracepack import PackCursor, TracePack
from repro.isa.branches import BranchInstruction
from repro.isa.compare import CompareInstruction
from repro.isa.opcodes import FunctionalUnitClass, OpClass
from repro.isa.registers import Register
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import OutOfOrderCore, SimulationResult, _hook, _reg_key
from repro.pipeline.lsq import LoadStoreUnit
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.resources import FunctionalUnitPool
from repro.pipeline.scheme_api import BranchHandlingScheme
from repro.pipeline.uop import RenameDecision
from repro.predictors.batched import ConventionalLaneBank, lane_bank_supported
from repro.stats.accuracy import BranchAccuracy, BranchRecord

#: Stable small-integer ids for functional-unit classes, shared by every
#: lane of a batch (the per-lane slot tables are plain lists indexed by
#: these instead of dicts keyed by enum members).
_UNITS: Tuple[FunctionalUnitClass, ...] = tuple(FunctionalUnitClass)
_UNIT_INDEX: Dict[FunctionalUnitClass, int] = {u: i for i, u in enumerate(_UNITS)}


class LaneSpec:
    """One cell of a batch: how to build its scheme, and its machine config.

    ``group_key`` identifies the scheme *spec* (any hashable; the engine
    passes the :class:`~repro.engine.jobs.SchemeSpec`).  Lanes with equal
    keys share one decision stream in the prepass; ``None`` opts a lane out
    of sharing.
    """

    __slots__ = ("scheme_factory", "config", "group_key")

    def __init__(self, scheme_factory, config: PipelineConfig, group_key=None) -> None:
        self.scheme_factory = scheme_factory
        self.config = config
        self.group_key = group_key


class _StaticDecode:
    """Machine-independent decode record of one static instruction.

    The pure subset of the scalar fast loop's ``_Decode``: everything that
    does not capture run-local resource objects, so one record serves every
    lane of the batch.  Lanes map ``unit_index`` / ``queue_sel`` to their
    own slot lists and deques.
    """

    __slots__ = (
        "kind",  # 0 = simple, 1 = branch, 2 = compare
        "latency",
        "unit",
        "unit_index",
        "queue_sel",  # -1 = memory (LSQ), 0 = int, 1 = fp, 2 = branch
        "is_memory",
        "is_load",
        "is_store",
        "is_predicated",
        "qp_key",
        "is_cond_branch",
        "src_keys",
        "cons_keys",
        "cmp_src_keys",
        "dest_keys",
        "stream_keys",  # source set of a stream lane (always conservative)
    )


def _build_static(inst) -> _StaticDecode:
    """Shared-decode one static instruction (reference: ``_build_decode``)."""
    info = inst.info
    opclass = info.opclass
    de = _StaticDecode()
    de.latency = info.latency
    de.is_load = opclass is OpClass.LOAD
    de.is_store = opclass is OpClass.STORE
    de.is_memory = de.is_load or de.is_store
    de.is_predicated = inst.is_predicated
    de.qp_key = _reg_key(inst.qp) if de.is_predicated else -1

    if opclass is OpClass.BRANCH:
        de.kind = 1
        unit = FunctionalUnitClass.BRANCH_UNIT
        de.is_cond_branch = isinstance(inst, BranchInstruction) and inst.is_conditional
    elif opclass is OpClass.COMPARE:
        de.kind = 2
        unit = info.unit
        de.is_cond_branch = False
    else:
        de.kind = 0
        unit = info.unit
        de.is_cond_branch = False
    de.unit = unit
    de.unit_index = _UNIT_INDEX[unit]

    if de.is_memory:
        de.queue_sel = -1
    elif opclass is OpClass.BRANCH:
        de.queue_sel = 2
    elif info.unit is FunctionalUnitClass.FP_UNIT:
        de.queue_sel = 1
    else:
        de.queue_sel = 0

    src_regs = [s for s in inst.srcs if isinstance(s, Register)]
    de.src_keys = tuple(_reg_key(r) for r in src_regs if not r.is_hardwired)
    de.dest_keys = tuple(_reg_key(r) for r in inst.destination_registers())
    cons = list(de.src_keys)
    if de.is_predicated:
        cons.append(de.qp_key)
    cons.extend(de.dest_keys)
    de.cons_keys = tuple(cons)
    cmp_keys = list(de.src_keys)
    if de.is_predicated:
        cmp_keys.append(de.qp_key)
    if isinstance(inst, CompareInstruction) and inst.ctype.depends_on_previous_values:
        cmp_keys.extend(_reg_key(r) for r in inst.predicate_destinations())
    de.cmp_src_keys = cmp_keys and tuple(cmp_keys) or ()
    # A stream lane handles every predicated instruction conservatively
    # (the base scheme's on_predicated_rename), so its source set is fixed.
    de.stream_keys = de.cons_keys if de.is_predicated else de.src_keys
    return de


class _SharedTrace:
    """One pack decoded into row lists + static decodes, shared by all lanes."""

    __slots__ = (
        "n_rows",
        "insts",
        "statics",
        "inst_idx",
        "seqs",
        "pcs",
        "qps",
        "execs",
        "takens",
        "targets",
        "nexts",
        "mems",
        "writes",
        "producers",
        "branch_flags",
        "compare_flags",
        "cond_flags",
        "row_decodes",
        "blocks",
        "ends_group",
        "branch_row_indices",
        "n_cond",
        "executed_count",
        "conservative_count",
        "unit_counts",
    )

    def __init__(self, pack: TracePack) -> None:
        self.insts = pack.insts
        self.inst_idx = pack.inst_index.tolist()
        self.seqs = pack.seq.tolist()
        self.pcs = pack.pc.tolist()
        self.qps = (pack.qp_value != 0).tolist()
        self.execs = (pack.executed != 0).tolist()
        self.takens = [None if t < 0 else bool(t) for t in pack.taken.tolist()]
        self.targets = [None if t < 0 else t for t in pack.target_pc.tolist()]
        self.nexts = [None if t < 0 else t for t in pack.next_pc.tolist()]
        self.mems = [
            m if v else None
            for m, v in zip(pack.mem_address.tolist(), pack.mem_valid.tolist())
        ]
        self.writes = pack._materialise_pred_writes()
        self.producers = pack.guard_producer_seq.tolist()
        branch_f, compare_f, cond_f = pack._cursor_static_flags()
        self.branch_flags = branch_f
        self.compare_flags = compare_f
        self.cond_flags = cond_f
        self.n_rows = len(self.seqs)

        statics = [_build_static(inst) for inst in self.insts]
        self.statics = statics
        inst_idx = self.inst_idx
        self.row_decodes = [statics[j] for j in inst_idx]
        self.blocks = [pc >> 6 for pc in self.pcs]
        self.ends_group = [
            branch_f[j] and t is True for j, t in zip(inst_idx, self.takens)
        ]
        self.branch_row_indices = [
            i for i, j in enumerate(inst_idx) if cond_f[j]
        ]
        self.n_cond = len(self.branch_row_indices)
        self.executed_count = sum(self.execs)

        # Lane-invariant issue accounting: every dynamic row issues exactly
        # once unless a scheme cancels it at rename, so the per-unit totals
        # are row counts (counted per static instruction, in first-use order).
        unit_counts: Dict[FunctionalUnitClass, int] = {}
        conservative = 0
        for j, count in Counter(inst_idx).items():
            de = statics[j]
            unit_counts[de.unit] = unit_counts.get(de.unit, 0) + count
            if de.kind == 0 and de.is_predicated:
                conservative += count
        self.unit_counts = unit_counts
        self.conservative_count = conservative

    # ------------------------------------------------------------------
    def cursor_filler(self) -> Callable[[PackCursor, int], None]:
        """A ``fill(cursor, row)`` that writes row ``row`` into ``cursor``.

        Field-for-field what :meth:`TracePack.cursor` yields, read from the
        shared row lists: the lane kernel fills its flyweight only for rows
        that reach a scheme hook.
        """
        insts = self.insts
        inst_idx = self.inst_idx
        seqs = self.seqs
        pcs = self.pcs
        qps = self.qps
        execs = self.execs
        takens = self.takens
        targets = self.targets
        nexts = self.nexts
        mems = self.mems
        writes = self.writes
        producers = self.producers
        branch_f = self.branch_flags
        compare_f = self.compare_flags
        cond_f = self.cond_flags

        def fill(cur: PackCursor, i: int) -> None:
            static = inst_idx[i]
            cur.seq = seqs[i]
            cur.inst = insts[static]
            cur.pc = pcs[i]
            cur.qp_value = qps[i]
            cur.executed = execs[i]
            cur.taken = takens[i]
            cur.target_pc = targets[i]
            cur.next_pc = nexts[i]
            cur.mem_address = mems[i]
            cur.pred_writes = writes[i]
            cur.guard_producer_seq = producers[i]
            cur.is_branch = branch_f[static]
            cur.is_compare = compare_f[static]
            cur.is_conditional_branch = cond_f[static]

        return fill

    def cursor(self) -> Iterator[PackCursor]:
        """A pack-cursor view over the shared row lists, for the scalar
        fast loop (lanes whose scheme observes every fetched row)."""
        cur = PackCursor()
        fill = self.cursor_filler()
        for i in range(self.n_rows):
            fill(cur, i)
            yield cur


class _DecisionStream:
    """One scheme spec's prediction evolution over the batch's trace."""

    __slots__ = ("overrides", "mispreds", "records")

    def __init__(
        self,
        overrides: List[bool],
        mispreds: List[bool],
        records: List[BranchRecord],
    ) -> None:
        self.overrides = overrides
        self.mispreds = mispreds
        self.records = records


def stream_eligible(scheme: BranchHandlingScheme) -> bool:
    """True when ``scheme`` can run as a decision-stream lane.

    Requires the scheme's declaration that its hooks ignore pipeline
    timestamps, *and* that it overrides no hook beyond the branch pair —
    an overridden compare/fetch/predicate hook means the scheme observes
    (or steers) rows the stream replay never visits.
    """
    return scheme.timing_independent and all(
        _hook(scheme, hook) is None
        for hook in (
            "on_fetch",
            "on_compare_rename",
            "on_compare_complete",
            "on_predicated_rename",
        )
    )


def _drive_scheme_stream(
    scheme: BranchHandlingScheme, shared: _SharedTrace
) -> _DecisionStream:
    """Replay the branch rows through a scheme's own hooks (one spec).

    Cycle arguments are zero: a ``timing_independent`` scheme ignores them
    by contract.  The hook call sequence per branch (rename immediately
    followed by resolved) is exactly the scalar fast loop's, so the
    scheme's accuracy records and counters come out bit-identical.
    """
    cur = PackCursor()
    on_rename = scheme.on_branch_rename
    on_resolved = scheme.on_branch_resolved
    fill = shared.cursor_filler()
    overrides: List[bool] = []
    mispreds: List[bool] = []
    for i in shared.branch_row_indices:
        fill(cur, i)
        handling = on_rename(cur, 0, 0, 0)
        mispredicted = handling.final_prediction != cur.taken
        on_resolved(cur, 0, mispredicted)
        overrides.append(handling.override_flush)
        mispreds.append(mispredicted)
    return _DecisionStream(overrides, mispreds, scheme.accuracy.records)


def _drive_bank(
    profile, schemes: Sequence[BranchHandlingScheme], shared: _SharedTrace
) -> List[_DecisionStream]:
    """Replay the branch rows through a lane-axis predictor bank.

    ``schemes`` are the representatives of distinct same-geometry specs;
    their accuracy records are filled exactly as their own hooks would
    have, while the perceptron state steps as one ``(lanes, entries,
    num_weights)`` array (:class:`ConventionalLaneBank`).
    """
    lanes = len(schemes)
    bank = ConventionalLaneBank(profile, lanes)
    step = bank.step
    record_lists = [scheme.accuracy.records for scheme in schemes]
    override_lists: List[List[bool]] = [[] for _ in range(lanes)]
    mispred_lists: List[List[bool]] = [[] for _ in range(lanes)]
    pcs = shared.pcs
    takens = shared.takens
    for i in shared.branch_row_indices:
        pc = pcs[i]
        actual = takens[i] is True
        fast, finals, overrides = step(pc, actual)
        for k in range(lanes):
            final = finals[k]
            record_lists[k].append(
                BranchRecord(
                    pc=pc,
                    actual=actual,
                    predicted=final,
                    fetch_prediction=fast,
                    early_resolved=False,
                )
            )
            override_lists[k].append(overrides[k])
            mispred_lists[k].append(final != actual)
    return [
        _DecisionStream(override_lists[k], mispred_lists[k], record_lists[k])
        for k in range(lanes)
    ]


def _run_lane(
    shared: _SharedTrace,
    cfg: PipelineConfig,
    scheme: BranchHandlingScheme,
    stream: Optional[_DecisionStream],
    accuracy: BranchAccuracy,
    program_name: str,
) -> SimulationResult:
    """The lane timing loop: scalar-fast-loop semantics over the shared decode.

    Each conditional branch takes its decision from one of two sources:
    the spec's precomputed decision ``stream`` (stream lanes; no scheme call
    at all), or the scheme's live ``on_branch_rename``/``on_branch_resolved``
    hooks (``stream is None``: hook lanes).  Compare and predicated-rename
    hooks are called only when the scheme overrides the base no-op, and the
    shared :class:`PackCursor` is filled only for rows that reach a hook.
    The fetch engine, rename/commit slotters and sliding windows are held
    as locals (``-1`` sentinels replace the scalar path's ``None`` states).
    The caller routes schemes that override ``on_fetch`` to the scalar fast
    loop instead.  Any edit here must keep the batched parity suite
    bit-identical against ``_run_fast``.
    """
    memory = MemoryHierarchy()
    fetch_latency = memory.fetch_latency
    lsu = LoadStoreUnit(cfg, memory)
    fus = FunctionalUnitPool(cfg.fu_counts)
    slot_table = [fus._next_free.get(unit) for unit in _UNITS]
    cancelled_units = [0] * len(_UNITS)

    # Sliding windows as bounded deques: appending to a full one drops its
    # oldest release cycle (reference: SlidingWindowResource.allocate).
    rob_cap = cfg.rob_entries
    rob_q: deque = deque(maxlen=rob_cap)
    caps = (cfg.int_queue_entries, cfg.fp_queue_entries, cfg.branch_queue_entries)
    queues = tuple(deque(maxlen=cap) for cap in caps)
    br_q = queues[2]
    rn_width = cfg.rename_width
    cm_width = cfg.commit_width
    fetch_width = cfg.fetch_width
    fetch_to_rename = cfg.fetch_to_rename
    override_flush_penalty = cfg.override_flush_penalty
    branch_mispredict_penalty = cfg.branch_mispredict_penalty
    predicate_mispredict_penalty = cfg.predicate_mispredict_penalty

    queue_constraint = lsu.queue_constraint
    load_complete_cycle = lsu.load_complete_cycle
    store_execute = lsu.store_execute
    store_commit_penalty = lsu.store_commit_penalty
    record_allocation = lsu.record_allocation

    regs: Dict[int, int] = {}
    regs_get = regs.get

    # Decision source and hooks (None = not called).
    cur = PackCursor()
    fill = shared.cursor_filler()
    takens = shared.takens
    if stream is not None:
        overrides = stream.overrides
        mispreds = stream.mispreds
        on_branch_rename = on_branch_resolved = None
        on_compare_rename = on_compare_complete = on_predicated_rename = None
    else:
        overrides = mispreds = None
        on_branch_rename = scheme.on_branch_rename
        on_branch_resolved = scheme.on_branch_resolved
        on_compare_rename = _hook(scheme, "on_compare_rename")
        on_compare_complete = _hook(scheme, "on_compare_complete")
        on_predicated_rename = _hook(scheme, "on_predicated_rename")
    compare_hooked = on_compare_rename is not None or on_compare_complete is not None
    bi = 0  # decision-stream position (conditional branches, fetch order)
    CONSERVATIVE = RenameDecision.CONSERVATIVE
    ASSUME_TRUE = RenameDecision.ASSUME_TRUE
    CANCEL = RenameDecision.CANCEL

    n_mispredictions = 0
    n_override_flushes = 0
    n_predicate_flushes = 0
    n_cancelled = 0
    n_conservative = 0
    n_assume_true = 0

    # Inlined FetchEngine state (-1 sentinels for "no block"/"no redirect").
    group_cycle = 0
    group_slots = 0
    last_block = -1
    pending_redirect = -1
    icache_stalls = 0
    redirects = 0
    # Inlined rename/commit slotters.
    rn_cycle = -1
    rn_used = 0
    cm_cycle = -1
    cm_used = 0
    last_commit = 0

    for i, de, pc, block, ends_group, execd, mem in zip(
        range(shared.n_rows),
        shared.row_decodes,
        shared.pcs,
        shared.blocks,
        shared.ends_group,
        shared.execs,
        shared.mems,
    ):
        # ----------------------------------------------------- fetch
        cycle = group_cycle
        if pending_redirect >= 0:
            if pending_redirect > cycle:
                cycle = pending_redirect
                group_slots = 0
            pending_redirect = -1
        if group_slots >= fetch_width:
            cycle += 1
            group_slots = 0
        if block != last_block:
            last_block = block
            latency = fetch_latency(pc, cycle)
            if latency > 1:
                stall = latency - 1
                cycle += stall
                icache_stalls += stall
                group_slots = 0
        fetch_cycle = cycle
        group_slots += 1
        group_cycle = cycle
        if ends_group:  # taken control transfer ends the fetch group
            group_cycle = cycle + 1
            group_slots = 0
            last_block = -1

        # ---------------------------------------------------- rename
        cycle = fetch_cycle + fetch_to_rename
        if i >= rob_cap and rob_q[0] > cycle:  # one ROB entry per older row
            cycle = rob_q[0]
        qsel = de.queue_sel
        if qsel < 0:
            cycle = queue_constraint(de.is_store, cycle)
        else:
            queue = queues[qsel]
            if len(queue) >= caps[qsel] and queue[0] > cycle:
                cycle = queue[0]
        if cycle < rn_cycle:
            cycle = rn_cycle
        if cycle == rn_cycle and rn_used >= rn_width:
            cycle += 1
        if cycle > rn_cycle:
            rn_cycle = cycle
            rn_used = 1
        else:
            rn_used += 1
        rename_cycle = cycle

        kind = de.kind
        cancelled = False
        # ------------------------------------------- per-class handling
        if kind == 1:  # branch
            ready = rename_cycle + 2
            guard_ready = 0
            if de.is_predicated:
                guard_ready = regs_get(de.qp_key, 0)
                if guard_ready > ready:
                    ready = guard_ready
            slots = slot_table[de.unit_index]
            best = min(slots)
            issue = ready if ready > best else best
            slots[slots.index(best)] = issue + 1
            br_q.append(issue)
            complete = issue + de.latency

            if de.is_cond_branch:
                if on_branch_rename is None:
                    over = overrides[bi]
                    mis = mispreds[bi]
                    bi += 1
                else:
                    fill(cur, i)
                    handling = on_branch_rename(cur, fetch_cycle, rename_cycle, guard_ready)
                    over = handling.override_flush
                    mis = handling.final_prediction != (takens[i] is True)
                if over:
                    n_override_flushes += 1
                if mis:
                    n_mispredictions += 1
                    redirects += 1
                    redirect = complete + branch_mispredict_penalty
                    if redirect > pending_redirect:
                        pending_redirect = redirect
                elif over:
                    redirects += 1
                    redirect = rename_cycle + override_flush_penalty
                    if redirect > pending_redirect:
                        pending_redirect = redirect
                if on_branch_resolved is not None:
                    on_branch_resolved(cur, complete, mis)

        elif kind == 2:  # compare
            if compare_hooked:
                fill(cur, i)
                if on_compare_rename is not None:
                    on_compare_rename(cur, fetch_cycle, rename_cycle)
            ready = rename_cycle + 2
            for key in de.cmp_src_keys:
                t = regs_get(key, 0)
                if t > ready:
                    ready = t
            slots = slot_table[de.unit_index]
            best = min(slots)
            issue = ready if ready > best else best
            slots[slots.index(best)] = issue + 1
            queues[qsel].append(issue)
            complete = issue + de.latency
            for key in de.dest_keys:
                regs[key] = complete
            if on_compare_complete is not None:
                on_compare_complete(cur, complete)

        else:  # simple (ALU / FP / move / memory / nop)
            keys = de.stream_keys  # conservative when predicated
            if on_predicated_rename is not None and de.is_predicated:
                fill(cur, i)
                handling = on_predicated_rename(
                    cur, fetch_cycle, rename_cycle, regs_get(de.qp_key, 0)
                )
                decision = handling.decision
                if handling.flush_discovery_cycle is not None:
                    # Wrong speculation: flush, re-fetch this row at the
                    # resume cycle (FetchEngine.refetch_current), re-rename
                    # it and handle it conservatively.
                    n_predicate_flushes += 1
                    cycle = handling.flush_discovery_cycle + predicate_mispredict_penalty
                    if group_cycle > cycle:
                        cycle = group_cycle
                    redirects += 1
                    last_block = block
                    latency = fetch_latency(pc, cycle)
                    if latency > 1:
                        stall = latency - 1
                        cycle += stall
                        icache_stalls += stall
                    fetch_cycle = cycle
                    group_slots = 1
                    group_cycle = cycle

                    cycle = fetch_cycle + fetch_to_rename
                    if i >= rob_cap and rob_q[0] > cycle:
                        cycle = rob_q[0]
                    if qsel < 0:
                        cycle = queue_constraint(de.is_store, cycle)
                    else:
                        queue = queues[qsel]
                        if len(queue) >= caps[qsel] and queue[0] > cycle:
                            cycle = queue[0]
                    if cycle < rn_cycle:
                        cycle = rn_cycle
                    if cycle == rn_cycle and rn_used >= rn_width:
                        cycle += 1
                    if cycle > rn_cycle:
                        rn_cycle = cycle
                        rn_used = 1
                    else:
                        rn_used += 1
                    rename_cycle = cycle
                    decision = CONSERVATIVE
                if decision is CANCEL:
                    cancelled = True
                elif decision is ASSUME_TRUE:
                    n_assume_true += 1
                    keys = de.src_keys
                else:
                    n_conservative += 1

            if cancelled:
                n_cancelled += 1
                cancelled_units[de.unit_index] += 1
                complete = rename_cycle
            else:
                ready = rename_cycle + 2
                for key in keys:
                    t = regs_get(key, 0)
                    if t > ready:
                        ready = t
                slots = slot_table[de.unit_index]
                best = min(slots)
                issue = ready if ready > best else best
                slots[slots.index(best)] = issue + 1
                if qsel < 0:
                    address = mem if execd else None
                    if de.is_load:
                        complete = load_complete_cycle(address, issue)
                    else:
                        complete = issue + de.latency
                        store_execute(address, complete)
                else:
                    queues[qsel].append(issue)
                    complete = issue + de.latency
                for key in de.dest_keys:
                    regs[key] = complete

        # ---------------------------------------------------- commit
        commit = complete + 1
        if de.is_store and execd:
            commit += store_commit_penalty(mem, complete)
        if commit < cm_cycle:
            commit = cm_cycle
        if commit == cm_cycle and cm_used >= cm_width:
            commit += 1
        if commit > cm_cycle:
            cm_cycle = commit
            cm_used = 0
        cm_used += 1
        if commit > last_commit:
            last_commit = commit

        rob_q.append(commit)
        if qsel < 0 and not cancelled:
            record_allocation(de.is_store, commit)

    if on_predicated_rename is None:
        # Every predicated simple row was handled conservatively.
        n_conservative = shared.conservative_count

    metrics = PipelineMetrics()
    n = shared.n_rows
    metrics.fetched_instructions = n
    metrics.committed_instructions = n
    metrics.executed_instructions = shared.executed_count
    metrics.nullified_instructions = n - shared.executed_count
    metrics.conditional_branches = shared.n_cond
    metrics.branch_mispredictions = n_mispredictions
    metrics.override_flushes = n_override_flushes
    metrics.predicate_flushes = n_predicate_flushes
    metrics.cancelled_at_rename = n_cancelled
    metrics.conservative_predicated = n_conservative
    metrics.assume_true_predicated = n_assume_true
    metrics.cycles = last_commit
    metrics.memory_stats = memory.statistics()
    # Every row issues once except the ones cancelled at rename.
    issue_counts = fus.issue_counts
    for unit, count in shared.unit_counts.items():
        issued = count - cancelled_units[_UNIT_INDEX[unit]]
        issue_counts[unit] = issue_counts.get(unit, 0) + issued
    metrics.fu_utilisation = fus.utilisation()
    metrics.counters.set("lsq_forwarded_loads", lsu.forwarded_loads)
    metrics.counters.set("fetch_redirects", redirects)
    metrics.counters.set("icache_stall_cycles", icache_stalls)

    return SimulationResult(
        program_name=program_name,
        scheme_name=scheme.name,
        metrics=metrics,
        accuracy=accuracy,
        uops=None,
    )


def simulate_lanes(
    pack: TracePack,
    lanes: Sequence[LaneSpec],
    program_name: str = "program",
) -> List[SimulationResult]:
    """Simulate every lane over one trace pack; results in lane order.

    Each result is bit-identical to running that lane's (scheme, machine)
    cell through the scalar engine.  Every lane runs :func:`_run_lane` over
    the shared decode: stream-eligible lanes read one decision-stream
    prepass per scheme spec (lane-axis banked across same-geometry specs),
    the rest call their scheme's hooks.  Only a scheme that overrides
    ``on_fetch`` runs the scalar fast loop.
    """
    shared = _SharedTrace(pack)
    schemes = [lane.scheme_factory() for lane in lanes]
    results: List[Optional[SimulationResult]] = [None] * len(lanes)

    stream_idx = [i for i, s in enumerate(schemes) if stream_eligible(s)]
    hook_idx = [i for i in range(len(lanes)) if i not in set(stream_idx)]

    # One decision stream per scheme spec (lanes without a group key get a
    # private stream).
    spec_groups: Dict[object, List[int]] = {}
    for i in stream_idx:
        key = lanes[i].group_key
        if key is None:
            key = ("__lane__", i)
        spec_groups.setdefault(key, []).append(i)

    # Distinct same-geometry specs step in lockstep through the lane bank.
    streams: Dict[object, _DecisionStream] = {}
    if lane_bank_supported():
        profile_groups: Dict[object, List[object]] = {}
        for key, members in spec_groups.items():
            profile = schemes[members[0]].lane_bank_profile()
            if profile is not None:
                profile_groups.setdefault(profile, []).append(key)
        for profile, keys in profile_groups.items():
            if len(keys) < 2:
                continue
            reps = [schemes[spec_groups[key][0]] for key in keys]
            for key, stream in zip(keys, _drive_bank(profile, reps, shared)):
                streams[key] = stream

    for key, members in spec_groups.items():
        if key not in streams:
            streams[key] = _drive_scheme_stream(schemes[members[0]], shared)

    for key, members in spec_groups.items():
        stream = streams[key]
        for position, i in enumerate(members):
            if position == 0:
                # The spec representative's scheme already holds the
                # stream's records (its hooks — or the bank — built them).
                accuracy = schemes[i].accuracy
            else:
                accuracy = BranchAccuracy(records=list(stream.records))
            results[i] = _run_lane(
                shared, lanes[i].config, schemes[i], stream, accuracy, program_name
            )

    for i in hook_idx:
        scheme = schemes[i]
        if _hook(scheme, "on_fetch") is not None:
            # A scheme that observes every fetched row keeps the scalar loop.
            core = OutOfOrderCore(config=lanes[i].config, optimized=True)
            results[i] = core._run_fast(shared.cursor(), scheme, program_name)
        else:
            results[i] = _run_lane(
                shared, lanes[i].config, scheme, None, scheme.accuracy, program_name
            )

    return results
