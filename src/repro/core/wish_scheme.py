"""Wish branches: confidence-gated fallback from predication to branching.

Kim, Mutlu, Stark & Patt (MICRO 2005) observe that if-conversion is a bet
made at compile time: predicating a hammock wins when its branch would have
mispredicted, and loses (wasted fetch/execute bandwidth, serialized guard
dependences) when the branch was easy.  A *wish branch* keeps both encodings
alive and lets the hardware pick per dynamic instance: when the guard
predictor is **confident**, the hammock executes in *branch mode* — the
predicted guard steers rename exactly like a predicted branch (false guards
cancel, true guards drop the predicate dependence) and a wrong guess costs a
pipeline flush when the compare computes the true value; when the predictor
is **not confident**, the hammock falls back to *predicate mode* and executes
conservatively predicated, exactly like the baseline.

The scheme composes existing machinery rather than inventing new structures:

* branches use the conventional two-level override organisation (fast gshare
  + a perceptron or TAGE second level, selected by ``second_level``);
* guards are predicted per compare target by the dual-hash predicate
  perceptron (:mod:`repro.predictors.predicate_perceptron`), trained with
  computed values at compare completion;
* the gate is the paper's own saturating-counter
  :class:`~repro.predictors.confidence.ConfidenceEstimator`, one counter per
  guard-predictor entry.

The scheme is *timing-dependent* (``timing_independent = False``): the
branch-vs-predicate decision compares the guard-ready cycle against the
rename cycle, so the lane-batched kernel runs wish lanes as hook lanes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.emulator.executor import DynInst
from repro.isa.registers import NUM_PREDICATE_REGISTERS
from repro.pipeline.scheme_api import (
    BranchHandling,
    BranchHandlingScheme,
    PredicatedHandling,
)
from repro.pipeline.uop import RenameDecision
from repro.core.predicate_scheme import compare_targets
from repro.predictors.confidence import ConfidenceEstimator
from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister
from repro.predictors.multilevel import TwoLevelOverridePredictor
from repro.predictors.perceptron import PerceptronConfig, PerceptronPredictor
from repro.predictors.predicate_perceptron import (
    PredicatePerceptronPredictor,
    PredicatePredictorConfig,
)
from repro.predictors.tage import TAGEConfig, TAGEPredictor
from repro.stats.accuracy import BranchRecord


class WishBranchScheme(BranchHandlingScheme):
    """Per-hammock branch-mode/predicate-mode selection by guard confidence."""

    name = "wish"

    #: The branch-vs-predicate gate reads the guard-ready and rename cycles,
    #: so hook results depend on pipeline timing (hook lane in the batched
    #: kernel).
    timing_independent = False

    def __init__(
        self,
        second_level: str = "perceptron",
        confidence_bits: int = 4,
        perceptron_config: Optional[PerceptronConfig] = None,
        guard_config: Optional[PredicatePredictorConfig] = None,
    ) -> None:
        super().__init__()
        self.second_level = second_level
        self.perceptron_config = perceptron_config or PerceptronConfig()
        if second_level == "tage":
            slow = TAGEPredictor(TAGEConfig())
            branch_history_bits = slow.config.history_bits
        elif second_level == "perceptron":
            slow = PerceptronPredictor(self.perceptron_config)
            branch_history_bits = self.perceptron_config.global_bits
        else:
            raise ValueError(
                f"unknown second_level {second_level!r}; "
                "expected 'perceptron' or 'tage'"
            )
        self.predictor = TwoLevelOverridePredictor(
            fast=GsharePredictor(history_bits=14),
            slow=slow,  # type: ignore[arg-type]
        )
        self.ghr = GlobalHistoryRegister(branch_history_bits)

        self.guard_config = guard_config or PredicatePredictorConfig()
        self.guard_predictor = PredicatePerceptronPredictor(self.guard_config)
        self.confidence = ConfidenceEstimator(
            self.guard_config.entries, bits=confidence_bits
        )
        #: Guard-predictor history, fed with computed values at completion
        #: (no speculative push: wish guards repair nothing, they flush).
        self.guard_ghr = GlobalHistoryRegister(self.guard_config.global_bits)

        #: Committed values of the logical predicate registers.
        self._logical_values: List[bool] = [False] * NUM_PREDICATE_REGISTERS
        self._logical_values[0] = True
        #: Latest in-flight guard prediction per logical predicate register:
        #: ``(predicted, confident)``.
        self._inflight: Dict[int, Tuple[bool, bool]] = {}
        #: Guard training state keyed by the compare's sequence number: one
        #: ``(logical index, slot, history at prediction, predicted,
        #: confidence index)`` per predicted target.
        self._pending_guards: Dict[int, List[Tuple[int, int, int, bool, int]]] = {}
        #: Memo of :func:`compare_targets` per static instruction (``uid``).
        self._targets: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        #: Branch training state keyed by the branch's sequence number.
        self._pending_branches: Dict[int, Tuple[int, int, bool]] = {}

    # ------------------------------------------------------------------
    # Compare handling: predict guards, gate on confidence
    # ------------------------------------------------------------------
    def on_compare_rename(self, dyn: DynInst, fetch_cycle: int, rename_cycle: int) -> None:
        inst = dyn.inst
        pc = dyn.pc
        predictor = self.guard_predictor
        targets = self._targets.get(inst.uid)
        if targets is None:
            targets = self._targets[inst.uid] = compare_targets(inst, pc, predictor)
        if not targets:
            return
        history = self.guard_ghr.value  # no speculative push between targets
        inflight = self._inflight
        pending = []
        for slot, logical, confidence_index in targets:
            predicted, _output = predictor.predict_slot(pc, slot, history)
            inflight[logical] = (predicted, self.confidence.is_confident(confidence_index))
            pending.append((logical, slot, history, predicted, confidence_index))
        self._pending_guards[dyn.seq] = pending
        self.counters.bump("wish_guard_predictions", len(pending))

    def on_compare_complete(self, dyn: DynInst, complete_cycle: int) -> None:
        writes = dyn.pred_writes
        logical_values = self._logical_values
        pending = self._pending_guards.pop(dyn.seq, None)
        if pending is not None:
            wrong = 0
            for logical, slot, history, predicted, confidence_index in pending:
                computed = logical_values[logical]
                for index, value in writes:
                    if index == logical:
                        computed = value
                        break
                correct = predicted == computed
                self.confidence.record(confidence_index, correct)
                self.guard_predictor.update_slot(dyn.pc, slot, history, computed)
                self.guard_ghr.push_resolved(computed)
                if not correct:
                    wrong += 1
            if wrong < len(pending):
                self.counters.bump("wish_guard_predictions_correct", len(pending) - wrong)
            if wrong:
                self.counters.bump("wish_guard_predictions_wrong", wrong)
        for index, value in writes:
            logical_values[index] = value

    # ------------------------------------------------------------------
    # Predicated instructions: the wish gate
    # ------------------------------------------------------------------
    def on_predicated_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> PredicatedHandling:
        guard = self._inflight.get(dyn.inst.qp.index)
        actual = bool(dyn.qp_value)

        if guard is None or guard_ready_cycle <= rename_cycle:
            # The guard value is available at rename: act on it outright
            # (no speculation, no flush risk) — in wish-branch terms the
            # hammock resolved before the mode choice mattered.
            self.counters.bump("wish_resolved_at_rename")
            decision = RenameDecision.ASSUME_TRUE if actual else RenameDecision.CANCEL
            return PredicatedHandling(decision)

        predicted, confident = guard
        if confident:
            # Branch mode: speculate on the predicted guard like a branch.
            self.counters.bump("wish_branch_mode")
            decision = RenameDecision.ASSUME_TRUE if predicted else RenameDecision.CANCEL
            if predicted == actual:
                return PredicatedHandling(decision)
            # Wrong guess: the flush is discovered when the producing
            # compare computes the true guard value.
            self.counters.bump("wish_flushes")
            discovery = max(guard_ready_cycle, rename_cycle + 1)
            return PredicatedHandling(decision, flush_discovery_cycle=discovery)

        # Predicate mode: not confident enough to branch — execute
        # conservatively predicated, like the baseline.
        self.counters.bump("wish_predicate_mode")
        return PredicatedHandling(RenameDecision.CONSERVATIVE)

    # ------------------------------------------------------------------
    # Branch handling: conventional two-level override prediction
    # ------------------------------------------------------------------
    def on_branch_rename(
        self,
        dyn: DynInst,
        fetch_cycle: int,
        rename_cycle: int,
        guard_ready_cycle: int,
    ) -> BranchHandling:
        history = self.ghr.value
        prediction = self.predictor.predict_both(dyn.pc, history)
        actual = bool(dyn.taken)

        record = BranchRecord(
            pc=dyn.pc,
            actual=actual,
            predicted=prediction.final,
            fetch_prediction=prediction.fast,
            early_resolved=False,
        )
        self.accuracy.record(record)
        self.counters.bump("branches")
        if record.mispredicted:
            self.counters.bump("mispredictions")

        # Speculative push + same-branch repair, as in the conventional
        # scheme: no younger correct-path branch observes a stale bit.
        token = self.ghr.push(prediction.final)
        if prediction.final != actual:
            self.ghr.repair(token, actual)

        self._pending_branches[dyn.seq] = (dyn.pc, history, actual)
        return BranchHandling(
            final_prediction=prediction.final,
            fetch_prediction=prediction.fast,
            early_resolved=False,
            override_flush=prediction.overridden,
        )

    def on_branch_resolved(self, dyn: DynInst, resolve_cycle: int, mispredicted: bool) -> None:
        pending = self._pending_branches.pop(dyn.seq, None)
        if pending is None:
            return
        pc, history, actual = pending
        self.predictor.update(pc, history, actual)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        branch_kib = self.predictor.size_report().total_kib
        guard_kib = self.guard_predictor.size_report().total_kib
        return (
            f"wish branches (guard-confidence gate, {self.second_level} second "
            f"level, {branch_kib:.0f}+{guard_kib:.0f} KiB)"
        )
