"""Confidence estimation for selective predicate prediction (section 3.2).

"In order to implement the confidence predictor, each predicate predictor
entry is extended with a saturated counter, that is incremented with every
correct prediction and zeroed if a misprediction occurs.  The prediction is
considered confident if its associated counter is saturated."
"""

from __future__ import annotations

from typing import List

from repro.predictors.base import PredictorSizeReport


class ConfidenceEstimator:
    """Per-entry saturating confidence counters.

    ``entries`` should match the predicate predictor's PVT entry count so
    that each perceptron row has exactly one associated confidence counter
    (the paper extends "each predicate predictor entry").
    """

    def __init__(self, entries: int, bits: int = 3) -> None:
        if entries < 1:
            raise ValueError("confidence estimator needs at least one entry")
        self.entries = entries
        self.bits = bits
        self._max = (1 << bits) - 1
        self._counters: List[int] = [0] * entries

    def _index(self, index: int) -> int:
        return index % self.entries

    # ------------------------------------------------------------------
    def is_confident(self, index: int) -> bool:
        """True when the counter for ``index`` is saturated."""
        return self._counters[index % self.entries] == self._max

    def value(self, index: int) -> int:
        return self._counters[self._index(index)]

    def record_correct(self, index: int) -> None:
        i = self._index(index)
        if self._counters[i] < self._max:
            self._counters[i] += 1

    def record_incorrect(self, index: int) -> None:
        self._counters[self._index(index)] = 0

    def record(self, index: int, correct: bool) -> None:
        # record_correct / record_incorrect inlined: one call per compare
        # target on the predicate-prediction hot path.
        counters = self._counters
        i = index % self.entries
        if not correct:
            counters[i] = 0
        elif counters[i] < self._max:
            counters[i] += 1

    # ------------------------------------------------------------------
    def size_report(self) -> PredictorSizeReport:
        report = PredictorSizeReport()
        report.add("confidence-counters", self.entries * self.bits)
        return report
