"""Property-based parity: array-backed predictor tables vs the references.

Each test drives the optimized (array/flat) backend and the reference
backend of one predictor with the same random branch stream and asserts
they match *update for update*: identical predictions and identical table
state after every step.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors.gshare import GsharePredictor
from repro.predictors.history import GlobalHistoryRegister, LocalHistoryTable
from repro.predictors.perceptron import (
    PerceptronConfig,
    PerceptronPredictor,
    flat_perceptron_output,
    flat_perceptron_train,
    perceptron_output,
    perceptron_train,
)
from repro.predictors.predicate_aware import (
    PredicateAwareConfig,
    PredicateAwarePredictor,
)
from repro.predictors.predicate_perceptron import (
    PredicatePredictorConfig,
    PredicatePerceptronPredictor,
)
from repro.predictors.tage import TAGEConfig, TAGEPredictor

#: One predictor access: (pc, global history, resolved outcome).
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 20).map(lambda v: v * 4),
        st.integers(min_value=0, max_value=(1 << 30) - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


class TestGshareParity:
    @settings(max_examples=60, deadline=None)
    @given(stream=steps, history_bits=st.integers(min_value=4, max_value=12))
    def test_matches_reference_update_for_update(self, stream, history_bits):
        reference = GsharePredictor(history_bits=history_bits, optimized=False)
        optimized = GsharePredictor(history_bits=history_bits, optimized=True)
        for pc, history, outcome in stream:
            assert optimized.predict(pc, history) == reference.predict(pc, history)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            assert optimized.table.values == reference.table.values


class TestPerceptronParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=steps)
    def test_matches_reference_update_for_update(self, stream):
        config = PerceptronConfig(
            global_bits=12, local_bits=6, entries=64, local_history_entries=32
        )
        reference = PerceptronPredictor(config, optimized=False)
        optimized = PerceptronPredictor(config, optimized=True)
        touched = set()
        for pc, history, outcome in stream:
            ref_taken, ref_output = reference.predict_with_output(pc, history)
            opt_taken, opt_output = optimized.predict_with_output(pc, history)
            assert (opt_taken, opt_output) == (ref_taken, ref_output)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            touched.add(reference._index(pc))
            for index in touched:
                assert optimized.weight_row(index) == reference.weight_row(index)
        assert optimized._weights == reference._weights


class TestPredicatePerceptronParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=steps, split_pvt=st.booleans())
    def test_matches_reference_update_for_update(self, stream, split_pvt):
        config = PredicatePredictorConfig(
            global_bits=12,
            local_bits=6,
            entries=64,
            local_history_entries=32,
            split_pvt=split_pvt,
        )
        reference = PredicatePerceptronPredictor(config, optimized=False)
        optimized = PredicatePerceptronPredictor(config, optimized=True)
        for step, (pc, history, outcome) in enumerate(stream):
            slot = step % 2
            assert optimized.index_for_slot(pc, slot) == reference.index_for_slot(pc, slot)
            assert optimized.predict_slot(pc, slot, history) == reference.predict_slot(
                pc, slot, history
            )
            assert optimized.predict_compare(pc, history) == reference.predict_compare(
                pc, history
            )
            reference.update_slot(pc, slot, history, outcome)
            optimized.update_slot(pc, slot, history, outcome)
            index = reference.index_for_slot(pc, slot)
            assert optimized.weight_row(index) == reference.weight_row(index)


def _interleaved(rng: random.Random, steps: int = 300):
    """Interleaved predictor accesses: ``(train?, site, slot, history,
    outcome, pick)`` per step.

    A train completes one of the outstanding predictions (``pick`` chooses
    which), so other sites predict and train the same rows in between; with
    no prediction outstanding it trains cold.  Outcomes lean taken (3 in
    4), so weights grow past the training threshold and whether a row
    trains depends on its output.
    """
    return [
        (
            rng.random() < 0.5,
            rng.randrange(3),
            rng.randrange(2),
            rng.randrange(4),
            rng.random() < 0.75,
            rng.randrange(8),
        )
        for _ in range(steps)
    ]


class TestPredicatePerceptronOutputReuse:
    """The optimized backend reuses predict-time outputs at training time.

    Tiny tables make every kind of aliasing routine: one or two 1-bit
    local histories (both slots of a compare share one), one to three PVT
    rows shared by three compares, and 2-bit global histories, so equal
    combined histories recur.  6-bit weights let outputs cross the training
    threshold, so a stale output would change a training decision.  Each
    step must leave both backends with identical predictions and table
    state.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        entries=st.integers(min_value=1, max_value=3),
        local_entries=st.integers(min_value=1, max_value=2),
    )
    def test_interleaved_predict_and_train_match_reference(self, seed, entries, local_entries):
        config = PredicatePredictorConfig(
            global_bits=2,
            local_bits=1,
            weight_bits=6,
            entries=entries,
            local_history_entries=local_entries,
        )
        reference = PredicatePerceptronPredictor(config, optimized=False)
        optimized = PredicatePerceptronPredictor(config, optimized=True)
        pcs = (0x40, 0x80, 0xC4)
        outstanding = []
        for train, compare, slot, history, outcome, pick in _interleaved(random.Random(seed)):
            pc = pcs[compare]
            if train:
                if outstanding:
                    pc, slot, history = outstanding.pop(pick % len(outstanding))
                reference.update_slot(pc, slot, history, outcome)
                optimized.update_slot(pc, slot, history, outcome)
            else:
                assert optimized.predict_slot(pc, slot, history) == reference.predict_slot(
                    pc, slot, history
                )
                outstanding.append((pc, slot, history))
            assert optimized.table_state() == reference.table_state()


class TestPerceptronOutputReuse:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        entries=st.integers(min_value=1, max_value=3),
    )
    def test_interleaved_predict_and_update_match_reference(self, seed, entries):
        config = PerceptronConfig(
            global_bits=2, local_bits=1, weight_bits=6, entries=entries, local_history_entries=2
        )
        reference = PerceptronPredictor(config, optimized=False)
        optimized = PerceptronPredictor(config, optimized=True)
        pcs = (0x40, 0x80, 0xC4)
        outstanding = []
        for train, site, _slot, history, outcome, pick in _interleaved(random.Random(seed)):
            pc = pcs[site]
            if train:
                if outstanding:
                    pc, history = outstanding.pop(pick % len(outstanding))
                reference.update(pc, history, outcome)
                optimized.update(pc, history, outcome)
            else:
                assert optimized.predict_with_output(pc, history) == (
                    reference.predict_with_output(pc, history)
                )
                outstanding.append((pc, history))
            assert optimized._weights == reference._weights
            assert optimized.local_histories.state() == reference.local_histories.state()


class TestFlatRowKernels:
    """The flat-row kernels against the row-based reference, saturation included."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        num_weights=st.integers(min_value=1, max_value=50),
        weight_bits=st.integers(min_value=2, max_value=8),
        outcome=st.booleans(),
        offset=st.integers(min_value=0, max_value=3),
    )
    def test_output_and_train_match_reference(
        self, data, num_weights, weight_bits, outcome, offset
    ):
        weight_min = -(1 << (weight_bits - 1))
        weight_max = (1 << (weight_bits - 1)) - 1
        weight = st.sampled_from([weight_min, weight_max]) | st.integers(weight_min, weight_max)
        row = data.draw(st.lists(weight, min_size=num_weights, max_size=num_weights))
        history = data.draw(st.integers(min_value=0, max_value=(1 << (num_weights - 1)) - 1))
        flat = [0] * offset + list(row) + [0] * 2
        assert flat_perceptron_output(flat, offset, num_weights, history) == (
            perceptron_output(row, history)
        )
        perceptron_train(row, history, outcome, weight_min, weight_max)
        flat_perceptron_train(flat, offset, num_weights, history, outcome, weight_min, weight_max)
        assert flat == [0] * offset + row + [0] * 2


class TestTAGEParity:
    """TAGE reference vs optimized over arbitrary branch streams.

    The config is deliberately tiny: 16-entry tagged tables make tag
    conflicts (and therefore allocation scans, including the all-useful
    decay-everything fallback) routine, and a 16-update decay period puts
    several periodic usefulness halvings inside every 120-step stream.
    """

    @settings(max_examples=40, deadline=None)
    @given(stream=steps)
    def test_matches_reference_update_for_update(self, stream):
        config = TAGEConfig(
            base_bits=5,
            table_bits=4,
            tag_bits=6,
            history_lengths=(3, 6, 11, 16),
            decay_period=16,
        )
        reference = TAGEPredictor(config, optimized=False)
        optimized = TAGEPredictor(config, optimized=True)
        for pc, history, outcome in stream:
            assert optimized.predict(pc, history) == reference.predict(pc, history)
            reference.update(pc, history, outcome)
            optimized.update(pc, history, outcome)
            assert optimized.table_state() == reference.table_state()


class TestPredicateAwareParity:
    @settings(max_examples=40, deadline=None)
    @given(stream=steps)
    def test_matches_reference_update_for_update(self, stream):
        config = PredicateAwareConfig(
            global_bits=10,
            predicate_bits=4,
            local_bits=6,
            entries=64,
            local_history_entries=32,
        )
        reference = PredicateAwarePredictor(config, optimized=False)
        optimized = PredicateAwarePredictor(config, optimized=True)
        touched = set()
        for pc, history, outcome in stream:
            predicate_bits = (history >> 7) & 0xF
            assert optimized.predict_with_output(
                pc, history, predicate_bits
            ) == reference.predict_with_output(pc, history, predicate_bits)
            reference.update(pc, history, predicate_bits, outcome)
            optimized.update(pc, history, predicate_bits, outcome)
            touched.add(reference._index(pc))
            for index in touched:
                assert optimized.weight_row(index) == reference.weight_row(index)
        assert optimized._weights == reference._weights


class TestHistoryStructures:
    @settings(max_examples=60, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=80),
        bits=st.integers(min_value=1, max_value=16),
    )
    def test_ghr_deque_tokens_behave_like_a_shift_register(self, outcomes, bits):
        ghr = GlobalHistoryRegister(bits)
        expected = 0
        tokens = []
        for outcome in outcomes:
            tokens.append(ghr.push(outcome))
            expected = ((expected << 1) | (1 if outcome else 0)) & ((1 << bits) - 1)
        assert ghr.value == expected
        # Repairing the newest bit flips bit zero; stale tokens are refused.
        assert ghr.repair(tokens[-1], not outcomes[-1])
        assert (ghr.value & 1) == (0 if outcomes[-1] else 1)
        if len(tokens) > bits:
            assert not ghr.repair(tokens[0], True)

    @settings(max_examples=60, deadline=None)
    @given(stream=steps)
    def test_local_history_memoized_index_is_stable(self, stream):
        table = LocalHistoryTable(entries=32, bits=8)
        shadow = {}
        for pc, _, outcome in stream:
            index = table._index(pc)
            assert table._index(pc) == index  # memo returns the same index
            expected = ((shadow.get(index, 0) << 1) | (1 if outcome else 0)) & 0xFF
            table.update(pc, outcome)
            shadow[index] = expected
            assert table.read(pc) == expected
