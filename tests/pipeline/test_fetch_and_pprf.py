"""Tests for the fetch engine and the predicate physical register file."""

from repro.emulator import Emulator
from repro.pipeline.config import PipelineConfig
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.pprf import PredicatePhysicalRegisterFile

from tests.conftest import build_counting_loop


def _trace(budget=200):
    program, _ = build_counting_loop()
    return list(Emulator(program).run(budget))


class TestFetchEngine:
    def test_width_limit_per_cycle(self):
        config = PipelineConfig(fetch_width=3)
        fetch = FetchEngine(config, memory=None)
        trace = _trace(60)
        cycles = [fetch.fetch(dyn) for dyn in trace]
        from collections import Counter

        per_cycle = Counter(cycles)
        assert max(per_cycle.values()) <= 3

    def test_taken_branch_ends_group(self):
        config = PipelineConfig(fetch_width=6)
        fetch = FetchEngine(config, memory=None)
        trace = _trace(60)
        cycles = [fetch.fetch(dyn) for dyn in trace]
        for index, dyn in enumerate(trace[:-1]):
            if dyn.is_branch and dyn.taken:
                assert cycles[index + 1] > cycles[index]

    def test_fetch_cycles_monotonic(self):
        fetch = FetchEngine(PipelineConfig(), memory=None)
        trace = _trace(100)
        cycles = [fetch.fetch(dyn) for dyn in trace]
        assert cycles == sorted(cycles)

    def test_redirect_blocks_following_instructions(self):
        fetch = FetchEngine(PipelineConfig(), memory=None)
        trace = _trace(30)
        fetch.fetch(trace[0])
        fetch.redirect(500)
        assert fetch.fetch(trace[1]) >= 500
        assert fetch.redirects == 1

    def test_refetch_current(self):
        fetch = FetchEngine(PipelineConfig(), memory=None)
        trace = _trace(10)
        first = fetch.fetch(trace[0])
        refetched = fetch.refetch_current(trace[0], resume_cycle=first + 50)
        assert refetched >= first + 50

    def test_inline_state_round_trip(self):
        # The fast loop holds fetch state in locals (-1 for None) and writes
        # it back after each window; a checkpoint must pickle the same
        # engine a straight FetchEngine would be.
        fetch = FetchEngine(PipelineConfig(), memory=None)
        assert fetch.inline_state() == (0, 0, -1, -1)
        fetch.set_inline_state(*fetch.inline_state())
        assert fetch._last_block is None and fetch._pending_redirect is None

        trace = _trace(30)
        fetch.fetch(trace[0])
        fetch.redirect(500)
        copy = FetchEngine(PipelineConfig(), memory=None)
        copy.set_inline_state(*fetch.inline_state())
        for slot in ("_group_cycle", "_group_slots", "_last_block", "_pending_redirect"):
            assert getattr(copy, slot) == getattr(fetch, slot)
        assert [copy.fetch(dyn) for dyn in trace[1:]] == [fetch.fetch(dyn) for dyn in trace[1:]]


class TestPPRF:
    def test_allocation_maps_logical_register(self):
        pprf = PredicatePhysicalRegisterFile()
        entry = pprf.allocate(6, producer_pc=0x4000, producer_slot=0, producer_seq=1)
        assert pprf.current(6) is entry
        assert pprf.current(7) is None
        assert len(pprf) == 1

    def test_new_allocation_shadows_old(self):
        pprf = PredicatePhysicalRegisterFile()
        first = pprf.allocate(6, 0x4000, 0, 1)
        second = pprf.allocate(6, 0x4010, 0, 2)
        assert pprf.current(6) is second
        assert first.physical_id != second.physical_id
        assert pprf.allocations == 2

    def test_value_at_prefers_computed_when_available(self):
        pprf = PredicatePhysicalRegisterFile()
        entry = pprf.allocate(6, 0x4000, 0, 1)
        entry.predicted_value = True
        entry.predicted_cycle = 10
        assert entry.value_at(12) is True
        entry.computed_value = False
        entry.computed_cycle = 20
        assert entry.value_at(15) is True      # prediction still in effect
        assert entry.value_at(20) is False     # computed value available
        assert entry.is_resolved_at(20)
        assert not entry.is_resolved_at(19)

    def test_live_entries(self):
        pprf = PredicatePhysicalRegisterFile()
        pprf.allocate(6, 0x4000, 0, 1)
        pprf.allocate(7, 0x4000, 1, 1)
        assert len(pprf.live_entries()) == 2
