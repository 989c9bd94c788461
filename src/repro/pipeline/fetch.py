"""The fetch engine: fetch grouping, instruction cache, redirects.

Fetch delivers up to two bundles (six instructions) per cycle (Table 1).  A
taken control transfer terminates its fetch group; the next group starts the
following cycle from the branch target.  Instruction-cache and ITLB misses
stall the front end.  Redirects — branch misprediction recovery, front-end
override flushes and predicate-misprediction flushes — are communicated by
the core through :meth:`FetchEngine.redirect`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.emulator.executor import DynInst
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import PipelineConfig


class FetchEngine:
    """Assigns a fetch cycle to every dynamic instruction, in order."""

    __slots__ = (
        "config",
        "memory",
        "_fetch_width",
        "_fetch_latency",
        "_group_cycle",
        "_group_slots",
        "_last_block",
        "_pending_redirect",
        "icache_stall_cycles",
        "redirects",
    )

    def __init__(self, config: PipelineConfig, memory: Optional[MemoryHierarchy]) -> None:
        self.config = config
        self.memory = memory
        # Bound copies of the per-fetch constants: ``_fetch_at`` runs once
        # per dynamic instruction and attribute chains through ``config``
        # and ``memory`` are measurable there.
        self._fetch_width = config.fetch_width
        self._fetch_latency = memory.fetch_latency if memory is not None else None
        self._group_cycle = 0
        self._group_slots = 0
        self._last_block: Optional[int] = None
        self._pending_redirect: Optional[int] = None
        self.icache_stall_cycles = 0
        self.redirects = 0

    # ------------------------------------------------------------------
    def redirect(self, resume_cycle: int) -> None:
        """Block fetch of all subsequent instructions until ``resume_cycle``.

        Used after branch misprediction recovery, after a front-end override
        flush, and after a predicate-misprediction flush.  The most
        restrictive pending redirect wins.
        """
        if self._pending_redirect is None or resume_cycle > self._pending_redirect:
            self._pending_redirect = resume_cycle
        self.redirects += 1

    def refetch_current(self, dyn: DynInst, resume_cycle: int) -> int:
        """Re-fetch ``dyn`` itself at ``resume_cycle`` (predicate flush from
        the ROB pointer: the first speculative consumer is squashed and
        re-fetched along with everything younger)."""
        self._group_cycle = max(self._group_cycle, resume_cycle)
        self._group_slots = 0
        self._last_block = None
        self.redirects += 1
        return self._fetch_at(dyn, self._group_cycle)

    # ------------------------------------------------------------------
    def inline_state(self) -> Tuple[int, int, int, int]:
        """``(group cycle, group slots, last block, pending redirect)`` for
        a timing loop that inlines :meth:`fetch`, with ``-1`` for ``None``."""
        return (
            self._group_cycle,
            self._group_slots,
            -1 if self._last_block is None else self._last_block,
            -1 if self._pending_redirect is None else self._pending_redirect,
        )

    def set_inline_state(
        self, group_cycle: int, group_slots: int, last_block: int, pending_redirect: int
    ) -> None:
        """Write back what :meth:`inline_state` handed out (``-1`` -> ``None``)."""
        self._group_cycle = group_cycle
        self._group_slots = group_slots
        self._last_block = None if last_block < 0 else last_block
        self._pending_redirect = None if pending_redirect < 0 else pending_redirect

    # ------------------------------------------------------------------
    def fetch(self, dyn: DynInst) -> int:
        """Return the fetch cycle of ``dyn`` and update fetch state."""
        cycle = self._group_cycle
        if self._pending_redirect is not None:
            if self._pending_redirect > cycle:
                cycle = self._pending_redirect
                self._group_slots = 0
            self._pending_redirect = None
        return self._fetch_at(dyn, cycle)

    def _fetch_at(self, dyn: DynInst, cycle: int) -> int:
        if self._group_slots >= self._fetch_width:
            cycle += 1
            self._group_slots = 0

        block = dyn.pc >> 6
        if block != self._last_block:
            self._last_block = block
            if self._fetch_latency is not None:
                latency = self._fetch_latency(dyn.pc, cycle)
                if latency > 1:
                    stall = latency - 1
                    cycle += stall
                    self.icache_stall_cycles += stall
                    self._group_slots = 0

        fetch_cycle = cycle
        self._group_slots += 1
        self._group_cycle = cycle

        # A taken control transfer ends the fetch group; fetch resumes at the
        # target the next cycle (the BTB/return stack supplies the target).
        if dyn.is_branch and dyn.taken:
            self._group_cycle = cycle + 1
            self._group_slots = 0
            self._last_block = None
        return fetch_cycle
