"""The base out-of-order processor timing model."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Optional

from repro.isa.instructions import _LATENCY, CONTROL_CLASSES, OpClass
from repro.isa.registers import NUM_REGS
from repro.memsys.hierarchy import MemoryHierarchy
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.functional_units import BandwidthLimiter
from repro.pipeline.lsq import LoadStoreScheduler
from repro.predictors.branch import CombinedPredictor, ReturnAddressStack
from repro.trace.records import DynInst
from repro.trace.sampling import TIMING, SamplingPlan

# Enum members bound once: the per-instruction paths compare against these
# instead of looking the members up on the class every time.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_CALL = OpClass.CALL
_RETURN = OpClass.RETURN

#: timed instructions between two sweeps of the bandwidth counters
_FORGET_INTERVAL = 4096


@dataclass
class SimResult:
    """Outcome of one timing simulation."""

    name: str = ""
    instructions: int = 0
    timing_instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branch_mispredicts: int = 0
    branches: int = 0
    l1d_misses: int = 0
    l1d_accesses: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.timing_instructions / self.cycles if self.cycles else 0.0

    @property
    def branch_accuracy(self) -> float:
        if not self.branches:
            return 1.0
        return 1.0 - self.branch_mispredicts / self.branches

    @property
    def l1d_miss_rate(self) -> float:
        return self.l1d_misses / self.l1d_accesses if self.l1d_accesses else 0.0

    def speedup_over(self, base: "SimResult") -> float:
        """Speedup of this run relative to ``base`` (same instruction stream)."""
        if self.timing_instructions != base.timing_instructions:
            raise ValueError(
                "speedup comparison requires identical instruction streams "
                f"({self.timing_instructions} vs {base.timing_instructions})"
            )
        if not self.cycles:
            raise ValueError("this run has no timing cycles")
        return base.cycles / self.cycles


class Processor:
    """Trace-driven, dataflow-timed model of the Section 5.1 base machine.

    Feed the committed instruction stream to :meth:`run`.  Subclasses hook
    :meth:`_load_value_time` to integrate value-speculative mechanisms.
    """

    def __init__(self, config: ProcessorConfig = ProcessorConfig()) -> None:
        self.config = config
        self.hierarchy = MemoryHierarchy(config.memory)
        self.branch_predictor = CombinedPredictor(config.branch_predictor_entries)
        self.ras = ReturnAddressStack(config.ras_depth)
        self.lsq = LoadStoreScheduler(config, self.hierarchy)
        self._issue = BandwidthLimiter(config.issue_width)
        self._commit_bw = BandwidthLimiter(config.commit_width)
        self._reg_avail = [0] * NUM_REGS
        self._commit_ring: Deque[int] = deque()
        self._last_commit = 0
        self._fetch_cycle = 0
        self._fetch_count = 0
        self._redirect = 0
        self._last_fetch_block = -1
        self._final_cycle = 0
        self._icache_shift = config.memory.l1i.block_bytes.bit_length() - 1
        self._l1i_hit_latency = config.memory.l1i.hit_latency
        self._fetch_width = config.fetch_width
        self._frontend_depth = config.frontend_depth
        self._window_size = config.window_size
        self._operand_read = config.operand_read_cycles
        self.result = SimResult()

    # -- public driver -------------------------------------------------------

    def run(self, trace: Iterable[DynInst],
            sampling: Optional[SamplingPlan] = None,
            name: str = "") -> SimResult:
        """Simulate a committed instruction stream; returns the result.

        With a :class:`SamplingPlan`, functional segments update caches and
        branch predictors only (the paper's sampling scheme); timing
        segments are fully simulated.
        """
        if sampling is not None and sampling.enabled:
            for segment in sampling.segments(trace):
                timing = segment.mode == TIMING
                for inst in segment.instructions:
                    self.feed(inst, timing=timing)
        else:
            for inst in trace:
                self._time_instruction(inst)
        return self.finalize(name)

    def feed(self, inst: DynInst, timing: bool = True) -> None:
        """Incremental driving interface (lets harnesses share a trace pass)."""
        if timing:
            self._time_instruction(inst)
        else:
            self._warm_instruction(inst)

    def finalize(self, name: str = "") -> SimResult:
        """Close out the simulation and return the result."""
        self.result.name = name
        self.result.cycles = self._final_cycle
        self.result.l1d_misses = self.hierarchy.l1d.misses
        self.result.l1d_accesses = self.hierarchy.l1d.accesses
        return self.result

    # -- per-instruction timing ----------------------------------------------

    def _time_instruction(self, inst: DynInst) -> None:
        result = self.result
        result.instructions += 1
        result.timing_instructions += 1

        # ---- fetch ----
        fetch = self._fetch_cycle
        if self._redirect > fetch:
            fetch = self._fetch_cycle = self._redirect
            self._fetch_count = 0
        pc = inst.pc
        block = pc >> self._icache_shift
        if block != self._last_fetch_block:
            self._last_fetch_block = block
            latency = self.hierarchy.fetch(pc, fetch)
            miss_penalty = latency - self._l1i_hit_latency
            if miss_penalty > 0:
                self._fetch_cycle += miss_penalty
                self._fetch_count = 0
                fetch = self._fetch_cycle
        self._fetch_count += 1
        if self._fetch_count >= self._fetch_width:
            self._fetch_cycle += 1
            self._fetch_count = 0

        # ---- dispatch (enter the window) ----
        dispatch = fetch + self._frontend_depth
        commit_ring = self._commit_ring
        if len(commit_ring) >= self._window_size:
            oldest = commit_ring.popleft()
            if oldest + 1 > dispatch:
                dispatch = oldest + 1
        if not result.timing_instructions % _FORGET_INTERVAL:
            # Dispatch never decreases and every later issue, LSQ-port and
            # commit request falls after it, so older counts are dead.
            self._issue.forget_before(dispatch)
            self._commit_bw.forget_before(dispatch)
            self.lsq.ports.forget_before(dispatch)

        # ---- issue ----
        ready = dispatch + 1
        cls = inst.opclass
        srcs = inst.srcs
        reg_avail = self._reg_avail
        if cls == _STORE and len(srcs) > 1:
            # A store issues (and posts its address) as soon as its BASE
            # register is ready; the data register may arrive later and is
            # posted out of order (Section 5.1, rules 3/4).
            avail = reg_avail[srcs[0]]
            if avail > ready:
                ready = avail
        else:
            for src in srcs:
                avail = reg_avail[src]
                if avail > ready:
                    ready = avail
        issue = self._issue.allocate(ready)

        # ---- execute / memory ----
        if cls == _LOAD:
            addr_time = issue + self._operand_read
            value_time = self.lsq.schedule_load(
                pc, inst.word_addr, inst.addr, addr_time)
            # Consumers may see the value earlier (cloaking/bypassing), but
            # the load itself completes — and can commit — only when its own
            # memory access (which also verifies speculation) is done.
            consumer_time = self._load_value_time(inst, dispatch, value_time)
            if inst.rd is not None:
                reg_avail[inst.rd] = consumer_time
            complete = value_time
            result.loads += 1
        elif cls == _STORE:
            addr_time = issue + self._operand_read
            # Stores normally carry (base, data) sources; tolerate synthetic
            # records without a data register (value ready at issue).
            data_time = reg_avail[srcs[1]] if len(srcs) > 1 else issue
            complete = self.lsq.schedule_store(
                pc, inst.word_addr, addr_time, data_time)
            self._store_hook(inst, data_time)
            result.stores += 1
        else:
            complete = issue + _LATENCY[cls]
            if inst.rd is not None:
                reg_avail[inst.rd] = complete
            if cls in CONTROL_CLASSES:
                complete = self._resolve_control(inst, complete)
                result.branches += 1

        # ---- commit (in order, bounded width) ----
        commit_ready = complete + 1
        if self._last_commit > commit_ready:
            commit_ready = self._last_commit
        commit = self._commit_bw.allocate(commit_ready)
        self._last_commit = commit
        commit_ring.append(commit)
        if commit > self._final_cycle:
            self._final_cycle = commit
        if cls == _STORE:
            self.lsq.commit_store(inst.addr, commit)

    def _resolve_control(self, inst: DynInst, resolve: int) -> int:
        """Apply branch prediction; returns the (possibly later) resolve time."""
        cls = inst.opclass
        if cls == _BRANCH:
            correct = self.branch_predictor.observe(inst.pc, inst.taken)
            if not correct:
                self.result.branch_mispredicts += 1
                if resolve + 1 > self._redirect:
                    self._redirect = resolve + 1
        elif cls == _CALL:
            self.ras.push(inst.pc + 4)
        elif cls == _RETURN:
            if not self.ras.predict_and_pop(inst.target_pc):
                self.result.branch_mispredicts += 1
                if resolve + 1 > self._redirect:
                    self._redirect = resolve + 1
        # Direct jumps and calls have decode-time targets: no penalty.
        return resolve

    # -- hooks for the cloaked subclass ---------------------------------------

    def _load_value_time(self, inst: DynInst, dispatch: int,
                         value_time: int) -> int:
        """When a load's value reaches its consumers (hook for cloaking)."""
        return value_time

    def _store_hook(self, inst: DynInst, data_time: int) -> None:
        """Called for every timed store (hook for cloaking producers)."""

    # -- functional warm-up (sampling) ----------------------------------------

    def _warm_instruction(self, inst: DynInst) -> None:
        """Update caches and predictors without advancing timing state."""
        self.result.instructions += 1
        now = self._final_cycle
        pc = inst.pc
        block = pc >> self._icache_shift
        if block != self._last_fetch_block:
            self._last_fetch_block = block
            self.hierarchy.fetch(pc, now)
        cls = inst.opclass
        if cls == _LOAD:
            self.hierarchy.load(inst.addr, now)
        elif cls == _STORE:
            self.hierarchy.store(inst.addr, now)
        elif cls == _BRANCH:
            self.branch_predictor.observe(pc, inst.taken)
        elif cls == _CALL:
            self.ras.push(pc + 4)
        elif cls == _RETURN:
            self.ras.predict_and_pop(inst.target_pc)
