"""The out-of-order timing core.

A mechanistic dataflow model in the style of Sniper's core models
(Carlson et al., the simulator the paper uses): each dynamic instruction
is processed in program order and assigned fetch / dispatch / issue /
complete / commit cycles subject to

* front-end width and depth (5-wide, 15 stages),
* finite ROB / issue-queue / load-queue / store-queue occupancy,
* register dataflow (an instruction issues when its producers complete),
* functional-unit ports and latencies (Table 1),
* MSHR-limited, bandwidth-limited timed memory accesses, and
* branch misprediction redirects from a TAGE-lite predictor.

Full-ROB stalls — dispatch blocked because the instruction ``ROB-size``
ago has not committed, with a cache-missing load to blame — are detected
here and handed to the attached technique, which is how classic
runahead, PRE and Vector Runahead trigger. Decoupled techniques (DVR)
instead use the per-commit and ``advance_to`` hooks.

One kernel implements the model, and one specification pins it (see
docs/performance.md):

* :meth:`OoOCore.run` — the event-driven kernel, taken by every run:
  the baseline and every technique, behind a live, captured or replayed
  functional source. Time advances only at instruction-boundary events
  (the wakeup times implied by DRAM-stall completions, MSHR
  reclamations, IQ/LQ frees and ROB-head retirement are folded into
  O(1) constraint maxes), and the pipeline state is flat arrays of
  ints: no dict-of-string FU lookups, no per-cycle ticking. Every
  technique hook is called where the reference calls it; the
  baseline's hooks are no-ops.
* :meth:`OoOCore.run_reference` — the original loop, kept verbatim as
  the executable specification. The differential suite
  (``tests/test_ooo_event_kernel.py``) pins ``run`` against it —
  bit-identical cycles, counters and golden trace digests — forever.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import SimConfig
from ..errors import SimulationError
from ..frontend.branch_predictor import TageLitePredictor
from ..isa.instructions import NUM_REGS
from ..isa.predecode import (
    FU_FADD,
    FU_FDIV,
    FU_FMUL,
    FU_INT,
    FU_MEM,
    FU_MUL,
    FU_DIV,
    K_ALU,
    K_BEZ,
    K_BNZ,
    K_LOAD,
    K_PREFETCH,
    K_STORE,
    OP_FU_CLASS,
    decode_program,
)
from ..isa.program import Program
from ..memory.hierarchy import (
    LEVEL_DRAM,
    LEVEL_MSHR,
    HierarchyStats,
    MemoryHierarchy,
)
from ..memory.memory_image import MemoryImage
from ..observability.counters import CounterRegistry
from ..observability.probes import Observability
from ..observability.trace import (
    EV_COMPLETE,
    EV_FETCH,
    EV_ISSUE,
    EV_RETIRE,
)
from ..prefetch.base import NullTechnique, Technique
from ..prefetch.stride import StridePrefetcher
from .functional import FunctionalCore
from .sched import publish_sched_counters


def _dict_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    """Per-key difference of two counter dictionaries (ROI accounting).

    Iterates the union of both key sets: a counter present only in
    ``before`` (e.g. a level bucket seen during warmup but never again
    in the ROI) must surface as a negative delta, not silently vanish.
    """
    return {
        key: delta
        for key in after.keys() | before.keys()
        if (delta := after.get(key, 0) - before.get(key, 0))
    }

# Functional-unit classes (canonical definitions live with the
# pre-decoder; re-exported here under their historical names).
_FU_INT = FU_INT
_FU_MUL = FU_MUL
_FU_DIV = FU_DIV
_FU_FADD = FU_FADD
_FU_FMUL = FU_FMUL
_FU_FDIV = FU_FDIV
_FU_MEM = FU_MEM

# Dense integer codes for the FU classes: the event kernel indexes flat
# lists instead of hashing class-name strings per instruction.
_FU_ORDER = (_FU_INT, _FU_MUL, _FU_DIV, _FU_FADD, _FU_FMUL, _FU_FDIV, _FU_MEM)
_FU_INDEX = {name: idx for idx, name in enumerate(_FU_ORDER)}
_CLS_DIV = _FU_INDEX[_FU_DIV]

# CPI-stack buckets for loads, by hierarchy service level.
_MEM_BUCKETS = {
    "L1": "mem_l1",
    "MSHR": "mem_dram",
    "L2": "mem_l2",
    "L3": "mem_l3",
    "DRAM": "mem_dram",
}

def publish_core_counters(
    registry: CounterRegistry,
    *,
    cycles: int,
    fetched: int,
    committed: int,
    full_stall: int,
    episodes: int,
    commit_blocked: int,
    predictions: int,
    mispredictions: int,
    buckets: Dict[str, int],
) -> None:
    """Publish the ``core.*`` counter family (shared with CycleCore)."""
    registry.set("core.cycles", cycles)
    registry.set("core.fetch.instructions", fetched)
    registry.set("core.commit.instructions", committed)
    registry.set("core.stall.full_rob_cycles", full_stall)
    registry.set("core.stall.episodes", episodes)
    registry.set("core.stall.commit_block_cycles", commit_blocked)
    registry.set("core.branch.predictions", predictions)
    registry.set("core.branch.mispredictions", mispredictions)
    for bucket, value in buckets.items():
        registry.set(f"core.cpi_stack.{bucket}", value)


_OP_CLASS = OP_FU_CLASS


@dataclass
class SimulationResult:
    """Everything the experiment harness needs from one run."""

    workload: str
    technique: str
    instructions: int
    cycles: int
    full_rob_stall_cycles: int
    stall_episodes: int
    commit_block_cycles: int
    branch_predictions: int
    branch_mispredictions: int
    demand_loads: int
    demand_level_counts: Dict[str, int]
    dram_by_source: Dict[str, int]
    prefetches_by_source: Dict[str, int]
    timeliness: Dict[str, int]
    mean_mshr_occupancy: float
    technique_stats: Dict[str, float] = field(default_factory=dict)
    cycle_buckets: Dict[str, int] = field(default_factory=dict)
    #: Full counter-registry snapshot (see docs/observability.md).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Whole-stream event digest when tracing was enabled, else None.
    trace_digest: Optional[str] = None
    #: Events emitted over the run (including ring-evicted ones).
    trace_events: int = 0
    #: Per-check audit record (``repro.audit``) when the run was audited.
    audit: Optional[Dict] = None

    def cpi_stack(self) -> Dict[str, float]:
        """Cycles-per-instruction attribution (Sniper-style CPI stack).

        Buckets: ``base`` (full-width flow), ``mem_l1/l2/l3/dram``
        (load service level on the commit critical path), ``branch``
        (mispredict redirects), ``dependency`` (register dataflow),
        ``issue_contention`` (FU ports), ``backend_full`` (dispatch
        blocked on ROB/IQ/LQ/SQ), ``frontend``, ``commit_width``, and
        ``runahead_block`` (VR's delayed termination). Values sum to
        the run's CPI.
        """
        if not self.instructions:
            return {}
        return {
            bucket: cycles / self.instructions
            for bucket, cycles in sorted(self.cycle_buckets.items())
        }

    def to_dict(self) -> Dict:
        """JSON-friendly dump of every metric (for external tooling)."""
        return {
            "workload": self.workload,
            "technique": self.technique,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "full_rob_stall_cycles": self.full_rob_stall_cycles,
            "stall_episodes": self.stall_episodes,
            "commit_block_cycles": self.commit_block_cycles,
            "branch_predictions": self.branch_predictions,
            "branch_mispredictions": self.branch_mispredictions,
            "demand_loads": self.demand_loads,
            "demand_level_counts": dict(self.demand_level_counts),
            "dram_by_source": dict(self.dram_by_source),
            "prefetches_by_source": dict(self.prefetches_by_source),
            "timeliness": dict(self.timeliness),
            "mean_mshr_occupancy": self.mean_mshr_occupancy,
            "llc_mpki": self.llc_mpki(),
            "cpi_stack": self.cpi_stack(),
            "technique_stats": dict(self.technique_stats),
            "counters": dict(self.counters),
            "trace_digest": self.trace_digest,
            "trace_events": self.trace_events,
            "audit": self.audit,
        }

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def full_rob_stall_fraction(self) -> float:
        return self.full_rob_stall_cycles / self.cycles if self.cycles else 0.0

    @property
    def dram_accesses(self) -> int:
        return sum(self.dram_by_source.values())

    def llc_mpki(self) -> float:
        """Misses (DRAM accesses) per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.dram_accesses / self.instructions


class OoOCore:
    """Drives one program through the timing model with one technique."""

    def __init__(
        self,
        program: Program,
        memory_image: MemoryImage,
        config: Optional[SimConfig] = None,
        technique: Optional[Technique] = None,
        workload_name: str = "workload",
        trace_limit: int = 0,
        observability: Optional[Observability] = None,
        functional_source=None,
    ) -> None:
        self.config = config or SimConfig()
        self.program = program
        self.memory_image = memory_image
        self.technique = technique or NullTechnique()
        self.workload_name = workload_name
        self.hierarchy = MemoryHierarchy(
            self.config.memory,
            ideal=self.technique.wants_ideal_memory,
            tlb_policy=self.config.runahead.tlb_policy,
        )
        self.predictor = TageLitePredictor(self.config.branch)
        #: The stream of architecturally executed instructions. By
        #: default a live interpreter; a trace capture/replay source
        #: (see ``repro.perf.trace``) may stand in — it must provide the
        #: same ``step()`` contract including store-at-fetch memory
        #: updates.
        self.functional = (
            functional_source
            if functional_source is not None
            else FunctionalCore(program, memory_image)
        )
        self.l1_stride_prefetcher: Optional[StridePrefetcher] = None
        if self.config.stride_prefetcher_enabled:
            self.l1_stride_prefetcher = StridePrefetcher(
                streams=self.config.stride_prefetcher_streams,
                degree=self.config.stride_prefetcher_degree,
            )
        #: Opt-in event tracing and profiling hooks; counters are
        #: published into it (or into a fresh registry) at run end
        #: regardless. Must be set before attach() so techniques can
        #: bind the trace.
        self.observability = observability
        self.technique.attach(self)
        self._ran = False
        #: When trace_limit > 0, per-instruction pipeline timestamps for
        #: the first N instructions: (seq, pc, op, fetch, dispatch, ready,
        #: issue, complete, commit). A debugging/teaching aid.
        self.trace_limit = trace_limit
        self.trace: list = []

    # -- decoded-program helpers ----------------------------------------------

    def _decoded(self):
        return (
            self.program.decoded()
            if isinstance(self.program, Program)
            else decode_program(self.program)
        )

    def _fu_tables(self):
        """Flat per-class capacity/latency lists in ``_FU_ORDER`` order."""
        cfg = self.config.core
        fu_caps = [
            cfg.int_alu_units,
            cfg.int_mul_units,
            cfg.int_div_units,
            cfg.fp_add_units,
            cfg.fp_mul_units,
            cfg.fp_div_units,
            cfg.mem_ports,
        ]
        fu_lats = [
            cfg.int_alu_latency,
            cfg.int_mul_latency,
            cfg.int_div_latency,
            cfg.fp_add_latency,
            cfg.fp_mul_latency,
            cfg.fp_div_latency,
            1,  # mem completion comes from the hierarchy, not this table
        ]
        return fu_caps, fu_lats

    # -- event-driven kernel ---------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> SimulationResult:
        """Simulate with the event-driven kernel (the default).

        Produces results bit-identical to :meth:`run_reference` — same
        cycle counts, same counters, same golden trace digests — which
        the differential suite enforces. One kernel serves every run:
        the baseline and every technique, with a live, captured or
        replayed functional source. Architectural execution goes
        through the functional source's ``step()``, and every technique
        hook is invoked exactly where the reference invokes it.
        """
        if self._ran:
            raise SimulationError("an OoOCore instance can only run once")
        self._ran = True
        limit = max_instructions or self.config.max_instructions

        cfg = self.config.core
        width = cfg.width
        fe_depth = cfg.frontend_stages
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        fu_caps, fu_lats = self._fu_tables()
        fu_busy = [dict() for _ in _FU_ORDER]
        div_latency = fu_lats[_CLS_DIV]

        decoded = self._decoded()
        kinds = decoded.kinds
        op_values = decoded.op_values
        cls_of = [_FU_INDEX[name] for name in decoded.fu_classes]
        lat_of = [fu_lats[cls] for cls in cls_of]
        # -1 sentinels let register checks be one int compare instead of
        # an ``is not None`` test against a boxed optional.
        rd_of = [-1 if r is None else r for r in decoded.rd]
        rs1_of = [-1 if r is None else r for r in decoded.rs1]
        rs2_of = [-1 if r is None else r for r in decoded.rs2]

        technique = self.technique
        hierarchy = self.hierarchy
        predictor = self.predictor
        stride_pf = self.l1_stride_prefetcher
        functional_step = self.functional.step
        mshr_available = hierarchy.mshr_available
        hierarchy_access = hierarchy.access
        demand_load = hierarchy.demand_load
        is_mapped = self.memory_image.is_mapped
        predict = predictor.predict
        predictor_update = predictor.update
        technique_on_commit = technique.on_commit
        technique_advance_to = technique.advance_to
        technique_on_demand_load = technique.on_demand_load
        heappush = heapq.heappush
        heappushpop = heapq.heappushpop
        trace_limit = self.trace_limit

        fetch_ring = [0] * width
        commit_ring = [0] * width
        rob_commit_ring = [0] * rob_size
        rob_miss_ring = [False] * rob_size
        # The would-be ROB head, for the full-ROB stall hook only; the
        # reference's (complete, miss, dyn) tuple ring is split into the
        # flat miss ring above plus this object ring.
        rob_dyn_ring = [None] * rob_size
        iq_heap: list = []
        lq_heap: list = []
        # Heap sizes tracked as ints: once a queue fills it stays full
        # (pushpop keeps the size), so the occupancy checks become one
        # int compare instead of a len() call.
        iq_count = 0
        lq_count = 0
        sq_ring = [0] * sq_size
        reg_ready = [0] * NUM_REGS

        next_fetch = 0
        prev_commit = 0
        stores_seen = 0
        full_rob_stall_cycles = 0
        stall_episodes = 0
        commit_block_cycles = 0
        stall_handled_until = 0
        stall_covered_until = 0
        last_miss_complete = 0
        last_redirect_cycle = -1
        cpi_buckets: Dict[str, int] = {}
        warmup = max(0, self.config.warmup_instructions)
        warmup_snapshot = None
        # Scheduler accounting (``core.sched.*``): commit cycles are
        # monotone non-decreasing, so distinct retirement instants are
        # countable with one compare per instruction.
        commit_cycles = 0
        commit_cycles_at_warmup = 0
        last_commit_value = 0
        retire_violations = 0
        level = None
        i = 0
        w_slot = 0  # i % width, maintained incrementally
        r_slot = 0  # i % rob_size

        obs = self.observability
        event_trace = obs.trace if obs is not None else None
        fire_hooks = obs is not None and obs.has_hooks

        def publish_live(registry: CounterRegistry) -> None:
            publish_core_counters(
                registry,
                cycles=max(1, prev_commit),
                fetched=i,
                committed=i,
                full_stall=full_rob_stall_cycles,
                episodes=stall_episodes,
                commit_blocked=commit_block_cycles,
                predictions=predictor.predictions,
                mispredictions=predictor.mispredictions,
                buckets=cpi_buckets,
            )
            hierarchy.publish_counters(registry)
            technique.publish_counters(registry)

        while i < limit:
            dyn = functional_step()
            if dyn is None:
                break
            pc = dyn.pc
            kind = kinds[pc]

            # ---- fetch ----
            fetch = next_fetch
            if technique.fetch_blocked_until > fetch:
                fetch = technique.fetch_blocked_until
            if i >= width:
                prior = fetch_ring[w_slot] + 1
                if prior > fetch:
                    fetch = prior
            fetch_ring[w_slot] = fetch

            # ---- dispatch (rename + queue allocation) ----
            dispatch = fetch + fe_depth
            backend_constraint = 0
            head_dyn = None
            head_was_miss = False
            if iq_count >= iq_size and iq_heap[0] > backend_constraint:
                backend_constraint = iq_heap[0]
            if kind == K_LOAD:
                if lq_count >= lq_size and lq_heap[0] > backend_constraint:
                    backend_constraint = lq_heap[0]
            elif kind == K_STORE and stores_seen >= sq_size:
                constraint = sq_ring[stores_seen % sq_size]
                if constraint > backend_constraint:
                    backend_constraint = constraint
            if i >= rob_size:
                rob_constraint = rob_commit_ring[r_slot]
                if rob_constraint > backend_constraint:
                    backend_constraint = rob_constraint
                head_was_miss = rob_miss_ring[r_slot]
                head_dyn = rob_dyn_ring[r_slot]
            if backend_constraint > dispatch:
                # Backend-full stall (full ROB, or a full IQ/LQ/SQ with
                # the same oldest-miss root cause). The wall-clock stall
                # begins where the previous stall epoch ended — dispatch
                # has been continuously blocked — not at this
                # instruction's own fetch-side readiness.
                covered_from = (
                    dispatch if dispatch > stall_covered_until else stall_covered_until
                )
                if backend_constraint > covered_from:
                    full_rob_stall_cycles += backend_constraint - covered_from
                    stall_covered_until = backend_constraint
                    # Blame memory when an outstanding demand miss spans
                    # the stall window (the classic runahead trigger).
                    memory_blamed = head_was_miss or (last_miss_complete > covered_from)
                    if memory_blamed and covered_from >= stall_handled_until:
                        stall_episodes += 1
                        technique.on_full_rob_stall(
                            covered_from, backend_constraint, head_dyn or dyn
                        )
                        stall_handled_until = backend_constraint
                dispatch = backend_constraint

            # ---- register readiness ----
            ready = dispatch
            rs1 = rs1_of[pc]
            if rs1 >= 0 and reg_ready[rs1] > ready:
                ready = reg_ready[rs1]
            rs2 = rs2_of[pc]
            if rs2 >= 0 and reg_ready[rs2] > ready:
                ready = reg_ready[rs2]

            # ---- issue + execute ----
            cls = cls_of[pc]
            busy = fu_busy[cls]
            capacity = fu_caps[cls]
            issue = ready
            count = busy.get(issue, 0)
            while count >= capacity:
                issue += 1
                count = busy.get(issue, 0)
            busy[issue] = count + 1
            if cls == _CLS_DIV:
                # Divides are unpipelined: occupy the unit for the full
                # latency.
                for extra in range(1, div_latency):
                    busy[issue + extra] = busy.get(issue + extra, 0) + 1

            was_memory_miss = False
            if kind == K_ALU:
                complete = issue + lat_of[pc]
            elif kind == K_LOAD:
                technique_advance_to(issue)
                addr = dyn.addr
                # The load leaves the IQ at issue; if every MSHR is busy
                # it waits in the LSQ for one to free before accessing
                # memory (demand_load fuses the MSHR wait and the timed
                # access).
                mem_start, result = demand_load(addr, issue)
                complete = result.ready
                level = result.level
                if level == LEVEL_DRAM or level == LEVEL_MSHR:
                    was_memory_miss = True
                    if complete > last_miss_complete:
                        last_miss_complete = complete
                if stride_pf is not None:
                    stride_pf.on_demand_load(pc, addr, mem_start, hierarchy)
                technique_on_demand_load(dyn, mem_start, result)
                if lq_count < lq_size:
                    heappush(lq_heap, complete)
                    lq_count += 1
                else:
                    heappushpop(lq_heap, complete)
            elif kind == K_STORE:
                hierarchy_access(dyn.addr, issue, source="main", write=True)
                complete = issue + 1
            elif kind == K_BNZ or kind == K_BEZ:
                complete = issue + 1
                predicted = predict(pc)
                predictor_update(pc, dyn.taken, predicted)
                if predicted != dyn.taken:
                    # Redirect: fetch restarts after the branch resolves.
                    redirect = complete + 1
                    if redirect > next_fetch:
                        next_fetch = redirect
                        last_redirect_cycle = redirect
            elif kind == K_PREFETCH:
                if (
                    dyn.addr is not None
                    and is_mapped(dyn.addr)
                    and mshr_available(issue)
                ):
                    hierarchy_access(dyn.addr, issue, source="prefetcher", prefetch=True)
                complete = issue + 1
            else:
                # JMP / NOP / HALT
                complete = issue + 1

            # ---- in-order commit ----
            commit_floor = prev_commit
            commit = complete + 1
            if prev_commit > commit:
                commit = prev_commit
            if i >= width:
                ring_commit = commit_ring[w_slot] + 1
                if ring_commit > commit:
                    commit = ring_commit
            blocked_until = technique.commit_blocked_until
            technique_blocked = False
            if blocked_until > commit:
                commit_block_cycles += blocked_until - commit
                commit = blocked_until
                technique_blocked = True
            commit_ring[w_slot] = commit
            prev_commit = commit
            if commit != last_commit_value:
                commit_cycles += 1
                last_commit_value = commit
            if commit <= complete:
                retire_violations += 1

            # ---- CPI-stack attribution ----
            delta = commit - commit_floor
            if delta > 0:
                if technique_blocked:
                    bucket = "runahead_block"
                elif commit == complete + 1:
                    if kind == K_LOAD:
                        bucket = _MEM_BUCKETS.get(level, "mem_dram")
                    elif fetch == last_redirect_cycle:
                        bucket = "branch"
                    elif issue > ready:
                        bucket = "issue_contention"
                    elif ready > dispatch:
                        bucket = "dependency"
                    elif dispatch > fetch + fe_depth:
                        bucket = "backend_full"
                    else:
                        bucket = "frontend"
                else:
                    bucket = "commit_width"
                cpi_buckets[bucket] = cpi_buckets.get(bucket, 0) + delta

            # ---- bookkeeping for later occupancy constraints ----
            rob_commit_ring[r_slot] = commit
            rob_miss_ring[r_slot] = was_memory_miss
            rob_dyn_ring[r_slot] = dyn
            if iq_count < iq_size:
                heappush(iq_heap, issue)
                iq_count += 1
            else:
                heappushpop(iq_heap, issue)
            if kind == K_STORE:
                sq_ring[stores_seen % sq_size] = commit
                stores_seen += 1
            rd = rd_of[pc]
            if rd >= 0:
                reg_ready[rd] = complete

            if i < trace_limit:
                self.trace.append(
                    (i, pc, dyn.instr.opcode.name,
                     fetch, dispatch, ready, issue, complete, commit)
                )
            if event_trace is not None:
                opv = op_values[pc]
                event_trace.emit(fetch, EV_FETCH, pc, opv)
                event_trace.emit(issue, EV_ISSUE, pc, opv)
                event_trace.emit(complete, EV_COMPLETE, pc, opv)
                event_trace.emit(commit, EV_RETIRE, pc, opv)
            technique_on_commit(dyn, commit, complete)
            i += 1
            w_slot += 1
            if w_slot == width:
                w_slot = 0
            r_slot += 1
            if r_slot == rob_size:
                r_slot = 0
            if fire_hooks:
                obs.maybe_fire(i, prev_commit, publish_live)
            if warmup and i == warmup:
                warmup_snapshot = self._snapshot(
                    prev_commit,
                    full_rob_stall_cycles,
                    stall_episodes,
                    commit_block_cycles,
                    cpi_buckets,
                )
                commit_cycles_at_warmup = commit_cycles

        return self._finalize(
            instructions=i,
            prev_commit=prev_commit,
            full_rob_stall_cycles=full_rob_stall_cycles,
            stall_episodes=stall_episodes,
            commit_block_cycles=commit_block_cycles,
            cpi_buckets=cpi_buckets,
            warmup=warmup,
            warmup_snapshot=warmup_snapshot,
            event_trace=event_trace,
            sched={
                "commit_cycles": commit_cycles,
                "commit_cycles_at_warmup": commit_cycles_at_warmup,
                "retire_violations": retire_violations,
            },
        )

    # -- reference loop --------------------------------------------------------

    def run_reference(self, max_instructions: Optional[int] = None) -> SimulationResult:
        """The original kernel, kept verbatim as the executable spec.

        Bit-identical to :meth:`run` (the differential suite enforces
        this over the full workload × technique matrix), an order of
        magnitude slower, and never going away: it is the escape hatch
        when a change to the event kernel needs a trusted baseline.
        """
        if self._ran:
            raise SimulationError("an OoOCore instance can only run once")
        self._ran = True
        cfg = self.config.core
        limit = max_instructions or self.config.max_instructions
        width = cfg.width
        fe_depth = cfg.frontend_stages
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size

        # Port bandwidth: issue is out of order, so a port unused at cycle
        # X is free at X regardless of processing order. We count issues
        # per (class, cycle) and linearly probe for a free slot.
        fu_units: Dict[str, int] = {
            _FU_INT: cfg.int_alu_units,
            _FU_MUL: cfg.int_mul_units,
            _FU_DIV: cfg.int_div_units,
            _FU_FADD: cfg.fp_add_units,
            _FU_FMUL: cfg.fp_mul_units,
            _FU_FDIV: cfg.fp_div_units,
            _FU_MEM: cfg.mem_ports,
        }
        fu_busy: Dict[str, Dict[int, int]] = {cls: {} for cls in fu_units}
        fu_latency = {
            _FU_INT: cfg.int_alu_latency,
            _FU_MUL: cfg.int_mul_latency,
            _FU_DIV: cfg.int_div_latency,
            _FU_FADD: cfg.fp_add_latency,
            _FU_FMUL: cfg.fp_mul_latency,
            _FU_FDIV: cfg.fp_div_latency,
        }

        fetch_ring = [0] * width
        commit_ring = [0] * width
        rob_commit_ring = [0] * rob_size
        # blame ring: (complete_cycle, was_memory_miss) of the would-be head
        rob_blame_ring = [(0, False, None)] * rob_size
        # The IQ and LQ free entries out of order: an entry is available
        # once *any* occupant leaves. We track the ``size`` largest
        # leave-times in a min-heap; its minimum is the cycle at which the
        # next slot frees (an order-statistic, not a FIFO ring).
        iq_heap: list = []
        lq_heap: list = []
        sq_ring = [0] * sq_size
        reg_ready = [0] * NUM_REGS

        technique = self.technique
        hierarchy = self.hierarchy
        predictor = self.predictor
        stride_pf = self.l1_stride_prefetcher

        # Pre-decoded per-PC arrays and hoisted bound methods: the loop
        # below runs once per dynamic instruction, so every attribute
        # lookup and Opcode-enum comparison it avoids is paid millions
        # of times over a long run.
        decoded = self._decoded()
        kinds = decoded.kinds
        fu_classes = decoded.fu_classes
        op_values = decoded.op_values
        rd_of = decoded.rd
        rs1_of = decoded.rs1
        rs2_of = decoded.rs2
        functional_step = self.functional.step
        mshr_available = hierarchy.mshr_available
        load_needs_mshr = hierarchy.load_needs_mshr
        hierarchy_access = hierarchy.access
        is_mapped = self.memory_image.is_mapped
        predict = predictor.predict
        predictor_update = predictor.update
        technique_on_commit = technique.on_commit
        trace_limit = self.trace_limit

        next_fetch = 0
        prev_commit = 0
        stores_seen = 0
        full_rob_stall_cycles = 0
        stall_episodes = 0
        commit_block_cycles = 0
        stall_handled_until = 0
        stall_covered_until = 0
        last_miss_complete = 0
        last_redirect_cycle = -1
        cpi_buckets: Dict[str, int] = {}
        warmup = max(0, self.config.warmup_instructions)
        warmup_snapshot = None
        i = 0

        # Observability: event tracing and profiling hooks are opt-in;
        # with neither attached the loop pays two predicate tests per
        # instruction and nothing more.
        obs = self.observability
        event_trace = obs.trace if obs is not None else None
        fire_hooks = obs is not None and obs.has_hooks

        def publish_live(registry: CounterRegistry) -> None:
            # Raw running aggregates for mid-run hook snapshots (final
            # counters are ROI-adjusted; see _finalize()).
            publish_core_counters(
                registry,
                cycles=max(1, prev_commit),
                fetched=i,
                committed=i,
                full_stall=full_rob_stall_cycles,
                episodes=stall_episodes,
                commit_blocked=commit_block_cycles,
                predictions=predictor.predictions,
                mispredictions=predictor.mispredictions,
                buckets=cpi_buckets,
            )
            hierarchy.publish_counters(registry)
            technique.publish_counters(registry)

        while i < limit:
            dyn = functional_step()
            if dyn is None:
                break
            pc = dyn.pc
            kind = kinds[pc]

            # ---- fetch ----
            fetch = next_fetch
            if technique.fetch_blocked_until > fetch:
                fetch = technique.fetch_blocked_until
            if i >= width:
                prior = fetch_ring[i % width] + 1
                if prior > fetch:
                    fetch = prior
            fetch_ring[i % width] = fetch

            # ---- dispatch (rename + queue allocation) ----
            dispatch = fetch + fe_depth
            backend_constraint = 0
            head_dyn = None
            head_was_miss = False
            if len(iq_heap) >= iq_size and iq_heap[0] > backend_constraint:
                backend_constraint = iq_heap[0]
            if kind == K_LOAD and len(lq_heap) >= lq_size and lq_heap[0] > backend_constraint:
                backend_constraint = lq_heap[0]
            if kind == K_STORE and stores_seen >= sq_size:
                constraint = sq_ring[stores_seen % sq_size]
                if constraint > backend_constraint:
                    backend_constraint = constraint
            if i >= rob_size:
                rob_constraint = rob_commit_ring[i % rob_size]
                if rob_constraint > backend_constraint:
                    backend_constraint = rob_constraint
                head_complete, head_was_miss, head_dyn = rob_blame_ring[i % rob_size]
            if backend_constraint > dispatch:
                # Backend-full stall (full ROB, or a full IQ/LQ/SQ with the
                # same oldest-miss root cause). The wall-clock stall begins
                # where the previous stall epoch ended — dispatch has been
                # continuously blocked — not at this instruction's own
                # fetch-side readiness.
                covered_from = max(dispatch, stall_covered_until)
                if backend_constraint > covered_from:
                    full_rob_stall_cycles += backend_constraint - covered_from
                    stall_covered_until = backend_constraint
                    # Blame memory when an outstanding demand miss spans
                    # the stall window (the classic runahead trigger).
                    memory_blamed = head_was_miss or (
                        last_miss_complete > covered_from
                    )
                    if memory_blamed and covered_from >= stall_handled_until:
                        stall_episodes += 1
                        technique.on_full_rob_stall(
                            covered_from, backend_constraint, head_dyn or dyn
                        )
                        stall_handled_until = backend_constraint
                dispatch = backend_constraint

            # ---- register readiness ----
            ready = dispatch
            rs1 = rs1_of[pc]
            rs2 = rs2_of[pc]
            if rs1 is not None and reg_ready[rs1] > ready:
                ready = reg_ready[rs1]
            if rs2 is not None and reg_ready[rs2] > ready:
                ready = reg_ready[rs2]

            # ---- issue + execute ----
            fu_class = fu_classes[pc]
            busy = fu_busy[fu_class]
            capacity = fu_units[fu_class]
            issue = ready
            while busy.get(issue, 0) >= capacity:
                issue += 1
            busy[issue] = busy.get(issue, 0) + 1
            if fu_class == _FU_DIV:
                # Divides are unpipelined: occupy the unit for the full
                # latency.
                for extra in range(1, fu_latency[_FU_DIV]):
                    busy[issue + extra] = busy.get(issue + extra, 0) + 1

            was_memory_miss = False
            if kind == K_LOAD:
                technique.advance_to(issue)
                addr = dyn.addr
                # The load leaves the IQ at issue; if every MSHR is busy it
                # waits in the LSQ for one to free before accessing memory.
                mem_start = issue
                if load_needs_mshr(addr, issue) and not mshr_available(issue):
                    wait = hierarchy.mshr_next_free(issue)
                    if wait > mem_start:
                        mem_start = wait
                result = hierarchy_access(addr, mem_start, source="main")
                complete = result.ready
                was_memory_miss = result.level in (LEVEL_DRAM, LEVEL_MSHR)
                if was_memory_miss and complete > last_miss_complete:
                    last_miss_complete = complete
                if stride_pf is not None:
                    stride_pf.on_demand_load(pc, addr, mem_start, hierarchy)
                technique.on_demand_load(dyn, mem_start, result)
                heapq.heappush(lq_heap, complete)
                if len(lq_heap) > lq_size:
                    heapq.heappop(lq_heap)
            elif kind == K_ALU:
                complete = issue + fu_latency[fu_class]
            elif kind == K_STORE:
                hierarchy_access(dyn.addr, issue, source="main", write=True)
                complete = issue + 1
            elif kind == K_BNZ or kind == K_BEZ:
                complete = issue + 1
                predicted = predict(pc)
                predictor_update(pc, dyn.taken, predicted)
                if predicted != dyn.taken:
                    # Redirect: fetch restarts after the branch resolves.
                    redirect = complete + 1
                    if redirect > next_fetch:
                        next_fetch = redirect
                        last_redirect_cycle = redirect
            elif kind == K_PREFETCH:
                if (
                    dyn.addr is not None
                    and is_mapped(dyn.addr)
                    and mshr_available(issue)
                ):
                    hierarchy_access(
                        dyn.addr, issue, source="prefetcher", prefetch=True
                    )
                complete = issue + 1
            else:
                # JMP / NOP / HALT
                complete = issue + 1

            # ---- in-order commit ----
            commit_floor = prev_commit
            commit = complete + 1
            if prev_commit > commit:
                commit = prev_commit
            if i >= width and commit_ring[i % width] + 1 > commit:
                commit = commit_ring[i % width] + 1
            blocked_until = technique.commit_blocked_until
            technique_blocked = False
            if blocked_until > commit:
                commit_block_cycles += blocked_until - commit
                commit = blocked_until
                technique_blocked = True
            commit_ring[i % width] = commit
            prev_commit = commit

            # ---- CPI-stack attribution (Sniper-style cycle accounting) --
            # The cycles this instruction adds at the commit point are
            # charged to the structure on its critical path.
            delta = commit - commit_floor
            if delta > 0:
                if technique_blocked:
                    bucket = "runahead_block"
                elif commit == complete + 1:
                    if kind == K_LOAD:
                        bucket = _MEM_BUCKETS.get(result.level, "mem_dram")
                    elif fetch == last_redirect_cycle:
                        bucket = "branch"
                    elif issue > ready:
                        bucket = "issue_contention"
                    elif ready > dispatch:
                        bucket = "dependency"
                    elif dispatch > fetch + fe_depth:
                        bucket = "backend_full"
                    else:
                        bucket = "frontend"
                else:
                    bucket = "commit_width"
                cpi_buckets[bucket] = cpi_buckets.get(bucket, 0) + delta

            # ---- bookkeeping for later occupancy constraints ----
            rob_commit_ring[i % rob_size] = commit
            rob_blame_ring[i % rob_size] = (complete, was_memory_miss, dyn)
            heapq.heappush(iq_heap, issue)
            if len(iq_heap) > iq_size:
                heapq.heappop(iq_heap)
            if kind == K_STORE:
                sq_ring[stores_seen % sq_size] = commit
                stores_seen += 1
            rd = rd_of[pc]
            if rd is not None:
                reg_ready[rd] = complete

            if i < trace_limit:
                self.trace.append(
                    (i, pc, dyn.instr.opcode.name,
                     fetch, dispatch, ready, issue, complete, commit)
                )
            if event_trace is not None:
                opv = op_values[pc]
                event_trace.emit(fetch, EV_FETCH, pc, opv)
                event_trace.emit(issue, EV_ISSUE, pc, opv)
                event_trace.emit(complete, EV_COMPLETE, pc, opv)
                event_trace.emit(commit, EV_RETIRE, pc, opv)
            technique_on_commit(dyn, commit, complete)
            i += 1
            if fire_hooks:
                obs.maybe_fire(i, prev_commit, publish_live)
            if warmup and i == warmup:
                warmup_snapshot = self._snapshot(
                    prev_commit,
                    full_rob_stall_cycles,
                    stall_episodes,
                    commit_block_cycles,
                    cpi_buckets,
                )

        return self._finalize(
            instructions=i,
            prev_commit=prev_commit,
            full_rob_stall_cycles=full_rob_stall_cycles,
            stall_episodes=stall_episodes,
            commit_block_cycles=commit_block_cycles,
            cpi_buckets=cpi_buckets,
            warmup=warmup,
            warmup_snapshot=warmup_snapshot,
            event_trace=event_trace,
        )

    # -- shared epilogue -------------------------------------------------------

    def _finalize(
        self,
        *,
        instructions: int,
        prev_commit: int,
        full_rob_stall_cycles: int,
        stall_episodes: int,
        commit_block_cycles: int,
        cpi_buckets: Dict[str, int],
        warmup: int,
        warmup_snapshot: Optional[Dict],
        event_trace,
        sched: Optional[Dict[str, int]] = None,
    ) -> SimulationResult:
        """ROI adjustment + counter publication, shared by all kernels.

        ``sched`` carries the event kernels' scheduler accounting (the
        reference passes None and publishes no ``core.sched.*`` family —
        which is also how the differential suite knows to exclude that
        prefix when comparing counter snapshots).
        """
        technique = self.technique
        hierarchy = self.hierarchy
        predictor = self.predictor
        technique.advance_to(prev_commit)
        technique.finalize(prev_commit)
        hierarchy.finalize_timeliness()
        stats = hierarchy.stats
        total_instructions = instructions
        cycles = max(1, prev_commit)
        full_stall = full_rob_stall_cycles
        episodes = stall_episodes
        commit_blocked = commit_block_cycles
        predictions = predictor.predictions
        mispredictions = predictor.mispredictions
        demand_loads = stats.demand_loads
        level_counts = dict(stats.demand_level_counts)
        dram = dict(stats.dram_by_source)
        prefetches = dict(stats.prefetches_by_source)
        timeliness = dict(stats.timeliness)
        buckets = dict(cpi_buckets)
        in_roi = warmup_snapshot is not None and total_instructions > warmup
        if in_roi:
            snap = warmup_snapshot
            instructions = total_instructions - warmup
            cycles = max(1, prev_commit - snap["commit"])
            full_stall -= snap["full_rob_stall_cycles"]
            episodes -= snap["stall_episodes"]
            commit_blocked -= snap["commit_block_cycles"]
            predictions -= snap["predictions"]
            mispredictions -= snap["mispredictions"]
            demand_loads -= snap["demand_loads"]
            level_counts = _dict_delta(level_counts, snap["level_counts"])
            dram = _dict_delta(dram, snap["dram"])
            prefetches = _dict_delta(prefetches, snap["prefetches"])
            timeliness = _dict_delta(timeliness, snap["timeliness"])
            buckets = _dict_delta(buckets, snap["cpi_buckets"])
        # Everything not attributed above flowed at full width.
        buckets["base"] = max(0, cycles - sum(buckets.values()))
        # Publish the final (ROI-adjusted) counters into the registry —
        # every component registers its family under its own prefix.
        obs = self.observability
        registry = obs.counters if obs is not None else CounterRegistry()
        publish_core_counters(
            registry,
            cycles=cycles,
            fetched=instructions,
            committed=instructions,
            full_stall=full_stall,
            episodes=episodes,
            commit_blocked=commit_blocked,
            predictions=predictions,
            mispredictions=mispredictions,
            buckets=buckets,
        )
        if sched is not None:
            commit_cycles = sched["commit_cycles"]
            if in_roi:
                commit_cycles -= sched.get("commit_cycles_at_warmup", 0)
            publish_sched_counters(
                registry,
                fired=instructions,
                commit_cycles=commit_cycles,
                skipped=cycles - commit_cycles,
                retire_violations=sched.get("retire_violations", 0),
            )
        hierarchy.publish_counters(
            registry,
            cycles=max(1, prev_commit),
            stats=HierarchyStats(
                demand_loads=demand_loads,
                demand_level_counts=level_counts,
                dram_by_source=dram,
                prefetches_by_source=prefetches,
                prefetch_already_cached=stats.prefetch_already_cached,
                prefetch_outcomes=dict(stats.prefetch_outcomes),
                prefetch_tracked=stats.prefetch_tracked,
                mshr_merge_hits=stats.mshr_merge_hits,
                timeliness=timeliness,
            ),
        )
        technique.publish_counters(registry)
        return SimulationResult(
            workload=self.workload_name,
            technique=technique.name,
            instructions=instructions,
            cycles=cycles,
            full_rob_stall_cycles=full_stall,
            stall_episodes=episodes,
            commit_block_cycles=commit_blocked,
            branch_predictions=predictions,
            branch_mispredictions=mispredictions,
            demand_loads=demand_loads,
            demand_level_counts=level_counts,
            dram_by_source=dram,
            prefetches_by_source=prefetches,
            timeliness=timeliness,
            mean_mshr_occupancy=hierarchy.mean_mshr_occupancy(max(1, prev_commit)),
            technique_stats=technique.stats(),
            cycle_buckets=buckets,
            counters=registry.snapshot(),
            trace_digest=event_trace.digest() if event_trace is not None else None,
            trace_events=event_trace.emitted if event_trace is not None else 0,
        )

    def _snapshot(
        self,
        commit: int,
        full_rob_stall_cycles: int,
        stall_episodes: int,
        commit_block_cycles: int,
        cpi_buckets: Dict[str, int],
    ) -> Dict:
        """Capture counters at the warmup boundary (ROI support)."""
        stats = self.hierarchy.stats
        return {
            "commit": commit,
            "full_rob_stall_cycles": full_rob_stall_cycles,
            "stall_episodes": stall_episodes,
            "commit_block_cycles": commit_block_cycles,
            "predictions": self.predictor.predictions,
            "mispredictions": self.predictor.mispredictions,
            "demand_loads": stats.demand_loads,
            "level_counts": dict(stats.demand_level_counts),
            "dram": dict(stats.dram_by_source),
            "prefetches": dict(stats.prefetches_by_source),
            "timeliness": dict(stats.timeliness),
            "cpi_buckets": dict(cpi_buckets),
        }
