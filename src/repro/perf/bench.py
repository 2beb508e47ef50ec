"""Measured kernels behind ``repro bench`` (simulator throughput).

Each kernel times one hot path of the simulator and reports throughput
in work-units per second (dynamic instructions for the core kernels,
accesses for the hierarchy, prefetches for the vector engine). The
interesting metric across machines is ``rel`` — each kernel's
throughput normalised to the ``functional_reference`` kernel measured
in the same run — which cancels host speed and is what the CI
regression gate compares (see ``check_regression``).

Kernels:

``functional_reference``
    The original un-predecoded interpreter
    (:meth:`~repro.core.functional.FunctionalCore.step_reference`),
    kept as the executable spec. Everything else is relative to this.
``functional_step``
    The pre-decoded fast path (:meth:`FunctionalCore.step`): per-PC
    specialized handlers, one DynInstr per step.
``functional_bulk``
    :meth:`FunctionalCore.run_to_completion` — the alloc-free handler
    loop (no DynInstr records at all).
``functional_pooled``
    The handler loop with pooled :class:`~repro.core.dyninstr.DynInstr`
    records (isolates the per-step allocation cost).
``trace_replay``
    :class:`~repro.perf.trace.ReplaySource` consumption — the cost of
    a cached-stream timing run's front-end.
``ooo_loop``
    The full OoO timing core on the plain baseline — functional step +
    dataflow model + memory hierarchy — via the tick-driven
    :meth:`OoOCore.run_reference` loop (the executable spec, and the
    kernel the historical ``BENCH_core.json`` baselines measured).
``ooo_event_loop``
    Its successor, on the path sweeps run: the event-driven kernel
    behind :meth:`OoOCore.run`, fed by a
    :class:`~repro.perf.trace.ReplaySource` whose stream is captured
    outside the timed window. Differentially tested to be
    bit-identical to ``ooo_loop``'s loop
    (``tests/test_ooo_event_kernel.py``).
``cycle_loop`` / ``cycle_event_loop``
    The literal cycle-by-cycle core (:class:`CycleCore`), tick-driven
    reference vs. the event-driven kernel that skips idle spans. The
    ratio between these two is the headline idle-skipping win — the
    cycle core is where stall cycles actually get ticked.
``hierarchy``
    The timed memory hierarchy access path alone.
``demand_translated``
    The same sweep through the fused demand path with the TLB enabled:
    L1-TLB hits, misses, and timed page-table walks in the mix — what
    translation costs the simulator (not the simulated machine).
``vector_engine`` / ``vector_engine_reference``
    Vector Runahead's timed vector-chain executor (VIR/gather model)
    over a two-level stride-indirect chain: the slice-based chaining
    engine vs. the kept flat-gather reference executor
    (differentially tested in ``tests/test_vector_slice_engine.py``).
``batch_dispatch``
    The sweep fabric's per-spec overhead: ``run_batch`` over a spec
    list that is 100% cache hits, so the measured cost is spec
    normalization + content-address keying + one sharded-cache lookup
    per spec — everything a campaign pays *around* each simulation.

Results serialise as a ``repro.bench-core/1`` document (committed at
the repo root as ``BENCH_core.json``); ``docs/performance.md``
documents the schema and the regression policy.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..core.dyninstr import DynInstrPool
from ..core.functional import FunctionalCore
from ..errors import ReproError, SimulationError
from ..isa.program import ProgramBuilder
from ..memory.hierarchy import MemoryHierarchy
from ..memory.memory_image import MemoryImage
from ..workloads import build_workload
from .trace import ReplaySource, capture_arch_trace

BENCH_SCHEMA = "repro.bench-core/1"

#: Workload driven by the functional/OoO kernels: camel's hash-chain
#: loop runs for millions of dynamic instructions, far past any bench
#: budget, so no kernel ever needs restart logic.
_BENCH_WORKLOAD = "camel"


def _functional_reference(n: int) -> Tuple[int, float]:
    wl = build_workload(_BENCH_WORKLOAD)
    step = FunctionalCore(wl.program, wl.memory).step_reference
    t0 = time.perf_counter()
    for _ in range(n):
        step()
    return n, time.perf_counter() - t0


def _functional_step(n: int) -> Tuple[int, float]:
    wl = build_workload(_BENCH_WORKLOAD)
    step = FunctionalCore(wl.program, wl.memory).step
    t0 = time.perf_counter()
    for _ in range(n):
        step()
    return n, time.perf_counter() - t0


def _functional_bulk(n: int) -> Tuple[int, float]:
    wl = build_workload(_BENCH_WORKLOAD)
    core = FunctionalCore(wl.program, wl.memory)
    t0 = time.perf_counter()
    try:
        core.run_to_completion(n)
    except SimulationError:
        pass  # budget reached — exactly n instructions executed
    return core.executed, time.perf_counter() - t0


def _functional_pooled(n: int) -> Tuple[int, float]:
    wl = build_workload(_BENCH_WORKLOAD)
    core = FunctionalCore(wl.program, wl.memory)
    decoded = wl.program.decoded()
    handlers = decoded.handlers
    instrs = decoded.instrs
    regs = core.regs
    memory = core.memory
    pool = DynInstrPool(prealloc=1)
    take = pool.take
    release = pool.release
    pc = 0
    t0 = time.perf_counter()
    done = 0
    for i in range(n):
        value, addr, taken, next_pc = handlers[pc](regs, memory)
        release(take(i, pc, instrs[pc], value, addr, taken, next_pc))
        done += 1
        if next_pc is None:
            break
        pc = next_pc
    return done, time.perf_counter() - t0


def _trace_replay(n: int) -> Tuple[int, float]:
    wl = build_workload(_BENCH_WORKLOAD)
    trace = capture_arch_trace(wl.program, wl.memory, n)
    source = ReplaySource(trace, wl.program, wl.memory)
    work = len(trace)
    t0 = time.perf_counter()
    for _ in range(work):
        source.step()
    return work, time.perf_counter() - t0


def _make_ooo_core(n: int, replay: bool = False):
    from ..core.ooo import OoOCore
    from ..techniques import make_technique

    wl = build_workload(_BENCH_WORKLOAD)
    source = None
    if replay:
        # Capture from a separate build, so the core replays into a
        # pristine memory image exactly as a sweep's replayed run does.
        captured = build_workload(_BENCH_WORKLOAD)
        trace = capture_arch_trace(captured.program, captured.memory, n)
        source = ReplaySource(trace, wl.program, wl.memory)
    return OoOCore(
        wl.program,
        wl.memory,
        SimConfig().with_max_instructions(n),
        technique=make_technique("ooo"),
        workload_name="bench",
        functional_source=source,
    )


def _ooo_loop(n: int) -> Tuple[int, float]:
    core = _make_ooo_core(n)
    t0 = time.perf_counter()
    result = core.run_reference()
    return result.instructions, time.perf_counter() - t0


def _ooo_event_loop(n: int) -> Tuple[int, float]:
    core = _make_ooo_core(n, replay=True)
    t0 = time.perf_counter()
    result = core.run()
    return result.instructions, time.perf_counter() - t0


def _make_cycle_core(n: int):
    from ..core.cycle import CycleCore

    wl = build_workload(_BENCH_WORKLOAD)
    return CycleCore(
        wl.program,
        wl.memory,
        SimConfig().with_max_instructions(n),
        workload_name="bench",
    )


def _cycle_loop(n: int) -> Tuple[int, float]:
    core = _make_cycle_core(n)
    t0 = time.perf_counter()
    result = core.run_reference()
    return result.instructions, time.perf_counter() - t0


def _cycle_event_loop(n: int) -> Tuple[int, float]:
    core = _make_cycle_core(n)
    t0 = time.perf_counter()
    result = core.run()
    return result.instructions, time.perf_counter() - t0


def _hierarchy(n: int) -> Tuple[int, float]:
    hierarchy = MemoryHierarchy(SimConfig().memory)
    access = hierarchy.access
    # 4 MiB stride-8 sweep: ~7/8 same-line hits, the rest misses that
    # walk the full L1/L2/L3/DRAM path — the mix the cores produce.
    span = 1 << 22
    t0 = time.perf_counter()
    for i in range(n):
        access((i * 8) % span, i, source="main")
    return n, time.perf_counter() - t0


def _demand_translated(n: int) -> Tuple[int, float]:
    from dataclasses import replace

    from ..config import TLBConfig

    cfg = SimConfig().memory
    hierarchy = MemoryHierarchy(replace(cfg, tlb=TLBConfig(enable=True)))
    demand_load = hierarchy.demand_load
    # Same 4 MiB stride-8 sweep as `hierarchy`, but through the fused
    # demand path with translation on: mostly L1-TLB hits, with steady
    # L1-TLB misses and page-table walks as the sweep crosses pages.
    span = 1 << 22
    t0 = time.perf_counter()
    for i in range(n):
        demand_load((i * 8) % span, i)
    return n, time.perf_counter() - t0


def _vector_engine_kernel(n: int, engine: str) -> Tuple[int, float]:
    from ..runahead.vector_engine import VectorChainRun

    rng = np.random.default_rng(1)
    count = 512
    mem = MemoryImage()
    a = mem.allocate("A", rng.integers(0, count, count))
    bseg = mem.allocate("B", rng.integers(0, 1 << 20, count))
    b = ProgramBuilder()
    b.label("loop")
    b.load("r4", "r3")
    b.shli("r5", "r4", 3)
    b.add("r5", "r6", "r5")
    b.load("r7", "r5")
    b.addi("r3", "r3", 8)
    b.jmp("loop")
    program = b.build()
    hierarchy = MemoryHierarchy(SimConfig().memory)
    regs = [0] * 32
    regs[3] = a.base
    regs[6] = bseg.base
    lanes = [a.base + 8 * (lane + 1) for lane in range(16)]
    work = 0
    cycle = 0
    t0 = time.perf_counter()
    while work < n:
        run = VectorChainRun(
            program,
            mem,
            hierarchy,
            regs,
            lane_addresses=lanes,
            start_pc=0,
            start_cycle=cycle,
            end_pc=3,
            execute_end_pc=True,
            stop_pcs=(0,),
            vector_width=8,
            timeout=200,
            engine=engine,
        )
        run.run_to_completion()
        work += max(1, run.prefetches)
        cycle = run.finish_time + 1
    return work, time.perf_counter() - t0


def _batch_dispatch(n: int) -> Tuple[int, float]:
    import tempfile

    from ..experiments.batch import run_batch
    from ..experiments.cache import ResultCache
    from ..experiments.runner import run_simulation
    from ..experiments.spec import RunSpec

    result = run_simulation(_BENCH_WORKLOAD, "ooo", max_instructions=600)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        cache = ResultCache(root)
        # n distinct specs (dedup must not collapse them), all warm.
        specs = [
            RunSpec(_BENCH_WORKLOAD, max_instructions=600 + i) for i in range(n)
        ]
        for spec in specs:
            cache.put(spec.key(), result)
        t0 = time.perf_counter()
        run_batch(specs, cache=cache)
        seconds = time.perf_counter() - t0
        if cache.hits != n or cache.misses:
            raise ReproError(
                "batch_dispatch kernel expected an all-hit batch "
                f"(hits={cache.hits}, misses={cache.misses}, n={n})"
            )
    return n, seconds


def _vector_engine(n: int) -> Tuple[int, float]:
    return _vector_engine_kernel(n, "slice")


def _vector_engine_reference(n: int) -> Tuple[int, float]:
    return _vector_engine_kernel(n, "reference")


#: name -> (kernel, default work units, unit label)
KERNELS: Dict[str, Tuple[Callable[[int], Tuple[int, float]], int, str]] = {
    "functional_reference": (_functional_reference, 40_000, "instr"),
    "functional_step": (_functional_step, 40_000, "instr"),
    "functional_bulk": (_functional_bulk, 40_000, "instr"),
    "functional_pooled": (_functional_pooled, 40_000, "instr"),
    "trace_replay": (_trace_replay, 40_000, "instr"),
    "ooo_loop": (_ooo_loop, 15_000, "instr"),
    "ooo_event_loop": (_ooo_event_loop, 15_000, "instr"),
    "cycle_loop": (_cycle_loop, 8_000, "instr"),
    "cycle_event_loop": (_cycle_event_loop, 8_000, "instr"),
    "hierarchy": (_hierarchy, 40_000, "access"),
    "demand_translated": (_demand_translated, 40_000, "access"),
    "vector_engine": (_vector_engine, 8_000, "prefetch"),
    "vector_engine_reference": (_vector_engine_reference, 8_000, "prefetch"),
    "batch_dispatch": (_batch_dispatch, 1_500, "spec"),
}


def run_bench(
    kernels: Optional[List[str]] = None,
    scale: float = 1.0,
    repeats: int = 3,
) -> Dict:
    """Run the selected kernels; best-of-``repeats`` per kernel.

    Returns the ``repro.bench-core/1`` payload. ``rel`` entries are
    throughput relative to ``functional_reference`` and only present
    when that kernel is part of the run.
    """
    names = list(KERNELS) if kernels is None else list(kernels)
    unknown = [name for name in names if name not in KERNELS]
    if unknown:
        raise ReproError(
            f"unknown bench kernels: {', '.join(unknown)} "
            f"(available: {', '.join(KERNELS)})"
        )
    if repeats < 1:
        raise ReproError("bench repeats must be >= 1")
    results: Dict[str, Dict] = {}
    for name in names:
        fn, default_work, unit = KERNELS[name]
        target = max(1, int(default_work * scale))
        best_ips = 0.0
        best: Dict = {}
        for _ in range(repeats):
            work, seconds = fn(target)
            ips = work / seconds if seconds > 0 else 0.0
            if ips > best_ips:
                best_ips = ips
                best = {
                    "unit": unit,
                    "work": work,
                    "seconds": seconds,
                    "ips": ips,
                }
        results[name] = best
    reference = results.get("functional_reference")
    if reference and reference["ips"] > 0:
        for entry in results.values():
            entry["rel"] = entry["ips"] / reference["ips"]
    return {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "kernels": results,
    }


def render_table(payload: Dict) -> str:
    """Human-readable table of one bench payload."""
    lines = [
        f"{'kernel':<22} {'work':>8} {'seconds':>9} {'per-sec':>12} {'rel':>7}",
    ]
    for name, entry in payload.get("kernels", {}).items():
        rel = entry.get("rel")
        lines.append(
            f"{name:<22} {entry['work']:>8d} {entry['seconds']:>9.4f} "
            f"{entry['ips']:>12,.0f} "
            + (f"{rel:>6.2f}x" if rel is not None else f"{'-':>7}")
        )
    return "\n".join(lines)


def check_regression(
    current: Dict,
    baseline: Dict,
    tolerance: float = 0.30,
    absolute: bool = False,
) -> List[str]:
    """Compare two bench payloads; return failure messages (empty = ok).

    By default compares ``rel`` (throughput normalised to the reference
    interpreter measured on the *same* host), which is stable across
    machines — the committed baseline was produced elsewhere. Pass
    ``absolute=True`` to gate on raw per-second throughput instead
    (only meaningful against a baseline from the same machine). The
    reference kernel itself is skipped in relative mode (its rel is
    1.0 by construction).
    """
    metric = "ips" if absolute else "rel"
    failures: List[str] = []
    baseline_kernels = baseline.get("kernels", {})
    for name, entry in current.get("kernels", {}).items():
        if not absolute and name == "functional_reference":
            continue
        base_entry = baseline_kernels.get(name)
        if base_entry is None or metric not in base_entry or metric not in entry:
            continue
        floor = base_entry[metric] * (1.0 - tolerance)
        if entry[metric] < floor:
            failures.append(
                f"{name}: {metric} {entry[metric]:,.2f} is more than "
                f"{tolerance:.0%} below baseline {base_entry[metric]:,.2f}"
            )
    return failures


def write_payload(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_payload(path: str) -> Dict:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read bench baseline {path!r}: {exc}") from exc
    if payload.get("schema") != BENCH_SCHEMA:
        raise ReproError(
            f"bench baseline {path!r} has schema "
            f"{payload.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    return payload


def main_bench(args) -> int:
    """Back end of the ``repro bench`` CLI subcommand."""
    kernels = args.kernels.split(",") if args.kernels else None
    payload = run_bench(kernels=kernels, scale=args.scale, repeats=args.repeats)
    print(render_table(payload))
    if args.json:
        write_payload(payload, args.json)
        print(f"bench file   : {args.json}", file=sys.stderr)
    if args.check:
        baseline = load_payload(args.check)
        failures = check_regression(
            payload, baseline, tolerance=args.tolerance, absolute=args.absolute
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            return 1
        print(
            f"bench check  : ok (within {args.tolerance:.0%} of {args.check})",
            file=sys.stderr,
        )
    return 0
