"""Single-run entry point shared by figures, benchmarks, and the CLI."""

from __future__ import annotations

from typing import Optional, Union

from ..config import SimConfig
from ..core.functional import FunctionalCore
from ..core.ooo import OoOCore, SimulationResult
from ..errors import AuditError, ReproError
from ..isa.swpf import insert_software_prefetches
from ..observability import Observability
from ..perf.trace import (
    CAPTURE_LIMIT,
    CaptureSource,
    ReplaySource,
    arch_trace_key,
    load_trace,
    store_trace,
)
from ..techniques import make_technique
from ..workloads import build_workload
from ..workloads.gap import input_memo_info
from .cache import BATCH_COUNTERS, active_cache
from .spec import RunSpec

#: Pseudo-technique: the CGO 2017 software-prefetching compiler pass
#: applied to the workload, run on the plain OoO core.
SOFTWARE_PREFETCH = "swpf"


def run_simulation(
    workload: Union[str, RunSpec],
    technique: str = "ooo",
    config: Optional[SimConfig] = None,
    max_instructions: Optional[int] = None,
    input_name: Optional[str] = None,
    size: str = "default",
    seed: Optional[int] = None,
    trace: bool = False,
    trace_capacity: int = 65_536,
    observability: Optional[Observability] = None,
    replay: str = "auto",
    audit: bool = False,
) -> SimulationResult:
    """Simulate one run, described by a :class:`RunSpec` or by kwargs.

    The canonical entry form is a spec::

        run_simulation(RunSpec("camel", "dvr", max_instructions=20_000))

    The keyword form is a thin compatibility shim: the arguments are
    packed into a :class:`RunSpec` and resolved identically (see
    ``docs/spec.md``), so both forms produce the same cache key, the
    same architectural-trace key, and a bit-identical result.

    ``input_name`` selects the Table 2 graph profile for GAP kernels;
    spec resolution drops it for workloads whose builder does not take
    one (the hpc-db set), so byte-identical runs share one identity.
    ``seed`` re-rolls the workload's input data (for multi-seed
    experiments). ``max_instructions`` overrides the config's region
    length. Ablation techniques (``dvr-*``) resolve to declarative pins
    over ``config.runahead``; a conflicting explicit config override
    raises :class:`~repro.errors.ConfigError`.

    ``trace=True`` records the structured event stream (fetch / issue /
    complete / retire plus runahead and vector-dispatch events) into a
    ring buffer of ``trace_capacity`` events; the result then carries a
    stable whole-stream digest (``trace_digest``). Callers that need the
    trace contents or profiling hooks pass a pre-built ``observability``
    facade instead, which takes precedence.

    When a :class:`~repro.experiments.cache.ResultCache` is ambient
    (installed via :func:`~repro.experiments.cache.use_cache`, or by the
    batch runner / CLI ``--cache`` flags) and no live ``observability``
    facade was passed, the run is served from — and stored into — the
    cache, keyed on :meth:`RunSpec.key` (resolved config, workload
    identity, seed, and code fingerprint).

    ``replay`` controls architectural trace sharing (``repro.perf``):
    with the default ``"auto"``, the technique-independent functional
    stream is captured once per stream projection and replayed into
    every later run of the same stream — so comparing four techniques
    over one workload executes the program functionally once, not four
    times. Replay is exact: identical ``DynInstr`` fields, identical
    memory-image evolution (stores are re-applied at fetch time),
    identical trace digests. ``replay="off"`` always executes
    functionally. Neither ``replay`` nor ``observability`` participates
    in run identity (replayed and live runs are bit-identical by
    construction).

    ``audit=True`` evaluates every registered invariant check
    (``repro.audit``) against the finished run: the structured record
    lands on ``result.audit`` and any broken law raises
    :class:`~repro.errors.AuditError`. Audited runs always execute
    fresh — the ambient result cache is bypassed and ``replay`` is
    forced off so the live architectural state is available to the
    equivalence check. Like ``observability``/``replay``, ``audit`` is
    runtime plumbing and never enters run identity.
    """
    if isinstance(workload, RunSpec):
        if (
            technique != "ooo"
            or config is not None
            or max_instructions is not None
            or input_name is not None
            or size != "default"
            or seed is not None
            or trace
            or trace_capacity != 65_536
        ):
            raise ReproError(
                "run_simulation(spec) takes only observability/replay/audit "
                "as extra arguments; fold everything else into the RunSpec"
            )
        spec = workload
    else:
        spec = RunSpec(
            workload=workload,
            technique=technique,
            config=config,
            max_instructions=max_instructions,
            input_name=input_name,
            size=size,
            seed=seed,
            trace=trace,
            trace_capacity=trace_capacity,
        )
    return _run_resolved(spec.resolved(), observability, replay, audit)


def _run_resolved(
    spec: RunSpec,
    observability: Optional[Observability],
    replay: str,
    audit: bool = False,
) -> SimulationResult:
    """Execute one canonically resolved spec."""
    if replay not in ("auto", "off"):
        raise ReproError(f"replay must be 'auto' or 'off', got {replay!r}")
    cfg = spec.config

    if audit:
        # An audited run must actually execute, and the equivalence
        # check needs the live functional core's register state (a
        # replayed trace carries none).
        replay = "off"
    cache = active_cache() if observability is None and not audit else None
    cache_key: Optional[str] = None
    if cache is not None:
        cache_key = spec.key()
        cached = cache.get(cache_key)
        if cached is not None:
            return cached

    kwargs = {"size": spec.size}
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    if spec.input_name is not None:
        kwargs["input_name"] = spec.input_name
    memo_hits = input_memo_info().hits
    wl = build_workload(spec.workload, **kwargs)
    BATCH_COUNTERS.inc(
        "batch.input.reuses"
        if input_memo_info().hits > memo_hits
        else "batch.input.builds"
    )
    program = wl.program
    if spec.technique == SOFTWARE_PREFETCH:
        # A compiler transformation, not a hardware technique: insert
        # look-ahead prefetches and run on the plain OoO core.
        program = insert_software_prefetches(program)
        core_technique = make_technique("ooo", cfg)
    else:
        core_technique = make_technique(spec.technique, cfg)
    obs = observability
    if obs is None and spec.trace:
        obs = Observability(trace=True, trace_capacity=spec.trace_capacity)

    # Architectural trace sharing: replay a previously captured stream,
    # or (first run of this stream) capture it as a side effect of the
    # timing run — the capture wrapper drives the same FunctionalCore
    # the core would otherwise build itself.
    functional_source = None
    capture: Optional[CaptureSource] = None
    stream_key: Optional[str] = None
    if replay != "off":
        limit = cfg.max_instructions
        stream_key = arch_trace_key(spec.stream_projection())
        arch = load_trace(stream_key)
        if arch is not None:
            functional_source = ReplaySource(arch, program, wl.memory)
            BATCH_COUNTERS.inc("batch.trace.replays")
        elif limit <= CAPTURE_LIMIT:
            capture = CaptureSource(FunctionalCore(program, wl.memory))
            functional_source = capture

    core = OoOCore(
        program,
        wl.memory,
        cfg,
        technique=core_technique,
        workload_name=(
            wl.name if spec.input_name is None else f"{wl.name}_{spec.input_name}"
        ),
        observability=obs,
        functional_source=functional_source,
    )
    BATCH_COUNTERS.inc("batch.sim.runs")
    result = core.run()
    BATCH_COUNTERS.inc("batch.sim.completions")
    if capture is not None and stream_key is not None:
        store_trace(stream_key, capture.finish())
        BATCH_COUNTERS.inc("batch.trace.captures")
    if spec.technique == SOFTWARE_PREFETCH:
        result.technique = SOFTWARE_PREFETCH
    if audit:
        from ..audit import audit_timing_run

        def rebuild() -> FunctionalCore:
            fresh = build_workload(spec.workload, **kwargs)
            fresh_program = fresh.program
            if spec.technique == SOFTWARE_PREFETCH:
                fresh_program = insert_software_prefetches(fresh_program)
            return FunctionalCore(fresh_program, fresh.memory)

        record = audit_timing_run(core, result, rebuild=rebuild)
        result.audit = record.to_payload()
        if not record.passed:
            raise AuditError(
                f"audit failed for {record.label}: "
                + "; ".join(record.violations),
                record,
            )
    if cache is not None and cache_key is not None:
        cache.put(cache_key, result)
    return result
