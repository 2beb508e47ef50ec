"""Fault-tolerant, cache-accelerated parallel batch execution.

Every run in a figure or sweep is independent (fresh workload, fresh
core), so a batch's wall-clock is trivially divisible across cores.
:func:`run_batch` executes a list of :class:`RunSpec`\\ s (legacy
:func:`run_simulation` keyword dicts are accepted and normalized)::

    specs = [
        RunSpec("camel", technique=t, max_instructions=10_000)
        for t in ("ooo", "vr", "dvr")
    ]
    results = run_batch(specs, jobs=4)

Guarantees, in order of importance:

* **Isolation** — a spec that raises (bad workload name, config error,
  simulator bug) produces a :class:`BatchFailure` carrying the full
  traceback in its slot; the rest of the pool keeps running. Pass
  ``strict=True`` to turn any failure into a :class:`ReproError`.
* **Determinism** — results come back in spec order regardless of
  completion order and are bit-identical to serial execution (workers
  return whole :class:`SimulationResult` objects; nothing is reduced
  in a nondeterministic order).
* **Retry** — a worker that dies mid-spec (OOM-killed child, crash)
  breaks the pool; :class:`LocalPool` replaces it after a bounded
  exponential backoff (:data:`RETRY_BACKOFF`) and resubmits only the
  specs that had no outcome yet. After ``retries`` extra attempts a
  spec resolves to a ``WorkerDeath`` failure rather than hanging or
  sinking the batch.
* **Throughput** — each worker takes the next spec as soon as it is
  free, so per-spec runtime skew never idles the pool; identical specs
  are deduplicated (content-addressed, same keying as the result cache)
  so e.g. a repeated ``ooo`` baseline simulates once.
* **Caching** — pass ``cache=ResultCache(...)`` to serve clean specs
  from disk and persist fresh results, so a re-run after an edit or a
  crash re-simulates only what changed (``--resume``).

One failure taxonomy covers every front end (this runner, ``repro
serve`` and the fabric): a spec that raised (``error_type`` is its
exception class), ``WorkerDeath`` (its worker died on every attempt),
or an entry that could not be parsed. Progress and health are
published into the ``batch.*`` counter family
(:data:`~repro.experiments.cache.BATCH_COUNTERS`).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
import traceback as traceback_module
from concurrent.futures import BrokenExecutor, Future
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.ooo import SimulationResult
from ..errors import ReproError
from ..perf.trace import use_trace_dir
from .cache import BATCH_COUNTERS, ResultCache, canonical_spec
from .runner import run_simulation
from .spec import RunSpec, parse_spec_entry

BatchOutcome = Union[SimulationResult, "BatchFailure"]

#: One normalized batch item: the identity spec plus runtime extras
#: (``observability``/``replay``) that never enter the content address.
BatchItem = Tuple[RunSpec, Dict]

#: Seconds before a dead pool is replaced; doubles with each attempt.
RETRY_BACKOFF = 0.25


@dataclass
class BatchFailure:
    """Structured record of one spec that could not produce a result."""

    #: JSON-safe copy of the offending spec (configs as nested dicts).
    spec: Dict
    #: Exception class name (``WorkloadError``, ``ConfigError``, ...),
    #: or ``WorkerDeath`` when every attempt lost its worker.
    error_type: str
    #: ``str(exception)``.
    message: str
    #: Full formatted traceback from the worker that ran the spec.
    traceback: str
    #: Attempts consumed before giving up (1 = first try failed
    #: deterministically; >1 = transient worker death exhausted retries).
    attempts: int = 1

    def summary(self) -> str:
        workload = self.spec.get("workload", "?")
        technique = self.spec.get("technique", "ooo")
        return f"{workload}/{technique}: {self.error_type}: {self.message}"

    def to_dict(self) -> Dict:
        return {
            "failure": True,
            "spec": self.spec,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "BatchFailure":
        """Rebuild a failure record shipped over the fabric wire."""
        return cls(
            spec=dict(payload.get("spec") or {}),
            error_type=str(payload.get("error_type", "UnknownError")),
            message=str(payload.get("message", "")),
            traceback=str(payload.get("traceback", "")),
            attempts=int(payload.get("attempts", 1)),
        )


def _failure_payload(spec: RunSpec, runtime: Dict) -> Dict:
    """JSON-safe record of the spec slot a failure came from."""
    payload = spec.to_payload()
    if "technique" not in payload:
        payload["technique"] = spec.technique
    if runtime.get("replay") is not None:
        payload["replay"] = runtime["replay"]
    return payload


def spec_failure(item: BatchItem, exc: BaseException) -> BatchFailure:
    """The failure of a spec whose run raised ``exc``."""
    trace = traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    return BatchFailure(
        _failure_payload(*item), type(exc).__name__, str(exc), "".join(trace)
    )


def worker_death(item: BatchItem, attempts: int, cause: str) -> BatchFailure:
    """The failure of a spec whose worker died on each of its ``attempts``
    (a dead pool process here, an expired or dropped lease in the fabric)."""
    message = f"worker died on all {attempts} attempts ({cause}); giving up"
    return BatchFailure(_failure_payload(*item), "WorkerDeath", message, "", attempts)


def _execute_spec(item: BatchItem) -> BatchOutcome:
    """Run one spec, converting any exception into a BatchFailure."""
    spec, runtime = item
    try:
        return run_simulation(spec, **runtime)
    except Exception as exc:  # noqa: BLE001 — the isolation boundary
        return spec_failure(item, exc)


# Prefer fork where available: it does not re-import __main__, so pools
# work from scripts, notebooks, and the REPL alike, and workers inherit
# the parent's module state (an installed trace dir, a patched runner).
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


class LocalPool:
    """The one process pool behind ``run_batch`` and ``repro serve``.

    :meth:`submit` returns a future that always resolves to the item's
    :data:`BatchOutcome` and never raises. A dead worker breaks the whole
    executor (``BrokenProcessPool``). The first future to see the break
    drops that executor (only if it is still current, so a late report
    never takes down a replacement), counts one ``batch.retries`` and
    waits the backoff; every spec the break failed is then resubmitted
    to a fresh executor, up to ``retries`` extra attempts, before it
    resolves to a :func:`worker_death` failure. Workers start on the
    first submit.
    """

    def __init__(self, workers: int, retries: int = 2) -> None:
        self.workers = workers
        self.retries = retries
        self._lock = threading.Lock()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._closed = False

    def submit(self, item: BatchItem) -> "Future[BatchOutcome]":
        outcome: Future = Future()
        # Running futures cannot be cancelled, so an abandoned waiter
        # (a cancelled asyncio wrapper, say) never loses the outcome.
        outcome.set_running_or_notify_cancel()
        self._attempt(item, outcome, 1)
        return outcome

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; specs still queued resolve to failures."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def _attempt(self, item: BatchItem, outcome: Future, attempt: int) -> None:
        try:
            while True:
                with self._lock:
                    if self._closed:
                        raise ReproError("the pool was shut down")
                    if self._executor is None:
                        # Resolved here, not imported at module load:
                        # loading the process-pool machinery early adds
                        # ~4 MB to a serving parent's peak RSS.
                        self._executor = concurrent.futures.ProcessPoolExecutor(
                            self.workers, mp_context=_CONTEXT
                        )
                    executor = self._executor
                try:
                    future = executor.submit(_execute_spec, item)
                    break
                except BrokenExecutor:
                    # It broke before this spec reached it, so this is
                    # not an attempt: submit to a replacement instead.
                    self._replace(executor)
        except Exception as exc:  # noqa: BLE001 — the future must resolve
            outcome.set_result(spec_failure(item, exc))
            return
        future.add_done_callback(
            lambda done: self._settle(item, outcome, attempt, executor, done)
        )

    def _replace(self, broken) -> bool:
        """Drop ``broken`` if it is still current; True if this call did."""
        with self._lock:
            if self._executor is not broken:
                return False
            self._executor = None
            return True

    def _settle(self, item, outcome, attempt, executor, done) -> None:
        exc = ReproError("the pool was shut down") if done.cancelled() else done.exception()
        if not isinstance(exc, BrokenExecutor):
            outcome.set_result(done.result() if exc is None else spec_failure(item, exc))
            return
        first = self._replace(executor)  # the first future to see this death
        if attempt > self.retries:
            outcome.set_result(worker_death(item, attempt, str(exc)))
            return
        if first:
            BATCH_COUNTERS.inc("batch.retries")
            time.sleep(RETRY_BACKOFF * 2 ** (attempt - 1))
        self._attempt(item, outcome, attempt + 1)


@dataclass
class BatchPlan:
    """A batch split by where each distinct spec's outcome comes from.

    Shared by :func:`run_batch` and the fabric coordinator. Entries are
    normalized (an unparsable one fills its slot from
    ``parse_failures``) and deduped content-addressed (``positions``:
    key → every slot holding that spec). Clean specs found in the cache
    start in ``outcomes``; specs carrying a live observability facade,
    which cannot be pickled, are ``inline`` (run in this process, never
    deduped or cached); the rest are ``pending``.
    """

    size: int
    parse_failures: Dict[int, BatchFailure] = field(default_factory=dict)
    positions: Dict[str, List[int]] = field(default_factory=dict)
    outcomes: Dict[str, BatchOutcome] = field(default_factory=dict)
    inline: List[Tuple[str, BatchItem]] = field(default_factory=list)
    pending: List[Tuple[str, BatchItem]] = field(default_factory=list)

    @property
    def reused(self) -> int:
        """Parsable slots that dedup folded onto an earlier spec."""
        return sum(len(slots) - 1 for slots in self.positions.values())

    def results(self) -> List[Optional[BatchOutcome]]:
        """One outcome per input slot, in spec order (None = unresolved)."""
        results: List[Optional[BatchOutcome]] = [None] * self.size
        for index, failure in self.parse_failures.items():
            results[index] = failure
        for key, slots in self.positions.items():
            outcome = self.outcomes.get(key)
            for index in slots:
                results[index] = outcome
        return results


def plan_batch(
    specs: Sequence[Union[RunSpec, Dict]],
    *,
    cache: Optional[ResultCache] = None,
    audit: bool = False,
) -> BatchPlan:
    """Normalize, dedup and cache-split raw batch entries (see BatchPlan)."""
    plan = BatchPlan(len(specs))
    for index, raw in enumerate(specs):
        try:
            spec, runtime = parse_spec_entry(raw)
        except Exception as exc:  # noqa: BLE001 — the isolation boundary
            plan.parse_failures[index] = BatchFailure(
                canonical_spec(dict(raw)) if isinstance(raw, dict) else {},
                type(exc).__name__, str(exc), traceback_module.format_exc(),
            )
            continue
        if audit:
            runtime = dict(runtime, audit=True)
        live = runtime.get("observability") is not None
        key = f"uncacheable-{index}" if live else spec.key()
        slots = plan.positions.setdefault(key, [])
        slots.append(index)
        if len(slots) > 1:
            continue
        if live:
            plan.inline.append((key, (spec, runtime)))
            continue
        hit = cache.get(key) if cache is not None and not runtime.get("audit") else None
        if hit is not None:
            plan.outcomes[key] = hit
        else:
            plan.pending.append((key, (spec, runtime)))
    return plan


def _validate_jobs(jobs: Optional[int]) -> None:
    if jobs is not None and (
        isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1
    ):
        raise ReproError(
            f"run_batch jobs must be None or a positive integer, got {jobs!r}"
        )


def run_batch(
    specs: Sequence[Union[RunSpec, Dict]],
    jobs: Optional[int] = None,
    *,
    cache: Optional[ResultCache] = None,
    retries: int = 2,
    strict: bool = False,
    audit: bool = False,
) -> List[BatchOutcome]:
    """Run every spec; ``jobs`` > 1 uses a :class:`LocalPool`.

    Each entry is a :class:`RunSpec`, a ``repro.spec/1`` payload dict,
    or a legacy ``run_simulation`` kwargs dict (normalized via
    :func:`~repro.experiments.spec.parse_spec_entry`); a malformed entry
    fills its slot with a :class:`BatchFailure` like any other per-spec
    error.

    ``jobs=None`` or ``jobs=1`` runs serially (no subprocess overhead —
    the right choice for small batches and inside test suites); every
    other guarantee (isolation, dedup, caching, spec-order results) is
    identical between the serial and parallel paths. Specs carrying a
    live observability facade always run in this process.

    Returns one entry per spec, in spec order: a
    :class:`SimulationResult` on success, a :class:`BatchFailure`
    otherwise. With ``strict=True`` the first failure raises
    :class:`ReproError` (carrying the worker traceback) instead.

    ``audit=True`` runs every spec under the ``repro.audit`` invariant
    sanitizer: audited specs bypass the result cache (the laws are
    checked against a live run, never a stored payload) and a broken
    invariant surfaces as an ``AuditError`` :class:`BatchFailure`.
    """
    _validate_jobs(jobs)
    BATCH_COUNTERS.inc("batch.batches")
    BATCH_COUNTERS.inc("batch.specs", len(specs))
    plan = plan_batch(specs, cache=cache, audit=audit)
    if plan.reused:
        BATCH_COUNTERS.inc("batch.dedup.reused", plan.reused)

    outcomes = plan.outcomes
    if plan.pending or plan.inline:
        # With a cache attached, captured architectural traces persist
        # next to the results (cache.root/traces). The module-level
        # trace dir is installed before the pool forks, so workers
        # inherit it and share streams across processes. Without a
        # cache, any ambient trace store is left untouched.
        trace_ctx = (
            use_trace_dir(cache.root / "traces")
            if cache is not None
            else nullcontext()
        )
        with trace_ctx:
            if jobs is None or jobs <= 1 or len(plan.pending) <= 1:
                for key, item in plan.pending + plan.inline:
                    outcomes[key] = _execute_spec(item)
            else:
                pool = LocalPool(min(jobs, len(plan.pending)), retries)
                try:
                    futures = [(key, pool.submit(item)) for key, item in plan.pending]
                    for key, item in plan.inline:
                        outcomes[key] = _execute_spec(item)
                    for key, future in futures:
                        outcomes[key] = future.result()
                finally:
                    pool.shutdown()
        if cache is not None:
            for key, item in plan.pending:
                outcome = outcomes[key]
                if isinstance(outcome, SimulationResult) and not item[1].get("audit"):
                    cache.put(key, outcome)

    results = plan.results()
    failures = [r for r in results if isinstance(r, BatchFailure)]
    if failures:
        BATCH_COUNTERS.inc("batch.failures", len(failures))
        if strict:
            first = failures[0]
            raise ReproError(
                f"batch failed: {len(failures)}/{len(specs)} specs; "
                f"first failure — {first.summary()}\n{first.traceback}"
            )
    return results


def successful(results: Iterable[BatchOutcome]) -> List[SimulationResult]:
    """Filter a batch down to its SimulationResults."""
    return [r for r in results if isinstance(r, SimulationResult)]


def batch_failures(results: Iterable[BatchOutcome]) -> List[BatchFailure]:
    """Filter a batch down to its BatchFailures."""
    return [r for r in results if isinstance(r, BatchFailure)]


def speedup_matrix(
    workloads: Sequence[str],
    techniques: Sequence[str],
    instructions: int = 10_000,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> Dict[str, Dict[str, float]]:
    """Convenience: {workload: {technique: speedup-over-ooo}} computed
    with one parallel batch (baseline included automatically).

    The baseline spec and an ``"ooo"`` entry in ``techniques`` are the
    same content-addressed spec, so ``ooo`` appearing in the technique
    list no longer costs a second baseline simulation per workload.
    """
    specs: List[RunSpec] = []
    for workload in workloads:
        specs.append(
            RunSpec(workload, technique="ooo", max_instructions=instructions)
        )
        for technique in techniques:
            specs.append(
                RunSpec(workload, technique=technique, max_instructions=instructions)
            )
    results = run_batch(specs, jobs=jobs, cache=cache, strict=True)
    matrix: Dict[str, Dict[str, float]] = {}
    cursor = 0
    for workload in workloads:
        baseline = results[cursor]
        cursor += 1
        row: Dict[str, float] = {}
        for technique in techniques:
            result = results[cursor]
            cursor += 1
            row[technique] = result.ipc / baseline.ipc if baseline.ipc else 0.0
        matrix[workload] = row
    return matrix
