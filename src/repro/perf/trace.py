"""Architectural trace capture and replay.

The functional :class:`~repro.core.dyninstr.DynInstr` stream is a pure
function of (program, memory image, step budget): the simulator is
execution-driven at fetch, stores update the shared memory image at
fetch time, and no timing model or runahead technique ever feeds back
into architectural state. That makes the stream *technique-independent*
— ``ooo``, ``vr``, ``dvr``, ``pre`` over the same workload/seed/limit
all consume bit-identical streams.

This module exploits that: capture the stream once (as a side effect of
whichever run happens first), then replay it into every other timing
run of the same (workload, input, size, seed, limit, program stream).
Replay skips the functional interpreter entirely — no handler calls,
no register file — while reproducing the exact observable protocol:

* the same ``DynInstr`` field values (``seq``/``pc``/``instr``/
  ``value``/``addr``/``taken``/``next_pc``), with ``instr`` identity
  taken from the *live* program object, and
* the same memory-image evolution: stores are re-applied at step time
  (the store value is captured side-band, since ``DynInstr.value`` is
  ``None`` for stores), so runahead engines interpreting the static
  program against memory observe fetch-point values exactly as they
  would against live execution.

Traces are identified by the same content-addressing machinery as
cached results (:func:`repro.experiments.cache.spec_key`, which embeds
the package code fingerprint), keyed on the *exact* step budget so a
replayed stream can never run dry mid-consumption. Persistence is a
``traces/`` subdirectory of the result cache (atomic writes, corrupt
entries dropped); a small in-process LRU memo serves repeat runs in
the same process — e.g. the technique loop of a comparison — without
touching disk.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..core.dyninstr import DynInstr
from ..errors import SimulationError
from ..isa.predecode import K_STORE, decode_program
from ..isa.program import Program
from ..workloads.gap import clear_input_memo

#: Version tag written into every trace file; bump on layout changes.
TRACE_SCHEMA = "repro.arch-trace/1"

#: Streams longer than this are not worth holding in memory/disk; the
#: run simply executes functionally (capture is skipped, never replay).
CAPTURE_LIMIT = 400_000

#: In-process memo capacity (distinct (workload, seed, limit) streams).
_MEMO_CAPACITY = 8


def _decoded_of(program):
    return (
        program.decoded()
        if isinstance(program, Program)
        else decode_program(program)
    )


class ArchTrace:
    """One captured architectural stream, as flat parallel columns.

    ``values[i]`` is the :class:`DynInstr` value for non-stores and the
    *stored word* for stores (side-band; the replayed record's ``value``
    reverts to ``None``). ``halted`` distinguishes a stream that ended
    at HALT from one truncated by the consumer's step budget.
    """

    __slots__ = ("pcs", "values", "addrs", "takens", "next_pcs", "halted")

    def __init__(
        self,
        pcs: List[int],
        values: List[Union[int, float, None]],
        addrs: List[Optional[int]],
        takens: List[Optional[bool]],
        next_pcs: List[int],
        halted: bool,
    ) -> None:
        self.pcs = pcs
        self.values = values
        self.addrs = addrs
        self.takens = takens
        self.next_pcs = next_pcs
        self.halted = halted

    def __len__(self) -> int:
        return len(self.pcs)

    def to_payload(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "halted": self.halted,
            "pcs": self.pcs,
            "values": self.values,
            "addrs": self.addrs,
            "takens": self.takens,
            "next_pcs": self.next_pcs,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ArchTrace":
        if payload.get("schema") != TRACE_SCHEMA:
            raise ValueError("trace schema mismatch")
        return cls(
            pcs=payload["pcs"],
            values=payload["values"],
            addrs=payload["addrs"],
            takens=payload["takens"],
            next_pcs=payload["next_pcs"],
            halted=bool(payload["halted"]),
        )


class CaptureSource:
    """Wrap a live functional core; record the stream as it is consumed.

    Drop-in for the core's ``functional`` attribute (same ``.step()``
    protocol). The first timing run of a given stream is therefore also
    its capture run — no extra functional execution on a cache miss.
    """

    __slots__ = (
        "functional",
        "pcs",
        "values",
        "addrs",
        "takens",
        "next_pcs",
        "_kinds",
        "_rs2",
    )

    def __init__(self, functional) -> None:
        self.functional = functional
        decoded = _decoded_of(functional.program)
        self._kinds = decoded.kinds
        self._rs2 = decoded.rs2
        self.pcs: List[int] = []
        self.values: List[Union[int, float, None]] = []
        self.addrs: List[Optional[int]] = []
        self.takens: List[Optional[bool]] = []
        self.next_pcs: List[int] = []

    def step(self) -> Optional[DynInstr]:
        dyn = self.functional.step()
        if dyn is None:
            return None
        pc = dyn.pc
        value = dyn.value
        if self._kinds[pc] == K_STORE:
            # Side-band store value: stores do not write a register, so
            # rs2 still holds exactly the word passed to write_word.
            value = self.functional.regs[self._rs2[pc]]
        self.pcs.append(pc)
        self.values.append(value)
        self.addrs.append(dyn.addr)
        self.takens.append(dyn.taken)
        self.next_pcs.append(dyn.next_pc)
        return dyn

    def finish(self) -> ArchTrace:
        return ArchTrace(
            self.pcs,
            self.values,
            self.addrs,
            self.takens,
            self.next_pcs,
            halted=self.functional.halted,
        )


class ReplaySource:
    """Replay a captured stream into a timing core.

    Stores are re-applied to ``memory`` at step time so speculative
    interpreters observe the fetch-point memory image, exactly as under
    live execution. ``instr`` identity comes from the live ``program``
    (``dyn.instr is program[pc]`` holds, as everywhere else).

    Stepping past the end of a *non-halted* trace is a keying bug (the
    consumer's step budget exceeds the captured one) and raises rather
    than silently truncating the run.
    """

    __slots__ = ("_trace", "_instrs", "_kinds", "_memory", "_i")

    def __init__(self, trace: ArchTrace, program, memory) -> None:
        decoded = _decoded_of(program)
        self._trace = trace
        self._instrs = decoded.instrs
        self._kinds = decoded.kinds
        self._memory = memory
        self._i = 0

    def step(self) -> Optional[DynInstr]:
        i = self._i
        trace = self._trace
        pcs = trace.pcs
        if i >= len(pcs):
            if trace.halted:
                return None
            raise SimulationError(
                "architectural trace exhausted before the consumer's "
                "instruction budget (trace keyed on a smaller limit?)"
            )
        self._i = i + 1
        pc = pcs[i]
        value = trace.values[i]
        addr = trace.addrs[i]
        if self._kinds[pc] == K_STORE:
            self._memory.write_word(addr, value)
            value = None
        return DynInstr(
            i, pc, self._instrs[pc], value, addr, trace.takens[i], trace.next_pcs[i]
        )


def capture_arch_trace(program, memory, limit: int) -> ArchTrace:
    """Run ``program`` functionally for up to ``limit`` steps, capturing.

    Standalone capture (mutates ``memory``); the runner instead captures
    as a side effect of the first timing run via :class:`CaptureSource`.
    """
    from ..core.functional import FunctionalCore

    source = CaptureSource(FunctionalCore(program, memory))
    steps = 0
    while steps < limit and source.step() is not None:
        steps += 1
    return source.finish()


# -- identity -----------------------------------------------------------------

#: The fields every stream projection must carry, in canonical order.
_PROJECTION_FIELDS = ("workload", "input_name", "size", "seed", "limit", "stream")


def arch_trace_key(spec) -> str:
    """Content address of one architectural stream.

    ``spec`` is a :class:`~repro.experiments.spec.RunSpec` (its
    :meth:`~repro.experiments.spec.RunSpec.stream_projection` is the
    single derivation point for stream identity) or an equivalent
    projection mapping with keys ``workload``/``input_name``/``size``/
    ``seed``/``limit``/``stream``. ``stream`` distinguishes program
    transforms over the same workload (``"base"`` vs ``"swpf"`` —
    software prefetching rewrites the program, so its stream differs).
    The key embeds the package code fingerprint via
    :func:`~repro.experiments.cache.spec_key`, so any source edit
    invalidates every trace alongside every result.
    """
    from ..experiments.cache import spec_key

    projection = spec if isinstance(spec, dict) else spec.stream_projection()
    missing = [f for f in _PROJECTION_FIELDS if f not in projection]
    if missing:
        raise SimulationError(f"stream projection is missing fields {missing}")
    payload = {"kind": "arch-trace"}
    payload.update({f: projection[f] for f in _PROJECTION_FIELDS})
    return spec_key(payload)


# -- in-process memo ----------------------------------------------------------

_MEMO: "OrderedDict[str, ArchTrace]" = OrderedDict()


def _memo_get(key: str) -> Optional[ArchTrace]:
    trace = _MEMO.get(key)
    if trace is not None:
        _MEMO.move_to_end(key)
    return trace


def _memo_put(key: str, trace: ArchTrace) -> None:
    _MEMO[key] = trace
    _MEMO.move_to_end(key)
    while len(_MEMO) > _MEMO_CAPACITY:
        _MEMO.popitem(last=False)


def clear_trace_memo() -> None:
    """Drop every memoised trace and graph input (tests, cold benchmarks).

    The next run re-derives its workload input and captures its stream
    (or loads it from an installed trace store), as in a fresh process.
    """
    _MEMO.clear()
    clear_input_memo()


# -- disk persistence ---------------------------------------------------------

# Module-level (not a contextvar) so forked batch workers inherit the
# directory installed by the parent before the pool spawned.
_SHARED_TRACE_DIR: Optional[Path] = None


@contextmanager
def use_trace_dir(path: Optional[os.PathLike]) -> Iterator[Optional[Path]]:
    """Make ``path`` the trace store for runs within (None disables)."""
    global _SHARED_TRACE_DIR
    previous = _SHARED_TRACE_DIR
    _SHARED_TRACE_DIR = Path(path) if path is not None else None
    try:
        yield _SHARED_TRACE_DIR
    finally:
        _SHARED_TRACE_DIR = previous


def _trace_root() -> Optional[Path]:
    if _SHARED_TRACE_DIR is not None:
        return _SHARED_TRACE_DIR
    from ..experiments.cache import active_cache

    cache = active_cache()
    if cache is not None:
        # Subdirectory keeps trace files out of the result cache's
        # ``*.json`` namespace (len(cache), resume scans, ...).
        return cache.root / "traces"
    return None


def load_trace(key: str) -> Optional[ArchTrace]:
    """Memo, then disk; corrupt or stale entries are dropped as misses."""
    trace = _memo_get(key)
    if trace is not None:
        return trace
    root = _trace_root()
    if root is None:
        return None
    path = root / f"{key}.json"
    try:
        trace = ArchTrace.from_payload(json.loads(path.read_text()))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError):
        try:
            path.unlink()
        except OSError:
            pass
        return None
    _memo_put(key, trace)
    return trace


def store_trace(key: str, trace: ArchTrace) -> None:
    """Memoise and (when a trace store is ambient) persist atomically."""
    _memo_put(key, trace)
    root = _trace_root()
    if root is None:
        return
    try:
        root.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=root, prefix=".tmp-", suffix=".json", delete=False
        )
        with handle:
            json.dump(trace.to_payload(), handle)
        os.replace(handle.name, root / f"{key}.json")
    except OSError:
        # Persistence is an optimisation; a full disk or permission
        # problem must not fail the run that captured the trace.
        try:
            os.unlink(handle.name)
        except (OSError, UnboundLocalError):
            pass
