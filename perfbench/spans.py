"""In-memory span recorder wrapped around the public entry points of each
``repro`` layer, installed from the benchmark's own process.

Spans are aggregated into a call tree per operation (one spec run or one
served request, keyed by ``RunSpec.key()``): repeated calls with the same
layer name under the same parent share one node carrying a call count and
a total duration, so millions of memory accesses cost a dict lookup each
instead of a list entry. A node's self time is its total minus the totals
of its children. Threads keep separate stacks; spans opened on a thread
with no operation in progress land in that thread's own root (the serve
event loop's work lands in ``thread:<name>``).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Node:
    __slots__ = ("name", "ns", "calls", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ns = 0
        self.calls = 0
        self.children: Dict[str, "Node"] = {}

    def self_ns(self) -> int:
        return self.ns - sum(child.ns for child in self.children.values())

    def to_payload(self) -> Dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.ns / 1e9,
            "self_s": self.self_ns() / 1e9,
            "children": [c.to_payload() for c in self.children.values()],
        }


def _layer_targets():
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Module-level functions are patched where the caller looks them up
    (``runner`` imports ``build_workload``/``load_trace``/``store_trace``
    by name; ``serve`` imports ``stats_payload`` by name).
    """
    from repro.core.ooo import OoOCore
    from repro.experiments import runner, serve
    from repro.experiments.cache import ResultCache
    from repro.experiments.spec import RunSpec
    from repro.frontend.branch_predictor import TageLitePredictor
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.perf.trace import CaptureSource, ReplaySource
    from repro.prefetch.imp import IndirectMemoryPrefetcher
    from repro.runahead.dvr import DecoupledVectorRunahead
    from repro.runahead.pre import PreciseRunahead
    from repro.runahead.vr import VectorRunahead

    targets = [
        (runner, "build_workload", "workloads.build"),
        (runner, "load_trace", "perf.trace_io"),
        (runner, "store_trace", "perf.trace_io"),
        (CaptureSource, "step", "perf.stream"),
        (ReplaySource, "step", "perf.stream"),
        (RunSpec, "key", "experiments.spec_key"),
        (ResultCache, "get", "experiments.cache_get"),
        (ResultCache, "put", "experiments.cache_put"),
        (serve, "stats_payload", "experiments.serve_payload"),
        (OoOCore, "run", "core.run"),
        (MemoryHierarchy, "demand_load", "memory.access"),
        (MemoryHierarchy, "prefetch_ready", "memory.access"),
        (MemoryHierarchy, "access", "memory.access"),
        (TageLitePredictor, "predict", "frontend.predict"),
        (TageLitePredictor, "update", "frontend.predict"),
    ]
    hooks = ("on_full_rob_stall", "advance_to", "on_demand_load", "on_commit", "finalize")
    for cls, name in (
        (PreciseRunahead, "runahead.pre"),
        (VectorRunahead, "runahead.vr"),
        (DecoupledVectorRunahead, "runahead.dvr"),
        (IndirectMemoryPrefetcher, "prefetch.imp"),
    ):
        targets.extend((cls, hook, name) for hook in hooks)
    return targets


class Tracer:
    """Patch the layer entry points, record spans, restore on exit."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()
        #: Finished operation trees, keyed by spec key.
        self.ops: Dict[str, Node] = {}
        #: Per-thread roots for spans recorded outside any operation.
        self.threads: Dict[str, Node] = {}
        self.sim_cycles = 0
        self.cache_gets = 0
        self.cache_hits = 0
        self.builds: List[Tuple] = []

    # -- stacks -----------------------------------------------------------

    def _stack(self) -> List[Node]:
        try:
            return self._local.stack
        except AttributeError:
            name = "thread:" + threading.current_thread().name
            with self._lock:
                root = self.threads.setdefault(name, Node(name))
            self._local.stack = [root]
            return self._local.stack

    def op(self, label: str) -> "_OpSpan":
        """Open an operation root; ``close(key)`` files it under ``key``."""
        return _OpSpan(self, label)

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, post: Optional[Callable]) -> Callable:
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                node.ns += clock() - start
                node.calls += 1
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return span

    def _post_for(self, name: str) -> Optional[Callable]:
        if name == "core.run":
            def post(args, kwargs, result):
                self.sim_cycles += result.cycles
            return post
        if name == "experiments.cache_get":
            def post(args, kwargs, result):
                self.cache_gets += 1
                self.cache_hits += result is not None
            return post
        if name == "workloads.build":
            def post(args, kwargs, result):
                self.builds.append(
                    (args[0], kwargs.get("input_name"), kwargs.get("size"), kwargs.get("seed"))
                )
            return post
        return None

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _layer_targets():
            # None marks an inherited method: restoring deletes the
            # subclass attribute instead of pinning the base version.
            own = vars(owner).get(attr)
            wrapper = self._wrap(getattr(owner, attr), name, self._post_for(name))
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, own))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, own in reversed(self._patched):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def all_roots(self) -> List[Node]:
        return list(self.ops.values()) + list(self.threads.values())

    def payload(self) -> Dict:
        return {
            "ops": {key: node.to_payload() for key, node in self.ops.items()},
            "threads": {name: node.to_payload() for name, node in self.threads.items()},
        }


class _OpSpan:
    def __init__(self, tracer: Tracer, label: str) -> None:
        self.tracer = tracer
        self.node = Node(label)
        self.start = 0

    def __enter__(self) -> "_OpSpan":
        self.tracer._stack().append(self.node)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.node.ns += time.perf_counter_ns() - self.start
        self.node.calls += 1
        self.tracer._stack().pop()

    def close(self, key: str) -> None:
        """File the finished tree under ``key``, merging repeats."""
        with self.tracer._lock:
            existing = self.tracer.ops.get(key)
            if existing is None:
                self.tracer.ops[key] = self.node
            else:
                _merge(existing, self.node)


def _merge(into: Node, other: Node) -> None:
    into.ns += other.ns
    into.calls += other.calls
    for name, child in other.children.items():
        mine = into.children.get(name)
        if mine is None:
            into.children[name] = child
        else:
            _merge(mine, child)


def layer_totals(roots: List[Node]) -> Dict[str, Dict[str, float]]:
    """Per span name: self seconds, total seconds and outermost calls.

    ``total`` and ``calls`` skip a node nested directly under a node of
    the same name (``demand_load`` delegating to ``access``), so an
    access counts once; self time needs no such care.
    """
    out: Dict[str, Dict[str, float]] = {}

    def visit(node: Node, parent_name: Optional[str]) -> None:
        entry = out.setdefault(node.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += node.self_ns() / 1e9
        if node.name != parent_name:
            entry["total_s"] += node.ns / 1e9
            entry["calls"] += node.calls
        for child in node.children.values():
            visit(child, node.name)

    for root in roots:
        visit(root, None)
    return out
