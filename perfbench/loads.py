"""The three benchmark workloads: ``fig7-cold``, ``sweep-seeds``, ``serve-mix``.

Each workload has the same shape:

* ``setup()`` — everything a user pays once before the work starts
  (spec generation, cache warm-up, server and pool start); timed and
  repeated by run.py, which keeps the last one;
* ``round(index, tracer)`` — one complete unit of the workload's work,
  started cold where the workload says so, returning a :class:`Round`;
* ``probe(rounds)`` — work done outside the timed window for the
  correctness gate and the accuracy metrics;
* ``close()`` — stop every thread and process the workload started.

Why each workload exists, and which layer it is meant to move, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.experiments import batch as batch_module
from repro.experiments import figures as figures_module
from repro.experiments.batch import BatchFailure, run_batch
from repro.experiments.cache import BATCH_COUNTERS, ResultCache, use_cache
from repro.experiments.figures import ROB_SIZES, figure7, figure_specs
from repro.experiments.report import harmonic_mean
from repro.experiments.runner import run_simulation
from repro.experiments.serve import ServerThread
from repro.experiments.spec import RunSpec
from repro.experiments.sweep import sweep_specs
from repro.observability import stats_payload
from repro.perf.trace import clear_trace_memo

#: The paper's harmonic-mean speedups over the 13 benchmarks (ISCA 2021,
#: Section 6.2): the only reference results the repository holds.
PAPER_HMEAN = {"dvr": 2.4, "vr": 1.2}

#: hpc-db workloads whose builds take milliseconds (graph500 builds an
#: RMAT graph, like the GAP kernels, so it is left out of serve traffic).
CHEAP_WORKLOADS = ("camel", "hj2", "hj8", "kangaroo", "nas_cg", "nas_is", "random_access")


def canonical(payload: Dict) -> bytes:
    """The byte form the server answers with (sorted-key JSON)."""
    return json.dumps(payload, sort_keys=True).encode()


def region_of(spec: RunSpec) -> int:
    """Instructions the spec asks the core to retire."""
    return spec.resolved().config.max_instructions


@dataclass
class Op:
    """One operation: a spec run, or one served request."""

    key: str
    region: int
    latency_s: float
    served: str  # "sim" | "hit" | "miss" | "coalesced" | "error"
    doc: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def simulated(self) -> bool:
        return self.served in ("sim", "miss")


@dataclass
class Round:
    wall_s: float
    ops: List[Op]
    cache_bytes: int = 0
    replays: float = 0.0
    runs: float = 0.0
    serve: Dict[str, float] = field(default_factory=dict)
    builds: List[Tuple] = field(default_factory=list)


@dataclass
class Scale:
    fig7_workloads: Optional[Sequence[str]]
    fig7_instructions: int
    sweep_workloads: Sequence[str]
    sweep_robs: Sequence[int]
    sweep_seeds: int
    sweep_instructions: int
    serve_workloads: Sequence[str]
    serve_instructions: int
    serve_steps: int


SCALES = {
    # fig7 at the generator's defaults is exactly `repro figure figure7`.
    "full": Scale(None, 15_000, ("bfs", "camel", "nas_is"), ROB_SIZES, 3, 15_000,
                  CHEAP_WORKLOADS, 2_000, 60),
    "tiny": Scale(("camel", "nas_is"), 800, ("camel", "bfs"), (128, 350), 2, 800,
                  ("camel", "nas_is"), 400, 8),
}


class _Recorder:
    """Record each ``run_simulation`` call a generator makes, in call order,
    with the time its result became available since the recorder opened.

    Patches the name in the calling module (``figures`` or ``batch``),
    which is where each looks it up; restores it on exit. With a tracer,
    each call is also one span-tree root.
    """

    def __init__(self, module, tracer=None) -> None:
        self.module = module
        self.tracer = tracer
        self.calls: List[Tuple[float, object, object]] = []

    def __enter__(self) -> "_Recorder":
        original = self.original = self.module.run_simulation
        tracer = self.tracer

        def recorded(*args, **kwargs):
            span = tracer.op("run_simulation") if tracer is not None else nullcontext()
            try:
                with span:
                    result = original(*args, **kwargs)
            except Exception as exc:
                self.calls.append((time.perf_counter() - self.origin, exc, span))
                raise
            self.calls.append((time.perf_counter() - self.origin, result, span))
            return result

        self.module.run_simulation = recorded
        self.origin = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.module.run_simulation = self.original

    def ops(self, specs: Sequence[RunSpec], keys: Sequence[str], regions: Sequence[int]) -> List[Op]:
        if len(self.calls) != len(specs):
            raise RuntimeError(
                f"generator made {len(self.calls)} runs, expected {len(specs)}"
            )
        ops = []
        for (latency, outcome, span), key, region in zip(self.calls, keys, regions):
            if self.tracer is not None:
                span.close(key)
            if isinstance(outcome, Exception):
                ops.append(Op(key, region, latency, "error", error=repr(outcome)))
            else:
                ops.append(Op(key, region, latency, "sim", doc=stats_payload(outcome)))
        return ops


def _batch_counts() -> Tuple[float, float]:
    snap = BATCH_COUNTERS.snapshot()
    return snap.get("batch.trace.replays", 0), snap.get("batch.sim.runs", 0)


class Workload:
    name = ""
    #: Whether every round redoes identical work (so digests must agree).
    repeats = True

    def __init__(self, scale: Scale, seed: int, tmp: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.tmp = tmp
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, tracer=None) -> Round:
        raise NotImplementedError

    def hmeans(self, rounds: List[Round]) -> Dict[str, float]:
        raise NotImplementedError

    def audit_specs(self, count: int) -> List[RunSpec]:
        """A seed-chosen sample of this workload's specs to re-run audited."""
        return self.rng.sample(list(self.specs), min(count, len(self.specs)))

    def probe(self, rounds: List[Round]) -> List[str]:
        """Extra correctness checks; returns violations."""
        return []

    def measure_window(self) -> "_Window":
        """Context around a batch of measured rounds."""
        return _Window()

    def close(self) -> None:
        pass


class Fig7Cold(Workload):
    """``repro figure figure7`` from an empty result cache and trace store."""

    name = "fig7-cold"

    def setup(self) -> None:
        kwargs = {"instructions": self.scale.fig7_instructions}
        if self.scale.fig7_workloads is not None:
            kwargs["workloads"] = list(self.scale.fig7_workloads)
        self.kwargs = kwargs
        self.specs = figure_specs("figure7", **kwargs)
        self.keys = [spec.key() for spec in self.specs]
        self.regions = [region_of(spec) for spec in self.specs]

    def round(self, index: int, tracer=None) -> Round:
        clear_trace_memo()
        cache_dir = self.tmp / f"fig7-cache-{index}"
        cache = ResultCache(cache_dir)
        replays, runs = _batch_counts()
        recorder = _Recorder(figures_module, tracer)
        start = time.perf_counter()
        with use_cache(cache), recorder:
            figure = figure7(**self.kwargs)
        wall = time.perf_counter() - start
        replays_after, runs_after = _batch_counts()
        self.figure = figure
        out = Round(
            wall,
            recorder.ops(self.specs, self.keys, self.regions),
            cache_bytes=cache.total_bytes(),
            replays=replays_after - replays,
            runs=runs_after - runs,
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        return out

    def hmeans(self, rounds: List[Round]) -> Dict[str, float]:
        headers, last = self.figure.headers, self.figure.rows[-1]
        return {tech: last[headers.index(tech)] for tech in PAPER_HMEAN}


class SweepSeeds(Workload):
    """``repro sweep <wl> vr core.rob_size <Figure 2 points> --seeds N``
    over three workloads, without a result cache."""

    name = "sweep-seeds"

    def setup(self) -> None:
        scale = self.scale
        # The CLI turns `--seeds N` into seeds 1..N; seed 1 is in every
        # multi-seed sweep, so its short GAP runs are part of the traffic.
        self.seed_list = list(range(1, scale.sweep_seeds + 1))
        self.batches = [
            (wl, sweep_specs(wl, "vr", "core.rob_size", list(scale.sweep_robs),
                             instructions=scale.sweep_instructions, seeds=self.seed_list))
            for wl in scale.sweep_workloads
        ]
        self.specs = [spec for _wl, specs in self.batches for spec in specs]
        # run_batch deduplicates, so the recorded calls follow each
        # batch's distinct specs in first-seen order.
        self.runs: List[RunSpec] = []
        for _wl, specs in self.batches:
            distinct: Dict[str, RunSpec] = {}
            for spec in specs:
                distinct.setdefault(spec.key(), spec)
            self.runs.extend(distinct.values())
        self.keys = [spec.key() for spec in self.runs]
        self.regions = [region_of(spec) for spec in self.runs]

    def round(self, index: int, tracer=None) -> Round:
        clear_trace_memo()
        replays, runs = _batch_counts()
        self.outcomes: List[Tuple[RunSpec, object]] = []
        recorder = _Recorder(batch_module, tracer)
        start = time.perf_counter()
        with recorder:
            for _wl, specs in self.batches:
                # A spec that raises comes back as a BatchFailure slot;
                # the recorder saw the exception, so its op is an error.
                self.outcomes.extend(zip(specs, run_batch(specs)))
        wall = time.perf_counter() - start
        replays_after, runs_after = _batch_counts()
        ops = recorder.ops(self.runs, self.keys, self.regions)
        return Round(wall, ops, replays=replays_after - replays, runs=runs_after - runs)

    def probe(self, rounds: List[Round]) -> List[str]:
        # DVR at the baseline ROB on the same inputs, for sim.dvr_hmean_err
        # (the sweep itself runs VR only). Outside the timed window.
        self.dvr = {}
        for wl in self.scale.sweep_workloads:
            for seed in self.seed_list:
                spec = RunSpec(
                    wl, "dvr",
                    config=SimConfig(max_instructions=self.scale.sweep_instructions),
                    overrides=(("core.rob_size", 350),),
                    seed=seed,
                )
                self.dvr[(wl, seed)] = run_simulation(spec).ipc
        return []

    def hmeans(self, rounds: List[Round]) -> Dict[str, float]:
        base, vr = {}, {}
        for spec, outcome in self.outcomes:
            if isinstance(outcome, BatchFailure) or dict(spec.overrides).get("core.rob_size") != 350:
                continue
            slot = base if spec.technique == "ooo" else vr
            slot[(spec.workload, spec.seed)] = outcome.ipc
        speedups = {"vr": [], "dvr": []}
        for point, ipc in base.items():
            if ipc:
                speedups["vr"].append(vr[point] / ipc)
                speedups["dvr"].append(self.dvr[point] / ipc)
        return {tech: harmonic_mean(values) for tech, values in speedups.items()}


# -- serve-mix ----------------------------------------------------------------


def _post(address: Tuple[str, int], body: bytes) -> Tuple[int, str, bytes]:
    conn = http.client.HTTPConnection(address[0], address[1], timeout=120)
    try:
        conn.request("POST", "/run", body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.getheader("X-Repro-Served") or "", response.read()
    finally:
        conn.close()


def _healthz(address: Tuple[str, int]) -> Dict:
    conn = http.client.HTTPConnection(address[0], address[1], timeout=30)
    try:
        conn.request("GET", "/healthz")
        return json.loads(conn.getresponse().read().decode())
    finally:
        conn.close()


@dataclass
class _Request:
    key: str
    region: int
    body: bytes


class ServeMix(Workload):
    """Two closed-loop clients against ``ServerThread(pool_size=1)``.

    Per round, each client first sends the round's shared novel spec
    right after a barrier (one of the two coalesces onto the other's
    flight), then ``serve_steps - 1`` requests: hits over the warm set in
    a seed-shuffled order with one unique-seed miss at a fixed step.
    """

    name = "serve-mix"
    repeats = False
    SERVE = ("serve.cache_hits", "serve.coalesced", "serve.misses", "serve.failures")

    def __init__(self, scale: Scale, seed: int, tmp: Path) -> None:
        super().__init__(scale, seed, tmp)
        self.server_cm: Optional[ServerThread] = None
        self.setups = 0
        # Novel seeds: unique per (benchmark seed, round, slot), far from
        # the small seeds other workloads and tests use.
        self.seed_base = 1_000_000 * (1 + seed % 1000)
        self.bodies: Dict[str, bytes] = {}
        self.sent: Dict[str, RunSpec] = {}
        self.rounds_sent = 0
        self.mismatched: List[str] = []

    def _request(self, spec: RunSpec) -> _Request:
        request = _Request(spec.key(), region_of(spec), canonical(spec.to_payload()))
        self.sent[request.key] = spec
        return request

    def _novel(self, round_index: int, slot: int) -> _Request:
        # Novel specs walk the warm set's (workload, technique) pairs in a
        # fixed order and differ from it only in their unique seed, so
        # every run, whatever its seed, misses on the same mix of work.
        seed = self.seed_base + 4 * round_index + slot
        warm = self.specs[(3 * round_index + slot) % len(self.specs)]
        return self._request(replace(warm, seed=seed))

    def setup(self) -> None:
        self.close()
        clear_trace_memo()
        self.setups += 1
        self.specs = [
            RunSpec(wl, tech, max_instructions=self.scale.serve_instructions)
            for wl in self.scale.serve_workloads
            for tech in ("ooo", "vr", "dvr")
        ]
        self.warm = [self._request(spec) for spec in self.specs]
        cache = ResultCache(self.tmp / f"serve-cache-{self.setups}")
        with use_cache(cache):
            for spec in self.specs:
                run_simulation(spec)
        self.cache = cache
        self.server_cm = ServerThread(pool_size=1, cache=cache)
        self.address = self.server_cm.__enter__().address
        # One novel request starts the pool's worker, as a long-running
        # server would have done before this traffic arrives.
        status, _served, _body = _post(self.address, self._novel(-1 - self.setups, 3).body)
        if status != 200:
            raise RuntimeError(f"priming request failed with HTTP {status}")

    def _script(self, index: int) -> List[List[_Request]]:
        rng = random.Random(self.seed_base + 4 * index + 3)
        shared = self._novel(index, 2)
        scripts = []
        for client in range(2):
            hits: List[_Request] = []
            while len(hits) < self.scale.serve_steps - 2:
                order = list(self.warm)
                rng.shuffle(order)
                hits.extend(order)
            hits = hits[: self.scale.serve_steps - 2]
            # Client 0 misses a third of the way in, client 1 two thirds:
            # the pool's one worker serves them without queueing them.
            hits.insert((client + 1) * len(hits) // 3, self._novel(index, client))
            scripts.append([shared] + hits)
        return scripts

    def round(self, index: int, tracer=None) -> Round:
        # Rounds number on across calls, so a later (traced) batch of
        # rounds sends novel specs of its own instead of cached ones.
        index = self.rounds_sent
        self.rounds_sent += 1
        scripts = self._script(index)
        barrier = threading.Barrier(2)
        results: List[List[Tuple[_Request, int, str, bytes, float]]] = [[], []]

        def client(slot: int) -> None:
            barrier.wait(60)
            for request in scripts[slot]:
                span = tracer.op("serve.request") if tracer is not None else nullcontext()
                start = time.perf_counter()
                try:
                    with span:
                        status, served, body = _post(self.address, request.body)
                except (OSError, http.client.HTTPException) as exc:
                    status, served, body = 0, "error", repr(exc).encode()
                results[slot].append((request, status, served, body, time.perf_counter() - start))
                if tracer is not None:
                    span.close(request.key)

        threads = [
            threading.Thread(target=client, args=(slot,), name=f"client-{slot}")
            for slot in range(2)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

        ops: List[Op] = []
        docs: Dict[bytes, Dict] = {}
        for request, status, served, body, latency in results[0] + results[1]:
            if status != 200:
                ops.append(Op(request.key, request.region, latency, "error", error=body[:200].decode(errors="replace")))
                continue
            previous = self.bodies.setdefault(request.key, body)
            if previous != body:
                self.mismatched.append(request.key)
            if body not in docs:
                docs[body] = json.loads(body)
            ops.append(Op(request.key, request.region, latency, served or "error", doc=docs[body]))
        return Round(wall, ops)

    def measure_window(self) -> "_Window":
        return _ServeWindow(self)

    def hmeans(self, rounds: List[Round]) -> Dict[str, float]:
        ipc = {}
        for request in self.warm:
            doc = json.loads(self.bodies[request.key])
            ipc[(doc["workload"], doc["technique"])] = doc["ipc"]
        speedups = {tech: [] for tech in PAPER_HMEAN}
        for wl in self.scale.serve_workloads:
            for tech in PAPER_HMEAN:
                speedups[tech].append(ipc[(wl, tech)] / ipc[(wl, "ooo")])
        return {tech: harmonic_mean(values) for tech, values in speedups.items()}

    def probe(self, rounds: List[Round]) -> List[str]:
        violations = [f"key {key}: differing response bodies" for key in self.mismatched]
        health = _healthz(self.address)
        if not health["conservation"]["passed"]:
            violations.append(f"healthz: {health['conservation']['violations']}")
        # Byte identity against a serial run, for a seed-chosen sample of
        # warm and novel responses, with no cache in the way.
        warm = [request.key for request in self.warm]
        novel = sorted(set(self.bodies) - set(warm))
        sample = self.rng.sample(novel, min(3, len(novel)))
        sample += self.rng.sample(warm, min(3, len(warm)))
        for key in sample:
            if canonical(stats_payload(run_simulation(self.sent[key]))) != self.bodies[key]:
                violations.append(f"key {key}: served bytes differ from a serial run")
        return violations

    def close(self) -> None:
        if self.server_cm is not None:
            self.server_cm.__exit__(None, None, None)
            self.server_cm = None


class _Window:
    """Nothing to bracket: no server counters, no shared cache."""

    serve: Dict[str, float] = {}
    cache_bytes = 0

    def __enter__(self) -> "_Window":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class _ServeWindow(_Window):
    """/healthz counter and cache-size deltas over the measured rounds."""

    def __init__(self, mix: ServeMix) -> None:
        self.mix = mix

    def __enter__(self) -> "_ServeWindow":
        self.before = _healthz(self.mix.address)["counters"]
        self.bytes_before = self.mix.cache.total_bytes()
        return self

    def __exit__(self, *exc_info) -> None:
        after = _healthz(self.mix.address)["counters"]
        self.serve = {name: after.get(name, 0) - self.before.get(name, 0) for name in ServeMix.SERVE}
        self.cache_bytes = self.mix.cache.total_bytes() - self.bytes_before


WORKLOADS = {cls.name: cls for cls in (Fig7Cold, SweepSeeds, ServeMix)}
