"""End-to-end benchmark of the repro simulator: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with no instrumentation and prints every end-to-end
metric; ``--trace 1`` runs the same rounds untraced and then traced, and
prints every per-layer metric plus the tracing overhead. Either way the
correctness gate runs outside the timed window, the last stdout line is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``), a
full report (digests, calibration, span trees) goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``, and the exit code is
non-zero when the gate fails. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from spans import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
AUDIT_SAMPLE = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_ips": "1/s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "miss_latency_p50_ms": "ms",
    "sim.dvr_hmean_err": "ratio",
    "sim.vr_hmean_err": "ratio",
}

#: Span name -> per-layer self-time metric.
LAYER_SELF = {
    "workloads.build": "workloads.build_s",
    "perf.stream": "perf.stream_s",
    "perf.trace_io": "perf.trace_io_s",
    "experiments.spec_key": "experiments.spec_key_s",
    "experiments.cache_get": "experiments.cache_get_s",
    "experiments.cache_put": "experiments.cache_put_s",
    "experiments.serve_payload": "experiments.serve_payload_s",
    "core.run": "core.self_s",
    "memory.access": "memory.access_s",
    "frontend.predict": "frontend.predict_s",
    "runahead.pre": "runahead.pre_s",
    "runahead.vr": "runahead.vr_s",
    "runahead.dvr": "runahead.dvr_s",
    "prefetch.imp": "prefetch.imp_s",
}

PREFETCHING = ("pre", "imp", "vr", "dvr")


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (no repro code): tells
    host drift apart from program change. Not a metric."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) & 0xFFFF
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.experiments.figures, repro.experiments.sweep, repro.experiments.serve; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# -- correctness gate ----------------------------------------------------------


def inject(rounds, how: str) -> None:
    """Plant a bad result in round 0 (used by the self-test)."""
    op = rounds[0].ops[0]
    if how == "corrupt":
        op.doc = dict(op.doc, cycles=0)
    elif how == "short":
        op.doc = dict(op.doc, instructions=op.region // 2)


def gate(rounds, validate_stats, repro_error) -> Tuple[List[str], List[str]]:
    """(violations, failed operations) over every op of every round.

    A violation makes the run incorrect. A failed operation — one that
    raised, answered non-200, or retired fewer instructions than its
    region — is counted against the attempted ones.
    """
    violations: List[str] = []
    failed: List[str] = []
    checked = set()
    for index, round_ in enumerate(rounds):
        for op in round_.ops:
            if op.doc is None:
                failed.append(f"round {index} {op.key[:16]}: {op.error}")
                continue
            if id(op.doc) not in checked:
                checked.add(id(op.doc))
                try:
                    validate_stats(op.doc)
                except repro_error as exc:
                    violations.append(f"round {index} {op.key[:16]}: {exc}")
            if op.doc["instructions"] < op.region:
                failed.append(
                    f"round {index} {op.doc['workload']}/{op.doc['technique']} "
                    f"{op.key[:16]}: short run, {op.doc['instructions']} of "
                    f"{op.region} instructions"
                )
    return violations, failed


def digest(round_) -> Tuple[str, int]:
    """BLAKE2b over the distinct repro.stats/1 documents, sorted by key."""
    docs = {op.key: op.doc for op in round_.ops if op.doc is not None}
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(docs):
        h.update(key.encode())
        h.update(json.dumps(docs[key], sort_keys=True).encode())
    return h.hexdigest(), len(docs)


# -- metrics -------------------------------------------------------------------


def end_to_end(rounds, setup_s: float, peak_rss_mb: float, hmeans: Dict[str, float],
               paper: Dict[str, float]) -> Dict:
    ops = [op for r in rounds for op in r.ops]
    wall = sum(r.wall_s for r in rounds)
    latencies = [op.latency_s for op in ops]
    misses = [op.latency_s for op in ops if op.simulated] or latencies
    simulated = sum(op.doc["instructions"] for op in ops if op.simulated and op.doc)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "sim_ips": simulated / wall,
        "peak_rss_mb": peak_rss_mb,
        "req_per_s": len(ops) / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p99_ms": 1000 * quantile(latencies, 99),
        "miss_latency_p50_ms": 1000 * statistics.median(misses),
    }
    for tech in ("dvr", "vr"):
        values[f"sim.{tech}_hmean_err"] = abs(hmeans[tech] - paper[tech]) / paper[tech]
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def simulated_counts(rounds) -> Dict:
    docs = list({op.key: op.doc for r in rounds for op in r.ops if op.doc is not None}.values())

    def total(name: str) -> float:
        return sum(doc["counters"].get(name, 0) for doc in docs)

    instructions = sum(doc["instructions"] for doc in docs) or 1
    cycles = sum(doc["cycles"] for doc in docs) or 1
    out = {
        "core.sim_cycles": (sum(doc["cycles"] for doc in docs), "count"),
        "core.full_rob_stall_share": (total("core.stall.full_rob_cycles") / cycles, "ratio"),
        "memory.l3_mpki": (1000 * total("mem.l3.misses") / instructions, "1/kinstr"),
        "memory.mshr_mean_occupancy": (
            sum(doc["counters"].get("mem.mshr.mean_occupancy", 0) * doc["cycles"] for doc in docs) / cycles,
            "count",
        ),
        "frontend.mispredict_rate": (
            total("core.branch.mispredictions") / (total("core.branch.predictions") or 1),
            "ratio",
        ),
        "runahead.vr_episodes": (total("runahead.vr.vector_episodes"), "count"),
        "runahead.prefetches_issued": (total("mem.prefetch.issued.runahead"), "count"),
    }
    for tech in PREFETCHING:
        buckets = [
            (name, value)
            for doc in docs if doc["technique"] == tech
            for name, value in doc["counters"].items()
            if name.startswith("mem.prefetch.timeliness.")
        ]
        attempted = sum(value for _name, value in buckets)
        unused = sum(value for name, value in buckets if name.endswith(".Unused"))
        out[f"runahead.prefetch_used_share.{tech}"] = (
            1 - unused / attempted if attempted else 0.0, "ratio",
        )
    return out


def per_layer(tracer, rounds, untraced_wall: float) -> Dict:
    totals = layer_totals(tracer.all_roots())

    def get(span: str, field: str) -> float:
        return totals.get(span, {}).get(field, 0.0)

    traced_wall = sum(r.wall_s for r in rounds)
    out = {metric: (get(span, "self_s"), "s") for span, metric in LAYER_SELF.items()}
    # A build is reused when its (workload, input, size, seed) was
    # already built earlier in the same round.
    builds = sum(len(r.builds) for r in rounds)
    reused = builds - sum(len(set(r.builds)) for r in rounds)
    runs = sum(r.runs for r in rounds)
    serve = {name: sum(r.serve.get(name, 0) for r in rounds) for name in (
        "serve.cache_hits", "serve.coalesced", "serve.misses", "serve.failures")}
    accesses = get("memory.access", "calls")
    out.update({
        "workloads.build_calls": (builds, "count"),
        "workloads.build_reuse": (reused / builds if builds else 0.0, "ratio"),
        "perf.replay_share": (sum(r.replays for r in rounds) / runs if runs else 0.0, "ratio"),
        "experiments.cache_hit_ratio": (
            tracer.cache_hits / tracer.cache_gets if tracer.cache_gets else 0.0, "ratio",
        ),
        "experiments.cache_bytes_written": (sum(r.cache_bytes for r in rounds), "bytes"),
        "experiments.serve.hits": (serve["serve.cache_hits"], "count"),
        "experiments.serve.coalesced": (serve["serve.coalesced"], "count"),
        "experiments.serve.misses": (serve["serve.misses"], "count"),
        "experiments.serve.failures": (serve["serve.failures"], "count"),
        "core.run_s": (get("core.run", "total_s"), "s"),
        "core.host_ns_per_cycle": (
            1e9 * get("core.run", "self_s") / tracer.sim_cycles if tracer.sim_cycles else 0.0, "ns",
        ),
        "memory.accesses": (accesses, "count"),
        "memory.ns_per_access": (
            1e9 * get("memory.access", "self_s") / accesses if accesses else 0.0, "ns",
        ),
        "frontend.calls": (get("frontend.predict", "calls"), "count"),
    })
    out.update(simulated_counts(rounds))
    layer_self = sum(get(span, "self_s") for span in LAYER_SELF)
    out.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.remainder_s": (traced_wall - layer_self, "s"),
    })
    return out


# -- main ----------------------------------------------------------------------


def run_rounds(workload, seconds: float, count: int = 0, tracer=None):
    """Rounds until ``seconds`` have been measured (at least one), or
    exactly ``count`` rounds; serve-mix brackets them with /healthz."""
    rounds = []
    elapsed = 0.0
    with workload.measure_window() as window:
        # Without a count, stop before the round that would overrun.
        while (count and len(rounds) < count) or (
            not count and (not rounds or elapsed * (len(rounds) + 1) / len(rounds) <= seconds)
        ):
            first_build = len(tracer.builds) if tracer is not None else 0
            rounds.append(workload.round(len(rounds), tracer))
            elapsed += rounds[-1].wall_s
            if tracer is not None:
                rounds[-1].builds = tracer.builds[first_build:]
    rounds[-1].serve = window.serve
    rounds[-1].cache_bytes += window.cache_bytes
    return rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-test")
    parser.add_argument("--inject", choices=("none", "corrupt", "short"), default="none",
                        help="plant a bad result to prove the gate catches it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import loads
    from repro import validate_stats
    from repro.errors import ReproError

    if args.workload not in loads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(loads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    workload = loads.WORKLOADS[args.workload](loads.SCALES[args.scale], args.seed, tmp)
    report: Dict = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                    "trace": args.trace, "calibration_s": {"before": calibrate()}}
    try:
        setups = []
        import_s = import_seconds()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        report["setup_s"] = {"import": import_s, "workload": setups}

        if args.trace:
            untraced = run_rounds(workload, args.seconds / 2)
            tracer = Tracer()
            with tracer:
                rounds = run_rounds(workload, 0, count=len(untraced), tracer=tracer)
            checked = untraced + rounds
        else:
            rounds = checked = run_rounds(workload, args.seconds)
        # Peak RSS of set-up plus the measured rounds, before the gate's
        # audit and serial re-runs add their own allocations.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["calibration_s"]["after"] = calibrate()

        # -- the correctness gate, outside the timed window ---------------
        if args.inject != "none":
            inject(checked, args.inject)
        violations, failed = gate(checked, validate_stats, ReproError)
        violations += workload.probe(checked)
        digests = sorted({digest(r) for r in (checked if workload.repeats else checked[:1])})
        if len(digests) > 1:
            violations.append(f"rounds disagree: {len(digests)} distinct digests")
        for spec in workload.audit_specs(AUDIT_SAMPLE):
            try:
                loads.run_simulation(spec, audit=True)
            except ReproError as exc:
                violations.append(f"audit {spec.workload}/{spec.technique}: {exc}")
        hmeans = workload.hmeans(checked)

        if args.trace:
            metrics = per_layer(tracer, rounds, sum(r.wall_s for r in untraced))
            report["spans"] = tracer.payload()
        else:
            metrics = end_to_end(rounds, setup_s, peak_rss_mb, hmeans, loads.PAPER_HMEAN)
    finally:
        workload.close()
        for child in multiprocessing.active_children():
            child.join(30)
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(r.ops) for r in checked)
    correct = not violations
    report.update({
        "rounds": len(rounds),
        "digest": digests[0][0],
        "documents": digests[0][1],
        "hmean": hmeans,
        "paper_hmean": loads.PAPER_HMEAN,
        "violations": violations,
        "failed_operations": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} rounds={len(rounds)}")
    print(f"  calibration loop: {report['calibration_s']['before']:.4f} s before, "
          f"{report['calibration_s']['after']:.4f} s after (host drift, not a metric)")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("sim.") and name.endswith("_hmean_err"):
            tech = name[4:-10]
            note = (f"   measured h-mean {hmeans[tech]:.4f}x vs paper {loads.PAPER_HMEAN[tech]}x;"
                    " no other reference results exist, so the model is otherwise unvalidated")
        print(f"  {name:<{width}} {value:.6g} {unit}{note}")
    if not args.trace:
        ops = [op for r in rounds for op in r.ops]
        print(f"  latency samples: {len(ops)} operations, "
              f"{sum(op.simulated for op in ops)} simulated")
    print(f"  digest {digests[0][0]} over {digests[0][1]} repro.stats/1 documents")
    print(f"  operations: attempted={attempted} failed={len(failed)}")
    for line in failed[:12]:
        print(f"    failed: {line}")
    if len(failed) > 12:
        print(f"    ... {len(failed) - 12} more in {path.relative_to(ROOT)}")
    for line in violations:
        print(f"  VIOLATION: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
