"""Self-test for the benchmark: every workload at tiny scale, both modes.

    python3 perfbench/selftest.py

Asserts that each run prints every metric ``BENCHMARK.json`` names, with
its unit, both in the report lines and in the final JSON line; that an
injected corrupt ``repro.stats/1`` document fails the correctness gate
(``correct`` false, non-zero exit); and that an injected short run is
counted as a failed operation. Exits non-zero on the first broken claim.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, trace: int, inject: str = "none"):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{proc.stderr}")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            code, report, result = bench(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and result["correct"], f"{label}: gate passes on good results")
            check(result["attempted"] >= 1, f"{label}: attempted={result['attempted']}")
            got = result["metrics"]
            check(sorted(got) == sorted(m["name"] for m in metrics),
                  f"{label}: JSON holds exactly the {len(metrics)} named metrics")
            for metric in metrics:
                name, unit = metric["name"], metric["unit"]
                check(got[name]["unit"] == unit, f"{label}: {name} in {unit}")
                check(any(line.split()[:1] == [name] and line.split()[2] == unit
                          for line in report if len(line.split()) >= 3),
                      f"{label}: report line for {name} with its unit")

    code, report, result = bench("fig7-cold", 0, inject="corrupt")
    check(code != 0 and not result["correct"], "corrupt stats document fails the gate")
    check(any("VIOLATION" in line for line in report), "the violation is printed")

    _code, _report, clean = bench("fig7-cold", 0)
    code, report, result = bench("fig7-cold", 0, inject="short")
    check(result["failed"] == clean["failed"] + 1,
          f"short run counted as failed ({clean['failed']} -> {result['failed']})")
    check(any("short run" in line for line in report), "the short run is printed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
