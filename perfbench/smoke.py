#!/usr/bin/env python3
"""Smoke test of the benchmark's own code on tiny inputs.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json once untraced and once traced, with
reduced inputs (run.py --tiny), and checks the output contract: exit code
0, a last line with exactly correct/attempted/failed/metrics, every run
correct, every end-to-end metric printed by name with its unit, and every
per-layer metric of BENCHMARK.json reported by the traced run. Exits 1 and
names each failure otherwise. Takes about half a minute.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload: str, trace: int):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)


def check(workload: str, trace: int, wanted: dict) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: last line keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None or got.get("unit") != unit:
            errors.append(f"{where}: metric {name} [{unit}] missing, got {got}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: metric {name} value {got.get('value')!r}")
        printed = re.compile(rf"^{re.escape(name)} = \S+ {re.escape(unit)}(\s|$)")
        if not any(printed.match(line) for line in lines[:-1]):
            errors.append(f"{where}: no line prints {name} with unit {unit}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        errors += check(workload, 0, end_to_end)
        errors += check(workload, 1, per_layer)
    for error in errors:
        print("FAIL " + error)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
