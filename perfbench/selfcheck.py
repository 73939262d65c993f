"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload:
  * two traced runs give exactly the same counts (calls, cells, spans and
    coefficient heights);
  * the traced and untraced reports both have the reference digest;
  * its inputs are the same in two interpreters started with different
    hash seeds.
And BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 when any of these fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import run
import workloads

def _inputs_in_subprocess(hash_seed: str) -> str:
    code = (
        "import workloads\n"
        "print(repr([workloads.inputs(w) for w in workloads.WORKLOADS]))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                          env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    return proc.stdout


def check_inputs() -> list:
    if _inputs_in_subprocess("1") != _inputs_in_subprocess("2"):
        return ["inputs depend on the interpreter's hash seed"]
    return []


def check_metric_names() -> list:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for key, emitted in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in bench[key]]
        if declared != list(emitted):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    declared = [w["name"] for w in bench["workloads"]]
    if declared != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def check_traced(workload: str) -> list:
    deadline = time.monotonic() + 600
    plain = run.spawn("run", workload, deadline)
    first = run.spawn("traced", workload, deadline)
    second = run.spawn("traced", workload, deadline)
    problems = []
    expected = workloads.REFERENCE_DIGEST[workload]
    for label, result in (("untraced", plain), ("traced", first),
                          ("second traced", second)):
        if result["digest"] != expected:
            problems.append(f"{workload}: {label} report digest "
                            f"{result['digest'][:12]} is not the reference")
        if result["tally"]["failed"]:
            problems.append(f"{workload}: {label} run failed checks")
    for key in ("calls", "cells", "spans", "max_bits"):
        if first[key] != second[key]:
            problems.append(f"{workload}: traced {key} differ between runs")
    print(f"{workload}: {first['spans']} spans, "
          f"series.mul2.calls = {first['calls'].get('series.mul2', 0)}")
    return problems


def main() -> int:
    problems = check_metric_names() + check_inputs()
    for workload in workloads.WORKLOADS:
        problems += check_traced(workload)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
