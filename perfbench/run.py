"""segreode benchmark: end-to-end run time of the verification pipeline, and
per-module numbers from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; ``segreode`` is imported from the
checkout's ``src/``.  The loop is closed with one caller: each pipeline run
is one fresh worker process (``worker.py``, one thread, ``jobs = 1``), and
the next starts only after the previous has exited.  A fresh process per
run is deliberate: in one long-lived process the same run got faster with
its position (three back-to-back grid runs read 18.8, 17.2 and 14.5 s), so
every sample here is the first run of its process, as with ``segreode run``.

--trace 0 prints the end-to-end metrics:
  run_s        median wall seconds of run_pipeline(cfg) plus serialising the
               report as cli.emit does, over the runs that fit in S seconds
  setup_s      median wall seconds from interpreter start to the first
               run_pipeline call (imports and input building), over
               SETUP_PROBES set-up-only processes and every run's process
  peak_rss_mb  median peak resident memory of the processes that ran it
--trace 1 prints the per-layer metrics: an untraced run, a traced run whose
report must equal it byte for byte, and a kernel-timing process.

Every workload's inputs are fixed (see workloads.py): --seed is accepted and
printed but changes nothing.  Every report is checked: a check with
"pass": false or an error fails, and a report whose sha256 differs from the
workload's reference counts every check in it as failed.  The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 only when no check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import kernels  # noqa: E402
import workloads  # noqa: E402
from worker import ARTIFACTS  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0

STAGES = ("ode", "family", "hyper", "zero_hyper", "solutions", "chi_tau")
CHECKS = ("roundtrip", "reality", "realty", "map", "coupled", "selfmap",
          "monodromy", "tangency", "model0", "growth")
LAYERS = ("series", "ode", "segre", "equiv", "autovec", "monodromy",
          "growth", "cli")
SELF_S = (
    [f"cli.stage.{s}" for s in STAGES]
    + [f"cli.check.{c}" for c in CHECKS]
    + [f"segre.{f}" for f in ("solve_psi", "build_rho", "extract_pq",
                              "dual_family", "realty_identity_check",
                              "real_normal_form")]
    + [f"series.{f}" for f in ("mul2", "substitute_y", "compose2", "compose",
                               "mul1", "divide", "exp1", "log1",
                               "pow_frac1")]
    + [f"equiv.{f}" for f in ("formal_solutions", "build_chi_tau",
                              "coupled_map_g", "verify_map_on_hypersurface",
                              "self_map_probe")]
    + ["ode.pullback_under_gauge", "ode.check_real_structure",
       "autovec.tangency_check", "autovec.explicit_model",
       "monodromy.numeric_monodromy", "growth.gevrey_estimate",
       "growth.termination_detect"]
)
CALLS = ("series.mul2", "series.exp2", "series.log2", "series.substitute_y",
         "series.compose", "series.mul1", "ode.pullback_under_gauge")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_S]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [("series.mul2.cells", "count"), ("coefficients.cells_out", "count")]
    + [(f"coefficients.max_bits.{art}.{part}", "bits")
       for art in ARTIFACTS for part in ("num", "den")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace.untraced_run_s", "s"),
       ("trace.traced_run_s", "s"), ("trace.overhead", "ratio")]
    + [(name, "ms") for name in kernels.names()]
)


class WorkerFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise WorkerFailed(f"no time left for a {mode} worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, workload, repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerFailed(
            f"{mode} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


class Gate:
    """Counts checks attempted and failed over every report of one
    invocation, and compares each report with the expected digest."""

    def __init__(self, workload: str):
        self.expected = workloads.REFERENCE_DIGEST[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: list = []

    def add(self, result: dict) -> None:
        tally = result["tally"]
        digest = result["digest"]
        self.digests.append(digest)
        if digest != self.expected:
            every = tally["attempted"] + tally["skipped"]
            self.attempted += every
            self.failed += every
            self.problems.append(f"report digest {digest[:12]} differs from "
                                 f"{self.expected[:12]}")
        else:
            self.attempted += tally["attempted"]
            self.failed += tally["failed"]
        if not result["inputs_reproduce"]:
            self.problems.append("inputs differ when built again")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0


def run_timed(workload: str, seconds: int, gate: Gate,
              deadline: float) -> dict:
    spawn("setup", workload, deadline)  # fills the bytecode caches
    setups = [spawn("setup", workload, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    runs = []
    start = time.monotonic()
    while True:
        result = spawn("run", workload, deadline)
        gate.add(result)
        runs.append(result)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(runs) > seconds:
            break
    setups += [r["setup_s"] for r in runs]
    run_s = [r["run_s"] for r in runs]
    print(f"run_s samples ({len(run_s)}): "
          + " ".join(f"{v:.4f}" for v in run_s))
    print(f"setup_s samples ({len(setups)}): "
          + " ".join(f"{v:.4f}" for v in setups))
    q = 100 * (len(run_s) - 10) // len(run_s)
    if q > 50:
        tail = statistics.quantiles(run_s, n=100)[q - 1]
        print(f"run_s p{q} = {tail} s (ten of {len(run_s)} samples beyond it)")
    else:
        print(f"run_s: median only; no percentile above it has ten of the "
              f"{len(run_s)} samples beyond it")
    return {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def run_traced(workload: str, gate: Gate, deadline: float) -> dict:
    spawn("setup", workload, deadline)  # fills the bytecode caches
    plain = spawn("run", workload, deadline)
    gate.add(plain)
    traced = spawn("traced", workload, deadline)
    gate.add(traced)
    if traced["digest"] != plain["digest"]:
        gate.problems.append("traced report differs from the untraced one")
    kern = spawn("kernels", workload, deadline)["kernels"]

    self_s, calls, cells = traced["self_s"], traced["calls"], traced["cells"]
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_S}
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    out["series.mul2.cells"] = cells.get("series.mul2", 0)
    out["coefficients.cells_out"] = sum(cells.values())
    out.update({f"coefficients.max_bits.{key}": bits
                for key, bits in traced["max_bits"].items()})
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + "."))
    out["trace.spans"] = traced["spans"]
    out["trace.untraced_run_s"] = plain["run_s"]
    out["trace.traced_run_s"] = traced["run_s"]
    out["trace.overhead"] = traced["run_s"] / plain["run_s"] - 1.0
    out.update(kern)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted and printed; the inputs are fixed")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "segreode", "cli.py")):
        print(f"error: no segreode sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    gate = Gate(args.workload)
    print(f"workload {args.workload}, seed {args.seed} (inputs are fixed)")
    try:
        if args.trace:
            values = run_traced(args.workload, gate, deadline)
            units = PER_LAYER
        else:
            values = run_timed(args.workload, args.seconds, gate, deadline)
            units = END_TO_END
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    for name, unit in units:
        print(f"{name} = {values[name]} {unit}")
    share = gate.failed / max(gate.attempted, 1)
    print(f"failed_share = {share} ({gate.failed} failed of {gate.attempted} "
          f"checks attempted)")
    print(f"report sha256: {sorted(set(gate.digests))}")
    for problem in gate.problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
