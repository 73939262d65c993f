"""One isolated benchmark process: import ``segreode`` from the checkout,
build a workload's inputs, optionally run the pipeline once, and print one
JSON line with what it measured.

    python3 perfbench/worker.py MODE WORKLOAD T0

MODE is ``setup`` (stop before the pipeline), ``run`` (one untraced
pipeline run), ``traced`` (one run under spans) or ``kernels`` (series
kernel timings).  T0 is the parent's ``time.monotonic()`` just before it
started this process; the monotonic clock is shared by all processes, so
``setup_s`` covers interpreter start, imports and input building.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ARTIFACTS = ("psi", "rho", "chi", "tau")


def _import_package():
    """Import segreode from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import segreode

    origin = os.path.dirname(os.path.abspath(segreode.__file__))
    if origin != os.path.join(SRC, "segreode"):
        raise ImportError(f"segreode imported from {origin}, not {SRC}")


def serialise(report) -> str:
    """The report text exactly as ``cli.emit`` writes it."""
    from segreode.cli import _round_floats

    return json.dumps(_round_floats(report), indent=2, sort_keys=True)


def tally(report) -> dict:
    """Checks attempted (pass true or false) and failed (pass false or an
    error); ``"pass": null`` is not applicable."""
    attempted = failed = skipped = 0
    for run in report["runs"]:
        for entry in run["checks"].values():
            if entry.get("pass") is None and "error" not in entry:
                skipped += 1
                continue
            attempted += 1
            if entry.get("pass") is not True or "error" in entry:
                failed += 1
    return {"attempted": attempted, "failed": failed, "skipped": skipped}


def _bits(series) -> tuple:
    cells = series.coeffs if hasattr(series, "coeffs") else [
        c for row in series.rows for c in row]
    num = max((max(abs(c.a), abs(c.b)).bit_length() for c in cells), default=0)
    den = max((c.d.bit_length() for c in cells), default=0)
    return num, den


def coefficient_heights(contexts) -> dict:
    """Largest numerator and denominator bit length of psi, rho, chi and tau
    over every family the run built (rho includes the beta = 0 member's)."""
    heights = {f"{art}.{part}": 0
               for art in ARTIFACTS for part in ("num", "den")}
    for ctx in contexts:
        memo = ctx._cache
        found = []
        if "family" in memo:
            found.append(("psi", memo["family"].psi))
        for key in ("hyper", "zero_hyper"):
            if key in memo:
                found.append(("rho", memo[key].rho))
        if "chi_tau" in memo:
            found += [("chi", memo["chi_tau"].f), ("tau", memo["chi_tau"].g)]
        for art, series in found:
            num, den = _bits(series)
            heights[f"{art}.num"] = max(heights[f"{art}.num"], num)
            heights[f"{art}.den"] = max(heights[f"{art}.den"], den)
    return heights


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> dict:
    mode, workload, t0 = argv[0], argv[1], float(argv[2])
    _import_package()
    import workloads
    from segreode import cli

    spec = workloads.inputs(workload)
    cfg = workloads.run_config(spec)
    setup_s = time.monotonic() - t0
    out = {"mode": mode, "setup_s": setup_s}
    if mode == "setup":
        return out
    if mode == "kernels":
        import kernels

        out["kernels"] = kernels.measure()
        return out

    tracer = contexts = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
        contexts = spans.track_contexts()
    elif mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")

    start = time.perf_counter()
    report, _code = cli.run_pipeline(cfg)
    text = serialise(report)
    out["run_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = peak_rss_mb()
    out["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    out["tally"] = tally(report)
    out["inputs_reproduce"] = workloads.inputs(workload) == spec

    if tracer is not None:
        out["calls"] = dict(tracer.calls)
        out["self_s"] = {k: v / 1e9 for k, v in tracer.self_ns.items()}
        out["cells"] = dict(tracer.cells)
        out["spans"] = len(tracer.spans)
        out["max_bits"] = coefficient_heights(contexts)
        spans_dir = os.path.join(HERE, "out")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.dump(os.path.join(spans_dir, f"spans-{workload}.jsonl"),
                    {"workload": workload, "digest": out["digest"],
                     "columns": ["index", "name", "start_ns", "end_ns",
                                 "parent"]})
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
