"""trigjac benchmark: one workload, one process, one thread, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-g2 --seed 1 --seconds 15 --trace 0

The run sets the workload up SETUP_REPS times (each in a fresh cache
directory), then issues the workload's fixed operation set ("round") again and
again, the next operation only when the last has returned, until another
round would overrun ``--seconds``; at least one round always runs.  Every
operation's output is checked; a check that misses, a package error or any
other exception counts the operation as failed and the run goes on.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
``--trace 0``, the per-layer metrics of a traced run when ``--trace 1``.  The
lines before it print every metric by name and unit, plus ``failed_frac``,
the tail percentile and its sample count, the layer shares of a traced run
and the run's provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import PER_LAYER, Tracer, instrument, layer_metrics, layer_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "accuracy_margin_digits": "digits",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile that
    has at least ten samples beyond it.

    With n sorted samples the value of rank k has n - k samples above it, so
    the rank is n - 10.  Below 20 samples that rank falls under the median
    (or does not exist), which says nothing about the tail; the maximum is
    returned then, with percentile 100 and nothing beyond it.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0, 0
    k = n - 10
    return s[k - 1], 100.0 * k / n, n - k


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, deleted on exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_ops(ops, record, tracer=None) -> tuple[int, int]:
    """Issue ops one after another; returns (attempted, failed).

    ``record(op, seconds, margins, error)`` receives every outcome.  An
    exception never escapes: it is the operation's failure.
    """
    attempted = failed = 0
    for op in ops:
        attempted += 1
        t0 = time.perf_counter()
        sid = tracer.begin("op") if tracer is not None else None
        try:
            margins = op.run()
        except Exception as exc:  # the loop must survive any failing operation
            error = f"{type(exc).__name__}: {exc}"
            margins = []
            failed += 1
        else:
            error = None
        finally:
            if sid is not None:
                tracer.end(sid)
        record(op, time.perf_counter() - t0, margins, error)
    return attempted, failed


def measure(workload, seed: int, seconds: float, traced: bool,
            setup_reps: int = SETUP_REPS) -> dict:
    """Set up, run rounds for about ``seconds``, and collect the raw results."""
    tracers = (Tracer(), Tracer()) if traced else (None, None)

    def maybe_instrument(tracer):
        return instrument(tracer) if tracer is not None else contextlib.nullcontext()

    setup_times = []
    state = None
    with maybe_instrument(tracers[0]):
        for _ in range(setup_reps):
            with scratch_dir() as cache_dir:
                t0 = time.perf_counter()
                state = workload.setup(cache_dir)
                setup_times.append(time.perf_counter() - t0)

    latencies, margins, round_times, op_log = [], [], [], []

    def record(op, secs, op_margins, error):
        op_log.append([op.label, round(secs, 4), error])
        if error is None:
            latencies.append(secs)
            margins.extend(op_margins)

    attempted = failed = 0
    with maybe_instrument(tracers[1]):
        t_start = time.perf_counter()
        while True:
            ops = workload.round(state, seed, len(round_times), scratch_dir)
            t_round = time.perf_counter()
            a, f = run_ops(ops, record, tracers[1])
            round_times.append(time.perf_counter() - t_round)
            attempted += a
            failed += f
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.fmean(round_times) > seconds:
                break
    return {
        "setup_times": setup_times,
        "round_times": round_times,
        "latencies": latencies,
        "margins": margins,
        "attempted": attempted,
        "failed": failed,
        "op_log": op_log,
        "tracers": tracers,
    }


def end_to_end(raw: dict, import_s: float) -> tuple[dict, dict]:
    """End-to-end metrics plus the details printed next to them."""
    lat = raw["latencies"]
    busy = sum(raw["round_times"])
    finite = [m for m in raw["margins"] if math.isfinite(m)]
    tail, pct, beyond = tail_percentile(lat) if lat else (0.0, 100.0, 0)
    metrics = {
        "setup_s": import_s + statistics.median(raw["setup_times"]),
        "wall_s": statistics.median(raw["round_times"]),
        "ops_per_s": len(lat) / busy,
        "op_p50_s": statistics.median(lat) if lat else 0.0,
        "op_tail_s": tail,
        "accuracy_margin_digits": min(finite) if finite else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "failed_frac": raw["failed"] / raw["attempted"],
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(lat),
        "rounds": len(raw["round_times"]),
        "import_s": import_s,
        "setup_reps_s": raw["setup_times"],
        "ops": raw["op_log"],
    }
    return metrics, details


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(workload, seed: int, traced: bool) -> dict:
    import mpmath

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "precision": workload.precision,
        "seed": seed,
        "traced": traced,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "trigjac" / "__init__.py").is_file():
        print(f"perfbench: no trigjac sources under {src}", file=sys.stderr)
        return 2
    # compile from source on every run, so set-up time does not depend on
    # whether an earlier run left bytecode behind
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    raw = measure(workload, args.seed, args.seconds, traced)
    metrics, details = end_to_end(raw, import_s)

    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {END_TO_END_UNITS[name]}")
    print(f"failed_frac = {details['failed_frac']:.6g} "
          f"({raw['failed']} of {raw['attempted']} operations)")
    print(f"op_tail_s is p{details['op_tail_percentile']:.4g} with "
          f"{details['op_tail_samples_beyond']} of {details['op_samples']} samples beyond it")
    for label, _, error in raw["op_log"]:
        if error is not None:
            print(f"FAILED {label}: {error}")
    print("details " + json.dumps(details, sort_keys=True))
    print("provenance " + json.dumps(provenance(workload, args.seed, traced), sort_keys=True))

    if traced:
        setup_tracer, round_tracer = raw["tracers"]
        busy = sum(raw["round_times"])
        rounds = len(raw["round_times"])
        result = layer_metrics([
            (setup_tracer, sum(raw["setup_times"]), len(raw["setup_times"])),
            (round_tracer, busy, rounds),
        ])
        result["trace.wall_s"] = metrics["wall_s"]
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        for layer, secs in layer_seconds(round_tracer, busy).items():
            print(f"share {layer} = {secs / rounds:.6g} s per round, {100 * secs / busy:.4g}%")
        for name in sorted(result):
            print(f"{name} = {result[name]:.6g} {units[name]}")
    else:
        result, units = metrics, END_TO_END_UNITS

    out = {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
    }
    with contextlib.suppress(OSError):
        SCRATCH.rmdir()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
