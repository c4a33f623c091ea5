"""One benchmark run in a fresh interpreter; started by ``bench/run.py``.

The worker imports ``pqlucas`` from the checkout's ``src/``, builds the
seeded op specs, writes ``ready`` to stdout (the parent times set-up up to
that line) and then runs one closed loop: a single caller issues the next
op only after the previous one returned.  Its last stdout line is a JSON
result for the parent.

``--trace 0`` runs ops until ``--seconds`` of op time have passed and at
least ``MIN_OPS`` ops ran, so the 90th percentile has ten samples beyond
it.  ``--trace 1`` runs the workload's fixed op count, each op once
untraced and once traced, so every ``.calls`` count is exact for a seed.

Machine-speed calibration.  On a shared host the same op can take twice as
long for minutes at a time, and a 25 s run cannot average that away.  A
fixed kernel of small numpy and Python work (:func:`probe`) slows down in
proportion, so the timed loop runs it between consecutive ops and rescales
each op's wall time by ``REFERENCE_PROBE_S`` over the mean of the probes
on either side.  End-to-end times are therefore seconds on a machine where
the kernel takes ``REFERENCE_PROBE_S``; the raw wall-clock figures are
reported next to them.  The kernel does not touch ``pqlucas``, so a change
to the package moves the rescaled times exactly as it moves wall time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100
# The probe's time on an unloaded 2.0 GHz vCPU (Python 3.11, numpy 2.4):
# only a unit scale, so that rescaled times read close to wall seconds.
REFERENCE_PROBE_S = 0.005
PROBE_ROUNDS = 200
# Stop a timed loop here even short of MIN_OPS, so a run ends within 180 s.
MAX_LOOP_S = 120.0
MAX_REPORTED_FAILURES = 5


def probe() -> float:
    """Seconds taken by a fixed calibration kernel that does not use pqlucas."""
    import numpy as np

    axis = np.linspace(-1.0, 1.0, 41)
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        r, s = np.meshgrid(axis, axis, indexing="ij")
        float(np.max(np.abs(0.3 * r + s)))
    return time.perf_counter() - start


def _percentile_90(ordered: list[float]) -> float:
    """Nearest-rank 90th percentile; with 100 samples, ten lie beyond it."""
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def timed_run(workload, seed: int, seconds: float, ops: list, min_ops: int = MIN_OPS) -> dict:
    from workloads import digest_bytes, execute

    execute(ops[0])  # warm-up: lazy imports and first-call set-up stay untimed
    gc.collect()
    probes = [probe()]
    durations: list[float] = []
    items = failed = 0
    failures: list[str] = []
    digest = hashlib.sha256()
    loop_start = time.perf_counter()
    busy = 0.0
    index = 0
    while (busy < seconds or index < min_ops) and time.perf_counter() - loop_start < MAX_LOOP_S:
        op = ops[index] if index < len(ops) else workload.make(seed, index)
        start = time.perf_counter()
        try:
            outputs, error = execute(op), None
        except Exception as exc:  # an uncaught error from the package fails the op
            outputs, error = None, f"op {index} raised {exc!r}"
        elapsed = time.perf_counter() - start
        probes.append(probe())
        busy += elapsed
        durations.append(elapsed)
        if outputs is not None:
            try:
                workload.check(op, outputs)
                items += op.items
            except Exception as exc:  # malformed output fails the op, not the run
                error = f"op {index}: {exc!r}"
            if index < workload.fixed_ops:
                digest.update(digest_bytes(outputs))
        if error is not None:
            failed += 1
            failures.append(error)
        index += 1

    attempted = len(durations)
    scaled = [
        d * REFERENCE_PROBE_S / ((before + after) / 2.0)
        for d, before, after in zip(durations, probes, probes[1:])
    ]
    ordered, raw = sorted(scaled), sorted(durations)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "digest": digest.hexdigest(),
        "digest_ops": min(attempted, workload.fixed_ops),
        "metrics": {
            "items_per_s": items / sum(scaled),
            "op_p50_s": statistics.median(ordered),
            "op_p90_s": _percentile_90(ordered),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        },
        "raw": {
            "items_per_s": items / busy,
            "op_p50_s": statistics.median(raw),
            "op_p90_s": _percentile_90(raw),
            "probe_s": statistics.median(probes),
        },
    }


def traced_run(workload, ops: list) -> dict:
    from tracer import Tracer, installed_wrappers
    from workloads import digest_bytes, execute

    tracer = Tracer()
    execute(ops[0])
    gc.collect()
    untraced_s = traced_s = 0.0
    rows = cli_bytes = failed = 0
    failures: list[str] = []
    digest = hashlib.sha256()
    for index, op in enumerate(ops):
        try:
            start = time.perf_counter()
            outputs = execute(op)
            untraced_s += time.perf_counter() - start
            tracer.install()
            try:
                start = time.perf_counter()
                traced = execute(op)
                traced_s += time.perf_counter() - start
            finally:
                tracer.uninstall()
            if traced != outputs:
                raise RuntimeError("tracing changed the op's output")
            rows += workload.check(op, outputs)
        except Exception as exc:
            failed += 1
            failures.append(f"op {index}: {exc!r}")
            continue
        digest.update(digest_bytes(outputs))
        cli_bytes += sum(len(out.encode()) for _, out in outputs if isinstance(out, str))
    leftover = installed_wrappers()
    if leftover:
        failed += 1
        failures.append(f"wrappers left installed: {leftover[:3]}")

    metrics = tracer.metrics()
    # theta calls per printed table row (1 at best); 0 where no table is printed.
    metrics["bounds.theta_per_row"] = metrics["bounds.theta.calls"] / rows if rows else 0.0
    metrics["cli.output_bytes"] = cli_bytes
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return {
        "attempted": len(ops),
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "digest": digest.hexdigest(),
        "digest_ops": len(ops),
        "bindings": tracer.binding_count,
        "metrics": metrics,
    }


def setup(name: str, seed: int) -> tuple:
    """Import the package and generate the seeded inputs of one run."""
    sys.path.insert(0, str(SRC))
    import pqlucas

    if Path(pqlucas.__file__).resolve().parent != SRC / "pqlucas":
        raise ImportError(f"pqlucas imported from {pqlucas.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = [workload.make(seed, i) for i in range(max(MIN_OPS, workload.fixed_ops))]
    return workload, ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload, ops = setup(args.workload, args.seed)
    print("ready", flush=True)
    setup_probe_s = statistics.median(probe() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_probe_s": setup_probe_s}), flush=True)
        return 0

    from tracer import installed_wrappers

    if installed_wrappers():
        raise RuntimeError("a pqlucas function is wrapped before the run")
    if args.trace:
        result = traced_run(workload, ops[: workload.fixed_ops])
    else:
        result = timed_run(workload, args.seed, args.seconds, ops)
        if installed_wrappers():
            raise RuntimeError("a pqlucas function was wrapped during an untraced run")
    import numpy

    result["numpy"] = numpy.__version__
    result["setup_probe_s"] = setup_probe_s
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
