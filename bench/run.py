"""pqlucas benchmark: one seeded workload per run, end to end or traced.

    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout that holds ``src/pqlucas``; nothing is
installed.  Workloads are listed in ``BENCHMARK.json`` and defined in
``bench/workloads.py``.  Each run starts fresh worker interpreters
(``bench/worker.py``):

* ``--trace 0`` starts ``SETUP_SAMPLES - 1`` workers that only set up, then
  one that sets up and runs the timed closed loop.  ``setup_s`` is the
  median time from process start to the worker's ``ready`` line; the other
  end-to-end metrics come from the timed loop.  Times are rescaled by the
  machine-speed probe described in ``bench/worker.py``; the raw wall-clock
  figures are printed on the ``raw`` line.
* ``--trace 1`` starts one worker that runs a fixed op list untraced and
  traced and reports the per-layer metrics.

Lines before the last describe the run: metrics with units, the machine,
and ``output_sha256``, the digest of the fixed leading ops' outputs, which
two commits must share at one seed when output is meant to be unchanged.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units are those of
``BENCHMARK.json``.  Exit code 0 when that line is printed, 2 on bad usage
or a checkout without ``src/pqlucas``, 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import REFERENCE_PROBE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_SAMPLES = 5
# Every worker is killed at this point, so the run ends within 180 s.
DEADLINE_S = 170.0


class RunError(Exception):
    """A worker failed, timed out or reported metrics BENCHMARK.json lacks."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PQLUCAS_OUT_DIR", None)
    # One thread per worker: the loop is single-threaded and numpy's BLAS
    # pool would only add start-up time and noise.
    env.update(
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start one worker; returns (set-up seconds, the worker's JSON result)."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "ready\n" or code != 0:
        raise RunError(f"worker exited {code} ({'ready' if ready else 'before set-up ended'})")
    return setup_s, json.loads(rest.splitlines()[-1])


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="pqlucas benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "pqlucas" / "__init__.py").is_file():
        print(f"bench: error: no src/pqlucas under {ROOT}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + DEADLINE_S
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(_run_worker(args, deadline, setup_only=True))
        samples.append(_run_worker(args, deadline, setup_only=False))
        result = samples[-1][1]
        metrics = result["metrics"]
        if not args.trace:
            metrics["setup_s"] = statistics.median(
                s * REFERENCE_PROBE_S / r["setup_probe_s"] for s, r in samples
            )
            result["raw"]["setup_s"] = statistics.median(s for s, _ in samples)
        if set(metrics) != set(units):
            raise RunError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except (RunError, ValueError, IndexError, KeyError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1

    print(
        f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} ops={result['attempted']}"
    )
    print(
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={result['numpy']} git={_git_sha()}"
    )
    if args.trace:
        print(f"trace bindings={result['bindings']}")
    else:
        print("raw " + " ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    for name, unit in units.items():
        print(f"{name:<50} {metrics[name]:>14.6g} {unit}")
    print(f"output_sha256 {result['digest']} ops={result['digest_ops']}")
    for failure in result["failures"]:
        print(f"bench: failed {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
