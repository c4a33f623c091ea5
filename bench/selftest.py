"""Self-test of the benchmark harness.

    python3 bench/selftest.py

It checks that small traced ops give exact call counts, that two traced
runs at one seed give identical counts, that every metric a run reports is
the one ``BENCHMARK.json`` names, that each workload's check rejects a
corrupted output, and that tracing leaves nothing wrapped.  It imports
``pqlucas`` from the checkout's ``src/`` and takes a few seconds.
Exit code 0 when every test passes.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import traceback

import worker

SEED = 11


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def traced_calls(argv: tuple[str, ...]):
    from tracer import Tracer
    from workloads import run_call

    tracer = Tracer()
    tracer.install()
    try:
        code, text = run_call(("cli", argv))
    finally:
        tracer.uninstall()
    expect(code == 0, f"{argv[0]} exited {code}")
    return tracer, text


def test_exact_counts() -> None:
    tracer, text = traced_calls(
        ("bounds", "--lambda=1:2:2", "--mu=0:1:3", "--x=0:1:2", "--upsilon=0:2:2")
    )
    rows = len(text.splitlines()) - 1
    expect(rows == 24, f"bounds printed {rows} rows, not 24")
    expect(tracer.calls["bounds.bound_a2"] == rows, "bounds.bound_a2.calls != rows")

    draws = 3
    tracer, _ = traced_calls(("verify", f"--draws={draws}", "--grid-n=5"))
    expect(tracer.calls["oracle.sweep_max"] == 3 * draws, "oracle.sweep_max.calls != 3 x draws")
    expect(tracer.grid_points == 3 * draws * 5**3, "oracle.grid_points != sum of grid_n^3")

    tracer, _ = traced_calls(("operator", "--seed=4", f"--draws={draws}"))
    expect(tracer.calls["series.revert_series"] == draws, "series.revert_series.calls != draws")


def test_aliases_rebound() -> None:
    from tracer import Tracer, installed_wrappers

    tracer = Tracer()
    tracer.install()
    try:
        wrapped = set(installed_wrappers())
    finally:
        tracer.uninstall()
    for name in ("pqlucas.bounds.bound_a2", "pqlucas.cli.bound_a2", "pqlucas.bound_a2",
                 "pqlucas.bioperator.revert_series", "pqlucas.cli.verify_bounds"):
        expect(name in wrapped, f"{name} is not rebound while tracing")
    expect(installed_wrappers() == [], "wrappers left installed after uninstall")


def test_runs_per_workload() -> None:
    with open(worker.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    from workloads import WORKLOADS

    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workload names")
    for name in WORKLOADS:
        workload, ops = worker.setup(name, SEED)
        timed = worker.timed_run(workload, SEED, 0.0, ops, min_ops=2)
        expect(timed["failed"] == 0, f"{name}: timed run failed: {timed['failures']}")
        expect(set(timed["metrics"]) | {"setup_s"} == end_to_end, f"{name}: end-to-end names")
        first = worker.traced_run(workload, ops[:2])
        second = worker.traced_run(workload, ops[:2])
        for result in (first, second):
            expect(result["failed"] == 0, f"{name}: traced run failed: {result['failures']}")
        expect(set(first["metrics"]) == per_layer, f"{name}: per-layer names")
        counts = [
            {k: v for k, v in r["metrics"].items() if not k.endswith(("_s", "overhead_ratio"))}
            for r in (first, second)
        ]
        expect(counts[0] == counts[1], f"{name}: traced counts differ between runs")
        expect(first["digest"] == second["digest"], f"{name}: output digest differs between runs")


def _corruptions(name: str, outputs: list) -> list[list]:
    """Outputs that each break one property the workload's check asserts."""
    if name == "verify":
        (code, text), = outputs
        return [[(1, text)], [(code, text.replace("RESULT: PASS", "RESULT: FAIL"))]]
    if name == "table":
        (c1, bounds), (c2, fekete), lucas = outputs
        lines = bounds.split("\r\n")
        short = "\r\n".join(lines[:-2] + lines[-1:])
        rows = list(csv.reader(io.StringIO(bounds, newline="")))
        rows[1][8] = "nan"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows(rows)
        with_nan = buf.getvalue()
        payload = json.loads(fekete)
        for row in payload["rows"]:
            if row["x"] == 0.5:
                row["bound_a2"] = 1.0
        finite = json.dumps(payload)
        return [
            [(c1, short), (c2, fekete), lucas],
            [(c1, with_nan), (c2, fekete), lucas],
            [(c1, bounds), (c2, finite), lucas],
        ]
    if name == "operator":
        (c1, identities), (c2, member) = outputs
        failing = json.loads(identities)
        failing["all_pass"] = False
        flipped = json.loads(member)
        flipped["pass"] = not flipped["pass"]
        short = json.loads(member)
        short["n_points"] -= 1
        return [
            [(c1, json.dumps(failing)), (c2, member)],
            [(c1, identities), (c2, json.dumps(flipped))],
            [(c1, identities), (c2, json.dumps(short))],
        ]
    (code, coeffs), = outputs
    perturbed = list(coeffs)
    perturbed[5] += 1e-6
    return [[(code, tuple(perturbed))]]


def test_checks_reject_bad_output() -> None:
    from workloads import WORKLOADS, CheckError, execute

    for name, workload in WORKLOADS.items():
        op = workload.make(SEED, 0)
        outputs = execute(op)
        workload.check(op, outputs)
        for i, bad in enumerate(_corruptions(name, outputs)):
            try:
                workload.check(op, bad)
            except CheckError:
                continue
            raise SelfTestError(f"{name}: check accepted corrupted output {i}")


def main() -> int:
    worker.setup("verify", SEED)  # puts src/ on the path
    failures = 0
    for test in (test_exact_counts, test_aliases_rebound, test_checks_reject_bad_output,
                 test_runs_per_workload):
        try:
            test()
        except Exception:
            failures += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
