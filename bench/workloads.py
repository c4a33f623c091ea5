"""The benchmark's workloads: seeded op specs, how an op runs, how it is checked.

Every op of a workload has the same shape; only seeds and parameter values
vary with ``(seed, index)``.  CLI ops call ``pqlucas.cli.main`` in process
with flags written ``--flag=value``: argparse reads a comma list that starts
with a minus (``--q -0.5,1``) as an option, so the separate form is refused.

Checks run outside the timed interval and raise :class:`CheckError`.  A
check returns the number of bounds/fekete table rows the op printed (the
denominator of ``bounds.theta_per_row``), 0 for workloads without tables.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pqlucas import cli, series

VERIFY_DRAWS = 8
VERIFY_GRID = 41

# bounds grid: lambda x mu x delta x x x upsilon steps.
BOUNDS_STEPS = (5, 5, 4, 2, 8)
BOUNDS_ROWS = math.prod(BOUNDS_STEPS)
FEKETE_X = (0.0, 0.25, 0.5, 0.75, 1.0)  # --x=0:1:5
FEKETE_UPSILON_STEPS = 31  # the fekete default 0:3:31
FEKETE_ROWS = len(FEKETE_X) * FEKETE_UPSILON_STEPS
LUCAS_K = 60
TABLE_COLUMNS = (
    "lambda", "mu", "delta", "x", "p", "q", "upsilon",
    "bound_a2", "bound_a3", "fs_bound", "regime", "flags",
)

OPERATOR_DRAWS = 30
MEMBER_MODES = ("operator", "starlike", "convex")
MEMBER_GRID_POINTS = 64 * 256  # the member default --radii x --angles

REVERT_ORDER = 30
REVERT_TOL = 1e-9


class CheckError(Exception):
    """An op's output failed its correctness check."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``calls`` holds ``("cli", argv)`` or ``("revert", coeffs, m)`` entries;
    ``items`` is the work the op completes, in the workload's item unit.
    """

    calls: tuple
    items: int


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, int], Op]
    check: Callable[[Op, list], int]
    # Ops in a traced run and in output_sha256; a timed run always covers them.
    fixed_ops: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, stream, index])


def run_call(call: tuple) -> tuple[int, object]:
    """Run one call through the package; returns ``(exit code, output)``."""
    if call[0] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(call[1]))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()
    _, coeffs, m = call
    return 0, series.revert_series(series.FunctionSpec(coeffs), m).coeffs


def execute(op: Op) -> list[tuple[int, object]]:
    return [run_call(call) for call in op.calls]


def digest_bytes(outputs: list[tuple[int, object]]) -> bytes:
    """The bytes of an op's outputs that ``output_sha256`` digests."""
    return b"".join(
        f"{code}\n".encode() + (out if isinstance(out, str) else repr(out)).encode()
        for code, out in outputs
    )


# ---------------------------------------------------------------- verify

def make_verify(seed: int, index: int) -> Op:
    rng = _rng(seed, 1, index)
    argv = (
        "verify",
        f"--draws={VERIFY_DRAWS}",
        f"--grid-n={VERIFY_GRID}",
        f"--seed={int(rng.integers(2**31))}",
        f"--mode={'paper' if index % 2 == 0 else 'schwarz'}",
    )
    return Op((("cli", argv),), VERIFY_DRAWS)


def check_verify(op: Op, outputs: list) -> int:
    code, text = outputs[0]
    _require(code == 0, f"verify exited {code}")
    _require(text.splitlines()[-1:] == ["RESULT: PASS"], "verify did not print RESULT: PASS")
    return 0


# ----------------------------------------------------------------- table

def make_table(seed: int, index: int) -> Op:
    rng = _rng(seed, 2, index)

    def u(lo: float, hi: float) -> float:
        return float(rng.uniform(lo, hi))

    n_lam, n_mu, n_delta, n_x, n_ups = BOUNDS_STEPS
    ups_lo = u(-1.0, 0.5)
    bounds = (
        "bounds",
        f"--lambda=1:{1.0 + u(0.5, 2.0)!r}:{n_lam}",
        f"--mu=0:{u(1.0, 3.0)!r}:{n_mu}",
        f"--delta=0:{u(0.5, 2.0)!r}:{n_delta}",
        f"--x=0:1:{n_x}",  # x = 0 gives p = 0 rows
        f"--upsilon={ups_lo!r}:{ups_lo + u(1.0, 3.0)!r}:{n_ups}",
    )
    # bistarlike gives theta = -4 q, and q(x) = x - 0.5 vanishes at x = 0.5.
    fekete = (
        "fekete",
        "--preset=bistarlike",
        "--q=-0.5,1",
        "--x=0:1:5",
        f"--p=0,{u(0.5, 2.0)!r}",
        "--format=json",
    )
    lucas = ("lucas", f"--k={LUCAS_K}", f"--x={u(0.2, 1.0)!r}")
    calls = (("cli", bounds), ("cli", fekete), ("cli", lucas))
    return Op(calls, BOUNDS_ROWS + FEKETE_ROWS + LUCAS_K + 1)


def _csv_rows(text: str, columns: tuple[str, ...]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    _require(bool(rows) and tuple(rows[0]) == columns, "unexpected CSV header")
    body = rows[1:]
    _require(all(len(r) == len(columns) for r in body), "ragged CSV row")
    _require(not any(v.lower() == "nan" for r in body for v in r), "nan in CSV output")
    return body


def check_table(op: Op, outputs: list) -> int:
    _require([code for code, _ in outputs] == [0, 0, 0], "table call exited nonzero")
    (_, bounds_text), (_, fekete_text), (_, lucas_text) = outputs

    rows = _csv_rows(bounds_text, TABLE_COLUMNS)
    _require(len(rows) == BOUNDS_ROWS, f"bounds printed {len(rows)} rows, not {BOUNDS_ROWS}")
    p_zero = [r for r in rows if float(r[3]) == 0.0]
    _require(len(p_zero) == BOUNDS_ROWS // BOUNDS_STEPS[3], "missing x = 0 rows")
    _require(
        all(r[10] == "degenerate" and float(r[7]) == 0.0 for r in p_zero),
        "p = 0 row not reported as a degenerate zero bound",
    )

    constants: list[str] = []
    payload = json.loads(fekete_text, parse_constant=lambda c: constants.append(c) or float(c))
    _require("NaN" not in constants, "NaN in fekete output")
    fek = payload["rows"]
    _require(len(fek) == FEKETE_ROWS, f"fekete printed {len(fek)} rows, not {FEKETE_ROWS}")
    _require(sorted({r["x"] for r in fek}) == list(FEKETE_X), "unexpected fekete x values")
    theta_zero = [r for r in fek if r["x"] == 0.5]
    _require(len(theta_zero) == FEKETE_UPSILON_STEPS, "missing theta = 0 rows")
    _require(
        all(r["regime"] == "degenerate" and r["bound_a2"] == math.inf for r in theta_zero),
        "theta = 0 row not reported as inf/degenerate",
    )

    lucas = _csv_rows(lucas_text, ("k", "lucas_recurrence", "lucas_series", "abs_diff"))
    _require(len(lucas) == LUCAS_K + 1, "lucas printed the wrong number of rows")
    return len(rows) + len(fek)


# -------------------------------------------------------------- operator

def make_operator(seed: int, index: int) -> Op:
    rng = _rng(seed, 3, index)
    identities = ("operator", f"--seed={int(rng.integers(2**31))}", f"--draws={OPERATOR_DRAWS}")
    coeffs = ",".join(repr(float(rng.uniform(-0.3, 0.3)) / k) for k in (2, 3, 4))
    member = ("member", f"--coeffs={coeffs}", f"--mode={MEMBER_MODES[index % 3]}")
    return Op((("cli", identities), ("cli", member)), OPERATOR_DRAWS)


def check_operator(op: Op, outputs: list) -> int:
    (code, text), (member_code, member_text) = outputs
    _require(code == 0, f"operator exited {code}")
    payload = json.loads(text)
    _require(payload["all_pass"] is True, "operator identities did not all pass")
    _require(len(payload["rows"]) == OPERATOR_DRAWS, "operator printed the wrong draw count")
    member = json.loads(member_text)
    _require(member_code in (0, 1), f"member exited {member_code}")
    _require(member["pass"] == (member_code == 0), "member pass disagrees with its exit code")
    _require(
        member["n_points"] + len(member["flagged_points"]) == MEMBER_GRID_POINTS,
        "member evaluated + flagged points do not cover the grid",
    )
    return 0


# ---------------------------------------------------------------- revert

def make_revert(seed: int, index: int) -> Op:
    rng = _rng(seed, 4, index)
    k = np.arange(2, REVERT_ORDER + 1)
    coeffs = tuple(float(v) for v in rng.uniform(-1.0, 1.0, k.size) / k**2)
    return Op((("revert", coeffs, REVERT_ORDER),), REVERT_ORDER - 1)


def check_revert(op: Op, outputs: list) -> int:
    """``g(f(z)) = z`` through order m, composed by numpy convolution."""
    _, coeffs, m = op.calls[0]
    g = np.asarray(outputs[0][1], dtype=complex)
    _require(g.shape == (m + 1,), "reversion returned the wrong order")
    f = np.zeros(m + 1)
    f[1] = 1.0
    f[2:] = coeffs
    composed = np.zeros(m + 1, dtype=complex)
    composed[0] = g[0]
    power = np.zeros(m + 1)
    power[0] = 1.0
    for k in range(1, m + 1):
        power = np.convolve(power, f)[: m + 1]
        composed += g[k] * power
    target = np.zeros(m + 1)
    target[1] = 1.0
    err = float(np.max(np.abs(composed - target)))
    _require(err <= REVERT_TOL, f"g(f(z)) - z = {err:.3g} exceeds {REVERT_TOL}")
    return 0


WORKLOADS: dict[str, Workload] = {
    "verify": Workload(make_verify, check_verify, fixed_ops=40),
    "table": Workload(make_table, check_table, fixed_ops=40),
    "operator": Workload(make_operator, check_operator, fixed_ops=120),
    "revert": Workload(make_revert, check_revert, fixed_ops=30),
}
