"""Command-line interface.

Subcommands: ``lucas`` (recurrence vs generating-series table), ``operator``
(pipeline vs closed-form coefficient residuals), ``member`` (sampled
real-part membership report), ``bounds`` / ``fekete`` (closed-form bound
sweeps as CSV or JSON), ``verify`` (randomized brute-force bound
verification).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.

Ranges are written ``start:stop:steps`` (or a single number), polynomials
as comma-separated ascending coefficients (``--p 0,1`` is ``p(x) = x``).
``--config FILE`` supplies ``key=value`` values for any long flag (dest names,
``-`` and ``_`` interchangeable), read as the command's own flags ahead of the
typed ones, which win; a key no subcommand takes is a usage error.  A relative
``--out`` path resolves against ``$PQLUCAS_OUT_DIR`` when that is set.
CSV uses RFC-4180-style CRLF rows; JSON tables are one object with a
``rows`` array.  Seeded commands are byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import statistics
import sys
from collections.abc import Callable, Sequence
from itertools import chain, product

import numpy as np

from .bioperator import (
    MEMBERSHIP_MODES,
    ClassParams,
    DiskGrid,
    check_membership_realpart,
    extract_coefficient_identities,
)
from .bounds import (
    FLAG_SETS,
    PRESET_PINS,
    REGIMES,
    BoundArrays,
    BoundInputs,
    bound_arrays,
)
from .lucas import PolyPair, generating_series, lucas_sequence
from .oracle import FUNCTIONALS, MODES, draw_rows, random_inputs, verify_bounds
from .series import FunctionSpec, eval_poly

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

OUT_DIR_ENV = "PQLUCAS_OUT_DIR"

TABLE_COLUMNS = (
    "lambda",
    "mu",
    "delta",
    "x",
    "p",
    "q",
    "upsilon",
    "bound_a2",
    "bound_a3",
    "fs_bound",
    "regime",
    "flags",
)


def _poly_type(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed polynomial {text!r}: expected comma-separated numbers"
        ) from None


def _range_type(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            steps = int(parts[2])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed range {text!r}: expected NUMBER or START:STOP:STEPS"
        ) from None
    if steps < 1:
        raise argparse.ArgumentTypeError("range steps must be >= 1")
    if stop < start:
        raise argparse.ArgumentTypeError("range stop must be >= start")
    if not math.isfinite(stop - start):
        raise argparse.ArgumentTypeError("range span must be finite")
    if steps == 1:
        return (start,)
    try:
        return tuple(float(v) for v in np.linspace(start, stop, steps))
    except MemoryError:
        raise argparse.ArgumentTypeError(f"range of {steps} steps does not fit in memory") from None


def _int_at_least(low: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"value must be >= {low}")
        return value

    convert.__name__ = "int"  # argparse names it in "invalid int value: 'abc'"
    return convert


def _not_nan(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError("value must not be nan")
    return value


_not_nan.__name__ = "float"  # argparse names it in "invalid float value: 'abc'"


def _emit(text: str, out: str | None, passed: bool = True) -> int:
    """Write the output, then exit 0 on a pass and 1 on a failed check."""
    if out is None:
        sys.stdout.write(text)
    else:
        base = os.environ.get(OUT_DIR_ENV)
        path = os.path.join(base, out) if base and not os.path.isabs(out) else out
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _table_text(fmt: str, columns: tuple[str, ...], rows: list[Sequence]) -> str:
    """A JSON object with a ``rows`` array, or CSV text with CRLF rows.

    CSV cells are already text (``str`` of ints and Python floats), and the
    bytes are what ``csv.writer`` gives for them.  None needs quoting:
    numbers, regime tags and flag texts hold no comma, quote or line break.
    """
    if fmt == "json":
        return _json_text({"rows": [dict(zip(columns, row)) for row in rows]})
    return "".join(",".join(row) + "\r\n" for row in chain((columns,), rows))


# ----------------------------------------------------------------- lucas

def cmd_lucas(ns: argparse.Namespace) -> int:
    pair = PolyPair(ns.p, ns.q, ns.x)
    seq = lucas_sequence(pair, ns.k)
    gen = generating_series(pair, ns.k)
    rows = []
    for k in range(ns.k + 1):
        rec = seq.values[k]
        ser = gen.coefficient(k)
        if not (math.isfinite(rec) and math.isfinite(ser)):
            raise ValueError(f"L_{k} must be finite: p(x) or q(x) is too large")
        rows.append([k, rec, ser, abs(rec - ser)])
    passed = max(row[3] for row in rows) <= ns.tol
    if ns.format == "csv":
        rows = [[str(v) for v in row] for row in rows]
    columns = ("k", "lucas_recurrence", "lucas_series", "abs_diff")
    return _emit(_table_text(ns.format, columns, rows), ns.out, passed)


# -------------------------------------------------------------- operator

def _identity_payload(params: ClassParams, f: FunctionSpec, tol: float) -> dict:
    report = extract_coefficient_identities(params, f)
    if not all(math.isfinite(v) for v in report.pipeline + report.closed_form):
        raise ValueError(
            "operator coefficients must be finite: a2, a3, lambda, mu or delta is too large"
        )
    return {
        "lambda": params.lam,
        "mu": params.mu,
        "delta": params.delta,
        "a2": f.coefficient(2),
        "a3": f.coefficient(3),
        "series": list(report.direct.coeffs),
        "coeff_z": report.pipeline[0],
        "coeff_z2": report.pipeline[1],
        "coeff_w": report.pipeline[2],
        "coeff_w2": report.pipeline[3],
        "closed_forms": list(report.closed_form),
        "residuals": list(report.residuals),
        "max_residual": report.max_residual,
        # tol scales with the largest term (at least 1): cancelling terms leave its rounding
        "pass": bool(report.max_residual <= tol * max(1.0, *map(abs, report.closed_form))),
    }


def cmd_operator(ns: argparse.Namespace) -> int:
    if ns.seed is None:
        draws = [(ns.lam, ns.mu, ns.delta, ns.a2, ns.a3)]
    else:
        rng = np.random.default_rng(ns.seed)
        draws = draw_rows(rng, ns.draws, (-1.0, 1.0), (-1.0, 1.0)).tolist()
    rows = [_identity_payload(ClassParams(lam, mu, delta), FunctionSpec((a2, a3)), ns.tol)
            for lam, mu, delta, a2, a3 in draws]
    all_pass = all(r["pass"] for r in rows)
    payload = rows[0] if ns.seed is None else {"seed": ns.seed, "rows": rows, "all_pass": all_pass}
    return _emit(_json_text(payload), ns.out, all_pass)


# ---------------------------------------------------------------- member

def cmd_member(ns: argparse.Namespace) -> int:
    params = ClassParams(ns.lam, ns.mu, ns.delta, ns.alpha)
    f = FunctionSpec(ns.coeffs)
    grid = DiskGrid(ns.r_max, ns.radii, ns.angles)
    report = check_membership_realpart(params, f, grid, ns.mode)
    payload = {
        "mode": report.mode,
        "alpha": report.alpha,
        "pass": report.passed,
        "min_real_part": report.min_real_part,
        "min_margin": report.margin,
        "worst_point": None
        if report.worst_point is None
        else [report.worst_point.real, report.worst_point.imag],
        "n_points": report.n_evaluated,
        "flagged_points": [[w.real, w.imag] for w in report.flagged],
    }
    return _emit(_json_text(payload), ns.out, report.passed)


# --------------------------------------------------------- bounds/fekete

def _apply_preset(ns: argparse.Namespace) -> None:
    """Set each parameter axis: the preset's pin, else the given range, else the default."""
    for name, value in (PRESET_PINS[ns.preset] if ns.preset else {}).items():
        if getattr(ns, name) is not None:  # from a flag or from --config
            raise ValueError(f"--preset {ns.preset} pins --{'lambda' if name == 'lam' else name}")
        setattr(ns, name, (value,))
    for name in ("lam", "mu", "delta"):
        if getattr(ns, name) is None:
            setattr(ns, name, (getattr(ClassParams, name),))


def cmd_table(ns: argparse.Namespace) -> int:
    _apply_preset(ns)
    points = list(product(ns.lam, ns.mu, ns.delta))
    ps = [eval_poly(ns.p, x) for x in ns.x]
    qs = [eval_poly(ns.q, x) for x in ns.x]
    # One core call on (params, x, upsilon) axes.
    p = np.array(ps)[:, None]
    q = np.array(qs)[:, None]
    upsilon = np.array(ns.upsilon)
    table = bound_arrays(*np.array(points).T[:, :, None, None], p, q, upsilon)
    # Walk the parameter points in row order: an invalid point raises in
    # ClassParams, and where BoundInputs would reject a row of a valid point,
    # build it there: it raises with its message.
    valid = np.isfinite(p) & np.isfinite(q) & np.isfinite(upsilon) & np.isfinite(table.theta)
    for i, has_bad_row in enumerate((~valid.all(axis=(1, 2))).tolist()):
        params = ClassParams(*points[i])
        if has_bad_row:
            j, k = np.unravel_index(np.argmin(valid[i]), valid.shape[1:])
            BoundInputs(params, ps[j], qs[j], ns.upsilon[k])

    # CSV text: repr each distinct value once (an axis value, a2/a3 per
    # parameter point and x); JSON keeps the floats for its own encoder.
    cell = repr if ns.format == "csv" else (lambda v: v)
    heads = list(product(*([cell(v) for v in axis] for axis in (ns.lam, ns.mu, ns.delta))))
    xs = [(cell(x), cell(pv), cell(qv)) for x, pv, qv in zip(ns.x, ps, qs)]
    ups = [cell(u) for u in ns.upsilon]
    a2 = [cell(v) for v in table.a2.ravel().tolist()]
    a3 = [cell(v) for v in table.a3.ravel().tolist()]
    fs = [cell(v) for v in table.fs.ravel().tolist()]
    regimes = [REGIMES[r] for r in table.regime.ravel().tolist()]
    flags = _row_flags(table)
    rows = []
    n = 0
    for i, head in enumerate(heads):
        for j, x_cells in enumerate(xs):
            b = i * len(xs) + j
            for u in ups:
                rows.append((*head, *x_cells, u, a2[b], a3[b], fs[n], regimes[n], flags[n]))
                n += 1
    return _emit(_table_text(ns.format, TABLE_COLUMNS, rows), ns.out)


def _row_flags(table: BoundArrays) -> list[str]:
    """The ``flags`` cell of each row: the three reports' flags, ``;``-joined."""
    codes = list(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(
        table.a2_flags, table.a3_flags, table.fs_flags))))
    texts = {c: ";".join(FLAG_SETS[c[0]] + FLAG_SETS[c[1]] + FLAG_SETS[c[2]]) for c in set(codes)}
    return [texts[c] for c in codes]


# ---------------------------------------------------------------- verify

def cmd_verify(ns: argparse.Namespace) -> int:
    rng = np.random.default_rng(ns.seed)
    inputs = random_inputs(rng, ns.draws, p_min=ns.p_min, theta_min=ns.theta_min)
    results = [verify_bounds(inp, ns.grid_n, ns.mode, ns.tol) for inp in inputs]
    all_pass = all(r.all_pass for r in results)

    summary = {}
    for i, name in enumerate(FUNCTIONALS):  # the order of each result's reports
        ratios = [res.reports[i].ratio for res in results]
        summary[name] = {
            "min_ratio": min(ratios),
            "median_ratio": statistics.median(ratios),
            "max_ratio": max(ratios),
            "passed": sum(res.passes[i] for res in results),
        }

    if ns.format == "json":
        payload = {
            "mode": ns.mode,
            "grid_n": ns.grid_n,
            "draws": ns.draws,
            "seed": ns.seed,
            "tolerance": ns.tol,
            "rows": [
                {
                    "lambda": res.inputs.params.lam,
                    "mu": res.inputs.params.mu,
                    "delta": res.inputs.params.delta,
                    "p": res.inputs.p,
                    "q": res.inputs.q,
                    "upsilon": res.inputs.upsilon,
                    "theta": res.inputs.theta,
                    "functionals": [
                        {**rep.as_dict(), "pass": ok}
                        for rep, ok in zip(res.reports, res.passes)
                    ],
                }
                for res in results
            ],
            "summary": summary,
            "all_pass": all_pass,
        }
        text = _json_text(payload)
    else:
        lines = [
            f"verify: mode={ns.mode} grid_n={ns.grid_n} draws={ns.draws} seed={ns.seed}",
            f"{'functional':<10} {'min_ratio':>12} {'median_ratio':>14} {'max_ratio':>12} {'pass':>8}",
        ]
        for name, row in summary.items():
            lines.append(
                f"{name:<10} {row['min_ratio']:>12.6f} {row['median_ratio']:>14.6f} "
                f"{row['max_ratio']:>12.6f} {row['passed']:>4}/{ns.draws}"
            )
        lines.append(f"RESULT: {'PASS' if all_pass else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    return _emit(text, ns.out, all_pass)


# ----------------------------------------------------------------- parser

def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lambda", dest="lam", type=float, default=ClassParams.lam,
                    help="lam >= 1")
    sp.add_argument("--mu", type=float, default=ClassParams.mu, help="mu >= 0")
    sp.add_argument("--delta", type=float, default=ClassParams.delta, help="delta >= 0")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="pqlucas",
        description="(p,q)-Lucas coefficient-bound laboratory",
    )
    parser.add_argument("--config", help="key=value defaults file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lucas", help="Lucas sequence: recurrence vs generating series")
    sp.add_argument("--p", type=_poly_type, default=(0.0, 1.0), help="p(x) coefficients")
    sp.add_argument("--q", type=_poly_type, default=(1.0,), help="q(x) coefficients")
    sp.add_argument("--x", type=float, default=1.0)
    sp.add_argument("--k", type=_int_at_least(0), default=10, help="largest index")
    sp.add_argument("--tol", type=_not_nan, default=1e-9)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("operator", help="operator coefficient identities")
    _add_param_flags(sp)
    sp.add_argument("--a2", type=float, default=0.5)
    sp.add_argument("--a3", type=float, default=0.25)
    sp.add_argument("--tol", type=_not_nan, default=1e-9)
    sp.add_argument("--seed", type=_int_at_least(0), default=None, help="random residual table")
    sp.add_argument("--draws", type=_int_at_least(1), default=10)

    sp = sub.add_parser("member", help="sampled real-part membership check")
    _add_param_flags(sp)
    sp.add_argument("--alpha", type=float, default=ClassParams.alpha)
    sp.add_argument("--coeffs", type=_poly_type, default=(), help="a2,a3,...")
    sp.add_argument("--mode", choices=MEMBERSHIP_MODES, default="operator")
    sp.add_argument("--r-max", dest="r_max", type=float, default=DiskGrid.r_max)
    sp.add_argument("--radii", type=_int_at_least(1), default=DiskGrid.n_radii)
    sp.add_argument("--angles", type=_int_at_least(1), default=DiskGrid.n_angles)

    for name, upsilon_default, help_text in (
        ("bounds", "1", "closed-form bound sweep"),
        ("fekete", "0:3:31", "Fekete-Szego bound sweep over upsilon"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--lambda", dest="lam", type=_range_type,
                        help="range START:STOP:STEPS or number")
        sp.add_argument("--mu", type=_range_type)
        sp.add_argument("--delta", type=_range_type)
        sp.add_argument("--x", type=_range_type, default=(1.0,))
        sp.add_argument("--upsilon", type=_range_type, default=_range_type(upsilon_default))
        sp.add_argument("--p", type=_poly_type, default=(0.0, 1.0), help="p(x) coefficients")
        sp.add_argument("--q", type=_poly_type, default=(1.0,), help="q(x) coefficients")
        sp.add_argument("--preset", choices=PRESET_PINS, default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("verify", help="brute-force bound verification")
    sp.add_argument("--draws", type=_int_at_least(1), default=50)
    sp.add_argument("--grid-n", dest="grid_n", type=_int_at_least(2), default=21)
    sp.add_argument("--mode", choices=MODES, default="paper")
    sp.add_argument("--seed", type=_int_at_least(0), default=1729)
    sp.add_argument("--tol", type=_not_nan, default=1e-9)
    sp.add_argument("--p-min", dest="p_min", type=_not_nan, default=0.1)
    sp.add_argument("--theta-min", dest="theta_min", type=_not_nan, default=2.0)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    for sp in sub.choices.values():  # last, so each usage line ends with it
        sp.add_argument("--out", default=None)
    return parser, sub.choices  # argparse's own name -> subparser map


def _load_config(path: str, keys: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of every run, built on first use."""
    return build_parser()


_COMMANDS = {"lucas": cmd_lucas, "operator": cmd_operator, "member": cmd_member,
             "bounds": cmd_table, "fekete": cmd_table, "verify": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = _shared_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        try:
            # a key some subcommand takes is a valid default for all of them;
            # -h's dest "help" (default SUPPRESS) sets nothing, so it is no key
            keys = {a.dest for sp in subparsers.values() for a in sp._actions
                    if a.default is not argparse.SUPPRESS}
            config = _load_config(ns.config, keys)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        argv = sys.argv[1:] if argv is None else argv
        at = 0
        while argv[at] != ns.command:  # only --config forms precede the command
            at += 1 if "=" in argv[at] else 2
        tokens = [f"{a.option_strings[0]}={config[a.dest]}"  # ahead of typed flags, which win
                  for a in subparsers[ns.command]._actions if a.dest in config]
        ns = parser.parse_args([*argv[:at + 1], *tokens, *argv[at + 1:]])
    try:
        return _COMMANDS[ns.command](ns)
    except (ValueError, MemoryError) as exc:
        # the table commands report with their usage text, as argparse does
        if ns.command in ("bounds", "fekete"):
            subparsers[ns.command].error(str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
