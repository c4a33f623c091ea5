"""Command-line interface.

Subcommands: ``lucas`` (recurrence vs generating-series table), ``operator``
(pipeline vs closed-form coefficient residuals), ``member`` (sampled
real-part membership report), ``bounds`` / ``fekete`` (closed-form bound
sweeps as CSV or JSON), ``verify`` (randomized brute-force bound
verification).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.

Ranges are written ``start:stop:steps`` (or a single number), polynomials
as comma-separated ascending coefficients (``--p 0,1`` is ``p(x) = x``).
``--config FILE`` supplies ``key=value`` defaults for any long flag (dest
names, ``-`` and ``_`` interchangeable); explicit flags win.  A relative
``--out`` path resolves against ``$PQLUCAS_OUT_DIR`` when that is set.
CSV uses RFC-4180-style CRLF rows; JSON tables are one object with a
``rows`` array.  Seeded commands are byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
from collections.abc import Iterable, Sequence
from itertools import chain, product

import numpy as np

from .bioperator import (
    ClassParams,
    DiskGrid,
    apply_operator,
    check_membership_realpart,
    extract_coefficient_identities,
)
from .bounds import (
    FLAG_SETS,
    PRESET_NAMES,
    PRESET_PINS,
    REGIMES,
    BoundArrays,
    BoundInputs,
    bound_arrays,
)
from .lucas import PolyPair, eval_poly, generating_series, lucas_sequence
from .oracle import FUNCTIONALS, MODES, draw_params, random_inputs, verify_bounds
from .series import FunctionSpec, to_json_coeffs, to_json_number

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
    if steps == 1:
        return (start,)
    return tuple(float(v) for v in np.linspace(start, stop, steps))


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return value


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> int:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _emit_verdict(text: str, out: str | None, passed: bool) -> int:
    """Write the output, then exit 0 on a pass and 1 on a failed check."""
    code = _emit(text, out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _csv_text(columns: tuple[str, ...], rows: Iterable[Sequence[str]]) -> str:
    """CSV text, CRLF rows: the bytes ``csv.writer`` gives for these cells.

    Cells are already text (``str`` of ints and Python floats).  None needs
    quoting: numbers, regime tags and flag texts hold no comma, quote or
    line break.
    """
    return "".join(",".join(row) + "\r\n" for row in chain((columns,), rows))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ----------------------------------------------------------------- lucas

def cmd_lucas(ns: argparse.Namespace) -> int:
    try:
        pair = PolyPair(ns.p, ns.q, ns.x)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    seq = lucas_sequence(pair, ns.k)
    gen = generating_series(pair, ns.k)
    rows = []
    worst = 0.0
    for k in range(ns.k + 1):
        rec = seq.values[k]
        ser = gen.coefficient(k).real
        diff = abs(rec - gen.coefficient(k))
        worst = max(worst, diff)
        rows.append([k, rec, ser, diff])
    if ns.format == "json":
        payload = {
            "rows": [
                {"k": r[0], "lucas_recurrence": r[1], "lucas_series": r[2], "abs_diff": r[3]}
                for r in rows
            ]
        }
        text = _json_text(payload)
    else:
        text = _csv_text(
            ("k", "lucas_recurrence", "lucas_series", "abs_diff"),
            ([str(v) for v in row] for row in rows),
        )
    return _emit_verdict(text, ns.out, worst <= ns.tol)


# -------------------------------------------------------------- operator

def _identity_payload(params: ClassParams, f: FunctionSpec, tol: float) -> dict:
    report = extract_coefficient_identities(params, f)
    direct = apply_operator(params, f, order=2)
    return {
        "lambda": params.lam,
        "mu": params.mu,
        "delta": params.delta,
        "a2": f.coefficient(2),
        "a3": f.coefficient(3),
        "series": to_json_coeffs(direct),
        "coeff_z": to_json_number(report.pipeline[0]),
        "coeff_z2": to_json_number(report.pipeline[1]),
        "coeff_w": to_json_number(report.pipeline[2]),
        "coeff_w2": to_json_number(report.pipeline[3]),
        "closed_forms": list(report.closed_form),
        "residuals": list(report.residuals),
        "max_residual": report.max_residual,
        "pass": bool(report.max_residual <= tol),
    }


def cmd_operator(ns: argparse.Namespace) -> int:
    try:
        if ns.seed is None:
            params = ClassParams(ns.lam, ns.mu, ns.delta)
            payload = _identity_payload(params, FunctionSpec((ns.a2, ns.a3)), ns.tol)
            all_pass = payload["pass"]
        else:
            rng = np.random.default_rng(ns.seed)
            rows = []
            for _ in range(ns.draws):
                params = draw_params(rng)
                f = FunctionSpec((rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
                rows.append(_identity_payload(params, f, ns.tol))
            all_pass = all(r["pass"] for r in rows)
            payload = {"seed": ns.seed, "rows": rows, "all_pass": all_pass}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit_verdict(_json_text(payload), ns.out, all_pass)


# ---------------------------------------------------------------- member

def cmd_member(ns: argparse.Namespace) -> int:
    try:
        params = ClassParams(ns.lam, ns.mu, ns.delta, ns.alpha)
        f = FunctionSpec(ns.coeffs if ns.coeffs is not None else ())
        grid = DiskGrid(ns.r_max, ns.radii, ns.angles)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    return _emit_verdict(_json_text(payload), ns.out, report.passed)


# --------------------------------------------------------- bounds/fekete

def _apply_preset(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not ns.preset:
        return
    for name, value in PRESET_PINS[ns.preset].items():
        flag = getattr(ns, f"{name}_given", None)
        if flag:
            parser.error(f"--preset {ns.preset} pins {flag}")
        setattr(ns, name, (value,))


class _TrackedRange(argparse.Action):
    """Stores the parsed range and remembers the flag that gave it explicitly."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_given", option_string)


def _table_params(ns: argparse.Namespace) -> tuple[list[ClassParams], ValueError | None]:
    """The parameter points in row order, up to the first invalid one."""
    params = []
    for lam, mu, delta in product(ns.lam, ns.mu, ns.delta):
        try:
            params.append(ClassParams(lam, mu, delta))
        except ValueError as exc:
            return params, exc
    return params, None


def cmd_table(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _apply_preset(ns, parser)
    params, error = _table_params(ns)
    ps = [eval_poly(ns.p, x) for x in ns.x]
    qs = [eval_poly(ns.q, x) for x in ns.x]
    # One core call on (params, x, upsilon) axes.
    p = np.array(ps)[:, None]
    q = np.array(qs)[:, None]
    upsilon = np.array(ns.upsilon)
    table = bound_arrays(
        *(np.array([getattr(c, name) for c in params])[:, None, None]
          for name in ("lam", "mu", "delta")),
        p, q, upsilon,
    )
    # Where BoundInputs would reject a row, build it there for its message.
    # Those rows precede the first invalid parameter point.
    valid = np.isfinite(p) & np.isfinite(q) & np.isfinite(upsilon) & np.isfinite(table.theta)
    shape = (len(params), len(ps), len(upsilon))
    if not valid.all():
        i, j, k = np.unravel_index(np.argmin(np.broadcast_to(valid, shape)), shape)
        try:
            BoundInputs(params[i], ps[j], qs[j], ns.upsilon[k])
        except ValueError as exc:
            error = exc
    if error is not None:
        parser.error(str(error))

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
    if ns.format == "json":
        payload = {"rows": [dict(zip(TABLE_COLUMNS, row)) for row in rows]}
        text = _json_text(payload)
    else:
        text = _csv_text(TABLE_COLUMNS, rows)
    return _emit(text, ns.out)


def _row_flags(table: BoundArrays) -> list[str]:
    """The ``flags`` cell of each row: the three reports' flags, ``;``-joined."""
    codes = list(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(
        table.a2_flags, table.a3_flags, table.fs_flags))))
    texts = {c: ";".join(FLAG_SETS[c[0]] + FLAG_SETS[c[1]] + FLAG_SETS[c[2]]) for c in set(codes)}
    return [texts[c] for c in codes]


# ---------------------------------------------------------------- verify

def cmd_verify(ns: argparse.Namespace) -> int:
    if ns.draws < 1:
        print("error: verify needs --draws >= 1", file=sys.stderr)
        return EXIT_USAGE
    if ns.grid_n < 2:
        print("error: verify needs --grid-n >= 2", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(ns.seed)
    try:
        inputs = random_inputs(rng, ns.draws, p_min=ns.p_min, theta_min=ns.theta_min)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    results = [verify_bounds(inp, ns.grid_n, ns.mode, ns.tol) for inp in inputs]
    all_pass = all(r.all_pass for r in results)

    ratios = {name: [] for name in FUNCTIONALS}
    passes = {name: 0 for name in FUNCTIONALS}
    for result in results:
        for report, ok in zip(result.reports, result.passes):
            ratios[report.functional].append(report.ratio)
            passes[report.functional] += int(ok)

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
            "summary": {
                name: {
                    "min_ratio": min(vals),
                    "median_ratio": statistics.median(vals),
                    "max_ratio": max(vals),
                    "passed": passes[name],
                }
                for name, vals in ratios.items()
            },
            "all_pass": all_pass,
        }
        text = _json_text(payload)
    else:
        lines = [
            f"verify: mode={ns.mode} grid_n={ns.grid_n} draws={ns.draws} seed={ns.seed}",
            f"{'functional':<10} {'min_ratio':>12} {'median_ratio':>14} {'max_ratio':>12} {'pass':>8}",
        ]
        for name, vals in ratios.items():
            lines.append(
                f"{name:<10} {min(vals):>12.6f} {statistics.median(vals):>14.6f} "
                f"{max(vals):>12.6f} {passes[name]:>4}/{ns.draws}"
            )
        lines.append(f"RESULT: {'PASS' if all_pass else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    return _emit_verdict(text, ns.out, all_pass)


# ----------------------------------------------------------------- parser

def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0, help="lam >= 1")
    sp.add_argument("--mu", type=float, default=1.0, help="mu >= 0")
    sp.add_argument("--delta", type=float, default=0.0, help="delta >= 0")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="pqlucas",
        description="(p,q)-Lucas coefficient-bound laboratory",
    )
    parser.add_argument("--config", help="key=value defaults file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    sp = sub.add_parser("lucas", help="Lucas sequence: recurrence vs generating series")
    sp.add_argument("--p", type=_poly_type, default=(0.0, 1.0), help="p(x) coefficients")
    sp.add_argument("--q", type=_poly_type, default=(1.0,), help="q(x) coefficients")
    sp.add_argument("--x", type=float, default=1.0)
    sp.add_argument("--k", type=_nonneg_int, default=10, help="largest index")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    subparsers["lucas"] = sp

    sp = sub.add_parser("operator", help="operator coefficient identities")
    _add_param_flags(sp)
    sp.add_argument("--a2", type=float, default=0.5)
    sp.add_argument("--a3", type=float, default=0.25)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=None, help="random residual table")
    sp.add_argument("--draws", type=_nonneg_int, default=10)
    sp.add_argument("--out", default=None)
    subparsers["operator"] = sp

    sp = sub.add_parser("member", help="sampled real-part membership check")
    _add_param_flags(sp)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--coeffs", type=_poly_type, default=None, help="a2,a3,...")
    sp.add_argument("--mode", choices=("operator", "starlike", "convex"), default="operator")
    sp.add_argument("--r-max", dest="r_max", type=float, default=0.95)
    sp.add_argument("--radii", type=_nonneg_int, default=64)
    sp.add_argument("--angles", type=_nonneg_int, default=256)
    sp.add_argument("--out", default=None)
    subparsers["member"] = sp

    for name, upsilon_default, help_text in (
        ("bounds", "1", "closed-form bound sweep"),
        ("fekete", "0:3:31", "Fekete-Szego bound sweep over upsilon"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--lambda", dest="lam", type=_range_type, default=(1.0,),
                        action=_TrackedRange, help="range START:STOP:STEPS or number")
        sp.add_argument("--mu", type=_range_type, default=(1.0,), action=_TrackedRange)
        sp.add_argument("--delta", type=_range_type, default=(0.0,), action=_TrackedRange)
        sp.add_argument("--x", type=_range_type, default=(1.0,))
        sp.add_argument("--upsilon", type=_range_type, default=_range_type(upsilon_default))
        sp.add_argument("--p", type=_poly_type, default=(0.0, 1.0), help="p(x) coefficients")
        sp.add_argument("--q", type=_poly_type, default=(1.0,), help="q(x) coefficients")
        sp.add_argument("--preset", choices=PRESET_NAMES, default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None)
        subparsers[name] = sp

    sp = sub.add_parser("verify", help="brute-force bound verification")
    sp.add_argument("--draws", type=_nonneg_int, default=50)
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=21)
    sp.add_argument("--mode", choices=MODES, default="paper")
    sp.add_argument("--seed", type=int, default=1729)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--p-min", dest="p_min", type=float, default=0.1)
    sp.add_argument("--theta-min", dest="theta_min", type=float, default=2.0)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    subparsers["verify"] = sp

    return parser, subparsers


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _prescan_config(argv: list[str]) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 >= len(argv):
                return None  # argparse will report the missing value
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of every run without ``--config``, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]

    config_path = _prescan_config(argv)
    if config_path is None:
        parser, subparsers = _shared_parser()
    else:
        try:
            config = _load_config(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # A parser of its own, so the config defaults end with this run.
        parser, subparsers = build_parser()
        # String defaults are run through each flag's type converter by
        # argparse itself, so raw text is the right currency here.
        for sp in subparsers.values():
            sp.set_defaults(**config)

    ns = parser.parse_args(argv)
    # Looked up per call, not stored in the parser that outlives this call,
    # so a command function rebound on this module (a test double, a tracer)
    # is the one that runs.
    if ns.command in ("bounds", "fekete"):
        return cmd_table(ns, subparsers[ns.command])
    commands = {"lucas": cmd_lucas, "operator": cmd_operator, "member": cmd_member,
                "verify": cmd_verify}
    return commands[ns.command](ns)


if __name__ == "__main__":
    raise SystemExit(main())
