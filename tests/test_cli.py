"""End-to-end CLI runs through main(argv): formats, exit codes, config, output."""

import csv
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pqlucas import bioperator, cli
from pqlucas.bioperator import ClassParams
from pqlucas.bounds import FLAG_SETS, REGIMES, BoundInputs
from pqlucas.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    TABLE_COLUMNS,
    build_parser,
    main,
)


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestLucas:
    def test_classical_csv(self, capsys):
        code, out, _ = run(capsys, ["lucas", "--k", "5"])
        assert code == EXIT_OK
        assert "\r\n" in out
        header, rows = parse_csv(out)
        assert header == ["k", "lucas_recurrence", "lucas_series", "abs_diff"]
        assert [r[1] for r in rows] == ["2.0", "1.0", "3.0", "4.0", "7.0", "11.0"]
        assert all(r[3] == "0.0" for r in rows)

    def test_k_zero(self, capsys):
        code, out, _ = run(capsys, ["lucas", "--k", "0"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows == [["0", "2.0", "2.0", "0.0"]]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["lucas", "--k", "3", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["rows"][2]["lucas_recurrence"] == 3.0
        assert payload["rows"][3]["abs_diff"] == 0.0

    def test_mismatch_exit_code(self, capsys):
        # an impossible tolerance flips the verdict without touching the data
        code, out, _ = run(capsys, ["lucas", "--k", "4", "--tol", "-1"])
        assert code == EXIT_VERIFY_FAILED
        assert "lucas_recurrence" in out  # table still emitted

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("p, first", [("1e200", 2), ("1e100", 4)])
    def test_overflowing_recurrence_is_usage_error(self, capsys, fmt, p, first):
        # L_k overflows at k = first; before, the table carried inf and nan
        # cells (NaN in JSON is not JSON) and the nan diff still passed
        code, out, err = run(capsys, ["lucas", "--p", p, "--k", "4", "--format", fmt])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: L_{first} must be finite: p(x) or q(x) is too large\n"

    def test_malformed_polynomial(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lucas", "--p", "1;2"])
        assert exc.value.code == EXIT_USAGE
        assert "malformed polynomial" in capsys.readouterr().err


class TestOperator:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, ["operator"])
        assert code == EXIT_OK
        payload = json.loads(out)
        # defaults (1, 1, 0) make the operator f', so everything is exact
        assert payload["coeff_z"] == 1.0
        assert payload["series"] == [1.0, 1.0, 0.75]
        assert payload["pass"] is True
        assert payload["max_residual"] <= 1e-12

    def test_residual_table(self, capsys):
        code, out, _ = run(capsys, ["operator", "--seed", "5", "--draws", "3"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["seed"] == 5
        assert len(payload["rows"]) == 3
        assert payload["all_pass"] is True

    def test_zero_coefficients(self, capsys):
        code, out, _ = run(capsys, ["operator", "--a2", "0", "--a3", "0"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["max_residual"] == 0.0
        assert payload["series"] == [1.0, 0.0, 0.0]

    def test_failing_tolerance(self, capsys):
        code, out, _ = run(
            capsys,
            ["operator", "--lambda", "1.7", "--mu", "0.9", "--delta", "0.3", "--tol", "1e-30"],
        )
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["pass"] is False

    def test_overflowing_inverse_coefficient_is_not_nan(self, capsys):
        # [w^2] D[f^-1] is about -3e250.  Full Horner passes of the series
        # reversion overflowed a coefficient they never needed to inf and
        # multiplied it by f(0) = 0, which made b3 and this coefficient NaN.
        code, out, _ = run(capsys, ["operator", "--a2", "1e100", "--a3", "1e250"])
        assert code == EXIT_OK
        assert "NaN" not in out
        payload = json.loads(out)
        assert payload["coeff_w2"] == -3e250
        assert payload["residuals"][3] == 0.0

    @pytest.mark.parametrize("a2, a3", [("1e160", "0"), ("1e200", "1e200")])
    def test_overflowing_coefficient_is_usage_error(self, capsys, a2, a3):
        # coeff_z2 and coeff_w2 came out NaN here, and Python's max skips a
        # NaN, so the row reported max_residual 0.0 and passed
        code, out, err = run(capsys, ["operator", "--a2", a2, "--a3", a3])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: operator coefficients must be finite: "
            "a2, a3, lambda, mu or delta is too large\n"
        )

    def test_output_bytes(self, capsys):
        code, out, err = run(capsys, ["operator", "--seed", "7", "--draws", "20"])
        assert (code, err) == (EXIT_OK, "")
        assert out == (GOLDEN / "operator_seed7.json").read_bytes().decode("utf-8")

    def test_two_operator_expansions_per_row(self, capsys, monkeypatch):
        # D[f] and D[f^-1]; the printed series is the identity report's own D[f]
        calls = []
        expand = bioperator._operator_series
        monkeypatch.setattr(
            bioperator, "_operator_series", lambda *args: calls.append(1) or expand(*args)
        )
        code, _, _ = run(capsys, ["operator", "--seed", "7", "--draws", "5"])
        assert code == EXIT_OK
        assert len(calls) == 2 * 5

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, ["operator", "--lambda", "0.2"])
        assert code == EXIT_USAGE
        assert "lam must be >= 1" in err


class TestMember:
    def test_identity_passes(self, capsys):
        code, out, _ = run(
            capsys, ["member", "--mode", "starlike", "--radii", "4", "--angles", "8"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["min_real_part"] == pytest.approx(1.0, abs=1e-12)
        assert payload["n_points"] == 32
        assert payload["flagged_points"] == []

    def test_failing_function(self, capsys):
        code, out, _ = run(
            capsys,
            ["member", "--mode", "starlike", "--coeffs", "0.9", "--r-max", "0.9",
             "--radii", "3", "--angles", "4"],
        )
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["min_real_part"] == pytest.approx(-0.62 / 0.19, abs=1e-12)
        assert payload["worst_point"] == [pytest.approx(-0.9), pytest.approx(0.0)]

    def test_flagged_points_reported(self, capsys):
        code, out, _ = run(
            capsys,
            ["member", "--mode", "starlike", "--coeffs", "-2", "--r-max", "0.5",
             "--radii", "2", "--angles", "4"],
        )
        assert code == EXIT_VERIFY_FAILED
        payload = json.loads(out)
        assert payload["n_points"] == 7
        assert payload["flagged_points"] == [[pytest.approx(0.5), pytest.approx(0.0)]]

    @pytest.mark.parametrize("coeffs", [["1e200,1e200", "--mu", "3"], ["1e308,1e308"]])
    def test_overflowing_values_are_usage_error(self, capsys, coeffs):
        # printed "min_real_part": NaN; at 1e308 numpy RuntimeWarnings also
        # reached stderr, which filterwarnings = error turns into a failure
        code, out, err = run(capsys, ["member", "--coeffs", *coeffs])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: member values must be finite: coefficients or parameters are too large\n"
        )

    @pytest.mark.parametrize(
        "argv, exit_code, golden",
        [
            (["--coeffs", "0.9,0.4", "--mu", "2.5", "--lambda", "1.7", "--delta", "0.3"],
             EXIT_VERIFY_FAILED, "member_operator.json"),
            (["--coeffs", "0.2,-0.1,0.05", "--mode", "starlike"], EXIT_OK, "member_starlike.json"),
            (["--coeffs", "0.3,0.1", "--mode", "convex"], EXIT_OK, "member_convex.json"),
            # on the default 64x256 grid the last bit of z f'(z) depends on
            # the operand order of the complex multiply: the other order
            # moves worst_point to its conjugate and min_real_part by 1 ulp
            (["--coeffs=-0.11354613774868144,-0.005557597426725939,0.0703759933375565",
              "--mode=starlike"], EXIT_OK, "member_starlike_conjugate.json"),
        ],
    )
    def test_output_bytes(self, capsys, argv, exit_code, golden):
        code, out, err = run(capsys, ["member", *argv])
        assert (code, err) == (exit_code, "")
        assert out == (GOLDEN / golden).read_bytes().decode("utf-8")


class TestBoundsTable:
    def test_bistarlike_row(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--preset", "bistarlike"])
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == list(TABLE_COLUMNS)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["bound_a2"]) == pytest.approx(1.0)
        assert float(row["bound_a3"]) == pytest.approx(1.5)
        assert float(row["fs_bound"]) == pytest.approx(0.5)
        assert row["regime"] == "case1"
        assert row["flags"] == ""

    def test_degenerate_row_stays_total(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--preset", "bistarlike", "--q", "0"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        row = dict(zip(TABLE_COLUMNS, rows[0]))
        assert row["bound_a2"] == "inf"
        assert row["regime"] == "degenerate"
        assert "theta = 0" in row["flags"]
        assert "nan" not in out.lower()

    def test_range_sweep_row_count(self, capsys):
        code, out, _ = run(
            capsys,
            ["bounds", "--preset", "caglar", "--lambda", "1:2:3", "--mu", "0:1:2",
             "--x", "0.5:1.5:2"],
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 3 * 2 * 2

    def test_json_rows_object(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--preset", "bistarlike", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"rows"}
        assert set(payload["rows"][0]) == set(TABLE_COLUMNS)

    def test_preset_pin_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--preset", "bistarlike", "--mu", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "pins --mu" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "fekete"])
    @pytest.mark.parametrize(
        "flags",
        [["--upsilon", "nan"], ["--upsilon", "inf"], ["--p", "nan"], ["--q", "nan"],
         ["--x", "nan"], ["--x", "1e200"], ["--mu=-1:1:3"], ["--lambda=0.5:2:3"],
         ["--x", "0:1e200:2"], ["--lambda", "1e160"], ["--mu", "1e160"],
         ["--delta", "1e160"]],
    )
    def test_non_finite_input_is_usage_error(self, capsys, command, flags):
        # The exact stderr of the per-row table this replaced.  --x 1e200
        # overflows p^2, so theta itself is not finite; with --x 0:1e200:2
        # the first row is fine and the second overflows; an invalid
        # parameter point fails before any row; --lambda 1e160 and
        # --delta 1e160 overflow c1^2 (which used to escape as an
        # OverflowError traceback) and --mu 1e160 also the mass term, so
        # those name the parameters.
        too_large = "theta must be finite: p(x) or q(x) is too large"
        params_too_large = "theta must be finite: lambda, mu or delta is too large"
        message = {
            "--upsilon nan": "upsilon must be finite",
            "--upsilon inf": "upsilon must be finite",
            "--p nan": "p must be finite",
            "--q nan": "q must be finite",
            "--x nan": "p must be finite",
            "--x 1e200": too_large,
            "--mu=-1:1:3": "mu must be >= 0",
            "--lambda=0.5:2:3": "lam must be >= 1",
            "--x 0:1e200:2": too_large,
            "--lambda 1e160": params_too_large,
            "--mu 1e160": params_too_large,
            "--delta 1e160": params_too_large,
        }[" ".join(flags)]
        with pytest.raises(SystemExit) as exc:
            main([command, *flags])
        assert exc.value.code == EXIT_USAGE
        usage = build_parser()[1][command].format_usage()
        assert capsys.readouterr().err == f"{usage}pqlucas {command}: error: {message}\n"

    # run_exit reads capsys out, so no capture carries over between examples
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(["bounds", "fekete"]),
        # invalid parameters (lam < 1, mu or delta < 0), ones whose c1^2
        # overflows, and an x whose p(x) = 1e200 x overflows theta
        axes=st.tuples(*(
            st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True).map(sorted)
            for pool in ([1.0, 2.0, 0.5, 1e160], [0.0, 1.0, -1.0, 1e160],
                         [0.0, 1.0, -1.0, 1e160], [0.0, 0.5, 1.0, 1e160])
        )),
    )
    def test_first_bad_row_on_mixed_axes(self, capsys, command, axes):
        flags = [
            f"--{flag}=" + (repr(v[0]) if len(v) == 1 else f"{v[0]!r}:{v[1]!r}:2")
            for flag, v in zip(("lambda", "mu", "delta", "x"), axes)
        ]
        code, out, err = run_exit(capsys, [command, *flags, "--p=0,1e200"])
        # the first row, in row order, that ClassParams or BoundInputs rejects
        lams, mus, deltas, xs = axes
        upsilons = [1.0] if command == "bounds" else np.linspace(0.0, 3.0, 31).tolist()
        message = None
        try:
            for lam, mu, delta in itertools.product(lams, mus, deltas):
                params = ClassParams(lam, mu, delta)
                for x, upsilon in itertools.product(xs, upsilons):
                    BoundInputs(params, 1e200 * x, 1.0, upsilon)
        except ValueError as exc:
            message = str(exc)
        if message is None:
            assert (code, err) == (EXIT_OK, "")
        else:
            usage = build_parser()[1][command].format_usage()
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"{usage}pqlucas {command}: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["bounds", "--preset", "caglar", "--lambda", "1:2:3", "--mu", "0:1:3",
              "--x", "0:1:3"], "bounds_caglar.csv"),
            (["fekete", "--preset", "bistarlike", "--format", "json", "--q=-0.5,1",
              "--x", "0:1:3", "--upsilon", "0:2:3"], "fekete_bistarlike.json"),
            # boundary, case1, case2, variant -> case2, p = 0, and theta = 0
            # both as the upsilon = 1 limit and unbounded
            (["bounds", "--preset", "bistarlike", "--q=-0.5,1", "--x", "0:1:5",
              "--upsilon", "0:2:5"], "bounds_bistarlike.csv"),
            # variant -> case1
            (["fekete", "--preset", "mu1", "--lambda", "1:2:3", "--q=-0.5,1", "--p=0,2",
              "--x", "0:1:5", "--upsilon", "0:2:5", "--format", "json"], "fekete_mu1.json"),
        ],
    )
    def test_preset_output_bytes(self, capsys, argv, golden):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / golden).read_bytes().decode("utf-8")

    def test_large_table_digest(self, capsys):
        # 40,000 rows; the digest was taken with the per-row csv.writer table
        code, out, _ = run(
            capsys,
            ["bounds", "--lambda", "1:3:20", "--mu", "0:3:20", "--delta", "0:2:10",
             "--upsilon", "0:3:10"],
        )
        assert code == EXIT_OK
        assert out.count("\r\n") == 40_001
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "759b85375ae2253cc571976d95d767adce6dec6bea420b5cb62d73a86d0f2905"
        )

    def test_no_table_cell_needs_quoting(self):
        # so joining cells with "," gives the bytes csv.writer would
        texts = list(REGIMES) + [flag for flags in FLAG_SETS for flag in flags]
        assert not any(ch in text for text in texts for ch in ',"\r\n')

    def test_malformed_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--upsilon", "0:3"])
        assert exc.value.code == EXIT_USAGE
        assert "malformed range" in capsys.readouterr().err

    def test_fekete_sweep_regimes(self, capsys):
        code, out, _ = run(capsys, ["fekete", "--preset", "bistarlike"])
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 31  # default upsilon sweep 0:3:31
        regimes = [r[10] for r in rows]
        values = [float(r[9]) for r in rows]
        # |phi| = |1 - u|/4 vs 1/(2 c2) = 1/4: boundary at u = 0 and u = 2
        assert regimes[0] == "boundary"
        assert regimes[1:20] == ["case1"] * 19
        assert regimes[20] == "boundary"
        assert regimes[21:] == ["case2"] * 10
        assert values[0] == pytest.approx(0.5)
        assert min(values) == pytest.approx(0.5)
        assert values[-1] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(values[20:], values[21:]))


class TestVerify:
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["verify", "--draws", "8", "--grid-n", "41", "--seed", "1729"], "verify_paper.txt"),
            (["verify", "--mode", "schwarz", "--format", "json", "--draws", "8",
              "--grid-n", "41", "--seed", "1729"], "verify_schwarz.json"),
        ],
    )
    def test_output_bytes(self, capsys, argv, golden):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out == (GOLDEN / golden).read_bytes().decode("utf-8")

    def test_text_summary_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--draws", "5", "--grid-n", "5", "--seed", "7"])
        assert code == EXIT_OK
        assert out.startswith("verify: mode=paper grid_n=5 draws=5 seed=7")
        for name in ("abs_a2", "abs_a3", "fekete"):
            assert name in out
        assert "RESULT: PASS" in out

    def test_default_run_structural_ratio(self, capsys):
        # the full default sweep: 50 draws, grid_n 21; the |a2| tightness
        # ratio is the structural 1/sqrt(2) on every draw
        code, out, _ = run(capsys, ["verify", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["draws"] == 50
        stats = payload["summary"]["abs_a2"]
        assert stats["min_ratio"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        assert stats["max_ratio"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ["verify", "--draws", "4", "--grid-n", "3", "--seed", "11", "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--draws", "3", "--grid-n", "3", "--format", "json"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["rows"]) == 3
        assert len(payload["rows"][0]["functionals"]) == 3
        summary = payload["summary"]
        assert set(summary) == {"abs_a2", "abs_a3", "fekete"}
        for stats in summary.values():
            assert stats["min_ratio"] <= stats["median_ratio"] <= stats["max_ratio"]
            assert stats["max_ratio"] <= 1.0 + 1e-9

    def test_zero_draws_rejected(self, capsys):
        code, _, err = run(capsys, ["verify", "--draws", "0"])
        assert code == EXIT_USAGE
        assert "--draws >= 1" in err

    @pytest.mark.parametrize("grid_n", ["1", "0", "-3"])
    def test_small_grid_rejected(self, capsys, grid_n):
        code, out, err = run(capsys, ["verify", "--draws", "2", f"--grid-n={grid_n}"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--grid-n >= 2" in err

    def test_schwarz_mode(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--draws", "3", "--grid-n", "5", "--mode", "schwarz"]
        )
        assert code == EXIT_OK
        assert "mode=schwarz" in out


def run_exit(capsys, argv):
    """Like run(), but an argparse exit comes back as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    # The whole stderr of every exit-2 path.  ``None`` for the command means
    # the command prints one ``error:`` line; otherwise the named parser
    # reports it after its usage text ("" is the top-level parser).
    @pytest.mark.parametrize(
        "argv, command, message",
        [
            (["lucas", "--p", "1e200", "--k", "4"], None,
             "L_2 must be finite: p(x) or q(x) is too large"),
            (["lucas", "--x", "nan"], None, "p(x) and q(x) must evaluate to finite values"),
            (["lucas", "--p", "1;2"], "lucas",
             "argument --p: malformed polynomial '1;2': expected comma-separated numbers"),
            (["lucas", "--k", "-1"], "lucas", "argument --k: value must be >= 0"),
            (["lucas", "--bogus"], "", "unrecognized arguments: --bogus"),
            (["operator", "--a2", "1e160", "--a3", "0"], None,
             "operator coefficients must be finite: a2, a3, lambda, mu or delta is too large"),
            (["operator", "--lambda", "0.5"], None, "lam must be >= 1"),
            (["member", "--coeffs", "1e200,1e200", "--mu", "3"], None,
             "member values must be finite: coefficients or parameters are too large"),
            (["member", "--r-max", "1.5"], None, "r_max must lie in (0, 1)"),
            (["member", "--radii", "0"], None, "grid resolutions must be >= 1"),
            (["member", "--alpha", "1"], None, "alpha must lie in [0, 1)"),
            (["bounds", "--preset", "caglar", "--delta", "1"], "bounds",
             "--preset caglar pins --delta"),
            (["fekete", "--preset", "mu1", "--mu", "2"], "fekete", "--preset mu1 pins --mu"),
            (["bounds", "--preset", "nope"], "bounds",
             "argument --preset: invalid choice: 'nope' "
             "(choose from 'caglar', 'srivastava', 'bistarlike', 'mu1')"),
            (["bounds", "--lambda", "1:0:3"], "bounds",
             "argument --lambda: range stop must be >= start"),
            (["bounds", "--x", "1:2:0"], "bounds", "argument --x: range steps must be >= 1"),
            # np.linspace warned on these spans and filled the range with inf
            # and nan, which then read "p must be finite" or "upsilon ..."
            (["bounds", "--x=0:inf:3"], "bounds", "argument --x: range span must be finite"),
            (["bounds", "--x=-1e308:1e308:3"], "bounds",
             "argument --x: range span must be finite"),
            (["fekete", "--upsilon=-1e308:1e308:5"], "fekete",
             "argument --upsilon: range span must be finite"),
            (["fekete", "--lambda", "1e160"], "fekete",
             "theta must be finite: lambda, mu or delta is too large"),
            (["verify", "--draws", "0"], None, "verify needs --draws >= 1"),
            (["verify", "--grid-n", "1"], None, "verify needs --grid-n >= 2"),
            (["verify", "--mode", "nope"], "verify",
             "argument --mode: invalid choice: 'nope' (choose from 'paper', 'schwarz')"),
            (["--config", "/no/such", "lucas"], None,
             "cannot read config: [Errno 2] No such file or directory: '/no/such'"),
            (["--config", "{bad}", "lucas"], None, "cannot read config: {bad}:1: expected key=value"),
            (["--config", "{zero}", "verify"], None, "verify needs --draws >= 1"),
            (["--config"], "", "argument --config: expected one argument"),
            ([], "", "the following arguments are required: command"),
            # a one-step range still names its stop, which must be finite too
            (["bounds", "--x=0:inf:1"], "bounds", "argument --x: range span must be finite"),
            (["bounds", "--x=0:nan:1"], "bounds", "argument --x: range span must be finite"),
            (["--config", "{typo}", "verify"], None,
             "cannot read config: {typo}:2: unknown key 'drwas'"),
            # a nan tolerance would fail every check, a nan threshold reject no draw
            (["verify", "--tol", "nan"], "verify", "argument --tol: value must not be nan"),
            (["operator", "--tol", "nan"], "operator", "argument --tol: value must not be nan"),
            (["verify", "--theta-min", "nan"], "verify",
             "argument --theta-min: value must not be nan"),
            # argparse names the type function's __name__
            (["verify", "--tol", "abc"], "verify", "argument --tol: invalid float value: 'abc'"),
            (["verify", "--draws", "abc"], "verify",
             "argument --draws: invalid int value: 'abc'"),
            (["member", "--radii", "x"], "member", "argument --radii: invalid int value: 'x'"),
            # numpy's "expected non-negative integer" named no flag
            (["verify", "--seed", "-1"], "verify", "argument --seed: value must be >= 0"),
            (["operator", "--seed", "-1"], "operator", "argument --seed: value must be >= 0"),
            (["--config", "{seed}", "verify"], "verify", "argument --seed: value must be >= 0"),
            (["verify", "--seed", "abc"], "verify", "argument --seed: invalid int value: 'abc'"),
            # -h's dest is no config key: help=1 used to run and set nothing
            (["--config", "{help}", "lucas"], None,
             "cannot read config: {help}:1: unknown key 'help'"),
        ],
    )
    def test_exact_stderr(self, capsys, tmp_path, argv, command, message):
        files = {name: tmp_path / f"{name}.cfg" for name in ("bad", "zero", "typo", "seed", "help")}
        files["bad"].write_text("just a line without equals\n")
        files["zero"].write_text("draws=0\n")
        files["typo"].write_text("grid-n=3\ndrwas=2\n")
        files["seed"].write_text("seed=-3\n")
        files["help"].write_text("help=1\n")
        argv = [arg.format(**files) for arg in argv]
        code, out, err = run_exit(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        message = message.format(**files)
        if command is None:
            assert err == f"error: {message}\n"
        else:
            parser, subparsers = build_parser()
            usage = (subparsers[command] if command else parser).format_usage()
            prog = f"pqlucas {command}" if command else "pqlucas"
            assert err == f"{usage}{prog}: error: {message}\n"

    def test_unconverged_draws_are_usage_error(self, capsys, monkeypatch):
        # verify --draws 2 --p-min 3 gets here, but only after a long rejection loop
        def give_up(*args, **kwargs):
            raise RuntimeError("rejection sampling did not converge")

        monkeypatch.setattr(cli, "random_inputs", give_up)
        code, out, err = run_exit(capsys, ["verify", "--draws", "2", "--p-min", "3"])
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: rejection sampling did not converge\n"
        )


    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--grid-n", "10000000", "--draws", "1"],
            ["verify", "--grid-n", "10000000", "--draws", "1", "--mode", "schwarz"],
            ["bounds", "--x=0:1:100000000000000"],
        ],
    )
    def test_out_of_memory_is_usage_error(self, argv):
        # Each call needs one array larger than any user address space (728
        # TiB or 10^14 doubles); the child's 2 GiB cap makes it fail at once.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "pqlucas.cli", *argv], capture_output=True, text=True,
            env=env, preexec_fn=cap_address_space, timeout=60,
        )
        assert (result.returncode, result.stdout) == (EXIT_USAGE, "")
        assert "Traceback" not in result.stderr
        assert sum("error:" in line for line in result.stderr.splitlines()) == 1


class TestConfigAndOutput:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        # grid-n is a verify flag: a key any subcommand takes is valid for all
        cfg.write_text("# lucas settings\nk=3\nformat=json\ngrid-n=9\n")
        code, out, _ = run(capsys, ["--config", str(cfg), "lucas"])
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 4

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("k=3\n")
        code, out, _ = run(capsys, ["--config", str(cfg), "lucas", "--k", "2", "--format", "json"])
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 3

    def test_config_dash_underscore_equivalence(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("grid-n=3\ndraws=2\n")
        code, out, _ = run(capsys, ["--config", str(cfg), "verify"])
        assert code == EXIT_OK
        assert "grid_n=3 draws=2" in out

    def test_config_defaults_end_with_their_run(self, capsys, tmp_path):
        _, plain, _ = run(capsys, ["lucas"])
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("k=3\nformat=json\n")
        _, configured, _ = run(capsys, ["--config", str(cfg), "lucas"])
        assert configured != plain
        code, out, _ = run(capsys, ["lucas"])
        assert code == EXIT_OK
        assert out == plain

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
        cli._shared_parser.cache_clear()
        try:
            for _ in range(3):
                run(capsys, ["lucas", "--k", "2"])
        finally:
            cli._shared_parser.cache_clear()
        assert len(built) == 1

    def test_rebound_command_runs(self, capsys, monkeypatch):
        run(capsys, ["lucas", "--k", "1"])  # the shared parser exists now
        monkeypatch.setattr(cli, "cmd_lucas", lambda ns: 7)
        assert main(["lucas", "--k", "1"]) == 7

    def test_abbreviated_config_flag(self, capsys, tmp_path):
        # argparse accepts --conf for --config; the file was ignored before
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("grid-n=3\ndraws=2\n")
        code, out, _ = run(capsys, ["--conf", str(cfg), "verify"])
        assert code == EXIT_OK
        assert "grid_n=3 draws=2" in out

    def test_last_config_flag_wins(self, capsys, tmp_path):
        # as for any argparse option; the first file was loaded before
        first, last = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("k=3\n")
        last.write_text("k=1\nformat=json\n")
        code, out, _ = run(capsys, ["--config", str(first), "--config", str(last), "lucas"])
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) == 2

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, ["--config", "/no/such/file.cfg", "lucas"])
        assert code == EXIT_USAGE
        assert "cannot read config" in err

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("just a line without equals\n")
        code, _, err = run(capsys, ["--config", str(cfg), "lucas"])
        assert code == EXIT_USAGE
        assert "expected key=value" in err

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, ["lucas", "--k", "2"])
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, ["lucas", "--k", "2", "--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        written = target.read_bytes().decode("utf-8")
        assert written == stdout_text
        assert "\r\n" in written

    def test_unwritable_out(self, capsys):
        code, _, err = run(capsys, ["lucas", "--out", "/no/such/dir/out.csv"])
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_out_dir_env_resolves_relative(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PQLUCAS_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, ["lucas", "--k", "1", "--out", "rel.csv"])
        assert code == EXIT_OK
        assert (tmp_path / "rel.csv").exists()

    def test_out_dir_env_ignored_for_absolute(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PQLUCAS_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "abs.csv"
        code, _, _ = run(capsys, ["lucas", "--k", "1", "--out", str(target)])
        assert code == EXIT_OK
        assert target.exists()
