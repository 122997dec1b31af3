"""Expression language and command-line behavior."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import rbshuffle
from rbshuffle import exprs, freerb, hurwitz
from rbshuffle.algebra import (HurwitzHandle, Poly, SampleBudget, ShaHandle,
                               alg_eq, random_element)
from rbshuffle.cli import BENCH_MAX, bench_product, main
from rbshuffle.coeffs import RATIONALS, residues
from rbshuffle.exprs import EvalError, ParseError, eval_text, parse, parse_handle
from rbshuffle.freerb import Tensor, interleavings

Q = RATIONALS
HALF = Q.from_fraction(Fraction(1, 2))


def test_parse_shapes():
    tree = parse("x # 1 + 2*(y # y)")
    assert isinstance(tree, exprs.BinOp) and tree.op == "#"
    call = parse("P(x # y)")
    assert isinstance(call, exprs.Call) and call.fn == "P"
    with pytest.raises(ParseError) as err:
        parse("x +")
    assert err.value.col == 4
    with pytest.raises(ParseError):
        parse("frobnicate(x)")
    with pytest.raises(ParseError):
        parse("x $ y")


def test_eval_prepend_on_tensors():
    h = parse_handle("sha(poly(x,y))", Q, HALF, 4)
    out = eval_text("P(x)", h)
    x = Poly.variable(h.inner, "x")
    one = Poly.one(h.inner)
    assert out == Tensor.from_factors(h, (one, x))


def test_eval_worked_example_with_units():
    h = parse_handle("sha(poly(x,y))", Q, HALF, 4)
    out = eval_text("(x # 1) * (y # 1 # 1)", h)
    x = Poly.variable(h.inner, "x")
    y = Poly.variable(h.inner, "y")
    one = Poly.one(h.inner)
    expect = (Tensor.from_factors(h, (x * y, one, one, one), Q.from_int(3))
              + Tensor.from_factors(h, (x * y, one, one)))
    assert out == expect


def test_eval_counit_with_integration():
    h = parse_handle("sha(poly(x))", Q, Q.zero(), 4)
    x = Poly.variable(h.inner, "x")
    assert eval_text("eps(x)", h) == x
    assert eval_text("eps(1 # x)", h) == (x * x).scale(HALF)


def test_eval_type_errors_carry_spans():
    h = parse_handle("sha(poly(x))", Q, Q.zero(), 4)
    with pytest.raises(EvalError):
        eval_text("beta(x)", h)             # factors are not series
    with pytest.raises(EvalError):
        eval_text("z + 1", h)               # unknown variable
    with pytest.raises(EvalError):
        eval_text("P(eps(x))", h)           # descending map not at top level
    hh = parse_handle("hur(poly(x),4)", Q, Q.zero(), 4)
    with pytest.raises(EvalError):
        eval_text("x # 1", hh)              # no tensor layer on a series carrier
    # nothing left to shift: partial, or D as the shift, on a series or
    # inside a tensor factor, fails at the call that shifts
    h2, sh = (parse_handle(t, Q, Q.zero(), 4) for t in ("hur(poly(x),2)", "sha(hur(poly(x),2))"))
    for text, carrier, col in (("partial([x])", hh, 1), ("D([x])", h2, 1),
                               ("D([x] # [1; x])", sh, 1), ("D([x])", sh, 1),
                               ("[1; x] + D([x])", h2, 10), ("[1; x] * D([x])", sh, 10)):
        with pytest.raises(EvalError, match=f"^line 1, col {col}: cannot shift a precision-0"):
            eval_text(text, carrier)


def test_eval_mu_and_beta_shapes():
    s2 = parse_handle("sha(sha(poly(x)))", Q, HALF, 4)
    out = eval_text("mu(eta(x # 1) # eta(1 # x))", s2)
    assert out.handle == s2.inner
    sh = parse_handle("sha(hur(poly(x),4))", Q, HALF, 4)
    series = eval_text("beta([x; 1; 0; 0; 0] # [1; x; 0; 0; 0])", sh)
    assert series.handle == HurwitzHandle(ShaHandle(sh.inner.inner), 4)
    assert series.precision == 4


def test_handle_parsing():
    h = parse_handle("hur(sha(poly(x,y)),3)", Q, Q.zero(), 4)
    assert isinstance(h, HurwitzHandle) and h.precision == 3
    assert parse_handle("hur(poly(x))", Q, Q.zero(), 4).precision == 4
    with pytest.raises(ParseError):
        parse_handle("ring(x)", Q, Q.zero(), 4)
    with pytest.raises(ValueError):
        parse_handle("sha(sha(sha(sha(poly(x)))))", Q, Q.zero(), 4)


ROUND_TRIP_HANDLES = ("poly(x,y)", "sha(poly(x,y))", "hur(poly(x,y),4)",
                      "sha(hur(poly(x),4))", "hur(sha(poly(x)),4)",
                      "sha(sha(poly(x)))", "hur(hur(poly(x),2),2)")


@pytest.mark.parametrize("spec", ROUND_TRIP_HANDLES)
def test_print_parse_round_trip(spec):
    handle = parse_handle(spec, Q, HALF, 4)
    rng = random.Random(17)
    budget = SampleBudget(max_tensor_len=2, max_terms=2)
    for _ in range(500):
        element = random_element(handle, budget, rng)
        again = eval_text(str(element), handle)
        assert alg_eq(element, again), f"{element} reparsed as {again}"


def test_print_parse_round_trip_residue_ring():
    ring = residues(5)
    handle = parse_handle("sha(poly(x,y))", ring, ring.one(), 4)
    rng = random.Random(23)
    for _ in range(200):
        element = random_element(handle, SampleBudget(), rng)
        assert alg_eq(element, eval_text(str(element), handle))


def _delannoy(m, n):
    return sum(comb(m, k) * comb(n, k) * 2 ** k for k in range(min(m, n) + 1))


def test_bench_counts_match_brute_force():
    for lam in (Q.zero(), Q.one(), HALF):
        for m in range(6):
            for n in range(6):
                report = bench_product(m, n, Q, lam)
                weaves = list(interleavings(tuple(range(m)), tuple(range(m, m + n))))
                assert report["top_terms"] == len(weaves) == report["top_expected"]
                assert report["strata_ok"] and report["bad_coefficients"] == 0
                assert report["total_terms"] == (len(weaves) if lam.is_zero
                                                 else _delannoy(m, n))
                assert report["us_per_term"] > 0
    # a weight whose square is zero empties every stratum with two merges
    z4 = residues(4)
    report = bench_product(3, 3, z4, z4.from_int(2))
    assert report["strata_ok"]
    assert report["terms_by_length"] == {"6": 30, "7": 20}


def test_bench_gate_trips_on_wrong_merge_weight(monkeypatch, capsys):
    monkeypatch.setattr(freerb, "_merge_weight",
                        lambda handle: handle.weight + handle.ring.one())
    report = bench_product(2, 2, Q, Q.one())
    assert not report["strata_ok"] and report["bad_coefficients"] > 0
    assert report["terms_by_length"] == report["expected_by_length"]
    assert main(["bench", "-m", "2", "-n", "2"]) == 1
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("ring,lam,kernel", [("q", "1/2", "newton"), ("q", "0", "rows"),
                                              ("zmod:4", "2", "newton"), ("z", "-3", "newton")])
def test_bench_series_matches_the_closed_form(ring, lam, kernel, capsys):
    assert main(["bench", "--series", "16", "--ring", ring, f"--lambda={lam}", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matches_closed_form"] and report["kernel"] == kernel
    assert report["precision"] == 16 and report["elapsed_ms"] > 0 and report["peak_rss_mb"] > 0
    assert main(["bench", "--series", "0"]) == 0  # 1 * 1: one term pair, below packing's cost
    assert "kernel term by term" in capsys.readouterr().out


def test_bench_series_gate_trips_on_a_wrong_weight_power(monkeypatch, capsys):
    original = hurwitz._lambda_power
    monkeypatch.setattr(hurwitz, "_lambda_power", lambda lam, k: original(lam + lam.ring.one(), k))
    assert main(["bench", "--series", "4", "--lambda", "1/2"]) == 1
    assert "differs from the closed form" in capsys.readouterr().err
    for n in ("-1", "65"):
        assert main(["bench", "--series", n]) == 2


def test_check_exits_1_on_a_broken_law(monkeypatch, capsys):
    monkeypatch.setattr(freerb, "_merge_weight",
                        lambda handle: handle.weight + handle.ring.one())
    assert main(["check", "--suite", "worked_example", "--json"]) == 1
    report, = json.loads(capsys.readouterr().out)["reports"]
    assert not report["passed"]
    assert {"index", "weight", "law", "lhs", "rhs"} <= set(report["counterexample"])
    assert report["counterexample"]["lhs"] != report["counterexample"]["rhs"]


def test_bench_rejects_precision():
    assert main(["bench", "--precision", "3"]) == 2


@pytest.mark.parametrize("argv", [["eval", "--handle", "poly(x)", "--bogus", "x"],
                                  ["check", "--bogus"]], ids=["eval", "check"])
def test_unknown_option_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0] == "error: unrecognized arguments: --bogus"


def test_extra_argument_returns_2_with_one_line(capsys):
    # an argument after the expression is a usage error that main returns,
    # as it returns every other, rather than raising SystemExit
    assert main(["eval", "--handle", "poly(x)", "--", "x", "-2/3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: unrecognized arguments: -2/3"]


@pytest.mark.parametrize("argv,message", [
    (["eval", "x"], "the following arguments are required: --handle"),
    (["check", "--precision", "x"], "argument --precision: invalid int value: 'x'"),
], ids=["eval-no-handle", "check-precision-not-int"])
def test_argparse_errors_exit_2_with_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {message}"]


def test_options_match_whole_names_only(capsys):
    # "--j" is no abbreviation of --json: it fills the expression, -(-j)
    assert main(["eval", "--handle", "poly(j)", "--j"]) == 0
    assert capsys.readouterr().out.strip() == "j"
    # after --, even -h is an expression
    assert main(["eval", "--handle", "poly(h)", "--", "-h"]) == 0
    assert capsys.readouterr().out.strip() == "-h"
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "--hand", "poly(x)", "x"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--handle", "poly(x)", "1/0"],
    ["eval", "--handle", "poly(x)", "--lambda", "1/0", "x"],
    ["check", "--precision", "-1", "--suite", "hurwitz_algebra"],
    ["eval", "--handle", "poly(x)"],
    ["eval", "--handle", "poly(x,y)", "P(x, y)"],
    ["check", "--precision", "0"],
], ids=["eval-literal", "eval-weight", "check-precision", "eval-no-expression",
        "call-of-two-arguments", "check-precision-zero"])
def test_bad_input_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv,printed", [
    (["eval", "--handle", "poly(x)", "--", "x"], "x"),
    (["bench", "-m", "1", "-n", "1"], "lengths 2 x 2"),
    (["repl", "--handle", "poly(x)"], "carrier poly(x)"),
], ids=["eval", "bench", "repl"])
def test_malformed_rb_seed_is_read_only_by_check(argv, printed, monkeypatch, capsys):
    monkeypatch.setenv("RB_SEED", "abc")
    monkeypatch.setattr("builtins.input", lambda prompt="": ":quit")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(printed) and captured.err == ""


def test_malformed_rb_seed_fails_check_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("RB_SEED", "abc")
    assert main(["check", "--suite", "worked_example"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: RB_SEED must be an integer, got 'abc'"]
    # --seed overrides the variable, which is then never read
    assert main(["check", "--suite", "worked_example", "--seed", "7"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("RB_SEED", "5")
    assert main(["check", "--suite", "worked_example", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


@pytest.mark.parametrize("handle,expr", [("poly(x)", "-x"), ("sha(poly(x,y))", "-(x # y)"),
                                         ("poly(x)", "-2/5*x")])
def test_leading_minus_is_an_expression(handle, expr, capsys):
    # argparse takes "-x" for an unknown option; it still fills the expression
    assert main(["eval", "--handle", handle, expr]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == expr and captured.err == ""


def test_weighted_derivation_needs_no_unit_weight(capsys):
    # the closed form divides by nothing: 2 is no unit mod 4, yet D is defined
    assert main(["check", "--ring", "zmod:4", "--lambda", "2",
                 "--suite", "lambda_leibniz"]) == 0
    capsys.readouterr()
    for expr, printed in (("D(x^2)", "2*x + 2"), ("D(x)", "1")):
        assert main(["eval", "--ring", "zmod:4", "--lambda", "2",
                     "--handle", "poly(x)", expr]) == 0
        assert capsys.readouterr().out.strip() == printed


def test_check_on_zmod6_cycles_a_unit_weight(capsys):
    argv = ["check", "--ring", "zmod:6", "--json", "--suite", "lambda_leibniz",
            "--suite", "higher_leibniz", "--suite", "drb"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambdas"] == ["0", "1", "5"]
    assert all(r["passed"] for r in out["reports"])


@pytest.mark.parametrize("argv", [
    ["eval", "--handle", "poly(x)", "(" * 3000 + "x" + ")" * 3000],
    ["eval", "--handle", "poly(x)", "0+" + "-" * 3000],
    ["eval", "--handle", "sha(" * 3000 + "poly(x)" + ")" * 3000, "x"],
    ["eval", "--handle", "poly(x)", "x^99999999"],
    ["eval", "--handle", "poly(x)", "((x^40)^40)^40"],
    ["eval", "--handle", "hur(poly(x),100000)", "x*x"],
    ["eval", "--precision", "100000", "--handle", "hur(poly(x))", "x*x"],
    ["check", "--precision", "100000", "--suite", "hurwitz_algebra"],
    ["eval", "--handle", "hur(poly(x),2)", "[" + ";".join(["1"] * 66) + "] * [1]"],
    ["eval", "--lambda", "1", "--handle", "sha(poly(x,y))", "(x # y # 1 # x)^5"],
    ["eval", "--lambda", "1", "--handle", "hur(sha(poly(x,y)),1)", "[x # y # 1 # x; 0]^5"],
], ids=["parentheses", "unary-minus", "carrier-nesting", "exponent",
        "nested-exponents", "handle-precision", "eval-precision", "check-precision",
        "series-literal", "tensor-terms", "series-of-tensor-terms"])
def test_input_budgets_exit_2_promptly(argv):
    # a fresh interpreter under a timeout, so a lost budget fails instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(rbshuffle.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "rbshuffle", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("op,printed", [("+", "3000*x"), ("*", "x^3000")], ids=["sum", "product"])
def test_flat_operator_chain_evaluates_without_recursion(op, printed):
    # 3,000 operands at one precedence level, each a separate binary node
    env = dict(os.environ, PYTHONPATH=str(Path(rbshuffle.__file__).resolve().parents[1]))
    src = op.join(["x"] * 3000)
    done = subprocess.run([sys.executable, "-m", "rbshuffle", "eval", "--handle", "poly(x)", src],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.strip() == printed


def test_operator_chains_associate_left():
    h = parse_handle("sha(poly(x,y))", Q, Q.zero(), 4)
    x, y = (Poly.variable(h.inner, v) for v in "xy")
    one = Tensor.one(h)
    tx, ty = Tensor.from_factors(h, (x,)), Tensor.from_factors(h, (y,))
    assert eval_text("x - y + x - 1 - y", h) == tx + tx - ty - ty - one
    assert eval_text("x # y - x # 1 * y", h) == Tensor.from_factors(h, (x, y - x, y))
    assert eval_text("y # x # y * x # 1", h) == Tensor.from_factors(
        h, (y, x, y * x, Poly.one(h.inner)))


def test_input_budgets_admit_their_limits():
    h = parse_handle("poly(x)", Q, Q.zero(), 4)
    x = Poly.variable(h, "x")
    depth = exprs.MAX_PARSE_DEPTH
    assert eval_text("(" * depth + "x" + ")" * depth, h) == x
    assert eval_text("-" * depth + "x", h) == x
    hh = parse_handle("hur(poly(x))", Q, Q.zero(), 4)
    lifted = eval_text("P(" * (depth - 1) + "[x]" + ")" * (depth - 1), hh)
    assert lifted.precision == depth - 1
    for src in ("(" * (depth + 1) + "x" + ")" * (depth + 1), "-" * (depth + 1) + "x"):
        with pytest.raises(ParseError):
            parse(src)
    top = exprs.MAX_EXPONENT
    assert eval_text(f"(x^2)^{top // 2}", h) == Poly.monomial(h, (top,))
    for src in (f"x^{top + 1}", f"(x^2 + 1)^{top // 2 + 1}", f"x^2^{top // 2 + 1}",
                f"[x^0^{top + 1}]"):
        with pytest.raises(ParseError):
            parse(src)
    n = exprs.MAX_PRECISION
    assert parse_handle(f"hur(poly(x),{n})", Q, Q.zero(), 4).precision == n
    with pytest.raises(ParseError):
        parse_handle(f"hur(poly(x),{n + 1})", Q, Q.zero(), 4)
    with pytest.raises(ParseError):
        parse_handle("hur(poly(x))", Q, Q.zero(), n + 1)
    assert eval_text("[" + ";".join(["1"] * (n + 1)) + "]", hh).precision == n
    # D(8, 8) = 265,729 words bound a product of two length-9 tensors
    sh = parse_handle("sha(poly(x))", Q, Q.one(), 4)
    nine = " # ".join(["1"] * 9)
    square = eval_text(f"({nine}) * ({nine})", sh)
    assert square.lengths() == {k: 1 for k in range(9, 18)}
    with pytest.raises(EvalError, match="above 300000"):
        eval_text(f"({nine}) * ({nine} # 1)", sh)
    # a series product sums the bound over its value pairs: the fourth
    # product below may form 255,735 tensor terms, the fifth 14,514,241
    hs = parse_handle("hur(sha(poly(x,y)),1)", Q, Q.one(), 4)
    power = eval_text("[x # y # 1 # x; 0]^4", hs)
    assert len(power.values[0].terms) > 1 and power.values[1].is_zero
    nested = parse_handle("hur(hur(sha(poly(x)),1),1)", Q, Q.one(), 4)
    with pytest.raises(EvalError, match="above 300000"):
        eval_text(f"[[{nine}]] * [[{nine} # 1]]", nested)


@pytest.mark.parametrize("spec,precision,col", (("hur(poly(x),99)", 4, 13),
                                                ("sha(hur(poly(x),99))", 4, 17),
                                                ("hur(poly(x))", 99, 1)))
def test_precision_error_points_at_its_number(spec, precision, col):
    # a written precision is blamed on its digits, a --precision on the hur
    with pytest.raises(ParseError) as err:
        parse_handle(spec, Q, Q.zero(), precision)
    assert err.value.col == col and "precision 99 is above" in str(err.value)


@pytest.mark.parametrize("ring,a,b", ((Q, 1, -1), (residues(6), 2, 4)), ids=str)
def test_tensor_concatenation_with_cancelling_pieces(ring, a, b):
    # a + b = 0 in the ring: x # (y # z) and (x # y) # z are the same word
    h = parse_handle("sha(poly(x,y,z))", ring, ring.zero(), 4)
    out = eval_text(f"({a}*x + (x # y)) # ((y # z) + {b}*z)", h)
    x, y, z = (Poly.variable(h.inner, v) for v in "xyz")
    assert out == (Tensor.from_factors(h, (x, z), ring.from_int(a * b))
                   + Tensor.from_factors(h, (x, y, y, z)))
    assert out.lengths() == {2: 1, 4: 1}


def test_cli_eval_and_exit_codes(capsys):
    assert main(["eval", "--handle", "sha(poly(x,y))", "P(x)"]) == 0
    assert capsys.readouterr().out.strip() == "1 # x"
    assert main(["eval", "--handle", "sha(poly(x))", "x +"]) == 2
    assert main(["eval", "--handle", "nope(x)", "x"]) == 2
    assert main(["eval", "--ring", "zmod:1", "--handle", "poly(x)", "x"]) == 2
    assert main(["bench", "-m", str(BENCH_MAX + 1), "-n", "1"]) == 2
    assert main(["check", "--suite", "nosuch"]) == 2


def test_cli_eval_json(capsys):
    assert main(["eval", "--json", "--lambda", "1/2",
                 "--handle", "hur(poly(x),2)", "[x; 1; 0] * [1; x; x]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "rb-shuffle/1"
    assert payload["weight"] == "1/2"
    assert payload["value"]["precision"] == 2


def test_cli_check_named_suite(capsys):
    assert main(["check", "--suite", "worked_example", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "worked_example" in out


def test_cli_check_json_payload(capsys):
    assert main(["check", "--json", "--seed", "7",
                 "--suite", "worked_example", "--suite", "shuffle_counts"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "rb-shuffle/1"
    assert [r["law"] for r in payload["reports"]] == ["worked_example",
                                                      "shuffle_counts"]
    assert all(r["passed"] for r in payload["reports"])
    assert all("wall" not in key for r in payload["reports"] for key in r)


def test_cli_check_single_weight(capsys):
    assert main(["check", "--lambda", "1", "--suite", "hurwitz_algebra",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["check", "--lambda", "nonsense", "--suite", "hurwitz_algebra"]) == 2


def test_cli_takes_a_negative_fraction_as_the_weight(capsys):
    # argparse alone reads "-2/3" after --lambda as an option
    argv = ["--handle", "sha(poly(x))", "--json", "--", "(x # 1) * (x # 1)"]
    assert main(["eval", "--lambda=-2/3"] + argv) == 0
    joined = capsys.readouterr().out
    assert main(["eval", "--lambda", "-2/3"] + argv) == 0
    assert capsys.readouterr().out == joined
    assert json.loads(joined)["weight"] == "-2/3"
    assert main(["check", "--lambda", "-2/3", "--json", "--seed", "3",
                 "--suite", "lambda_leibniz"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambdas"] == ["-2/3"] and payload["reports"][0]["passed"]
    assert main(["bench", "-m", "2", "-n", "2", "--lambda", "-2/3"]) == 0
    assert "weight -2/3" in capsys.readouterr().out
    # the weight is still parsed in the ring
    assert main(["eval", "--ring", "z", "--lambda", "-2/3", "--handle", "poly(x)", "x"]) == 2
    assert "bad weight '-2/3'" in capsys.readouterr().err


def test_cli_bench_text(capsys):
    assert main(["bench", "-m", "1", "-n", "2", "--lambda", "0"]) == 0
    out = capsys.readouterr().out
    assert "top stratum 3 (expected 3)" in out
    assert "peak RSS" in out and "MB (whole process)" in out
    assert main(["bench", "-m", "1", "-n", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["peak_rss_mb"] > 0


def test_cli_repl(monkeypatch, capsys):
    lines = iter(["P(x)", ":handle sha(poly(x,y))", "x # y", "bad +", ":quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["repl", "--handle", "sha(poly(x))"]) == 0
    out = capsys.readouterr().out
    assert "1 # x" in out and "x # y" in out and "error" in out
