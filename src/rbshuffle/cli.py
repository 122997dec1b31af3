"""Command-line front end: evaluate expressions, run law suites, benchmark.

Exit codes: 0 success, 1 law failure, 2 usage or parse error.  The RB_SEED
environment variable overrides the default law-suite seed; only check reads
it, and a value that is not an integer exits 2.  All JSON output carries a
top-level {"schema": "rb-shuffle/1"} tag; the check command's JSON is
byte-stable for a fixed (seed, configuration).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from math import comb, factorial

from . import algebra, exprs, laws
from .algebra import HurwitzHandle, Poly, poly_handle
from .coeffs import Ring, RingError, Scalar, parse_ring, parse_scalar
from .exprs import EvalError, ParseError
from .freerb import Tensor, distinct_symbol_factors
from .hurwitz import Series

SCHEMA = "rb-shuffle/1"
BENCH_MAX = 9
# bench --series: the exponents and coefficients of a and b in x
SERIES_OPERANDS = ({0: 1, 1: 2, 2: -1}, {0: 2, 1: -1, 2: 3})


def _json_print(obj: dict) -> None:
    obj = {"schema": SCHEMA, **obj}
    print(json.dumps(obj, sort_keys=True))


def _ring_of(args) -> Ring:
    try:
        return parse_ring(args.ring)
    except (RingError, ValueError) as e:
        raise SystemExit(_usage_error(str(e)))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _weight(text: str, ring: Ring) -> Scalar:
    try:
        return parse_scalar(text, ring)
    except (RingError, ValueError, ZeroDivisionError) as e:
        raise SystemExit(_usage_error(f"bad weight {text!r}: {e}"))


def _declared_handle(args, ring: Ring):
    lam = _weight(args.weight if args.weight is not None else "0", ring)
    try:
        return exprs.parse_handle(args.handle, ring, lam, args.precision)
    except (ParseError, ValueError) as e:
        raise SystemExit(_usage_error(f"bad handle {args.handle!r}: {e}"))


def cmd_eval(args) -> int:
    if args.expr is None:
        return _usage_error("an expression is required")
    ring = _ring_of(args)
    handle = _declared_handle(args, ring)
    try:
        value = exprs.eval_text(args.expr, handle)
    except (ParseError, EvalError, ValueError) as e:
        return _usage_error(str(e))
    except ZeroDivisionError:
        return _usage_error(f"division by zero in {args.expr!r}")
    if args.json:
        _json_print({"handle": str(value.handle), "ring": str(ring),
                     "weight": str(handle.weight), "value": value.to_json()})
    else:
        print(value)
    return 0


def cmd_repl(args) -> int:
    ring = _ring_of(args)
    handle = _declared_handle(args, ring)
    print(f"carrier {handle}; :handle H switches, :quit leaves")
    while True:
        try:
            line = input("rb> ").strip()
        except EOFError:
            print()
            return 0
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        if line.startswith(":handle"):
            spec = line[len(":handle"):].strip()
            try:
                handle = exprs.parse_handle(spec, ring, handle.weight, args.precision)
                print(f"carrier {handle}")
            except (ParseError, ValueError) as e:
                print(f"error: {e}")
            continue
        try:
            print(exprs.eval_text(line, handle))
        except (ParseError, EvalError, ValueError, ZeroDivisionError) as e:
            print(f"error: {e}")
    return 0


def cmd_check(args) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("RB_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            return _usage_error(f"RB_SEED must be an integer, got {text!r}")
    ring = _ring_of(args)
    lambdas = None
    if args.weight is not None:
        _weight(args.weight, ring)
        lambdas = (args.weight,)
    cfg = laws.SampleConfig.for_ring(ring, lambdas, args.precision)
    names = args.suite or None
    try:
        reports = laws.run_all(seed, cfg, names)
    except KeyError as e:
        return _usage_error(e.args[0])
    if args.json:
        _json_print({"seed": seed, "ring": str(ring),
                     "lambdas": list(cfg.lambdas),
                     "reports": [r.to_json() for r in reports]})
    else:
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.law:26s} samples={r.samples:4d} {r.wall_ms:8.1f} ms")
            if not r.passed:
                for k, v in r.counterexample.items():
                    print(f"     {k}: {v}")
        failed = sum(1 for r in reports if not r.passed)
        print(f"{len(reports) - failed}/{len(reports)} suites passed")
    return 0 if all(r.passed for r in reports) else 1


def bench_product(m: int, n: int, ring: Ring, lam: Scalar) -> dict:
    """Time one pure-tensor product of lengths m+1 and n+1 over distinct
    symbols and check every stratum of it.  The terms with k merges have
    length m+n+1-k; there are (m+n-k)!/(k!(m-k)!(n-k)!) of them, each with
    coefficient lam^k, and none where lam^k is zero."""
    s, av, bv = distinct_symbol_factors(m, n, ring, lam)
    left, right = Tensor.from_factors(s, av), Tensor.from_factors(s, bv)
    started = time.perf_counter()
    product = left * right
    elapsed_ms = (time.perf_counter() - started) * 1e3
    by_length = product.lengths()
    total = sum(by_length.values())
    # Stored values share Scalar.value's canonical form (Ring.reduce); a Scalar
    # per term through .terms would add ~1 s to this untimed check at 8x8.
    weights = {k: lam.pow_nat(k).value for k in range(min(m, n) + 1)}
    expected = {m + n + 1 - k: factorial(m + n - k)
                // (factorial(k) * factorial(m - k) * factorial(n - k))
                for k, w in weights.items() if w}
    bad = sum(1 for t, c in product._bare.items()
              if weights.get(m + n + 1 - len(t)) != c)
    return {"m": m, "n": n, "weight": str(lam),
            "total_terms": total,
            "terms_by_length": {str(k): v for k, v in sorted(by_length.items())},
            "expected_by_length": {str(k): v for k, v in sorted(expected.items())},
            "bad_coefficients": bad,
            "strata_ok": by_length == expected and bad == 0,
            "top_terms": by_length.get(m + n + 1, 0), "top_expected": comb(m + n, n),
            "elapsed_ms": round(elapsed_ms, 3),
            "us_per_term": round(elapsed_ms * 1e3 / max(total, 1), 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def bench_series(n: int, ring: Ring, lam: Scalar) -> dict:
    """Time one product e_a * e_b on hur(poly(x), n), e_a the series
    k -> a^k, and check it against the closed form e_c, c = a + b + lam*a*b:
    the shift is a lam-derivation, so it maps e_a e_b to c * e_a e_b.  The
    report names the way the polynomial kernel went: by the Newton
    transform, by packed pair-table rows, or term by term."""
    h = poly_handle(("x",), ring, lam)
    a, b = (Poly(h, {(e,): ring.from_int(c) for e, c in t.items()}) for t in SERIES_OPERANDS)

    def exponential(p: Poly) -> Series:
        values = [Poly.one(h)]
        for _ in range(n):
            values.append(values[-1] * p)
        return Series(HurwitzHandle(h, n), values)
    left, right = exponential(a), exponential(b)
    calls = {"_newton_rows": 0, "_key_products": 0}
    real = {name: getattr(algebra, name) for name in calls}

    def counted(name):
        def run(*args):
            calls[name] += 1
            return real[name](*args)
        return run
    try:
        for name in calls:
            setattr(algebra, name, counted(name))
        started = time.perf_counter()
        product = left * right
        elapsed_ms = (time.perf_counter() - started) * 1e3
    finally:
        for name, fn in real.items():
            setattr(algebra, name, fn)
    ok = product == exponential(a + b + (a * b).scale(lam))
    kernel = ("newton" if calls["_newton_rows"] else
              "term by term" if calls["_key_products"] else "rows")
    return {"precision": n, "weight": str(lam), "a": str(a), "b": str(b),
            "kernel": kernel, "matches_closed_form": ok, "elapsed_ms": round(elapsed_ms, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def cmd_bench_series(args) -> int:
    if not 0 <= args.series <= exprs.MAX_PRECISION:
        return _usage_error(f"series precision must be between 0 and {exprs.MAX_PRECISION}")
    ring = _ring_of(args)
    lam = _weight(args.weight if args.weight is not None else "1", ring)
    report = bench_series(args.series, ring, lam)
    if args.json:
        _json_print(report)
    else:
        print(f"e_a * e_b at precision {args.series}, weight {report['weight']}: "
              f"{report['elapsed_ms']:.2f} ms, kernel {report['kernel']}")
        print(f"  a = {report['a']}, b = {report['b']}")
        print(f"  equals e_c, c = a + b + weight*a*b: {report['matches_closed_form']}")
        print(f"  peak RSS {report['peak_rss_mb']:.1f} MB (whole process)")
    if not report["matches_closed_form"]:
        print("error: the product differs from the closed form e_c", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    if args.series is not None:
        return cmd_bench_series(args)
    if args.m > BENCH_MAX or args.n > BENCH_MAX or args.m < 0 or args.n < 0:
        return _usage_error(f"tensor tail lengths must be between 0 and {BENCH_MAX}")
    ring = _ring_of(args)
    lam = _weight(args.weight if args.weight is not None else "1", ring)
    report = bench_product(args.m, args.n, ring, lam)
    if args.json:
        _json_print(report)
    else:
        print(f"lengths {args.m + 1} x {args.n + 1}, weight {report['weight']}: "
              f"{report['total_terms']} terms in {report['elapsed_ms']:.2f} ms "
              f"({report['us_per_term']:.1f} us/term)")
        got, want = report["terms_by_length"], report["expected_by_length"]
        for k in sorted(got.keys() | want.keys(), key=int):
            print(f"  length {k}: {got.get(k, 0)} (expected {want.get(k, 0)})")
        print(f"  top stratum {report['top_terms']} (expected {report['top_expected']})")
        print(f"  peak RSS {report['peak_rss_mb']:.1f} MB (whole process)")
        if report["bad_coefficients"]:
            print(f"  {report['bad_coefficients']} terms with a coefficient other than "
                  f"weight^merges")
    if not report["strata_ok"]:
        print("error: stratum count or coefficient mismatch", file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports its errors as one ``error:`` line (exit 2) and matches only
    whole option names, so that an expression such as "--j" is never taken
    for an abbreviation of ``--json``.  A negative weight after ``--lambda``
    is its value: argparse takes only negative ints and decimals for values,
    so "--lambda -2/3" is read as "--lambda=-2/3"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for a in sys.argv[1:] if args is None else args:
            if joined[-1:] == ["--lambda"] and a[:1] == "-" and a[1:2].isdigit() \
                    and "--" not in joined:
                joined[-1] += "=" + a
            else:
                joined.append(a)
        return super().parse_known_args(joined, namespace)

    def error(self, message: str):
        raise SystemExit(_usage_error(message))


def _add_common(p: argparse.ArgumentParser, with_handle: bool,
                with_precision: bool = True) -> None:
    p.add_argument("--ring", default="q", help="coefficient ring: q, z, or zmod:M")
    p.add_argument("--lambda", dest="weight", default=None, metavar="VALUE",
                   help="weight, e.g. 0, 1, 1/2, -2/3 (default 0; check cycles defaults)")
    if with_precision:
        p.add_argument("--precision", type=int, default=4,
                       help="working precision for series carriers (default 4)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if with_handle:
        p.add_argument("--handle", required=True,
                       help='carrier, e.g. "sha(poly(x,y))" or "hur(poly(x),4)"')


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rbshuffle",
        description="Exact tensor, series, and distributive-law calculator "
                    "with a machine-checked law suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression on a carrier")
    _add_common(p_eval, with_handle=True)
    p_eval.add_argument("expr", nargs="?",
                        help='expression, e.g. "P(x # y) + 2*(x # 1)"; put -- '
                             'before an expression that is exactly -h')
    p_eval.set_defaults(fn=cmd_eval)

    p_check = sub.add_parser("check", help="run law suites")
    _add_common(p_check, with_handle=False)
    p_check.add_argument("--suite", action="append", metavar="NAME",
                         help="run only the named suite (repeatable)")
    p_check.add_argument("--seed", type=int,
                         help="master seed (default RB_SEED or 0)")
    p_check.set_defaults(fn=cmd_check)

    p_bench = sub.add_parser("bench", help="profile one pure-tensor or series product")
    _add_common(p_bench, with_handle=False, with_precision=False)
    p_bench.add_argument("-m", type=int, default=3, help=f"left tail length (<= {BENCH_MAX})")
    p_bench.add_argument("-n", type=int, default=3, help=f"right tail length (<= {BENCH_MAX})")
    p_bench.add_argument("--series", type=int, metavar="N",
                         help="instead, time and check one series product e_a*e_b at "
                              f"precision N (<= {exprs.MAX_PRECISION})")
    p_bench.set_defaults(fn=cmd_bench)

    p_repl = sub.add_parser("repl", help="interactive evaluator")
    _add_common(p_repl, with_handle=True)
    p_repl.set_defaults(fn=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extras = build_parser().parse_known_args(argv)
    if extras and getattr(args, "expr", "") is None:
        # argparse reads an expression with a leading minus, such as "-x",
        # as an unknown option; the first one fills the empty expression
        args.expr = extras.pop(0)
    if extras:
        return _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    low, high = (1 if args.command == "check" else 0), exprs.MAX_PRECISION  # laws shift series
    if "precision" in args and not low <= args.precision <= high:
        return _usage_error(f"precision must be {low} to {high}, got {args.precision}")
    try:
        return args.fn(args)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
