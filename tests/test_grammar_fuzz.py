"""Random expressions through ``cli.main``: each exits 0 or 2 with nothing
escaping, and the value printed on exit 0 evaluates back to an equal value.

The expressions are small and mostly well formed, with a few tokens that
the carrier rejects (an unknown variable, ``1/0``, ``#`` off a tensor
carrier, an operator that belongs to another carrier).  They go into argv
with no ``--`` before them, so one that starts with ``-`` must still be read
as the expression, not as an option.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from rbshuffle.cli import main
from rbshuffle.coeffs import parse_ring, parse_scalar
from rbshuffle.exprs import eval_text, parse_handle

WEIGHTS = {"q": ("0", "1", "1/2", "-1"), "zmod:6": ("0", "1", "2", "5")}


def _atoms(names: tuple) -> st.SearchStrategy:
    valid = st.sampled_from(("0", "1", "2", "3", "1/5", "-2/5") + names)
    return st.one_of(valid, valid, valid, valid, st.sampled_from(("z", "1/0", "1/2")))


def _grow(calls: tuple, ops: tuple):
    def extend(sub):
        return st.one_of(
            sub.map("-{}".format),
            st.tuples(st.sampled_from(calls), sub).map("{0[0]}({0[1]})".format),
            st.tuples(sub, st.sampled_from(ops), sub).map("({0[0]} {0[1]} {0[2]})".format),
            st.tuples(sub, st.integers(0, 2)).map("({0[0]})^{0[1]}".format))
    return extend


def _expressions(atoms, calls: tuple, ops: tuple) -> st.SearchStrategy:
    return st.recursive(atoms, _grow(calls, ops), max_leaves=5)


_POLY_XY = _expressions(_atoms(("x", "y")), ("P", "D", "P", "D", "eta"),
                       ("+", "-", "*", "+", "-", "*", "#"))
_POLY_X = _expressions(_atoms(("x",)), ("P", "D"), ("+", "-", "*"))
_SHA = _expressions(_atoms(("x",)), ("P", "D", "eta", "P", "D", "eta", "eps"),
                    ("+", "-", "*", "#"))
_SERIES_LITERAL = st.lists(_POLY_X, min_size=1, max_size=4).map(
    lambda items: "[" + "; ".join(items) + "]")
_HUR = _expressions(st.one_of(_atoms(("x",)), _SERIES_LITERAL),
                    ("P", "D", "partial", "P", "D", "partial", "eps"),
                    ("+", "-", "*", "+", "-", "*", "#"))

CASES = st.one_of(
    st.tuples(st.just("poly(x,y)"), _POLY_XY),
    st.tuples(st.just("sha(poly(x))"), _SHA),
    st.tuples(st.just("hur(poly(x),3)"), _HUR))


@settings(max_examples=400, deadline=timedelta(seconds=10), derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow])
@given(ring=st.sampled_from(sorted(WEIGHTS)), pick=st.integers(0, 3), case=CASES)
def test_eval_exits_0_or_2_and_round_trips(ring, pick, case):
    handle_text, expr = case
    weight = WEIGHTS[ring][pick]
    argv = ["eval", "--ring", ring, f"--lambda={weight}", "--handle", handle_text, expr]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    event(f"{handle_text} exit {code}")
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error:")
        return
    r = parse_ring(ring)
    value = eval_text(expr, parse_handle(handle_text, r, parse_scalar(weight, r), 4))
    printed = out.getvalue().strip()
    assert printed == str(value)
    assert eval_text(printed, value.handle) == value, (argv, printed)
