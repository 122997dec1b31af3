"""Expression language for the command line: parsing and typed evaluation.

Grammar (LL, standard precedence; ``#`` binds loosest and associates left):

    expr    := tensor
    tensor  := sum ( '#' sum )*
    sum     := product ( ('+' | '-') product )*
    product := unary ( '*' unary )*
    unary   := '-' unary | power
    power   := atom ( '^' INT )*
    atom    := NUMBER | NAME | NAME '(' expr ')'
             | '(' expr ')' | '[' expr (';' expr)* ']'
    NUMBER  := INT ( '/' INT )?

Every function takes exactly one argument.  Evaluation is directed by a
declared handle, the only context it needs: scalars and base variables
embed upward (unit-multiples into series, length-1 tensors into tensor
carriers), ``#`` concatenates tensor factors bilinearly, and operator
names resolve against the handle through ``distlaw.canonical_rb`` and
``distlaw.canonical_derivation``: ``P`` to the prepend operator on tensor
carriers and to the lift on series carriers, ``D`` to the free derivation
on tensor carriers and the shift on series carriers.  The descending maps
``eps``, ``mu``, and ``beta`` change the carrier, so they are only allowed
at the top level of an expression.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import algebra, distlaw, freerb, hurwitz
from .algebra import (MAX_NESTING, Handle, HurwitzHandle, Poly, PolyHandle,
                      ShaHandle)
from .coeffs import Ring, RingError, Scalar
from .freerb import Tensor
from .hurwitz import Series

# Input budgets, checked before evaluation: parentheses, brackets, calls and
# unary minus each nest one level; the exponents of nested powers multiply;
# a series literal holds at most MAX_PRECISION + 1 values (indices 0..N).
MAX_PARSE_DEPTH = 100
MAX_EXPONENT = 256
# A dense series product at precision 64 takes about 0.1 s, but a law check
# grows like N^2.8: ``check --suite hurwitz_algebra`` took 23.5 s at N = 32
# (one run, 2-CPU Xeon).
MAX_PRECISION = 64
# Checked before each tensor product: a bound on its output terms, just above
# the 265,729 of an 8x8 ``bench`` product (D(8,8); about 2 s and 170 MB).
MAX_TERMS = 300_000


class ParseError(ValueError):
    """Syntax or type diagnosis carrying a source span."""

    def __init__(self, msg: str, src: str, pos: int):
        self.msg = msg
        self.src = src
        self.pos = pos
        self.line, self.col = _line_col(src, pos)
        super().__init__(f"line {self.line}, col {self.col}: {msg}")


def _line_col(src: str, pos: int) -> tuple[int, int]:
    """1-based line and column of a source offset."""
    return src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)


# --------------------------------------------------------------------------
# Tokens and AST


_PUNCT = ("#", "+", "-", "*", "^", "(", ")", "[", "]", ";", ",", "/")


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | punctuation | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[Token]:
    out = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("int", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("name", src[i:j], i))
            i = j
            continue
        if c in _PUNCT:
            out.append(Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", src, i)
    out.append(Token("end", "", n))
    return out


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: object
    rhs: object
    pos: int


@dataclass(frozen=True)
class Neg:
    arg: object
    pos: int


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    pos: int


@dataclass(frozen=True)
class SeriesLit:
    items: tuple
    pos: int


_FUNCTIONS = ("P", "D", "eta", "eps", "mu", "beta", "partial")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def next(self) -> Token:
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            shown = t.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", self.src, t.pos)
        return self.next()

    def parse(self):
        node = self.tensor()
        self.end()
        _check_exponents(node, self.src)
        return node

    def end(self) -> None:
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", self.src, t.pos)

    def nested(self, t: Token, parse):
        """Run parse one nesting level down, within MAX_PARSE_DEPTH."""
        if self.depth >= MAX_PARSE_DEPTH:
            raise ParseError(f"nested deeper than {MAX_PARSE_DEPTH} levels", self.src, t.pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def listing(self) -> tuple:
        """One or more expressions separated by ';'."""
        items = [self.tensor()]
        while self.peek().kind == ";":
            self.next()
            items.append(self.tensor())
        return tuple(items)

    def tensor(self):
        node = self.sum()
        while self.peek().kind == "#":
            t = self.next()
            node = BinOp("#", node, self.sum(), t.pos)
        return node

    def sum(self):
        node = self.product()
        while self.peek().kind in ("+", "-"):
            t = self.next()
            node = BinOp(t.kind, node, self.product(), t.pos)
        return node

    def product(self):
        node = self.unary()
        while self.peek().kind == "*":
            t = self.next()
            node = BinOp("*", node, self.unary(), t.pos)
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "-":
            self.next()
            return Neg(self.nested(t, self.unary), t.pos)
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().kind == "^":
            t = self.next()
            e = self.expect("int")
            node = Pow(node, int(e.text), t.pos)
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.text)
            if self.peek().kind == "/":
                self.next()
                den = self.expect("int")
                return Num(Fraction(num, int(den.text)), t.pos)
            return Num(Fraction(num), t.pos)
        if t.kind == "name":
            self.next()
            if self.peek().kind == "(":
                if t.text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {t.text!r}", self.src, t.pos)
                self.next()
                arg = self.nested(t, self.tensor)
                self.expect(")")
                return Call(t.text, arg, t.pos)
            return Var(t.text, t.pos)
        if t.kind == "(":
            self.next()
            node = self.nested(t, self.tensor)
            self.expect(")")
            return node
        if t.kind == "[":
            self.next()
            items = self.nested(t, self.listing)
            self.expect("]")
            if len(items) > MAX_PRECISION + 1:
                raise ParseError(f"series literal of {len(items)} values is above "
                                 f"{MAX_PRECISION + 1}", self.src, t.pos)
            return SeriesLit(items, t.pos)
        shown = t.text or "end of input"
        raise ParseError(f"expected an expression, found {shown!r}", self.src, t.pos)


def _check_exponents(node, src: str) -> None:
    """Reject nested powers whose exponents multiply past MAX_EXPONENT."""
    stack = [(node, 1)]
    while stack:
        node, load = stack.pop()
        if isinstance(node, Pow):
            load *= max(node.exponent, 1)
            if load > MAX_EXPONENT:
                raise ParseError(f"exponents multiply past {MAX_EXPONENT}", src, node.pos)
        kids = [getattr(node, f) for f in ("base", "lhs", "rhs", "arg") if hasattr(node, f)]
        kids += getattr(node, "items", ())
        stack.extend((kid, load) for kid in kids)


def parse(src: str):
    """Parse one expression; raises ParseError with line/column on failure."""
    return _Parser(src).parse()


# --------------------------------------------------------------------------
# Handles from text


def parse_handle(src: str, ring: Ring, weight: Scalar, precision: int) -> Handle:
    """Parse "poly(x,y)", "sha(H)", or "hur(H[,N])", nested up to the limit."""
    p = _Parser(src)

    def handle(depth: int = 0) -> Handle:
        t = p.expect("name")
        if depth > MAX_NESTING:
            raise ParseError(f"carrier nested deeper than {MAX_NESTING}", src, t.pos)
        if t.text == "poly":
            p.expect("(")
            names = [p.expect("name").text]
            while p.peek().kind == ",":
                p.next()
                names.append(p.expect("name").text)
            p.expect(")")
            return algebra.poly_handle(names, ring, weight)
        if t.text == "sha":
            p.expect("(")
            inner = handle(depth + 1)
            p.expect(")")
            return ShaHandle(inner)
        if t.text == "hur":
            p.expect("(")
            inner = handle(depth + 1)
            n, at = precision, t.pos
            if p.peek().kind == ",":
                p.next()
                num = p.expect("int")
                n, at = int(num.text), num.pos
            if n > MAX_PRECISION:
                raise ParseError(f"precision {n} is above {MAX_PRECISION}", src, at)
            p.expect(")")
            return HurwitzHandle(inner, n)
        raise ParseError(f"unknown carrier {t.text!r}", src, t.pos)

    out = handle()
    p.end()
    return out


# --------------------------------------------------------------------------
# Evaluation


class EvalError(ValueError):
    """Type or domain failure during evaluation, with the offending span."""

    def __init__(self, msg: str, pos: int):
        self.msg = msg
        self.pos = pos
        super().__init__(msg)


def _embed(x, expected: Handle, pos: int):
    """Coerce an element into an enclosing carrier, one layer at a time."""
    if x.handle == expected:
        return x
    if isinstance(expected, ShaHandle):
        return freerb.eta(_embed(x, expected.inner, pos), expected)
    if isinstance(expected, HurwitzHandle):
        return Series.constant(_embed(x, expected.inner, pos), expected)
    raise EvalError(f"cannot embed a {x.handle} element into {expected}", pos)


def _tensor_concat(u: Tensor, v: Tensor) -> Tensor:
    return u.linear_map(lambda t1: [(t1 + t2, c2) for t2, c2 in v._bare.items()])


def _delannoy(m: int, n: int) -> int:
    """Words in the mixable shuffle of two tails of lengths m and n."""
    return sum(comb(m, k) * comb(n, k) << k for k in range(min(m, n) + 1))


def _term_bound(x, y) -> int:
    """A bound on the tensor terms that x * y forms: each pair of tensor terms
    gives at most the Delannoy number of their tails' lengths, and a series
    product multiplies every pair of values up to the common precision."""
    if isinstance(x, Series):
        n = min(x.precision, y.precision) + 1
        return sum(_term_bound(a, b) for a in x.values[:n] for b in y.values[:n])
    return sum(ca * cb * _delannoy(la - 1, lb - 1)
               for la, ca in x.lengths().items() for lb, cb in y.lengths().items())


def _product(x, y, pos: int):
    """x * y, refused when x and y hold tensors whose products could form more
    than MAX_TERMS terms in all."""
    base = x.handle
    while isinstance(base, HurwitzHandle):
        base = base.inner
    if isinstance(base, ShaHandle):
        bound = _term_bound(x, y)
        if bound > MAX_TERMS:
            raise EvalError(f"a product of up to {bound} terms is above {MAX_TERMS}", pos)
    return x * y


_BINARY = {"#": _tensor_concat, "+": operator.add, "-": operator.sub}
_LEVEL = {"#": 0, "+": 1, "-": 1, "*": 2}


def evaluate(node, handle: Handle):
    """Evaluate a parsed expression against the declared handle.

    The result normally lives in the declared carrier; a top-level ``eps``,
    ``mu``, or ``beta`` descends to the appropriate target carrier.
    """
    if isinstance(node, Call) and node.fn in ("eps", "mu", "beta"):
        arg = _eval_at(node.arg, handle)
        if node.fn == "eps":
            if isinstance(handle, ShaHandle):
                return freerb.counit_eval(arg, distlaw.canonical_rb(handle.inner))
            if isinstance(handle, HurwitzHandle):
                return hurwitz.counit(arg)
            raise EvalError("eps needs a tensor or series carrier", node.pos)
        if node.fn == "mu":
            if not (isinstance(handle, ShaHandle) and isinstance(handle.inner, ShaHandle)):
                raise EvalError("mu needs a doubly-tensored carrier", node.pos)
            return freerb.mu(arg)
        if not (isinstance(handle, ShaHandle) and isinstance(handle.inner, HurwitzHandle)):
            raise EvalError("beta needs tensors over a series carrier", node.pos)
        return distlaw.beta(arg)
    return _eval_at(node, handle)


def _eval_at(node, expected: Handle):
    if isinstance(node, Num):
        try:
            c = expected.ring.from_fraction(node.value)
        except RingError as e:
            raise EvalError(str(e), node.pos) from None
        return algebra.unit(expected).scale(c)
    if isinstance(node, Var):
        base = expected
        while not isinstance(base, PolyHandle):
            base = base.inner
        if node.name not in base.variables:
            raise EvalError(f"unknown variable {node.name!r} "
                            f"(have {', '.join(base.variables)})", node.pos)
        return _embed(Poly.variable(base, node.name), expected, node.pos)
    if isinstance(node, Neg):
        x = _eval_at(node.arg, expected)
        return x.scale(-expected.ring.one())
    if isinstance(node, Pow):
        x = _eval_at(node.base, expected)
        out = algebra.unit(expected)
        for _ in range(node.exponent):
            out = _product(out, x, node.pos)
        return out
    if isinstance(node, BinOp):
        if node.op == "#" and not isinstance(expected, ShaHandle):
            raise EvalError(f"'#' builds tensors; the carrier {expected} has none",
                            node.pos)
        # a chain of one precedence level nests down its left operands; walk
        # it in a loop, so a long flat sum costs no recursion
        level = _LEVEL[node.op]
        chain = []
        while isinstance(node, BinOp) and _LEVEL[node.op] == level:
            chain.append(node)
            node = node.lhs
        x = _eval_at(node, expected)
        for link in reversed(chain):
            y = _eval_at(link.rhs, expected)
            x = _product(x, y, link.pos) if link.op == "*" else _BINARY[link.op](x, y)
        return x
    if isinstance(node, SeriesLit):
        if isinstance(expected, ShaHandle):
            # a literal inside a tensor carrier names a factor one level down
            return freerb.eta(_eval_at(node, expected.inner), expected)
        if not isinstance(expected, HurwitzHandle):
            raise EvalError(f"series literal needs a series carrier, not {expected}",
                            node.pos)
        values = tuple(_eval_at(item, expected.inner) for item in node.items)
        return Series(expected, values)
    if isinstance(node, Call):
        if node.fn in ("eps", "mu", "beta"):
            raise EvalError(f"{node.fn} is only allowed at the top level", node.pos)
        if node.fn == "eta":
            if not isinstance(expected, ShaHandle):
                raise EvalError(f"eta embeds into a tensor carrier, not {expected}",
                                node.pos)
            return freerb.eta(_eval_at(node.arg, expected.inner), expected)
        if node.fn == "partial":
            if not isinstance(expected, HurwitzHandle):
                raise EvalError(f"partial acts on series carriers, not {expected}",
                                node.pos)
            arg = _eval_at(node.arg, expected)
            if arg.precision < 1:
                raise EvalError("cannot shift a precision-0 series", node.pos)
            return hurwitz.shift(arg)
        arg = _eval_at(node.arg, expected)
        if node.fn == "P":
            return distlaw.canonical_rb(expected)(arg)
        if node.fn == "D":
            return distlaw.canonical_derivation(expected)(arg)
    raise EvalError(f"cannot evaluate node {node!r}", getattr(node, "pos", 0))


def eval_text(src: str, handle: Handle):
    """Parse and evaluate in one step; every failure carries a source span."""
    try:
        return evaluate(parse(src), handle)
    except EvalError as e:
        line, col = _line_col(src, e.pos)
        raise EvalError(f"line {line}, col {col}: {e.msg}", e.pos) from None
