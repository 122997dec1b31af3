"""Independent reference computations for the benchmark's outputs.

Nothing here calls into rbshuffle.  Polynomials are plain dicts from
exponent tuples to ``Fraction``; tensor words are tuples of factors, each
factor a sorted tuple of symbol names.  The workloads convert the program's
outputs into these forms and compare.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


# --------------------------------------------------------------------------
# Mixable shuffle over distinct symbols


def merge(p: tuple, q: tuple) -> tuple:
    """Product of two factors given as symbol multisets."""
    return tuple(sorted(p + q))


def mixable_shuffle(xs: tuple, ys: tuple, lam: Fraction) -> dict:
    """Guo-Keigher mixable shuffle of two words, as word -> coefficient.

    The first letter of the result comes from xs, from ys, or (at weight
    lam) is the merge of both first letters.
    """
    memo: dict = {}

    def go(i: int, j: int) -> dict:
        key = (i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if i == len(xs):
            out = {ys[j:]: Fraction(1)}
        elif j == len(ys):
            out = {xs[i:]: Fraction(1)}
        else:
            out = {}
            branches = [((xs[i],), go(i + 1, j), Fraction(1)),
                        ((ys[j],), go(i, j + 1), Fraction(1))]
            if lam:
                branches.append(((merge(xs[i], ys[j]),), go(i + 1, j + 1), lam))
            for letter, sub, w in branches:
                for word, c in sub.items():
                    key2 = letter + word
                    out[key2] = out.get(key2, 0) + w * c
        memo[key] = out
        return out

    return go(0, 0)


def shuffle_product(a: tuple, b: tuple, lam: Fraction, coeff: Fraction) -> dict:
    """(a0 # a') * (b0 # b') = a0 b0 # (a' mixable-shuffle b'), scaled by coeff."""
    head = (merge(a[0], b[0]),)
    return {head + w: coeff * c for w, c in mixable_shuffle(a[1:], b[1:], lam).items()}


def stratum_counts(m: int, n: int, lam: Fraction) -> dict:
    """Number of terms of each length in a distinct-symbol product of
    lengths m+1 and n+1: (m+n-k)!/(k!(m-k)!(n-k)!) at length m+n+1-k, with
    only k = 0 present at weight 0."""
    top = min(m, n) if lam else 0
    return {m + n + 1 - k: factorial(m + n - k) // (factorial(k) * factorial(m - k) * factorial(n - k))
            for k in range(top + 1)}


def mixable_word_test(a: tuple, b: tuple):
    """A predicate for the terms of the product of distinct-symbol words a
    and b: the head is a0 b0, every other factor is one letter or one
    a-letter merged with one b-letter, and each word's letters appear once
    and in order."""
    head = merge(a[0], b[0])
    side = {letter[0]: ("a", k) for k, letter in enumerate(a[1:])}
    side.update({letter[0]: ("b", k) for k, letter in enumerate(b[1:])})
    want = ([("a", k) for k in range(len(a) - 1)], [("b", k) for k in range(len(b) - 1)])

    def test(word: tuple) -> bool:
        if not word or word[0] != head:
            return False
        seen: tuple = ([], [])
        for factor in word[1:]:
            if len(factor) > 2:
                return False
            places = [side.get(s) for s in factor]
            if None in places or len({p[0] for p in places}) != len(places):
                return False
            for p in places:
                seen[p[0] == "b"].append(p)
        return seen[0] == want[0] and seen[1] == want[1]

    return test


def check_shuffle_summary(terms: dict, a: tuple, b: tuple, lam: Fraction,
                          coeff: Fraction) -> bool:
    """Check a distinct-symbol product from counts and coefficients alone.

    Every term must be a mixable word of a and b, the number of terms of
    each length must match ``stratum_counts``, and a term with k merges
    must carry coeff * lam**k.  Together these pin the product exactly.
    """
    m, n = len(a) - 1, len(b) - 1
    want = stratum_counts(m, n, lam)
    want_coeff = {length: coeff * lam ** (m + n + 1 - length) for length in want}
    mixable = mixable_word_test(a, b)
    counts: dict = {}
    for word, c in terms.items():
        if c != want_coeff.get(len(word)) or not mixable(word):
            return False
        counts[len(word)] = counts.get(len(word), 0) + 1
    return counts == want


# --------------------------------------------------------------------------
# Plain-dict polynomials in (x, y)


def poly_add_into(out: dict, p: dict, scale: Fraction = Fraction(1)) -> None:
    for m, c in p.items():
        s = out.get(m, 0) + scale * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(u + v for u, v in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def derivative_x(p: dict) -> dict:
    """Formal derivative in the first variable."""
    out: dict = {}
    for m, c in p.items():
        if m[0]:
            out[(m[0] - 1,) + m[1:]] = c * m[0]
    return out


def difference_quotient_x(p: dict, lam: Fraction) -> dict:
    """(p(x + lam) - p(x)) / lam, by the binomial expansion of each x power."""
    out: dict = {}
    for m, c in p.items():
        e = m[0]
        for j in range(e):
            s = out.get((j,) + m[1:], 0) + c * comb(e, j) * lam ** (e - j - 1)
            if s:
                out[(j,) + m[1:]] = s
            else:
                out.pop((j,) + m[1:], None)
    return out


def weighted_derivation_x(p: dict, lam: Fraction) -> dict:
    """The derivative at weight 0, the difference quotient otherwise."""
    return derivative_x(p) if lam == 0 else difference_quotient_x(p, lam)


def iterated_derivative_of_product(x: dict, y: dict, lam: Fraction, n: int) -> dict:
    """d applied n times to x*y, for the weighted derivation in x."""
    out = poly_mul(x, y)
    for _ in range(n):
        out = weighted_derivation_x(out, lam)
    return out


# --------------------------------------------------------------------------
# Hurwitz product in pair form


def pair_coefficient(n: int, i: int, l: int) -> int:
    """n! / ((i+l-n)! (n-i)! (n-l)!), for i, l <= n <= i + l."""
    return factorial(n) // (factorial(i + l - n) * factorial(n - i) * factorial(n - l))


def hurwitz_product(f: list, g: list, lam: Fraction) -> list:
    """(fg)(n) = sum over i, l <= n <= i+l of
    n!/((i+l-n)!(n-i)!(n-l)!) lam^(i+l-n) f(i) g(l), up to the smaller precision."""
    top = min(len(f), len(g)) - 1
    products: dict = {}
    out = []
    for n in range(top + 1):
        acc: dict = {}
        for i in range(n + 1):
            for l in range(n - i, n + 1):
                k = i + l - n
                if k and not lam:
                    continue
                fg = products.get((i, l))
                if fg is None:
                    fg = products[(i, l)] = poly_mul(f[i], g[l])
                poly_add_into(acc, fg, pair_coefficient(n, i, l) * lam ** k)
        out.append(acc)
    return out
