"""Symbol strings: parser and canonical printer.

Grammar (whitespace-insensitive):

    expression := ['-'] term (('+'|'-') term)*
    term       := [coef ['*']] [zpart] [zbpart]
    zpart      := 'z' ['^' uint]
    zbpart     := 'zb' ['^' uint]
    coef       := rational | '(' rational [('+'|'-') rational 'i'] ')'
    rational   := int ['/' uint]

Examples: "z^2 zb", "(1/2 + 1/3 i) z zb^2 - z^3", "-23 z + 7/3", "-z",
"-(1+2i) z".  A leading '-' negates the first term, so "-z" is "-1 z" and
"-(1+2i) z" is "(-1-2i) z"; a leading '+' is refused.
The printer emits strings this grammar accepts: rationals as p/q in lowest
terms with positive q, complex coefficients parenthesized as "p/q+r/si", and
a leading negative real coefficient folded into an explicit rational ("-1 z",
never "-z"), so the canonical text does not depend on the leading minus.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebra import Element, GaussianRational

_DIGITS = set("0123456789")


class ParseError(ValueError):
    """Malformed symbol string; carries the offset in the original text."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class _Scanner:
    """Cursor over the whitespace-stripped text, remembering original offsets."""

    def __init__(self, text: str):
        self.chars: list[str] = []
        self.offsets: list[int] = []
        for idx, ch in enumerate(text):
            if not ch.isspace():
                self.chars.append(ch)
                self.offsets.append(idx)
        self.pos = 0
        self.end_offset = len(text)

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.chars[i] if i < len(self.chars) else ""

    def take(self) -> str:
        ch = self.chars[self.pos]
        self.pos += 1
        return ch

    def done(self) -> bool:
        return self.pos >= len(self.chars)

    def where(self) -> int:
        if self.pos < len(self.offsets):
            return self.offsets[self.pos]
        return self.end_offset

    def fail(self, message: str):
        raise ParseError(message, self.where())


def _parse_uint(sc: _Scanner) -> int:
    if sc.peek() not in _DIGITS:
        sc.fail("expected digits")
    digits = []
    while sc.peek() in _DIGITS:
        digits.append(sc.take())
    return int("".join(digits))


def _parse_int(sc: _Scanner) -> int:
    negative = False
    if sc.peek() == "-":
        sc.take()
        negative = True
    value = _parse_uint(sc)
    return -value if negative else value


def _parse_rational(sc: _Scanner) -> Fraction:
    numerator = _parse_int(sc)
    if sc.peek() == "/":
        sc.take()
        denominator = _parse_uint(sc)
        if denominator == 0:
            sc.fail("zero denominator")
        return Fraction(numerator, denominator)
    return Fraction(numerator)


def _parse_coef(sc: _Scanner) -> GaussianRational:
    if sc.peek() != "(":
        return GaussianRational(_parse_rational(sc))
    sc.take()
    re = _parse_rational(sc)
    im = Fraction(0)
    if sc.peek() in ("+", "-"):
        sign = -1 if sc.take() == "-" else 1
        im = sign * _parse_rational(sc)
        if sc.peek() != "i":
            sc.fail("expected 'i' after the imaginary part")
        sc.take()
    if sc.peek() != ")":
        sc.fail("expected ')'")
    sc.take()
    return GaussianRational(re, im)


def _starts_coef(sc: _Scanner) -> bool:
    ch = sc.peek()
    return ch in _DIGITS or ch == "(" or (ch == "-" and sc.peek(1) in _DIGITS)


def _parse_term(sc: _Scanner) -> tuple[tuple[int, int], GaussianRational]:
    start = sc.where()
    coef = None
    if _starts_coef(sc):
        coef = _parse_coef(sc)
        if sc.peek() == "*":
            sc.take()
    n = m = 0
    saw_part = False
    if sc.peek() == "z" and sc.peek(1) != "b":
        sc.take()
        saw_part = True
        n = 1
        if sc.peek() == "^":
            sc.take()
            n = _parse_uint(sc)
    if sc.peek() == "z" and sc.peek(1) == "b":
        sc.take()
        sc.take()
        saw_part = True
        m = 1
        if sc.peek() == "^":
            sc.take()
            m = _parse_uint(sc)
    if coef is None and not saw_part:
        raise ParseError("expected a term", start)
    if coef is None:
        coef = GaussianRational(1)
    return (n, m), coef


def parse_symbol(text: str) -> Element:
    """Parse a symbol string into a canonical Element."""
    sc = _Scanner(text)
    if sc.done():
        sc.fail("empty symbol")
    pairs = []
    # a leading '-' negates the first term; a leading '+' is refused
    op = sc.take() if sc.peek() == "-" else "+"
    while True:
        key, coef = _parse_term(sc)
        pairs.append((key, -coef if op == "-" else coef))
        if sc.done():
            return Element(pairs)
        op = sc.peek()
        if op not in ("+", "-"):
            sc.fail("expected '+' or '-'")
        sc.take()


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def format_scalar(c: GaussianRational) -> str:
    """Canonical scalar string: "p/q" when real, else "p/q+r/si"."""
    a, b, d = c.triple
    if b == 0:
        # gcd(a, 0, d) = gcd(a, d) = 1: a/d is already in lowest terms, and
        # zero, the most frequent entry, is the triple (0, 0, 1)
        if d == 1:
            return "0" if a == 0 else str(a)
        return f"{a}/{d}"
    g = gcd(a, d)
    h = gcd(b, d)
    re = str(a // g) if g == d else f"{a // g}/{d // g}"
    im = str(abs(b) // h) if h == d else f"{abs(b) // h}/{d // h}"
    return f"{re}{'-' if b < 0 else '+'}{im}i"


def _monomial_str(n: int, m: int) -> str:
    parts = []
    if n == 1:
        parts.append("z")
    elif n > 1:
        parts.append("z^%d" % n)
    if m == 1:
        parts.append("zb")
    elif m > 1:
        parts.append("zb^%d" % m)
    return " ".join(parts)


def format_element(e: Element) -> str:
    """Canonical symbol string; parse_symbol inverts it exactly."""
    if e.is_zero:
        return "0"
    pieces = []
    for mono, c in e.terms():
        body = _monomial_str(mono.n, mono.m)
        if not c.is_real:
            text = "(%s)" % format_scalar(c)
            if body:
                text += " " + body
            pieces.append(("+", text))
            continue
        r = c.re
        sign = "-" if r < 0 else "+"
        mag = -r if r < 0 else r
        if body and mag == 1:
            pieces.append((sign, body))
        elif body:
            pieces.append((sign, "%s %s" % (format_rational(mag), body)))
        else:
            pieces.append((sign, format_rational(mag)))
    sign, first = pieces[0]
    if sign == "-":
        # print the signed rational explicitly, not the leading minus
        mono, c = next(e.terms())
        body = _monomial_str(mono.n, mono.m)
        first = format_rational(c.re) + (" " + body if body else "")
    out = [first]
    for sign, body in pieces[1:]:
        out.append(" %s %s" % (sign, body))
    return "".join(out)
