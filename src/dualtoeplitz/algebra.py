"""Exact Gaussian-rational scalars and monomial sums on the unit disk.

A scalar is a GaussianRational stored as a normalized integer triple
(a, b, d) meaning (a + b*i)/d with d > 0 and gcd(a, b, d) = 1.  An Element
is a finite sum  sum c_{n,m} z^n conj(z)^m  held in canonical form: a term
map, a dict from exponent pairs (n, m) to nonzero scalars.  The module
provides the inner product of the area-normalized Bergman space of the
disk, the two projections used throughout (onto the harmonic functions and
onto their orthogonal complement) and the bulk term-map operations that
engine and linalg run: the dual Toeplitz action (terms_apply), one
elimination step (terms_sub_scaled) and the harmonic projection of a symbol
times a basis vector from the vector's exponents in closed form
(terms_harmonic_factor).

The inner product on the unit disk with normalized area measure is

    <z^n conj(z)^m, z^k conj(z)^l> = 2/(n+m+k+l+2)  if n - m == k - l, else 0.

terms_inner indexes the second map by that frequency n - m, so only pairs of
equal frequency meet, and it sums their products in plain ints grouped by
denominator, building one scalar (one gcd) per inner product instead of
several per term pair.

The bulk operations normalize each value they return once, and no
intermediate scalar: terms_apply sums each key's product terms and harmonic
corrections as ints before one gcd, terms_harmonic_factor does the same per
frequency, and terms_sub_scaled keeps c*s as an unnormalized triple and
normalizes x - c*s once.  The normalized triple of a value is unique, so
these give the same triples as step-by-step scalar arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Union


class GaussianRational:
    """Complex number with rational real and imaginary parts, in lowest terms."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        try:
            pa, qa = re.numerator, re.denominator
            pb, qb = im.numerator, im.denominator
        except AttributeError:
            raise TypeError("parts must be int or Fraction, got %r, %r" % (re, im))
        d = qa * qb // gcd(qa, qb)
        a = pa * (d // qa)
        b = pb * (d // qb)
        g = gcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self._a = a
        self._b = b
        self._d = d

    # internal: build from an already-normalized triple
    @classmethod
    def _raw(cls, a, b, d):
        self = object.__new__(cls)
        self._a = a
        self._b = b
        self._d = d
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def num_re(self) -> int:
        return self._a

    @property
    def num_im(self) -> int:
        return self._b

    @property
    def den(self) -> int:
        return self._d

    @property
    def triple(self) -> tuple[int, int, int]:
        """The normalized triple (a, b, d): the value is (a + b*i)/d."""
        return self._a, self._b, self._d

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def real_sign(self) -> int:
        """Sign of the real part: -1, 0 or 1 (denominator is positive)."""
        a = self._a
        return (a > 0) - (a < 0)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self._a, -self._b, self._d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if a == 0 and b == 0:
            raise ZeroDivisionError("inverse of zero")
        return _norm(d * a, -d * b, a * a + b * b)

    def abs2(self) -> Fraction:
        """Squared modulus |a/d + (b/d)i|^2 as an exact Fraction."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __pos__(self):
        return self

    def __neg__(self):
        return GaussianRational._raw(-self._a, -self._b, self._d)

    def __add__(self, other):
        if type(other) is GaussianRational:
            d1 = self._d
            d2 = other._d
            return _norm(
                self._a * d2 + other._a * d1,
                self._b * d2 + other._b * d1,
                d1 * d2,
            )
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            d1 = self._d
            d2 = other._d
            return _norm(
                self._a * d2 - other._a * d1,
                self._b * d2 - other._b * d1,
                d1 * d2,
            )
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.__sub__(other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        if type(other) is GaussianRational:
            a1, b1 = self._a, self._b
            a2, b2 = other._a, other._b
            return _norm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.__mul__(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a2, b2 = other._a, other._b
        if a2 == 0 and b2 == 0:
            raise ZeroDivisionError("division by zero")
        a1, b1 = self._a, self._b
        d2 = other._d
        return _norm(
            d2 * (a1 * a2 + b1 * b2),
            d2 * (b1 * a2 - a1 * b2),
            self._d * (a2 * a2 + b2 * b2),
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return (
                self._a == other._a
                and self._b == other._b
                and self._d == other._d
            )
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self.__eq__(coerced)

    def __hash__(self):
        # agree with the numeric tower when the value is a plain rational
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        if self._b == 0:
            return "GaussianRational(%s)" % (Fraction(self._a, self._d),)
        return "GaussianRational(%s, %s)" % (
            Fraction(self._a, self._d),
            Fraction(self._b, self._d),
        )


def _norm(a, b, d):
    g = gcd(a, b, d)
    if g > 1:
        return GaussianRational._raw(a // g, b // g, d // g)
    return GaussianRational._raw(a, b, d)


def _coerce(x):
    # numerator and denominator of an int (or a bool) are plain ints
    if isinstance(x, (int, Fraction)):
        return GaussianRational._raw(x.numerator, 0, x.denominator)
    return None


GR_ZERO = GaussianRational._raw(0, 0, 1)
GR_ONE = GaussianRational._raw(1, 0, 1)

Scalar = Union[int, Fraction, GaussianRational]


def as_scalar(value: Scalar) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
    if type(value) is GaussianRational:
        return value
    c = _coerce(value)
    if c is None:
        raise TypeError("expected an exact scalar, got %r" % (value,))
    return c


class Monomial(NamedTuple):
    """Exponent pair (n, m) for z^n * conj(z)^m; both entries nonnegative."""

    n: int
    m: int


class Element:
    """Immutable monomial sum with Gaussian-rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | Iterable[tuple[tuple[int, int], Scalar]] = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        canon: dict[tuple[int, int], GaussianRational] = {}
        for key, value in items:
            n, m = key
            if not (isinstance(n, int) and isinstance(m, int)) or n < 0 or m < 0:
                raise ValueError("exponents must be nonnegative integers: %r" % (key,))
            c = as_scalar(value)
            if (n, m) in canon:
                c = canon[(n, m)] + c
            if c.is_zero:
                canon.pop((n, m), None)
            else:
                canon[(n, m)] = c
        self._terms = canon

    # internal: wrap a canonical term map without copying
    @classmethod
    def _wrap(cls, terms: dict) -> "Element":
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "Element":
        return cls._wrap({})

    @classmethod
    def one(cls) -> "Element":
        return cls._wrap({(0, 0): GR_ONE})

    @classmethod
    def monomial(cls, n: int, m: int, coeff: Scalar = 1) -> "Element":
        if n < 0 or m < 0:
            raise ValueError("exponents must be nonnegative")
        c = as_scalar(coeff)
        return cls._wrap({} if c.is_zero else {(n, m): c})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_harmonic(self) -> bool:
        """True when every monomial has n == 0 or m == 0."""
        return all(n == 0 or m == 0 for n, m in self._terms)

    def coefficient(self, n: int, m: int) -> GaussianRational:
        return self._terms.get((n, m), GR_ZERO)

    def terms(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        """Terms in lexicographic (n, m) order."""
        for key in sorted(self._terms):
            yield Monomial(*key), self._terms[key]

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                s = acc + c
                if s.is_zero:
                    del out[key]
                else:
                    out[key] = s
        return Element._wrap(out)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element._wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        out: dict = {}
        for (n1, m1), c1 in self._terms.items():
            for (n2, m2), c2 in other._terms.items():
                key = (n1 + n2, m1 + m2)
                prod = c1 * c2
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        return Element._wrap({key: c for key, c in out.items() if not c.is_zero})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "Element":
        c = as_scalar(c)
        if c.is_zero:
            return Element._wrap({})
        return Element._wrap({key: v * c for key, v in self._terms.items()})

    def conjugate(self) -> "Element":
        # conj(z^n conj(z)^m) = z^m conj(z)^n
        return Element._wrap({(m, n): c.conjugate() for (n, m), c in self._terms.items()})

    def constant_coefficient(self) -> GaussianRational:
        return self.coefficient(0, 0)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        from .symbols import format_element

        return "Element(%s)" % format_element(self)


def terms_inner(f: dict, g: dict) -> GaussianRational:
    """<f, g>: the sum of cf * conj(cg) * 2/(n+m+k+l+2) over same-frequency pairs.

    g's terms are indexed once by frequency k - l, so each term of f meets only
    the terms it pairs with.  Each product (a + bi)(c - ei) / (df dg (n+m+k+l+2))
    is accumulated as two int numerators grouped by that denominator; the
    groups are brought to their lcm and the sum is normalized once.  The
    normalized triple is unique, so the result is the same as summing scalars.
    """
    by_frequency: dict = {}
    for (k, l), cg in g.items():
        row = by_frequency.get(k - l)
        if row is None:
            row = by_frequency[k - l] = []
        row.append((k + l + 2, cg._a, cg._b, cg._d))
    groups: dict = {}
    for (n, m), cf in f.items():
        row = by_frequency.get(n - m)
        if row is None:
            continue
        a, b, d = cf._a, cf._b, cf._d
        degree = n + m
        for weight, c, e, dg in row:
            x = a * c + b * e
            y = b * c - a * e
            den = d * dg * (degree + weight)
            acc = groups.get(den)
            if acc is None:
                groups[den] = [x, y]
            else:
                acc[0] += x
                acc[1] += y
    den = lcm(*groups)
    re = im = 0
    for key, (x, y) in groups.items():
        scale = den // key
        re += x * scale
        im += y * scale
    if re == 0 and im == 0:
        return GR_ZERO
    return _norm(2 * re, 2 * im, den)


def inner_product(f: Element, g: Element) -> GaussianRational:
    """<f, g>, conjugate-linear in g, from the exact monomial pairing rule."""
    return terms_inner(f._terms, g._terms)


def norm_sq(f: Element) -> Fraction:
    """<f, f> as an exact nonnegative Fraction."""
    return terms_inner(f._terms, f._terms).re


def _accumulate(sums: dict, key, x: int, y: int, den: int) -> None:
    """Add (x + yi)/den to sums[key], kept as [re, im, den] ints and never
    normalized: equal denominators add, others are cross-multiplied."""
    acc = sums.get(key)
    if acc is None:
        sums[key] = [x, y, den]
    elif acc[2] == den:
        acc[0] += x
        acc[1] += y
    else:
        acc[0] = acc[0] * den + x * acc[2]
        acc[1] = acc[1] * den + y * acc[2]
        acc[2] *= den


def terms_apply(phi: dict, f: dict) -> dict:
    """Dual Toeplitz action on term maps: complement projection of phi*f,
    in one pass.

    A product monomial z^n conj(z)^m with n = 0 or m = 0 is harmonic, so its
    projection is 0 and it is skipped.  Any other product term c adds c to
    its own key and -c (|n-m|+1)/(max(n,m)+1) to the key of h_(n-m), the
    harmonic part of c z^n conj(z)^m.  Each key's sum is kept as int
    numerators over one denominator and normalized once, so the result
    holds the same normalized triples as step-by-step scalar arithmetic.
    With phi the unit symbol {(0, 0): 1} this is the complement projection
    of f.
    """
    sums: dict = {}
    for (n1, m1), c1 in phi.items():
        a1, b1, d1 = c1._a, c1._b, c1._d
        for (n2, m2), c2 in f.items():
            n = n1 + n2
            m = m1 + m2
            if not n or not m:
                continue
            a2, b2 = c2._a, c2._b
            x = a1 * a2 - b1 * b2
            y = a1 * b2 + b1 * a2
            den = d1 * c2._d
            _accumulate(sums, (n, m), x, y, den)
            if m <= n:
                w = -(n - m + 1)
                _accumulate(sums, (n - m, 0), x * w, y * w, den * (n + 1))
            else:
                w = -(m - n + 1)
                _accumulate(sums, (0, m - n), x * w, y * w, den * (m + 1))
    return {key: _norm(x, y, den) for key, (x, y, den) in sums.items() if x or y}


def harmonic_project(f: Element) -> Element:
    """Projection onto the harmonic functions (analytic + co-analytic parts)."""
    return f - complement_project(f)


def complement_project(f: Element) -> Element:
    """Projection onto the orthogonal complement of the harmonic functions:
    the dual Toeplitz action of the unit symbol."""
    return Element._wrap(terms_apply({(0, 0): GR_ONE}, f._terms))


def terms_sub_scaled(v: dict, f: dict, s: GaussianRational) -> None:
    """v <- v - s*f in place, dropping the keys that cancel.

    Each product c*s stays an unnormalized int triple, so an entry that v
    already holds is normalized once, as x - c*s, and not twice.
    """
    sa, sb, sd = s._a, s._b, s._d
    for key, c in f.items():
        ca, cb = c._a, c._b
        p = ca * sa - cb * sb
        q = ca * sb + cb * sa
        den = c._d * sd
        x = v.get(key)
        if x is None:
            v[key] = _norm(-p, -q, den)
            continue
        xd = x._d
        a = x._a * den - p * xd
        b = x._b * den - q * xd
        if a or b:
            v[key] = _norm(a, b, xd * den)
        else:
            del v[key]


def terms_harmonic_factor(phi: dict, n: int, m: int) -> dict:
    """Harmonic projection Q(phi e_{n,m}) as {d: coefficient of h_d}, from
    the exponents alone, n, m >= 1.

    h_d is the one harmonic monomial of frequency d: z^d for d >= 0 and
    conj(z)^(-d) for d < 0.  Monomial rule:
    Q(z^a conj(z)^b) = ((|a-b|+1)/(max(a,b)+1)) h_(a-b), the harmonic part
    that the complement projection removes.  So
    e_{n,m} = z^n conj(z)^m - k h_(n-m),
    with k = (|n-m|+1)/(max(n,m)+1) and h_(n-m) = z^p conj(z)^q,
    p = max(n-m, 0), q = max(m-n, 0), and a term c z^a conj(z)^b of phi adds
    to the frequency d = a - b + n - m

        c (|d|+1) [1/(max(n+a, m+b)+1) - k/(max(a+p, b+q)+1)].

    Each frequency's sum is kept as two int numerators over one denominator
    and normalized once.
    """
    shift = n - m
    p, q = max(shift, 0), max(-shift, 0)
    top = max(n, m) + 1
    width = abs(shift) + 1
    sums: dict = {}
    for (a, b), c in phi.items():
        d = a - b + shift
        big = max(n + a, m + b) + 1
        small = max(a + p, b + q) + 1
        # (|d|+1) (1/big - width/(top small)) over big small top
        w = (abs(d) + 1) * (top * small - width * big)
        _accumulate(sums, d, c._a * w, c._b * w, c._d * big * small * top)
    return {d: _norm(x, y, den) for d, (x, y, den) in sums.items() if x or y}
