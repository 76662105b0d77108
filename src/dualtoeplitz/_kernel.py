"""Arithmetic kernel.

Exact Gaussian-rational scalars and the bulk operations on monomial term maps
(products, inner products, projection onto the complement of the harmonic
functions, and the harmonic projection of a symbol times a basis vector,
from the vector's exponents in closed form).  Every other module does its
scalar and term-map arithmetic here.

A scalar is stored as a normalized integer triple (a, b, d) meaning
(a + b*i)/d with d > 0 and gcd(a, b, d) = 1.  A term map is a dict mapping
exponent pairs (n, m), i.e. the monomial z^n * conj(z)^m, to nonzero scalars.

The inner product on the unit disk with normalized area measure is

    <z^n conj(z)^m, z^k conj(z)^l> = 2/(n+m+k+l+2)  if n - m == k - l, else 0.

terms_inner indexes the second map by that frequency n - m, so only pairs of
equal frequency meet, and it sums their products in plain ints grouped by
denominator, building one scalar (one gcd) per inner product instead of
several per term pair.

The bulk kernels normalize each value they return once, and no intermediate
scalar: terms_apply sums each key's product terms and harmonic corrections
as ints before one gcd, terms_harmonic_factor does the same per frequency,
and terms_sub_scaled (one elimination step of linalg.Echelon) keeps c*s as
an unnormalized triple and normalizes x - c*s once.  The normalized triple
of a value is unique, so these give the same triples as step-by-step
scalar arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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

    def _mul_int_ratio(self, p: int, q: int) -> "GaussianRational":
        # multiply by the rational p/q, q > 0
        return _norm(self._a * p, self._b * p, self._d * q)

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
    if isinstance(x, int):
        return GaussianRational._raw(x, 0, 1)
    if isinstance(x, Fraction):
        return GaussianRational._raw(x.numerator, 0, x.denominator)
    return None


GR_ZERO = GaussianRational._raw(0, 0, 1)
GR_ONE = GaussianRational._raw(1, 0, 1)


# ---------------------------------------------------------------------------
# term-map kernels


def terms_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for key, c in g.items():
        acc = out.get(key)
        if acc is None:
            out[key] = c
        else:
            s = acc + c
            if s.is_zero:
                del out[key]
            else:
                out[key] = s
    return out


def terms_scale(f: dict, c: GaussianRational) -> dict:
    if c.is_zero:
        return {}
    return {key: v * c for key, v in f.items()}


def terms_conj(f: dict) -> dict:
    # conj(z^n conj(z)^m) = z^m conj(z)^n
    return {(m, n): c.conjugate() for (n, m), c in f.items()}


def terms_product(f: dict, g: dict) -> dict:
    out = {}
    for (n1, m1), c1 in f.items():
        for (n2, m2), c2 in g.items():
            key = (n1 + n2, m1 + m2)
            prod = c1 * c2
            acc = out.get(key)
            if acc is None:
                out[key] = prod
            else:
                out[key] = acc + prod
    return {key: c for key, c in out.items() if not c.is_zero}


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


def factor_form(f: dict, g: dict) -> GaussianRational:
    """<g, f>_G: the sum of +-conj(f[k]) * g[k] / (|d|+1) over shared keys k.

    f and g are harmonic factor columns {key: coefficient}: the key 2d holds
    a coefficient of h_d in the first half (sign +), 2d + 1 in the second
    (sign -), and <h_d, h_d> = 1/(|d|+1), d = k >> 1.  The products are
    summed as one running fraction of ints, equal denominators added and
    others cross-multiplied as in _accumulate, and normalized once; the
    normalized triple is unique, so the result is the same as summing
    scalars.
    """
    re = im = 0
    den = 1
    for key, cf in f.items():
        cg = g.get(key)
        if cg is None:
            continue
        a, b, c, e = cf._a, cf._b, cg._a, cg._b
        # (a - bi)(c + ei)
        x = a * c + b * e
        y = a * e - b * c
        if key & 1:
            x, y = -x, -y
        d = cf._d * cg._d * (abs(key >> 1) + 1)
        if d == den:
            re += x
            im += y
        else:
            re = re * d + x * den
            im = im * d + y * den
            den *= d
    if re == 0 and im == 0:
        return GR_ZERO
    return _norm(re, im, den)


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
