# cython: language_level=3, binding=False
"""Compiled arithmetic kernel.

Line-for-line Cython twin of `_core_py`: exact Gaussian-rational scalars and
the bulk operations on monomial term maps.  Same data layout (normalized
integer triple (a, b, d) meaning (a + b*i)/d with d > 0 and gcd(a, b, d) = 1;
term maps are dicts from exponent pairs to nonzero scalars) and the same
algorithms, so both backends produce bit-identical results; this one only
removes interpreter overhead from the hot loops.
"""

import cython

from fractions import Fraction
from math import gcd, lcm

BACKEND = "compiled"


@cython.freelist(64)
cdef class GaussianRational:
    """Complex number with rational real and imaginary parts, in lowest terms."""

    cdef readonly object _a
    cdef readonly object _b
    cdef readonly object _d

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
        return _raw_c(a, b, d)

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    @property
    def num_re(self):
        return self._a

    @property
    def num_im(self):
        return self._b

    @property
    def den(self):
        return self._d

    @property
    def is_zero(self):
        return self._a == 0 and self._b == 0

    @property
    def is_real(self):
        return self._b == 0

    def real_sign(self):
        """Sign of the real part: -1, 0 or 1 (denominator is positive)."""
        a = self._a
        return (a > 0) - (a < 0)

    def conjugate(self):
        return _raw_c(self._a, -self._b, self._d)

    def inverse(self):
        a, b, d = self._a, self._b, self._d
        if a == 0 and b == 0:
            raise ZeroDivisionError("inverse of zero")
        return _norm(d * a, -d * b, a * a + b * b)

    def abs2(self):
        """Squared modulus |a/d + (b/d)i|^2 as an exact Fraction."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def _mul_int_ratio(self, p, q):
        # multiply by the rational p/q, q > 0
        return _norm(self._a * p, self._b * p, self._d * q)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __pos__(self):
        return self

    def __neg__(self):
        return _raw_c(-self._a, -self._b, self._d)

    def __add__(self, other):
        cdef GaussianRational rhs
        if type(other) is GaussianRational:
            rhs = <GaussianRational> other
            return _norm(
                self._a * rhs._d + rhs._a * self._d,
                self._b * rhs._d + rhs._b * self._d,
                self._d * rhs._d,
            )
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(rhs)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        cdef GaussianRational rhs
        if type(other) is GaussianRational:
            rhs = <GaussianRational> other
            return _norm(
                self._a * rhs._d - rhs._a * self._d,
                self._b * rhs._d - rhs._b * self._d,
                self._d * rhs._d,
            )
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__sub__(rhs)

    def __rsub__(self, other):
        cdef GaussianRational lhs = _coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs.__sub__(self)

    def __mul__(self, other):
        cdef GaussianRational rhs
        if type(other) is GaussianRational:
            rhs = <GaussianRational> other
            return _norm(
                self._a * rhs._a - self._b * rhs._b,
                self._a * rhs._b + self._b * rhs._a,
                self._d * rhs._d,
            )
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__mul__(rhs)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        cdef GaussianRational rhs
        if type(other) is GaussianRational:
            rhs = <GaussianRational> other
        else:
            rhs = _coerce(other)
            if rhs is None:
                return NotImplemented
        a2 = rhs._a
        b2 = rhs._b
        if a2 == 0 and b2 == 0:
            raise ZeroDivisionError("division by zero")
        a1 = self._a
        b1 = self._b
        d2 = rhs._d
        return _norm(
            d2 * (a1 * a2 + b1 * b2),
            d2 * (b1 * a2 - a1 * b2),
            self._d * (a2 * a2 + b2 * b2),
        )

    def __rtruediv__(self, other):
        cdef GaussianRational lhs = _coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs.__truediv__(self)

    def __eq__(self, other):
        cdef GaussianRational rhs
        if type(other) is GaussianRational:
            rhs = <GaussianRational> other
            return (
                self._a == rhs._a
                and self._b == rhs._b
                and self._d == rhs._d
            )
        rhs = _coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__eq__(rhs)

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


cdef GaussianRational _raw_c(a, b, d):
    cdef GaussianRational self = GaussianRational.__new__(GaussianRational)
    self._a = a
    self._b = b
    self._d = d
    return self


cdef GaussianRational _norm(a, b, d):
    g = gcd(a, b, d)
    if g > 1:
        return _raw_c(a // g, b // g, d // g)
    return _raw_c(a, b, d)


cdef GaussianRational _coerce(x):
    if isinstance(x, int):
        return _raw_c(x, 0, 1)
    if isinstance(x, Fraction):
        return _raw_c(x.numerator, 0, x.denominator)
    return None


GR_ZERO = _raw_c(0, 0, 1)
GR_ONE = _raw_c(1, 0, 1)


# ---------------------------------------------------------------------------
# term-map kernels


def terms_add(dict f, dict g):
    cdef dict out = dict(f)
    for key, c in g.items():
        acc = out.get(key)
        if acc is None:
            out[key] = c
        else:
            s = acc + c
            if (<GaussianRational> s).is_zero:
                del out[key]
            else:
                out[key] = s
    return out


def terms_scale(dict f, GaussianRational c):
    if c._a == 0 and c._b == 0:
        return {}
    return {key: v * c for key, v in f.items()}


def terms_conj(dict f):
    # conj(z^n conj(z)^m) = z^m conj(z)^n
    cdef dict out = {}
    for (n, m), c in f.items():
        out[(m, n)] = (<GaussianRational> c).conjugate()
    return out


def terms_product(dict f, dict g):
    cdef dict out = {}
    cdef long n1, m1, n2, m2
    for (n1, m1), c1 in f.items():
        for (n2, m2), c2 in g.items():
            key = (n1 + n2, m1 + m2)
            prod = c1 * c2
            acc = out.get(key)
            if acc is None:
                out[key] = prod
            else:
                out[key] = acc + prod
    return {
        key: c for key, c in out.items() if not (<GaussianRational> c).is_zero
    }


def terms_inner(dict f, dict g):
    """<f, g>: the sum of cf * conj(cg) * 2/(n+m+k+l+2) over same-frequency pairs.

    g's terms are indexed once by frequency k - l, so each term of f meets only
    the terms it pairs with.  Each product (a + bi)(c - ei) / (df dg (n+m+k+l+2))
    is accumulated as two int numerators grouped by that denominator; the
    groups are brought to their lcm and the sum is normalized once.  The
    normalized triple is unique, so the result is the same as summing scalars.
    """
    cdef dict by_frequency = {}
    cdef dict groups = {}
    cdef GaussianRational cf, cg
    cdef long n, m, k, l, degree
    for (k, l), cg in g.items():
        row = by_frequency.get(k - l)
        if row is None:
            row = by_frequency[k - l] = []
        row.append((k + l + 2, cg._a, cg._b, cg._d))
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


def terms_complement(dict f):
    """Project a term map onto the orthogonal complement of the harmonic part.

    Monomial rule: z^n conj(z)^m maps to itself minus
    ((n-m+1)/(n+1)) z^(n-m) when m <= n, minus ((m-n+1)/(m+1)) conj(z)^(m-n)
    when m > n.  Harmonic monomials cancel exactly.
    """
    cdef dict out = {}
    cdef long n, m
    for key, c in f.items():
        n, m = key
        acc = out.get(key)
        if acc is None:
            out[key] = c
        else:
            out[key] = acc + c
        if m <= n:
            hkey = (n - m, 0)
            corr = (<GaussianRational> c)._mul_int_ratio(n - m + 1, n + 1)
        else:
            hkey = (0, m - n)
            corr = (<GaussianRational> c)._mul_int_ratio(m - n + 1, m + 1)
        acc = out.get(hkey)
        if acc is None:
            out[hkey] = -corr
        else:
            out[hkey] = acc - corr
    return {
        key: c for key, c in out.items() if not (<GaussianRational> c).is_zero
    }


def terms_apply(dict phi, dict f):
    """Dual Toeplitz action on term maps: complement projection of phi*f."""
    return terms_complement(terms_product(phi, f))
