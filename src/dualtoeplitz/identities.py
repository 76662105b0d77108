"""Closed forms and polynomial identities behind the classifier.

Everything here is an independent symbolic route to quantities the engine
computes numerically term by term: the action of a monomial-symbol operator on
the probe vectors, the value of the self-commutator form there, and the
defect polynomials whose signs and zeros drive the normality classification.
All polynomials are expanded with exact rational coefficients, held as int
numerators over one common denominator (RationalPolynomial), so a product is
an int convolution reduced once; for a two-term symbol the squared
coefficient modulus s = |alpha|^2 enters as an exact rational before
expansion, so every check stays univariate.  The defect polynomials have
int coefficients up to that weight, so they are built as int convolutions
and each becomes one RationalPolynomial, reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .algebra import (
    Element,
    GaussianRational,
    as_scalar,
    complement_project,
    harmonic_project,
)
from .engine import apply

_F0 = Fraction(0)
_F1 = Fraction(1)


class RationalPolynomial:
    """Dense univariate polynomial with rational coefficients, low degree
    first, held as int numerators over one positive common denominator.

    The form is canonical: trailing zero numerators are trimmed, the
    denominator is coprime to the numerators, and the zero polynomial has
    denominator 1.  So two polynomials are equal iff their numerator lists
    and denominators are, and arithmetic runs on plain ints, reduced once
    per result.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums) if nums else den
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self.nums = nums
        self.den = den

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "RationalPolynomial":
        p = cls.__new__(cls)
        p._set(nums, den)
        return p

    @classmethod
    def constant(cls, c) -> "RationalPolynomial":
        return cls([c])

    @classmethod
    def linear(cls, shift) -> "RationalPolynomial":
        """The monic linear polynomial x + shift."""
        return cls([shift, 1])

    @property
    def coeffs(self) -> list[Fraction]:
        """The coefficients as Fractions, low degree first."""
        return [Fraction(c, self.den) for c in self.nums]

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return _F0

    def __add__(self, other):
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return RationalPolynomial._of(a, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalPolynomial._of([-c for c in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.nums or not other.nums:
            return RationalPolynomial()
        return RationalPolynomial._of(
            _convolve(self.nums, other.nums), self.den * other.den
        )

    __rmul__ = __mul__

    def scale(self, c) -> "RationalPolynomial":
        c = Fraction(c)
        nums = [c.numerator * x for x in self.nums]
        return RationalPolynomial._of(nums, self.den * c.denominator)

    def __call__(self, x) -> Fraction:
        """Horner at x = p/q on ints: acc = sum_k nums[k] p^k q^(deg-k)."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        acc, qpow = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qpow
            qpow *= q
        # the loop ends with qpow = q^(deg+1), one factor q past acc's
        return Fraction(acc * q, self.den * qpow)

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __repr__(self):
        return "RationalPolynomial(%r)" % (self.coeffs,)


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The coefficients of the product of two nonempty int polynomials, low
    degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def closed_form_apply(n: int, m: int, k: int) -> Element:
    """Closed form of the monomial-symbol action on the probe vector:

        S_{z^n conj(z)^m} f_k = z^(n+k) conj(z)^(m+1)
                                - (k/(k+1)) z^(n+k-1) conj(z)^m
                                - (n(n+k-m)/((k+1)(n+k)(n+k+1))) z^(n+k-m-1)

    valid for k > max(n, m) with n, m >= 0.
    """
    if n < 0 or m < 0:
        raise ValueError("exponents must be nonnegative")
    if k <= max(n, m) or k < 1:
        raise ValueError("closed form needs k > max(n, m) and k >= 1")
    terms: dict[tuple[int, int], Fraction] = {}

    def accumulate(key, c):
        terms[key] = terms.get(key, _F0) + c

    accumulate((n + k, m + 1), _F1)
    # the middle and tail monomials coincide when m == 0, so accumulate
    accumulate((n + k - 1, m), Fraction(-k, k + 1))
    if n > 0:
        tail = Fraction(-n * (n + k - m), (k + 1) * (n + k) * (n + k + 1))
        accumulate((n + k - m - 1, 0), tail)
    return Element({key: GaussianRational(c) for key, c in terms.items() if c != 0})


def closed_form_q(n: int, m: int, k: int) -> Fraction:
    """Self-commutator form at the probe vector for the symbol z^n conj(z)^m:

        - n^2 (n+k-m) / ((k+1)^2 (n+k)^2 (n+k+1)^2)
        + m^2 (m+k-n) / ((k+1)^2 (m+k)^2 (m+k+1)^2)
    """
    if k <= max(n, m) or k < 1:
        raise ValueError("closed form needs k > max(n, m) and k >= 1")
    kk = (k + 1) * (k + 1)
    return Fraction(
        -(n * n) * (n + k - m), kk * (n + k) ** 2 * (n + k + 1) ** 2
    ) + Fraction((m * m) * (m + k - n), kk * (m + k) ** 2 * (m + k + 1) ** 2)


def two_monomial_q(
    n1: int, m1: int, n2: int, m2: int, alpha, k: int
) -> Fraction:
    """Self-commutator form at the probe vector for
    z^n1 conj(z)^m1 + alpha z^n2 conj(z)^m2.

    When the two monomials shift degrees differently the cross terms are
    orthogonal and the value is the weighted sum of the one-monomial forms;
    when n1 - m1 == n2 - m2 an exact cross correction proportional to
    alpha + conj(alpha) appears.
    """
    a = as_scalar(alpha)
    s = a.abs2()
    base = closed_form_q(n1, m1, k) + s * closed_form_q(n2, m2, k)
    if n1 - m1 != n2 - m2:
        return base
    two_re = a.re * 2
    kk = (k + 1) * (k + 1)
    cross = Fraction(
        -n1 * n2 * (n2 + k - m2),
        kk * (n1 + k) * (n1 + k + 1) * (n2 + k) * (n2 + k + 1),
    ) + Fraction(
        m1 * m2 * (m2 + k - n2),
        kk * (m1 + k) * (m1 + k + 1) * (m2 + k) * (m2 + k + 1),
    )
    return base + two_re * cross


def monomial_defect_poly(n: int, m: int) -> RationalPolynomial:
    """p(x) = n^2 (x+n-m)(x+m)^2(x+m+1)^2 - m^2 (x+m-n)(x+n)^2(x+n+1)^2.

    Clears denominators in the one-monomial form; p vanishes identically
    iff n == m, and its x^5 coefficient is n^2 - m^2.
    """

    def half(u, v):
        return [u * u * c for c in _convolve([u - v, 1], _squared_pair(v))]

    return RationalPolynomial._of(
        [a - b for a, b in zip(half(n, m), half(m, n))], 1
    )


def _squared_pair(j: int) -> list[int]:
    """(x + j)^2 (x + j + 1)^2, as int coefficients, low degree first."""
    pair = [j * (j + 1), 2 * j + 1, 1]
    return _convolve(pair, pair)


def two_term_defect_components(
    n1: int, m1: int, n2: int, m2: int, s
) -> list[RationalPolynomial]:
    """The four cleared cross products [aG, s*bG, cG, s*dG] whose alternating
    sum is the two-term defect polynomial.  Each is (sign-carrying numerator)
    times the product of the squared linear pairs of the *other three*
    exponents, so special-point evaluations never divide by zero.

    With p_e the squared pair of exponent e, the products of the other three
    come from the halves p_n1 p_n2 and p_m1 p_m2, which each is shared by
    two of them.
    """
    s = Fraction(s)
    exps = [n1, n2, m1, m2]
    firsts = [n1 - m1, n2 - m2, m1 - n1, m2 - n2]
    weights = [(1, 1), (s.numerator, s.denominator)] * 2
    p = [_squared_pair(e) for e in exps]
    n_half, m_half = _convolve(p[0], p[1]), _convolve(p[2], p[3])
    others = [
        _convolve(p[1], m_half),
        _convolve(p[0], m_half),
        _convolve(n_half, p[3]),
        _convolve(n_half, p[2]),
    ]
    out = []
    for e, first, (num, den), other in zip(exps, firsts, weights, others):
        scale = e * e * num
        out.append(
            RationalPolynomial._of(
                [scale * c for c in _convolve([first, 1], other)], den
            )
        )
    return out


def two_term_defect_poly(n1: int, m1: int, n2: int, m2: int, s) -> RationalPolynomial:
    """H(x) = aG + s bG - cG - s dG, degree <= 13, leading coefficient
    n1^2 + s n2^2 - m1^2 - s m2^2 at x^13."""
    ag, sbg, cg, sdg = two_term_defect_components(n1, m1, n2, m2, s)
    return ag + sbg - cg - sdg


class SpecialPointCheck(NamedTuple):
    """One extreme-exponent evaluation of the defect components.

    At the point, the three components tied to the non-extreme exponents must
    vanish and the remaining one must not, which is what forces the exponent
    matching in the two-term classification.
    """

    point: Fraction
    surviving: int  # position into [aG, bG, cG, dG]
    vanished_values: tuple[Fraction, ...]
    surviving_value: Fraction

    @property
    def holds(self) -> bool:
        return self.surviving_value != 0 and all(
            v == 0 for v in self.vanished_values
        )


def two_term_special_points(
    n1: int, m1: int, n2: int, m2: int, s
) -> list[SpecialPointCheck]:
    """Evaluate the defect components at the extreme-exponent points.

    Components are [aG, s*bG, cG, s*dG] for exponents [n1, n2, m1, m2]; the
    s weight never changes where a component vanishes since s > 0.  Cases:
      n1 > max(n2, m1, m2): at x = -(n1+1) only aG survives;
      m2 > max(n1, n2, m1): at x = -(m2+1) only dG survives;
      n2 < min(n1, m1, m2): at x = -n2 only bG survives;
      m1 < min(n1, n2, m2): at x = -m1 only cG survives.
    """
    s = Fraction(s)
    if s <= 0:
        raise ValueError("s must be a positive rational")
    comps = two_term_defect_components(n1, m1, n2, m2, s)
    # positions into comps: aG=0 (n1), bG=1 (n2), cG=2 (m1), dG=3 (m2)
    cases = []
    if n1 > max(n2, m1, m2):
        cases.append((Fraction(-(n1 + 1)), 0))
    if m2 > max(n1, n2, m1):
        cases.append((Fraction(-(m2 + 1)), 3))
    if n2 < min(n1, m1, m2):
        cases.append((Fraction(-n2), 1))
    if m1 < min(n1, n2, m2):
        cases.append((Fraction(-m1), 2))
    checks = []
    for point, survivor in cases:
        values = [p(point) for p in comps]
        checks.append(
            SpecialPointCheck(
                point=point,
                surviving=survivor,
                vanished_values=tuple(
                    v for pos, v in enumerate(values) if pos != survivor
                ),
                surviving_value=values[survivor],
            )
        )
    return checks


def defect_balance_at_zero(n1: int, m1: int, n2: int, m2: int, s) -> bool:
    """Whether the two-term defect balances at k = 0:

        (n1-m1)/(n1+1)^2 + s (n2-m2)/(n2+1)^2
            == -(n1-m1)/(m1+1)^2 - s (n2-m2)/(m2+1)^2
    """
    s = Fraction(s)
    lhs = Fraction(n1 - m1, (n1 + 1) ** 2) + s * Fraction(n2 - m2, (n2 + 1) ** 2)
    rhs = -Fraction(n1 - m1, (m1 + 1) ** 2) - s * Fraction(n2 - m2, (m2 + 1) ** 2)
    return lhs == rhs


def equal_diff_defect_at_zero(n1: int, m1: int, n2: int, m2: int, alpha) -> Fraction:
    """For equal shifts n1-m1 == n2-m2 != 0 the k=0 defect reduces to

        (m1-n1) * (|1/(n1+1) + alpha/(n2+1)|^2 + |1/(m1+1) + alpha/(m2+1)|^2)

    which is nonzero, so such symbols are never hyponormal.
    """
    if n1 - m1 != n2 - m2:
        raise ValueError("needs equal exponent differences")
    if n1 == m1:
        raise ValueError("needs a nonzero exponent difference")
    a = as_scalar(alpha)
    w1 = a / (n2 + 1) + Fraction(1, n1 + 1)
    w2 = a / (m2 + 1) + Fraction(1, m1 + 1)
    return (m1 - n1) * (w1.abs2() + w2.abs2())


def radial_commutator_residual(n: int, m: int) -> tuple[Element, Fraction]:
    """Commutator residue of the radial pair |z|^(2n), |z|^(2m) on f0 = |z|^2 - 1/2.

    Returns ((I-Q) g, value of Q g) for
        g = |z|^(2m) Q(|z|^(2n) f0) - |z|^(2n) Q(|z|^(2m) f0);
    the harmonic part is the constant (n-m)/((n+1)(n+2)(m+1)(m+2)) and the
    complement part is nonzero whenever n != m.
    """
    if n < 1 or m < 1:
        raise ValueError("radial exponents must be >= 1")
    f0 = Element({(1, 1): 1, (0, 0): Fraction(-1, 2)})

    def radial(j: int) -> Element:
        return Element.monomial(j, j)

    g = radial(m) * harmonic_project(radial(n) * f0) - radial(n) * harmonic_project(
        radial(m) * f0
    )
    harmonic_part = harmonic_project(g)
    scalar = harmonic_part.constant_coefficient()
    if not scalar.is_real or len(harmonic_part) > (0 if scalar.is_zero else 1):
        raise RuntimeError("harmonic part of a radial residual must be a real constant")
    return complement_project(g), scalar.re


def adjoint_commutator_identity(phi: Element, psi: Element, h: Element) -> bool:
    """Adjoint of a commutator via conjugation:

        (S_conj(psi) S_conj(phi) - S_conj(phi) S_conj(psi)) h
            == conj((S_psi S_phi - S_phi S_psi)(conj h))
    """
    pb, qb = phi.conjugate(), psi.conjugate()
    lhs = apply(qb, apply(pb, h)) - apply(pb, apply(qb, h))
    rhs = (apply(psi, apply(phi, h.conjugate())) - apply(phi, apply(psi, h.conjugate()))).conjugate()
    return lhs == rhs
