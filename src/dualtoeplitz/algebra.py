"""Monomial sums on the unit disk with exact Gaussian-rational coefficients.

An Element is a finite sum  sum c_{n,m} z^n conj(z)^m  held in canonical form
(no zero coefficients).  The module provides the inner product of the
area-normalized Bergman space of the disk and the two projections used
throughout: onto the harmonic functions and onto their orthogonal complement.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

from . import _kernel as kernel
from ._kernel import GaussianRational

Scalar = Union[int, Fraction, "GaussianRational"]

_GR_ONE = GaussianRational(1)


def as_scalar(value: Scalar) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to a GaussianRational."""
    if type(value) is GaussianRational:
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError("expected an exact scalar, got %r" % (value,))


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

    # internal: wrap a kernel-produced canonical dict without copying
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
        return cls._wrap({(0, 0): _GR_ONE})

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
        return self._terms.get((n, m), kernel.GR_ZERO)

    def terms(self) -> Iterator[tuple[Monomial, GaussianRational]]:
        """Terms in lexicographic (n, m) order."""
        for key in sorted(self._terms):
            yield Monomial(*key), self._terms[key]

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return Element._wrap(kernel.terms_add(self._terms, other._terms))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Element._wrap({k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return Element._wrap(kernel.terms_product(self._terms, other._terms))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "Element":
        return Element._wrap(kernel.terms_scale(self._terms, as_scalar(c)))

    def conjugate(self) -> "Element":
        return Element._wrap(kernel.terms_conj(self._terms))

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


def inner_product(f: Element, g: Element) -> GaussianRational:
    """<f, g>, conjugate-linear in g, from the exact monomial pairing rule."""
    return kernel.terms_inner(f._terms, g._terms)


def norm_sq(f: Element) -> Fraction:
    """<f, f> as an exact nonnegative Fraction."""
    value = kernel.terms_inner(f._terms, f._terms)
    return value.re


def harmonic_project(f: Element) -> Element:
    """Projection onto the harmonic functions (analytic + co-analytic parts)."""
    return f - complement_project(f)


def complement_project(f: Element) -> Element:
    """Projection onto the orthogonal complement of the harmonic functions:
    the dual Toeplitz action of the unit symbol."""
    return Element._wrap(kernel.terms_apply({(0, 0): _GR_ONE}, f._terms))
