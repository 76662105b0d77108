"""Scalar arithmetic, elements, inner product, and projections."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtoeplitz import (
    Element,
    GaussianRational,
    as_scalar,
    complement_project,
    harmonic_project,
    inner_product,
    norm_sq,
)

from dualtoeplitz.algebra import GR_ONE, GR_ZERO, terms_inner
from dualtoeplitz.engine import factor_form
import oracle_dense as dense
from oracle_quadrature import inner_product_quadrature

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(lambda c: not c.is_zero)
exponents = st.integers(min_value=0, max_value=4)
term_lists = st.lists(
    st.tuples(st.tuples(exponents, exponents), scalars), max_size=4
)
elements = st.builds(Element, term_lists)

HYP = settings(derandomize=True, max_examples=60, deadline=None)


class TestGaussianRational:
    def test_normalization(self):
        c = GaussianRational(Fraction(2, 4), Fraction(-6, 8))
        assert (c.num_re, c.num_im, c.den) == (2, -3, 4)
        assert c.re == Fraction(1, 2)
        assert c.im == Fraction(-3, 4)
        big = GaussianRational(10**30, -(10**31))
        assert (big.num_re, big.num_im, big.den) == (10**30, -(10**31), 1)
        tiny = GaussianRational(Fraction(10**25, 7), Fraction(3, 10**20))
        assert (tiny.num_re, tiny.num_im, tiny.den) == (10**45, 21, 7 * 10**20)
        assert (GR_ZERO.num_re, GR_ZERO.num_im, GR_ZERO.den) == (0, 0, 1)
        assert (GR_ONE.num_re, GR_ONE.num_im, GR_ONE.den) == (1, 0, 1)
        assert GR_ZERO.is_zero and GR_ONE.is_real

    def test_int_inputs(self):
        c = GaussianRational(3, -2)
        assert (c.num_re, c.num_im, c.den) == (3, -2, 1)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)

    @HYP
    @given(rationals, rationals)
    def test_parts_round_trip(self, re_part, im_part):
        c = GaussianRational(re_part, im_part)
        assert c.re == re_part
        assert c.im == im_part
        assert c.den > 0
        from math import gcd

        assert gcd(c.num_re, c.num_im, c.den) == 1

    @HYP
    @given(scalars, scalars)
    def test_add_matches_fraction_pairs(self, x, y):
        s = x + y
        assert s.re == x.re + y.re
        assert s.im == x.im + y.im

    @HYP
    @given(scalars, scalars)
    def test_mul_matches_fraction_pairs(self, x, y):
        p = x * y
        assert p.re == x.re * y.re - x.im * y.im
        assert p.im == x.re * y.im + x.im * y.re

    @HYP
    @given(scalars, nonzero_scalars)
    def test_division_inverts_multiplication(self, x, y):
        assert (x / y) * y == x
        assert y * y.inverse() == 1

    @HYP
    @given(scalars)
    def test_conjugate_involution(self, x):
        assert x.conjugate().conjugate() == x
        assert (x * x.conjugate()).re == x.abs2()
        assert (x * x.conjugate()).im == 0

    def test_zero_division(self):
        one = GaussianRational(1)
        zero = GaussianRational(0)
        with pytest.raises(ZeroDivisionError):
            one / zero
        with pytest.raises(ZeroDivisionError):
            zero.inverse()

    def test_cross_type_arithmetic(self):
        c = GaussianRational(Fraction(1, 2), 1)
        assert c + 1 == GaussianRational(Fraction(3, 2), 1)
        assert 1 + c == c + 1
        assert 2 * c == GaussianRational(1, 2)
        assert c - Fraction(1, 2) == GaussianRational(0, 1)
        assert Fraction(1, 2) - c == GaussianRational(0, -1)
        assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)

    def test_eq_and_hash_against_numeric_tower(self):
        c = GaussianRational(Fraction(3, 2))
        assert c == Fraction(3, 2)
        assert hash(c) == hash(Fraction(3, 2))
        assert GaussianRational(5) == 5
        assert hash(GaussianRational(5)) == hash(5)
        assert GaussianRational(1, 1) != 1

    def test_real_sign_and_flags(self):
        assert GaussianRational(Fraction(-2, 3)).real_sign() == -1
        assert GaussianRational(0, 5).real_sign() == 0
        assert GaussianRational(1).is_real
        assert not GaussianRational(1, 1).is_real
        assert GaussianRational(0).is_zero
        assert not GaussianRational(0, Fraction(1, 7)).is_zero

    def test_as_scalar(self):
        assert as_scalar(3) == GaussianRational(3)
        assert as_scalar(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
        c = GaussianRational(1, 2)
        assert as_scalar(c) is c
        with pytest.raises(TypeError):
            as_scalar(1.5)


class TestElement:
    def test_merge_and_drop(self):
        e = Element(
            [
                ((1, 1), GaussianRational(Fraction(1, 2))),
                ((1, 1), GaussianRational(Fraction(1, 2))),
                ((2, 0), GaussianRational(1)),
                ((2, 0), GaussianRational(-1)),
            ]
        )
        assert e == Element.monomial(1, 1)
        assert len(e) == 1
        one = GR_ONE
        total = Element({(1, 1): one, (2, 0): one}) + Element({(1, 1): -one})
        assert total._terms == {(2, 0): one}

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            Element([((-1, 0), GaussianRational(1))])
        with pytest.raises(ValueError):
            Element([((1.0, 0), GaussianRational(1))])

    def test_terms_sorted(self):
        e = Element.monomial(2, 1) + Element.monomial(0, 3) + Element.monomial(2, 0)
        assert [(mono.n, mono.m) for mono, _ in e.terms()] == [(0, 3), (2, 0), (2, 1)]

    @HYP
    @given(elements, elements, elements)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + Element.zero() == f
        assert f * Element.one() == f
        assert f - f == Element.zero()

    @HYP
    @given(elements)
    def test_conjugate_involution(self, f):
        assert f.conjugate().conjugate() == f

    @HYP
    @given(elements, elements)
    def test_conjugate_is_multiplicative(self, f, g):
        assert (f * g).conjugate() == f.conjugate() * g.conjugate()

    def test_harmonic_flag(self):
        assert Element.monomial(3, 0).is_harmonic
        assert Element.monomial(0, 2).is_harmonic
        assert Element.one().is_harmonic
        assert not Element.monomial(1, 1).is_harmonic
        assert (Element.monomial(2, 0) + Element.monomial(0, 5)).is_harmonic


QUADRATURE_BATTERY = [
    # (f terms, g terms) with exponents <= 3
    ([((1, 0), (1, 0))], [((1, 0), (1, 0))]),
    ([((2, 1), (1, 0))], [((1, 0), (1, 0))]),
    ([((1, 0), (1, 0))], [((0, 1), (1, 0))]),
    ([((3, 2), (Fraction(1, 2), Fraction(1, 3)))], [((2, 1), (1, -2))]),
    (
        [((1, 1), (1, 0)), ((0, 0), (Fraction(-1, 2), 0))],
        [((1, 1), (1, 0)), ((0, 0), (Fraction(-1, 2), 0))],
    ),
    (
        [((2, 0), (0, 1)), ((1, 2), (Fraction(2, 3), 0))],
        [((0, 2), (1, 1)), ((3, 1), (0, Fraction(-1, 5)))],
    ),
    (
        [((3, 3), (Fraction(7, 4), 0)), ((2, 2), (0, 1)), ((1, 0), (1, 1))],
        [((3, 3), (1, 0)), ((0, 1), (Fraction(1, 6), Fraction(1, 7)))],
    ),
    ([((0, 0), (1, 0))], [((0, 0), (1, 0))]),
    ([((2, 3), (1, 0)), ((1, 2), (0, 2))], [((1, 2), (3, 0))]),
    ([((3, 0), (1, 1))], [((0, 3), (1, -1))]),
]


def _element_from_pairs(terms):
    return Element(
        [
            ((n, m), GaussianRational(re_part, im_part))
            for (n, m), (re_part, im_part) in terms
        ]
    )


class TestInnerProduct:
    @pytest.mark.parametrize("f_terms,g_terms", QUADRATURE_BATTERY)
    def test_against_quadrature_oracle(self, f_terms, g_terms):
        value = inner_product(
            _element_from_pairs(f_terms), _element_from_pairs(g_terms)
        )
        assert (value.re, value.im) == inner_product_quadrature(f_terms, g_terms)

    def test_monomial_closed_form(self):
        # <z^n zb^m, z^k zb^l> = 2/(n+m+k+l+2) iff n-m == k-l, else 0
        for n in range(4):
            for m in range(4):
                for k in range(4):
                    for l in range(4):
                        value = inner_product(
                            Element.monomial(n, m), Element.monomial(k, l)
                        )
                        if n - m == k - l:
                            assert value == Fraction(2, n + m + k + l + 2)
                        else:
                            assert value.is_zero

    @HYP
    @given(elements, elements, elements, scalars)
    def test_sesquilinear(self, f, g, h, c):
        assert inner_product(f + g, h) == inner_product(f, h) + inner_product(g, h)
        assert inner_product(c * f, h) == c * inner_product(f, h)
        assert inner_product(h, c * f) == c.conjugate() * inner_product(h, f)

    @HYP
    @given(elements, elements)
    def test_conjugation_identities(self, f, g):
        assert inner_product(f.conjugate(), g.conjugate()) == inner_product(g, f)
        assert inner_product(f, g) == inner_product(g, f).conjugate()

    @HYP
    @given(elements)
    def test_positivity(self, f):
        value = norm_sq(f)
        assert value >= 0
        assert (value == 0) == f.is_zero


# denominators up to 60 and exponents up to 5: the products of a pair fall
# into many denominator groups of terms_inner, and several pairs share one
wide_rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=60
)
wide_scalars = st.builds(GaussianRational, wide_rationals, wide_rationals)
wide_terms = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    wide_scalars.filter(lambda c: not c.is_zero),
    max_size=6,
)


def all_pairs_inner(f: dict, g: dict) -> tuple[Fraction, Fraction]:
    """<f, g> term pair by term pair in Fractions, frequencies unindexed."""
    re = im = Fraction(0)
    for (n, m), cf in f.items():
        for (k, l), cg in g.items():
            if n - m != k - l:
                continue
            weight = Fraction(2, n + m + k + l + 2)
            a, b, c, e = cf.re, cf.im, cg.re, cg.im
            re += (a * c + b * e) * weight
            im += (b * c - a * e) * weight
    return re, im


def as_pairs(terms: dict):
    return [(key, (c.re, c.im)) for key, c in terms.items()]


def assert_normalized(value, re: Fraction, im: Fraction) -> None:
    a, b, d = value.num_re, value.num_im, value.den
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (re, im)


class TestTermsInner:
    """The frequency-indexed, int-accumulated kernel against a term-pair
    Fraction sum and the quadrature oracle."""

    @HYP
    @given(wide_terms, wide_terms)
    def test_matches_all_pairs(self, f, g):
        assert_normalized(terms_inner(f, g), *all_pairs_inner(f, g))

    @HYP
    @given(wide_terms)
    def test_norm(self, f):
        value = terms_inner(f, f)
        re, im = all_pairs_inner(f, f)
        assert im == 0 and re >= 0 and (re == 0) == (not f)
        assert_normalized(value, re, im)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(wide_terms.filter(lambda t: len(t) <= 3), wide_terms.filter(lambda t: len(t) <= 3))
    def test_against_quadrature(self, f, g):
        value = terms_inner(f, g)
        assert (value.re, value.im) == inner_product_quadrature(as_pairs(f), as_pairs(g))

    @HYP
    @given(wide_terms, wide_terms, wide_terms)
    def test_cancels_to_exact_zero(self, f, g1, g2):
        # g = g1 + c g2 with conj(c) = -<f, g1>/<f, g2> is orthogonal to f
        re1, im1 = all_pairs_inner(f, g1)
        re2, im2 = all_pairs_inner(f, g2)
        norm = re2 * re2 + im2 * im2
        if norm == 0:
            return
        # -<f, g1>/<f, g2> = -(re1 + i im1)(re2 - i im2)/norm, then conjugate
        c = GaussianRational(
            -(re1 * re2 + im1 * im2) / norm, (im1 * re2 - re1 * im2) / norm
        )
        g = (Element(g1) + Element(g2).scale(c))._terms
        value = terms_inner(f, g)
        assert all_pairs_inner(f, g) == (0, 0)
        assert (value.num_re, value.num_im, value.den) == (0, 0, 1)

    def test_cancellation_inside_one_denominator(self):
        one = GaussianRational(1)
        # <2 z - 3 z^2 zb, z> = 2 * 2/4 - 3 * 2/6: two denominator groups, zero sum
        f = {(1, 0): GaussianRational(2), (2, 1): GaussianRational(-3)}
        g = {(1, 0): one}
        value = terms_inner(f, g)
        assert (value.num_re, value.num_im, value.den) == (0, 0, 1)
        # <i z zb + 1, -i + z zb>: the pairs (z zb, 1) and (1, z zb) share the
        # denominator 4 and their numerators -1 and 1 cancel inside the group
        f = {(1, 1): GaussianRational(0, 1), (0, 0): GaussianRational(1)}
        g = {(0, 0): GaussianRational(0, -1), (1, 1): one}
        assert all_pairs_inner(f, g) == (0, Fraction(4, 3))
        assert_normalized(terms_inner(f, g), 0, Fraction(4, 3))

    def test_empty_maps(self):
        f = {(2, 1): GaussianRational(Fraction(1, 3), Fraction(-2, 7))}
        for left, right in (({}, {}), (f, {}), ({}, f)):
            value = terms_inner(left, right)
            assert (value.num_re, value.num_im, value.den) == (0, 0, 1)

    def test_disjoint_frequencies(self):
        f = {(2, 0): GaussianRational(5), (3, 1): GaussianRational(0, 1)}
        g = {(0, 1): GaussianRational(7), (1, 1): GaussianRational(1, 1)}
        assert terms_inner(f, g).is_zero


factor_columns = st.dictionaries(
    st.integers(-9, 9), wide_scalars.filter(lambda c: not c.is_zero), max_size=6
)


class TestFactorForm:
    """factor_form sums as one running fraction; the reference groups the
    products by denominator and brings the groups to their lcm."""

    @HYP
    @given(factor_columns, factor_columns)
    def test_matches_the_grouping_reference(self, f, g):
        value = factor_form(f, g)
        assert (value.num_re, value.num_im, value.den) == dense.factor_form(f, g)

    @HYP
    @given(factor_columns)
    def test_self_form_is_real(self, f):
        value = factor_form(f, f)
        assert value.is_real
        assert (value.num_re, value.num_im, value.den) == dense.factor_form(f, f)

    def test_cancels_to_the_zero_triple(self):
        one = GaussianRational(1)
        # |1|^2/1 on key 0 minus |1|^2/1 on key 1, one denominator; then
        # |1|^2/1 on key 0 minus |1+i|^2/2 on key 3, two denominators
        for f in ({0: one, 1: one}, {0: one, 3: GaussianRational(1, 1)}):
            value = factor_form(f, f)
            assert (value.num_re, value.num_im, value.den) == (0, 0, 1)
        # keys held by one side only meet nothing
        assert factor_form({0: one}, {1: one}).is_zero


class TestProjections:
    @HYP
    @given(elements)
    def test_harmonic_plus_complement(self, f):
        assert harmonic_project(f) + complement_project(f) == f

    @HYP
    @given(elements)
    def test_idempotent(self, f):
        q = harmonic_project(f)
        assert harmonic_project(q) == q
        c = complement_project(f)
        assert complement_project(c) == c
        assert harmonic_project(c).is_zero

    @HYP
    @given(elements)
    def test_projection_output_is_harmonic(self, f):
        assert harmonic_project(f).is_harmonic

    @HYP
    @given(elements, elements)
    def test_self_adjoint(self, f, g):
        assert inner_product(harmonic_project(f), g) == inner_product(
            f, harmonic_project(g)
        )

    @HYP
    @given(elements, elements)
    def test_complement_orthogonal_to_harmonic(self, f, g):
        assert inner_product(complement_project(f), harmonic_project(g)).is_zero

    def test_harmonic_monomials_collapse(self):
        for k in range(5):
            assert complement_project(Element.monomial(k, 0)).is_zero
            assert complement_project(Element.monomial(0, k)).is_zero
        assert complement_project(Element.monomial(3, 0) + Element.monomial(0, 2)).is_zero

    def test_known_values(self):
        # (I-Q)(z zb) = z zb - 1/2
        f0 = complement_project(Element.monomial(1, 1))
        assert f0 == Element(
            [((1, 1), GaussianRational(1)), ((0, 0), GaussianRational(Fraction(-1, 2)))]
        )
        assert norm_sq(f0) == Fraction(1, 12)
        # Q(z^2 zb^2) = 1/3
        assert harmonic_project(Element.monomial(2, 2)) == Element(
            [((0, 0), GaussianRational(Fraction(1, 3)))]
        )
