"""Closed forms, defect polynomials, and the identities tying them together."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualtoeplitz import (
    Element,
    GaussianRational,
    RationalPolynomial,
    adjoint_commutator_identity,
    apply,
    closed_form_apply,
    closed_form_q,
    complement_project,
    defect_balance_at_zero,
    equal_diff_defect_at_zero,
    monomial_defect_poly,
    q_value,
    radial_commutator_residual,
    two_monomial_q,
    two_term_defect_components,
    two_term_defect_poly,
    two_term_special_points,
    parse_symbol,
)
from dualtoeplitz import test_vector as probe_vector


def F(*args):
    return Fraction(*args)


# a naive Fraction-list polynomial, low degree first, as the kernel's oracle
def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    out = [F(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _ref_eval(a, x):
    return sum((c * x**k for k, c in enumerate(a)), F(0))


rationals = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=8)
coefficient_lists = st.lists(st.one_of(st.just(F(0)), rationals), max_size=6)


class TestRationalPolynomial:
    def test_trims_and_degree(self):
        p = RationalPolynomial([1, 2, 0, 0])
        assert p.coeffs == [1, 2]
        assert p.degree == 1
        assert RationalPolynomial().is_zero
        assert RationalPolynomial([0, 0]).degree == -1

    def test_coefficient_out_of_range(self):
        p = RationalPolynomial([F(1, 2), 3])
        assert p.coefficient(0) == F(1, 2)
        assert p.coefficient(5) == 0
        assert p.coefficient(-1) == 0

    def test_arithmetic(self):
        x_plus_1 = RationalPolynomial.linear(1)
        x_minus_1 = RationalPolynomial.linear(-1)
        assert x_plus_1 * x_minus_1 == RationalPolynomial([-1, 0, 1])
        assert x_plus_1 + x_minus_1 == RationalPolynomial([0, 2])
        assert x_plus_1 - x_plus_1 == RationalPolynomial()
        assert (-x_plus_1).coeffs == [-1, -1]
        assert x_plus_1.scale(F(1, 2)) == RationalPolynomial([F(1, 2), F(1, 2)])
        assert 3 * x_plus_1 == x_plus_1 * 3 == RationalPolynomial([3, 3])

    def test_horner_evaluation(self):
        p = RationalPolynomial([1, -2, 3])  # 3x^2 - 2x + 1
        assert p(0) == 1
        assert p(F(1, 2)) == F(3, 4)
        assert p(-2) == 17
        assert RationalPolynomial()(7) == 0

    def test_constant(self):
        c = RationalPolynomial.constant(F(5, 3))
        assert c.degree == 0 and c(100) == F(5, 3)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(coefficient_lists, coefficient_lists, rationals, rationals)
    @example([F(1, 2), 0, F(-3, 4)], [0, 0], F(0), F(0))
    @example([F(2, 3), F(-1, 6)], [F(-2, 3), F(1, 6)], F(-3, 2), F(-7, 3))
    def test_matches_fraction_list_reference(self, a, b, c, x):
        p, q = RationalPolynomial(a), RationalPolynomial(b)
        cases = [
            (p, _trim(a)),
            (p + q, _ref_add(a, b)),
            (p - q, _ref_add(a, [-v for v in b])),
            (-p, _trim([-v for v in a])),
            (p * q, _ref_mul(a, b)),
            (p.scale(c), _trim([c * v for v in a])),
            (c * p, _trim([c * v for v in a])),
        ]
        for got, want in cases:
            assert got.coeffs == want
            assert all(type(v) is Fraction for v in got.coeffs)
            assert got == RationalPolynomial(want)
            assert got.degree == len(want) - 1
            assert got.is_zero == (not want)
            for k in range(-1, 8):
                assert got.coefficient(k) == (want[k] if 0 <= k < len(want) else 0)
            for point in (x, F(0), -x):
                value = got(point)
                assert type(value) is Fraction and value == _ref_eval(want, point)
            # canonical form: trimmed, reduced, zero over 1
            assert got.den > 0 and gcd(got.den, *got.nums) == 1
            assert not got.nums or got.nums[-1] != 0
            assert got.nums or got.den == 1
        assert (p == q) == (_trim(a) == _trim(b))


class TestClosedFormApply:
    def test_matches_engine(self):
        for n, m in ((0, 2), (3, 0), (2, 2), (4, 1)):
            sym = Element.monomial(n, m)
            for k in range(max(n, m) + 1, max(n, m) + 4):
                assert closed_form_apply(n, m, k) == apply(sym, probe_vector(k))

    def test_m_zero_merges_tail(self):
        # with m = 0 the middle and tail monomials share the key (n+k-1, 0)
        e = closed_form_apply(2, 0, 3)
        assert {key for key, _ in e.terms()} == {(5, 1), (4, 0)}
        assert e.coefficient(4, 0) == GaussianRational(F(-3, 4) + F(-1, 12))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_form_apply(2, 1, 2)  # needs k > max(n, m)
        with pytest.raises(ValueError):
            closed_form_apply(0, 0, 0)
        with pytest.raises(ValueError):
            closed_form_apply(-1, 0, 5)


class TestClosedFormQ:
    def test_frozen_value(self):
        assert closed_form_q(2, 1, 3) == F(-23, 28800)

    def test_antisymmetry_under_exponent_swap(self):
        for n, m in product(range(5), repeat=2):
            for k in range(max(n, m) + 1, max(n, m) + 4):
                assert closed_form_q(n, m, k) == -closed_form_q(m, n, k)

    def test_vanishes_iff_balanced(self):
        for n, m in product(range(1, 6), repeat=2):
            k = max(n, m) + 2
            if n == m:
                assert closed_form_q(n, m, k) == 0
            else:
                assert closed_form_q(n, m, k) != 0

    def test_matches_engine_form(self):
        for n, m in ((1, 2), (3, 1), (2, 2)):
            sym = Element.monomial(n, m)
            for k in range(max(n, m) + 1, max(n, m) + 4):
                assert q_value(sym, probe_vector(k)) == closed_form_q(n, m, k)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            closed_form_q(2, 3, 3)


class TestTwoMonomialQ:
    def test_distinct_shifts_have_no_cross_term(self):
        # n1-m1 != n2-m2: value is the |alpha|^2-weighted sum, any phase
        n1, m1, n2, m2, k = 2, 1, 1, 3, 5
        base = closed_form_q(n1, m1, k) + 4 * closed_form_q(n2, m2, k)
        for alpha in (2, -2, GaussianRational(0, 2), GaussianRational(F(6, 5), F(8, 5))):
            assert two_monomial_q(n1, m1, n2, m2, alpha, k) == base

    def test_equal_shifts_cross_term_tracks_real_part(self):
        n1, m1, n2, m2, k = 3, 2, 2, 1, 6
        plus = two_monomial_q(n1, m1, n2, m2, 1, k)
        minus = two_monomial_q(n1, m1, n2, m2, -1, k)
        imag = two_monomial_q(n1, m1, n2, m2, GaussianRational(0, 1), k)
        base = closed_form_q(n1, m1, k) + closed_form_q(n2, m2, k)
        assert imag == base
        assert plus + minus == 2 * base
        assert plus != base  # the cross term is really there

    def test_matches_engine(self):
        cases = [
            (2, 1, 1, 2, GaussianRational(1, 1)),
            (3, 1, 2, 0, GaussianRational(F(-2, 3))),
            (2, 1, 3, 2, GaussianRational(F(1, 2), F(1, 3))),
        ]
        for n1, m1, n2, m2, alpha in cases:
            sym = Element.monomial(n1, m1) + Element.monomial(n2, m2).scale(alpha)
            for k in range(max(n1, m1, n2, m2) + 1, max(n1, m1, n2, m2) + 4):
                assert q_value(sym, probe_vector(k)) == two_monomial_q(
                    n1, m1, n2, m2, alpha, k
                )


class TestMonomialDefectPoly:
    def test_leading_coefficient_and_vanishing(self):
        for n, m in product(range(7), repeat=2):
            p = monomial_defect_poly(n, m)
            assert p.coefficient(5) == n * n - m * m
            assert p.is_zero == (n == m)
            assert p.degree <= 5

    def test_swap_negates(self):
        assert monomial_defect_poly(4, 1) == -monomial_defect_poly(1, 4)

    def test_clears_denominators_of_form_value(self):
        # p(k) = -q(n,m,k) * (k+1)^2 (n+k)^2 (n+k+1)^2 (m+k)^2 (m+k+1)^2
        for n, m in ((2, 1), (1, 3), (4, 2), (3, 3)):
            p = monomial_defect_poly(n, m)
            for k in range(max(n, m) + 1, max(n, m) + 5):
                denom = (
                    F((k + 1) ** 2)
                    * (n + k) ** 2
                    * (n + k + 1) ** 2
                    * (m + k) ** 2
                    * (m + k + 1) ** 2
                )
                assert p(k) == -closed_form_q(n, m, k) * denom


def _sympy_coeffs(expr):
    coeffs = sp.Poly(expr, sp.Symbol("x")).all_coeffs()
    return _trim(F(int(c.p), int(c.q)) for c in reversed(coeffs))


def _sympy_monomial_defect(n, m):
    x = sp.Symbol("x")
    return sp.expand(
        n**2 * (x + n - m) * (x + m) ** 2 * (x + m + 1) ** 2
        - m**2 * (x + m - n) * (x + n) ** 2 * (x + n + 1) ** 2
    )


def _sympy_two_term_defect(n1, m1, n2, m2, s):
    # H = aG + s bG - cG - s dG: each term is e^2 (x + first) times the
    # squared pairs (x + e')^2 (x + e' + 1)^2 of the other three exponents
    x = sp.Symbol("x")
    exps = [n1, n2, m1, m2]
    firsts = [n1 - m1, n2 - m2, m1 - n1, m2 - n2]
    weights = [1, s, -1, -s]
    total = 0
    for pos in range(4):
        term = weights[pos] * exps[pos] ** 2 * (x + firsts[pos])
        for other in range(4):
            if other != pos:
                e = exps[other]
                term *= (x + e) ** 2 * (x + e + 1) ** 2
        total += term
    return sp.expand(total)


class TestDefectPolysAgainstSympy:
    def test_monomial_defect_poly(self):
        for n, m in product(range(5), repeat=2):
            want = _sympy_monomial_defect(n, m)
            got = monomial_defect_poly(n, m)
            assert got.coeffs == _sympy_coeffs(want)

    def test_two_term_defect_poly(self):
        weights = (sp.Integer(1), sp.Rational(3, 2), sp.Rational(2, 5))
        for index, (n1, m1, n2, m2) in enumerate(product(range(3), repeat=4)):
            s = weights[index % len(weights)]
            want = _sympy_two_term_defect(n1, m1, n2, m2, s)
            got = two_term_defect_poly(n1, m1, n2, m2, F(int(s.p), int(s.q)))
            assert got.coeffs == _sympy_coeffs(want)


def _reference_monomial_defect(n, m):
    lin = RationalPolynomial.linear

    def half(u, v):
        return (lin(u - v) * lin(v) * lin(v) * lin(v + 1) * lin(v + 1)).scale(u * u)

    return half(n, m) - half(m, n)


def _reference_two_term_components(n1, m1, n2, m2, s):
    # each component from RationalPolynomial products, factor by factor
    lin = RationalPolynomial.linear
    exps = [n1, n2, m1, m2]
    firsts = [n1 - m1, n2 - m2, m1 - n1, m2 - n2]
    weights = [F(1), s, F(1), s]
    out = []
    for pos in range(4):
        poly = RationalPolynomial.constant(exps[pos] ** 2) * lin(firsts[pos])
        for other in range(4):
            if other != pos:
                e = exps[other]
                poly = poly * lin(e) * lin(e) * lin(e + 1) * lin(e + 1)
        out.append(poly.scale(weights[pos]))
    return out


class TestDefectPolysAgainstProducts:
    def test_monomial_defect_poly(self):
        for n, m in product(range(7), repeat=2):
            got, want = monomial_defect_poly(n, m), _reference_monomial_defect(n, m)
            assert (got.nums, got.den) == (want.nums, want.den)

    def test_two_term_defect_components(self):
        weights = (F(1), F(3, 2), F(2, 5))
        for index, exps in enumerate(product(range(7), repeat=4)):
            s = weights[index % len(weights)]
            got = two_term_defect_components(*exps, s)
            want = _reference_two_term_components(*exps, s)
            assert [(p.nums, p.den) for p in got] == [(p.nums, p.den) for p in want]


class TestTwoTermDefectPoly:
    def test_components_shape(self):
        comps = two_term_defect_components(2, 1, 1, 2, F(3, 2))
        assert len(comps) == 4
        assert all(c.degree <= 13 for c in comps)
        # the s weight scales the n2 and m2 components linearly
        doubled = two_term_defect_components(2, 1, 1, 2, 3)
        assert doubled[1] == comps[1] * 2
        assert doubled[3] == comps[3] * 2
        assert doubled[0] == comps[0]
        assert doubled[2] == comps[2]

    def test_leading_coefficient(self):
        for n1, m1, n2, m2, s in (
            (2, 1, 1, 2, F(1)),
            (3, 1, 2, 4, F(1)),
            (4, 1, 2, 3, F(1, 2)),
            (5, 2, 1, 3, F(4)),
            (2, 2, 3, 1, F(1)),
        ):
            h = two_term_defect_poly(n1, m1, n2, m2, s)
            lead = n1 * n1 + s * n2 * n2 - m1 * m1 - s * m2 * m2
            assert h.coefficient(13) == lead
            assert h.degree <= 13

    def test_clears_denominators_of_form_value(self):
        # with a purely imaginary coefficient the cross term drops, so
        # H(k) = -(k+1)^2 prod_e (k+e)^2 (k+e+1)^2 * q(k) even for equal shifts
        cases = [
            (2, 1, 1, 3, GaussianRational(0, 1)),
            (3, 2, 2, 1, GaussianRational(0, 2)),
            (2, 1, 4, 3, GaussianRational(0, 1)),
        ]
        for n1, m1, n2, m2, alpha in cases:
            s = alpha.abs2()
            h = two_term_defect_poly(n1, m1, n2, m2, s)
            for k in range(max(n1, m1, n2, m2) + 1, max(n1, m1, n2, m2) + 4):
                denom = F((k + 1) ** 2)
                for e in (n1, n2, m1, m2):
                    denom *= (k + e) ** 2 * (k + e + 1) ** 2
                q = two_monomial_q(n1, m1, n2, m2, alpha, k)
                assert h(k) == -q * denom

    def test_conjugate_pair_balance(self):
        # symmetric pair with s = 1: H vanishes identically
        assert two_term_defect_poly(3, 1, 1, 3, 1).is_zero
        assert not two_term_defect_poly(3, 1, 1, 3, 2).is_zero


class TestSpecialPoints:
    def test_requires_positive_weight(self):
        with pytest.raises(ValueError):
            two_term_special_points(2, 1, 1, 2, 0)
        with pytest.raises(ValueError):
            two_term_special_points(2, 1, 1, 2, -1)

    def test_survivor_positions(self):
        checks = two_term_special_points(4, 2, 1, 3, 1)
        by_point = {c.point: c for c in checks}
        # n1 = 4 strict max -> -(n1+1); n2 = 1 strict min -> -n2
        assert by_point[F(-5)].surviving == 0
        assert by_point[F(-1)].surviving == 1
        assert all(c.holds for c in checks)

    def test_conjugate_pair_has_no_special_point(self):
        for n1, m1 in ((2, 1), (3, 1), (3, 2), (4, 2)):
            assert two_term_special_points(n1, m1, m1, n1, 1) == []

    def test_all_admissible_tuples_hold(self):
        # exponents >= 1: a zero exponent kills its component identically
        for n1, m1, n2, m2 in product(range(1, 5), repeat=4):
            if not (n1 > m1 and n2 < m2):
                continue
            for check in two_term_special_points(n1, m1, n2, m2, F(3, 2)):
                assert check.holds


class TestBalanceAtZero:
    def test_conjugate_pair_balances_only_at_unit_weight(self):
        for n1, m1 in ((2, 1), (3, 1), (4, 2)):
            assert defect_balance_at_zero(n1, m1, m1, n1, 1)
            assert not defect_balance_at_zero(n1, m1, m1, n1, 2)

    def test_balance_matches_constant_term(self):
        # H(0) = 0 exactly when the zero-order defect balances (exponents >= 1)
        tuples = [(2, 1, 1, 2), (3, 1, 1, 3), (2, 1, 1, 3), (3, 2, 2, 3), (4, 2, 1, 3)]
        for n1, m1, n2, m2 in tuples:
            for s in (F(1), F(2), F(1, 3)):
                h = two_term_defect_poly(n1, m1, n2, m2, s)
                assert defect_balance_at_zero(n1, m1, n2, m2, s) == (
                    h.coefficient(0) == 0
                )


class TestEqualDiffDefect:
    def test_frozen_value(self):
        assert equal_diff_defect_at_zero(2, 1, 3, 2, 1) == F(-149, 144)

    def test_validation(self):
        with pytest.raises(ValueError):
            equal_diff_defect_at_zero(2, 1, 1, 3, 1)  # diffs 1 and -2
        with pytest.raises(ValueError):
            equal_diff_defect_at_zero(2, 2, 3, 3, 1)  # zero diff

    def test_never_zero_for_distinct_monomials(self):
        # sign is opposite to n1 - m1, and the value cannot vanish
        alphas = [
            GaussianRational(1),
            GaussianRational(0, 1),
            GaussianRational(F(-4, 3)),
            GaussianRational(F(-3, 2)),  # kills one modulus for (2,1,3,2)
            GaussianRational(F(1, 2), F(-5, 7)),
        ]
        for d in (1, 2, -1):
            for m1 in range(0, 4):
                n1 = m1 + d
                if n1 < 0:
                    continue
                for m2 in range(0, 4):
                    n2 = m2 + d
                    if n2 < 0 or (n1, m1) == (n2, m2):
                        continue
                    for alpha in alphas:
                        if alpha.is_zero:
                            continue
                        value = equal_diff_defect_at_zero(n1, m1, n2, m2, alpha)
                        assert value != 0
                        assert (value < 0) == (n1 > m1)


class TestRadialResidual:
    def test_frozen_value(self):
        part, scalar = radial_commutator_residual(2, 1)
        assert scalar == F(1, 72)
        assert not part.is_zero

    def test_scalar_law(self):
        for n, m in product(range(1, 6), repeat=2):
            part, scalar = radial_commutator_residual(n, m)
            assert scalar == F(n - m, (n + 1) * (n + 2) * (m + 1) * (m + 2))
            if n == m:
                assert part.is_zero
            else:
                assert not part.is_zero

    def test_part_is_in_complement(self):
        part, _ = radial_commutator_residual(3, 1)
        assert complement_project(part) == part

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            radial_commutator_residual(0, 2)
        with pytest.raises(ValueError):
            radial_commutator_residual(2, 0)


class TestAdjointCommutatorIdentity:
    @staticmethod
    def _random_element(rng, max_exp=3, max_terms=3):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
            terms[key] = GaussianRational(
                F(rng.randint(-5, 5), rng.randint(1, 4)),
                F(rng.randint(-5, 5), rng.randint(1, 4)),
            )
        return Element(terms)

    def test_fixed_triples(self):
        phi = parse_symbol("z^2 zb")
        psi = parse_symbol("z zb^2")
        h = parse_symbol("z^2 zb - 2/3 z")
        assert adjoint_commutator_identity(phi, psi, h)

    def test_random_triples(self):
        rng = random.Random(20250815)
        for _ in range(10):
            phi = self._random_element(rng)
            psi = self._random_element(rng)
            h = complement_project(self._random_element(rng))
            assert adjoint_commutator_identity(phi, psi, h)
