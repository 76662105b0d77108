"""Symbol grammar: parsing, canonical printing, and round-trip identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtoeplitz import (
    Element,
    GaussianRational,
    ParseError,
    format_element,
    format_rational,
    format_scalar,
    parse_symbol,
)


def gr(re_part, im_part=0):
    return GaussianRational(Fraction(re_part), Fraction(im_part))


class TestParse:
    def test_plain_monomial(self):
        e = parse_symbol("z^2 zb")
        assert list(e.terms()) == [((2, 1), gr(1))]

    def test_complex_coefficient_and_difference(self):
        e = parse_symbol("(1/2 + 1/3 i) z zb^2 - z^3")
        assert e.coefficient(1, 2) == gr(Fraction(1, 2), Fraction(1, 3))
        assert e.coefficient(3, 0) == gr(-1)
        assert len(list(e.terms())) == 2

    def test_equal_monomials_merge(self):
        e = parse_symbol("z zb + z zb")
        assert list(e.terms()) == [((1, 1), gr(2))]
        assert parse_symbol("z - z").is_zero

    def test_whitespace_insensitive(self):
        reference = parse_symbol("(1/2 + 1/3 i) z zb^2 - z^3")
        for text in (
            "(1/2+1/3i)zzb^2-z^3",
            " ( 1 / 2 + 1 / 3 i ) z zb ^ 2 - z ^ 3 ",
            "(1/2 +1/3 i) z\tzb^2\n- z^3",
        ):
            assert parse_symbol(text) == reference

    def test_optional_star(self):
        assert parse_symbol("2*z") == parse_symbol("2 z")
        assert parse_symbol("(0+1i)*zb^2") == parse_symbol("(0+1i) zb^2")

    def test_bare_coefficients(self):
        assert parse_symbol("7").coefficient(0, 0) == gr(7)
        assert parse_symbol("-7/3").coefficient(0, 0) == gr(Fraction(-7, 3))
        assert parse_symbol("(2-5i)").coefficient(0, 0) == gr(2, -5)
        assert parse_symbol("0").is_zero

    def test_negative_imaginary_part(self):
        assert parse_symbol("(1/2 - 1/3 i) z").coefficient(1, 0) == gr(
            Fraction(1, 2), Fraction(-1, 3)
        )

    def test_exponent_one_and_implicit(self):
        assert parse_symbol("z^1 zb^1") == parse_symbol("z zb")

    def test_zb_without_z(self):
        e = parse_symbol("zb^4")
        assert list(e.terms()) == [((0, 4), gr(1))]

    def test_leading_minus_negates_the_first_term(self):
        assert parse_symbol("-z") == parse_symbol("-1 z")
        assert parse_symbol(" - z") == parse_symbol("-1 z")
        assert parse_symbol("- zb^2 + z") == parse_symbol("z - zb^2")
        assert parse_symbol("-(1+2i) z") == parse_symbol("(-1-2i) z")
        assert parse_symbol("-2 z") == parse_symbol("-(2) z") == parse_symbol("(-2) z")
        assert parse_symbol("-7/3 + z") == parse_symbol("z - 7/3")

    def test_printer_keeps_the_explicit_leading_rational(self):
        assert format_element(parse_symbol("-z")) == "-1 z"
        assert format_element(parse_symbol("- zb^2 + z")) == "-1 zb^2 + z"
        assert format_element(parse_symbol("-(1+2i) z")) == "(-1-2i) z"


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "z +",
            "+ z",
            "-",
            "- + z",
            "-- z",
            "z & zb",
            "1/0 z",
            "(1+2j) z",
            "(1+2i z",
            "z^",
            "z^-2",
            "zb^x",
            "(1/2",
            "(1/2+",
            "z zb z",  # z part cannot follow the zb part
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_symbol(text)

    def test_position_points_at_offender(self):
        with pytest.raises(ParseError) as info:
            parse_symbol("z @ zb")
        assert info.value.position == 2
        assert "(at position 2)" in str(info.value)

    def test_position_at_end_of_text(self):
        with pytest.raises(ParseError) as info:
            parse_symbol("z^")
        assert info.value.position == 2

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_symbol("junk!")


class TestFormat:
    def test_rational_and_scalar(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-10, 4)) == "-5/2"
        assert format_scalar(gr(Fraction(1, 2))) == "1/2"
        assert format_scalar(gr(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"
        assert format_scalar(gr(0, 1)) == "0+1i"

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.integers(-10**30, 10**30),
        st.integers(-10**30, 10**30),
        st.integers(1, 10**30),
        st.sampled_from([1, 2, 6, 12, 30, 2**40]),
    )
    def test_scalar_matches_fraction_formatting(self, p, r, q, s):
        # the triple path must print what the two Fractions print
        c = gr(Fraction(p, q), Fraction(r, q * s))
        if c.is_zero:
            expected = "0"
        elif c.is_real:
            expected = format_rational(c.re)
        else:
            sign = "-" if c.im < 0 else "+"
            expected = format_rational(c.re) + sign + format_rational(abs(c.im)) + "i"
        assert format_scalar(c) == expected

    parts = st.one_of(
        st.just(Fraction(0)),
        st.integers(-10**12, 10**12).map(Fraction),
        st.fractions(max_denominator=10**6),
    )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(parts, parts)
    def test_scalar_matches_reference_on_special_parts(self, re_part, im_part):
        # zero, real, purely imaginary and whole parts, each printed from its
        # own Fraction in lowest terms
        def ratio(x):
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"

        if im_part == 0:
            expected = ratio(re_part)
        else:
            sign = "-" if im_part < 0 else "+"
            expected = ratio(re_part) + sign + ratio(abs(im_part)) + "i"
        assert format_scalar(GaussianRational(re_part, im_part)) == expected

    def test_zero_element(self):
        assert format_element(Element.zero()) == "0"
        assert parse_symbol("0").is_zero

    def test_unit_coefficients_are_implicit(self):
        assert format_element(parse_symbol("1 z zb")) == "z zb"
        assert format_element(parse_symbol("z^2 - 1 zb^2")) == "-1 zb^2 + z^2"

    def test_leading_negative_real_is_explicit(self):
        assert format_element(parse_symbol("-2 z^3")) == "-2 z^3"
        assert format_element(parse_symbol("-1 z")) == "-1 z"
        assert format_element(parse_symbol("z - 1 zb")) == "-1 zb + z"
        assert format_element(parse_symbol("-1/2 zb^2 + z")) == "-1/2 zb^2 + z"

    def test_terms_come_out_in_lex_order(self):
        # keys sort lexicographically: (0,1) zb, then (1,0) z, then (3,0) z^3
        text = format_element(parse_symbol("z^3 - z + zb"))
        assert text == "zb - z + z^3"

    def test_whitespace_blindness_joins_digit_runs(self):
        # the scanner drops all whitespace, so "1 1" is the constant 11
        assert parse_symbol("1 1") == parse_symbol("11")

    def test_complex_coefficients_parenthesized(self):
        assert format_element(parse_symbol("(0+1i) z")) == "(0+1i) z"
        assert format_element(parse_symbol("(1-1i)")) == "(1-1i)"
        e = parse_symbol("(0-2i) z zb^2")
        assert format_element(e) == "(0-2i) z zb^2"


class TestRoundTrip:
    FIXED = [
        "z^2 zb",
        "(1/2+1/3i) z zb^2 - z^3",
        "z zb + z zb",
        "0",
        "7",
        "-7/3",
        "(0+1i)",
        "-1 z + zb + z^3",
        "3 z^2 zb^3 + z^3 zb^2",
        "(3/5+4/5i) z^3 zb + z zb^3",
        "1/2 zb - 1/2 z + (0+1i) z zb",
    ]

    @pytest.mark.parametrize("text", FIXED)
    def test_fixed_battery(self, text):
        e = parse_symbol(text)
        printed = format_element(e)
        assert parse_symbol(printed) == e
        # printing is idempotent on canonical strings
        assert format_element(parse_symbol(printed)) == printed

    def test_seeded_random_elements(self):
        rng = random.Random(8801)
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                key = (rng.randint(0, 5), rng.randint(0, 5))
                terms[key] = GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                    if rng.random() < 0.5
                    else Fraction(0),
                )
            e = Element(terms)
            printed = format_element(e)
            assert parse_symbol(printed) == e
            assert format_element(parse_symbol(printed)) == printed
