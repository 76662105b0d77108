"""Normality classification rules, certificates, and their invariances."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualtoeplitz import (
    Element,
    ExactMatrix,
    GaussianRational,
    NotNormalCertificate,
    Verdict,
    VerdictStatus,
    ZeroMatrixCertificate,
    classify,
    classify_harmonic,
    classify_monomial,
    classify_two_monomial,
    cli,
    format_element,
    numeric_certificate,
    parse_symbol,
    q_value,
    rank,
    selfcomm_form_matrix,
)


def gr(re_part, im_part=0):
    return GaussianRational(Fraction(re_part), Fraction(im_part))


def status_of(text, **kwargs):
    return classify(parse_symbol(text), **kwargs).status


def rule_of(text, **kwargs):
    return classify(parse_symbol(text), **kwargs).rule


class TestMonomialRule:
    def test_radial_is_normal(self):
        for n in (1, 2, 5):
            v = classify_monomial(gr(3, -2), n, n)
            assert v.status is VerdictStatus.NORMAL
            assert v.rule == "radial-monomial"

    def test_unbalanced_is_not_hyponormal(self):
        v = classify_monomial(1, 2, 1)
        assert v.status is VerdictStatus.NOT_HYPONORMAL
        assert v.rule == "unbalanced-monomial"
        assert classify_monomial(1, 0, 3).status is VerdictStatus.NOT_HYPONORMAL

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_monomial(0, 1, 1)
        with pytest.raises(ValueError):
            classify_monomial(1, -1, 0)


class TestTwoMonomialRule:
    def test_radial_pair_real_ratio(self):
        v = classify_two_monomial(gr(0, 2), gr(0, 3), (1, 1), (2, 2))
        assert v.status is VerdictStatus.NORMAL
        assert v.rule == "radial-pair-real-ratio"
        # negative real ratio still counts
        assert (
            classify_two_monomial(1, -2, (1, 1), (3, 3)).status
            is VerdictStatus.NORMAL
        )

    def test_radial_pair_nonreal_ratio(self):
        v = classify_two_monomial(1, gr(0, 1), (1, 1), (2, 2))
        assert v.status is VerdictStatus.NOT_HYPONORMAL
        assert v.rule == "radial-pair-nonreal-ratio"

    def test_conjugate_pair(self):
        balanced = classify_two_monomial(gr(Fraction(3, 5), Fraction(4, 5)), 1, (3, 1), (1, 3))
        assert balanced.status is VerdictStatus.NORMAL
        assert balanced.rule == "conjugate-pair-balanced"
        unbalanced = classify_two_monomial(2, 1, (3, 1), (1, 3))
        assert unbalanced.status is VerdictStatus.NOT_HYPONORMAL
        assert unbalanced.rule == "conjugate-pair-unbalanced"

    def test_mismatched_exponents(self):
        v = classify_two_monomial(1, 1, (2, 1), (1, 3))
        assert v.status is VerdictStatus.NOT_HYPONORMAL
        assert v.rule == "two-term-mismatched-exponents"

    def test_zero_exponent_goes_outside_scope(self):
        # the rule searches nothing; classify attaches the evidence
        bare = Verdict(VerdictStatus.OUTSIDE_PROVEN_SCOPE, "two-term-zero-exponent")
        assert classify_two_monomial(1, 1, (2, 1), (3, 0)) == bare
        v = classify(parse_symbol("z^2 zb + z^3"), 6)
        assert (v.status, v.rule) == (bare.status, bare.rule)
        assert isinstance(v.certificate, NotNormalCertificate)
        assert v.certificate.order <= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_two_monomial(0, 1, (1, 1), (2, 2))
        with pytest.raises(ValueError):
            classify_two_monomial(1, 1, (1, 1), (1, 1))
        with pytest.raises(ValueError):
            classify_two_monomial(1, 1, (1, -1), (2, 2))


class TestHarmonicRule:
    def test_requires_harmonic(self):
        with pytest.raises(ValueError):
            classify_harmonic(parse_symbol("z zb"))

    def test_constant(self):
        v = classify_harmonic(parse_symbol("5"))
        assert v.status is VerdictStatus.NORMAL and v.rule == "constant-symbol"

    def test_pencil_constant(self):
        for text in ("z + zb", "z - zb", "(1+1i) z + (1-1i) zb", "z^2 + zb^2"):
            v = classify_harmonic(parse_symbol(text))
            assert v.status is VerdictStatus.NORMAL
            assert v.rule == "harmonic-pencil-constant"

    def test_pencil_free(self):
        for text in ("z", "zb^3", "2 z + 3 zb", "z + zb^2", "z + zb + z^2 - zb^2"):
            v = classify_harmonic(parse_symbol(text))
            assert v.status is VerdictStatus.NOT_HYPONORMAL
            assert v.rule == "harmonic-pencil-free"


_parts = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)
_scalars = st.builds(GaussianRational, _parts, _parts)


@st.composite
def harmonic_symbols(draw):
    """Harmonic symbols: free coefficients (a_k on z^k, b_k on zb^k), or
    alpha*h + beta with h real-valued (b_k = alpha*conj(c_k) when a_k =
    alpha*c_k), whose coefficient matrix has rank <= 1."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        a = [draw(_scalars) for _ in degrees]
        b = [draw(_scalars) for _ in degrees]
    else:
        alpha = draw(_scalars.filter(bool))
        c = [draw(_scalars) for _ in degrees]
        a = [alpha * x for x in c]
        b = [alpha * x.conjugate() for x in c]
    terms = [((0, 0), draw(_scalars))]
    terms += [((k, 0), x) for k, x in zip(degrees, a)]
    terms += [((0, k), y) for k, y in zip(degrees, b)]
    return Element(terms)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(harmonic_symbols())
def test_harmonic_rule_matches_exact_rank(phi):
    # the rule reads rank <= 1 off the 2x2 minors; rank() decides it here by
    # elimination
    degrees = sorted({max(mono.n, mono.m) for mono, _ in phi.terms()} - {0})
    rows = []
    for k in degrees:
        a_k, b_k = phi.coefficient(k, 0), phi.coefficient(0, k)
        rows += [[a_k, b_k.conjugate()], [b_k, a_k.conjugate()]]
    verdict = classify_harmonic(phi)
    if not rows:
        assert verdict.rule == "constant-symbol"
    elif rank(ExactMatrix(rows)) <= 1:
        assert verdict == Verdict(VerdictStatus.NORMAL, "harmonic-pencil-constant")
    else:
        assert verdict == Verdict(VerdictStatus.NOT_HYPONORMAL, "harmonic-pencil-free")


class TestDispatcher:
    def test_zero_symbol(self):
        assert classify(Element.zero()).rule == "zero-symbol"
        assert classify(Element.zero()).status is VerdictStatus.NORMAL

    def test_single_term_routes(self):
        assert rule_of("7") == "constant-symbol"
        assert rule_of("z^2 zb^2") == "radial-monomial"
        assert rule_of("z^2 zb") == "unbalanced-monomial"
        # a lone harmonic monomial still uses the sharper one-term rule
        assert rule_of("zb^2") == "unbalanced-monomial"

    def test_harmonic_routes_before_two_term(self):
        # z^2 + zb: two harmonic terms, must use the harmonic rule
        assert rule_of("z^2 + zb") == "harmonic-pencil-free"

    def test_two_term_routes(self):
        assert rule_of("z zb + 2 z^2 zb^2") == "radial-pair-real-ratio"
        assert rule_of("z^2 zb + z zb^2") == "conjugate-pair-balanced"
        assert rule_of("z^2 zb + z zb^3") == "two-term-mismatched-exponents"
        assert rule_of("z^2 zb + z^3") == "two-term-zero-exponent"

    def test_merged_duplicates_collapse_to_one_term(self):
        # parser merges equal monomials, so this is a single radial term
        assert rule_of("1/2 z zb + 1/2 z zb") == "radial-monomial"

    def test_many_terms_outside_scope(self):
        v = classify(parse_symbol("z zb + z^2 zb^2 + z^3 zb"), order_limit=4)
        assert v.status is VerdictStatus.OUTSIDE_PROVEN_SCOPE
        assert v.rule == "outside-proven-scope"
        assert v.certificate is not None

    def test_scaling_invariance(self):
        texts = ("z^2 zb", "z zb + 3 z^2 zb^2", "z^2 zb + z zb^2", "z + zb", "2 z + 3 zb")
        scales = (gr(2), gr(0, 1), gr(Fraction(-3, 7), Fraction(1, 2)))
        for text in texts:
            phi = parse_symbol(text)
            base = classify(phi)
            for c in scales:
                scaled = classify(phi.scale(c))
                assert scaled.status == base.status
                assert scaled.rule == base.rule

    def test_conjugation_invariance(self):
        # S_conj(phi) is the adjoint, so normality is conjugation-invariant
        texts = (
            "z^2 zb",
            "z zb + (0+1i) z^2 zb^2",
            "z^2 zb + 2 z zb^2",
            "2 z + 3 zb",
            "z + zb",
        )
        for text in texts:
            phi = parse_symbol(text)
            assert classify(phi).status == classify(phi.conjugate()).status


class TestNumericCertificate:
    def test_zero_certificate_for_normal(self):
        cert = numeric_certificate(parse_symbol("z zb + z^2 zb^2"), 5)
        assert isinstance(cert, ZeroMatrixCertificate)
        assert cert.order == 5

    def test_witness_certificate(self):
        phi = parse_symbol("z^2 zb")
        cert = numeric_certificate(phi, 8)
        assert isinstance(cert, NotNormalCertificate)
        assert cert.value < 0
        assert q_value(phi, cert.witness) == cert.value
        assert not selfcomm_form_matrix(phi, cert.order).is_zero
        if cert.order > 1:
            assert selfcomm_form_matrix(phi, cert.order - 1).is_zero
        i, j = cert.entry
        n = cert.order
        assert 0 <= i < n * n and 0 <= j < n * n
        assert cert.entry_pairs[0] == (i // n + 1, i % n + 1)
        assert cert.entry_pairs[1] == (j // n + 1, j % n + 1)

    def test_order_limit_validation(self):
        with pytest.raises(ValueError):
            numeric_certificate(parse_symbol("z"), 0)


class TestClassifyWithCertificate:
    def test_normal_gets_zero_matrix_evidence(self):
        v = classify(parse_symbol("z^2 zb + z zb^2"), 6)
        assert v.status is VerdictStatus.NORMAL
        assert isinstance(v.certificate, ZeroMatrixCertificate)
        assert v.certificate.order == 6

    def test_not_hyponormal_gets_witness(self):
        v = classify(parse_symbol("2 z + 3 zb"), 8)
        assert v.status is VerdictStatus.NOT_HYPONORMAL
        assert isinstance(v.certificate, NotNormalCertificate)

    def test_outside_scope_keeps_inline_certificate(self):
        v = classify(parse_symbol("z^2 zb + z^3"), 8)
        assert v.status is VerdictStatus.OUTSIDE_PROVEN_SCOPE
        assert isinstance(v.certificate, NotNormalCertificate)

    def test_tiny_limit_is_reported_honestly(self):
        # proven not hyponormal, but the form matrix needs N >= 2 to show it
        phi = parse_symbol("z^3 zb^2 + z zb^2")
        v = classify(phi, 1)
        if isinstance(v.certificate, ZeroMatrixCertificate):
            assert v.status is VerdictStatus.NOT_HYPONORMAL
            assert v.certificate.order == 1
        else:
            assert v.certificate.order == 1


_small_exponents = st.integers(0, 3)
_small_symbols = st.builds(
    Element,
    st.lists(
        st.tuples(st.tuples(_small_exponents, _small_exponents), _scalars),
        max_size=3,
    ),
)


@st.composite
def _affine_real_symbols(draw):
    """alpha (c z^n zb^m + conj(c) z^m zb^n) + beta: normal, at most three
    terms, and routed to every rule that can say Normal."""
    n, m = draw(_small_exponents), draw(_small_exponents)
    c, alpha, beta = draw(_scalars), draw(_scalars), draw(_scalars)
    h = Element.monomial(n, m, c) + Element.monomial(m, n, c.conjugate())
    return h.scale(alpha) + Element.monomial(0, 0, beta)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(_small_symbols, _affine_real_symbols()))
def test_every_verdict_carries_its_evidence(phi):
    # one search backs every verdict, and the command line reports that
    # verdict's certificate as it is
    v = classify(phi, 4)
    assert v.certificate is not None
    if v.status is VerdictStatus.NORMAL:
        assert v.certificate == ZeroMatrixCertificate(order=4)
    if isinstance(v.certificate, NotNormalCertificate):
        assert v.certificate.value < 0
        assert q_value(phi, v.certificate.witness) == v.certificate.value
    out, err = io.StringIO(), io.StringIO()
    argv = ["classify", f"--symbol={format_element(phi)}", "--N-max", "4"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv) == 0
    result = json.loads(out.getvalue())["result"]
    assert (result["status"], result["rule"]) == (v.status.value, v.rule)
    assert result["certificate"] == cli._certificate_payload(v.certificate)
