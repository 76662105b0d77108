"""Operator action, probe vectors, truncated bases, and form matrices."""

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualtoeplitz import (
    COMMUTATOR_GRID,
    CommutatorAssembly,
    Element,
    GaussianRational,
    HermitianForm,
    NotNormalCertificate,
    SelfcommAssembly,
    TWO_TERM_GRID,
    ZeroMatrixCertificate,
    apply,
    build_basis,
    classify,
    closed_form_apply,
    commutator_matrix,
    commutator_range_gram,
    complement_project,
    format_element,
    harmonic_project,
    inner_product,
    norm_sq,
    numeric_certificate,
    parse_symbol,
    psd_test,
    q_value,
    rank,
    selfcomm_form_matrix,
)
from dualtoeplitz import ExactMatrix, cli
from dualtoeplitz import test_vector as probe_vector
from dualtoeplitz import _kernel as kernel
from dualtoeplitz.engine import (
    _HarmonicFactor,
    _Projection,
    _fill,
    combination,
    exponent_pairs,
)
from dualtoeplitz.linalg import Echelon, factored_rank

from oracle_psd import charpoly_psd
from oracle_rank import bruteforce_rank, matrix_to_pairs

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=8
)
scalars = st.builds(GaussianRational, rationals, rationals)
exponents = st.integers(min_value=0, max_value=3)
elements = st.builds(
    Element,
    st.lists(st.tuples(st.tuples(exponents, exponents), scalars), max_size=3),
)

HYP = settings(derandomize=True, max_examples=40, deadline=None)


class TestApply:
    def test_is_complement_of_product(self):
        phi = Element.monomial(1, 1)
        f = Element.monomial(2, 1) + Element.monomial(0, 1, Fraction(1, 3))
        assert apply(phi, f) == complement_project(phi * f)

    @HYP
    @given(elements, elements, elements, scalars)
    def test_linear_in_argument(self, phi, f, g, c):
        assert apply(phi, f + g) == apply(phi, f) + apply(phi, g)
        assert apply(phi, c * f) == c * apply(phi, f)

    @HYP
    @given(elements, elements, elements)
    def test_additive_in_symbol(self, phi, psi, f):
        assert apply(phi + psi, f) == apply(phi, f) + apply(psi, f)

    def test_output_in_complement(self):
        phi = Element.monomial(2, 1)
        f = probe_vector(3)
        assert harmonic_project(apply(phi, f)).is_zero

    @HYP
    @given(
        elements,
        elements,
        st.tuples(exponents, exponents, exponents),
        scalars,
        scalars,
    )
    def test_one_pass_matches_product_then_projection(self, phi, f, degrees, c, h):
        # harmonic and constant terms on both sides, whose products the one
        # pass skips or cancels, and normalized triples in the result
        n, m, k = degrees
        phi = phi + Element.monomial(n, 0, h) + Element.monomial(0, 0, c)
        f = f + Element.monomial(0, m, c) + Element.monomial(k, 0, h)
        got = apply(phi, f)
        assert got == complement_project(phi * f)
        for coefficient in got._terms.values():
            a, b, d = coefficient.num_re, coefficient.num_im, coefficient.den
            assert (a or b) and d > 0 and gcd(a, b, d) == 1

    def test_matches_closed_form_sample(self):
        for (n, m, k) in ((0, 0, 1), (1, 0, 2), (0, 2, 3), (2, 1, 3), (3, 3, 5)):
            assert apply(Element.monomial(n, m), probe_vector(k)) == closed_form_apply(
                n, m, k
            )

    def test_known_action(self):
        # S_{z zb} f_2 = z^3 zb^2 - 2/3 z^2 zb - 1/18 z
        got = apply(Element.monomial(1, 1), probe_vector(2))
        expected = Element(
            [
                ((3, 2), GaussianRational(1)),
                ((2, 1), GaussianRational(Fraction(-2, 3))),
                ((1, 0), GaussianRational(Fraction(-1, 18))),
            ]
        )
        assert got == expected


class TestAdjointAndForm:
    @HYP
    @given(elements, elements, elements)
    def test_adjoint_pairing(self, phi, f, g):
        # <S_phi f, g> = <f, S_conj(phi) g> for complement vectors f, g
        f = complement_project(f)
        g = complement_project(g)
        assert inner_product(apply(phi, f), g) == inner_product(
            f, apply(phi.conjugate(), g)
        )

    @HYP
    @given(elements, elements)
    def test_q_value_is_norm_difference(self, phi, f):
        expected = norm_sq(apply(phi, f)) - norm_sq(apply(phi.conjugate(), f))
        assert q_value(phi, f) == expected

    def test_q_value_conjugation_antisymmetry_seeded(self):
        rng = random.Random(20240817)
        for _ in range(30):
            phi = _random_element(rng)
            f = _random_element(rng)
            assert q_value(phi, f) == -q_value(phi, f.conjugate())

    def test_known_q_value(self):
        assert q_value(Element.monomial(2, 1), probe_vector(3)) == Fraction(-23, 28800)


def _random_element(rng, max_exp=4, max_terms=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(0, max_exp)
        m = rng.randint(0, max_exp)
        c = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
        )
        terms.append(((n, m), c))
    return Element(terms)


class TestTestVector:
    def test_formula(self):
        # f_k = z^k zb - (k/(k+1)) z^(k-1)
        for k in range(1, 6):
            expected = Element(
                [
                    ((k, 1), GaussianRational(1)),
                    ((k - 1, 0), GaussianRational(Fraction(-k, k + 1))),
                ]
            )
            assert probe_vector(k) == expected

    def test_lies_in_complement(self):
        for k in range(1, 6):
            assert harmonic_project(probe_vector(k)).is_zero

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            probe_vector(0)


class TestBasis:
    def test_pairs_and_index(self):
        basis = build_basis(3)
        assert len(basis) == 9
        assert basis.pairs == tuple(
            (n, m) for n in range(1, 4) for m in range(1, 4)
        )
        for i, (n, m) in enumerate(basis.pairs):
            assert basis.index(n, m) == i

    def test_swap_permutation(self):
        basis = build_basis(3)
        for i, (n, m) in enumerate(basis.pairs):
            assert basis.swap[i] == basis.index(m, n)
        # involution
        assert [basis.swap[basis.swap[i]] for i in range(len(basis))] == list(
            range(len(basis))
        )

    def test_vectors_are_complement_projections(self):
        basis = build_basis(2)
        for (n, m), vec in zip(basis.pairs, basis.vectors):
            assert vec == complement_project(Element.monomial(n, m))
            assert not vec.is_zero
            assert harmonic_project(vec).is_zero

    def test_conjugating_a_vector_lands_on_swap(self):
        basis = build_basis(3)
        for i, vec in enumerate(basis.vectors):
            assert vec.conjugate() == basis.vectors[basis.swap[i]]


class TestFormMatrices:
    def test_selfcomm_is_hermitian(self):
        phi = Element.monomial(2, 1) + Element.monomial(0, 1, GaussianRational(0, 1))
        a = selfcomm_form_matrix(phi, 3)
        assert a.is_hermitian()

    def test_selfcomm_entries_direct(self):
        phi = Element.monomial(2, 1)
        basis = build_basis(2)
        a = selfcomm_form_matrix(phi, 2)
        bar = phi.conjugate()
        for i, ei in enumerate(basis.vectors):
            for j, ej in enumerate(basis.vectors):
                expected = inner_product(apply(phi, ej), apply(phi, ei)) - (
                    inner_product(apply(bar, ej), apply(bar, ei))
                )
                assert a[i, j] == expected

    def test_selfcomm_zero_for_real_valued_symbols(self):
        for text_terms in (
            [((1, 1), GaussianRational(1))],
            [((1, 0), GaussianRational(1)), ((0, 1), GaussianRational(1))],
            [((2, 2), GaussianRational(Fraction(5, 3)))],
        ):
            phi = Element(text_terms)
            assert selfcomm_form_matrix(phi, 3).is_zero

    def test_commutator_entries_direct(self):
        phi = Element.monomial(1, 0)
        psi = Element.monomial(0, 1)
        basis = build_basis(2)
        b = commutator_matrix(phi, psi, 2)
        for i, ei in enumerate(basis.vectors):
            for j, ej in enumerate(basis.vectors):
                w = apply(phi, apply(psi, ej)) - apply(psi, apply(phi, ej))
                assert b[i, j] == inner_product(w, ei)

    def test_commutator_z_zb_order_two(self):
        # frozen from a direct computation: the commutator kills e_{1,1} and
        # e_{2,2} and sends e_{1,2} to -(1/12) e_{1,2}, e_{2,1} to +(1/12)
        # e_{2,1}; with ||e_{1,2}||^2 = 1/36 the pairing entries are -/+ 1/432
        b = commutator_matrix(Element.monomial(1, 0), Element.monomial(0, 1), 2)
        for i in range(4):
            for j in range(4):
                if (i, j) == (1, 1):
                    assert b[i, j] == Fraction(-1, 432)
                elif (i, j) == (2, 2):
                    assert b[i, j] == Fraction(1, 432)
                else:
                    assert b[i, j].is_zero

    def test_range_gram_is_gram(self):
        phi = Element.monomial(2, 1)
        psi = Element.monomial(1, 1)
        basis = build_basis(2)
        g = commutator_range_gram(phi, psi, 2)
        outputs = [
            apply(phi, apply(psi, e)) - apply(psi, apply(phi, e))
            for e in basis.vectors
        ]
        for i in range(len(outputs)):
            for j in range(len(outputs)):
                assert g[i, j] == inner_product(outputs[j], outputs[i])

    def test_range_gram_is_psd(self):
        # a Gram matrix has a positive trace, outside psd_test's forms, so the
        # sympy charpoly oracle decides it
        g = commutator_range_gram(Element.monomial(1, 0), Element.monomial(0, 1), 3)
        assert g.is_hermitian()
        is_psd, gram_rank = charpoly_psd(g)
        assert is_psd
        assert gram_rank == rank(g)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            build_basis(0)
        with pytest.raises(ValueError):
            selfcomm_form_matrix(Element.monomial(1, 1), 0)


symbols = st.builds(
    lambda terms, constant: Element(terms) + Element.monomial(0, 0, constant),
    st.lists(st.tuples(st.tuples(exponents, exponents), scalars), max_size=3),
    st.one_of(st.just(GaussianRational(0)), scalars),
)
orders = st.integers(min_value=1, max_value=5)


# the dense-elim top symbol
WIDE_TOP = "(-12/13+5/13i) zb^2 + (3/5-4/5i) z + (15/17+8/17i) z^3 zb"


class TestGradedAssembly:
    """The builders compute an entry only where its row and column share a
    key: a factor key for both forms, a frequency of the images' terms for
    the range Gram.  Every entry must still equal the one computed over all
    index pairs."""

    @staticmethod
    def _check(phi, psi, order):
        basis = build_basis(order)
        size = len(basis)
        bar = phi.conjugate()
        u = [apply(phi, e) for e in basis.vectors]
        v = [apply(bar, e) for e in basis.vectors]
        w = [
            apply(phi, apply(psi, e)) - apply(psi, apply(phi, e))
            for e in basis.vectors
        ]
        form = ExactMatrix.build(
            size,
            size,
            lambda i, j: inner_product(u[j], u[i]) - inner_product(v[j], v[i]),
        )
        pairing = ExactMatrix.build(
            size, size, lambda i, j: inner_product(w[j], basis.vectors[i])
        )
        gram = ExactMatrix.build(size, size, lambda i, j: inner_product(w[j], w[i]))
        assert selfcomm_form_matrix(phi, order) == form
        assert commutator_matrix(phi, psi, order) == pairing
        assert commutator_range_gram(phi, psi, order) == gram

    @HYP
    @given(symbols, symbols, orders)
    # the key rule skips entries of all three matrices that a rule on the
    # symbols' frequency sets would compute
    @example(parse_symbol(WIDE_TOP), parse_symbol("z^2 zb + z^3"), 3)
    @example(parse_symbol("z^2 zb + z^3"), parse_symbol("zb^2 + z"), 3)
    def test_matches_all_pairs(self, phi, psi, order):
        self._check(phi, psi, order)

    def test_mixed_frequencies_with_constant(self):
        # frequencies {0, 1, -2} and {1, 0}
        phi = Element.monomial(0, 0, 2) + Element.monomial(1, 0) + Element.monomial(
            0, 2, GaussianRational(0, 1)
        )
        psi = Element.monomial(2, 1) + Element.monomial(0, 0, Fraction(-1, 3))
        self._check(phi, psi, 3)


def combine(basis, coords):
    """sum_j coords[j] e_j, formed here as a reference for the engine's."""
    witness = Element.zero()
    for coord, vec in zip(coords, basis.vectors):
        witness = witness + vec.scale(coord)
    return witness


def fresh_certificate(phi, order_limit):
    """The certificate search with a new assembly at every order."""
    for order in range(1, order_limit + 1):
        basis = build_basis(order)
        a = selfcomm_form_matrix(phi, order)
        location = a.first_nonzero()
        if location is None:
            continue
        result = psd_test(HermitianForm(a))
        witness = combine(basis, result.witness)
        i, j = location
        return NotNormalCertificate(
            order, location, (basis.pairs[i], basis.pairs[j]), witness, result.value
        )
    return ZeroMatrixCertificate(order_limit)


def rank_table(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["rank", *argv]) == 0
    return json.loads(out.getvalue())["result"]["table"]


# a radial pair with a real ratio: its form matrix is zero at every order
STAYS_ZERO = parse_symbol("2 z zb - 3 z^2 zb^2 + 1/2")


class TestAcrossOrders:
    """One assembly reused over orders 1..N (in any sequence) must give the
    matrices, certificates and rank tables of a fresh build at each order."""

    @HYP
    @given(symbols, symbols, st.lists(orders, min_size=1, max_size=6))
    def test_assemblies_match_fresh_builds(self, phi, psi, sequence):
        forms = SelfcommAssembly(phi)
        pair = CommutatorAssembly(psi, phi)
        for order in sequence:
            assert forms.matrix(order) == selfcomm_form_matrix(phi, order)
            assert pair.pairing(order) == commutator_matrix(psi, phi, order)
            assert pair.range_gram(order) == commutator_range_gram(psi, phi, order)

    @HYP
    @given(symbols, st.integers(min_value=1, max_value=4))
    @example(STAYS_ZERO, 4)
    def test_certificate_matches_fresh_search(self, phi, order_limit):
        cert = numeric_certificate(phi, order_limit)
        assert cert == fresh_certificate(phi, order_limit)
        if phi == STAYS_ZERO:
            assert cert == ZeroMatrixCertificate(order_limit)

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(symbols, symbols, st.integers(min_value=1, max_value=4))
    @example(STAYS_ZERO, STAYS_ZERO, 4)
    def test_rank_tables_match_fresh_builds(self, phi, psi, n_max):
        phi_text, psi_text = format_element(phi), format_element(psi)
        got = rank_table("--symbol", phi_text, "--N-max", str(n_max))
        assert got == [
            {"N": order, "rank": rank(selfcomm_form_matrix(phi, order))}
            for order in range(1, n_max + 1)
        ]
        if phi == STAYS_ZERO:
            assert all(row["rank"] == 0 for row in got)
        want = []
        for order in range(1, n_max + 1):
            pair = CommutatorAssembly(phi, psi)
            b, gram = pair.pairing(order), pair.range_gram(order)
            want.append({"N": order, "rank": rank(b), "gram_rank": rank(gram)})
        got = rank_table(
            "--symbol", phi_text, "--symbol2", psi_text, "--N-max", str(n_max)
        )
        assert got == want


# radial pairs with a non-real ratio: nonzero forms with a zero diagonal
RADIAL_NONREAL = (
    Element.monomial(1, 1) + Element.monomial(2, 2, GaussianRational(0, 1)),
    parse_symbol("(3/5+4/5i) z zb + 2 z^3 zb^3 - 1"),
)


class TestTraceZeroForms:
    """Every truncated self-commutator form has trace zero, so psd_test
    finds it PSD exactly when it is zero, and its witness follows one of the
    two rules read off the entries."""

    @HYP
    @given(symbols, orders)
    @example(RADIAL_NONREAL[0], 2)
    @example(RADIAL_NONREAL[1], 4)
    @example(parse_symbol("z^2 zb"), 3)
    @example(STAYS_ZERO, 5)
    def test_witness_rules(self, phi, order):
        basis = build_basis(order)
        forms = SelfcommAssembly(phi)
        a = forms.matrix(order)
        n = len(basis)
        diagonal = [a[k, k] for k in range(n)]
        assert sum(diagonal, start=GaussianRational(0)).is_zero
        result = psd_test(a)
        assert result.is_psd == a.is_zero == (forms.rank(order) == 0)
        if result.is_psd:
            assert result.rank == 0
            return
        expected = [GaussianRational(0)] * n
        if any(not d.is_zero for d in diagonal):
            k = next(k for k, d in enumerate(diagonal) if d.re < 0)
            expected[k] = GaussianRational(1)
            assert result.value == diagonal[k].re
        else:
            i, j = a.first_nonzero()
            expected[i] = GaussianRational(1)
            expected[j] = -a[i, j].inverse()
            assert result.value == -2
        assert result.witness == expected
        assert q_value(phi, combine(basis, result.witness)) == result.value

    def test_engine_combination_matches_reference(self):
        basis = build_basis(3)
        coords = [GaussianRational(k - 4, k % 3) for k in range(len(basis))]
        assert combination(basis.pairs, coords) == combine(basis, coords)


# forms that vanish through orders 1..2 and 1..3, then do not: they walk the
# screen's checked prefix forward before it stops
LATE_NONZERO = (
    parse_symbol("(-2+1i) zb^3 + (-2-1i) z^2 zb^2 + (-2+1i) z^3"),
    parse_symbol("2 zb^4 + (-1-2i) z^3 zb^3 + 2 z^4"),
)


def first_nonzero_order(phi, order_limit):
    """The first order whose freshly built form matrix is nonzero, or None."""
    for order in range(1, order_limit + 1):
        if not selfcomm_form_matrix(phi, order).is_zero:
            return order
    return None


class TestGramScreen:
    """SelfcommAssembly.vanishes decides A = 0 from the Gram of the chosen
    factor columns, checked a prefix at a time across orders; it must agree
    with the rank, with the matrix, and with a fresh search."""

    @HYP
    @given(symbols, orders)
    @example(LATE_NONZERO[0], 3)
    @example(LATE_NONZERO[1], 4)
    @example(STAYS_ZERO, 5)
    def test_vanishes_iff_rank_zero_iff_zero_matrix(self, phi, order):
        vanishes = SelfcommAssembly(phi).vanishes(order)
        assert vanishes == (SelfcommAssembly(phi).rank(order) == 0)
        assert vanishes == SelfcommAssembly(phi).matrix(order).is_zero

    @HYP
    @given(symbols, orders)
    @example(LATE_NONZERO[0], 5)
    @example(LATE_NONZERO[1], 5)
    @example(STAYS_ZERO, 5)
    def test_walked_and_jumped_assemblies_agree(self, phi, top):
        walked = SelfcommAssembly(phi)
        walk = [walked.vanishes(order) for order in range(1, top + 1)]
        jumped = SelfcommAssembly(phi)
        jumped.vanishes(top)
        assert [jumped.vanishes(order) for order in range(1, top + 1)] == walk
        fresh = [
            selfcomm_form_matrix(phi, order).is_zero for order in range(1, top + 1)
        ]
        assert walk == fresh

    @HYP
    @given(symbols, orders)
    @example(LATE_NONZERO[0], 5)
    @example(LATE_NONZERO[1], 5)
    @example(STAYS_ZERO, 5)
    def test_certificate_order_is_first_nonzero_fresh_order(self, phi, order_limit):
        cert = numeric_certificate(phi, order_limit)
        first = first_nonzero_order(phi, order_limit)
        if first is None:
            assert cert == ZeroMatrixCertificate(order_limit)
        else:
            assert isinstance(cert, NotNormalCertificate)
            assert cert.order == first
        if phi in LATE_NONZERO:
            assert first == LATE_NONZERO.index(phi) + 3


class TestOrderPathsBuildNoBasis:
    """Ranks, the Gram screen and a certificate search, whether it stays
    zero or finds a witness, go order by order from exponent pairs, with no
    basis built."""

    @pytest.fixture
    def no_basis(self, monkeypatch):
        engine = importlib.import_module("dualtoeplitz.engine")
        bases = {order: build_basis(order) for order in range(1, 7)}

        def refuse(*args, **kwargs):
            raise AssertionError("a basis was built")

        # TruncatedBasis too, so that no module's own name for build_basis
        # gets round the refusal
        monkeypatch.setattr(engine, "build_basis", refuse)
        monkeypatch.setattr(engine, "TruncatedBasis", refuse)
        return bases

    def test_ranks_build_no_basis(self, no_basis):
        phi = parse_symbol("zb^2 + z + z^3 zb")
        psi = parse_symbol("z^2 zb + z^3")
        forms, pair = SelfcommAssembly(phi), CommutatorAssembly(psi, phi)
        got = [(forms.rank(order), pair.ranks(order)) for order in range(1, 7)]
        assert [forms.vanishes(order) for order in range(1, 7)] == [
            r == 0 for r, _ in got
        ]
        fresh = [
            (
                SelfcommAssembly(phi).rank(order),
                CommutatorAssembly(psi, phi).ranks(order),
            )
            for order in no_basis
        ]
        assert got == fresh
        assert [r for r, _ in got] == [0, 2, 6, 12, 18, 24]

    def test_zero_search_builds_no_basis(self, no_basis):
        assert numeric_certificate(STAYS_ZERO, 6) == ZeroMatrixCertificate(6)
        phi = parse_symbol("z^2 zb + z zb^2 + z zb")
        assert numeric_certificate(phi, 6) == ZeroMatrixCertificate(6)

    def test_witness_search_builds_no_basis(self, no_basis):
        # the search reaches a nonzero order and combines a witness there
        phi = parse_symbol("z^2 zb")
        cert = numeric_certificate(phi, 4)
        assert isinstance(cert, NotNormalCertificate)
        assert cert.value < 0 and q_value(phi, cert.witness) == cert.value
        text, expected = next(
            (text, expected)
            for text, expected in TWO_TERM_GRID
            if expected == "NotHyponormal"
        )
        verdict = classify(parse_symbol(text), 6)
        assert verdict.status.value == expected
        assert isinstance(verdict.certificate, NotNormalCertificate)
        assert verdict.certificate.order <= 6

    def test_factor_paths_project_nothing(self, monkeypatch):
        # the factor columns come from the exponent pairs in closed form, so
        # ranks, the screen, the form matrix and the pairing of an order
        # project no basis vector
        engine = importlib.import_module("dualtoeplitz.engine")
        want = [
            selfcomm_form_matrix(STAYS_ZERO, order).is_zero for order in range(1, 7)
        ]
        phi = parse_symbol("zb^2 + z + z^3 zb")
        psi = parse_symbol("z^2 zb + z^3")
        reference = CommutatorAssembly(psi, phi).pairing(6)

        def refuse(f):
            raise AssertionError("complement_project called")

        monkeypatch.setattr(engine, "complement_project", refuse)
        forms, zero = SelfcommAssembly(phi), SelfcommAssembly(STAYS_ZERO)
        assert [forms.rank(order) for order in range(1, 7)] == [0, 2, 6, 12, 18, 24]
        assert [forms.vanishes(order) for order in range(1, 7)] == [True] + [False] * 5
        assert [zero.vanishes(order) for order in range(1, 7)] == want
        assert not forms.matrix(6).is_zero
        assert CommutatorAssembly(psi, phi).pairing(6) == reference


class TestCommutatorParity:
    """Swap-conjugated antisymmetry and even rank hold for every symbol pair,
    including pairs where the restriction rank trails the range-Gram rank."""

    PAIRS = [
        ("z^2", "zb"),
        ("z^3 zb", "z zb"),
        ("(1+2i) z^2 + zb^2", "z zb^2"),
        ("z + z^2 + zb^3", "z^2 zb^2"),
        ("1/2 z^3", "(0+1i) zb^2 + z"),
    ]

    def test_universal_facts_on_non_grid_pairs(self):
        from dualtoeplitz import is_antisymmetric, parse_symbol, rank

        for phi_text, psi_text in self.PAIRS:
            phi = parse_symbol(phi_text)
            psi = parse_symbol(psi_text)
            for order in (1, 2, 3):
                basis = build_basis(order)
                b = commutator_matrix(phi, psi, order)
                assert is_antisymmetric(b.permute_rows(basis.swap))
                assert rank(b) % 2 == 0

    def test_rank_matches_sympy_on_sample(self):
        import sympy as sp

        from dualtoeplitz import parse_symbol, rank

        for phi_text, psi_text in self.PAIRS[:3]:
            b = commutator_matrix(parse_symbol(phi_text), parse_symbol(psi_text), 3)
            mirror = sp.Matrix(
                [
                    [
                        sp.Rational(b[i, j].re) + sp.I * sp.Rational(b[i, j].im)
                        for j in range(b.cols)
                    ]
                    for i in range(b.rows)
                ]
            )
            assert rank(b) == mirror.rank()


def _harmonic(half):
    """sum_d c_d h_d for {d: c_d}, with h_d = z^d (d >= 0) or conj(z)^(-d)."""
    out = Element.zero()
    for d, c in half.items():
        out = out + Element.monomial(max(d, 0), max(-d, 0), c)
    return out


def _halves(column):
    """The two harmonic elements of a factor column keyed 2d + half."""
    halves = ({}, {})
    for key, c in column.items():
        halves[key & 1][key >> 1] = c
    return tuple(_harmonic(h) for h in halves)


def _dense(columns):
    """Sparse columns as the oracle's rows over the union of their keys."""
    keys = sorted({key for column in columns for key in column})
    zero = GaussianRational(0)
    return [
        [(column.get(key, zero).re, column.get(key, zero).im) for column in columns]
        for key in keys
    ]


def _greedy(columns):
    """Positions of the columns that make a pivot, added in order to one Echelon."""
    echelon = Echelon()
    return [j for j, column in enumerate(columns) if echelon.add(column)]


def _independent_and_maximal(columns):
    chosen = _greedy(columns)
    assert chosen == sorted(chosen)
    picked = [columns[j] for j in chosen]
    assert bruteforce_rank(_dense(picked)) == len(chosen)
    assert bruteforce_rank(_dense(columns)) == len(chosen)


class TestHarmonicCore:
    """Ranks through the factors Q(phi e_j): the factor identities against
    the image assembly, the column selection against the brute-force oracle,
    and the core ranks against full-matrix ranks."""

    @HYP
    @given(symbols, orders)
    def test_selfcomm_factor_identity(self, phi, order):
        basis = build_basis(order)
        bar = phi.conjugate()
        forms = SelfcommAssembly(phi)
        a = forms.matrix(order)
        halves = [_halves(column) for column in forms.factors(order)[0]]
        for (q_bar, q), e in zip(halves, basis.vectors):
            assert q_bar == harmonic_project(bar * e)
            assert q == harmonic_project(phi * e)
        for i, (bar_i, q_i) in enumerate(halves):
            for j, (bar_j, q_j) in enumerate(halves):
                assert a[i, j] == inner_product(bar_j, bar_i) - inner_product(q_j, q_i)

    @HYP
    @given(symbols, symbols, orders)
    def test_commutator_factor_identity(self, phi, psi, order):
        basis = build_basis(order)
        bar_phi, bar_psi = phi.conjugate(), psi.conjugate()
        columns, rows = CommutatorAssembly(phi, psi).factors(order)
        b = commutator_matrix(phi, psi, order)
        adjoint_images = []
        for e, column, row in zip(basis.vectors, columns, rows):
            q_phi, q_psi = _halves(column)
            assert (q_phi, q_psi) == (harmonic_project(phi * e), harmonic_project(psi * e))
            w = apply(phi, apply(psi, e)) - apply(psi, apply(phi, e))
            assert w == complement_project(psi * q_phi) - complement_project(phi * q_psi)
            # [S_phi, S_psi]* e = [S_conj(psi), S_conj(phi)] e, from the row
            # halves (Q(conj(psi) e), Q(conj(phi) e))
            q_bar_psi, q_bar_phi = _halves(row)
            assert (q_bar_psi, q_bar_phi) == (
                harmonic_project(bar_psi * e),
                harmonic_project(bar_phi * e),
            )
            adjoint_images.append(
                complement_project(bar_phi * q_bar_psi)
                - complement_project(bar_psi * q_bar_phi)
            )
        for i, image in enumerate(adjoint_images):
            for j, e in enumerate(basis.vectors):
                assert b[i, j] == inner_product(e, image)

    @HYP
    @given(symbols, symbols, orders)
    def test_selection_is_independent_and_maximal(self, phi, psi, order):
        _independent_and_maximal(SelfcommAssembly(phi).factors(order)[0])
        for factor in CommutatorAssembly(phi, psi).factors(order):
            _independent_and_maximal(factor)

    @HYP
    @given(symbols, symbols, orders)
    def test_core_ranks_match_full_matrices(self, phi, psi, order):
        a = selfcomm_form_matrix(phi, order)
        assert SelfcommAssembly(phi).rank(order) == rank(a)
        assert rank(a) == bruteforce_rank(matrix_to_pairs(a))
        pair = CommutatorAssembly(phi, psi)
        b, gram = pair.pairing(order), pair.range_gram(order)
        assert pair.ranks(order) == (rank(b), rank(gram))
        assert rank(b) == bruteforce_rank(matrix_to_pairs(b))
        assert rank(gram) == bruteforce_rank(matrix_to_pairs(gram))

    def test_rank_table_pinned_beyond_the_oracle(self):
        # computed by full-matrix elimination on the whole N^2 x N^2 form
        ranks = [0, 2, 6, 12, 18, 24, 30, 36, 40, 44, 48, 52]
        got = rank_table("--symbol", "zb^2 + z + z^3 zb", "--N-max", "12")
        assert got == [{"N": n, "rank": r} for n, r in enumerate(ranks, start=1)]

    def test_commutator_rank_table_pinned_beyond_the_oracle(self):
        # computed by full-matrix elimination on B and the range Gram at each
        # order; the span of the chosen images grows along S across the table
        ranks = [(0, 1), (4, 4), (6, 8), (10, 13), (14, 17), (18, 21)]
        ranks += [(22, 25), (26, 29), (30, 33), (34, 37), (38, 41), (42, 45)]
        pair = ("--symbol", "z^2 zb + z^3", "--symbol2", "zb^2 + z")
        got = rank_table(*pair, "--N-max", "12")
        assert got == [
            {"N": n, "rank": r, "gram_rank": g}
            for n, (r, g) in enumerate(ranks, start=1)
        ]
        # one assembly asked out of order reads the same prefixes
        assembly = CommutatorAssembly(parse_symbol(pair[1]), parse_symbol(pair[3]))
        for order in (12, 3, 7, 1, 12):
            assert assembly.ranks(order) == ranks[order - 1]

    def test_dense_top_form_rank_pinned(self):
        # the dense-elim benchmark's top command: rank 44 of 100
        out, err = io.StringIO(), io.StringIO()
        argv = ["matrix", "selfcomm", "--symbol", WIDE_TOP, "--N", "10"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(argv) == 0
        assert json.loads(out.getvalue())["diagnostics"]["rank"] == 44


def _with_constant(terms, constant):
    return Element(terms) + Element.monomial(0, 0, constant)


constants = st.one_of(st.just(GaussianRational(0)), scalars)
harmonic_terms = st.lists(
    st.tuples(
        st.one_of(
            st.builds(lambda n: (n, 0), exponents),
            st.builds(lambda m: (0, m), exponents),
        ),
        scalars,
    ),
    max_size=3,
)
radial_terms = st.lists(
    st.tuples(st.builds(lambda n: (n, n), exponents), scalars), max_size=3
)


@st.composite
def affine_real(draw):
    """alpha h + beta with h = c z^n zb^m + conj(c) z^m zb^n real-valued:
    S_h is self-adjoint, so the form is zero at every order."""
    n, m = draw(exponents), draw(exponents)
    c, alpha, beta = draw(scalars), draw(scalars), draw(scalars)
    h = Element.monomial(n, m, c) + Element.monomial(m, n, c.conjugate())
    return h.scale(alpha) + Element.monomial(0, 0, beta)


# mixed frequencies, harmonic and radial symbols, and normal ones, each with
# or without a constant term
factor_symbols = st.one_of(
    symbols,
    st.builds(_with_constant, harmonic_terms, constants),
    st.builds(_with_constant, radial_terms, constants),
    affine_real(),
)


def _triple(c):
    return (c.num_re, c.num_im, c.den)


def _inverse_weight(key):
    # G^-1 on the factor keys: +(|d|+1) on 2d, -(|d|+1) on 2d + 1
    return -(abs(key >> 1) + 1) if key & 1 else abs(key >> 1) + 1


def _fresh_rank(columns):
    """The factored rank from a fresh echelon over these columns in order."""
    echelon = Echelon()
    count = sum(echelon.add(column) for column in columns)
    keys = sorted({key for column in columns for key in column})
    return factored_rank(echelon, count, echelon, count, keys, _inverse_weight)


class TestFactorForm:
    """The self-commutator form and the commutator pairing from their harmonic
    factors: entries as factor dot products, the rank from the factors'
    echelons and complements, and the echelons kept across orders."""

    @HYP
    @given(factor_symbols, st.integers(min_value=1, max_value=4))
    @example(parse_symbol("(-12/13+5/13i) zb^2 + (3/5-4/5i) z + 1/2"), 4)
    def test_entries_match_image_inner_products(self, phi, order):
        basis = build_basis(order)
        bar = phi.conjugate()
        u = [apply(phi, e) for e in basis.vectors]
        v = [apply(bar, e) for e in basis.vectors]
        a = SelfcommAssembly(phi).matrix(order)
        for i in range(len(basis)):
            for j in range(len(basis)):
                want = inner_product(u[j], u[i]) - inner_product(v[j], v[i])
                assert _triple(a[i, j]) == _triple(want)

    @HYP
    @given(factor_symbols, factor_symbols, st.integers(min_value=1, max_value=4))
    @example(
        parse_symbol("z^2 zb + z^3"),
        parse_symbol("(-12/13+5/13i) zb^2 + 2 z zb + 1/2"),
        4,
    )
    def test_commutator_entries_match_image_inner_products(self, phi, psi, order):
        basis = build_basis(order)
        w = [
            apply(phi, apply(psi, e)) - apply(psi, apply(phi, e))
            for e in basis.vectors
        ]
        b = CommutatorAssembly(phi, psi).pairing(order)
        for i, e in enumerate(basis.vectors):
            for j in range(len(basis)):
                assert _triple(b[i, j]) == _triple(inner_product(w[j], e))

    @HYP
    @given(factor_symbols, st.integers(min_value=1, max_value=4))
    @example(parse_symbol("z^2 zb + z^3 + 1"), 4)
    @example(parse_symbol(WIDE_TOP), 4)
    @example(parse_symbol("(3/5-4/5i) z^2 zb + 2 zb + (1-2i)"), 3)
    def test_form_is_minus_the_pairing_with_the_conjugate(self, phi, order):
        # S_phi* = S_conj(phi), so A(phi) = -B(phi, conj(phi)), entry for
        # entry and in rank
        forms = SelfcommAssembly(phi)
        pair = CommutatorAssembly(phi, phi.conjugate())
        a, b = forms.matrix(order), pair.pairing(order)
        for i in range(a.rows):
            for j in range(a.cols):
                assert _triple(a[i, j]) == _triple(-b[i, j])
        assert forms.rank(order) == pair.ranks(order)[0]

    @HYP
    @given(factor_symbols, orders)
    @example(parse_symbol("0"), 3)
    @example(parse_symbol("(5/2-3i)"), 3)
    @example(parse_symbol("2 z zb - 3 z^2 zb^2 + 1/2"), 5)
    @example(parse_symbol("(3/5+4/5i) z^2 zb + (3/5-4/5i) z zb^2"), 5)
    def test_inertia_rank_matches_oracles(self, phi, order):
        a = selfcomm_form_matrix(phi, order)
        got = SelfcommAssembly(phi).rank(order)
        assert got == rank(a)
        assert got == bruteforce_rank(matrix_to_pairs(a))

    @HYP
    @given(factor_symbols, orders)
    def test_complement_is_the_orthogonal_complement(self, phi, order):
        columns = SelfcommAssembly(phi).factors(order)[0]
        echelon = Echelon()
        chosen = [column for column in columns if echelon.add(column)]
        keys = sorted({key for column in columns for key in column})
        complement = echelon.complement(keys)
        assert len(complement) == len(keys) - len(chosen)
        zero = GaussianRational(0)
        for y in complement:
            assert set(y) <= set(keys)
            for column in chosen:
                # (M_S^H y)_j = sum_k conj(M_j[k]) y_k
                dot = sum(
                    (c.conjugate() * y.get(key, zero) for key, c in column.items()),
                    start=zero,
                )
                assert dot.is_zero
        assert bruteforce_rank(_dense(complement)) == len(complement)

    def test_normal_symbol_has_a_wide_complement(self):
        # A = 0, so V lies in G^-1 V^perp and K - |S| is about K/2
        phi = parse_symbol("(3/5+4/5i) z^2 zb + (3/5-4/5i) z zb^2 + 1")
        columns = SelfcommAssembly(phi).factors(6)[0]
        keys = {key for column in columns for key in column}
        chosen = _greedy(columns)
        assert SelfcommAssembly(phi).rank(6) == 0
        assert 2 * (len(keys) - len(chosen)) >= len(keys) - 2

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(factor_symbols, symbols, st.lists(orders, min_size=1, max_size=6))
    def test_incremental_matches_fresh_echelons(self, phi, psi, sequence):
        forms = SelfcommAssembly(phi)
        pair = CommutatorAssembly(phi, psi)
        for order in sequence:
            columns = SelfcommAssembly(phi).factors(order)[0]
            assert forms.rank(order) == _fresh_rank(columns)
            fresh = CommutatorAssembly(phi, psi)
            b, gram = fresh.pairing(order), fresh.range_gram(order)
            assert pair.ranks(order) == (rank(b), rank(gram))

    def test_large_order_rank_pinned(self):
        # 4N + 4 at N = 24 (rank 100 of 576), first found as the whole-matrix
        # rank of A[S, S], the form on the chosen columns
        assert SelfcommAssembly(parse_symbol(WIDE_TOP)).rank(24) == 100


key_sets = st.lists(st.sets(st.integers(0, 3), max_size=2), min_size=1, max_size=5)
maybe_zero = st.one_of(st.just(GaussianRational(0)), scalars)


class TestSparseFill:
    """_fill stores an entry only where it is nonzero: a row and a column
    that share a key can still give an exact zero, which is dropped."""

    def test_shared_key_with_zero_product_is_dropped(self):
        one = GaussianRational(1)
        # M_0 holds h_0 in both halves, so <M_0, M_0>_G = 1 - 1 = 0 over
        # the shared keys 0 and 1
        columns = [{0: one, 1: one}, {0: one}]
        a = _fill(
            columns,
            columns,
            lambda i, j: kernel.factor_form(columns[i], columns[j]),
            hermitian=True,
        )
        assert a.entries == [{1: one}, {0: one, 1: one}]
        # a real mirror entry is the same object
        assert a.entries[1][0] is a.entries[0][1]

    def test_normal_form_stores_nothing(self):
        # every column's keys meet its own, yet the form cancels everywhere
        phi = parse_symbol("(3/5+4/5i) z^2 zb + (3/5-4/5i) z zb^2")
        forms = SelfcommAssembly(phi)
        columns = forms.factors(4)[0]
        assert all(columns)
        a = forms.matrix(4)
        assert a.is_zero and a.entries == [{} for _ in range(16)]

    @HYP
    @given(key_sets, st.data())
    def test_matches_the_dense_rule(self, keys, data):
        n = len(keys)
        cols = data.draw(st.one_of(st.just(keys), key_sets))
        hermitian = cols is keys and data.draw(st.booleans())
        table = [[data.draw(maybe_zero) for _ in cols] for _ in keys]
        if hermitian:
            for i in range(n):
                table[i][i] = GaussianRational(table[i][i].re)
        a = _fill(keys, cols, lambda i, j: table[i][j], hermitian)
        want = [
            [table[i][j] if keys[i] & cols[j] else GaussianRational(0) for j in range(len(cols))]
            for i in range(n)
        ]
        if hermitian:
            for i in range(n):
                for j in range(i):
                    want[i][j] = want[j][i].conjugate()
        assert a.data == want
        assert not any(c.is_zero for row in a.entries for c in row.values())

    @HYP
    @given(factor_symbols, symbols, orders)
    def test_assembled_matrices_store_no_zero(self, phi, psi, order):
        pair = CommutatorAssembly(phi, psi)
        forms = (
            (SelfcommAssembly(phi).matrix(order), True),
            (pair.pairing(order), False),
            (pair.range_gram(order), True),
        )
        for a, hermitian in forms:
            assert not any(c.is_zero for row in a.entries for c in row.values())
            if hermitian:
                assert a.is_hermitian()
                for i, row in enumerate(a.entries):
                    for j, c in row.items():
                        assert (a.entries[j][i] is c) == (c.is_real or i == j)


class TestClosedFormColumns:
    """Factor columns from the exponent pairs alone, and the selection graded
    by frequency, against the projections and one plain Echelon."""

    @HYP
    @given(factor_symbols)
    @example(parse_symbol("(-12/13+5/13i) zb^2 + (3/5-4/5i) z + 1/2"))
    @example(parse_symbol("3 + z^4 zb^4"))
    def test_columns_match_projections(self, phi):
        bar = phi.conjugate()
        pairs = [(n, m) for n in range(1, 9) for m in range(1, 9)]
        columns = SelfcommAssembly(phi).factors(8)[0]
        assert len(columns) == len(pairs)
        for (n, m), column in zip(pairs, columns):
            e = complement_project(Element.monomial(n, m))
            want = {}
            for half, symbol in enumerate((bar, phi)):
                for (a, b), c in harmonic_project(symbol * e)._terms.items():
                    want[2 * (a - b) + half] = _triple(c)
            assert {key: _triple(c) for key, c in column.items()} == want

    @HYP
    @given(factor_symbols, symbols)
    @example(parse_symbol(WIDE_TOP), parse_symbol("z^2 zb + z^3"))
    def test_graded_selection_matches_one_echelon(self, phi, psi):
        # orders 1..8, each order's new pairs in basis order, as the
        # selection takes them
        pairs = sorted(
            ((n, m) for n in range(1, 9) for m in range(1, 9)),
            key=lambda pair: (max(pair), pair),
        )
        q_phi, q_psi = _Projection(phi), _Projection(psi)
        for first, second in ((q_phi.mirror, q_phi), (q_phi, q_psi)):
            factor = _HarmonicFactor(first, second)
            chosen, keys = factor.selection(8)
            plain = Echelon()
            columns = factor.columns(pairs)
            assert chosen == [
                pair for pair, column in zip(pairs, columns) if plain.add(column)
            ]
            assert factor.echelon.pivots == plain.pivots
            assert keys == list(dict.fromkeys(k for c in columns for k in c))

    def test_each_half_is_computed_once_per_pair(self, monkeypatch):
        # the conjugate symbols' halves are mirrors, so order N takes N^2
        # closed forms for the form's factor and 2 N^2 for the commutator's
        # columns and rows together
        kernel = importlib.import_module("dualtoeplitz._kernel")
        closed_form = kernel.terms_harmonic_factor
        calls = []

        def counted(phi, n, m):
            calls.append((n, m))
            return closed_form(phi, n, m)

        monkeypatch.setattr(kernel, "terms_harmonic_factor", counted)
        phi = parse_symbol(WIDE_TOP)
        psi = parse_symbol("z^2 zb + z^3")
        for order in (1, 4, 7):
            calls.clear()
            SelfcommAssembly(phi).rank(order)
            assert len(calls) == order * order
            assert len(set(calls)) == order * order
            calls.clear()
            CommutatorAssembly(phi, psi).ranks(order)
            assert len(calls) == 2 * order * order
            assert len(set(calls)) == order * order


def _four_applies(phi, psi, pair):
    """The reference image (S_phi S_psi - S_psi S_phi) e_{n,m}, from the
    projected basis vector with four applications."""
    e = complement_project(Element.monomial(*pair))
    return apply(phi, apply(psi, e)) - apply(psi, apply(phi, e))


class TestCommutatorImages:
    """The images w_j = P(psi Q(phi e_j)) - P(phi Q(psi e_j)) come from the
    factor halves with two applications on harmonic elements; the four
    applications to the projected basis vector are the reference."""

    @pytest.mark.parametrize(
        "phi_text, psi_text", [(phi, psi) for phi, psi, _ in COMMUTATOR_GRID]
    )
    def test_grid_images_match_four_applies(self, phi_text, psi_text):
        phi, psi = parse_symbol(phi_text), parse_symbol(psi_text)
        pairs = exponent_pairs(7)
        images = CommutatorAssembly(phi, psi)._images(pairs)
        for pair, w in zip(pairs, images):
            assert w == _four_applies(phi, psi, pair)

    @HYP
    @given(symbols, symbols)
    @example(parse_symbol("z^2 zb + z^3"), parse_symbol("zb^2 + z + 3"))
    def test_images_match_four_applies(self, phi, psi):
        pairs = exponent_pairs(5)
        images = CommutatorAssembly(phi, psi)._images(pairs)
        for pair, w in zip(pairs, images):
            assert w._terms == _four_applies(phi, psi, pair)._terms
            assert all(not c.is_zero for c in w._terms.values())

    def test_range_gram_projects_no_basis_vector(self, monkeypatch):
        engine = importlib.import_module("dualtoeplitz.engine")
        phi = parse_symbol("z^2 zb + z^3")
        psi = parse_symbol("zb^2 + z")

        def refuse(f):
            raise AssertionError("complement_project called")

        monkeypatch.setattr(engine, "complement_project", refuse)
        pair = CommutatorAssembly(phi, psi)
        pairing, gram = pair.pairing(5), pair.range_gram(5)
        assert pair.ranks(5) == (rank(pairing), rank(gram)) == (14, 17)
