"""Exact PSD testing of trace-zero forms, echelons and the ranks they give,
and matrix helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualtoeplitz import (
    CommutatorAssembly,
    ExactMatrix,
    GaussianRational,
    HermitianForm,
    form_value,
    is_antisymmetric,
    parse_symbol,
    psd_test,
    rank,
    selfcomm_form_matrix,
)
from dualtoeplitz.linalg import Echelon, factored_rank

import oracle_dense as dense
from oracle_psd import charpoly_psd, sympy_matrix
from oracle_rank import bruteforce_rank, matrix_to_pairs


def gr(re_part, im_part=0):
    return GaussianRational(Fraction(re_part), Fraction(im_part))


def matrix(rows):
    return ExactMatrix([[gr(*e) if isinstance(e, tuple) else gr(e) for e in row] for row in rows])


def build(rows, cols, entry):
    """The rows x cols matrix whose (i, j) entry is entry(i, j)."""
    return ExactMatrix([[entry(i, j) for j in range(cols)] for i in range(rows)])


def _random_matrix(rng, n, m, complex_entries=True):
    def entry():
        re_part = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im_part = (
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if complex_entries else 0
        )
        return GaussianRational(re_part, im_part)

    return ExactMatrix([[entry() for _ in range(m)] for _ in range(n)])


small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


def _sympy_rank(a):
    return sympy_matrix(a).rank()


def _trace_free(h):
    """n h - tr(h) I: the same off-diagonal pattern, trace zero."""
    n = h.rows
    trace = sum((h[k, k] for k in range(n)), start=gr(0))
    return build(
        n, n, lambda i, j: h[i, j] * n - trace if i == j else h[i, j] * n
    )


class TestExactMatrix:
    def test_build_and_access(self):
        a = build(2, 3, lambda i, j: gr(i * 3 + j))
        assert a.rows == 2 and a.cols == 3
        assert a[1, 2] == 5
        assert a.transpose()[2, 1] == 5

    def test_is_hermitian(self):
        assert matrix([[1, (0, 1)], [(0, -1), 2]]).is_hermitian()
        assert not matrix([[1, (0, 1)], [(0, 1), 2]]).is_hermitian()
        assert not matrix([[(1, 1)]]).is_hermitian()

    def test_first_nonzero(self):
        a = matrix([[0] * 2] * 2)
        assert a.first_nonzero() is None
        assert a.is_zero
        b = matrix([[0, 0], [0, 3]])
        assert b.first_nonzero() == (1, 1)

    def test_permute_rows(self):
        a = matrix([[1, 2], [3, 4]])
        p = a.permute_rows([1, 0])
        assert p[0, 0] == 3 and p[1, 0] == 1
        with pytest.raises(ValueError):
            a.permute_rows([0, 0])

    def test_hermitian_form_validates(self):
        with pytest.raises(ValueError):
            HermitianForm(matrix([[0, 1], [2, 0]]))


class TestFormValue:
    def test_quadratic_form(self):
        h = matrix([[2, (0, 1)], [(0, -1), 2]])
        vec = [gr(1), gr(0, 1)]
        # conj(x)^T H x with x = (1, i): 2 + i*(i) ... = 2 + 2 - 2*Re(i*conj(i)*i?)
        value = form_value(h, vec)
        # direct expansion: sum_ij conj(x_i) H[i,j] x_j
        expected = GaussianRational(0)
        for i in range(2):
            for j in range(2):
                expected = expected + vec[i].conjugate() * h[i, j] * vec[j]
        assert value == expected
        assert value.is_real


def _hermitian(n, re_parts, im_parts, diagonal):
    """The Hermitian matrix with the given diagonal and upper triangle."""

    def entry(i, j):
        if i == j:
            return gr(diagonal[i])
        if i > j:
            return entry(j, i).conjugate()
        return gr(re_parts[i * n + j], im_parts[i * n + j])

    return build(n, n, entry)


class TestPsdTest:
    """psd_test decides trace-zero Hermitian forms: PSD iff zero, else a
    witness read off the entries."""

    def test_zero_matrix(self):
        result = psd_test(HermitianForm(matrix([[0] * 3] * 3)))
        assert result.is_psd and result.rank == 0

    def test_negative_diagonal(self):
        result = psd_test(HermitianForm(matrix([[1, 0], [0, -1]])))
        assert not result.is_psd
        assert result.value < 0
        assert form_value(matrix([[1, 0], [0, -1]]), result.witness) == result.value

    def test_zero_diagonal_nonzero_off(self):
        h = matrix([[0, 1], [1, 0]])
        result = psd_test(HermitianForm(h))
        assert not result.is_psd
        assert form_value(h, result.witness) == result.value < 0

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0], [0, 1]],
            [[1, 1], [1, 1]],
            [[1, (0, 2)], [(0, -2), 1]],
            [[0, 1], [1, (1, 0)]],
            [[-1, 0], [0, 0]],
        ],
        ids=["identity", "rank-one", "complex", "late-diagonal", "negative"],
    )
    def test_nonzero_trace_raises(self, rows):
        with pytest.raises(ValueError, match="trace"):
            psd_test(matrix(rows))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(small_fractions, min_size=n * n, max_size=n * n),
                st.lists(small_fractions, min_size=n * n, max_size=n * n),
                st.integers(0, n - 1),
                st.fractions(max_value=Fraction(-1, 7), max_denominator=7),
            )
        )
    )
    def test_negative_diagonal_gives_first_unit_witness(self, draw):
        # on a trace-zero form n h - tr(h) I, the first negative diagonal
        # entry A[k][k] is the witness e_k, with value A[k][k], whatever the
        # off-diagonal entries are
        n, re_parts, im_parts, forced, negative = draw
        diagonal = [negative if i == forced else re_parts[i * n + i] for i in range(n)]
        h = _trace_free(_hermitian(n, re_parts, im_parts, diagonal))
        assume(any(not h[i, i].is_zero for i in range(n)))
        k = next(i for i in range(n) if h[i, i].re < 0)
        result = psd_test(HermitianForm(h))
        assert not result.is_psd
        assert result.witness == [gr(int(i == k)) for i in range(n)]
        assert result.value == h[k, k].re
        assert form_value(h, result.witness) == result.value

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(small_fractions, min_size=n * n, max_size=n * n),
                st.lists(small_fractions, min_size=n * n, max_size=n * n),
            )
        ),
        st.integers(0, 6),
    )
    def test_zero_diagonal_witness_has_value_minus_two(self, draw, zeros):
        # at the first nonzero entry (i, j), e_i - h[i][j]^-1 e_j takes -2;
        # zeroing the first row-major entries moves (i, j)
        n, re_parts, im_parts = draw
        for t in range(min(zeros, n * n)):
            re_parts[t] = im_parts[t] = Fraction(0)
        h = _hermitian(n, re_parts, im_parts, [0] * n)
        result = psd_test(HermitianForm(h))
        location = h.first_nonzero()
        if location is None:
            assert result.is_psd and result.rank == 0
            return
        i, j = location
        expected = [gr(0)] * n
        expected[i] = gr(1)
        expected[j] = -h[i, j].inverse()
        assert not result.is_psd
        assert result.witness == expected
        assert result.value == -2
        assert form_value(h, result.witness) == -2

    def test_random_hermitian_agrees_with_charpoly_oracle(self):
        rng = random.Random(2204)
        for n in (2, 3, 4):
            for _ in range(6):
                a = _random_matrix(rng, n, n)
                h = build(
                    n, n, lambda i, j: a[i, j] + a[j, i].conjugate()
                )
                self._check_against_oracle(_trace_free(h))
                # and with the diagonal dropped
                self._check_against_oracle(
                    build(n, n, lambda i, j: gr(0) if i == j else h[i, j])
                )
        self._check_against_oracle(matrix([[0] * 3] * 3))

    @staticmethod
    def _check_against_oracle(h):
        result = psd_test(HermitianForm(h))
        expected_psd, expected_rank = charpoly_psd(h)
        assert result.is_psd == expected_psd
        if result.is_psd:
            assert result.rank == expected_rank == 0
        else:
            assert form_value(h, result.witness) == result.value < 0


class TestRank:
    def test_known_values(self):
        assert rank(matrix([[0] * 2] * 3)) == 0
        assert rank(matrix([[1, 0], [0, 1]])) == 2
        assert rank(matrix([[1, 2], [2, 4]])) == 1
        assert rank(matrix([[(0, 1), 1], [1, (0, -1)]])) == 1
        assert (
            rank(
                matrix(
                    [
                        [Fraction(1, 2), Fraction(1, 3), 1],
                        [Fraction(1, 4), Fraction(1, 6), Fraction(1, 2)],
                    ]
                )
            )
            == 1
        )

    def test_rectangular(self):
        a = matrix([[1, 2, 3], [4, 5, 6]])
        assert rank(a) == 2
        assert rank(a.transpose()) == 2

    def test_random_matches_oracles(self):
        rng = random.Random(3303)
        for n, m in ((3, 3), (4, 3), (3, 5), (5, 5)):
            for _ in range(4):
                a = _random_matrix(rng, n, m)
                r = rank(a)
                assert r == bruteforce_rank(matrix_to_pairs(a))
                assert r == _sympy_rank(a)

    def test_rank_drops_with_duplicate_rows(self):
        rng = random.Random(4404)
        a = _random_matrix(rng, 3, 4)
        rows = [[a[i, j] for j in range(a.cols)] for i in range(a.rows)]
        b = ExactMatrix(rows + [list(rows[0])])
        assert rank(b) == rank(a)


small = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)
entries = st.one_of(st.just(gr(0)), st.builds(gr, small, small))


@st.composite
def planted_blocks(draw):
    """Dense blocks on the diagonal, some of rank one, plus zero rows and
    columns, under random row and column permutations: columns that meet
    only some rows, so the echelon's pivots land on scattered keys."""
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=4)
    )
    rows = sum(r for r, _ in shapes) + draw(st.integers(0, 2))
    cols = sum(c for _, c in shapes) + draw(st.integers(0, 2))
    grid = [[gr(0)] * cols for _ in range(rows)]
    top = left = 0
    for r, c in shapes:
        if draw(st.booleans()):
            u = draw(st.lists(entries, min_size=r, max_size=r))
            v = draw(st.lists(entries, min_size=c, max_size=c))
            block = [[x * y for y in v] for x in u]
        else:
            block = [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]
        for i in range(r):
            grid[top + i][left : left + c] = block[i]
        top, left = top + r, left + c
    row_order = draw(st.permutations(range(rows)))
    col_order = draw(st.permutations(range(cols)))
    return ExactMatrix([[grid[i][j] for j in col_order] for i in row_order])


class TestBlockRank:
    """The Echelon rank, rank(), on permuted block-diagonal patterns with
    zero rows and columns, against the brute-force oracle."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(planted_blocks())
    def test_matches_bruteforce_oracle(self, a):
        assert rank(a) == bruteforce_rank(matrix_to_pairs(a))

    def test_empty_and_zero_shapes(self):
        assert rank(ExactMatrix([])) == 0
        assert rank(ExactMatrix([[], []])) == 0
        assert rank(matrix([[0] * 4] * 1)) == 0

    def test_non_symmetric_pattern(self):
        # row i meets only column i + 1: one 1x1 block per nonzero entry
        a = matrix([[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [0, 0, 0, 0]])
        assert rank(a) == 3
        assert rank(a.transpose()) == 3


@st.composite
def sparse_columns(draw):
    """Sparse columns over a few integer keys, some of them combinations of
    earlier ones, zero or explicitly holding a zero entry."""
    keys = st.integers(-3, 3)
    columns = []
    for _ in range(draw(st.integers(0, 8))):
        if columns and draw(st.booleans()):
            x, y = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            s, t = draw(entries), draw(entries)
            column = {k: x.get(k, gr(0)) * s + y.get(k, gr(0)) * t for k in {*x, *y}}
        else:
            column = draw(st.dictionaries(keys, entries, max_size=4))
        columns.append(column)
    return columns


def _greedy(columns):
    """Positions of the columns that make a pivot, added in order to one Echelon."""
    echelon = Echelon()
    return [j for j, column in enumerate(columns) if echelon.add(column)]


class TestIndependentColumns:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(sparse_columns())
    def test_independent_and_maximal(self, columns):
        keys = sorted({k for column in columns for k in column})

        def oracle_rank(cols):
            return bruteforce_rank(
                [[(c.get(k, gr(0)).re, c.get(k, gr(0)).im) for c in cols] for k in keys]
            )

        chosen = _greedy(columns)
        assert chosen == sorted(set(chosen))
        assert oracle_rank([columns[j] for j in chosen]) == len(chosen)
        assert oracle_rank(columns) == len(chosen)

    def test_greedy_in_order(self):
        e0, e1 = {0: gr(1)}, {1: gr(2, 1)}
        both = {0: gr(3), 1: gr(-1, 1)}
        assert _greedy([{}, e0, both, e1, {5: gr(0)}]) == [1, 2]
        assert _greedy([e1, e0, both]) == [0, 1]


class _TwoStepEchelon:
    """Echelon.add with x - c*s as two normalized scalar operations, c*s and
    then the difference: the reference for the one-normalization update."""

    def __init__(self):
        self.pivots = {}

    def add(self, column):
        pivots = self.pivots
        v = {key: c for key, c in column.items() if not c.is_zero}
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = v.pop(lead).inverse()
                pivots[lead] = {key: c * scale for key, c in v.items()}
                return True
            s = v.pop(lead)
            for key, c in pivot.items():
                x = v.get(key)
                if x is None:
                    v[key] = -(c * s)
                else:
                    x = x - c * s
                    if x.is_zero:
                        del v[key]
                    else:
                        v[key] = x
        return False


def _pivot_triples(echelon):
    return [
        (lead, [(key, (c.num_re, c.num_im, c.den)) for key, c in pivot.items()])
        for lead, pivot in echelon.pivots.items()
    ]


class TestEchelonUpdate:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(sparse_columns(), sparse_columns())
    def test_matches_two_step_reference(self, first, second):
        fused, reference = Echelon(), _TwoStepEchelon()
        for column in first + second:
            assert fused.add(column) == reference.add(column)
            assert _pivot_triples(fused) == _pivot_triples(reference)


def _dense_rows(columns, keys):
    return [[(c.get(k, gr(0)).re, c.get(k, gr(0)).im) for c in columns] for k in keys]


class TestEchelonComplement:
    """Echelon.complement is a basis of the orthogonal complement of the
    columns' span, and factored_rank is the rank of R^H G C."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(sparse_columns())
    def test_complement_basis(self, columns):
        keys = sorted({k for column in columns for k in column})
        echelon = Echelon()
        chosen = [j for j, column in enumerate(columns) if echelon.add(column)]
        complement = echelon.complement(keys)
        assert len(complement) == len(keys) - len(chosen)
        for y in complement:
            for column in columns:
                dot = sum(
                    (c.conjugate() * y.get(k, gr(0)) for k, c in column.items()),
                    start=gr(0),
                )
                assert dot.is_zero
        assert bruteforce_rank(_dense_rows(complement, keys)) == len(complement)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        sparse_columns(),
        st.one_of(st.none(), sparse_columns()),
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 4]), min_size=7, max_size=7),
    )
    # forms that vanish with G = diag(1 / w) but not with diag(w): random
    # entries rarely cancel, so these pin which of the two the rank uses
    @example([{-3: gr(1), -2: gr(1), -1: gr(1)}], None, [2, -1, 2, 1, 1, 1, 1])
    @example([{-3: gr(2), -2: gr(1)}], [{-3: gr(1), -2: gr(1)}], [2, -1, 1, 1, 1, 1, 1])
    def test_factored_rank(self, columns, rows, weights):
        # rows=None is the Hermitian case R = C, with one echelon passed twice
        inverse_weight = {k: weights[k + 3] for k in range(-3, 4)}
        echelon = Echelon()
        count = sum(echelon.add(column) for column in columns)
        if rows is None:
            rows, row_echelon, row_count = columns, echelon, count
        else:
            row_echelon = Echelon()
            row_count = sum(row_echelon.add(row) for row in rows)
        keys = sorted({k for factor in (columns, rows) for c in factor for k in c})
        got = factored_rank(
            echelon, count, row_echelon, row_count, keys, inverse_weight.__getitem__
        )
        # R^H G C with G = diag(1 / inverse_weight), in Fraction pairs
        form = [
            [
                sum(
                    (
                        (r.get(k, gr(0)).conjugate() * c.get(k, gr(0)))
                        * gr(Fraction(1, inverse_weight[k]))
                        for k in keys
                    ),
                    start=gr(0),
                )
                for c in columns
            ]
            for r in rows
        ]
        assert got == bruteforce_rank([[(c.re, c.im) for c in row] for row in form])

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(sparse_columns(), sparse_columns())
    def test_grown_echelon_keeps_its_prefix(self, first, second):
        grown, fresh = Echelon(), Echelon()
        count = sum(grown.add(column) for column in first)
        for column in first:
            fresh.add(column)
        for column in second:
            grown.add(column)
        keys = sorted({k for column in first for k in column})
        assert grown.complement(keys, count) == fresh.complement(keys)


big_fractions = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)
)
complex_entries = st.builds(gr, big_fractions, big_fractions)
real_entries = st.builds(gr, big_fractions)
imaginary_entries = st.builds(lambda y: gr(0, y), big_fractions)


@st.composite
def deep_products(draw):
    """One dense n x m block U V with U n x k and V k x m, k >= 3, entries
    with denominators up to 10^6, so the reductions carry large numerators
    and denominators.  Optionally U's first row is purely imaginary and V's
    first column real, so the first column's leading entry is purely
    imaginary and the first pivot is scaled by a purely imaginary inverse."""
    n, m = draw(st.integers(5, 9)), draw(st.integers(5, 9))
    k = draw(st.integers(3, min(n, m)))
    imaginary_pivot = draw(st.booleans())
    first_row = imaginary_entries if imaginary_pivot else complex_entries
    first_col = real_entries if imaginary_pivot else complex_entries
    u = [
        [draw(first_row if i == 0 else complex_entries) for _ in range(k)]
        for i in range(n)
    ]
    v = [
        [draw(first_col if j == 0 else complex_entries) for j in range(m)]
        for _ in range(k)
    ]
    return ExactMatrix(
        [
            [sum((u[i][t] * v[t][j] for t in range(k)), start=gr(0)) for j in range(m)]
            for i in range(n)
        ]
    )


class TestDeepRank:
    """The Echelon rank, rank(), on dense products of rank k with large
    Gaussian entries, against the brute-force oracle."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(deep_products())
    def test_matches_bruteforce_oracle(self, a):
        assert rank(a) == bruteforce_rank(matrix_to_pairs(a))


# the dense-elim benchmark's multi-frequency symbols: Pythagorean-triple
# coefficients, so the form entries carry denominators of about 38 bits
WIDE = "(-12/13+5/13i) zb^2 + (3/5-4/5i) z + (15/17+8/17i) z^3 zb"
THREE = "(4/5-3/5i) z^2 zb + (-5/13-12/13i) z^3"
MIXED = (
    "(15/17+8/17i) z^2 zb + (-24/25+7/25i) z^3",
    "(3/5-4/5i) zb^2 + (21/29-20/29i) z",
)


class TestEngineMatrixRank:
    @pytest.mark.parametrize("text", [WIDE, THREE], ids=["wide", "three"])
    @pytest.mark.parametrize("order", [3, 5])
    def test_selfcomm_form(self, text, order):
        m = selfcomm_form_matrix(parse_symbol(text), order)
        assert rank(m) == bruteforce_rank(matrix_to_pairs(m))

    @pytest.mark.parametrize(
        "pair", [(WIDE, THREE), MIXED], ids=["wide-three", "mixed"]
    )
    @pytest.mark.parametrize("order", [3, 5])
    def test_commutator_matrices(self, pair, order):
        assembly = CommutatorAssembly(*(parse_symbol(text) for text in pair))
        for m in (assembly.pairing(order), assembly.range_gram(order)):
            assert rank(m) == bruteforce_rank(matrix_to_pairs(m))


class TestAntisymmetric:
    def test_detects(self):
        assert is_antisymmetric(matrix([[0, 1], [-1, 0]]))
        assert is_antisymmetric(matrix([[0] * 2] * 2))
        assert not is_antisymmetric(matrix([[0, 1], [1, 0]]))
        assert not is_antisymmetric(matrix([[1, 0], [0, 0]]))
        assert not is_antisymmetric(matrix([[0] * 3] * 2))

    def test_complex_antisymmetric(self):
        assert is_antisymmetric(matrix([[0, (1, 2)], [(-1, -2), 0]]))


# zeros as distinct objects, one made by cancellation: a sparse container
# must drop every one of them, whatever object it is
ZEROS = (GaussianRational(0), gr(0, 0), gr(3, 1) - gr(3, 1), gr(1) * gr(0))
nonzero_entries = st.builds(gr, small, small).filter(lambda c: not c.is_zero)


@st.composite
def sparse_rows(draw, square=False, structure=None):
    """Dense rows of a random sparsity, zeros given as varied objects.

    With ``structure`` "hermitian" or "antisymmetric" the lower triangle
    mirrors the upper one (a real mirror entry is the same object, as the
    assembled forms share it), then one slot may be broken: its mirror
    dropped to zero, so the pattern is asymmetric, or changed."""
    n = draw(st.integers(0, 5))
    m = n if square or n == 0 else draw(st.integers(0, 5))
    density = draw(st.integers(0, 4))

    def entry():
        if draw(st.integers(0, 3)) < density:
            return draw(nonzero_entries)
        return draw(st.sampled_from(ZEROS))

    rows = [[entry() for _ in range(m)] for _ in range(n)]
    if structure is None or n == 0:
        return rows
    for i in range(n):
        for j in range(i, n):
            c = rows[i][j]
            if structure == "hermitian":
                if i == j:
                    c = rows[i][i] = gr(c.re)
                rows[j][i] = c if c.is_real else c.conjugate()
            else:
                if i == j:
                    c = rows[i][i] = draw(st.sampled_from(ZEROS))
                rows[j][i] = -c
    broken = draw(st.sampled_from(("none", "drop", "change")))
    if broken != "none":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = (
            draw(st.sampled_from(ZEROS)) if broken == "drop" else draw(nonzero_entries)
        )
    return rows


def stored(a) -> list:
    return [c for row in a.entries for c in row.values()]


SPARSE = settings(derandomize=True, max_examples=100, deadline=None)


class TestSparseAgainstDense:
    """ExactMatrix stores only nonzero entries; every operation must agree
    with a dense reference that visits every slot (oracle_dense)."""

    @SPARSE
    @given(sparse_rows())
    def test_stores_exactly_the_nonzero_entries(self, rows):
        a = ExactMatrix(rows)
        assert not any(c.is_zero for c in stored(a))
        assert len(stored(a)) == sum(not c.is_zero for row in rows for c in row)
        assert (a.rows, a.cols) == (len(rows), dense.width(rows))
        assert all(a[i, j] == c for i, row in enumerate(rows) for j, c in enumerate(row))
        assert a.data == rows
        assert a.is_zero == (dense.first_nonzero(rows) is None)

    @SPARSE
    @given(st.one_of(sparse_rows(), sparse_rows(square=True, structure="hermitian")))
    def test_is_hermitian(self, rows):
        assert ExactMatrix(rows).is_hermitian() == dense.is_hermitian(rows)

    @SPARSE
    @given(st.one_of(sparse_rows(), sparse_rows(square=True, structure="antisymmetric")))
    def test_is_antisymmetric(self, rows):
        assert is_antisymmetric(ExactMatrix(rows)) == dense.is_antisymmetric(rows)

    @SPARSE
    @given(sparse_rows())
    def test_first_nonzero(self, rows):
        a = ExactMatrix(rows)
        assert a.first_nonzero() == dense.first_nonzero(rows)
        # the fill stores a row's entries in no particular column order
        backwards = [dict(reversed(row.items())) for row in a.entries]
        b = ExactMatrix.sparse(a.rows, a.cols, backwards)
        assert b.first_nonzero() == dense.first_nonzero(rows)

    @SPARSE
    @given(sparse_rows(), st.data())
    def test_permute_rows(self, rows, data):
        perm = data.draw(st.permutations(range(len(rows))))
        got = ExactMatrix(rows).permute_rows(perm)
        assert got == ExactMatrix(dense.permute_rows(rows, perm))
        assert got.data == dense.permute_rows(rows, perm)

    @SPARSE
    @given(sparse_rows())
    def test_transpose(self, rows):
        t = ExactMatrix(rows).transpose()
        assert (t.rows, t.cols) == (dense.width(rows), len(rows))
        assert t.data == dense.transpose(rows)
        assert not any(c.is_zero for c in stored(t))

    @SPARSE
    @given(sparse_rows(square=True), st.data())
    def test_form_value(self, rows, data):
        vec = data.draw(
            st.lists(st.one_of(st.sampled_from(ZEROS), nonzero_entries),
                     min_size=len(rows), max_size=len(rows))
        )
        assert form_value(ExactMatrix(rows), vec) == dense.form_value(rows, vec)

    @SPARSE
    @given(sparse_rows())
    def test_rank(self, rows):
        pairs = [[(c.re, c.im) for c in row] for row in rows]
        assert rank(ExactMatrix(rows)) == bruteforce_rank(pairs)

    @SPARSE
    @given(sparse_rows(), st.data())
    def test_eq(self, rows, data):
        other = [list(row) for row in rows]
        edit = data.draw(
            st.sampled_from(("same", "zero", "value", "fresh", "rows", "columns"))
        )
        if edit == "fresh":
            other = data.draw(sparse_rows())
        elif edit == "rows":
            other = other[:-1]
        elif edit == "columns":
            other = [row[:-1] for row in other]
        elif rows and rows[0]:
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, len(rows[0]) - 1))
            # an equal value as another object, a zero, or any nonzero
            other[i][j] = {
                "same": rows[i][j] + 0,
                "zero": data.draw(st.sampled_from(ZEROS)),
                "value": data.draw(nonzero_entries),
            }[edit]
        want = (len(rows), dense.width(rows), rows) == (len(other), dense.width(other), other)
        assert (ExactMatrix(rows) == ExactMatrix(other)) == want
