"""Dual Toeplitz operators on the complement of the harmonic functions.

The operator with symbol phi sends f to the complement projection of phi*f.
This module applies it exactly, builds the truncated monomial bases
e_{n,m} = (I - Q)(z^n conj(z)^m) for 1 <= n, m <= N, and assembles the exact
quadratic-form matrices used by the classifier: the self-commutator form and
the commutator pairing of two symbols.

Both forms are matrices R^H G C of two harmonic factors.  With
H_phi f = Q(phi f) and |phi| = |conj(phi)|, the self-commutator factors as
S_phi* S_phi - S_phi S_phi* = H_conj(phi)* H_conj(phi) - H_phi* H_phi, the
dual-Toeplitz analogue of the Toeplitz/Hankel identity, so

    A[i][j] = <Q(conj(phi) e_j), Q(conj(phi) e_i)> - <Q(phi e_j), Q(phi e_i)>.

Q(phi e_j) is a combination of the harmonic monomials h_d (z^d for d >= 0,
conj(z)^(-d) for d < 0), which are orthogonal with <h_d, h_d> = 1/(|d|+1).
So A = M^H G M with G diagonal, entries +-1/(|d|+1), and the factor column
M_j = (Q(conj(phi) e_j), Q(phi e_j)) stored as {2d: coefficient of h_d in the
first half, 2d + 1: in the second}: at most one key per term of each symbol.
Every entry is the short dot product A[i][j] = <M_j, M_i>_G
(_kernel.factor_form), and the images S_phi e_j are never formed.

The commutator factors the same way.  With P the complement projection,
w_j = [S_phi, S_psi] e_j = P(psi Q(phi e_j)) - P(phi Q(psi e_j)), and
<P(psi h), e_i> = <h, Q(conj(psi) e_i)> for harmonic h, so

    B[i][j] = <w_j, e_i>
            = <Q(phi e_j), Q(conj(psi) e_i)> - <Q(psi e_j), Q(conj(phi) e_i)>.

That is B = R^H G C with the same G, the column C_j = (Q(phi e_j), Q(psi e_j))
and the row R_i = (Q(conj(psi) e_i), Q(conj(phi) e_i)), both keyed as M.
Since S_phi* = S_conj(phi), the self-commutator is minus a commutator,
A(phi) = -B(phi, conj(phi)), and A is the case R = C = M.  One core
(_FactoredForm) fills and ranks both; its matrix is Hermitian exactly when
R is C.

An entry is computed only where row i and column j share a key.
<C_j, R_i>_G sums over the keys the two hold, so every other entry is an
exact zero.  The range Gram, Gram[i][j] = <w_j, w_i>, takes the same rule
with the frequencies n - m of the images' terms as keys: monomials of
different frequencies are orthogonal.

Assembly is also incremental in the order.  The basis of order N - 1 is part
of the basis of order N, and neither a factor column nor a half depends on
N.  The assemblies keep them by exponent pair, and the selection of
independent columns grows with the order, so a run over orders 1..N (the
certificate search, the rank table) computes each once.  Entries and images
are formed for the matrix of one order, and the matrix stores the nonzero
entries alone: a computed entry that cancels to an exact zero is dropped,
so its checks, rank and report visit only what is stored.

The rank needs no entries at all.  With V_C = range C and V_R = range R,

    rank R^H G C = dim(V_C + G^-1 V_R^perp) - dim V_R^perp

(linalg.factored_rank, which has the proof), found from a linalg.Echelon
of each factor's columns, grown by each order's new exponent pairs, and a
basis of V_R^perp from back substitution through its pivots.
G^-1 = diag(+-(|d|+1)) holds only ints.

Each column has a closed form in its exponent pair.  With
e_{n,m} = z^n conj(z)^m - k h_{n-m}, k = (|n-m|+1)/(max(n,m)+1), a term
c z^a conj(z)^b of a symbol adds to h_d, d = a - b + n - m, the amount
c (|d|+1) [1/(max(n+a, m+b)+1) - k/(max(a+p, b+q)+1)] with p = max(n-m, 0)
and q = max(m-n, 0) (_kernel.terms_harmonic_factor).  So no run of orders
(ranks, the screen below, the form matrix, the pairing) projects or builds
a basis.

The half of a conjugate symbol is a mirror.  Conjugation commutes with Q
and sends z^m conj(z)^n to z^n conj(z)^m, so conj(e_{m,n}) = e_{n,m} and
conj(phi) e_{n,m} = conj(phi e_{m,n}); with conj(h_d) = h_{-d},

    Q(phi e_{m,n}) = sum_d c_d h_d
    gives Q(conj(phi) e_{n,m}) = sum_d conj(c_d) h_{-d}.

So a _Projection computes Q(phi e_{n,m}) once per exponent pair, and the
half of conj(phi) is its mirror: the self-commutator factor takes N^2
closed forms through order N, and the commutator's columns and rows 2N^2
together, one per symbol and pair.

The echelon is graded by frequency.  The column of e_{n,m} holds only the
keys 2(d+f) and 2(d+f)+1 with d = n - m and f a frequency of a symbol term,
so each frequency d keeps a small Echelon of its own columns.  A column
that depends on the earlier columns of its frequency depends on all earlier
ones, so only a column that makes a pivot there is reduced in the shared
echelon: the same columns are chosen and make the same pivots, and most
columns never reach it.

Whether A is zero needs no rank either.  The echelon's pivots name a
maximal independent set S of the columns, and every column is M_S t_j, so
with T = (t_j)

    A = T^H (M_S^H G M_S) T,  and M_S^H G M_S is the S x S submatrix of A:

A = 0 exactly when <M_t, M_s>_G = 0 for all s, t in S.  S at order N - 1 is
a prefix of S at order N, so SelfcommAssembly.vanishes checks each order's
newly chosen columns against the ones before them: |S|^2 / 2 short dot
products over a whole run of orders.

The range Gram has the rank dim span{w_j}.  Since w_j depends linearly on
C_j, that span is the span of the images of a maximal independent set S of
the columns, and its dimension is the number of pivots those images make in
an Echelon over their terms.  S grows with the order like the column
echelon, so that Echelon grows along S too and takes each image once.
Images are formed only for the range Gram and for S.

Each image comes from the halves the factors already hold.  The halves
Q(phi e_j) and Q(psi e_j), read as sums of the h_d, are multiplied by the
other symbol and projected, two one-pass _kernel.terms_apply calls, so an
image needs no basis vector and no product with the whole of e_j.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import _kernel as kernel
from .algebra import Element, GaussianRational, complement_project, inner_product
from .linalg import Echelon, factored_rank
from .matrix import ExactMatrix

# a factor column: {key: coefficient}, keyed as in the module docstring
Column = dict[int, GaussianRational]


def apply(phi: Element, f: Element) -> Element:
    """S_phi f: complement projection of the pointwise product phi*f."""
    return Element._wrap(kernel.terms_apply(phi._terms, f._terms))


def test_vector(k: int) -> Element:
    """The probe vector (I-Q)(z^k conj z) = z^k conj(z) - (k/(k+1)) z^(k-1), k >= 1."""
    if k < 1:
        raise ValueError("test vectors need k >= 1 (k=0 collapses to zero)")
    return complement_project(Element.monomial(k, 1))


def q_value(phi: Element, f: Element) -> Fraction:
    """|S_phi f|^2 - |S_conj(phi) f|^2, the self-commutator form at f. Exact and real."""
    u = apply(phi, f)
    v = apply(phi.conjugate(), f)
    value = inner_product(u, u) - inner_product(v, v)
    # both summands are squared norms, so the value is a plain rational
    return value.re


class TruncatedBasis:
    """Complement basis e_{n,m}, 1 <= n, m <= N, in lexicographic (n, m) order."""

    __slots__ = ("order", "pairs", "vectors", "swap")

    def __init__(
        self,
        order: int,
        pairs: tuple[tuple[int, int], ...],
        vectors: tuple[Element, ...],
        swap: tuple[int, ...],
    ):
        self.order = order
        self.pairs = pairs
        self.vectors = vectors
        self.swap = swap

    def __repr__(self):
        return "TruncatedBasis(order=%d)" % self.order

    def index(self, n: int, m: int) -> int:
        if not (1 <= n <= self.order and 1 <= m <= self.order):
            raise ValueError("exponents out of range for this basis")
        return (n - 1) * self.order + (m - 1)

    def __len__(self) -> int:
        return len(self.vectors)


def exponent_pairs(order: int) -> tuple[tuple[int, int], ...]:
    """The exponent pairs (n, m), 1 <= n, m <= order, in basis order."""
    return tuple((n, m) for n in range(1, order + 1) for m in range(1, order + 1))


def swap_permutation(pairs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """sigma: the position of (m, n) for each exponent pair (n, m), the
    permutation by which conjugation acts on a basis of these pairs."""
    index = {pair: i for i, pair in enumerate(pairs)}
    return tuple(index[m, n] for n, m in pairs)


def build_basis(order: int) -> TruncatedBasis:
    """Basis of span{e_{n,m}}: conjugation acts by the swap permutation sigma."""
    if order < 1:
        raise ValueError("basis order must be >= 1")
    pairs = exponent_pairs(order)
    vectors = tuple(complement_project(Element.monomial(*pair)) for pair in pairs)
    return TruncatedBasis(
        order=order, pairs=pairs, vectors=vectors, swap=swap_permutation(pairs)
    )


Pair = tuple[int, int]


def combination(pairs: Sequence[Pair], coords: Iterable[GaussianRational]) -> Element:
    """The element sum_k coords[k] e_{pairs[k]}.  The complement projection
    is linear, so it is the projection of the one monomial sum
    sum_k coords[k] z^n_k conj(z)^m_k, and no basis vector is formed."""
    return complement_project(Element(zip(pairs, coords)))


def _order(order: int) -> int:
    if order < 1:
        raise ValueError("basis order must be >= 1")
    return order


def _new_pairs(order: int) -> list[Pair]:
    """The exponent pairs with max(n, m) = order, in basis order."""
    return [(n, order) for n in range(1, order)] + [
        (order, m) for m in range(1, order + 1)
    ]


# a harmonic projection Q(symbol e_{n,m}) as {d: coefficient of h_d}
Half = dict[int, GaussianRational]


class _Projection:
    """Q(phi e_{n,m}) of one symbol from the exponent pair in closed form
    (_kernel.terms_harmonic_factor), computed once per pair, and its mirror
    Q(conj(phi) e_{n,m}) (module docstring)."""

    __slots__ = ("_terms", "_memo")

    def __init__(self, phi: Element):
        self._terms = phi._terms
        self._memo: dict[Pair, Half] = {}

    def __call__(self, n: int, m: int) -> Half:
        half = self._memo.get((n, m))
        if half is None:
            half = self._memo[n, m] = kernel.terms_harmonic_factor(self._terms, n, m)
        return half

    def mirror(self, n: int, m: int) -> Half:
        """Q(conj(phi) e_{n,m}): the value at (m, n), conjugated, with h_d
        read as h_-d."""
        return {-d: c.conjugate() for d, c in self(m, n).items()}


def _harmonic_terms(half: Half) -> dict[Pair, GaussianRational]:
    """A half as a term map: h_d is z^d for d >= 0 and conj(z)^-d for d < 0."""
    return {((d, 0) if d >= 0 else (0, -d)): c for d, c in half.items()}


class _HarmonicFactor:
    """The stacked columns (Q(first e), Q(second e)) of the basis vectors,
    kept by exponent pair, and a maximal independent set of them that grows
    with the order.

    first and second give a half from an exponent pair: a _Projection or
    its mirror.  A column holds the coefficient of h_d in Q(first e) under
    the key 2d and in Q(second e) under 2d + 1: at most one key per term of
    each symbol.
    One Echelon takes each order's new exponent pairs (max(n, m) = N) once,
    in basis order, with no basis built.  Its pivots never change once made,
    so the pivots, chosen pairs and column keys of any order reached are
    prefixes of the current ones, and the set chosen at order N contains the
    one chosen at N - 1.

    The selection is graded by frequency (module docstring): each column
    first goes to a small Echelon of the columns with its n - m, and only
    one that makes a pivot there goes on to the shared one.
    """

    def __init__(
        self, first: Callable[[int, int], Half], second: Callable[[int, int], Half]
    ):
        self._first = first
        self._second = second
        self._memo: dict[Pair, Column] = {}
        self.echelon = Echelon()
        # n - m -> the echelon of the columns of that frequency
        self._graded: defaultdict[int, Echelon] = defaultdict(Echelon)
        self._chosen: list[Pair] = []
        # keys held by the columns, in order of appearance
        self._keys: dict[int, None] = {}
        # per order 1, 2, ...: (pairs chosen, keys held) through that order
        self._sizes: list[tuple[int, int]] = []

    def _column(self, n: int, m: int) -> Column:
        out = {2 * d: c for d, c in self._first(n, m).items()}
        for d, c in self._second(n, m).items():
            out[2 * d + 1] = c
        return out

    def columns(self, pairs: Sequence[Pair]) -> list[Column]:
        """The columns of the exponent pairs, in their order, each computed
        once."""
        memo = self._memo
        out = []
        for pair in pairs:
            column = memo.get(pair)
            if column is None:
                column = memo[pair] = self._column(*pair)
            out.append(column)
        return out

    def selection(self, order: int) -> tuple[list[Pair], list[int]]:
        """The chosen exponent pairs and the column keys at this order."""
        graded = self._graded
        while len(self._sizes) < order:
            new = _new_pairs(len(self._sizes) + 1)
            for (n, m), column in zip(new, self.columns(new)):
                self._keys.update(dict.fromkeys(column))
                if graded[n - m].add(column) and self.echelon.add(column):
                    self._chosen.append((n, m))
            self._sizes.append((len(self._chosen), len(self._keys)))
        chosen, keys = self._sizes[order - 1]
        return self._chosen[:chosen], list(self._keys)[:keys]


def _inverse_weight(key: int) -> int:
    """G^-1 at a factor key: |d| + 1 for the first half, -(|d| + 1) for the second."""
    weight = abs(key >> 1) + 1
    return -weight if key & 1 else weight


def _fill(
    rows: Sequence[Iterable],
    columns: Sequence[Iterable],
    entry: Callable[[int, int], GaussianRational],
    hermitian: bool,
) -> ExactMatrix:
    """The matrix with entry(i, j) where row i and column j share a key, and
    an exact zero everywhere else (module docstring).  rows and columns give
    the keys of each index.  Only nonzero values are stored, so a value
    that cancels to zero is dropped.  A Hermitian matrix computes j >= i and
    conjugates below the diagonal, where a real entry shares its object."""
    entries: list[dict[int, GaussianRational]] = [{} for _ in rows]
    holders: defaultdict[object, list[int]] = defaultdict(list)
    for j, keys in enumerate(columns):
        for key in keys:
            holders[key].append(j)
    for i, keys in enumerate(rows):
        shared = {j for key in keys for j in holders.get(key, ())}
        row = entries[i]
        for j in shared:
            if hermitian and j < i:
                continue
            value = entry(i, j)
            if value.is_zero:
                continue
            row[j] = value
            if hermitian and i != j:
                entries[j][i] = value if value.is_real else value.conjugate()
    return ExactMatrix.sparse(len(rows), len(columns), entries)


class _FactoredForm:
    """The matrix R^H G C of a column factor C and a row factor R at any
    truncation order, and its rank from the two factors' echelons.  The
    matrix is Hermitian exactly when the two are one factor."""

    def __init__(self, columns: _HarmonicFactor, rows: _HarmonicFactor):
        self._columns = columns
        self._rows = rows

    def factors(self, order: int) -> tuple[list[Column], list[Column]]:
        """The columns C_j and the rows R_i in basis order, keyed as in the
        module docstring."""
        pairs = exponent_pairs(_order(order))
        return self._columns.columns(pairs), self._rows.columns(pairs)

    def matrix(self, order: int) -> ExactMatrix:
        """The matrix with entries <C_j, R_i>_G (_kernel.factor_form)."""
        columns, rows = self.factors(order)
        return _fill(
            rows,
            columns,
            lambda i, j: kernel.factor_form(rows[i], columns[j]),
            hermitian=self._rows is self._columns,
        )

    def rank(self, order: int) -> int:
        """Rank of the matrix at this order, from the factors' echelons alone
        (module docstring)."""
        order = _order(order)
        chosen, column_keys = self._columns.selection(order)
        row_chosen, row_keys = self._rows.selection(order)
        return factored_rank(
            self._columns.echelon,
            len(chosen),
            self._rows.echelon,
            len(row_chosen),
            list(dict.fromkeys(row_keys + column_keys)),
            _inverse_weight,
        )


class SelfcommAssembly(_FactoredForm):
    """Self-commutator form matrices of one symbol at any truncation order,
    and their ranks, from the factor M taken as both C and R.

    One selection of independent columns grows with the order, so a run
    over orders 1..N computes each factor column once.
    """

    def __init__(self, phi: Element):
        # M_j = (Q(conj(phi) e_j), Q(phi e_j)), the factor of the form
        q = _Projection(phi)
        factor = _HarmonicFactor(q.mirror, q)
        super().__init__(factor, factor)
        # how many chosen columns have a zero Gram <M_t, M_s>_G among them
        self._checked = 0

    def vanishes(self, order: int) -> bool:
        """Whether the form matrix is zero at this order, from the Gram of the
        chosen columns alone (module docstring).  The chosen set only grows
        with the order, so each order checks its new columns against the
        ones before them, and the checked prefix advances when a whole order
        passes."""
        chosen, _ = self._columns.selection(_order(order))
        if len(chosen) <= self._checked:
            return True
        columns = self._columns.columns(chosen)
        for s in range(self._checked, len(chosen)):
            column = columns[s]
            for t in range(s + 1):
                if not kernel.factor_form(columns[t], column).is_zero:
                    return False
        self._checked = len(chosen)
        return True


def selfcomm_form_matrix(phi: Element, order: int) -> ExactMatrix:
    """Hermitian matrix A with A[i][j] = <S e_j, S e_i> - <S* e_j, S* e_i>.

    For f = sum c_j e_j the form value c* A c equals q_value(phi, f); the
    operator is hyponormal on the truncated span iff A is PSD.
    """
    return SelfcommAssembly(phi).matrix(order)


class CommutatorAssembly(_FactoredForm):
    """Commutator pairing and range Gram of a symbol pair at any truncation
    order, and their ranks, from the columns C and the rows R (module
    docstring)."""

    def __init__(self, phi: Element, psi: Element):
        self._phi = phi._terms
        self._psi = psi._terms
        # B = R^H G C with C_j = (Q(phi e_j), Q(psi e_j)) and
        # R_i = (Q(conj(psi) e_i), Q(conj(phi) e_i))
        self._q_phi = q_phi = _Projection(phi)
        self._q_psi = q_psi = _Projection(psi)
        super().__init__(
            _HarmonicFactor(q_phi, q_psi), _HarmonicFactor(q_psi.mirror, q_phi.mirror)
        )
        # the images of the chosen columns, in the order they were chosen,
        # and the pivots their first t make, at index t
        self._span = Echelon()
        self._span_sizes = [0]

    def _images(self, pairs: Sequence[Pair]) -> list[Element]:
        """The images w_j = P(psi Q(phi e_j)) - P(phi Q(psi e_j)) of the
        exponent pairs, from the halves (module docstring)."""
        out = []
        for pair in pairs:
            h_phi = _harmonic_terms(self._q_phi(*pair))
            h_psi = _harmonic_terms(self._q_psi(*pair))
            terms = kernel.terms_apply(self._psi, h_phi)
            kernel.terms_sub_scaled(
                terms, kernel.terms_apply(self._phi, h_psi), kernel.GR_ONE
            )
            out.append(Element._wrap(terms))
        return out

    # see commutator_matrix
    pairing = _FactoredForm.matrix

    def range_gram(self, order: int) -> ExactMatrix:
        """See commutator_range_gram."""
        w = self._images(exponent_pairs(_order(order)))
        frequencies = [{n - m for n, m in image._terms} for image in w]
        return _fill(
            frequencies,
            frequencies,
            lambda i, j: inner_product(w[j], w[i]),
            hermitian=True,
        )

    def ranks(self, order: int) -> tuple[int, int]:
        """Ranks of the pairing and the range Gram at this order: the core's
        rank, and the dimension of the span of the images w_j over a maximal
        independent set S of the columns C_j.  S at order N - 1 is a prefix
        of S at order N, so one span echelon grows along S and each image is
        reduced once over a run of orders."""
        pairing_rank = self.rank(order)
        chosen, _ = self._columns.selection(order)
        sizes = self._span_sizes
        if len(sizes) <= len(chosen):
            for w in self._images(chosen[len(sizes) - 1 :]):
                self._span.add(w._terms)
                sizes.append(len(self._span.pivots))
        return pairing_rank, sizes[len(chosen)]


def commutator_matrix(phi: Element, psi: Element, order: int) -> ExactMatrix:
    """Pairing B[i][j] = <(S_phi S_psi - S_psi S_phi) e_j, e_i> on the basis."""
    return CommutatorAssembly(phi, psi).pairing(order)


def commutator_range_gram(phi: Element, psi: Element, order: int) -> ExactMatrix:
    """Gram matrix of the commutator outputs g_j; its rank is dim span{g_j}."""
    return CommutatorAssembly(phi, psi).range_gram(order)
