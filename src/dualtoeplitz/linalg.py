"""Exact linear algebra over the Gaussian rationals.

A matrix is an ExactMatrix.  The assembled forms are mostly exact zeros, so
it keeps one dict {column: entry} per row holding its nonzero entries only,
and every operation visits those alone.

The only PSD question the program asks is whether a truncated
self-commutator form is PSD, and every such form has trace zero: the basis
is closed under (n, m) <-> (m, n), and |Q(conj(phi) e_{n,m})| =
|Q(phi e_{m,n})|.  A trace-zero Hermitian form is PSD exactly when it is
zero, so psd_test needs no elimination: a nonzero form gets an exact
witness from its diagonal, or from its first nonzero entry when the
diagonal vanishes.

One sparse row-echelon routine, Echelon, does every elimination.  It
takes columns one at a time, so it can grow with the truncation order, and
its pivots (leading entry 1, other keys above the lead) never change once
made.  A column that reduces to nothing depends on the ones before it; the
others make the pivots and name a maximal independent set S.  Back
substitution through the pivots gives a basis of the orthogonal complement
of their span, one vector per key that leads no pivot (Echelon.complement).

A form B = R^H G C with G real diagonal gets its rank from two such
echelons, those of V_C = range C and V_R = range R, with no entry of B
(factored_rank):

    rank B = dim(V_C + G^-1 V_R^perp) - dim V_R^perp.

Proof: R^H G C x = 0 iff G C x lies in ker R^H = V_R^perp, that is iff C x
lies in W = G^-1 V_R^perp.  So rank B = dim V_C - dim(V_C cap W), and
dim(V_C cap W) = dim V_C + dim W - dim(V_C + W), with dim W = dim V_R^perp
since G is invertible.  A Hermitian form A = M^H G M is the case R = C = M.

The rank of a whole matrix, rank(), is the pivot count of its columns in
one Echelon: the route that does not go through a factorization.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .algebra import (
    GR_ONE as _ONE,
    GR_ZERO as _ZERO,
    GaussianRational,
    terms_sub_scaled,
)


class ExactMatrix:
    """Immutable-by-convention matrix with GaussianRational entries.

    ``entries[i]`` maps each column j of a nonzero entry (i, j) to it; no
    stored entry is zero, and every other entry is.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data: Iterable[Iterable[GaussianRational]]):
        """From dense rows; zeros are dropped."""
        dense = [list(row) for row in data]
        cols = len(dense[0]) if dense else 0
        for row in dense:
            if len(row) != cols:
                raise ValueError("ragged rows")
        self.rows = len(dense)
        self.cols = cols
        self.entries = [
            {j: c for j, c in enumerate(row) if not c.is_zero} for row in dense
        ]

    @classmethod
    def sparse(cls, rows: int, cols: int, entries: list[dict]) -> "ExactMatrix":
        """The matrix with these row dicts, taken as they are: their keys lie
        in range(cols) and none of their values is zero."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.entries = entries
        return self

    @property
    def data(self) -> list[list[GaussianRational]]:
        """A dense copy of the rows, built on each access."""
        cols = range(self.cols)
        return [[row.get(j, _ZERO) for j in cols] for row in self.entries]

    def __getitem__(self, ij: tuple[int, int]) -> GaussianRational:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self.entries[i].get(j, _ZERO)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (
            other.rows,
            other.cols,
            other.entries,
        )

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def first_nonzero(self) -> tuple[int, int] | None:
        """The first nonzero entry in row-major order."""
        for i, row in enumerate(self.entries):
            if row:
                return (i, min(row))
        return None

    def transpose(self) -> "ExactMatrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, c in row.items():
                out[j][i] = c
        return ExactMatrix.sparse(self.cols, self.rows, out)

    def permute_rows(self, perm: list[int]) -> "ExactMatrix":
        """Row i of the result is row perm[i] of the input."""
        if sorted(perm) != list(range(self.rows)):
            raise ValueError("not a permutation of the row indices")
        return ExactMatrix.sparse(
            self.rows, self.cols, [self.entries[p] for p in perm]
        )

    def is_hermitian(self) -> bool:
        # one object on both sides (the diagonal, real mirror entries) is
        # its own conjugate exactly when real
        return self.rows == self.cols and all(
            lower is not None
            and (upper.is_real if upper is lower else upper == lower.conjugate())
            for upper, lower in _mirrors(self)
        )


def _mirrors(m: ExactMatrix) -> Iterator[tuple[GaussianRational, GaussianRational | None]]:
    """Each stored entry (i, j) of a square matrix, with the entry stored at
    (j, i) or None."""
    entries = m.entries
    for i, row in enumerate(entries):
        for j, c in row.items():
            yield c, entries[j].get(i)


class HermitianForm:
    """An ExactMatrix checked to be Hermitian at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: ExactMatrix):
        if not matrix.is_hermitian():
            raise ValueError("matrix is not Hermitian")
        self.matrix = matrix


class PsdResult(NamedTuple):
    """Outcome of the PSD test: PSD (the form is zero, rank 0), or a strict
    witness with its negative value."""

    is_psd: bool
    rank: int | None = None
    witness: list[GaussianRational] | None = None
    value: Fraction | None = None


def form_value(matrix: ExactMatrix, vec: list[GaussianRational]) -> GaussianRational:
    """c* A c with the conjugation on the row index."""
    total = _ZERO
    for i, row in enumerate(matrix.entries):
        ci = vec[i]
        if ci.is_zero or not row:
            continue
        acc = _ZERO
        for j, c in row.items():
            cj = vec[j]
            if not cj.is_zero:
                acc = acc + c * cj
        total = total + ci.conjugate() * acc
    return total


def psd_test(form: HermitianForm | ExactMatrix) -> PsdResult:
    """Exact PSD decision for a Hermitian form of trace zero.

    The eigenvalues of such a form sum to zero, so it is PSD only when it is
    zero, with rank 0.  A nonzero one has a witness c with c* h c < 0, read
    off its entries:

    - the unit vector at the first negative diagonal entry, with value
      h[k][k];
    - when the diagonal is all zero, c = e_i - h[i][j]^-1 e_j at the first
      nonzero entry (i, j) in row-major order, with value
      2 Re(h[i][j] * -h[i][j]^-1) = -2.

    A form whose trace is not zero raises ValueError.
    """
    if isinstance(form, ExactMatrix):
        form = HermitianForm(form)
    h = form.matrix
    n = h.rows
    trace = _ZERO
    negative = None
    for k, row in enumerate(h.entries):
        d = row.get(k)
        if d is None:
            continue
        trace = trace + d
        if negative is None and d.real_sign() < 0:
            negative = k
    if not trace.is_zero:
        raise ValueError("psd_test decides trace-zero forms only")
    witness = [_ZERO] * n
    if negative is not None:
        witness[negative] = _ONE
    else:
        # no diagonal entry is negative and they sum to zero: all are zero
        location = h.first_nonzero()
        if location is None:
            return PsdResult(is_psd=True, rank=0)
        i, j = location
        witness[i] = _ONE
        witness[j] = -h.entries[i][j].inverse()
    value = form_value(h, witness)
    if not value.is_real or value.real_sign() >= 0:
        raise RuntimeError("witness reconstruction failed; this is a bug")
    return PsdResult(is_psd=False, witness=witness, value=value.re)


class Echelon:
    """Sparse row-echelon form of a growing list of columns.

    A column maps orderable row keys to GaussianRational entries.  Each
    column added is reduced against the pivots: the smallest key of a partly
    reduced column names the one pivot that can cancel it, so only keys the
    column holds are looked up, and pivots are never back-substituted or
    changed once made.  A column that reduces to zero depends on the columns
    added before it; otherwise its reduced form, scaled to a leading 1,
    becomes the pivot of its smallest key.  So the first r pivots span the
    columns added up to the one that made the r-th pivot.

    Each elimination step x <- x - c*s (algebra.terms_sub_scaled) normalizes
    its result once, with c*s left an unnormalized int triple; pivots are
    stored normalized.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        # leading key -> the pivot's other entries (its leading entry is 1),
        # in the order the pivots were made
        self.pivots: dict = {}

    def add(self, column: dict) -> bool:
        """Reduce a column; True when it is independent of the columns added
        before it and has made a pivot."""
        pivots = self.pivots
        v = {key: c for key, c in column.items() if not c.is_zero}
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = v.pop(lead).inverse()
                pivots[lead] = {key: c * scale for key, c in v.items()}
                return True
            terms_sub_scaled(v, pivot, v.pop(lead))
        return False

    def complement(self, keys: Iterable, count: int | None = None) -> list[dict]:
        """A basis of the vectors y on ``keys`` orthogonal to the first
        ``count`` pivots (all of them by default), one per free key.

        ``keys`` holds every key of those pivots.  The pivot that leads at l
        is e_l + sum_k p[k] e_k with every k > l, so y is orthogonal to it
        iff y_l = -sum_k conj(p[k]) y_k.  For a free key f, one that leads
        none of the pivots, y_f = 1 and the other free keys are 0; then each
        lead, in decreasing order, is fixed from keys above it already set.
        """
        pivots = list(self.pivots.items())[:count]
        pivots.sort(key=lambda item: item[0], reverse=True)
        leads = {lead for lead, _ in pivots}
        basis = []
        for free in keys:
            if free in leads:
                continue
            y = {free: _ONE}
            for lead, pivot in pivots:
                acc = _ZERO
                for key, c in pivot.items():
                    x = y.get(key)
                    if x is not None:
                        acc = acc + c.conjugate() * x
                if not acc.is_zero:
                    y[lead] = -acc
            basis.append(y)
        return basis


def factored_rank(
    columns: Echelon,
    count: int,
    rows: Echelon,
    row_count: int,
    inverse_weight: Callable[[object], int],
) -> int:
    """rank R^H G C for a real diagonal G, from the echelons of C's and R's
    columns.

    V_C = range C is spanned by the first ``count`` pivots of ``columns`` and
    V_R = range R by the first ``row_count`` of ``rows``, and
    G^-1 = diag(inverse_weight(key)), nonzero ints.  Then

        rank R^H G C = dim(V_C + G^-1 V_R^perp) - dim V_R^perp,

    found by adding G^-1 times the complement basis of V_R
    (Echelon.complement) to a copy of V_C's pivots.

    The complement is taken over K, the union of the supports of the pivots
    used.  The first ``count`` pivots span every column the echelon took
    before its next pivot (in the engine, every column through the order),
    and likewise the rows', so K holds every key of either factor, and the
    proof (module docstring) holds in the coordinates K.  A larger K gives
    the same rank: a key k outside both factors adds e_k to V_R^perp, and
    G^-1 e_k lies outside V_C + G^-1 V_R^perp, so it adds one to each term.
    """
    pivots = dict(islice(columns.pivots.items(), count))
    keys: dict = {}
    for lead, pivot in chain(pivots.items(), islice(rows.pivots.items(), row_count)):
        keys[lead] = None
        keys.update(dict.fromkeys(pivot))
    span = Echelon()
    # add makes new pivot dicts and never changes old ones, so sharing is safe
    span.pivots = pivots
    complement = rows.complement(keys, row_count)
    for y in complement:
        span.add({key: c * inverse_weight(key) for key, c in y.items()})
    return len(span.pivots) - len(complement)


def rank(m: ExactMatrix) -> int:
    """Exact rank: the number of pivots that m's columns make in one
    Echelon, each column keyed by its row indices."""
    echelon = Echelon()
    for column in m.transpose().entries:
        echelon.add(column)
    return len(echelon.pivots)


def is_antisymmetric(m: ExactMatrix) -> bool:
    """Exact check of M^T == -M (implies even rank over any field)."""
    return m.rows == m.cols and all(
        lower is not None and upper == -lower for upper, lower in _mirrors(m)
    )
