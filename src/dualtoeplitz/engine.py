"""Dual Toeplitz operators on the complement of the harmonic functions.

The operator with symbol phi sends f to the complement projection of phi*f.
This module applies it exactly, builds the truncated monomial bases
e_{n,m} = (I - Q)(z^n conj(z)^m) for 1 <= n, m <= N, and assembles the exact
quadratic-form matrices used by the classifier: the self-commutator form and
the commutator pairing of two symbols.

Assembly is graded by rotation.  Every term of e_{n,m} has the frequency
d = n - m, multiplying by a term z^a conj(z)^b adds a - b, and the complement
projection keeps each frequency, so S_phi e_j lives in the frequencies
d_j + F(phi), where F(phi) is the set of n - m over phi's terms.  Monomials of
different frequencies are orthogonal, so an inner product of two images is
zero unless their frequency sets meet.  Only these entries can be nonzero:

- self-commutator form:  d_i - d_j in F(phi) - F(phi);
- commutator pairing:    d_i - d_j in W = F(phi) + F(psi);
- commutator range Gram: d_i - d_j in W - W.

The builders compute those entries and leave every other one an exact zero.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from ._backend import kernel
from .algebra import Element, GaussianRational, complement_project, inner_product
from .matrix import ExactMatrix


def apply(phi: Element, f: Element) -> Element:
    """S_phi f: complement projection of the pointwise product phi*f."""
    return Element._wrap(kernel.terms_apply(phi._terms, f._terms))


def adjoint_symbol(phi: Element) -> Element:
    """Symbol of the adjoint operator: the complex conjugate of phi."""
    return phi.conjugate()


def test_vector(k: int) -> Element:
    """The probe vector (I-Q)(z^k conj z) = z^k conj(z) - (k/(k+1)) z^(k-1), k >= 1."""
    if k < 1:
        raise ValueError("test vectors need k >= 1 (k=0 collapses to zero)")
    return Element._wrap(
        {(k, 1): kernel.GR_ONE, (k - 1, 0): GaussianRational(Fraction(-k, k + 1))}
    )


def q_value(phi: Element, f: Element) -> Fraction:
    """|S_phi f|^2 - |S_conj(phi) f|^2, the self-commutator form at f. Exact and real."""
    u = apply(phi, f)
    v = apply(adjoint_symbol(phi), f)
    value = inner_product(u, u) - inner_product(v, v)
    # both summands are squared norms, so the value is a plain rational
    return value.re


@dataclass(frozen=True)
class TruncatedBasis:
    """Complement basis e_{n,m}, 1 <= n, m <= N, in lexicographic (n, m) order."""

    order: int
    pairs: tuple[tuple[int, int], ...]
    vectors: tuple[Element, ...]
    swap: tuple[int, ...] = field(repr=False)

    def index(self, n: int, m: int) -> int:
        if not (1 <= n <= self.order and 1 <= m <= self.order):
            raise ValueError("exponents out of range for this basis")
        return (n - 1) * self.order + (m - 1)

    def vector(self, n: int, m: int) -> Element:
        return self.vectors[self.index(n, m)]

    def __len__(self) -> int:
        return len(self.vectors)


def build_basis(order: int) -> TruncatedBasis:
    """Basis of span{e_{n,m}}: conjugation acts by the swap permutation sigma."""
    if order < 1:
        raise ValueError("basis order must be >= 1")
    pairs = tuple((n, m) for n in range(1, order + 1) for m in range(1, order + 1))
    vectors = tuple(complement_project(Element.monomial(n, m)) for n, m in pairs)
    swap = tuple((m - 1) * order + (n - 1) for n, m in pairs)
    return TruncatedBasis(order=order, pairs=pairs, vectors=vectors, swap=swap)


def _basis(order: int | TruncatedBasis) -> TruncatedBasis:
    return order if isinstance(order, TruncatedBasis) else build_basis(order)


def _frequencies(phi: Element) -> set[int]:
    """F(phi): the frequencies n - m of phi's terms."""
    return {n - m for n, m in phi._terms}


def _differences(shifts: set[int]) -> set[int]:
    """S - S: the shifts under which two images can share a frequency."""
    return {a - b for a in shifts for b in shifts}


def _allowed(basis: TruncatedBasis, shifts: set[int]) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j) with d_i - d_j in shifts; every other entry is zero."""
    by_frequency: dict[int, list[int]] = defaultdict(list)
    for j, (n, m) in enumerate(basis.pairs):
        by_frequency[n - m].append(j)
    for i, (n, m) in enumerate(basis.pairs):
        for s in shifts:
            for j in by_frequency.get(n - m - s, ()):
                yield i, j


def _hermitian(
    basis: TruncatedBasis,
    shifts: set[int],
    entry: Callable[[int, int], GaussianRational],
) -> ExactMatrix:
    """entry(i, j) on the allowed pairs with j >= i, conjugated below the diagonal."""
    size = len(basis)
    a = ExactMatrix.zeros(size, size)
    for i, j in _allowed(basis, shifts):
        if j >= i:
            value = entry(i, j)
            a.data[i][j] = value
            if i != j:
                a.data[j][i] = value.conjugate()
    return a


def selfcomm_form_matrix(phi: Element, order: int | TruncatedBasis) -> ExactMatrix:
    """Hermitian matrix A with A[i][j] = <S e_j, S e_i> - <S* e_j, S* e_i>.

    For f = sum c_j e_j the form value c* A c equals q_value(phi, f); the
    operator is hyponormal on the truncated span iff A is PSD.  ``order`` is a
    truncation order or a basis from build_basis.
    """
    basis = _basis(order)
    psi = adjoint_symbol(phi)
    u = [apply(phi, e) for e in basis.vectors]
    v = [apply(psi, e) for e in basis.vectors]
    return _hermitian(
        basis,
        _differences(_frequencies(phi)),
        lambda i, j: inner_product(u[j], u[i]) - inner_product(v[j], v[i]),
    )


def _commutator_images(
    phi: Element, psi: Element, basis: TruncatedBasis
) -> tuple[list[Element], set[int]]:
    """w_j = (S_phi S_psi - S_psi S_phi) e_j, and the shifts W = F(phi) + F(psi)."""
    w = [apply(phi, apply(psi, e)) - apply(psi, apply(phi, e)) for e in basis.vectors]
    shifts = {a + b for a in _frequencies(phi) for b in _frequencies(psi)}
    return w, shifts


def _pairing(basis: TruncatedBasis, w: list[Element], shifts: set[int]) -> ExactMatrix:
    size = len(basis)
    b = ExactMatrix.zeros(size, size)
    for i, j in _allowed(basis, shifts):
        b.data[i][j] = inner_product(w[j], basis.vectors[i])
    return b


def _range_gram(basis: TruncatedBasis, w: list[Element], shifts: set[int]) -> ExactMatrix:
    return _hermitian(
        basis, _differences(shifts), lambda i, j: inner_product(w[j], w[i])
    )


def commutator_matrices(
    phi: Element, psi: Element, order: int | TruncatedBasis
) -> tuple[ExactMatrix, ExactMatrix]:
    """commutator_matrix and commutator_range_gram from one pass over the images."""
    basis = _basis(order)
    w, shifts = _commutator_images(phi, psi, basis)
    return _pairing(basis, w, shifts), _range_gram(basis, w, shifts)


def commutator_matrix(phi: Element, psi: Element, order: int | TruncatedBasis) -> ExactMatrix:
    """Pairing B[i][j] = <(S_phi S_psi - S_psi S_phi) e_j, e_i> on the basis."""
    basis = _basis(order)
    return _pairing(basis, *_commutator_images(phi, psi, basis))


def commutator_range_gram(
    phi: Element, psi: Element, order: int | TruncatedBasis
) -> ExactMatrix:
    """Gram matrix of the commutator outputs g_j; its rank is dim span{g_j}."""
    basis = _basis(order)
    return _range_gram(basis, *_commutator_images(phi, psi, basis))
