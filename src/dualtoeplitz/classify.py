"""Normality and hyponormality classification for dual Toeplitz symbols.

On the complement of the harmonic functions a dual Toeplitz operator is
hyponormal exactly when it is normal, so the classifier answers Normal,
NotHyponormal, or OutsideProvenScope (symbol shapes the proven criteria do
not cover).  Every verdict carries a behavior tag naming the rule that
fired and the evidence of one search of the self-commutator form through
the order limit: a witness with a strictly negative form value, or the
order through which the form matrix was checked to vanish.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from . import DEFAULT_ORDER_LIMIT
from .algebra import Element, GaussianRational, as_scalar
from .engine import SelfcommAssembly, combination, exponent_pairs, q_value
from .linalg import psd_test


class VerdictStatus(str, Enum):
    NORMAL = "Normal"
    NOT_HYPONORMAL = "NotHyponormal"
    OUTSIDE_PROVEN_SCOPE = "OutsideProvenScope"


class NotNormalCertificate(NamedTuple):
    """First truncation order with a nonzero self-commutator form matrix,
    one nonzero entry location, and a witness with exact negative form value."""

    order: int
    entry: tuple[int, int]
    entry_pairs: tuple[tuple[int, int], tuple[int, int]]
    witness: Element
    value: Fraction


class ZeroMatrixCertificate(NamedTuple):
    """Self-commutator form matrix is exactly zero for every N <= order.

    Evidence for normality, not a proof (finite truncation only).
    """

    order: int


Certificate = NotNormalCertificate | ZeroMatrixCertificate


class Verdict(NamedTuple):
    status: VerdictStatus
    rule: str
    certificate: Certificate | None = None


def classify_monomial(a, n: int, m: int) -> Verdict:
    """One-term symbol a z^n conj(z)^m: normal iff n == m."""
    a = as_scalar(a)
    if a.is_zero:
        raise ValueError("coefficient must be nonzero")
    if n < 0 or m < 0:
        raise ValueError("exponents must be nonnegative")
    if n == m:
        return Verdict(VerdictStatus.NORMAL, "radial-monomial")
    return Verdict(VerdictStatus.NOT_HYPONORMAL, "unbalanced-monomial")


def classify_two_monomial(
    a, b, first: tuple[int, int], second: tuple[int, int]
) -> Verdict:
    """Two-term symbol a z^n1 conj(z)^m1 + b z^n2 conj(z)^m2, distinct pairs.

    With all exponents positive the operator is normal exactly when the pair
    is radial with a real coefficient ratio, or each monomial is the
    conjugate of the other with |a| == |b|.  A zero exponent anywhere leaves
    the proven territory: the verdict is OutsideProvenScope.  The rule
    functions return no certificate; classify attaches the evidence.
    """
    a = as_scalar(a)
    b = as_scalar(b)
    if a.is_zero or b.is_zero:
        raise ValueError("coefficients must be nonzero")
    n1, m1 = first
    n2, m2 = second
    for e in (n1, m1, n2, m2):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponents must be nonnegative integers")
    if first == second:
        raise ValueError("monomials must be distinct (merge coefficients first)")
    if 0 in (n1, m1, n2, m2):
        return Verdict(VerdictStatus.OUTSIDE_PROVEN_SCOPE, "two-term-zero-exponent")
    if n1 == m1 and n2 == m2:
        # distinct radial pair: commutator vanishes iff b/a is real
        if (b / a).is_real:
            return Verdict(VerdictStatus.NORMAL, "radial-pair-real-ratio")
        return Verdict(VerdictStatus.NOT_HYPONORMAL, "radial-pair-nonreal-ratio")
    if n1 == m2 and m1 == n2:
        if a.abs2() == b.abs2():
            return Verdict(VerdictStatus.NORMAL, "conjugate-pair-balanced")
        return Verdict(VerdictStatus.NOT_HYPONORMAL, "conjugate-pair-unbalanced")
    return Verdict(VerdictStatus.NOT_HYPONORMAL, "two-term-mismatched-exponents")


def classify_harmonic(phi: Element) -> Verdict:
    """Harmonic symbol: normal iff some nontrivial combination
    alpha*phi + beta*conj(phi) is constant, i.e. the coefficient matrix with
    rows (a_k, conj(b_k)) and (b_k, conj(a_k)) has rank <= 1, that is, every
    2x2 minor of its rows is zero."""
    if not phi.is_harmonic:
        raise ValueError("symbol is not harmonic")
    degrees = sorted({max(n, m) for (n, m) in phi._terms if (n, m) != (0, 0)})
    rows: list[tuple[GaussianRational, GaussianRational]] = []
    for k in degrees:
        a_k = phi.coefficient(k, 0)
        b_k = phi.coefficient(0, k)
        rows.append((a_k, b_k.conjugate()))
        rows.append((b_k, a_k.conjugate()))
    if not rows:
        return Verdict(VerdictStatus.NORMAL, "constant-symbol")
    if all(x * v == y * u for (x, y), (u, v) in combinations(rows, 2)):
        return Verdict(VerdictStatus.NORMAL, "harmonic-pencil-constant")
    return Verdict(VerdictStatus.NOT_HYPONORMAL, "harmonic-pencil-free")


def _rule(phi: Element) -> Verdict:
    """The sharpest proven rule for the symbol's shape, with no evidence."""
    terms = list(phi.terms())
    if not terms:
        return Verdict(VerdictStatus.NORMAL, "zero-symbol")
    if len(terms) == 1:
        (mono, c) = terms[0]
        if mono.n == 0 and mono.m == 0:
            return Verdict(VerdictStatus.NORMAL, "constant-symbol")
        return classify_monomial(c, mono.n, mono.m)
    if phi.is_harmonic:
        return classify_harmonic(phi)
    if len(terms) == 2:
        (p1, c1), (p2, c2) = terms
        return classify_two_monomial(c1, c2, (p1.n, p1.m), (p2.n, p2.m))
    return Verdict(VerdictStatus.OUTSIDE_PROVEN_SCOPE, "outside-proven-scope")


def classify(phi: Element, order_limit: int = DEFAULT_ORDER_LIMIT) -> Verdict:
    """The sharpest proven rule's verdict, with the evidence of
    numeric_certificate through order_limit whatever the verdict.

    Normal verdicts get the zero-matrix order actually checked; NotHyponormal
    verdicts get a certified witness.  A Normal verdict with a nonzero form
    is a bug and raises.  A NotHyponormal verdict can still come back with a
    zero-matrix certificate when the limit is too small for its form to show.
    """
    verdict = _rule(phi)
    certificate = numeric_certificate(phi, order_limit)
    if verdict.status is VerdictStatus.NORMAL and not isinstance(
        certificate, ZeroMatrixCertificate
    ):
        raise RuntimeError(
            "symbolically normal symbol has a nonzero form matrix; this is a bug"
        )
    return verdict._replace(certificate=certificate)


def numeric_certificate(
    phi: Element, order_limit: int = DEFAULT_ORDER_LIMIT
) -> Certificate:
    """Search truncation orders 1..order_limit for a nonzero self-commutator
    form matrix.  Each order is screened by SelfcommAssembly.vanishes: the
    form is zero exactly when the Gram of a maximal independent set of its
    factor columns is, and that set grows with the order, so each order
    checks only its newly chosen columns, with no entry of the matrix.
    Only the first order that does not vanish has its matrix built.  That
    form has trace zero, hence is indefinite, and psd_test reads a witness
    with exact negative value off its entries, which q_value re-verifies.
    The witness sum c_k e_{pairs[k]} is the complement projection of the
    one monomial sum c_k z^n_k conj(z)^m_k (engine.combination), so no
    basis is built at any order.  An all-zero run returns the order reached.
    """
    if order_limit < 1:
        raise ValueError("order limit must be >= 1")
    forms = SelfcommAssembly(phi)
    for order in range(1, order_limit + 1):
        if forms.vanishes(order):
            continue
        a = forms.matrix(order)
        location = a.first_nonzero()
        if location is None:
            raise RuntimeError(
                "a nonzero Gram of the chosen factor columns with a zero form "
                "matrix; this is a bug"
            )
        result = psd_test(a)
        pairs = exponent_pairs(order)
        witness = combination(pairs, result.witness)
        check = q_value(phi, witness)
        if check != result.value or check >= 0:
            raise RuntimeError("witness failed engine re-verification; this is a bug")
        i, j = location
        return NotNormalCertificate(
            order=order,
            entry=location,
            entry_pairs=(pairs[i], pairs[j]),
            witness=witness,
            value=check,
        )
    return ZeroMatrixCertificate(order=order_limit)
