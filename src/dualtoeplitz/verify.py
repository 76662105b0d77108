"""Self-check suites for the proven identities behind the classifier.

Each suite re-derives one family of facts two independent ways (closed form
vs. engine, symbolic verdict vs. numeric certificate, restriction rank vs.
range-Gram rank) and reports exact mismatches.  Suites are deterministic:
fixed grids, fixed iteration order, no randomness, so two runs produce
byte-identical reports.

Suite names:

- ``monomial``           single-term symbols: closed-form action and form
                         values, defect polynomial, negativity search.
- ``two-term``           two-term symbols: the 24-case classification grid
                         cross-checked against numeric certificates, defect
                         polynomial coefficients, special-point survival,
                         zero-balance reduction.
- ``harmonic``           harmonic symbols: pencil-rank verdicts against
                         numeric certificates.
- ``radial``             radial symbols: commutator residual scalar law.
- ``commutator-parity``  commutator compressions: antisymmetry under the
                         conjugation swap, and the pairing and range-Gram
                         ranks the command line reports (even, equal to the
                         pairing's own rank and to the frozen pair grid).
- ``all``                everything above, reported in that order; where
                         ``os.fork`` exists the suites run on two processes
                         (see ``run_suites``).
"""

from __future__ import annotations

import marshal
import os
from fractions import Fraction
from typing import Iterator, NoReturn

from . import SUITE_NAMES
from .algebra import Element
from .classify import NotNormalCertificate, classify
from .engine import (
    CommutatorAssembly,
    apply,
    combination,
    exponent_pairs,
    q_value,
    selfcomm_form_matrix,
    swap_permutation,
    test_vector,
)
from .identities import (
    adjoint_commutator_identity,
    closed_form_apply,
    closed_form_q,
    defect_balance_at_zero,
    equal_diff_defect_at_zero,
    monomial_defect_poly,
    radial_commutator_residual,
    two_monomial_q,
    two_term_defect_poly,
    two_term_special_points,
)
from .linalg import is_antisymmetric, psd_test, rank
from .symbols import parse_symbol

# Fixed classification grid: (symbol, expected status).  Covers the merged
# degenerate case, radial pairs with real and non-real ratios, conjugate
# pairs balanced and unbalanced, mismatched exponent patterns, and
# zero-exponent symbols that leave the proven territory.
TWO_TERM_GRID: tuple[tuple[str, str], ...] = (
    # radial pair, real coefficient ratio -> Normal
    ("z zb + z^2 zb^2", "Normal"),
    ("2 z zb + 3 z^2 zb^2", "Normal"),
    ("z zb - z^2 zb^2", "Normal"),
    ("(0+2i) z zb + (0+3i) z^3 zb^3", "Normal"),
    # conjugate pair, equal modulus -> Normal
    ("z^2 zb + z zb^2", "Normal"),
    ("(0+1i) z^2 zb + z zb^2", "Normal"),
    ("(3/5+4/5i) z^3 zb + z zb^3", "Normal"),
    ("(1+1i) z^2 zb + (1-1i) z zb^2", "Normal"),
    # equal monomials merge to a single radial monomial -> Normal
    ("1/2 z zb + 1/2 z zb", "Normal"),
    # radial pair, non-real ratio -> NotHyponormal
    ("z zb + (0+1i) z^2 zb^2", "NotHyponormal"),
    ("(1+1i) z zb + z^2 zb^2", "NotHyponormal"),
    ("z zb + (1+2i) z^3 zb^3", "NotHyponormal"),
    # conjugate pair, unequal modulus -> NotHyponormal
    ("z^2 zb + 2 z zb^2", "NotHyponormal"),
    ("(1+1i) z^3 zb + z zb^3", "NotHyponormal"),
    ("3 z^2 zb^3 + z^3 zb^2", "NotHyponormal"),
    # mismatched exponent patterns -> NotHyponormal
    ("z^2 zb + z zb^3", "NotHyponormal"),
    ("z zb + z^2 zb", "NotHyponormal"),
    ("z^3 zb + z^2 zb^2", "NotHyponormal"),
    ("z^2 zb + z^3 zb^2", "NotHyponormal"),
    ("z zb^2 + z^2 zb^3", "NotHyponormal"),
    ("z^3 zb^2 + z zb^2", "NotHyponormal"),
    # zero exponents: outside the proven two-term criteria
    ("z^2 zb + z^3", "OutsideProvenScope"),
    ("z zb + 1", "OutsideProvenScope"),
    ("z^2 zb + zb", "OutsideProvenScope"),
)

# Harmonic pencil grid: Normal exactly when some nontrivial combination of
# the symbol and its conjugate is constant.
HARMONIC_GRID: tuple[tuple[str, str], ...] = (
    ("3", "Normal"),
    ("z + zb", "Normal"),
    ("z - zb", "Normal"),
    ("(0+1i) z + (0+1i) zb", "Normal"),
    ("z^2 + zb^2", "Normal"),
    ("(1+1i) z + (1-1i) zb", "Normal"),
    ("z + zb + z^2 + zb^2", "Normal"),
    ("z", "NotHyponormal"),
    ("zb^3", "NotHyponormal"),
    ("2 z + 3 zb", "NotHyponormal"),
    ("z + zb^2", "NotHyponormal"),
    ("z + zb + z^2 - zb^2", "NotHyponormal"),
)

# Commutator pair grid: (phi, psi, rank at truncation order 2, 3, 4, 5).
# Pairs are chosen so the compression is faithful there: the restriction
# rank provably equals the range-Gram rank at each listed order, so the
# Gram route is an independent oracle for the rank values.  (For general
# pairs the Gram rank can exceed the restriction rank at finite order;
# see tests for a pinned example.)
COMMUTATOR_GRID: tuple[tuple[str, str, tuple[int, int, int, int]], ...] = (
    ("z", "zb", (2, 4, 6, 8)),
    ("z^2", "zb^2", (2, 6, 8, 10)),
    ("z^3", "zb^3", (2, 6, 10, 12)),
    ("z^2 zb", "z zb^2", (2, 6, 10, 14)),
    ("z^3 zb", "z zb^3", (2, 6, 10, 14)),
    ("z^3 zb^2", "z^2 zb^3", (2, 6, 10, 14)),
    ("z + zb", "z - zb", (2, 4, 6, 8)),
    ("z", "z^2 + zb", (2, 4, 6, 8)),
    ("(1+1i) z", "(1-1i) zb", (2, 4, 6, 8)),
    ("z^2 + zb", "z + zb^2", (2, 6, 10, 14)),
)
COMMUTATOR_ORDERS = (2, 3, 4, 5)


class SuiteReport:
    """Outcome of one suite: how many checks ran and which ones failed."""

    __slots__ = ("name", "checks", "failures")

    def __init__(self, name: str, checks: int = 0, failures: list[str] | None = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def certificate_agreement(
    report: SuiteReport, text: str, expected: str, order_limit: int
) -> None:
    """Cross-validate a symbolic verdict against the certificate it carries,
    in two checks: the verdict, then the certificate by its kind.

    A witness must sit at an order within order_limit and have an exact
    negative form value that q_value re-verifies; it supports NotHyponormal
    and OutsideProvenScope.  A zero form matrix must reach order_limit; it
    supports Normal and OutsideProvenScope.
    """
    phi = parse_symbol(text)
    verdict = classify(phi, order_limit)
    report.check(
        verdict.status.value == expected,
        f"{text}: classified {verdict.status.value} ({verdict.rule}), "
        f"expected {expected}",
    )
    if verdict.status.value != expected:
        return
    cert = verdict.certificate
    if isinstance(cert, NotNormalCertificate):
        ok = (
            expected != "Normal"
            and cert.order <= order_limit
            and cert.value < 0
            and q_value(phi, cert.witness) == cert.value
        )
        evidence = f"witness at order {cert.order}"
    else:
        ok = expected != "NotHyponormal" and cert.order == order_limit
        evidence = f"zero form matrix through order {cert.order}"
    report.check(ok, f"{text}: {expected} verdict not supported by its {evidence}")


def _suite_monomial(n_max: int | None = None) -> SuiteReport:
    limit = 4 if n_max is None else n_max
    report = SuiteReport("monomial")
    # closed-form action matches the engine exactly
    for n in range(0, limit + 1):
        for m in range(0, limit + 1):
            top = max(n, m)
            for k in range(top + 1, top + 4):
                phi = Element.monomial(n, m)
                expected = closed_form_apply(n, m, k)
                report.check(
                    apply(phi, test_vector(k)) == expected,
                    f"apply(z^{n} zb^{m}, f_{k}) != closed form",
                )
    # closed-form form values match the engine exactly
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            top = max(n, m)
            for k in range(top + 1, top + 4):
                phi = Element.monomial(n, m)
                report.check(
                    q_value(phi, test_vector(k)) == closed_form_q(n, m, k),
                    f"q(z^{n} zb^{m}, f_{k}) != closed form",
                )
    # defect polynomial: leading coefficient and vanishing law
    for n in range(0, limit + 3):
        for m in range(0, limit + 3):
            poly = monomial_defect_poly(n, m)
            report.check(
                poly.coefficient(5) == n * n - m * m,
                f"defect poly ({n},{m}): x^5 coefficient wrong",
            )
            report.check(
                poly.is_zero == (n == m),
                f"defect poly ({n},{m}): vanishing law violated",
            )
    # unbalanced monomials admit a strictly negative form value, in the
    # window the checks above use
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            if n == m:
                continue
            top = max(n, m)
            found = any(
                closed_form_q(n, m, k) < 0 or closed_form_q(m, n, k) < 0
                for k in range(top + 1, top + 4)
            )
            report.check(
                found,
                f"no negative form value found for ({n},{m}) "
                f"with {top + 1} <= k <= {top + 3}",
            )
    # and the form matrix itself is indefinite with a verified witness
    phi = parse_symbol("z^2 zb")
    result = psd_test(selfcomm_form_matrix(phi, 4))
    ok = (
        not result.is_psd
        and result.value < 0
        and q_value(phi, combination(exponent_pairs(4), result.witness))
        == result.value
    )
    report.check(ok, "z^2 zb: form matrix not certified indefinite at order 4")
    return report


def _suite_two_term(n_max: int | None = None) -> SuiteReport:
    order_limit = 8 if n_max is None else n_max
    report = SuiteReport("two-term")
    for text, expected in TWO_TERM_GRID:
        certificate_agreement(report, text, expected, order_limit)
    # engine form values match the two-term closed form
    for (n1, m1, n2, m2) in ((2, 1, 1, 2), (2, 1, 3, 2), (1, 1, 2, 2), (3, 1, 1, 2)):
        for alpha in (
            Fraction(1),
            Fraction(-2, 3),
        ):
            phi = Element.monomial(n1, m1) + alpha * Element.monomial(n2, m2)
            for k in range(max(n1, m1, n2, m2) + 1, max(n1, m1, n2, m2) + 4):
                report.check(
                    q_value(phi, test_vector(k))
                    == two_monomial_q(n1, m1, n2, m2, alpha, k),
                    f"two-term q ({n1},{m1},{n2},{m2}), alpha={alpha}, k={k}",
                )
    # defect polynomial: leading coefficient law on a fixed tuple sample
    sample = (
        (2, 1, 1, 2, Fraction(1)),
        (2, 1, 1, 2, Fraction(3, 2)),
        (3, 1, 2, 4, Fraction(1)),
        (3, 2, 1, 4, Fraction(2)),
        (4, 1, 2, 3, Fraction(1, 2)),
        (2, 2, 3, 1, Fraction(1)),
        (5, 2, 1, 3, Fraction(4)),
        (1, 3, 4, 2, Fraction(1)),
        (4, 3, 2, 5, Fraction(5, 3)),
        (6, 1, 2, 2, Fraction(1)),
    )
    for (n1, m1, n2, m2, s) in sample:
        poly = two_term_defect_poly(n1, m1, n2, m2, s)
        want = Fraction(n1 * n1) + s * (n2 * n2) - m1 * m1 - s * (m2 * m2)
        report.check(
            poly.coefficient(13) == want,
            f"two-term defect poly {(n1, m1, n2, m2, s)}: x^13 coefficient",
        )
    # conjugate-pair symmetry kills the polynomial at weight one
    report.check(
        two_term_defect_poly(2, 1, 1, 2, Fraction(1)).is_zero,
        "conjugate pair (2,1,1,2) at weight 1: polynomial should vanish",
    )
    report.check(
        not two_term_defect_poly(2, 1, 1, 2, Fraction(2)).is_zero,
        "conjugate pair (2,1,1,2) at weight 2: polynomial should not vanish",
    )
    # special points: the isolated component survives, the rest vanish
    bound = 4
    for n1 in range(1, bound + 1):
        for m1 in range(1, n1):
            for n2 in range(1, bound + 1):
                for m2 in range(n2 + 1, bound + 1):
                    for s in (Fraction(1), Fraction(3, 2)):
                        checks = two_term_special_points(n1, m1, n2, m2, s)
                        if (n1, m1) == (m2, n2):
                            report.check(
                                not checks,
                                f"special points {(n1, m1, n2, m2)}: conjugate "
                                "pair should admit no isolating point",
                            )
                            continue
                        report.check(
                            bool(checks),
                            f"special points {(n1, m1, n2, m2)}: no case applied",
                        )
                        for chk in checks:
                            report.check(
                                chk.holds,
                                f"special point {chk.point} of "
                                f"{(n1, m1, n2, m2, s)}: survival pattern broken",
                            )
    # zero-balance reduction: H(0) = 0 exactly when the balance identity holds
    for (n1, m1, n2, m2) in (
        (2, 1, 1, 2),
        (2, 1, 3, 2),
        (1, 2, 2, 1),
        (3, 1, 2, 2),
        (2, 2, 3, 3),
    ):
        for s in (Fraction(1), Fraction(2), Fraction(1, 3)):
            poly = two_term_defect_poly(n1, m1, n2, m2, s)
            report.check(
                (poly.coefficient(0) == 0)
                == defect_balance_at_zero(n1, m1, n2, m2, s),
                f"zero balance {(n1, m1, n2, m2, s)}: reduction mismatch",
            )
    # equal-difference defect at the origin: fixed worked value
    report.check(
        equal_diff_defect_at_zero(2, 1, 3, 2, Fraction(1)) == Fraction(-149, 144),
        "equal-difference defect (2,1,3,2, alpha=1) != -149/144",
    )
    return report


def _suite_harmonic(n_max: int | None = None) -> SuiteReport:
    order_limit = 6 if n_max is None else n_max
    report = SuiteReport("harmonic")
    for text, expected in HARMONIC_GRID:
        certificate_agreement(report, text, expected, order_limit)
    return report


def _suite_radial(n_max: int | None = None) -> SuiteReport:
    limit = 6 if n_max is None else n_max
    report = SuiteReport("radial")
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            if n == m:
                continue
            part, scalar = radial_commutator_residual(n, m)
            want = Fraction(n - m, (n + 1) * (n + 2) * (m + 1) * (m + 2))
            report.check(
                scalar == want, f"radial residual ({n},{m}): scalar law"
            )
            report.check(
                not part.is_zero,
                f"radial residual ({n},{m}): complement part vanished",
            )
    return report


def _suite_commutator(n_max: int | None = None) -> SuiteReport:
    top = 4 if n_max is None else n_max
    orders = [N for N in COMMUTATOR_ORDERS if N <= top]
    report = SuiteReport("commutator-parity")
    swaps = {N: swap_permutation(exponent_pairs(N)) for N in orders}
    for phi_text, psi_text, expected_ranks in COMMUTATOR_GRID:
        # one assembly per pair keeps its factor columns across orders
        pair = CommutatorAssembly(parse_symbol(phi_text), parse_symbol(psi_text))
        for N, expected in zip(COMMUTATOR_ORDERS, expected_ranks):
            if N not in orders:
                continue
            pairing = pair.pairing(N)
            report.check(
                is_antisymmetric(pairing.permute_rows(swaps[N])),
                f"[{phi_text}, {psi_text}] at order {N}: "
                "swap-permuted matrix not antisymmetric",
            )
            # the ranks the command line reports, from the factors
            r, g = pair.ranks(N)
            report.check(
                r % 2 == 0,
                f"[{phi_text}, {psi_text}] at order {N}: odd rank {r}",
            )
            # and the pairing's own rank, which takes no factorization
            whole = rank(pairing)
            report.check(
                r == whole == expected,
                f"[{phi_text}, {psi_text}] at order {N}: rank {r}, "
                f"pairing rank {whole}, expected {expected}",
            )
            report.check(
                g == expected,
                f"[{phi_text}, {psi_text}] at order {N}: range-Gram rank {g}, "
                f"expected {expected}",
            )
    # adjoint symbols reverse the commutator through conjugation
    triples = (
        ("z^2 zb", "z zb^2", "z^2 zb - 2/3 z"),
        ("z + zb", "z^2", "z zb^2 - 2/3 zb"),
        ("(1+1i) z zb", "zb^2", "z^3 zb - 3/4 z^2"),
    )
    for phi_text, psi_text, h_text in triples:
        report.check(
            adjoint_commutator_identity(
                parse_symbol(phi_text), parse_symbol(psi_text), parse_symbol(h_text)
            ),
            f"adjoint commutator identity failed for "
            f"({phi_text}; {psi_text}; {h_text})",
        )
    return report


_SUITES = {
    "monomial": _suite_monomial,
    "two-term": _suite_two_term,
    "harmonic": _suite_harmonic,
    "radial": _suite_radial,
    "commutator-parity": _suite_commutator,
}

# the order run_suites("all") queues the suites in: longest first (in
# process about 22, 10, 5, 4 and 2 ms), so the caller, which claims first,
# takes two-term and the short suites even out the end; in declared order
# the worker, which starts after the fork, took two-term in 49 of 50 runs,
# so the longest suite started last
QUEUE_ORDER = ("two-term", "commutator-parity", "harmonic", "monomial", "radial")


def run_suite(name: str, n_max: int | None = None) -> SuiteReport:
    """Run one named suite.  n_max overrides the suite's principal bound
    (exponent bound, certificate order, or truncation order cap)."""
    try:
        suite = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}, all"
        ) from None
    return suite(n_max)


def run_suites(name: str, n_max: int | None = None) -> list[SuiteReport]:
    """Run one suite, or all of them for name='all', reported in declaration
    order.

    For 'all' this forks one worker process where os.fork exists.  The two
    processes take suites from one queue, each the next one whenever it is
    free, and the worker sends its reports back; the result is the same as
    running every suite here in turn.  Forking a process that runs threads
    is unsafe, so such a caller should call run_suite for each name instead.
    A suite that raises in the worker, or a worker that exits without
    reporting the suites it took, raises RuntimeError here.
    """
    if name != "all":
        return [run_suite(name, n_max)]
    # the queue: one byte per suite, its index in QUEUE_ORDER; both ends of
    # the fork hold the read end, and a one-byte read claims the next suite
    queue, fill = os.pipe()
    try:
        os.write(fill, bytes(range(len(QUEUE_ORDER))))
    finally:
        os.close(fill)
    try:
        if hasattr(os, "fork"):
            reports = _run_with_worker(queue, n_max)
        else:
            reports = {r.name: r for r in _claimed_reports(queue, n_max)}
    finally:
        os.close(queue)
    return [reports[s] for s in SUITE_NAMES]


def _claimed_reports(queue: int, n_max: int | None) -> Iterator[SuiteReport]:
    """Run the suites claimed from the queue, one at a time, until it is empty."""
    while claimed := os.read(queue, 1):
        yield run_suite(QUEUE_ORDER[claimed[0]], n_max)


def _run_with_worker(queue: int, n_max: int | None) -> dict[str, SuiteReport]:
    """Drain the queue here and in one forked worker; every report by name."""
    results, sink = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        # no process to be had (a process limit, say): drain it all here
        os.close(results)
        os.close(sink)
        return {r.name: r for r in _claimed_reports(queue, n_max)}
    if pid == 0:
        _worker(queue, results, sink, n_max)
    os.close(sink)
    try:
        with os.fdopen(results, "rb") as stream:
            reports = {r.name: r for r in _claimed_reports(queue, n_max)}
            while True:
                try:
                    record = marshal.load(stream)
                except EOFError:
                    break
                if isinstance(record, str):
                    raise RuntimeError(
                        f"a suite raised in the worker process:\n{record}"
                    )
                reports[record[0]] = SuiteReport(*record)
    finally:
        # if this share raised, take the suites still queued so the worker
        # stops after its current one; it cannot block on the closed stream
        while os.read(queue, len(QUEUE_ORDER)):
            pass
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    unreported = [s for s in SUITE_NAMES if s not in reports]
    if unreported or status:
        raise RuntimeError(
            f"the worker process exited with status {status}; suites it "
            f"claimed and did not report: {', '.join(unreported) or 'none'}"
        )
    return reports


def _worker(queue: int, results: int, sink: int, n_max: int | None) -> NoReturn:
    """The forked worker: send (name, checks, failures) for each suite it
    claims, or the traceback of one that raises.  It ends with os._exit
    whatever happens, so it never returns into the caller's stack and runs
    no exit handler of the parent's."""
    code = 1
    try:
        os.close(results)
        stream = os.fdopen(sink, "wb")
        try:
            for report in _claimed_reports(queue, n_max):
                _send(stream, (report.name, report.checks, report.failures))
            code = 0
        except Exception:
            import traceback  # only a failing worker needs it

            _send(stream, traceback.format_exc())
    finally:
        os._exit(code)


def _send(stream, record) -> None:
    # flushed at once: os._exit flushes no buffer
    marshal.dump(record, stream)
    stream.flush()
