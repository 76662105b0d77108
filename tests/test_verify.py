"""The verification suites: every check still runs, and every one passes."""

import pytest

from dualtoeplitz import SUITE_MIN_BOUND
from dualtoeplitz.engine import CommutatorAssembly
from dualtoeplitz.verify import SUITE_NAMES, run_suite, run_suites

# checks per suite at the default bounds; a change that drops a check (a
# faster kernel that skips work, a trimmed grid) must show up here
SUITE_CHECKS = {
    "monomial": 234,
    "two-term": 260,
    "harmonic": 24,
    "radial": 60,
    "commutator-parity": 123,
}


def test_all_suites_pass_with_pinned_check_counts():
    reports = run_suites("all")
    assert [r.name for r in reports] == list(SUITE_NAMES)
    assert {r.name: r.checks for r in reports} == SUITE_CHECKS
    assert sum(r.checks for r in reports) == 701
    for report in reports:
        assert report.passed, report.failures


# checks that do not depend on the bound: the commutator suite's adjoint
# identities
UNBOUNDED_CHECKS = {"radial": 0, "commutator-parity": 3}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_min_bound_is_where_the_grid_starts(name):
    # the command line refuses a bound below SUITE_MIN_BOUND without loading
    # the suites, so the table must say where each grid really starts: the
    # suite passes at its lowest accepted bound, and one below it checks none
    # of its grid (radial, commutator-parity) or cannot pass, since every form
    # is zero at order 1 (two-term, harmonic)
    low = SUITE_MIN_BOUND.get(name, 1)
    report = run_suite(name, low)
    assert report.passed and report.checks > UNBOUNDED_CHECKS.get(name, 0)
    if low > 1:
        below = run_suite(name, low - 1)
        if name in UNBOUNDED_CHECKS:
            assert below.checks == UNBOUNDED_CHECKS[name]
        else:
            assert not below.passed


@pytest.mark.parametrize(
    "wrong",
    [lambda r, g: (r + 2, g), lambda r, g: (r, g + 1)],
    ids=["pairing-rank", "gram-rank"],
)
def test_commutator_suite_checks_the_reported_ranks(monkeypatch, wrong):
    # `rank --symbol2` and `matrix commutator` print CommutatorAssembly.ranks,
    # so a wrong rank there must fail the suite with every check still run
    reported = CommutatorAssembly.ranks
    monkeypatch.setattr(
        CommutatorAssembly, "ranks", lambda self, order: wrong(*reported(self, order))
    )
    report = run_suite("commutator-parity")
    assert report.checks == SUITE_CHECKS["commutator-parity"]
    assert not report.passed
