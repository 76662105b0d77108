"""The verification suites: every check still runs, and every one passes."""

from dualtoeplitz.verify import SUITE_NAMES, run_suites

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
