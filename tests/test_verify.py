"""The verification suites: every check still runs, and every one passes."""

import os

import pytest

from dualtoeplitz import SUITE_MIN_BOUND, verify
from dualtoeplitz.engine import CommutatorAssembly
from dualtoeplitz.verify import SUITE_NAMES, run_suite, run_suites


@pytest.fixture(autouse=True)
def no_process_left():
    # run_suites("all") forks a worker; it must be reaped however the call
    # ends
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("n_max", [8, 10])
def test_monomial_suite_passes_past_order_8(n_max):
    # each unbalanced pair's negative form value is sought in the window
    # max(n, m) + 1 .. max(n, m) + 3 the closed-form checks use; a fixed
    # k <= 8 left the pairs with max(n, m) >= 8 nothing to search
    report = run_suite("monomial", n_max)
    assert report.passed, report.failures


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


def _key(reports):
    return [(r.name, r.checks, r.failures) for r in reports]


def _wrap_suites(monkeypatch, here, worker):
    """After each suite, call here(report) in this process, or worker(report)
    in the forked worker, whichever ran it."""
    pid = os.getpid()
    for name, suite in list(verify._SUITES.items()):
        def run(n_max, suite=suite):
            report = suite(n_max)
            (here if os.getpid() == pid else worker)(report)
            return report

        monkeypatch.setitem(verify._SUITES, name, run)


@pytest.mark.parametrize("n_max", [None, 2, 5, 12])
def test_all_equals_each_suite_in_turn(n_max):
    assert _key(run_suites("all", n_max)) == _key(
        run_suite(name, n_max) for name in SUITE_NAMES
    )


def test_failures_from_both_processes_merge_in_suite_order(monkeypatch):
    def inject(report):
        report.check(False, f"injected into {report.name} in {os.getpid()}")

    want = _key(run_suite(name, 2) for name in SUITE_NAMES)
    _wrap_suites(monkeypatch, here=inject, worker=inject)
    reports = run_suites("all", 2)
    ran_in = {}
    for (name, checks, failures), report in zip(want, reports):
        assert report.name == name and report.checks == checks + 1
        assert report.failures[:-1] == failures
        injected, pid = report.failures[-1].rsplit(" in ", 1)
        assert injected == f"injected into {name}"
        ran_in[name] = int(pid)
    assert len(reports) == len(SUITE_NAMES)
    # two-term here, and every worker suite in one other process
    assert ran_in.pop("two-term") == os.getpid()
    assert sorted(ran_in) == sorted(verify.WORKER_SUITES)
    worker_pids = set(ran_in.values())
    assert len(worker_pids) == 1 and os.getpid() not in worker_pids


def test_a_suite_that_raises_in_the_worker_raises_here(monkeypatch):
    def fail(report):
        raise ValueError("a worker suite broke")

    _wrap_suites(monkeypatch, here=lambda report: None, worker=fail)
    with pytest.raises(RuntimeError, match="ValueError: a worker suite broke"):
        run_suites("all", 2)


def test_a_worker_that_dies_names_the_suites_it_did_not_report(monkeypatch):
    ran_here = []
    _wrap_suites(
        monkeypatch,
        here=lambda report: ran_here.append(report.name),
        worker=lambda report: os._exit(3),
    )
    with pytest.raises(RuntimeError) as info:
        run_suites("all", 2)
    # the worker died in its first suite and reports all of its share
    # together, so every worker suite is unreported
    assert ran_here == ["two-term"]
    assert "status 3" in str(info.value)
    assert str(info.value).endswith(
        f"did not report: {', '.join(verify.WORKER_SUITES)}"
    )


def test_a_suite_that_raises_here_still_reaps_the_worker(monkeypatch):
    def fail(report):
        raise ValueError("a suite broke here")

    _wrap_suites(monkeypatch, here=fail, worker=lambda report: None)
    with pytest.raises(ValueError, match="a suite broke here"):
        run_suites("all", 2)


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _failing_fork(monkeypatch):
    def fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize(
    "break_fork", [_no_fork, _failing_fork], ids=["absent", "failing"]
)
def test_without_fork_every_suite_runs_here_in_order(monkeypatch, break_fork):
    want = _key(run_suites("all", 2))
    ran_here = []
    _wrap_suites(
        monkeypatch,
        here=lambda report: ran_here.append(report.name),
        worker=lambda report: os._exit(3),
    )
    break_fork(monkeypatch)
    assert _key(run_suites("all", 2)) == want
    assert ran_here == list(SUITE_NAMES)


def test_the_worker_runs_every_suite_but_two_term_once():
    worker = verify.WORKER_SUITES
    assert len(set(worker)) == len(worker)
    assert set(worker) == set(SUITE_NAMES) - {"two-term"}
