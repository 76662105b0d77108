"""Output checks for every benchmark command.

Each report is re-derived with the evaluator in ``exact.py`` and, for
truncation orders up to ORACLE_MAX_ORDER, ranked by the repository's
brute-force oracle (``tests/oracle_rank.py``, imported read-only).  For the
default seed the facts are also compared with values frozen from the seed
commit in ``expected.json``.  A check returns a list of problems; an empty
list means the output is right.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import exact

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracle_rank import bruteforce_rank  # noqa: E402

ORACLE_MAX_ORDER = 8
DEFAULT_SEED = 1
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
SUITES = ("monomial", "two-term", "harmonic", "radial", "commutator-parity")


def _entries(report) -> list[list]:
    return [[exact.parse_scalar(s) for s in row] for row in report["result"]["entries"]]


def _matrix_shape(cmd, report, problems) -> list[list] | None:
    res = report["result"]
    size = cmd.order * cmd.order
    pairs = [[n, m] for n in range(1, cmd.order + 1) for m in range(1, cmd.order + 1)]
    if res["order"] != cmd.order or res["pairs"] != pairs:
        problems.append("basis pairs or order do not match the request")
        return None
    a = _entries(report)
    if len(a) != size or any(len(row) != size for row in a):
        problems.append("matrix is not %dx%d" % (size, size))
        return None
    return a


def _check_selfcomm(cmd, report, problems) -> None:
    a = _matrix_shape(cmd, report, problems)
    if a is None:
        return
    diag = report["diagnostics"]
    size = len(a)
    if any(a[i][j] != exact.conj(a[j][i]) for i in range(size) for j in range(i, size)):
        problems.append("form matrix is not Hermitian")
    phi = dict(cmd.phi)
    psd = diag["psd"]
    if psd["is_psd"]:
        # a self-commutator form has trace zero, so PSD means identically zero
        if any(c != exact.ZERO for row in a for c in row) or psd["rank"] != 0:
            problems.append("PSD verdict on a nonzero trace-free form")
    else:
        c = [exact.parse_scalar(s) for s in psd["witness"]]
        value = Fraction(psd["value"])
        if len(c) != size:
            problems.append("PSD witness has the wrong length")
        elif exact.form_value(a, c) != (value, 0) or value >= 0:
            problems.append("PSD witness: c*Ac is not the reported negative value")
        elif exact.q_value(phi, exact.combine(c, cmd.order)) != value:
            problems.append("PSD witness: q(phi, w) disagrees with the reported value")
    if cmd.order <= ORACLE_MAX_ORDER:
        if a != exact.selfcomm_matrix(phi, cmd.order):
            problems.append("form entries differ from the exact evaluator")
        if diag["rank"] != bruteforce_rank(a):
            problems.append("rank differs from the brute-force oracle")


def _check_commutator(cmd, report, problems) -> None:
    b = _matrix_shape(cmd, report, problems)
    if b is None:
        return
    diag = report["diagnostics"]
    n = cmd.order
    swap = [(m - 1) * n + (k - 1) for k in range(1, n + 1) for m in range(1, n + 1)]
    size = len(b)
    anti = all(b[swap[i]][j] == exact.neg(b[swap[j]][i])
               for i in range(size) for j in range(size))
    if diag["swap_antisymmetric"] is not True or not anti:
        problems.append("swap-permuted commutator matrix is not antisymmetric")
    if diag["rank"] % 2 or diag["rank_even"] is not True:
        problems.append("commutator rank is not even")
    if n <= ORACLE_MAX_ORDER:
        phi, psi = dict(cmd.phi), dict(cmd.psi)
        if b != exact.commutator_matrix(phi, psi, n):
            problems.append("commutator entries differ from the exact evaluator")
        if diag["rank"] != bruteforce_rank(b):
            problems.append("rank differs from the brute-force oracle")
        if diag["gram_rank"] != bruteforce_rank(exact.range_gram(phi, psi, n)):
            problems.append("range-Gram rank differs from the brute-force oracle")


def _check_rank(cmd, report, problems) -> None:
    table = report["result"]["table"]
    if [row["N"] for row in table] != list(range(1, cmd.order + 1)):
        problems.append("rank table does not list orders 1..N_max")
        return
    phi = dict(cmd.phi)
    for row in table:
        order = row["N"]
        if order > ORACLE_MAX_ORDER:
            continue
        if cmd.kind == "rank":
            if row["rank"] != bruteforce_rank(exact.selfcomm_matrix(phi, order)):
                problems.append(f"selfcomm rank at N={order} differs from the oracle")
            continue
        psi = dict(cmd.psi)
        if row["rank"] != bruteforce_rank(exact.commutator_matrix(phi, psi, order)):
            problems.append(f"commutator rank at N={order} differs from the oracle")
        if row["gram_rank"] != bruteforce_rank(exact.range_gram(phi, psi, order)):
            problems.append(f"range-Gram rank at N={order} differs from the oracle")


def _is_zero(matrix) -> bool:
    return all(c == exact.ZERO for row in matrix for c in row)


def _check_classify(cmd, report, problems) -> None:
    res = report["result"]
    if res["status"] != cmd.expect:
        problems.append(f"verdict {res['status']}, but the symbol was drawn as {cmd.expect}")
        return
    cert = res["certificate"]
    phi = dict(cmd.phi)
    zero_expected = cmd.expect == "Normal" or cmd.family == "radial-sum-real"
    if zero_expected:
        if cert != {"kind": "zero-through-order", "order": cmd.order}:
            problems.append("expected a zero-through-order certificate at the order limit")
        elif not _is_zero(exact.selfcomm_matrix(phi, cmd.order)):
            problems.append("zero-matrix certificate, but the form matrix is nonzero")
        return
    if cert is None or cert["kind"] != "not-normal":
        problems.append("expected a not-normal certificate with a witness")
        return
    order = cert["order"]
    value = Fraction(cert["value"])
    witness = {(n, m): exact.parse_scalar(s) for n, m, s in cert["witness"]["terms"]}
    if value >= 0 or exact.q_value(phi, witness) != value:
        problems.append("witness value q = |S w|^2 - |S* w|^2 is not the reported negative value")
    if not 1 <= order <= cmd.order:
        problems.append("certificate order outside 1..N_max")
        return
    a = exact.selfcomm_matrix(phi, order)
    i, j = cert["entry"]
    pairs = [list(p) for p, _ in exact.basis(order)]
    if a[i][j] == exact.ZERO or cert["entry_pairs"] != [pairs[i], pairs[j]]:
        problems.append("certificate entry is not a nonzero entry of the form matrix")
    if order > 1 and not _is_zero(exact.selfcomm_matrix(phi, order - 1)):
        problems.append("certificate order is not the first order with a nonzero form")


def _check_verify(cmd, report, problems) -> None:
    res = report["result"]
    names = [s["name"] for s in res["suites"]]
    if names != list(SUITES) or res["passed"] is not True:
        problems.append("verification suites missing or not all passed")
        return
    for suite in res["suites"]:
        if suite["passed"] is not True or suite["failures"]:
            problems.append(f"suite {suite['name']} failed")
    counts = {s["name"]: s["checks"] for s in res["suites"]}
    if counts != expected()["verify_checks"]:
        problems.append(f"suite check counts {counts} differ from the frozen counts")


_CHECKS = {
    "selfcomm": _check_selfcomm,
    "commutator": _check_commutator,
    "rank": _check_rank,
    "rank2": _check_rank,
    "classify": _check_classify,
    "verify": _check_verify,
}


def facts(cmd, report) -> dict:
    """The values frozen for the default seed: ranks, verdicts, certificates."""
    res, diag = report["result"], report["diagnostics"]
    if cmd.kind == "selfcomm":
        psd = diag["psd"]
        return {"rank": diag["rank"], "psd_value": psd.get("value"), "is_psd": psd["is_psd"]}
    if cmd.kind == "commutator":
        return {"rank": diag["rank"], "gram_rank": diag["gram_rank"]}
    if cmd.kind in ("rank", "rank2"):
        return {"table": res["table"]}
    if cmd.kind == "classify":
        cert = res["certificate"] or {}
        return {"status": res["status"], "rule": res["rule"], "certificate":
                {k: cert.get(k) for k in ("kind", "order", "value", "entry")}}
    return {"passed": res["passed"]}


@functools.cache
def expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def check_output(cmd, stdout: bytes, code: int, backend: str, workload: str, seed: int) -> list[str]:
    """Problems with one command's output; empty when it is right."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not a JSON report"]
    problems: list[str] = []
    if report.get("command") != cmd.argv[0]:
        problems.append("report names the wrong command")
    if report.get("diagnostics", {}).get("backend") != backend:
        problems.append("report backend differs from the run's backend")
    try:
        _CHECKS[cmd.kind](cmd, report, problems)
        if seed == DEFAULT_SEED:
            frozen = expected()["commands"][workload].get(cmd.text)
            if frozen is None:
                problems.append("no frozen values for this default-seed command")
            elif facts(cmd, report) != frozen:
                problems.append("facts differ from the values frozen at the seed commit")
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError, StopIteration) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
