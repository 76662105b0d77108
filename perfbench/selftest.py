"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Real reports from the package must pass; the same reports with a tampered
witness, rank, verdict or check count must fail, and a tampered command
must be counted as failed by the measuring loop.  Seed 7 has no frozen
values, so every tamper there is caught by the exact evaluator or the
brute-force oracle alone.  Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from layers import in_process  # noqa: E402
from workloads import generate  # noqa: E402


def _double(text: str) -> str:
    value = Fraction(text) * 2
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _bump_first_nonzero(coords: list) -> None:
    k = next(i for i, c in enumerate(coords) if c != "0")
    coords[k] = "1/7" if coords[k] != "1/7" else "2/7"


def _bump(row: dict, key: str, by: int) -> None:
    row[key] += by


def _set(path, fn):
    def tamper(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
    return tamper


TAMPERS = {
    "selfcomm": {
        "PSD witness value": _set(("diagnostics", "psd", "value"), _double),
        "PSD witness vector": lambda r: _bump_first_nonzero(r["diagnostics"]["psd"]["witness"]),
        "rank": _set(("diagnostics", "rank"), lambda r: r + 1),
        "matrix entry": lambda r: r["result"]["entries"][0].__setitem__(1, "1/3"),
    },
    "commutator": {
        "rank": _set(("diagnostics", "rank"), lambda r: r + 2),
        "range-Gram rank": _set(("diagnostics", "gram_rank"), lambda r: r - 2),
    },
    "rank": {"rank table": lambda r: _bump(r["result"]["table"][3], "rank", 1)},
    "rank2": {"range-Gram rank table": lambda r: _bump(r["result"]["table"][2], "gram_rank", 2)},
    "classify": {
        "witness value": _set(("result", "certificate", "value"), _double),
        "witness element": lambda r: r["result"]["certificate"]["witness"]["terms"][0].__setitem__(2, "5"),
        "verdict": _set(("result", "status"), lambda s: "Normal"),
    },
    "verify": {"check count": lambda r: _bump(r["result"]["suites"][1], "checks", -1)},
}


def _cases():
    """One command of each kind, plus the NotHyponormal classify (it has a witness)."""
    seen = set()
    for workload in ("sparse-elim", "certify"):
        for cmd in generate(workload, 7):
            large = cmd.kind != "classify" and cmd.order > 6
            if cmd.kind in seen or large or (cmd.kind == "classify" and cmd.expect != "NotHyponormal"):
                continue
            seen.add(cmd.kind)
            yield workload, cmd


def main() -> int:
    failures = []
    for workload, cmd in _cases():
        _, code, out = in_process(cmd)
        clean = checks.check_output(cmd, out, code, "python", workload, 7)
        if clean:
            failures.append(f"{cmd.text}: real output rejected: {clean}")
        for label, tamper in TAMPERS[cmd.kind].items():
            report = json.loads(out)
            tamper(report)
            found = checks.check_output(cmd, json.dumps(report).encode(), 0, "python", workload, 7)
            status = "caught" if found else "MISSED"
            print(f"{status:6s} tampered {label:20s} in {cmd.kind}: {found[:1]}")
            if not found:
                failures.append(f"{cmd.text}: tampered {label} was not caught")

    # the measuring loop counts a tampered command as failed, in every pass
    cmds = [c for c in generate("sparse-elim", 7) if c.order == 4]
    cmds[-1] = replace(cmds[-1], top=True)
    victim = cmds[0]

    def fake_fresh(argv, env):
        if argv == ["--help"]:
            return 0.1, 0, b"usage: dualtoeplitz"
        cmd = next(c for c in cmds if list(c.argv) == list(argv))
        dt, code, out = in_process(cmd)
        if cmd is victim:
            report = json.loads(out)
            TAMPERS["selfcomm"]["rank"](report)
            out = json.dumps(report).encode()
        return dt, code, out

    run.fresh = fake_fresh

    def check(cmd, out, code):
        return checks.check_output(cmd, out, code, "python", "sparse-elim", 7)

    metrics, attempted, failed, _ = run.measure(cmds, 0.0, None, check)
    passes = attempted // len(cmds)
    print(f"measuring loop: attempted {attempted}, failed {failed}, ok_frac {metrics['ok_frac']:.3f}")
    if failed != passes or metrics["ok_frac"] >= 1:
        failures.append("measuring loop did not count the tampered command as failed")
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
