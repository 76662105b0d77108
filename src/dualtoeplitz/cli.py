"""Deterministic command-line front end.

Subcommands:

- ``classify``       symbolic verdict for a symbol, with exact certificate
- ``matrix``         self-commutator form matrix or commutator restriction
                     matrix at a truncation order, JSON or CSV
- ``rank``           per-order rank table (recorded, never asserted stable)
- ``verify``         run the identity suites; exit 1 on any failure
- ``apply``          act on an element: complement-project symbol * element
- ``inner-product``  exact inner product of two elements

Reports are JSON documents with top-level keys {"command", "inputs",
"result", "diagnostics", "version"}, serialized with sorted keys and
canonical rational strings so identical invocations produce byte-identical
output.  Timing goes to stderr only.  Exit codes: 0 success / all checks
passed, 1 verification failure, 2 usage or parse error, or an ``--out``
file or stdout that cannot be written, 3 an exception inside a command
(its traceback goes to stderr).

``main`` returns the exit code, for callers in the same process, and lets
an exception inside a command propagate.  ``run``, the process entry point,
calls it, flushes the output and ends with
``os._exit``: a command's process has nothing left to do, and interpreter
teardown (clearing the modules, freeing every object, a last collection)
would cost several milliseconds of every command.

A ``matrix`` report holds N^4 entries and N^2 exponent pairs, so those two
arrays bypass the indenting encoder (with ``indent`` set, ``json`` falls back
to its pure-Python encoder).  The document is dumped with a stand-in string
in place of each array, and the array's rows, joined as text in the layout
``json.dumps(..., indent=2)`` gives it, replace the stand-in.  The matrix
stores its nonzero entries only, so each row starts as N^2 copies of the
zero's text and takes the text of its stored entries; the assembled matrix
shares its real mirror entries, so each distinct object is formatted once
and its text found again by identity.  The CSV dump takes the same rows.
``json`` itself loads only when a JSON report is written.

The parser needs only the package's constants, so the arguments are parsed
before any computing module loads, and each command imports what it runs:
``--help`` and a usage error compile none of them, ``rank`` and ``matrix``
skip the classifier, and ``inner-product`` loads only the algebra and the
symbol parser.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
import time
from typing import NoReturn

from . import (
    BACKEND_NAME,
    DEFAULT_ORDER_LIMIT,
    SUITE_MIN_BOUND,
    SUITE_NAMES,
    __version__,
)


class UsageError(Exception):
    """Bad flag combination, out-of-range argument or a symbol argument
    that does not parse (exit code 2)."""


def _symbol(text: str):
    """The element a --symbol or --symbol2 argument names."""
    from .symbols import ParseError, parse_symbol

    try:
        return parse_symbol(text)
    except ParseError as exc:
        raise UsageError(str(exc)) from None


def _element_payload(e) -> dict:
    from .symbols import format_element, format_scalar

    return {
        "text": format_element(e),
        "terms": [[mono.n, mono.m, format_scalar(c)] for mono, c in e.terms()],
    }


def _entry_rows(a, encode) -> list[list[str]]:
    """The matrix's rows as text, encode(format_scalar(c)) per entry.  Each
    row starts as the zero's text and takes the text of its stored entries.
    The assembled matrices share their entry objects (the real mirror
    entries below the diagonal), so each distinct object is formatted once
    and found again by its identity."""
    from .algebra import GR_ZERO
    from .symbols import format_scalar

    zero = encode(format_scalar(GR_ZERO))
    text: dict[int, str] = {}
    out = []
    for row in a.entries:
        line = [zero] * a.cols
        for j, c in row.items():
            t = text.get(id(c))
            if t is None:
                t = text[id(c)] = encode(format_scalar(c))
            line[j] = t
        out.append(line)
    return out


def _certificate_payload(cert) -> dict:
    from .classify import NotNormalCertificate, ZeroMatrixCertificate
    from .symbols import format_rational

    if isinstance(cert, NotNormalCertificate):
        return {
            "kind": "not-normal",
            "order": cert.order,
            "entry": list(cert.entry),
            "entry_pairs": [list(cert.entry_pairs[0]), list(cert.entry_pairs[1])],
            "witness": _element_payload(cert.witness),
            "value": format_rational(cert.value),
        }
    if isinstance(cert, ZeroMatrixCertificate):
        return {"kind": "zero-through-order", "order": cert.order}
    raise TypeError(f"unknown certificate type {type(cert)!r}")


def _document(
    command: str, inputs: dict, result: dict, diagnostics: dict | None = None
) -> str:
    """The report; its diagnostics always name the backend."""
    import json

    doc = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": {"backend": BACKEND_NAME, **(diagnostics or {})},
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Stand-ins for the matrix report's two arrays of N^2 rows, which _splice
# writes in their place.  No symbol that parses holds a control character,
# so neither occurs in the echoed inputs.
_PAIRS = "\x01"
_ENTRIES = "\x00"


def _splice(document: str, mark: str, rows: list[list[str]]) -> str:
    """Write rows of JSON values in place of the document's one string
    ``mark``, laid out as json.dumps(..., indent=2) lays out a list of
    nonempty lists that is a value of "result"."""
    token = '"\\u%04x"' % ord(mark)
    assert document.count(token) == 1, mark
    block = "\n      ],\n      [\n        ".join(
        [",\n        ".join(row) for row in rows]
    )
    return document.replace(token, "[\n      [\n        %s\n      ]\n    ]" % block)


def _cmd_classify(args) -> tuple[str, int]:
    if args.n_max < 1:
        raise UsageError("--N-max must be >= 1")
    from .classify import classify
    from .symbols import format_element

    phi = _symbol(args.symbol)
    verdict = classify(phi, args.n_max)
    result = {
        "status": verdict.status.value,
        "rule": verdict.rule,
        "certificate": _certificate_payload(verdict.certificate),
    }
    inputs = {"symbol": args.symbol, "N_max": args.n_max}
    diagnostics = {"canonical": format_element(phi)}
    return _document("classify", inputs, result, diagnostics), 0


def _psd_payload(a) -> dict:
    from .linalg import psd_test
    from .symbols import format_rational, format_scalar

    outcome = psd_test(a)
    if outcome.is_psd:
        return {"is_psd": True, "rank": outcome.rank}
    return {
        "is_psd": False,
        "witness": [format_scalar(c) for c in outcome.witness],
        "value": format_rational(outcome.value),
    }


def _cmd_matrix(args) -> tuple[str, int]:
    if args.N < 1:
        raise UsageError("--N must be >= 1")
    from .engine import (
        CommutatorAssembly,
        SelfcommAssembly,
        exponent_pairs,
        swap_permutation,
    )
    from .linalg import is_antisymmetric

    phi = _symbol(args.symbol)
    pairs = exponent_pairs(args.N)
    if args.kind == "selfcomm":
        if args.symbol2 is not None:
            raise UsageError("selfcomm takes a single symbol")
        forms = SelfcommAssembly(phi)
        a = forms.matrix(args.N)
        diagnostics = {
            "hermitian": True,
            "psd": _psd_payload(a),
            "rank": forms.rank(args.N),
        }
        inputs = {"kind": args.kind, "symbol": args.symbol, "N": args.N}
    else:
        if args.symbol2 is None:
            raise UsageError("commutator kind needs --symbol2")
        pair = CommutatorAssembly(phi, _symbol(args.symbol2))
        a = pair.pairing(args.N)
        r, gram_rank = pair.ranks(args.N)
        diagnostics = {
            "swap_antisymmetric": is_antisymmetric(
                a.permute_rows(swap_permutation(pairs))
            ),
            "rank": r,
            "rank_even": r % 2 == 0,
            "gram_rank": gram_rank,
        }
        inputs = {
            "kind": args.kind,
            "symbol": args.symbol,
            "symbol2": args.symbol2,
            "N": args.N,
        }
    if args.format == "csv":
        return _matrix_csv(pairs, _entry_rows(a, str)), 0
    return _matrix_json(inputs, diagnostics, args.N, pairs, a), 0


def _matrix_json(inputs: dict, diagnostics: dict, order: int, pairs, a) -> str:
    from json.encoder import encode_basestring_ascii

    result = {"order": order, "pairs": _PAIRS, "entries": _ENTRIES}
    document = _document("matrix", inputs, result, diagnostics)
    document = _splice(document, _PAIRS, [[str(n), str(m)] for n, m in pairs])
    rows = _entry_rows(a, encode_basestring_ascii)
    return _splice(document, _ENTRIES, rows)


def _matrix_csv(pairs, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "m"] + [f"e({n},{m})" for (n, m) in pairs])
    writer.writerows([n, m, *row] for (n, m), row in zip(pairs, rows))
    return buf.getvalue()


def _cmd_rank(args) -> tuple[str, int]:
    if args.n_max < 1:
        raise UsageError("--N-max must be >= 1")
    from .engine import CommutatorAssembly, SelfcommAssembly

    phi = _symbol(args.symbol)
    table = []
    if args.symbol2 is None:
        forms = SelfcommAssembly(phi)
        for order in range(1, args.n_max + 1):
            table.append({"N": order, "rank": forms.rank(order)})
        inputs = {"symbol": args.symbol, "N_max": args.n_max}
    else:
        pair = CommutatorAssembly(phi, _symbol(args.symbol2))
        for order in range(1, args.n_max + 1):
            r, gram_rank = pair.ranks(order)
            table.append({"N": order, "rank": r, "gram_rank": gram_rank})
        inputs = {
            "symbol": args.symbol,
            "symbol2": args.symbol2,
            "N_max": args.n_max,
        }
    return _document("rank", inputs, {"table": table}), 0


def _cmd_verify(args) -> tuple[str, int]:
    if args.n_max is not None:
        if args.n_max < 1:
            raise UsageError("--N-max must be >= 1")
        names = SUITE_NAMES if args.suite == "all" else (args.suite,)
        low = max(SUITE_MIN_BOUND.get(name, 1) for name in names)
        if args.n_max < low:
            # a suite would pass with none of its grid checked, or fail
            # for want of an order at which its forms can show a witness
            raise UsageError(
                f"--N-max must be >= {low} for --suite {args.suite}: "
                "a smaller bound cannot check its grid"
            )
    from .verify import run_suites

    reports = run_suites(args.suite, args.n_max)
    result = {
        "suites": [
            {
                "name": rep.name,
                "checks": rep.checks,
                "failures": rep.failures,
                "passed": rep.passed,
            }
            for rep in reports
        ],
        "passed": all(rep.passed for rep in reports),
    }
    inputs = {"suite": args.suite, "N_max": args.n_max}
    code = 0 if result["passed"] else 1
    return _document("verify", inputs, result), code


def _cmd_apply(args) -> tuple[str, int]:
    from .engine import apply

    phi = _symbol(args.symbol)
    f = _symbol(args.symbol2)
    result = {"element": _element_payload(apply(phi, f))}
    inputs = {"symbol": args.symbol, "symbol2": args.symbol2}
    return _document("apply", inputs, result), 0


def _cmd_inner_product(args) -> tuple[str, int]:
    from .algebra import inner_product
    from .symbols import format_scalar

    f = _symbol(args.symbol)
    g = _symbol(args.symbol2)
    result = {"value": format_scalar(inner_product(f, g))}
    inputs = {"symbol": args.symbol, "symbol2": args.symbol2}
    return _document("inner-product", inputs, result), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualtoeplitz",
        description="Exact computations with dual Toeplitz operators on the "
        "orthogonal complement of the harmonic Bergman space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="symbolic normality verdict")
    p.add_argument("--symbol", required=True)
    p.add_argument("--N-max", dest="n_max", type=int, default=DEFAULT_ORDER_LIMIT)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("matrix", help="form or commutator matrix dump")
    p.add_argument("kind", choices=("selfcomm", "commutator"))
    p.add_argument("--symbol", required=True)
    p.add_argument("--symbol2")
    p.add_argument("--N", type=int, default=5)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("rank", help="rank per truncation order")
    p.add_argument("--symbol", required=True)
    p.add_argument("--symbol2")
    p.add_argument("--N-max", dest="n_max", type=int, default=5)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument(
        "--suite", choices=SUITE_NAMES + ("all",), default="all"
    )
    p.add_argument("--N-max", dest="n_max", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("apply", help="complement-project symbol * element")
    p.add_argument("--symbol", required=True)
    p.add_argument("--symbol2", required=True, help="element acted on")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("inner-product", help="exact inner product")
    p.add_argument("--symbol", required=True)
    p.add_argument("--symbol2", required=True)
    p.set_defaults(func=_cmd_inner_product)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="write the report to this file")
    return parser


def main(argv=None) -> int:
    if sys.stderr is None:
        # started with fd 2 closed: print(file=None) and argparse's usage
        # would write to stdout, which carries the report alone
        sys.stderr = open(os.devnull, "w")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        payload, code = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        try:
            if sys.stdout is None:  # started with fd 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(payload)
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
            return 2
    print(f"timing: {args.command} took {elapsed:.3f}s", file=sys.stderr)
    return code


def run(argv=None) -> NoReturn:
    """The process entry point: main's code as the exit status, without
    interpreter teardown.  main flushes its report, so only argparse's
    output (--help, usage errors) can still be buffered, and a flush that
    fails exits 2 as a failed report write does.  An exception from a
    command prints its traceback and exits 3, so that a crash does not read
    as a failed check (exit 1)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        code = exc.code
        try:
            if sys.stdout is not None:  # None if started with stdout closed
                sys.stdout.flush()
        except OSError as err:
            print(f"error: cannot write stdout: {err.strerror}", file=sys.stderr)
            code = 2
    except Exception:
        import traceback  # only a crash needs it

        traceback.print_exc()
        code = 3
    if sys.stderr is not None:  # None if started with stderr closed
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
