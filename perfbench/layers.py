"""Traced in-process run: per-layer timings and work counts.

The commands are re-run in this process through each module's public
functions, the way ``dualtoeplitz.cli`` calls them, with a span around every
call into a layer.  Spans are kept in memory and written as JSON lines when
the run ends.  Counts are computed here from the returned objects, so they
repeat exactly for a seed.  Layers below these (algebra, matrix, identities)
are reached only through them; their own counts need tracing inside the
program.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import defaultdict

from dualtoeplitz import (
    HermitianForm,
    build_basis,
    classify,
    cli,
    commutator_matrix,
    commutator_range_gram,
    format_element,
    format_rational,
    format_scalar,
    is_antisymmetric,
    numeric_certificate,
    parse_symbol,
    psd_test,
    rank,
    run_suite,
    selfcomm_form_matrix,
)
from dualtoeplitz.classify import NotNormalCertificate

import checks

SUITES = checks.SUITES
# span name -> metric name
TIMED = {name: f"{name}_s" for name in (
    "symbols.parse", "symbols.format",
    "engine.basis", "engine.selfcomm_form", "engine.commutator", "engine.range_gram",
    "linalg.psd", "linalg.rank",
    "classify.rule", "classify.certificate",
)} | {f"verify.suite.{name}": f"verify.suite_s.{name}" for name in SUITES}
LAYERS = ("symbols", "engine", "linalg", "classify", "verify", "cli")
COUNTS = (
    "engine.entries", "engine.nonzero", "engine.nonzero_frac", "engine.blocks", "engine.block_max",
    "linalg.order_sum", "linalg.rank_sum", "linalg.entry_bits_max",
    "classify.orders_searched", "verify.checks",
)


_UNTRACED = contextlib.nullcontext()


class Tracer:
    """Spans (name, start, end, parent, command id), kept in memory."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.command = -1

    def span(self, name: str):
        return self._record(name) if self.enabled else _UNTRACED

    @contextlib.contextmanager
    def _record(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "command": self.command}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_times(self, spans: list[dict]) -> dict[str, float]:
        """Duration minus the part covered by child spans, summed by span name."""
        out: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for rec in spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        for idx, rec in enumerate(spans):
            out[rec["name"]] += rec["end"] - rec["start"] - child[idx]
        return out


class Counts:
    """Deterministic work counts over the matrices a pass assembled and eliminated."""

    def __init__(self):
        self.values = dict.fromkeys(COUNTS, 0)
        self._largest = 0

    def assembled(self, m) -> None:
        size = m.rows * m.cols
        nonzero = sum(1 for row in m.data for c in row if not c.is_zero)
        self.values["engine.entries"] += size
        self.values["engine.nonzero"] += nonzero
        if size > self._largest:
            self._largest = size
            blocks = components(m)
            self.values["engine.blocks"] = len(blocks)
            self.values["engine.block_max"] = max(blocks, default=0)

    def eliminated(self, m, r: int | None) -> None:
        v = self.values
        v["linalg.order_sum"] += m.rows
        if r is not None:
            v["linalg.rank_sum"] += r
        bits = max((max(abs(c.num_re).bit_length(), abs(c.num_im).bit_length(), c.den.bit_length())
                    for row in m.data for c in row), default=0)
        v["linalg.entry_bits_max"] = max(v["linalg.entry_bits_max"], bits)

    def matrices(self, eliminated: list) -> None:
        seen = set()
        for m, r in eliminated:
            self.eliminated(m, r)
            if id(m) not in seen:
                seen.add(id(m))
                self.assembled(m)

    def finish(self) -> dict:
        v = dict(self.values)
        v["engine.nonzero_frac"] = v["engine.nonzero"] / v["engine.entries"] if v["engine.entries"] else 0.0
        return v


def unit(metric: str) -> str:
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if metric == "cli.stdout_bytes":
        return "bytes"
    return "ratio" if metric.endswith("_frac") else "count"


def components(m) -> list[int]:
    """Sizes of the connected components of the nonzero pattern; indices
    whose row and column are both zero belong to none."""
    parent = list(range(m.rows))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    touched = set()
    for i, row in enumerate(m.data):
        for j, c in enumerate(row):
            if not c.is_zero:
                touched.update((i, j))
                parent[find(i)] = find(j)
    sizes: dict[int, int] = defaultdict(int)
    for i in touched:
        sizes[find(i)] += 1
    return sorted(sizes.values(), reverse=True)


def _argument(cmd, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def _format_matrix(m) -> None:
    for row in m.data:
        for c in row:
            format_scalar(c)


def traced_command(cmd, tr: Tracer, counts: Counts) -> tuple[dict, list]:
    """Run one command's work through the public functions.  Returns its
    facts and the (matrix, rank or None) pairs it eliminated, which
    Counts.matrices tallies outside the timed region."""
    span = tr.span
    eliminated = []
    if cmd.kind == "verify":
        reports = []
        for name in SUITES:
            with span(f"verify.suite.{name}"):
                reports.append(run_suite(name))
        counts.values["verify.checks"] += sum(r.checks for r in reports)
        return {"passed": all(r.passed for r in reports)}, eliminated
    with span("symbols.parse"):
        phi = parse_symbol(_argument(cmd, "--symbol"))
        psi = parse_symbol(_argument(cmd, "--symbol2")) if cmd.psi else None
    if cmd.kind == "classify":
        with span("classify.rule"):
            verdict = classify(phi, cmd.order)
        cert = verdict.certificate
        if cert is None:
            with span("classify.certificate"):
                cert = numeric_certificate(phi, cmd.order)
        counts.values["classify.orders_searched"] += cert.order
        fields = {"kind": "zero-through-order", "order": cert.order, "value": None, "entry": None}
        with span("symbols.format"):
            format_element(phi)
            if isinstance(cert, NotNormalCertificate):
                fields.update(kind="not-normal", value=format_rational(cert.value), entry=list(cert.entry))
                format_element(cert.witness)
                for _, c in cert.witness.terms():
                    format_scalar(c)
        return {"status": verdict.status.value, "rule": verdict.rule, "certificate": fields}, eliminated
    if cmd.kind in ("rank", "rank2"):
        table = []
        for order in range(1, cmd.order + 1):
            if cmd.kind == "rank":
                with span("engine.selfcomm_form"):
                    a = selfcomm_form_matrix(phi, order)
                with span("linalg.rank"):
                    row = {"N": order, "rank": rank(a)}
                eliminated.append((a, row["rank"]))
            else:
                with span("engine.commutator"):
                    b = commutator_matrix(phi, psi, order)
                with span("linalg.rank"):
                    r = rank(b)
                with span("engine.range_gram"):
                    g = commutator_range_gram(phi, psi, order)
                with span("linalg.rank"):
                    row = {"N": order, "rank": r, "gram_rank": rank(g)}
                eliminated += [(b, r), (g, row["gram_rank"])]
            table.append(row)
        facts = {"table": table}
    else:
        with span("engine.basis"):
            basis = build_basis(cmd.order)
        if cmd.kind == "selfcomm":
            with span("engine.selfcomm_form"):
                a = selfcomm_form_matrix(phi, cmd.order)
            with span("linalg.psd"):
                outcome = psd_test(HermitianForm(a))
            with span("linalg.rank"):
                r = rank(a)
            with span("symbols.format"):
                _format_matrix(a)
                if not outcome.is_psd:
                    for c in outcome.witness:
                        format_scalar(c)
                    value = format_rational(outcome.value)
            eliminated += [(a, None), (a, r)]
            facts = {"rank": r, "psd_value": None if outcome.is_psd else value, "is_psd": outcome.is_psd}
        else:
            with span("engine.commutator"):
                a = commutator_matrix(phi, psi, cmd.order)
            with span("linalg.rank"):
                r = rank(a)
            with span("linalg.antisymmetric"):
                is_antisymmetric(a.permute_rows(basis.swap))
            with span("engine.range_gram"):
                g = commutator_range_gram(phi, psi, cmd.order)
            with span("linalg.rank"):
                gram_rank = rank(g)
            with span("symbols.format"):
                _format_matrix(a)
            eliminated += [(a, r), (g, gram_rank)]
            facts = {"rank": r, "gram_rank": gram_rank}
    return facts, eliminated


def in_process(cmd) -> tuple[float, int, bytes]:
    """cli.main in this process, untraced: seconds, exit code, stdout bytes."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(cmd.argv))
    return time.perf_counter() - start, code, out.getvalue().encode()


def run_traced(cmds, seconds: float, fresh, check, trace_path) -> tuple[dict, int, int, list[str]]:
    """Rounds until the time is used, at least one.  Each command runs four
    ways, one after the other: in a fresh process, through ``cli.main`` in
    this process, through the harness untraced, and through the harness
    traced.  Returns the per-round medians, attempted, failed and notes."""
    deadline = time.perf_counter() + seconds
    tr = Tracer()
    untraced = Tracer(enabled=False)
    rounds: list[dict] = []
    attempted = failed = 0
    first_out: dict[int, bytes] = {}
    problems: dict[int, list[str]] = {}
    while True:
        t0 = time.perf_counter()
        fresh_total = main_total = bare_total = traced_total = 0.0
        stdout_bytes = 0
        counts = Counts()
        first_span = len(tr.spans)
        for k, cmd in enumerate(cmds):
            dt, code, out = fresh(cmd)
            fresh_total += dt
            if k not in first_out:
                first_out[k] = out
                problems[k] = check(cmd, out, code)
            dt, code_main, out_main = in_process(cmd)
            main_total += dt
            stdout_bytes += len(out_main)
            start = time.perf_counter()
            traced_command(cmd, untraced, Counts())
            bare_total += time.perf_counter() - start
            tr.command = len(rounds) * len(cmds) + k
            start = time.perf_counter()
            facts, eliminated = traced_command(cmd, tr, counts)
            traced_total += time.perf_counter() - start
            counts.matrices(eliminated)
            try:
                want = checks.facts(cmd, json.loads(first_out[k]))
            except (ValueError, KeyError, TypeError):
                want = None
            attempted += 3
            failed += bool(problems[k] or out != first_out[k] or code != 0)
            failed += bool(code_main != 0 or out_main != first_out[k])
            failed += facts != want
        selfs = tr.self_times(tr.spans[first_span:])
        metrics = {metric: selfs.get(name, 0.0) for name, metric in TIMED.items()}
        by_layer = defaultdict(float)
        for name, secs in selfs.items():
            by_layer[name.split(".")[0]] += secs
        # the command line's own work: argument parsing, building and writing JSON
        by_layer["cli"] = main_total - bare_total
        metrics.update({f"{layer}.self_s": by_layer[layer] for layer in LAYERS})
        metrics.update(counts.finish())
        metrics["cli.stdout_bytes"] = stdout_bytes
        metrics["cli.main_s"] = main_total
        metrics["process.spawn_s"] = fresh_total - main_total
        metrics["trace.traced_s"] = traced_total
        metrics["trace.overhead_s"] = traced_total - bare_total
        rounds.append(metrics)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    with open(trace_path, "w", encoding="utf-8") as handle:
        for rec in tr.spans:
            handle.write(json.dumps(rec, sort_keys=True) + "\n")
    merged = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    notes = [f"traced rounds: {len(rounds)}; spans written to {trace_path}"]
    total = merged["trace.traced_s"]
    shares = sorted(((merged[m] / total, m) for m in TIMED.values()), reverse=True)
    notes.append("share of traced time: " + ", ".join(f"{m} {100 * x:.1f}%" for x, m in shares if x >= 0.005))
    for k, p in problems.items():
        if p:
            notes.append(f"FAILED {cmds[k].text}: {'; '.join(p)}")
    return merged, attempted, failed, notes
