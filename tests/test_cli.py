"""Command-line front end: JSON shape, determinism, exit codes, CSV dumps."""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualtoeplitz
import dualtoeplitz.cli as cli
from dualtoeplitz import (
    BACKEND_NAME,
    Element,
    ExactMatrix,
    GaussianRational,
    SelfcommAssembly,
    SuiteReport,
    apply,
    format_element,
    format_scalar,
    parse_symbol,
)

EXPECTED_TOP_KEYS = {"command", "inputs", "result", "diagnostics", "version"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestClassifyCommand:
    def test_normal_with_zero_matrix_evidence(self, capsys):
        doc = run_json(capsys, "classify", "--symbol", "z^2 zb + z zb^2")
        assert set(doc) == EXPECTED_TOP_KEYS
        assert doc["command"] == "classify"
        assert doc["result"]["status"] == "Normal"
        assert doc["result"]["rule"] == "conjugate-pair-balanced"
        cert = doc["result"]["certificate"]
        assert cert == {"kind": "zero-through-order", "order": 8}
        assert doc["inputs"] == {"N_max": 8, "symbol": "z^2 zb + z zb^2"}
        assert doc["diagnostics"]["canonical"] == "z zb^2 + z^2 zb"
        assert doc["diagnostics"]["backend"] == BACKEND_NAME == "python"

    def test_not_hyponormal_certificate(self, capsys):
        doc = run_json(capsys, "classify", "--symbol", "z^2 zb")
        result = doc["result"]
        assert result["status"] == "NotHyponormal"
        assert result["rule"] == "unbalanced-monomial"
        cert = result["certificate"]
        assert cert["kind"] == "not-normal"
        assert cert["value"].startswith("-")
        assert cert["order"] >= 1
        assert len(cert["entry"]) == 2 and len(cert["entry_pairs"]) == 2
        assert cert["witness"]["terms"]
        # the witness text reparses to the element with those terms
        witness = parse_symbol(cert["witness"]["text"])
        assert [[n, m] for (n, m), _ in witness.terms()] == [
            t[:2] for t in cert["witness"]["terms"]
        ]

    def test_order_limit_flag(self, capsys):
        doc = run_json(capsys, "classify", "--symbol", "z zb + z^2 zb^2", "--N-max", "3")
        assert doc["result"]["certificate"]["order"] == 3

    def test_rejects_bad_order_limit(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--symbol", "z", "--N-max", "0")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--symbol", "z +")
        assert code == 2
        assert out == ""
        assert "error:" in err and "position" in err

    def test_byte_determinism(self, capsys):
        args = ("classify", "--symbol", "z^2 zb + (0+1i) z zb^2", "--N-max", "4")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_timing_goes_to_stderr_only(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--symbol", "z zb")
        assert code == 0
        assert "timing:" in err
        assert "timing:" not in out

    def test_leading_minus_symbol(self, capsys):
        # argparse takes a separate "-z" for an option, so the value is
        # joined to its flag with "="
        doc = run_json(capsys, "classify", "--symbol=-z")
        assert doc["result"]["rule"] == "unbalanced-monomial"
        assert doc["diagnostics"]["canonical"] == "-1 z"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--symbol", "z zb"),
        ("matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "2"),
        ("matrix", "commutator", "--symbol", "z", "--symbol2", "zb", "--N", "2"),
        ("rank", "--symbol", "z^2 zb", "--N-max", "2"),
        ("verify", "--suite", "radial"),
        ("apply", "--symbol", "z zb", "--symbol2", "z^2 zb"),
        ("inner-product", "--symbol", "z", "--symbol2", "z"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_every_report_names_the_backend(capsys, argv):
    assert run_json(capsys, *argv)["diagnostics"]["backend"] == BACKEND_NAME


class TestMatrixCommand:
    def test_selfcomm_zero_matrix(self, capsys):
        doc = run_json(
            capsys, "matrix", "selfcomm", "--symbol", "z zb", "--N", "2"
        )
        result = doc["result"]
        assert result["order"] == 2
        assert result["pairs"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert result["entries"] == [["0"] * 4] * 4
        diag = doc["diagnostics"]
        assert diag["hermitian"] is True
        assert diag["rank"] == 0
        assert diag["psd"] == {"is_psd": True, "rank": 0}

    def test_selfcomm_indefinite_carries_witness(self, capsys):
        doc = run_json(
            capsys, "matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "3"
        )
        psd = doc["diagnostics"]["psd"]
        assert psd["is_psd"] is False
        assert psd["value"].startswith("-")
        assert len(psd["witness"]) == 9

    def test_selfcomm_rejects_second_symbol(self, capsys):
        code, out, err = run_cli(
            capsys, "matrix", "selfcomm", "--symbol", "z", "--symbol2", "zb"
        )
        assert code == 2 and "error:" in err

    def test_commutator_requires_second_symbol(self, capsys):
        code, out, err = run_cli(capsys, "matrix", "commutator", "--symbol", "z")
        assert code == 2 and "error:" in err

    def test_commutator_diagnostics(self, capsys):
        doc = run_json(
            capsys,
            "matrix",
            "commutator",
            "--symbol",
            "z",
            "--symbol2",
            "zb",
            "--N",
            "2",
        )
        diag = doc["diagnostics"]
        assert diag["swap_antisymmetric"] is True
        assert diag["rank"] == 2
        assert diag["rank_even"] is True
        assert diag["gram_rank"] == 2
        assert doc["inputs"]["symbol2"] == "zb"
        assert len(doc["result"]["entries"]) == 4

    def test_rejects_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "selfcomm", "--symbol", "z", "--N", "0")
        assert code == 2 and "error:" in err

    def test_csv_layout(self, capsys):
        code, out, err = run_cli(
            capsys,
            "matrix",
            "selfcomm",
            "--symbol",
            "z^2 zb",
            "--N",
            "2",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "m", "e(1,1)", "e(1,2)", "e(2,1)", "e(2,2)"]
        assert len(rows) == 5
        # first two columns are the row's basis exponent pair
        assert [r[:2] for r in rows[1:]] == [
            ["1", "1"],
            ["1", "2"],
            ["2", "1"],
            ["2", "2"],
        ]
        # cells agree with the JSON dump of the same matrix
        doc = run_json(
            capsys, "matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "2"
        )
        assert [r[2:] for r in rows[1:]] == doc["result"]["entries"]

    def test_csv_determinism(self, capsys):
        args = (
            "matrix",
            "commutator",
            "--symbol",
            "z",
            "--symbol2",
            "zb",
            "--N",
            "3",
            "--format",
            "csv",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("mark", [cli._ENTRIES, cli._PAIRS])
    @pytest.mark.parametrize("flag", ["--symbol", "--symbol2"])
    def test_symbol_holding_a_stand_in_is_refused(self, capsys, mark, flag):
        # the report's arrays are spliced in where these strings stand, so
        # no echoed input may hold one; the symbol parser refuses them
        symbols = {"--symbol": "z", "--symbol2": "zb"}
        symbols[flag] += mark
        code, out, err = run_cli(
            capsys, "matrix", "commutator", "--N", "2",
            "--symbol", symbols["--symbol"], "--symbol2", symbols["--symbol2"],
        )
        assert code == 2 and out == "" and "error:" in err

    def test_other_commands_have_no_format_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["classify", "--symbol", "z", "--format", "csv"])
        assert info.value.code == 2


# scalars drawn from a small pool, so that matrices repeat values
_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-2, max_value=2, max_denominator=9),
)
_scalars = st.builds(GaussianRational, _rationals, _rationals)


@st.composite
def _shared_matrices(draw):
    """Square matrices, 1x1 included, whose entries are drawn from a few
    objects (shared, as the assembled matrices share theirs) or are fresh
    objects, some equal to a shared one."""
    size = draw(st.integers(1, 4))
    pool = draw(st.lists(_scalars, min_size=1, max_size=4))
    pool.append(GaussianRational(0))

    def entry():
        c = draw(st.sampled_from(pool))
        fresh = draw(st.integers(0, 2))
        if fresh == 1:
            return c + 0  # equal value, distinct object
        return draw(_scalars) if fresh == 2 else c

    return ExactMatrix([[entry() for _ in range(size)] for _ in range(size)])


def _strings(a) -> list[list[str]]:
    """format_scalar of every entry, zeros included, row by row."""
    return [[format_scalar(a[i, j]) for j in range(a.cols)] for i in range(a.rows)]


def _reference_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


HYP = settings(derandomize=True, max_examples=60, deadline=None)


class TestMatrixReportWriter:
    """The report's arrays are written row by row, each distinct entry
    formatted once; the text must be what json.dumps(..., indent=2) makes of
    the per-entry strings."""

    @HYP
    @given(_shared_matrices())
    def test_rows_are_the_formatted_entries(self, a):
        strings = _strings(a)
        # CSV takes the rows as they are, JSON takes them quoted
        assert cli._entry_rows(a, str) == strings
        assert cli._entry_rows(a, encode_basestring_ascii) == [
            [json.dumps(s) for s in row] for row in strings
        ]

    @HYP
    @given(_shared_matrices())
    def test_spliced_document_is_the_indented_dump(self, a):
        n = a.rows
        pairs = [(i, i + 1) for i in range(n)]
        strings = _strings(a)
        inputs = {"kind": "selfcomm", "symbol": "z^2 zb", "N": n}
        document = cli._matrix_json(inputs, {"rank": 0}, n, pairs, a)
        result = {"order": n, "pairs": [list(p) for p in pairs], "entries": strings}
        assert document == _reference_report(
            {
                "command": "matrix",
                "inputs": inputs,
                "result": result,
                "diagnostics": {"backend": BACKEND_NAME, "rank": 0},
                "version": dualtoeplitz.__version__,
            }
        )

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), _scalars),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 3),
    )
    def test_whole_report_is_the_indented_dump(self, terms, order):
        phi = Element(terms)
        text = format_element(phi)
        # "=" keeps a text that starts with "-" from reading as a flag
        argv = ["matrix", "selfcomm", f"--symbol={text}", "--N", str(order)]
        # capsys is per test, not per example, so the output is captured here
        code, out, err = self._run(argv)
        assert code == 0, err
        doc = json.loads(out)
        a = SelfcommAssembly(parse_symbol(text)).matrix(order)
        assert doc["result"]["entries"] == _strings(a)
        assert out == _reference_report(doc)
        code, out, err = self._run(argv + ["--format", "csv"])
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[2:] for row in rows] == doc["result"]["entries"]

    @staticmethod
    def _run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            ("selfcomm", "--symbol", "z zb", "--N", "1"),
            ("selfcomm", "--symbol", "(-3/5+4/5i) z^2 zb", "--N", "4"),
            ("selfcomm", "--symbol", "z^2 zb + (1/2-1/3i) z zb^2 + zb", "--N", "3"),
            ("commutator", "--symbol", "z^2 zb + z^3", "--symbol2", "zb^2 + z", "--N", "3"),
        ],
    )
    def test_matrix_reports_are_the_indented_dump(self, capsys, argv):
        code, out, err = run_cli(capsys, "matrix", *argv)
        assert code == 0, err
        assert out == _reference_report(json.loads(out))


class TestRankCommand:
    def test_commutator_rank_table(self, capsys):
        doc = run_json(
            capsys, "rank", "--symbol", "z", "--symbol2", "zb", "--N-max", "3"
        )
        table = doc["result"]["table"]
        assert [row["N"] for row in table] == [1, 2, 3]
        assert [row["rank"] for row in table] == [0, 2, 4]
        assert all(row["gram_rank"] >= row["rank"] for row in table)
        assert [row["gram_rank"] for row in table][1:] == [2, 4]

    def test_selfcomm_rank_table(self, capsys):
        doc = run_json(capsys, "rank", "--symbol", "z^2 zb", "--N-max", "2")
        table = doc["result"]["table"]
        assert [set(row) for row in table] == [{"N", "rank"}] * 2
        assert table[0]["rank"] == 0

    def test_rejects_bad_bound(self, capsys):
        code, _, err = run_cli(capsys, "rank", "--symbol", "z", "--N-max", "-1")
        assert code == 2 and "error:" in err


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        doc = run_json(capsys, "verify", "--suite", "radial")
        assert doc["result"]["passed"] is True
        suites = doc["result"]["suites"]
        assert len(suites) == 1
        assert suites[0]["name"] == "radial"
        assert suites[0]["checks"] > 0
        assert suites[0]["failures"] == []
        assert suites[0]["passed"] is True

    def test_bounded_suite(self, capsys):
        doc = run_json(capsys, "verify", "--suite", "monomial", "--N-max", "2")
        assert doc["result"]["passed"] is True

    def test_failure_exits_1(self, capsys, monkeypatch):
        def fake_run_suites(suite, n_max=None):
            report = SuiteReport(name=suite)
            report.check(False, "forced failure for the exit-code path")
            return [report]

        monkeypatch.setattr("dualtoeplitz.verify.run_suites", fake_run_suites)
        code, out, err = run_cli(capsys, "verify", "--suite", "radial")
        assert code == 1
        doc = json.loads(out)
        assert doc["result"]["passed"] is False
        assert doc["result"]["suites"][0]["failures"] == [
            "forced failure for the exit-code path"
        ]

    @pytest.mark.parametrize("suite", dualtoeplitz.SUITE_NAMES + ("all",))
    def test_order_bound_below_one_is_a_usage_error(self, capsys, suite):
        # every suite used to take a bound below 1: radial passed with no
        # checks, monomial with a few, harmonic failed inside the suite
        for bound in ("0", "-1"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--N-max", bound)
            assert code == 2
            assert out == ""
            assert "--N-max must be >= 1" in err

    @pytest.mark.parametrize(
        "suite", ["two-term", "harmonic", "radial", "commutator-parity", "all"]
    )
    def test_bound_that_empties_a_grid_is_a_usage_error(self, capsys, suite, monkeypatch):
        # radial's pairs need n != m and the commutator grid starts at order
        # 2, so a bound of 1 used to report them passed with none of their
        # grid checked; at order 1 every form is the zero 1x1 matrix, so the
        # two-term and harmonic grids used to fail there for want of a
        # witness; the bound is refused before the suites load
        def no_suites(*args):
            raise AssertionError("the suites ran")

        monkeypatch.setattr("dualtoeplitz.verify.run_suites", no_suites)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--N-max", "1")
        assert code == 2
        assert out == ""
        assert "--N-max must be >= 2" in err

    @pytest.mark.parametrize("suite", ["monomial"])
    def test_bound_of_one_runs_the_other_suites(self, capsys, suite):
        # its grid is not empty at 1, so it runs and passes there
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--N-max", "1")
        assert code == 0, err
        (report,) = json.loads(out)["result"]["suites"]
        assert report["checks"] > 0

    @pytest.mark.parametrize("suite", ["two-term", "harmonic"])
    def test_lowest_accepted_bound_passes(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--N-max", "2")
        assert code == 0, err
        (report,) = json.loads(out)["result"]["suites"]
        assert report["checks"] > 0 and report["passed"] is True

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", "nonsense"])
        assert info.value.code == 2

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "harmonic")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "harmonic")
        assert out1 == out2


class TestApplyAndInnerProduct:
    def test_apply_matches_engine(self, capsys):
        doc = run_json(
            capsys, "apply", "--symbol", "z zb", "--symbol2", "z^2 zb - 2/3 z"
        )
        expected = apply(parse_symbol("z zb"), parse_symbol("z^2 zb - 2/3 z"))
        assert doc["result"]["element"]["text"] == format_element(expected)

    def test_apply_requires_both_symbols(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["apply", "--symbol", "z"])
        assert info.value.code == 2

    def test_inner_product_values(self, capsys):
        doc = run_json(capsys, "inner-product", "--symbol", "z", "--symbol2", "z")
        assert doc["result"]["value"] == "1/2"
        doc = run_json(capsys, "inner-product", "--symbol", "z", "--symbol2", "zb")
        assert doc["result"]["value"] == "0"
        doc = run_json(
            capsys, "inner-product", "--symbol", "(0+1i) z", "--symbol2", "z"
        )
        assert doc["result"]["value"] == "0+1/2i"


class TestOutputFile:
    def test_out_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys,
            "classify",
            "--symbol",
            "z zb",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert doc["result"]["status"] == "Normal"
        # file content equals what stdout would have carried
        _, stdout_run, _ = run_cli(capsys, "classify", "--symbol", "z zb")
        assert text == stdout_run

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.json"
        code, out, err = run_cli(
            capsys, "rank", "--symbol", "z", "--N-max", "2", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_stdout_write_exits_2(self):
        # every write to /dev/full fails with ENOSPC: an output error, like
        # an --out file that cannot be written, and not a failed check;
        # buffered, the write succeeds and the flush fails
        argv = ("matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "12")
        for unbuffered in (False, True):
            with open("/dev/full", "w") as full:
                proc = fresh_python(
                    "-m", "dualtoeplitz.cli", *argv, stdout=full, unbuffered=unbuffered
                )
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: cannot write stdout: ")
            assert proc.stderr.count("\n") == 1


class TestVersionAndScript:
    def test_version_key(self, capsys):
        import dualtoeplitz

        doc = run_json(capsys, "inner-product", "--symbol", "z", "--symbol2", "z")
        assert doc["version"] == dualtoeplitz.__version__

    def test_console_script(self):
        exe = shutil.which("dualtoeplitz")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "classify", "--symbol", "z zb", "--N-max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["status"] == "Normal"
        assert "timing:" in proc.stderr


def fresh_python(*argv, stdout=subprocess.PIPE, unbuffered=None, closed=None):
    """Run a fresh interpreter that finds this package first.  unbuffered
    sets (True) or unsets (False) PYTHONUNBUFFERED; None keeps ours.  closed
    names a file descriptor (1 or 2) that the interpreter starts without."""
    src = os.path.dirname(os.path.dirname(dualtoeplitz.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=None if closed is None else lambda: os.close(closed),
    )


MATRIX_12 = ("matrix", "selfcomm", "--symbol", "(-3/5+4/5i) z^2 zb", "--N", "12")


class TestExitPaths:
    """A command's process ends in cli.run: one flush, then os._exit with no
    interpreter teardown.  Each case runs with stdout buffered and
    unbuffered, since output still in a buffer at the end is what the flush
    is for."""

    @pytest.fixture(params=[False, True], ids=["buffered", "unbuffered"])
    def unbuffered(self, request):
        return request.param

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        # argparse wraps at the terminal width: the same one here and in
        # the child, which inherits the environment
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def command(unbuffered, *argv, stdout=subprocess.PIPE):
        return fresh_python(
            "-m", "dualtoeplitz.cli", *argv, stdout=stdout, unbuffered=unbuffered
        )

    def test_report_through_a_pipe_is_mains(self, capsys, unbuffered):
        proc = self.command(unbuffered, *MATRIX_12)
        code, out, _ = run_cli(capsys, *MATRIX_12)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out

    def test_help_is_the_parsers(self, unbuffered):
        proc = self.command(unbuffered, "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == cli.build_parser().format_help()
        assert proc.stderr == ""

    def test_usage_error_exits_2_with_the_usage(self, capsys, unbuffered):
        argv = ("rank", "--symbol", "z", "--N-max", "two")
        proc = self.command(unbuffered, *argv)
        with pytest.raises(SystemExit) as info:
            cli.main(list(argv))
        assert info.value.code == proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == capsys.readouterr().err

    def test_out_file_holds_the_whole_report(self, capsys, tmp_path, unbuffered):
        target = tmp_path / "report.json"
        proc = self.command(unbuffered, *MATRIX_12, "--out", str(target))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        _, out, _ = run_cli(capsys, *MATRIX_12)
        assert target.read_bytes() == out.encode("ascii")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_buffered_help_that_cannot_be_flushed_exits_2(self):
        # the help sits in the buffer when argparse exits, and only the
        # flush finds that it cannot be written; unbuffered, argparse meets
        # the error in its own write and ignores it
        with open("/dev/full", "w") as full:
            proc = self.command(False, "--help", stdout=full)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1

    def test_crash_exits_3_with_its_traceback(self, unbuffered):
        # a suite that raises (radial) is reported with its own traceback;
        # os._exit is wrapped to check that no child process is left by then
        probe = textwrap.dedent(
            """
            import os
            from dualtoeplitz import cli, verify

            def radial(n_max=None):
                return 1 // 0

            verify._SUITES["radial"] = radial
            real_exit = os._exit

            def exit_after_reaping(code):
                try:
                    os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    real_exit(code)
                real_exit(99)

            os._exit = exit_after_reaping
            cli.run(["verify", "--suite", "all", "--N-max", "2"])
            """
        )
        proc = fresh_python("-c", probe, unbuffered=unbuffered)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("Traceback (most recent call last):")
        assert "ZeroDivisionError" in proc.stderr
        assert "RuntimeError" not in proc.stderr
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


RANK_1 = ("rank", "--symbol", "z", "--N-max", "1")


class TestClosedStreams:
    """A process started with fd 1 or fd 2 closed has None for that stream.
    Nothing meant for stderr may reach stdout, and a report with nowhere to
    go exits 2, as one that cannot be written does."""

    @staticmethod
    def command(closed, *argv):
        return fresh_python("-m", "dualtoeplitz.cli", *argv, closed=closed)

    @pytest.mark.parametrize(
        "argv",
        [RANK_1, ("verify", "--suite", "all", "--N-max", "2")],
        ids=["rank", "verify-all"],
    )
    def test_closed_stdout_exits_2(self, argv):
        proc = self.command(1, *argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1

    def test_closed_stderr_leaves_the_report_alone_on_stdout(self, capsys):
        proc = self.command(2, *RANK_1)
        code, out, _ = run_cli(capsys, *RANK_1)
        assert proc.returncode == code == 0
        assert proc.stdout == out

    @pytest.mark.parametrize(
        "argv",
        [RANK_1[:-1] + ("0",), RANK_1[:-1] + ("two",)],
        ids=["refused-bound", "parser-error"],
    )
    def test_closed_stderr_keeps_usage_errors_off_stdout(self, argv):
        proc = self.command(2, *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""


class _Exited(Exception):
    """What os._exit raises in TestRunInProcess, with the exit code."""


class TestRunInProcess:
    @pytest.fixture(autouse=True)
    def exit_raises(self, monkeypatch):
        # os._exit raises in place of ending pytest, so each case reads the
        # code; every command, verify --suite all too, runs in this process
        def exit_(code):
            raise _Exited(code)

        monkeypatch.setattr(cli.os, "_exit", exit_)

    @staticmethod
    def code(*argv):
        with pytest.raises(_Exited) as info:
            cli.run(list(argv))
        return info.value.args[0]

    def test_success(self, capsys):
        assert self.code("classify", "--symbol", "z zb", "--N-max", "2") == 0
        assert json.loads(capsys.readouterr().out)["result"]["status"] == "Normal"

    def test_failed_suite(self, capsys, monkeypatch):
        def fake_run_suites(suite, n_max=None):
            report = SuiteReport(name=suite)
            report.check(False, "forced failure for the exit-code path")
            return [report]

        monkeypatch.setattr("dualtoeplitz.verify.run_suites", fake_run_suites)
        assert self.code("verify", "--suite", "radial") == 1
        assert json.loads(capsys.readouterr().out)["result"]["passed"] is False

    def test_verify_all(self, capsys):
        assert self.code("verify", "--suite", "all", "--N-max", "2") == 0
        assert json.loads(capsys.readouterr().out)["result"]["passed"] is True

    def test_help(self, capsys):
        assert self.code("--help") == 0
        assert capsys.readouterr().out.startswith("usage: dualtoeplitz")

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_help_with_a_stream_closed(self, capsys, monkeypatch, stream):
        # a process started with fd 1 or 2 closed has None for that stream;
        # argparse then writes its help to the other one
        monkeypatch.setattr(sys, stream, None)
        assert self.code("--help") == 0
        captured = capsys.readouterr()
        assert (captured.out + captured.err).startswith("usage: dualtoeplitz")

    def test_usage_error(self, capsys):
        assert self.code("rank", "--symbol", "z", "--N-max", "two") == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err

    def test_value_error_inside_a_command_is_a_crash(self, capsys, monkeypatch):
        # only a usage error or a symbol that does not parse exits 2; any
        # other exception, a ValueError too, is a crash with its traceback
        def refuse(form):
            raise ValueError("psd_test decides trace-zero forms only")

        monkeypatch.setattr("dualtoeplitz.linalg.psd_test", refuse)
        argv = ("matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "3")
        assert self.code(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert "ValueError: psd_test decides trace-zero forms only" in captured.err

    @pytest.mark.parametrize("flag", ["--symbol", "--symbol2"])
    def test_malformed_symbol_is_a_usage_error(self, capsys, flag):
        symbols = {"--symbol": "z", "--symbol2": "zb"}
        symbols[flag] += " +"
        argv = ["inner-product"]
        for item in symbols.items():
            argv += item
        assert self.code(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: expected a term (at position ")
        assert "Traceback" not in captured.err

    def test_crash(self, capsys, monkeypatch):
        from dualtoeplitz import verify

        monkeypatch.setitem(verify._SUITES, "radial", lambda n_max=None: 1 // 0)
        assert self.code("verify", "--suite", "radial", "--N-max", "2") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ZeroDivisionError" in captured.err


class TestLoadSet:
    """A command loads only the modules it runs: start-up is most of a
    small command, and compiling unused modules is most of start-up."""

    VERIFY_ONLY = ("dualtoeplitz.verify", "dualtoeplitz.identities")
    CLASSIFIER = "dualtoeplitz.classify"
    # every record is a NamedTuple or a __slots__ class, so no command pays
    # for dataclasses and the inspect module it imports
    NEVER = ("dataclasses", "inspect")

    @staticmethod
    def loaded(*argv):
        proc = fresh_python("-X", "importtime", "-m", "dualtoeplitz.cli", *argv)
        modules = {
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        return proc, modules

    @pytest.mark.parametrize(
        "argv",
        [
            ("rank", "--symbol", "z^2 zb", "--N-max", "3"),
            ("matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "2"),
            ("apply", "--symbol", "z^2 zb", "--symbol2", "z"),
        ],
    )
    def test_computing_commands_skip_the_suites(self, argv):
        proc, modules = self.loaded(*argv)
        assert proc.returncode == 0, proc.stderr
        assert "dualtoeplitz.engine" in modules
        for name in self.VERIFY_ONLY + self.NEVER + (self.CLASSIFIER, "csv"):
            assert name not in modules

    @staticmethod
    def submodules(modules):
        return {name for name in modules if name.startswith("dualtoeplitz.")}

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("--help",), 0),
            (("rank", "--help"), 0),
            (("rank", "--symbol", "z", "--N-max", "two"), 2),
            (("classify",), 2),
            (("verify", "--suite", "radial", "--N-max", "0"), 2),
            (("verify", "--suite", "all", "--N-max", "1"), 2),
        ],
    )
    def test_help_and_usage_errors_load_no_computing_module(self, argv, code):
        # the parser needs only the package's constants, and json loads
        # only to write a report
        proc, modules = self.loaded(*argv)
        assert proc.returncode == code, proc.stderr
        assert self.submodules(modules) == set()
        assert "json" not in modules

    def test_inner_product_loads_only_the_scalars_and_elements(self):
        proc, modules = self.loaded(
            "inner-product", "--symbol", "z^2 zb", "--symbol2", "z"
        )
        assert proc.returncode == 0, proc.stderr
        assert self.submodules(modules) == {
            "dualtoeplitz.algebra",
            "dualtoeplitz.symbols",
        }

    @pytest.mark.parametrize(
        "first",
        [
            "import dualtoeplitz.verify",
            "from dualtoeplitz.classify import Verdict",
            "import dualtoeplitz.classify",
            "from dualtoeplitz import cli\n"
            "assert cli.main(['classify', '--symbol', 'z zb', '--N-max', '2']) == 0",
            "import dualtoeplitz\ndualtoeplitz.Verdict",
        ],
    )
    def test_classify_stays_the_function_in_any_import_order(self, first):
        # importing the submodule binds it to the package attribute of its
        # name, whichever code imports it first
        probe = first + textwrap.dedent(
            """
            import importlib
            import dualtoeplitz
            from dualtoeplitz.classify import NotNormalCertificate
            submodule = importlib.import_module("dualtoeplitz.classify")
            assert callable(dualtoeplitz.classify), dualtoeplitz.classify
            assert dualtoeplitz.classify is submodule.classify
            from dualtoeplitz import classify
            assert classify is submodule.classify
            """
        )
        proc = fresh_python("-c", probe)
        assert proc.returncode == 0, proc.stderr

    def test_csv_loads_only_for_csv_output(self):
        proc, modules = self.loaded(
            "matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "2", "--format", "csv"
        )
        assert proc.returncode == 0, proc.stderr
        assert "csv" in modules
        assert "dualtoeplitz.verify" not in modules

    @pytest.mark.parametrize("fmt, loads_json", [("json", True), ("csv", False)])
    def test_json_loads_only_for_a_json_report(self, fmt, loads_json):
        proc, modules = self.loaded(
            "matrix", "selfcomm", "--symbol", "z^2 zb", "--N", "2", "--format", fmt
        )
        assert proc.returncode == 0, proc.stderr
        assert ("json" in modules) is loads_json

    def test_verify_still_loads_and_runs_the_suites(self):
        proc, modules = self.loaded("verify", "--suite", "radial")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["passed"] is True
        assert set(self.VERIFY_ONLY) <= modules
        for name in self.NEVER:
            assert name not in modules

    def test_verify_all_loads_no_process_pool(self):
        # every suite runs in this process; importing multiprocessing alone
        # takes about 8 ms
        proc, modules = self.loaded("verify", "--suite", "all")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["passed"] is True
        pool = ("multiprocessing", "pickle", "concurrent") + self.NEVER
        assert not {name for name in modules if name.split(".")[0] in pool}

    def test_every_public_name_comes_from_the_module_that_defines_it(self):
        for name, module in dualtoeplitz._LAZY.items():
            defined = getattr(getattr(dualtoeplitz, name), "__module__", None)
            if defined is not None:
                assert defined == f"dualtoeplitz.{module}", name

    def test_every_public_name_resolves(self):
        probe = textwrap.dedent(
            """
            import sys
            import dualtoeplitz
            listed = set(dir(dualtoeplitz))
            missing = [n for n in dualtoeplitz.__all__ if n not in listed]
            assert not missing, missing
            assert "dualtoeplitz.verify" not in sys.modules
            for name in dualtoeplitz.__all__:
                getattr(dualtoeplitz, name)
            assert "dualtoeplitz.verify" in sys.modules
            from dualtoeplitz import RationalPolynomial, run_suites
            assert callable(dualtoeplitz.classify), "the submodule shadows classify"
            try:
                dualtoeplitz.no_such_name
            except AttributeError:
                pass
            else:
                raise AssertionError("unknown names must raise AttributeError")
            """
        )
        proc = fresh_python("-c", probe)
        assert proc.returncode == 0, proc.stderr
