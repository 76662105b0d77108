"""Command-line front end: JSON shape, determinism, exit codes, CSV dumps."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import dualtoeplitz
import dualtoeplitz.cli as cli
from dualtoeplitz import BACKEND_NAME, SuiteReport, apply, format_element, parse_symbol

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

    def test_other_commands_have_no_format_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["classify", "--symbol", "z", "--format", "csv"])
        assert info.value.code == 2


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

        monkeypatch.setattr(cli, "run_suites", fake_run_suites)
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


def fresh_python(*argv):
    """Run a fresh interpreter that finds this package first."""
    src = os.path.dirname(os.path.dirname(dualtoeplitz.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env
    )


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
        ],
    )
    def test_help_and_usage_errors_load_no_computing_module(self, argv, code):
        # the parser needs only the package's constants
        proc, modules = self.loaded(*argv)
        assert proc.returncode == code, proc.stderr
        assert self.submodules(modules) == set()

    def test_inner_product_loads_only_the_scalars_and_elements(self):
        proc, modules = self.loaded(
            "inner-product", "--symbol", "z^2 zb", "--symbol2", "z"
        )
        assert proc.returncode == 0, proc.stderr
        assert self.submodules(modules) == {
            "dualtoeplitz._kernel",
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

    def test_verify_still_loads_and_runs_the_suites(self):
        proc, modules = self.loaded("verify", "--suite", "radial")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["passed"] is True
        assert set(self.VERIFY_ONLY) <= modules
        for name in self.NEVER:
            assert name not in modules

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
