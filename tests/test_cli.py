import errno
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from freeradial import algebra, cli, freeproduct, radial, verify, words
from freeradial.cli import emit_table, main
from freeradial.verify import VerificationReport
from freeradial.words import DEFAULT_ENUMERATION_CAP, word_count


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def int_digit_limit():
    """Every command lifts Python's int-to-str digit limit for its process;
    put the limit back so that the lifted guard stays inside these tests.
    Yields the limit in force before the test (None without the guard)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    saved = None if get is None else get()
    yield saved
    if saved is not None:
        sys.set_int_max_str_digits(saved)


FP_CONFIG = {
    "factors": [
        {"free_rank": 2, "torsion": []},
        {"free_rank": 1, "torsion": []},
    ],
    "designated": [
        {"factor": 0, "element": {"free": [1, 0]}, "power": 1},
        {"factor": 1, "element": {"free": [1]}, "power": 1},
    ],
}


@pytest.fixture
def fp_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FP_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def shared_fp_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(FP_CONFIG))
    return str(path)


# Z^2 * (Z x Z_3), as in bench/fp_config.json: the second generator
# carries torsion and power 2
PROBE_FP_CONFIG = {
    "factors": [{"free_rank": 2, "torsion": []}, {"free_rank": 1, "torsion": [3]}],
    "designated": [
        {"factor": 0, "element": {"free": [1, 0]}, "power": 1},
        {"factor": 1, "element": {"free": [1], "torsion": [1]}, "power": 2},
    ],
}
X_NONPOWER = '[[0, {"free": [0, 1]}]]'
Y_NONPOWER = '[[0, {"free": [0, -1]}]]'


def assert_bad_input(result):
    """Exit code 2 with exactly one 'Error: ...' line on stderr."""
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), result.stderr


class TestCounts:
    def test_row_count_and_header(self, runner):
        result = runner.invoke(main, ["counts", "--k", "2", "--n-max", "6"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,alpha,beta,gamma,total_check,drift_alpha,within_C"
        assert len(lines) == 6  # header + n = 2..6
        assert lines[1] == "2,1,1,0,true,1/4,true"

    def test_cells_round_trip(self, runner):
        result = runner.invoke(main, ["counts", "--k", "3", "--n-max", "8"])
        for line in result.output.strip().splitlines()[1:]:
            cells = line.split(",")
            assert Fraction(cells[5]) is not None
            assert cells[6] == "true"

    def test_json_format(self, runner):
        result = runner.invoke(main, ["counts", "--k", "2", "--n-max", "3", "--format", "json"])
        records = json.loads(result.output)
        assert records[0]["alpha"] == 1 and records[0]["n"] == 2
        assert records[1]["drift_alpha"] == "-1/4"

    def test_decimals_column(self, runner):
        result = runner.invoke(main, ["counts", "--k", "2", "--n-max", "4", "--decimals", "6"])
        assert result.exit_code == 0
        assert result.stdout == (
            "n,alpha,beta,gamma,total_check,drift_alpha,within_C,drift_alpha_dec\n"
            "2,1,1,0,true,1/4,true,0.25\n"
            "3,2,3,2,true,-1/4,true,-0.25\n"
            "4,7,7,6,true,1/4,true,0.25\n"
        )


def readme_sessions():
    """(args, stdout) for each README text block that starts with a
    '$ freeradial ...' line; the rest of the block is the expected stdout."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sessions = []
    for block in re.findall(r"```text\n(.*?)```", text, re.DOTALL):
        command, _, output = block.partition("\n")
        if command.startswith("$ freeradial "):
            sessions.append((shlex.split(command)[2:], output))
    return sessions


README_SESSIONS = readme_sessions()


def test_readme_has_three_sessions():
    assert [args[0] for args, _ in README_SESSIONS] == ["counts", "deviation", "series"]


@pytest.mark.parametrize("args, stdout", README_SESSIONS, ids=[a[0] for a, _ in README_SESSIONS])
def test_readme_session(runner, args, stdout):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.stdout == stdout


class TestIdentities:
    def test_all_ok(self, runner):
        result = runner.invoke(main, ["identities", "--k", "2", "--n-max", "5"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "true" and cells[4] == "true"

    def test_base_relation_text(self, runner):
        result = runner.invoke(main, ["identities", "--k", "3", "--n-max", "2"])
        lines = result.output.strip().splitlines()
        assert lines[1].startswith("1,w1*w1 = w2 + 6*w0,true")


class TestExpect:
    def test_single_word(self, runner):
        result = runner.invoke(main, ["expect", "--k", "2", "--x", "g1 g2"])
        assert result.output.strip().splitlines() == ["n,coeff", "0,0", "1,0", "2,1/12"]

    def test_decimals_column(self, runner):
        result = runner.invoke(main, ["expect", "--k", "2", "--x", "g1 g2", "--decimals", "6"])
        assert result.exit_code == 0
        assert result.stdout == "n,coeff,coeff_dec\n0,0,0\n1,0,0\n2,1/12,0.0833333\n"

    def test_stdin_element(self, runner):
        result = runner.invoke(main, ["expect", "--k", "2"], input="1 g1\n1 g2\n1 g1^-1\n1 g2^-1\n")
        assert result.output.strip().splitlines() == ["n,coeff", "0,0", "1,1"]

    def test_input_file(self, runner, tmp_path):
        path = tmp_path / "element.txt"
        path.write_text("1/2 g1 g2\n1/2 g2 g1\n")
        result = runner.invoke(main, ["expect", "--k", "2", "--input", str(path)])
        assert result.output.strip().splitlines()[-1] == "2,1/12"

    def test_rejects_both_inputs(self, runner):
        result = runner.invoke(main, ["expect", "--k", "2", "--x", "g1", "--input", "-"])
        assert_bad_input(result)

    def test_missing_input_file(self, runner):
        result = runner.invoke(main, ["expect", "--k", "2", "--input", "/no/such/file"])
        assert_bad_input(result)

    def test_identity_with_exponent_is_bad_input(self, runner):
        result = runner.invoke(main, ["expect", "--k", "6", "--letters", "--x", "a e^2"])
        assert_bad_input(result)
        assert "bad atom 'e^2'" in result.stderr

    def test_zero_denominator_is_bad_input(self, runner, tmp_path):
        path = tmp_path / "element.txt"
        path.write_text("1/0 g1\n")
        result = runner.invoke(main, ["expect", "--k", "2", "--input", str(path)])
        assert_bad_input(result)
        assert "line 1: bad rational '1/0'" in result.stderr

    def test_huge_decimal_exponent_is_refused_at_once(self, runner, tmp_path):
        # Fraction would expand 10**99999999 before any check ran
        path = tmp_path / "element.txt"
        path.write_text("1e99999999 g1\n")
        started = time.monotonic()
        result = runner.invoke(main, ["expect", "--k", "2", "--input", str(path)])
        assert time.monotonic() - started < 5
        assert_bad_input(result)
        assert "exceeds 4300" in result.stderr

    @pytest.mark.parametrize(
        "line, coeff",
        [
            ("1e5 g1", "25000"),
            ("0.5 g1", "1/8"),
            pytest.param("1_0 g1", "5/2", marks=pytest.mark.skipif(
                sys.version_info < (3, 11), reason="Fraction reads underscores from 3.11")),
        ],
    )
    def test_decimal_coefficients(self, runner, line, coeff):
        result = runner.invoke(main, ["expect", "--k", "2", "--input", "-"], input=line + "\n")
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["n,coeff", "0,0", f"1,{coeff}"]

    def test_exact_past_int_digit_limit(self, runner):
        # 1 / |S_9100| has 4343 digits in its denominator, past the
        # default 4300-digit int-to-str limit
        result = runner.invoke(main, ["expect", "--k", "2", "--x", "g2^9100"])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert len(lines) == 9102 and lines[0] == "n,coeff"
        n, coeff = lines[-1].split(",")
        assert n == "9100"
        assert Fraction(coeff) == Fraction(1, word_count(2, 9100))

    def test_runs_without_int_digit_guard(self, runner, monkeypatch, int_digit_limit):
        # Python 3.10 has no int-to-str guard and no setter for it
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        result = runner.invoke(main, ["expect", "--k", "2", "--x", "g1 g2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["n,coeff", "0,0", "1,0", "2,1/12"]
        if int_digit_limit is not None:
            assert sys.get_int_max_str_digits() == int_digit_limit


class Unprintable:
    def __str__(self):
        raise ValueError("cannot render")


def test_csv_table_renders_before_writing(capsys):
    with pytest.raises(ValueError):
        emit_table(["n", "value"], [[0, 1], [1, Unprintable()]], "csv")
    assert capsys.readouterr().out == ""


class TestDeviation:
    def test_ok_column_all_true(self, runner):
        result = runner.invoke(
            main, ["deviation", "--k", "2", "--x", "g1", "--y", "g1", "--n-max", "10"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,delta_sq,delta_sq_times_norm_sq,bound_H_sq,ok"
        assert len(lines) == 12
        for line in lines[1:]:
            assert line.endswith(",true")

    def test_frozen_row(self, runner):
        result = runner.invoke(
            main, ["deviation", "--k", "2", "--x", "g1", "--y", "g1", "--n-max", "4"]
        )
        assert result.output.strip().splitlines()[-1] == "4,59/7776,59/72,1115136,true"

    def test_identity_short_circuit(self, runner):
        result = runner.invoke(
            main, ["deviation", "--k", "2", "--x", "e", "--y", "g1", "--n-max", "3"]
        )
        for line in result.output.strip().splitlines()[1:]:
            assert line.split(",")[1] == "0"

    def test_decimals_column(self, runner):
        result = runner.invoke(
            main,
            ["deviation", "--k", "2", "--x", "g1", "--y", "g1", "--n-max", "2", "--decimals", "6"],
        )
        lines = result.output.strip().splitlines()
        assert lines[0].endswith(",delta_dec")
        assert len(lines[1].split(",")) == 6


class TestSeries:
    def test_monotone_partial_sums(self, runner):
        result = runner.invoke(
            main, ["series", "--k", "2", "--x", "g1", "--y", "g2", "--n-max", "12"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,term,partial_sum"
        sums = [Fraction(line.split(",")[2]) for line in lines[1:]]
        assert sums == sorted(sums)
        assert len(sums) == 13

    def test_terms_sum_to_partials(self, runner):
        result = runner.invoke(
            main, ["series", "--k", "2", "--x", "g1 g2", "--y", "g1", "--n-max", "8"]
        )
        total = Fraction(0)
        for line in result.output.strip().splitlines()[1:]:
            _, term, partial = line.split(",")
            total += Fraction(term)
            assert total == Fraction(partial)


class TestHighLevelBytes:
    # SHA-256 of stdout for a k = 3 pair of 3-letter words up to n = 300,
    # far past the README sessions: the counting path's cells, the closed
    # powers and the exact sums, byte for byte.
    @pytest.mark.parametrize(
        "command, fmt, digest",
        [
            ("deviation", "csv", "cabc21c730c409426035b5ffc5d3bfe3a1659fce698c7f6365cbc12f2907c210"),
            ("deviation", "json", "9cf4b86ad3dc1e7279f81d3bc355334c3915f1ccea1b8fef12802abec1e1f0f0"),
            ("series", "csv", "4ef322b4ac3425223142dc9fd61e546ebe9760a38e50b8d543b885fb5cfdd901"),
            ("series", "json", "8e38c2d03dc702944c5c2fbc43495520041bd08d1e944ddaa929ea09475945a3"),
        ],
        ids=["deviation-csv", "deviation-json", "series-csv", "series-json"],
    )
    def test_bytes_pinned(self, runner, command, fmt, digest):
        args = ["--k", "3", "--x", "g1 g2^-1 g3", "--y", "g3^-1 g2 g1^-1", "--n-max", "300"]
        result = runner.invoke(main, [command, *args, "--format", fmt])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


class TestFreeProduct:
    def test_chi_table(self, runner, fp_config):
        result = runner.invoke(
            main,
            [
                "freeproduct", "chi",
                "--config", fp_config,
                "--x", X_NONPOWER,
                "--y", Y_NONPOWER,
                "--n-max", "5",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,chi_size,bound,ok,norm_sq_num,norm_sq_den"
        assert lines[1] == "0,1,1,true,1,1"
        assert lines[2] == "1,2,6,true,1,1"
        for line in lines[1:]:
            assert line.split(",")[3] == "true"

    def test_chi_table_at_scale(self, runner, tmp_path):
        # x and y each hold a syllable outside the embedded free group
        path = tmp_path / "config.json"
        path.write_text(json.dumps(PROBE_FP_CONFIG))
        result = runner.invoke(
            main,
            [
                "freeproduct", "chi",
                "--config", str(path),
                "--x", '[[0, {"free": [0, 1]}]]',
                "--y", '[[0, {"free": [2, -1]}], [1, {"free": [2], "torsion": [2]}]]',
                "--n-max", "60",
                "--format", "json",
            ],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert [row["n"] for row in rows] == list(range(61))
        assert all(row["ok"] is True for row in rows)
        assert all(row["chi_size"] > 0 for row in rows)

    def test_long_leading_run_outside_fk(self, runner, tmp_path):
        # y starts with a run past the letter cap but ends outside the
        # embedded free group: no members, not a cap error
        path = tmp_path / "config.json"
        path.write_text(json.dumps(PROBE_FP_CONFIG))
        y = [[0, {"free": [DEFAULT_ENUMERATION_CAP + 1, 0]}],
             [1, {"free": [2], "torsion": [2]}], [0, {"free": [0, 1]}]]
        result = runner.invoke(
            main,
            ["freeproduct", "chi", "--config", str(path), "--x", X_NONPOWER,
             "--y", json.dumps(y), "--n-max", "2"],
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[1:] == [
            "0,0,1,true,0,1", "1,0,6,true,0,1", "2,0,15,true,0,1",
        ]

    @pytest.mark.parametrize(
        "config",
        [None, {"factors": [{"free_rank": 2}, {"free_rank": 1}]}],
        ids=["missing-file", "no-designated"],
    )
    def test_bad_config(self, runner, tmp_path, config):
        path = tmp_path / "config.json"
        if config is not None:
            path.write_text(json.dumps(config))
        result = runner.invoke(
            main,
            ["freeproduct", "chi", "--config", str(path), "--x", X_NONPOWER,
             "--y", Y_NONPOWER, "--n-max", "2"],
        )
        assert_bad_input(result)

    @pytest.mark.parametrize(
        "word, y",
        [
            ("not json", Y_NONPOWER),
            ("[1]", Y_NONPOWER),
            ("[[0,5]]", Y_NONPOWER),
            ('[[0,{"free":[1.5]}]]', Y_NONPOWER),
            ('[[0, {"free": [99999999999, 0]}]]', '[[1, {"free": [1]}]]'),
        ],
        ids=["not-json", "bare-syllable", "element-not-object", "float-coordinate",
             "huge-exponent"],
    )
    def test_bad_word_json(self, runner, fp_config, word, y):
        result = runner.invoke(
            main,
            ["freeproduct", "chi", "--config", fp_config, "--x", word,
             "--y", y, "--n-max", "2"],
        )
        assert_bad_input(result)


class TestVerify:
    def test_subset_passes(self, runner):
        result = runner.invoke(
            main, ["verify", "--k", "2", "--n-max", "4", "--checks", "word_counts,norms"]
        )
        assert result.exit_code == 0
        assert "checks passed" in result.output
        assert "FAIL" not in result.output

    def test_json_output(self, runner):
        result = runner.invoke(
            main, ["verify", "--k", "2", "--n-max", "4", "--checks", "word_counts", "--json"]
        )
        records = json.loads(result.output)
        assert all(r["passed"] for r in records)

    def test_failure_exit_code(self, runner, monkeypatch):
        from freeradial import cli as cli_module

        def fake_suite(**kwargs):
            return [VerificationReport("stub", (2,), 1, 2)]

        monkeypatch.setattr(cli_module.verify, "run_suite", fake_suite)
        result = runner.invoke(main, ["verify", "--k", "2", "--n-max", "4"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_unknown_check_is_bad_input(self, runner):
        result = runner.invoke(main, ["verify", "--checks", "bogus"])
        assert_bad_input(result)

    @pytest.mark.parametrize("checks", ["", ",", " , "], ids=["empty", "comma", "spaces"])
    def test_no_check_selected_is_bad_input(self, runner, monkeypatch, checks):
        # a pass that verified nothing would read "0/0 checks passed", exit 0
        def forbidden(*args, **kwargs):
            raise AssertionError("the suite ran with no check selected")

        monkeypatch.setattr(verify, "run_suite", forbidden)
        result = runner.invoke(main, ["verify", "--checks", checks])
        assert_bad_input(result)
        assert "--checks selects no check" in result.stderr

    def test_spaces_around_check_names_are_ignored(self, runner):
        args = ["verify", "--k", "2", "--n-max", "6", "--checks"]
        spaced = runner.invoke(main, args + [" norms , mu_vs_oracle "])
        assert spaced.exit_code == 0
        assert spaced.output == runner.invoke(main, args + ["norms,mu_vs_oracle"]).output

    def test_repeated_check_runs_once(self, runner):
        result = runner.invoke(
            main, ["verify", "--k", "2", "--n-max", "6", "--checks", "norms, norms"]
        )
        assert result.exit_code == 0
        assert result.output.endswith("7/7 checks passed\n")

    # Every check of the suite, radial_products included, byte for byte:
    # SHA-256 of stdout (the --json one is 75,068 bytes).
    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "81532e1c244e7353b1cb7f2c29f43c643d2f63bbf5b819c5cb0edd7f24ec1389"),
            (["--json"], "afc1332abf98f47a4484b394efeb002cd713fe5bb0cad5d60c1136522154126e"),
        ],
        ids=["text", "json"],
    )
    def test_full_suite_bytes_pinned(self, runner, flags, digest):
        result = runner.invoke(main, ["verify", "--k", "3", "--n-max", "4", *flags])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    def test_rank_two_suite_bytes_pinned(self, runner):
        # At rank 2, radial_products reaches w_5 * w_5, two degrees past
        # the rank-3 run above.  SHA-256 of the --json stdout.
        result = runner.invoke(main, ["verify", "--k", "2", "--n-max", "6", "--json"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "34cd3ef336d957530194ede6b1432c5906d2fcbece53a6d190460b5095d87600"
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["counts", "--k", "2", "--n-max", "8"],
            ["identities", "--k", "2", "--n-max", "4"],
            ["deviation", "--k", "2", "--x", "g1 g2", "--y", "g2^-1", "--n-max", "8"],
            ["series", "--k", "2", "--x", "g1", "--y", "g1", "--n-max", "8", "--decimals", "10"],
        ],
    )
    def test_identical_runs_identical_bytes(self, runner, args):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_letters_flag(self, runner):
        with_letters = runner.invoke(
            main, ["deviation", "--k", "2", "--x", "a", "--y", "b^-1", "--n-max", "5", "--letters"]
        )
        plain = runner.invoke(
            main, ["deviation", "--k", "2", "--x", "g1", "--y", "g2^-1", "--n-max", "5"]
        )
        assert with_letters.output == plain.output


def command_paths(group, prefix=()):
    """Every leaf command under a click group, as its argv prefix."""
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from command_paths(command, prefix + (name,))
        else:
            yield [*prefix, name]


class TestUsageErrors:
    """Click's usage errors, at any depth, are one 'Error: ...' line."""

    @pytest.mark.parametrize("args, message", [
        (["deviation", "--k", "2", "--y", "g1", "--n-max", "2"], "Missing option '--x'."),
        (["counts", "--k", "1", "--n-max", "3"], "Invalid value for '--k'"),
        (["counts", "--k", "2", "--n-max", "3", "--format", "xml"], "Invalid value for '--format'"),
        (["nosuch"], "No such command 'nosuch'."),
        (["freeproduct", "nosuch"], "No such command 'nosuch'."),
        (["counts", "--k", "2", "--n-max", "3", "--nosuch"], "No such option '--nosuch'."),
        (["--nosuch"], "No such option '--nosuch'."),
        (["counts", "--k"], "Option '--k' requires an argument."),
        (["counts", "--k", "2", "--n-max", "3", "extra"], "unexpected extra argument"),
    ], ids=["missing", "range", "choice", "command", "subcommand", "option", "root-option",
            "no-value", "extra"])
    def test_one_line(self, runner, args, message):
        result = runner.invoke(main, args)
        assert_bad_input(result)
        assert message in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("args", [[], ["freeproduct"]], ids=["root", "freeproduct"])
    def test_bare_group_prints_its_help(self, runner, args):
        result = runner.invoke(main, args, prog_name="freeradial")
        text = result.stdout + result.stderr
        assert text.startswith(f"Usage: freeradial {' '.join(args)}".rstrip() + " [OPTIONS]")
        assert "Error" not in text and "Commands:" in text

    def test_help_is_unchanged(self, runner):
        result = runner.invoke(main, ["counts", "--help"], prog_name="freeradial")
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith("Usage: freeradial counts [OPTIONS]")


class TestOneErrorBoundary:
    """The root group alone maps exceptions to exit codes, so a command with
    no error handling of its own, at any depth, keeps the same rules."""

    @pytest.fixture(params=[(), ("freeproduct",)], ids=["root", "freeproduct"])
    def raising(self, request, monkeypatch):
        """Register a throwaway command that raises the given exception;
        return its argv."""
        group = main
        for name in request.param:
            group = group.commands[name]

        def register(exc):
            @click.command()
            def raises():
                raise exc

            monkeypatch.setitem(group.commands, "raises", raises)
            return [*request.param, "raises"]

        return register

    @pytest.mark.parametrize("exc", [
        ValueError("bad value"),
        words.CapExceededError("past the cap"),
        FileNotFoundError(errno.ENOENT, "No such file or directory", "missing.json"),
    ], ids=["value", "cap", "os"])
    def test_bad_input_exits_2(self, runner, raising, exc):
        result = runner.invoke(main, raising(exc))
        assert_bad_input(result)
        assert result.stderr == f"Error: {exc}\n"
        assert result.stdout == ""

    def test_closed_stdout_exits_0(self, runner, raising):
        # click's own EPIPE path would exit 1
        result = runner.invoke(main, raising(BrokenPipeError(errno.EPIPE, "Broken pipe")))
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_program_fault_is_not_bad_input(self, runner, raising):
        result = runner.invoke(main, raising(KeyError("fault")))
        assert result.exit_code == 1
        assert isinstance(result.exception, KeyError)


class TestCapAndEntryPoint:
    @pytest.mark.parametrize(
        "args, cap",
        [
            (["identities", "--k", "2", "--n-max", "5"], 10),
            (["expect", "--k", "2", "--x", "g1^99999999999"], None),
        ],
        ids=["identities", "expect-exponent"],
    )
    def test_cap_exceeded_is_bad_input(self, runner, monkeypatch, args, cap):
        if cap is not None:
            monkeypatch.setattr(words, "DEFAULT_ENUMERATION_CAP", cap)
        result = runner.invoke(main, args)
        assert_bad_input(result)
        assert "cap" in result.stderr

    def test_identities_refuses_before_any_work(self, runner, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("identities enumerated or convolved before checking the cap")

        monkeypatch.setattr(words, "DEFAULT_ENUMERATION_CAP", word_count(2, 5))
        for module in (words, algebra, radial, verify, freeproduct, cli):
            for name in ("enumerate_words", "mul"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        result = runner.invoke(main, ["identities", "--k", "2", "--n-max", "5"])
        assert_bad_input(result)
        assert f"exceeds cap {word_count(2, 5)}" in result.stderr

    def test_identities_fits_cap_of_its_largest_sphere(self, runner, monkeypatch):
        # the recurrence row for n_max reaches w_{n_max + 1}, and no further
        monkeypatch.setattr(words, "DEFAULT_ENUMERATION_CAP", word_count(2, 6))
        result = runner.invoke(main, ["identities", "--k", "2", "--n-max", "5"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 6

    @pytest.mark.parametrize(
        "args, held",
        [
            (["identities", "--k", "2", "--n-max", "13"], word_count(2, 14)),
            (["identities", "--k", "2", "--n-max", "11"], word_count(2, 12)),
            (["verify", "--k", "2", "--n-max", "14"], word_count(2, 14)),
            (["verify", "--k", "3"], word_count(3, 9)),
        ],
        ids=["identities-13", "identities-11", "verify-14", "verify-k3-default"],
    )
    def test_refuses_held_sphere_past_cap(self, runner, monkeypatch, args, held):
        # each sphere fits the enumeration cap, but holding it would take GBs
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated or convolved before checking the held-sphere cap")

        for module in (words, algebra, radial, verify, freeproduct, cli):
            for name in ("enumerate_words", "mul", "w_n_explicit"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        start = time.monotonic()
        result = runner.invoke(main, args)
        assert time.monotonic() - start < 1.0
        assert_bad_input(result)
        assert f"holding {held} words" in result.stderr
        assert f"exceeds cap {words.HELD_SPHERE_CAP}" in result.stderr

    def test_verify_takes_rank_ten_up_to_the_sphere_caps(self, runner, monkeypatch):
        # nu_uniformity needs no sphere, so it runs at any rank
        result = runner.invoke(
            main, ["verify", "--k", "10", "--n-max", "4", "--checks", "nu_uniformity"]
        )
        assert result.exit_code == 0
        assert result.output.endswith("ok  nu_uniformity [10 4 max_spread=10]\n3/3 checks passed\n")

        # the full suite at the default --n-max holds S_9: refused before any check
        def forbidden(*args, **kwargs):
            raise AssertionError("a check ran before the sphere caps were checked")

        monkeypatch.setattr(verify, "CHECKS", dict.fromkeys(verify.CHECKS, forbidden))
        result = runner.invoke(main, ["verify", "--k", "10"])
        assert_bad_input(result)
        assert f"length 9 (rank 10) exceeds cap {DEFAULT_ENUMERATION_CAP}" in result.stderr

    def test_verify_counts_only_selected_checks(self, runner):
        # closed_form holds no sphere, so n_max = 14 is accepted
        result = runner.invoke(
            main, ["verify", "--k", "2", "--n-max", "14", "--checks", "closed_form"]
        )
        assert result.exit_code == 0
        assert result.output.endswith("29/29 checks passed\n")

    @pytest.mark.parametrize("command", list(command_paths(main)), ids="-".join)
    def test_no_cap_option_on_counting_commands(self, runner, command):
        result = runner.invoke(main, command + ["--help"])
        assert result.exit_code == 0
        assert "--cap" not in result.output

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.stdout == "freeradial, version 0.1.0\n"

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "freeradial", "counts", "--k", "2", "--n-max", "3"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1] == "2,1,1,0,true,1/4,true"

    # TestHighLevelBytes' pair: about 200 KB of stdout, more than a pipe holds
    SERIES_300 = ["series", "--k", "3", "--x", "g1 g2^-1 g3", "--y", "g3^-1 g2 g1^-1",
                  "--n-max", "300"]

    def test_reader_stops_after_first_line(self):
        # '| head -n 1': the write that the reader's close interrupts may
        # come back short rather than fail, so this run need not raise
        proc = subprocess.Popen(
            [sys.executable, "-m", "freeradial", *self.SERIES_300],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert first == b"n,term,partial_sum\n"
        assert proc.returncode == 0
        assert stderr == b""

    @pytest.mark.parametrize("args", [SERIES_300, ["--help"]], ids=["series", "help"])
    def test_reader_gone_before_first_write(self, args):
        # the first write meets a closed pipe and raises BrokenPipeError
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "freeradial", *args],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""


# -- fuzz of the parse boundary ------------------------------------------------

# Integers are small or past the letter cap.  Exponents in between are
# accepted and cost time linear in the word length (seconds near the cap),
# which a fuzz of the parse boundary cannot afford per example.
INTS = st.integers(-3, 3) | st.integers(min_value=DEFAULT_ENUMERATION_CAP + 1).map(
    lambda v: v if v % 2 else -v
)
CONFIG_KEYS = ("factors", "designated", "free_rank", "torsion", "factor", "element", "free",
               "power")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def near(valid, other=JSON_VALUES):
    """Mostly well-formed values; one draw in six is arbitrary JSON (or other)."""
    return st.integers(0, 5).flatmap(lambda i: other if i == 5 else valid)


def record(required, optional=None):
    """A JSON object with every required key and any of the optional ones."""
    return st.fixed_dictionaries(required, optional=optional or {})


ELEMENTS = record({"free": near(st.lists(st.integers(1, 3) | INTS, min_size=1, max_size=1))},
                  {"torsion": near(st.just([]), st.lists(INTS, max_size=1))})
FACTORS = record({"free_rank": near(st.integers(1, 2))},
                 {"torsion": near(st.lists(st.integers(2, 5), max_size=1))})
DESIGNATED = record({"factor": near(st.integers(0, 1)), "element": near(ELEMENTS)},
                    {"power": near(st.integers(1, 3) | INTS)})
CONFIGS = near(record({
    "factors": near(st.lists(FACTORS, min_size=2, max_size=3)),
    "designated": near(st.lists(DESIGNATED, min_size=2, max_size=2,
                                unique_by=lambda d: repr(d["factor"]))),
}))
FP_WORDS = near(st.lists(st.tuples(near(st.integers(0, 1)), near(ELEMENTS)).map(list),
                         max_size=3))
JSON_TEXT = near(FP_WORDS.map(json.dumps), st.text(max_size=20))
WORD_ATOMS = st.sampled_from(["e", "g1", "g2", "g3", "g0", "a", "b", "g1^-1", "g2^3", "g1^0",
                              "^", "g", "g1^", "g01", "g1^--1"])
WORD_TEXT = (
    st.lists(WORD_ATOMS | INTS.map(lambda p: f"g2^{p}"), max_size=5).map(" ".join)
    | st.text(max_size=12)
)
RATIONAL_TEXT = (
    st.tuples(st.integers(-9, 9), st.integers(0, 3)).map(lambda t: f"{t[0]}/{t[1]}")
    | st.sampled_from(["1", "-2", "0.5", "1e5", "1E-3", "1_0", "1e99999999", "1e-99999999",
                       "1e4301", "1e4300", "nan", "inf", "1/", "/2", "e5", "1e", "x"])
    | st.text(max_size=6)
)
ELEMENT_TEXT = (
    st.lists(st.tuples(RATIONAL_TEXT, WORD_TEXT).map(" ".join), max_size=4).map("\n".join)
    | st.text(max_size=30)
)
FUZZ = settings(max_examples=60, deadline=None)


def assert_clean_exit(result):
    """Exit 0, or exit 2 with exactly one 'Error: ...' line on stderr."""
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 2), (result.exit_code, result.stderr)
    if result.exit_code == 2:
        assert_bad_input(result)


class TestParserFuzz:
    @FUZZ
    @given(text=WORD_TEXT, k=st.integers(2, 3), letters=st.booleans())
    def test_expect_word(self, text, k, letters):
        args = ["expect", "--k", str(k), f"--x={text}"] + (["--letters"] if letters else [])
        assert_clean_exit(CliRunner().invoke(main, args))

    @FUZZ
    @given(text=ELEMENT_TEXT, k=st.integers(2, 3), letters=st.booleans())
    def test_expect_element(self, text, k, letters):
        args = ["expect", "--k", str(k), "--input", "-"] + (["--letters"] if letters else [])
        assert_clean_exit(CliRunner().invoke(main, args, input=text))

    @FUZZ
    @given(x=JSON_TEXT, y=JSON_TEXT)
    def test_freeproduct_words(self, shared_fp_config, x, y):
        args = ["freeproduct", "chi", "--config", shared_fp_config,
                f"--x={x}", f"--y={y}", "--n-max", "2"]
        assert_clean_exit(CliRunner().invoke(main, args))

    @FUZZ
    @given(content=near(CONFIGS.map(json.dumps), st.text(max_size=40)))
    def test_freeproduct_config(self, shared_fp_config, content):
        path = Path(shared_fp_config).with_name("fuzzed.json")
        path.write_text(content, encoding="utf-8")
        args = ["freeproduct", "chi", "--config", str(path), f"--x={X_NONPOWER}",
                f"--y={Y_NONPOWER}", "--n-max", "2"]
        assert_clean_exit(CliRunner().invoke(main, args))

    @pytest.mark.parametrize("option", ["--x", "--y"])
    def test_deeply_nested_word(self, fp_config, option):
        other = "--y" if option == "--x" else "--x"
        result = CliRunner().invoke(
            main,
            ["freeproduct", "chi", "--config", fp_config, f"{option}={'[' * 100_000}",
             f"{other}={X_NONPOWER}", "--n-max", "1"],
        )
        assert_bad_input(result)
        assert "nested too deeply" in result.stderr

    def test_deeply_nested_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"factors": ' + "[" * 100_000)
        result = CliRunner().invoke(
            main,
            ["freeproduct", "chi", "--config", str(path), f"--x={X_NONPOWER}",
             f"--y={Y_NONPOWER}", "--n-max", "1"],
        )
        assert_bad_input(result)

    def test_huge_free_rank(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "factors": [{"free_rank": 10**12}, {"free_rank": 1}],
            "designated": [{"factor": 0, "element": {"free": [1]}},
                           {"factor": 1, "element": {"free": [1]}}],
        }))
        result = CliRunner().invoke(
            main,
            ["freeproduct", "chi", "--config", str(path), "--x=[]", "--y=[]", "--n-max", "1"],
        )
        assert_bad_input(result)
        assert "free rank" in result.stderr
