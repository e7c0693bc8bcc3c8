"""CLI behaviour: exit codes, formats, schema validity, determinism."""

import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from tricirc import bipoly, circulant
from tricirc import cli as climod
from tricirc import permanent as permmod
from tricirc import permclass
from tricirc import phi as phimod
from tricirc import verify as verifymod
from tricirc.bipoly import ONE, BiPoly

from test_fuzz import RUNS, fuzz_argvs
from test_permclass import FAULTY_STEP_RULES

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMA = json.loads((REPO / "schema" / "cli_output.schema.json").read_text())


def cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "tricirc", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def check_schema(doc):
    jsonschema.validate(doc, SCHEMA)


def assert_failed_check(argv, text, capsys):
    """``run`` exits 1 with stdout empty and one stderr line, ``error: `` then text."""
    assert climod.run(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and re.search(text, line[len("error: "):]), line


class TestExitCodes:
    def test_success(self):
        assert cli("phi", "--p", "5", "--q", "3").returncode == 0

    def test_unknown_flag_is_usage_error(self):
        assert cli("phi", "--p", "5", "--q", "3", "--bogus", "1").returncode == 2

    def test_missing_required_flag(self):
        assert cli("phi", "--p", "5").returncode == 2

    def test_invalid_spec(self):
        assert cli("phi", "--p", "5", "--q", "7").returncode == 2
        # out-of-range q is a usage error even though gcd(0, p) > 1
        assert cli("phi", "--p", "6", "--q", "0", "--t", "2").returncode == 2

    def test_irreducible_is_exit_3(self):
        res = cli("phi", "--p", "6", "--q", "3", "--t", "3")
        assert res.returncode == 3
        res = cli("phi", "--p", "6", "--q", "3", "--t", "2")
        assert res.returncode == 3

    def test_regime_guard_is_exit_3(self):
        res = cli("phi", "--p", "12", "--q", "3", "--backend", "bruteforce")
        assert res.returncode == 3

    def test_verify_size_that_checks_nothing_is_usage_error(self):
        for argv in (("--suite", "lemmas", "--cases", "-5"),
                     ("--suite", "lemmas", "--cases", "0"),
                     ("--suite", "sign", "--pmax", "2")):
            res = cli("verify", *argv)
            assert res.returncode == 2 and res.stdout == ""

    @pytest.mark.parametrize("argv, flag", [
        (("--suite", "lemmas", "--pmax", "40"), "pmax"),
        (("--suite", "prime", "--cases", "5"), "cases"),
        (("--suite", "witness", "--cases", "5"), "cases"),
        (("--suite", "prime", "--q-policy", "coprime"), "q-policy"),
    ])
    def test_verify_size_the_suite_does_not_read_is_usage_error(self, argv, flag):
        res = cli("verify", *argv)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"error: the {argv[1]} suite does not read {flag}\n"

    def test_verify_has_no_seed_flag(self):
        # the lemmas draws come from the one fixed DEFAULT_SEED
        res = cli("verify", "--suite", "lemmas", "--cases", "10", "--seed", "3")
        assert res.returncode == 2 and res.stdout == ""
        assert "unrecognized arguments: --seed 3" in res.stderr

    @pytest.mark.parametrize("argv", [
        ("phi", "--p", "100000", "--q", "3"),
        ("phi", "--p", "97", "--q", "48", "--backend", "bareiss"),
        ("permanent", "--p", "30", "--q", "15"),
        ("growth", "--q", "3", "--pmax", "100000"),
        # every row is within budget, the table's cheaper plan is not
        ("growth", "--q", "12", "--pmax", "36"),
        ("witness", "--p", "100000000", "--q", "3", "--r", "1", "--s", "33333333"),
        ("verify", "--suite", "witness", "--pmax", "120"),
        ("verify", "--suite", "support", "--pmax", "80"),
        ("verify", "--suite", "lemmas", "--cases", "100000000"),
        # the DP's budget is checked before Bareiss (about 30 s here) runs
        ("permanent", "--p", "96", "--q", "48", "--backend", "bareiss"),
        # a window so wide that the DP's cost estimate passes the float range
        ("permanent", "--p", "3000000", "--q", "1500000"),
    ])
    def test_over_budget_request_is_refused_fast(self, argv):
        t0 = time.perf_counter()
        res = cli(*argv)
        assert time.perf_counter() - t0 < 1.0
        assert res.returncode == 3 and res.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("--suite", "permanent", "--pmax", "19"),
        ("--suite", "support", "--pmax", "284"),
        ("--suite", "sign", "--pmax", "24"),
        ("--suite", "prime", "--pmax", "1001"),
    ])
    def test_over_budget_verify_is_refused_up_front(self, argv):
        res = cli("verify", *argv)
        assert res.returncode == 3 and res.stdout == ""

    @pytest.mark.parametrize("p, q", [(100, 3), (400, 2)])
    def test_large_permanent_finishes_fast(self, p, q):
        # the cube-root bound once stepped by 1 from a float guess
        t0 = time.perf_counter()
        res = cli("permanent", "--p", str(p), "--q", str(q))
        assert time.perf_counter() - t0 < 2.0
        assert res.returncode == 0 and "upper_ok = true" in res.stdout

    def test_growth_past_newtons_limit_is_refused_up_front(self):
        # within the DP budget, but every row is checked against Newton
        t0 = time.perf_counter()
        res = cli("growth", "--q", "1000", "--pmax", "1001")
        assert time.perf_counter() - t0 < 1.0
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr == (
            "error: each growth row runs Newton's identities, limited to p <= 1000\n"
        )

    def test_permanent_on_dp_backend_past_ryser_limit_names_reason(self):
        res = cli("permanent", "--p", "25", "--q", "3", "--backend", "cycle_cover")
        assert res.returncode == 3 and res.stdout == ""
        assert "d11 must come from Ryser" in res.stderr

    def test_permanent_on_dp_backend_past_ryser_limit_in_process(self, capsys):
        argv = ["permanent", "--p", "25", "--q", "3", "--backend", "cycle_cover"]
        assert climod.run(argv) == 3
        assert capsys.readouterr() == ("", (
            "error: with the cycle_cover backend d11 must come from Ryser's "
            "expansion, which is limited to p <= 24\n"
        ))

    def test_growth_names_bad_q(self):
        res = cli("growth", "--q", "1", "--pmax", "5")
        assert res.returncode == 2 and res.stdout == ""
        assert "q must be at least 2, got q=1" in res.stderr

    def test_growth_names_bad_q_in_process(self, capsys):
        assert climod.run(["growth", "--q", "1", "--pmax", "5"]) == 2
        assert capsys.readouterr() == ("", "error: q must be at least 2, got q=1\n")

    def test_permanent_names_q_range(self):
        res = cli("permanent", "--p", "5", "--q", "1")
        assert res.returncode == 2 and res.stdout == ""
        assert "need p >= 3 and 2 <= q <= p-1, got p=5 q=1" in res.stderr

    def test_growth_table_within_budget_runs(self, capsys):
        assert climod.run(["growth", "--q", "2", "--pmax", "500"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 498

    def test_verify_failure_would_be_exit_1(self):
        # all suites pass, so exercise the passing path only
        res = cli("verify", "--suite", "prime", "--pmax", "10")
        assert res.returncode == 0

    def test_closed_stdout_is_exit_141_without_a_traceback(self):
        # the reader stops after one byte of the 82 KB polynomial, as
        # `tricirc phi --p 1000 --q 2 | head -c 1` does
        proc = subprocess.Popen(
            [sys.executable, "-m", "tricirc", "phi", "--p", "1000", "--q", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(1) == b"1"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == climod.EXIT_PIPE == 141
        assert "Traceback" not in err, err
        assert "Exception ignored" not in err, err

    def test_failed_check_through_main_is_one_error_line(self):
        # the DP's packed total +1 puts 3 covers in slot s = 0; (5, 3) runs
        # at its smallest image 2, which the message names
        patched = (
            "from tricirc import circulant, cli\n"
            "real = circulant._unpack_counts\n"
            "circulant._unpack_counts = lambda total, *rest: real(total + 1, *rest)\n"
            "cli.main()\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", patched, "permanent", "--p", "5", "--q", "3"],
            capture_output=True, text=True,
        )
        assert res.returncode == climod.EXIT_FAILED == 1
        assert res.stdout == ""
        assert "Traceback" not in res.stderr, res.stderr
        assert res.stderr.splitlines() == ["error: s = 0 holds 3 covers for p=5, q=2, not 2"]

    def test_verify_failure_is_exit_1(self, capsys, monkeypatch):
        real = phimod.trial_division
        monkeypatch.setattr(phimod, "trial_division", lambda n: n == 9 or real(n))
        monkeypatch.setenv(climod.WORKERS_ENV, "1")
        assert climod.run(["verify", "--suite", "prime", "--pmax", "10"]) == 1
        assert capsys.readouterr().out == (
            "suite=prime p_max=10 q=2 cases=8 failures=1\n"
            "first_counterexample: p=9: congruence check False, trial division True\n"
        )


class TestExitRule:
    """Only ``main`` freezes the heap, right before the process exits."""

    @pytest.mark.parametrize("argv, code", [
        (("phi", "--p", "8", "--q", "3"), 0),
        (("coeff", "--p", "8", "--q", "3", "--r", "5", "--s", "1"), 0),
        (("permanent", "--p", "8", "--q", "3"), 0),
        (("growth", "--q", "2", "--pmax", "8"), 0),
        (("verify", "--suite", "prime", "--pmax", "10"), 0),
        (("--help",), 0),
        (("phi", "--p", "5"), 2),
        (("phi", "--p", "6", "--q", "3", "--t", "3"), 3),
    ])
    def test_run_leaves_the_collector_alone(self, argv, code, capsys):
        before = gc.get_freeze_count()
        assert climod.run(list(argv)) == code
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_main_runs_atexit_handlers_on_a_frozen_heap(self):
        script = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "from tricirc import cli\n"
            "cli.main()\n"
        )
        argv = ("phi", "--p", "8", "--q", "3")
        res = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True)
        assert res.returncode == 0, res.stderr
        assert res.stderr == b"frozen True\n"
        assert res.stdout == subprocess.run(
            [sys.executable, "-m", "tricirc", *argv], capture_output=True, check=True
        ).stdout


def benchmark_must_refuse() -> tuple:
    """The requests that the benchmark's workloads require to exit 3."""
    path = REPO / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.MUST_REFUSE


class TestRefusalsJudgeTheRequestedPair:
    """The routes run at a cheaper image of q, but refuse what (p, q) asks."""

    @pytest.mark.parametrize("argv", benchmark_must_refuse(), ids=" ".join)
    def test_benchmark_refusals_exit_3(self, argv):
        res = subprocess.run(
            [sys.executable, "-m", "tricirc", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == 3 and res.stdout == "", res.stderr

    def test_dp_over_budget_although_its_image_is_narrow(self):
        # 1/13 = 5 mod 32 has a 6-bit window, q = 13 a 14-bit one: the
        # budget prices the image the DP runs at, so (32, 13) runs
        res = cli("phi", "--p", "32", "--q", "13", "--backend", "cycle_cover")
        assert res.returncode == 0
        assert res.stdout == cli("phi", "--p", "32", "--q", "13").stdout
        # (40, 21) runs at 1 - 21 = 20, whose window is over budget; the
        # refusal names the pair that was asked for
        res = cli("phi", "--p", "40", "--q", "21", "--backend", "cycle_cover")
        assert res.returncode == 3 and res.stdout == ""
        assert "p=40, q=21 (21-bit window)" in res.stderr

    def test_bareiss_past_its_limit(self):
        res = cli("phi", "--p", "97", "--q", "3", "--backend", "bareiss")
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr == "error: elimination is limited to p <= 96\n"


#: golden file stem -> the call whose text (.txt) and JSON (.json) bytes it pins
GOLDEN_RUNS = {
    "coeff_8_3_2_2": ("coeff", "--p", "8", "--q", "3", "--r", "2", "--s", "2"),
    "coeff_5_3_1_1": ("coeff", "--p", "5", "--q", "3", "--r", "1", "--s", "1"),
    "witness_17_5_6_9": ("witness", "--p", "17", "--q", "5", "--r", "6", "--s", "9"),
    "enumerate_5_3_2_1": ("enumerate", "--p", "5", "--q", "3", "--r", "2", "--s", "1"),
    "permanent_5_3": ("permanent", "--p", "5", "--q", "3"),
    "growth_3_8": ("growth", "--q", "3", "--pmax", "8"),
    "verify_prime_10": ("verify", "--suite", "prime", "--pmax", "10"),
}


class TestGolden:
    def test_phi_8_3_text_bytes(self):
        res = cli("phi", "--p", "8", "--q", "3")
        assert res.stdout == (GOLDEN / "phi_8_3.txt").read_text()

    def test_phi_5_3_text_bytes(self):
        res = cli("phi", "--p", "5", "--q", "3")
        assert res.stdout == (GOLDEN / "phi_5_3.txt").read_text()

    def test_phi_json_bytes(self):
        res = cli("phi", "--p", "5", "--q", "3", "--format", "json")
        assert res.stdout == (GOLDEN / "phi_5_3.json").read_text()
        res = cli("phi", "--p", "8", "--q", "3", "--format", "json")
        assert res.stdout == (GOLDEN / "phi_8_3.json").read_text()

    @pytest.mark.parametrize("suffix, fmt", [("txt", ()), ("json", ("--format", "json"))])
    @pytest.mark.parametrize("stem", list(GOLDEN_RUNS))
    def test_command_output_bytes(self, stem, suffix, fmt, capsys, monkeypatch):
        monkeypatch.setenv(climod.WORKERS_ENV, "1")
        assert climod.run([*GOLDEN_RUNS[stem], *fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{stem}.{suffix}").read_text()

    @pytest.mark.parametrize("command", ["", *climod._COMMANDS])
    def test_help_bytes(self, command, capsys, monkeypatch):
        # argparse alone writes help; the table-driven parser keeps its bytes
        monkeypatch.setenv("COLUMNS", "80")
        assert climod.run([command, "--help"] if command else ["--help"]) == 0
        stem = f"help_{command}" if command else "help"
        assert capsys.readouterr().out == (GOLDEN / f"{stem}.txt").read_text()


class TestJsonSchema:
    def test_phi(self):
        doc = json.loads(cli("phi", "--p", "8", "--q", "3", "--format", "json").stdout)
        check_schema(doc)
        assert doc["backend"] == "newton" and not doc["swapped"]

    def test_phi_swapped(self):
        doc = json.loads(
            cli("phi", "--p", "6", "--q", "5", "--t", "2", "--format", "json").stdout
        )
        check_schema(doc)
        assert doc["swapped"] and doc["canonical_q"] == 4

    def test_coeff_present_and_absent(self):
        doc = json.loads(
            cli("coeff", "--p", "8", "--q", "3", "--r", "2", "--s", "2",
                "--format", "json").stdout
        )
        check_schema(doc)
        assert doc["value"] == "-12"
        doc = json.loads(
            cli("coeff", "--p", "5", "--q", "3", "--r", "1", "--s", "1",
                "--format", "json").stdout
        )
        check_schema(doc)
        assert doc["present"] is False and doc["ell"] is None

    def test_witness(self):
        doc = json.loads(
            cli("witness", "--p", "17", "--q", "5", "--r", "6", "--s", "9",
                "--format", "json").stdout
        )
        check_schema(doc)
        assert doc["k"] == 3 and len(doc["cycles"]) == 3

    def test_enumerate(self):
        doc = json.loads(
            cli("enumerate", "--p", "5", "--q", "3", "--r", "2", "--s", "1",
                "--format", "json").stdout
        )
        check_schema(doc)
        assert doc["count"] == 5

    def test_permanent(self):
        doc = json.loads(
            cli("permanent", "--p", "5", "--q", "3", "--format", "json").stdout
        )
        check_schema(doc)
        assert doc["d11"] == "13" and doc["lower_ok"] and doc["upper_ok"]

    def test_growth(self):
        doc = json.loads(cli("growth", "--q", "3", "--pmax", "6",
                             "--format", "json").stdout)
        check_schema(doc)
        assert doc["rows"][0]["p"] == 4

    def test_verify(self):
        doc = json.loads(
            cli("verify", "--suite", "lemmas", "--cases", "300",
                "--format", "json").stdout
        )
        check_schema(doc)
        assert doc["passed"] is True and doc["cases"] == 900


class TestTextFormats:
    def test_coeff_lines(self):
        res = cli("coeff", "--p", "8", "--q", "3", "--r", "2", "--s", "2")
        assert res.stdout == "a(2,2) = -12 [ell=1 k=1 sign=-1 magnitude=12]\n"
        res = cli("coeff", "--p", "5", "--q", "3", "--r", "1", "--s", "1")
        assert res.stdout == "a(1,1) = 0 [absent]\n"

    def test_enumerate_lists_members(self):
        res = cli("enumerate", "--p", "5", "--q", "3", "--r", "2", "--s", "1")
        assert res.stdout.splitlines() == [
            "{1,2,4,5,3}", "{1,3,4,2,5}", "{2,3,1,4,5}", "{2,5,3,4,1}", "{4,2,3,5,1}",
        ]

    def test_enumerate_checks_the_class_size(self, capsys, monkeypatch):
        # a class search that loses a member fails before printing anything
        real = permclass.enumerate_by_profile

        def drops_one(p, q):
            classes = real(p, q)
            classes[(2, 1)] = classes[(2, 1)][1:]
            return classes

        monkeypatch.setattr(permclass, "enumerate_by_profile", drops_one)
        argv = ["enumerate", "--p", "5", "--q", "3", "--r", "2", "--s", "1"]
        assert_failed_check(argv, r"4 members .* = 5", capsys)

    @pytest.mark.parametrize("field", ["k", "sign"])
    def test_witness_checks_the_structure_it_prints(self, field, capsys, monkeypatch):
        # a class rule that miscounts the cycles or flips the sign fails
        # before anything is printed
        real = permclass.predict_structure

        def wrong(key):
            rep = real(key)
            if field == "k":
                return permclass.StructureReport(rep.k + 1, rep.cycles_each, rep.sign)
            return permclass.StructureReport(rep.k, rep.cycles_each, -rep.sign)

        monkeypatch.setattr(permclass, "predict_structure", wrong)
        argv = ["witness", "--p", "17", "--q", "5", "--r", "6", "--s", "9",
                "--format", "json"]
        assert_failed_check(argv, r"has 3 cycles and sign \+1", capsys)

    def test_witness_checks_the_steps_of_each_cycle(self):
        # a class rule that keeps k and the sign but swaps the steps of
        # each cycle, (2, 3) -> (3, 2), exits 1 before anything is printed
        patched = (
            "import sys\n"
            "from tricirc import cli, permclass\n"
            "real = permclass.predict_structure\n"
            "def swapped(key):\n"
            "    rep = real(key)\n"
            "    return permclass.StructureReport(rep.k, rep.cycles_each[::-1], rep.sign)\n"
            "permclass.predict_structure = swapped\n"
            "sys.exit(cli.run(sys.argv[1:]))\n"
        )
        argv = ["witness", "--p", "17", "--q", "5", "--r", "6", "--s", "9"]
        res = subprocess.run(
            [sys.executable, "-c", patched, *argv], capture_output=True, text=True
        )
        assert res.returncode == 1 and res.stdout == ""
        assert "Traceback" not in res.stderr, res.stderr
        [line] = res.stderr.splitlines()
        assert (
            "has 3 cycles and sign +1, but its class has k = 3 cycles of "
            "3 1-steps and 2 q-steps and sign +1"
        ) in line
        assert cli(*argv).returncode == 0

    def test_witness_walks_its_member_once(self, capsys, monkeypatch):
        # one walk serves the check and the printout; the sign is read
        # off the cycles already walked
        calls = {"cycles": 0, "sign": 0}
        real_cycles = permclass.Permutation.cycles
        real_sign = permclass.Permutation.sign

        def counted(name, real):
            def method(self):
                calls[name] += 1
                return real(self)
            return method

        monkeypatch.setattr(permclass.Permutation, "cycles", counted("cycles", real_cycles))
        monkeypatch.setattr(permclass.Permutation, "sign", counted("sign", real_sign))
        argv = ["witness", "--p", "17", "--q", "5", "--r", "6", "--s", "9"]
        assert climod.run(argv) == 0
        assert calls == {"cycles": 1, "sign": 0}
        assert capsys.readouterr().out == (
            "{2,7,4,9,6,11,12,8,10,15,16,13,1,14,3,17,5}\n"
            "(1,2,7,12,13)(3,4,9,10,15)(5,6,11,16,17)\n"
        )

    def test_enumerate_empty_class_prints_nothing(self):
        res = cli("enumerate", "--p", "5", "--q", "3", "--r", "1", "--s", "1")
        assert res.returncode == 0 and res.stdout == ""

    def test_witness_empty_class_is_usage_error(self):
        res = cli("witness", "--p", "5", "--q", "3", "--r", "1", "--s", "1")
        assert res.returncode == 2

    def test_growth_csv(self):
        res = cli("growth", "--q", "3", "--pmax", "8")
        lines = res.stdout.split("\n")
        assert lines[0] == "p,q,M,d11,n_monomials,root"
        assert lines[2] == "5,3,5,13,5,1.3797"
        assert res.stdout.endswith("\n") and not res.stdout.endswith("\n\n")
        assert all(line == line.rstrip() for line in lines)

    def test_reduction_note_goes_to_stderr(self):
        res = cli("phi", "--p", "5", "--q", "3", "--t", "2")
        assert "reduced" in res.stderr
        assert res.stdout.startswith("1 - x^5")

    def test_refused_reduced_spec_prints_only_the_error(self, capsys):
        # canonical (1001, 2) is past NEWTON_LIMIT: no note before the error
        assert climod.run(["phi", "--p", "1001", "--q", "2", "--t", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: Newton's identities are limited to p <= 1000"]


def argparse_namespace(argv):
    """``vars()`` of what ``build_parser()`` parses from argv, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(climod.build_parser().parse_args(argv))
        except SystemExit:
            return None


BASE = ["phi", "--p", "5", "--q", "3"]

#: argvs at the edge of the fast parse -> whether it takes them; every
#: other one is left to argparse, which may accept it or not
EDGE_ARGVS = [
    (BASE, True),
    ([*BASE, "--p", "6"], False),  # a repeated flag
    (["phi", "--p=5", "--q", "3"], False),
    (["verify", "--suite", "prime", "--pm", "10"], False),  # abbreviation
    (["phi", "--p", "5", "--q", "-1"], False),
    ([*BASE, "--"], False),
    (["--", *BASE], False),
    (["phi", "-h"], False),
    (["phi", "--help"], False),
    ([*BASE, "--help"], False),
    (["--help"], False),
    (["phi", "--p", "5"], False),  # a required flag missing
    ([*BASE, "--t"], False),  # an odd token count
    ([*BASE, "--format", "xml"], False),
    (["phi", "--p", "0x10", "--q", "3"], False),
    (["phi", "--p", "1_000", "--q", "3"], True),
    (["phi", "--p", " 7", "--q", "3"], True),
    (["phi", "--p", "", "--q", "3"], False),
    (["verify", "--suite", ""], True),
    (["phy", "--p", "5", "--q", "3"], False),
    (["verify", "--suite", "prime", "--q_policy", "all"], False),
    ([], False),
]


class TestFastParse:
    """The fast parse accepts only what argparse parses the same way."""

    def test_every_benchmark_job_takes_the_fast_parse(self):
        parser = climod.build_parser()
        refs = json.loads((REPO / "benchmark" / "refs.json").read_text())["refs"]
        for argv in map(str.split, refs):
            fast = climod._fast_parse(argv)
            assert fast is not None, argv
            assert vars(fast) == vars(parser.parse_args(argv)), argv

    def test_fuzz_argvs_parse_as_argparse_parses_them(self):
        taken = 0
        for argv in fuzz_argvs():
            fast = climod._fast_parse(argv)
            if fast is not None:
                taken += 1
                assert vars(fast) == argparse_namespace(argv), argv
        assert taken > RUNS // 2

    @pytest.mark.parametrize("argv, fast", EDGE_ARGVS, ids=[repr(a) for a, _ in EDGE_ARGVS])
    def test_edge_argvs(self, argv, fast):
        got = climod._fast_parse(argv)
        assert (got is not None) == fast
        if fast:
            assert vars(got) == argparse_namespace(argv)

    def test_fallback_keeps_argparse_exit_and_text(self, capsys):
        # argparse takes the last of a repeated flag and reads an abbreviation
        assert climod.run(["phi", "--p", "5", "--q", "3", "--p", "6"]) == 0
        repeated = capsys.readouterr().out
        assert climod.run(["phi", "--p", "6", "--q", "3"]) == 0
        assert capsys.readouterr().out == repeated
        assert climod.run(["verify", "--suite", "prime", "--pm", "10"]) == 0
        assert capsys.readouterr().out.startswith("suite=prime p_max=10 ")
        assert climod.run(["phi", "--p", "0x10", "--q", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument --p: invalid int value: '0x10'\n")

    def test_a_handler_rebound_on_the_module_is_the_one_that_runs(self, capsys, monkeypatch):
        # run() looks ``_cmd_<command>`` up by name after either parse
        monkeypatch.setattr(climod, "_cmd_phi", lambda args: ({"p": args.p}, ["rebound"]))
        assert climod.run(["phi", "--p", "5", "--q", "3"]) == 0
        assert capsys.readouterr().out == "rebound\n"
        assert climod.run(["phi", "--p=6", "--q", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"command": "phi", "p": 6}\n'


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = cli("phi", "--p", "9", "--q", "4", "--format", "json").stdout
        b = cli("phi", "--p", "9", "--q", "4", "--format", "json").stdout
        assert a == b

    def test_worker_count_does_not_change_output(self):
        for argv, workers in (
            (("verify", "--suite", "witness", "--pmax", "14", "--format", "json"), "3"),
            (("verify", "--suite", "prime", "--pmax", "12"), "2"),
        ):
            seq = cli(*argv, env_extra={"TRICIRC_WORKERS": "1"})
            par = cli(*argv, env_extra={"TRICIRC_WORKERS": workers})
            assert seq.stdout == par.stdout
            assert seq.returncode == par.returncode == 0

    def test_bad_worker_env_is_usage_error(self):
        res = cli("verify", "--suite", "prime", "--pmax", "6",
                  env_extra={"TRICIRC_WORKERS": "many"})
        assert res.returncode == 2

    @pytest.mark.parametrize("raw, text", [
        ("many", "must be an integer, got 'many'"),
        ("0", "must be positive, got 0"),
    ])
    def test_bad_worker_env_in_process(self, raw, text, capsys, monkeypatch):
        monkeypatch.setenv(climod.WORKERS_ENV, raw)
        assert climod.run(["verify", "--suite", "prime", "--pmax", "6"]) == 2
        assert capsys.readouterr() == ("", f"error: TRICIRC_WORKERS {text}\n")


#: modules that --help and the default route of phi and coeff never load
DEFAULT_ROUTE_UNUSED = frozenset({
    "cmath", "dataclasses", "fractions", "gc", "json", "tricirc.circulant",
    "tricirc.permanent", "tricirc.permclass", "tricirc.verify",
})


#: modules that no command loads: dataclasses brings in inspect, the
#: float check, the only user of cmath and fractions (which brings in
#: decimal and numbers), is on no command's path, and gc is main's
#: alone, imported after run has returned
NEVER_LOADED = frozenset({
    "cmath", "dataclasses", "decimal", "fractions", "gc", "inspect", "numbers",
})

#: argparse and what its import and its first message load: only help
#: and a malformed argv need them
ARGPARSE = frozenset({"argparse", "gettext", "locale"})

#: the package modules that every command loads
ALWAYS_LOADED = frozenset({
    "tricirc.bipoly", "tricirc.cli", "tricirc.errors", "tricirc.phi",
})

#: suite -> a small run's size flags
SMALL_SUITE_RUNS = {
    "support": ("--pmax", "6"),
    "sign": ("--pmax", "6"),
    "cycle": ("--pmax", "6"),
    "witness": ("--pmax", "10"),
    "permanent": ("--pmax", "7"),
    "prime": ("--pmax", "12"),
    "lemmas": ("--cases", "64"),
}

#: suite -> the modules its routes live in, beyond ALWAYS_LOADED and verify
SUITE_ROUTES = {
    "support": {"tricirc.circulant"},
    "sign": {"tricirc.circulant"},
    "cycle": {"tricirc.circulant", "tricirc.permclass"},
    "witness": {"tricirc.permclass"},
    "permanent": {"tricirc.circulant", "tricirc.permanent"},
    "prime": set(),
    "lemmas": {"tricirc.permclass"},
}


def loaded_by(*argv):
    """Exit code, stdout and the modules that ``cli.run(argv)`` adds, in a fresh interpreter.

    The modules loaded before ``from tricirc import cli`` are left out,
    so what the interpreter's site hooks preload (typing, re, enum, ...)
    is never counted against the CLI.
    """
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "from tricirc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli.run({list(argv)!r})\n"
        "print(code, *sorted(set(sys.modules) - before))\n"
        "print(out.getvalue(), end='')\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    head, _, out = res.stdout.partition("\n")
    code, *added = head.split()
    return int(code), out, set(added)


class TestImportGate:
    @pytest.mark.parametrize("argv", [
        ("phi", "--p", "8", "--q", "3"),
        ("coeff", "--p", "8", "--q", "3", "--r", "5", "--s", "1"),
        ("--help",),
    ])
    def test_default_route_loads_only_the_core(self, argv):
        code, out, added = loaded_by(*argv)
        assert code == 0 and out
        assert {"tricirc.phi"} <= added
        assert not added & DEFAULT_ROUTE_UNUSED, sorted(added & DEFAULT_ROUTE_UNUSED)

    @pytest.mark.parametrize("argv", [
        ("phi", "--p", "8", "--q", "3", "--backend", "bareiss"),
        ("verify", "--suite", "support", "--pmax", "6"),
        ("verify", "--suite", "sign", "--pmax", "6"),
        ("verify", "--suite", "cycle", "--pmax", "6"),
        ("permanent", "--p", "10", "--q", "3"),
        ("growth", "--q", "2", "--pmax", "8"),
        ("verify", "--suite", "permanent", "--pmax", "7"),
    ])
    def test_exact_cross_checks_load_no_fractions(self, argv):
        # only the float check's sample grid is fractions; the exact
        # routes and the permanent's lower bound, a Ratio, load none
        code, out, added = loaded_by(*argv)
        assert code == 0 and out
        fractions = {"fractions", "decimal", "numbers"}
        assert not added & fractions, sorted(added & fractions)

    def test_json_format_adds_json_only(self):
        code, out, added = loaded_by("phi", "--p", "8", "--q", "3", "--format", "json")
        assert code == 0 and json.loads(out)["backend"] == "newton"
        assert added & DEFAULT_ROUTE_UNUSED == {"json"}

    def test_cross_check_backend_loads_circulant_on_demand(self):
        code, out, added = loaded_by("phi", "--p", "8", "--q", "3", "--backend", "bareiss")
        assert code == 0
        assert out == loaded_by("phi", "--p", "8", "--q", "3")[1]
        assert "tricirc.circulant" in added
        assert not added & {"tricirc.permclass", "tricirc.permanent", "tricirc.verify"}

    @pytest.mark.parametrize("argv", [
        ("permanent", "--p", "10", "--q", "3"),
        ("growth", "--q", "2", "--pmax", "8"),
    ])
    def test_counting_commands_load_no_permutation_code(self, argv):
        code, out, added = loaded_by(*argv)
        assert code == 0 and out
        assert "tricirc.permanent" in added and "tricirc.permclass" not in added
        assert not added & NEVER_LOADED, sorted(added & NEVER_LOADED)

    @pytest.mark.parametrize("suite, size", list(SMALL_SUITE_RUNS.items()))
    def test_each_suite_loads_only_its_routes(self, suite, size):
        code, out, added = loaded_by("verify", "--suite", suite, *size)
        assert code == 0 and out.endswith(" failures=0\n")
        assert not added & (NEVER_LOADED | ARGPARSE), sorted(added & (NEVER_LOADED | ARGPARSE))
        package = {m for m in added if m.startswith("tricirc.")}
        assert package == ALWAYS_LOADED | {"tricirc.verify"} | SUITE_ROUTES[suite]

    @pytest.mark.parametrize("argv", [
        ("phi", "--p", "8", "--q", "3"),
        ("coeff", "--p", "8", "--q", "3", "--r", "5", "--s", "1", "--format", "json"),
        ("permanent", "--p", "10", "--q", "3"),
        ("growth", "--q", "2", "--pmax", "8"),
    ])
    def test_well_formed_jobs_load_no_argparse(self, argv):
        code, out, added = loaded_by(*argv)
        assert code == 0 and out
        assert not added & ARGPARSE, sorted(added & ARGPARSE)

    @pytest.mark.parametrize("argv, code", [
        (("--help",), 0), (("phi", "--help"), 0), (("phi", "--p"), 2),
    ])
    def test_help_and_errors_load_argparse(self, argv, code):
        got, _, added = loaded_by(*argv)
        assert got == code and "argparse" in added

    def test_no_module_imports_dataclasses(self):
        pattern = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.M)
        for path in (REPO / "src" / "tricirc").glob("*.py"):
            assert not pattern.search(path.read_text()), path.name

    def test_phi_and_help_load_only_their_modules(self):
        # each command imports what it uses: verify, permanent and the
        # process pool stay unloaded unless the command needs them
        script = (
            "import contextlib, io, sys\n"
            "from tricirc import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.run(['phi', '--p', '8', '--q', '3']), cli.run(['--help'])]\n"
            "banned = ('tricirc.verify', 'tricirc.permanent',\n"
            "          'concurrent.futures', 'multiprocessing')\n"
            "print(codes, sorted(m for m in banned if m in sys.modules))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[0, 0] []\n"

    def test_verify_fans_out_without_a_process_pool(self):
        # two workers fork their shares directly: neither the pool nor
        # multiprocessing is loaded, and no module of the package imports them
        script = (
            "import contextlib, io, sys\n"
            "from tricirc import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.run(['verify', '--suite', 'prime', '--pmax', '12'])\n"
            "banned = ('concurrent.futures', 'multiprocessing')\n"
            "print(code, out.getvalue().split()[-1],\n"
            "      sorted(m for m in banned if m in sys.modules))\n"
        )
        env = dict(os.environ, TRICIRC_WORKERS="2")
        res = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "0 failures=0 []\n"
        pattern = re.compile(r"^\s*(from|import)\s+(concurrent|multiprocessing)\b", re.M)
        for path in (REPO / "src" / "tricirc").glob("*.py"):
            assert not pattern.search(path.read_text()), path.name

    def test_unknown_suite_is_refused_by_verify(self):
        res = cli("verify", "--suite", "everything")
        assert res.returncode == 2 and res.stdout == ""
        assert "unknown suite 'everything'; choose from ('support'," in res.stderr


# ---------------------------------------------------------------------------
# corruption table: one faulty route, one small call, which check catches it
# ---------------------------------------------------------------------------

def _newton_5_3_plus(monkeypatch, terms):
    # on its module, the one binding that phi_polynomial and the sign suite call
    real = phimod.det_newton

    def corrupt(spec):
        poly = real(spec)
        return poly + BiPoly(terms) if (spec.p, spec.q) == (5, 3) else poly

    monkeypatch.setattr(phimod, "det_newton", corrupt)


def newton_plus_one(monkeypatch):
    # +1 on a(2, 1) of Newton's (5, 3) polynomial, -5 -> -4
    _newton_5_3_plus(monkeypatch, {(2, 1): 1})


def newton_gains_absent_term(monkeypatch):
    # a(1, 1) of Newton's (5, 3) polynomial, an absent term, 0 -> 1
    _newton_5_3_plus(monkeypatch, {(1, 1): 1})


def newton_loses_present_term(monkeypatch):
    # a(2, 1) of Newton's (5, 3) polynomial, -5 -> 0
    _newton_5_3_plus(monkeypatch, {(2, 1): 5})


def term_sign_flipped(monkeypatch):
    real = phimod.PermClassKey.term_sign.fget
    flipped = property(lambda key: None if real(key) is None else -real(key))
    monkeypatch.setattr(phimod.PermClassKey, "term_sign", flipped)


def dp_count_plus_one(monkeypatch):
    # +1 on the constant term; the cached polynomial itself is left alone.
    # On its module, so det_cycle_cover reads the fault as the permanent does
    real = circulant.cycle_cover_counts

    def corrupt(p, q):
        return real(p, q) + BiPoly({(0, 0): 1})

    monkeypatch.setattr(circulant, "cycle_cover_counts", corrupt)


# (key, rule, text) of each faulty witness step rule of tests/test_permclass.py
OPEN_WALK, REVISIT, CROSSING, SWAPPED = FAULTY_STEP_RULES


def words_all_east(monkeypatch):
    # a witness walk stays open, and build_path misses its end point
    monkeypatch.setattr(permclass, "_path_steps", OPEN_WALK[1])


def walk_revisits_a_point(monkeypatch):
    monkeypatch.setattr(permclass, "_path_steps", REVISIT[1])


def witness_cycles_cross(monkeypatch):
    monkeypatch.setattr(permclass, "_path_steps", CROSSING[1])


def step_counts_swapped(monkeypatch):
    monkeypatch.setattr(permclass, "_path_steps", SWAPPED[1])


def last_step_flipped(monkeypatch):
    real = permclass._path_steps

    def corrupt(r, s, east, north):
        steps = real(r, s, east, north)
        steps[-1] = north if steps[-1] == east else east
        return steps

    monkeypatch.setattr(permclass, "_path_steps", corrupt)


def unpack_total_plus_one(monkeypatch):
    # +1 on the DP's packed total puts 3 covers in slot s = 0; the cache is
    # cleared first, or a clean result from an earlier call hides the fault
    real = circulant._unpack_counts
    circulant.cycle_cover_counts.cache_clear()
    monkeypatch.setattr(
        circulant, "_unpack_counts", lambda total, *rest: real(total + 1, *rest)
    )


def walked_total_plus_one(monkeypatch):
    # +1 on the packed total of row p = 5 of the walk at q = 3; the per-p
    # DP would run (5, 3) at its image 2
    real = circulant._unpack_counts
    monkeypatch.setattr(
        circulant,
        "_unpack_counts",
        lambda total, p, q, wbits: real(total + ((p, q) == (5, 3)), p, q, wbits),
    )


def root_over_p_plus_one(monkeypatch):
    # the growth root as M^(1/(p+1)) instead of M^(1/p)
    monkeypatch.setattr(permmod, "_root", lambda m, p: math.exp(math.log(m) / (p + 1)))


def max_abs_plus_one(monkeypatch):
    real = BiPoly.max_abs_coefficient
    monkeypatch.setattr(BiPoly, "max_abs_coefficient", lambda self: real(self) + 1)


def len_plus_one(monkeypatch):
    real = BiPoly.__len__
    monkeypatch.setattr(BiPoly, "__len__", lambda self: real(self) + 1)


def lower_bound_plus_one(monkeypatch):
    real = permmod._lowest_terms

    def corrupt(n, d):
        bound = real(n, d)
        return permmod.Ratio(bound.numerator + 1, bound.denominator)

    monkeypatch.setattr(permmod, "_lowest_terms", corrupt)


def power_sum_plus_one(monkeypatch):
    # +1 on the x^5 term of tr(A^5) for (5, 3), which Newton divides by 5
    real = phimod.power_sums

    def corrupt(p, q):
        sums = real(p, q)
        if (p, q) == (5, 3):
            sums[5][0] += 1
        return sums

    monkeypatch.setattr(phimod, "power_sums", corrupt)


def divided_constant_plus_one(monkeypatch):
    # +1 on the constant term of every quotient by a divisor other than 1,
    # the divisions that run the power-series loop
    real = bipoly.exact_div

    def corrupt(a, b):
        quot = real(a, b)
        return quot if b == ONE else quot + ONE

    monkeypatch.setattr(bipoly, "exact_div", corrupt)


def abs_sum_plus_one(monkeypatch):
    real = BiPoly.abs_coefficient_sum
    monkeypatch.setattr(BiPoly, "abs_coefficient_sum", lambda self: real(self) + 1)


def cube_root_plus_one(monkeypatch):
    real = permmod._ceil_cube_root
    monkeypatch.setattr(permmod, "_ceil_cube_root", lambda n: real(n) + 1)


def support_rule_flipped(monkeypatch):
    real = phimod.PermClassKey.is_empty.fget
    monkeypatch.setattr(phimod.PermClassKey, "is_empty", property(lambda key: not real(key)))


def ell_plus_one(monkeypatch):
    # k and the term sign read ell, so the fault reaches them too
    real = phimod.PermClassKey.ell.fget
    corrupt = property(lambda key: None if real(key) is None else real(key) + 1)
    monkeypatch.setattr(phimod.PermClassKey, "ell", corrupt)


def k_plus_one(monkeypatch):
    real = phimod.PermClassKey.k.fget
    corrupt = property(lambda key: None if real(key) is None else real(key) + 1)
    monkeypatch.setattr(phimod.PermClassKey, "k", corrupt)


def _structure_edited(monkeypatch, edit):
    real = permclass.predict_structure
    monkeypatch.setattr(permclass, "predict_structure", lambda key: edit(real(key)))


def structure_k_plus_one(monkeypatch):
    _structure_edited(
        monkeypatch,
        lambda rep: permclass.StructureReport(rep.k + 1, rep.cycles_each, rep.sign),
    )


def structure_sign_flipped(monkeypatch):
    _structure_edited(
        monkeypatch,
        lambda rep: permclass.StructureReport(rep.k, rep.cycles_each, -rep.sign),
    )


def _search_edited(monkeypatch, edit):
    real = permclass.enumerate_by_profile

    def corrupt(p, q):
        classes = real(p, q)
        edit(p, classes)
        return classes

    monkeypatch.setattr(permclass, "enumerate_by_profile", corrupt)


def search_drops_a_class(monkeypatch):
    # the class search loses the class (p, 0) of the p-cycle
    _search_edited(monkeypatch, lambda p, classes: classes.pop((p, 0)))


def search_repeats_a_member(monkeypatch):
    # each class lists its first member again in place of its last
    def edit(p, classes):
        for members in classes.values():
            members[-1] = members[0]

    _search_edited(monkeypatch, edit)


def reduction_takes_the_second_image(monkeypatch):
    # reduce_theta reads the second entry of the image table: the route
    # maps its polynomial back through that entry, so only the reduction
    # that phi prints is wrong
    def corrupt(spec):
        images = phimod.canonical_images(spec.p, spec.q, spec.t)
        qp, (order, _) = list(images.items())[1]
        return phimod.ReducedSpec(phimod.CirculantSpec(spec.p, qp), order == "zyx")

    monkeypatch.setattr(phimod, "reduce_theta", corrupt)


def last_case_dropped(monkeypatch):
    real = verifymod._case_list
    monkeypatch.setattr(verifymod, "_case_list", lambda suite, params: real(suite, params)[:-1])


ENUMERATE_5_3 = ("enumerate", "--p", "5", "--q", "3", "--r", "2", "--s", "1")
COEFF_5_3 = ("coeff", "--p", "5", "--q", "3", "--r", "2", "--s", "1")
WITNESS_17_5 = ("witness", "--p", "17", "--q", "5", "--r", "6", "--s", "9")
WITNESS_5_CYCLE = ("witness", "--p", "5", "--q", "3", "--r", "5", "--s", "0")
COEFF_8_3 = ("coeff", "--p", "8", "--q", "3", "--r", "4", "--s", "4")
ENUMERATE_5_CYCLE = ("enumerate", "--p", "5", "--q", "3", "--r", "5", "--s", "0")
PHI_REDUCED_JSON = ("phi", "--p", "5", "--q", "4", "--t", "3", "--format", "json")
VERIFY_PRIME_12 = ("verify", "--suite", "prime", "--pmax", "12")
PERMANENT_5_3 = ("permanent", "--p", "5", "--q", "3")

#: (corruption, call, InternalInconsistency text) for every fault that a
#: check in the call's own run catches; the call exits 1 with the text
#: on one stderr line.  Newton's unit constant term has no row: slice 0
#: is the literal {0: 1}, and every later slice holds only terms of
#: positive degree, so no fault in the power sums or the divisions can
#: reach the constant term that the check reads
CAUGHT = [
    (newton_plus_one, ENUMERATE_5_3, r"5 members enumerated .* = 4"),
    (newton_plus_one, PERMANENT_5_3, "differs from the absolute determinant"),
    (term_sign_flipped, COEFF_5_3, "contradicts the gcd rule"),
    (dp_count_plus_one, PERMANENT_5_3, "differs from the absolute determinant"),
    (last_step_flipped, WITNESS_17_5, "word from 1 ends at 14, not back at the start"),
    (walk_revisits_a_point, WITNESS_5_CYCLE, REVISIT[2] + "$"),
    (witness_cycles_cross, WITNESS_17_5, CROSSING[2] + "$"),
    (step_counts_swapped, WITNESS_5_CYCLE, SWAPPED[2] + "$"),
    (unpack_total_plus_one, PERMANENT_5_3, "s = 0 holds 3 covers for p=5, q=2"),
    (power_sum_plus_one, ("phi", "--p", "5", "--q", "3"), "5 does not divide the coefficient -6"),
    (power_sum_plus_one, ("phi", "--p", "5", "--q", "4", "--t", "3"),
     "5 does not divide the coefficient -6"),
    (dp_count_plus_one, ("growth", "--q", "3", "--pmax", "5"),
     "differs from the absolute determinant"),
    (walked_total_plus_one, ("growth", "--q", "3", "--pmax", "8"),
     "s = 0 holds 3 covers for p=5, q=3"),
    (root_over_p_plus_one, ("growth", "--q", "3", "--pmax", "5"),
     r"printed root 1\.3195 is not M\^\(1/4\) to 1e-4 for \(p=4, q=3\)"),
    (max_abs_plus_one, ("permanent", "--p", "9", "--q", "4"),
     r"M = 19 differs from the largest count 18 for \(p=9, q=4\)"),
    (len_plus_one, ("growth", "--q", "3", "--pmax", "6"),
     r"N = 6 differs from the 5 classes for \(p=4, q=3\)"),
    (max_abs_plus_one, ("growth", "--q", "3", "--pmax", "6"),
     r"M = 5 differs from the largest count 4 for \(p=4, q=3\)"),
    (len_plus_one, ("permanent", "--p", "9", "--q", "4"),
     r"N = 9 differs from the 8 classes for \(p=9, q=4\)"),
    (len_plus_one, ("permanent", "--p", "9", "--q", "4", "--backend", "cycle_cover"),
     r"N = 9 differs from the 8 classes for \(p=9, q=4\)"),
    (lower_bound_plus_one, PERMANENT_5_3,
     r"lower bound 5833/625 is not 3\^5 5!/5\^5 in lowest terms"),
    (max_abs_plus_one, ("permanent", "--p", "9", "--q", "4", "--backend", "cycle_cover"),
     r"M = 19 differs from the largest count 18 for \(p=9, q=4\)"),
    (divided_constant_plus_one, ("phi", "--p", "6", "--q", "3", "--backend", "bareiss"),
     r"pivot at step 4 lost its unit constant term: BiPoly\('2 - 3\*x\^2\*y - y\^3'\)$"),
    (divided_constant_plus_one, ("phi", "--p", "4", "--q", "3", "--backend", "bareiss"),
     r"^determinant lost its unit constant term$"),
    (newton_gains_absent_term, ("coeff", "--p", "5", "--q", "3", "--r", "1", "--s", "1"),
     r"support predicate says a\(1,1\) = 0 for \(p=5, q=3\) but the backend found 1$"),
    (newton_loses_present_term, COEFF_5_3,
     r"support predicate says a\(2,1\) != 0 for \(p=5, q=3\) but the backend found 0$"),
    (abs_sum_plus_one, PERMANENT_5_3,
     r"permanent 13 differs from the absolute coefficient sum 14 for \(p=5, q=3\)"),
    (cube_root_plus_one, PERMANENT_5_3, r"upper bound 21 is not ceil\(6\^\(5/3\)\)"),
    (support_rule_flipped, COEFF_5_3,
     r"support predicate says a\(2,1\) = 0 for \(p=5, q=3\) but the backend found -5$"),
    # the ell check runs before the sign check, which at (8, 3, 4, 4) would
    # also catch ell + 1; at (5, 3, 2, 1) the sign check would not
    (ell_plus_one, COEFF_8_3, r"ell = 3 of a\(4,4\) is not \(r \+ s\*q\)/p for \(p=8, q=3\)$"),
    (ell_plus_one, COEFF_5_3, r"ell = 2 of a\(2,1\) is not \(r \+ s\*q\)/p for \(p=5, q=3\)$"),
    (k_plus_one, COEFF_5_3, r"backend sign of a\(2,1\) = -5 contradicts the gcd rule sign 1"),
    (structure_k_plus_one, WITNESS_17_5,
     r"has 3 cycles and sign \+1, but its class has k = 4 cycles of 2 1-steps"),
    (structure_sign_flipped, WITNESS_17_5, r"has 3 cycles and sign \+1, .* and sign -1$"),
    (search_drops_a_class, ENUMERATE_5_CYCLE,
     r"0 members enumerated for PermClassKey\(p=5, q=3, r=5, s=0\), but \|a\(r, s\)\| = 1"),
    (structure_k_plus_one, ENUMERATE_5_3,
     r"member \{1,2,4,5,3\} of PermClassKey\(p=5, q=3, r=2, s=1\) does not fit "
     r"StructureReport\(k=2, cycles_each=\(2, 1\), sign=1\)$"),
    (search_repeats_a_member, ENUMERATE_5_3,
     r"member \{1,2,4,5,3\} of PermClassKey\(p=5, q=3, r=2, s=1\) follows \{2,5,3,4,1\}: "
     "the members are not strictly increasing$"),
    (reduction_takes_the_second_image, PHI_REDUCED_JSON,
     r"reduced to CirculantSpec\(p=5, q=2, t=1\) with swapped = True, "
     r"but the rule needs q' \* 3 = 4 mod 5 with swapped = False$"),
    (last_case_dropped, VERIFY_PRIME_12, r"^the prime suite listed 9 cases, expected 10$"),
]

#: (corruption, call, the ROADMAP item whose check would catch it): each
#: call still prints the corrupted number and exits 0; a row moves to
#: CAUGHT when its check lands, and a row is added only for a printed
#: field that no check has covered (FIELD_ROWS pins every field's row)
UNDETECTED = [
    (newton_plus_one, ("phi", "--p", "5", "--q", "3"), 1),
    (newton_plus_one, COEFF_5_3, 1),
    (term_sign_flipped, ("phi", "--p", "5", "--q", "3", "--backend", "cycle_cover"), 1),
]


def _row_id(row):
    corrupt, argv = row[:2]
    # a reduced spec or another backend is a second row for the same
    # corruption and command
    reduced = f"-t{argv[argv.index('--t') + 1]}" if "--t" in argv else ""
    backend = f"-{argv[argv.index('--backend') + 1]}" if "--backend" in argv else ""
    return f"{corrupt.__name__}-{argv[0]}{reduced}{backend}"


def _row_ids(rows):
    # one corruption and command at two sizes, reaching two checks, adds p
    ids = [_row_id(row) for row in rows]
    return [
        f"{i}-p{argv[argv.index('--p') + 1]}" if ids.count(i) > 1 else i
        for i, (_, argv, _) in zip(ids, rows)
    ]


@pytest.mark.parametrize("corrupt, argv, text", CAUGHT, ids=_row_ids(CAUGHT))
def test_corruption_is_caught_before_printing(corrupt, argv, text, capsys, monkeypatch):
    corrupt(monkeypatch)
    assert_failed_check(argv, text, capsys)


@pytest.mark.parametrize("corrupt, argv, item", UNDETECTED, ids=map(_row_id, UNDETECTED))
def test_corruption_not_yet_caught(corrupt, argv, item, capsys, monkeypatch):
    assert climod.run(list(argv)) == 0
    clean = capsys.readouterr().out
    corrupt(monkeypatch)
    assert climod.run(list(argv)) == 0
    assert capsys.readouterr().out != clean


# ---------------------------------------------------------------------------
# the suite half: each corruption against the smallest run of every suite
# that sweeps (p, q) pairs and reaches (5, 3), where most faults above sit
# ---------------------------------------------------------------------------

def no_fault(monkeypatch):
    pass


def _bruteforce_5_3_plus(monkeypatch, terms):
    real = circulant.det_bruteforce

    def corrupt(spec):
        poly = real(spec)
        return poly + BiPoly(terms) if (spec.p, spec.q) == (5, 3) else poly

    monkeypatch.setattr(circulant, "det_bruteforce", corrupt)


def bruteforce_gains_absent_term(monkeypatch):
    # a(1, 1) of the brute-force (5, 3) polynomial, an absent term, 0 -> 1
    _bruteforce_5_3_plus(monkeypatch, {(1, 1): 1})


def bruteforce_plus_one(monkeypatch):
    # +1 on a(2, 1) of the brute-force (5, 3) polynomial, -5 -> -4
    _bruteforce_5_3_plus(monkeypatch, {(2, 1): 1})


def bruteforce_stray_term(monkeypatch):
    # x^6 in the brute-force (5, 3) polynomial, outside the p x p square
    _bruteforce_5_3_plus(monkeypatch, {(6, 0): 1})


def y_band_sign_flipped(monkeypatch):
    # every route builds the band of +y instead of -y: the routes agree,
    # and only the gcd sign rule tells them wrong
    routes = ((phimod, "det_newton"), (circulant, "det_bareiss"),
              (circulant, "det_cycle_cover"), (circulant, "det_bruteforce"))
    for module, name in routes:
        real = getattr(module, name)

        def corrupt(spec, real=real):
            terms = real(spec).terms.items()
            return BiPoly({(r, s): -c if s % 2 else c for (r, s), c in terms})

        monkeypatch.setattr(module, name, corrupt)


def undivided_steps_unchecked(monkeypatch):
    # each cycle predicted to take all of the class's steps, and a fits
    # that passes every member: only the per-cycle gcd check is left
    real = permclass.predict_structure

    def corrupt(key):
        rep = real(key)
        return permclass.StructureReport(rep.k, (key.r, key.s), rep.sign)

    monkeypatch.setattr(permclass, "predict_structure", corrupt)
    monkeypatch.setattr(permclass.StructureReport, "fits", lambda self, cycles, p, q: True)


def ryser_plus_one(monkeypatch):
    real = permmod.permanent_ryser
    monkeypatch.setattr(permmod, "permanent_ryser", lambda p, q: real(p, q) + 1)


#: the suites that sweep (p, q) pairs, each run at p_max = 5 with one worker
PQ_SUITES = ("support", "sign", "cycle", "witness", "permanent")

# a case that raises is counted as one failed check, its text the case and the error
PERMANENT_5_3_CASE = "_permanent_case(5, 3): InternalInconsistency('the unsigned DP differs"
PERMANENT_3_2_CASE = "_permanent_case(3, 2): InternalInconsistency("
BAREISS_VS_BRUTEFORCE = "(p=5, q=3): bareiss and bruteforce disagree"

#: (corruption, {suite: the start of its first counterexample}) for every
#: corruption in this file that reaches one of those runs; exactly these
#: suites fail.  walked_total_plus_one and root_over_p_plus_one reach
#: only ``growth``
SUITE_CAUGHT = [
    (no_fault, {}),
    (newton_plus_one, {
        "sign": "(p=5, q=3): a(2,1) = -5 by bareiss but -4 by newton",
        "permanent": PERMANENT_5_3_CASE,
    }),
    (newton_gains_absent_term, {
        "sign": "(p=5, q=3): a(1,1) = 0 by bareiss but 1 by newton",
        "permanent": PERMANENT_5_3_CASE,
    }),
    (newton_loses_present_term, {
        "sign": "(p=5, q=3): a(2,1) = -5 by bareiss but 0 by newton",
        "permanent": PERMANENT_5_3_CASE,
    }),
    # the DP reads its signs off the rule, so the routes disagree first
    (term_sign_flipped, {"sign": "(p=3, q=2): bruteforce and cycle_cover disagree"}),
    # det_cycle_cover reads the DP's one binding too, so the sign suite
    # sees its route leave brute force at the first pair
    (dp_count_plus_one, {
        "sign": "(p=3, q=2): bruteforce and cycle_cover disagree",
        "permanent": PERMANENT_3_2_CASE + "'the unsigned DP differs",
    }),
    (last_step_flipped, {
        "witness": "_witness_case(3, 2): InternalInconsistency('word from 1 ends at 2,",
    }),
    (words_all_east, {
        "witness": "_witness_case(3, 2): InternalInconsistency('word from 1 ends at 3,",
    }),
    (walk_revisits_a_point, {
        "witness": "_witness_case(3, 2): InternalInconsistency('point 1 revisited",
    }),
    # seventeen east steps revisit a point of Z_3 before any cycles cross
    (witness_cycles_cross, {
        "witness": "_witness_case(3, 2): InternalInconsistency('point 1 revisited",
    }),
    (step_counts_swapped, {
        "witness": "_witness_case(3, 2): InternalInconsistency('witness for "
                   "PermClassKey(p=3, q=2, r=3, s=0) has the wrong profile",
    }),
    (unpack_total_plus_one, {
        "sign": "_sign_case(3, 2): InternalInconsistency('s = 0 holds 3 covers",
        "permanent": PERMANENT_3_2_CASE + "'s = 0 holds 3 covers",
    }),
    (max_abs_plus_one, {"permanent": PERMANENT_3_2_CASE + "'M = 4 differs"}),
    (len_plus_one, {"permanent": PERMANENT_3_2_CASE + "'N = 5 differs"}),
    (lower_bound_plus_one, {"permanent": PERMANENT_3_2_CASE + "'lower bound 7 is not"}),
    (power_sum_plus_one, {
        "sign": "_sign_case(5, 3): NonExactDivision('5 does not divide",
        "permanent": "_permanent_case(5, 3): NonExactDivision('5 does not divide",
    }),
    (divided_constant_plus_one, {
        "sign": "_sign_case(4, 2): InternalInconsistency('determinant lost its unit",
    }),
    (abs_sum_plus_one, {"permanent": PERMANENT_3_2_CASE + "'permanent 6 differs"}),
    (cube_root_plus_one, {"permanent": PERMANENT_3_2_CASE + "'upper bound 7 is not"}),
    (bruteforce_gains_absent_term, {
        "support": "(p=5, q=3, r=1, s=1): support predicate False vs backend True",
        "sign": BAREISS_VS_BRUTEFORCE,
    }),
    (bruteforce_plus_one, {
        "sign": BAREISS_VS_BRUTEFORCE,
        "cycle": "(p=5, q=3, r=2, s=1): |class| = 5 but |a| = 4",
    }),
    (bruteforce_stray_term, {
        "support": "(p=5, q=3, r=6, s=0): stray term outside the square",
        "sign": BAREISS_VS_BRUTEFORCE,
    }),
    (y_band_sign_flipped, {"sign": "(p=3, q=2): a(1,1) = 3 but the gcd rule gives sign -1"}),
    (search_drops_a_class, {
        "cycle": "(p=3, q=2, r=3, s=0): emptiness mismatch",
        "witness": "(p=3, q=2): the profiles walked miss the classes [] and add "
                   "the empty ones [(3, 0)]",
    }),
    (search_repeats_a_member, {
        "cycle": "T_(5,3)(2,1) = [(1, 2, 4, 5, 3), (1, 3, 4, 2, 5), (2, 3, 1, 4, 5), "
                 "(2, 5, 3, 4, 1)], expected [",
        "witness": "witness for (p=4, q=2, r=0, s=2) invalid",
    }),
    (structure_sign_flipped, {
        "cycle": "(p=3, q=2, r=0, s=3): member {3,1,2} deviates from "
                 "StructureReport(k=1, cycles_each=(0, 3), sign=-1)",
        "witness": "witness for (p=3, q=2, r=0, s=0) invalid",
    }),
    (undivided_steps_unchecked, {
        "cycle": "(p=4, q=2, r=0, s=4): cycle profile with gcd > 1 in {3,4,1,2}",
    }),
    (ryser_plus_one, {"permanent": "(p=3, q=2): ryser 7, DP and abs-sum 6"}),
]


@pytest.fixture
def fresh_dp_cache():
    # the DP's results are cached: a clean one from an earlier test would
    # hide a fault in the DP, and one made under a fault must not outlive it;
    # read before the test, which may rebind the DP to an uncached fault
    clear = circulant.cycle_cover_counts.cache_clear
    clear()
    yield
    clear()


def failing_suites() -> dict:
    """Each (p, q) suite that fails at p_max = 5, with its first counterexample."""
    runs = {suite: verifymod.run_suite(suite, 5, workers=1) for suite in PQ_SUITES}
    return {suite: res.first_counterexample for suite, res in runs.items() if not res.passed}


@pytest.mark.parametrize(
    "corrupt, caught", SUITE_CAUGHT, ids=[row[0].__name__ for row in SUITE_CAUGHT]
)
def test_corruption_fails_exactly_these_suites(corrupt, caught, monkeypatch, fresh_dp_cache):
    corrupt(monkeypatch)
    failed = failing_suites()
    assert failed.keys() == caught.keys(), failed
    for suite, start in caught.items():
        assert failed[suite].startswith(start), failed[suite]


#: (corruption, verify argv, its first counterexample) for each check that
#: only a suite outside PQ_SUITES runs: the run prints its counts and that
#: counterexample, and exits 1
VERIFY_FAILED = [
    (words_all_east, ("verify", "--suite", "lemmas", "--cases", "10"),
     "_lemmas_case('path_bound', 1, 92437): "
     "InternalInconsistency('path construction missed (16, 16)')"),
]


@pytest.mark.parametrize(
    "corrupt, argv, first", VERIFY_FAILED, ids=map(_row_id, VERIFY_FAILED)
)
def test_corruption_fails_the_suite_that_runs_its_check(
    corrupt, argv, first, capsys, monkeypatch
):
    monkeypatch.setenv(climod.WORKERS_ENV, "1")
    corrupt(monkeypatch)
    assert climod.run(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"first_counterexample: {first}"
    assert err == ""


# ---------------------------------------------------------------------------
# every printed field has a pinned mutant: the schema is the list
# ---------------------------------------------------------------------------

ECHO = "echo"  # an input printed back, or the command's fixed name
SUITE = ("verify",)  # the argv of a row of SUITE_CAUGHT, which runs the suites in process
PHI_5_3 = ("phi", "--p", "5", "--q", "3")

#: every property of the CLI schema, by its path from the command, and the
#: row whose corruption reaches it: ECHO, a row of CAUGHT or UNDETECTED as
#: (corruption, argv), or a row of SUITE_CAUGHT as (corruption, SUITE).  A
#: permanent or growth flag is classed with the row of a bound it compares,
#: since the comparison is inline and has no mutant of its own
FIELD_ROWS = {
    **{f"phi.{name}": ECHO for name in ("command", "p", "q", "t", "backend")},
    "phi.canonical_q": (reduction_takes_the_second_image, PHI_REDUCED_JSON),
    "phi.swapped": (reduction_takes_the_second_image, PHI_REDUCED_JSON),
    **{
        f"phi.{name}": (newton_plus_one, PHI_5_3)
        for name in ("polynomial", "polynomial.terms", "polynomial.terms.r",
                     "polynomial.terms.s", "polynomial.terms.c")
    },
    **{f"coeff.{name}": ECHO for name in ("command", "p", "q", "r", "s")},
    "coeff.present": (support_rule_flipped, COEFF_5_3),
    "coeff.ell": (ell_plus_one, COEFF_5_3),
    "coeff.k": (k_plus_one, COEFF_5_3),
    "coeff.sign": (term_sign_flipped, COEFF_5_3),
    "coeff.magnitude": (newton_plus_one, COEFF_5_3),
    "coeff.value": (newton_plus_one, COEFF_5_3),
    **{f"witness.{name}": ECHO for name in ("command", "p", "q", "r", "s")},
    "witness.k": (structure_k_plus_one, WITNESS_17_5),
    "witness.sign": (structure_sign_flipped, WITNESS_17_5),
    "witness.one_line": (last_step_flipped, WITNESS_17_5),
    "witness.cycles": (last_step_flipped, WITNESS_17_5),
    **{f"enumerate.{name}": ECHO for name in ("command", "p", "q", "r", "s")},
    "enumerate.count": (newton_plus_one, ENUMERATE_5_3),
    "enumerate.members": (search_drops_a_class, ENUMERATE_5_CYCLE),
    **{f"permanent.{name}": ECHO for name in ("command", "p", "q")},
    "permanent.d11": (dp_count_plus_one, PERMANENT_5_3),
    "permanent.abs_sum": (abs_sum_plus_one, PERMANENT_5_3),
    "permanent.max_coeff": (max_abs_plus_one, ("permanent", "--p", "9", "--q", "4")),
    "permanent.n_monomials": (len_plus_one, ("permanent", "--p", "9", "--q", "4")),
    **{
        f"permanent.{name}": (lower_bound_plus_one, PERMANENT_5_3)
        for name in ("lower_bound", "lower_bound.numerator", "lower_bound.denominator",
                     "lower_ok")
    },
    "permanent.upper_bound": (cube_root_plus_one, PERMANENT_5_3),
    "permanent.upper_ok": (cube_root_plus_one, PERMANENT_5_3),
    "permanent.sandwich_ok": (max_abs_plus_one, ("permanent", "--p", "9", "--q", "4")),
    # one row per p of the requested range
    **{f"growth.{name}": ECHO for name in ("command", "rows", "rows.p", "rows.q")},
    "growth.rows.M": (max_abs_plus_one, ("growth", "--q", "3", "--pmax", "6")),
    "growth.rows.d11": (dp_count_plus_one, ("growth", "--q", "3", "--pmax", "5")),
    "growth.rows.n_monomials": (len_plus_one, ("growth", "--q", "3", "--pmax", "6")),
    "growth.rows.root": (root_over_p_plus_one, ("growth", "--q", "3", "--pmax", "5")),
    "growth.rows.sandwich_ok": (max_abs_plus_one, ("growth", "--q", "3", "--pmax", "6")),
    # the parameters are the run's inputs with their defaults filled in
    **{f"verify.{name}": ECHO for name in ("command", "suite", "parameters")},
    "verify.cases": (last_case_dropped, VERIFY_PRIME_12),
    **{
        f"verify.{name}": (newton_plus_one, SUITE)
        for name in ("failures", "passed", "first_counterexample")
    },
}


def schema_fields(node, prefix):
    """The path of every property under ``node``, through references and array items."""
    def resolve(node):
        ref = node.get("$ref")
        return SCHEMA["$defs"][ref.rsplit("/", 1)[1]] if ref else node

    for name, sub in resolve(node).get("properties", {}).items():
        path = f"{prefix}.{name}"
        yield path
        sub = resolve(sub)
        yield from schema_fields(sub.get("items", sub), path)


def test_every_printed_field_has_a_pinned_row():
    fields = [
        path
        for ref in SCHEMA["oneOf"]
        for path in schema_fields(ref, ref["$ref"].rsplit("/", 1)[1])
    ]
    assert sorted(FIELD_ROWS) == sorted(fields)
    rows = {
        "caught": [row[:2] for row in CAUGHT],
        "undetected": [row[:2] for row in UNDETECTED],
        "suite": [(corrupt, SUITE) for corrupt, caught in SUITE_CAUGHT if caught],
    }
    for path, entry in FIELD_ROWS.items():
        if entry == ECHO:
            continue
        assert entry[1][0] == path.split(".")[0], path
        assert any(entry in found for found in rows.values()), path


def test_admitted_fuzz_argvs_fail_cleanly_under_a_caught_fault(capsys, monkeypatch):
    # the fuzz argvs of permanent and growth with a CAUGHT corruption in:
    # an admitted argv now fails its check, and every exit, 1 as well as
    # 2 and 3, leaves stdout empty and prints one line, the error line
    monkeypatch.setenv(climod.WORKERS_ENV, "1")
    dp_count_plus_one(monkeypatch)
    failed = []
    for argv in fuzz_argvs():
        if argv[0] not in ("permanent", "growth"):
            continue
        code = climod.run(argv)
        out, err = capsys.readouterr()
        shown = " ".join(argv)
        assert code in (1, 2, 3), (shown, code)
        assert out == "", shown
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (shown, err)
        if code == 1:
            failed.append(shown)
    # each command's argvs come from its own stream (tests/test_fuzz.py)
    assert failed == [
        "growth --q 11 --pmax 24 --format csv",
        "growth --q 51 --pmax 61",
        "permanent --p 51 --q 19 --format json",
        "permanent --p 61 --q 10 --backend bareiss --format text",
        "permanent --p 25 --q 10 --format json",
    ]
