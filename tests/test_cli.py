"""CLI behaviour: exit codes, formats, schema validity, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from tricirc import cli as climod
from tricirc import permclass
from tricirc import phi as phimod
from tricirc.bipoly import ONE
from tricirc.errors import InternalInconsistency

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

    @pytest.mark.parametrize("argv", [
        ("phi", "--p", "100000", "--q", "3"),
        ("phi", "--p", "97", "--q", "48", "--backend", "bareiss"),
        ("permanent", "--p", "30", "--q", "15"),
        ("growth", "--q", "3", "--pmax", "100000"),
        # every row is within budget, the table as a whole is not
        ("growth", "--q", "2", "--pmax", "1000"),
        ("witness", "--p", "100000000", "--q", "3", "--r", "1", "--s", "33333333"),
        ("verify", "--suite", "witness", "--pmax", "120"),
        ("verify", "--suite", "support", "--pmax", "80"),
        ("verify", "--suite", "lemmas", "--cases", "100000000"),
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

    def test_permanent_on_dp_backend_past_ryser_limit_names_reason(self):
        res = cli("permanent", "--p", "25", "--q", "3", "--backend", "cycle_cover")
        assert res.returncode == 3 and res.stdout == ""
        assert "d11 must come from Ryser" in res.stderr

    def test_growth_names_bad_q(self):
        res = cli("growth", "--q", "1", "--pmax", "5")
        assert res.returncode == 2 and res.stdout == ""
        assert "q must be at least 2, got q=1" in res.stderr

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

    def test_verify_failure_is_exit_1(self, capsys, monkeypatch):
        real = phimod.trial_division
        monkeypatch.setattr(phimod, "trial_division", lambda n: n == 9 or real(n))
        monkeypatch.setenv(climod.WORKERS_ENV, "1")
        assert climod.run(["verify", "--suite", "prime", "--pmax", "10"]) == 1
        assert capsys.readouterr().out == (
            "suite=prime p_max=10 q=2 cases=8 failures=1\n"
            "first_counterexample: p=9: congruence check False, trial division True\n"
        )


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
        with pytest.raises(InternalInconsistency, match=r"4 members .* = 5"):
            climod.run(argv)
        assert capsys.readouterr().out == ""

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


class TestBench:
    def test_csv_and_skip_guard(self):
        res = cli("bench", "--backends", "bruteforce", "--p", "12", "--q", "3")
        lines = res.stdout.splitlines()
        assert lines[0] == "backend,p,q,seconds,status"
        assert lines[1] == "bruteforce,12,3,,SKIPPED"
        assert res.returncode == 0

    def test_cross_checked_run(self):
        res = cli(
            "bench", "--backends", "bareiss,cycle_cover,ryser",
            "--p", "8,10", "--q", "3,4",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 1 + 3 * 4
        for line in lines[1:]:
            backend, p, q, secs, status = line.split(",")
            assert status == "ok" and float(secs) >= 0

    def test_unknown_backend(self):
        res = cli("bench", "--backends", "cofactor", "--p", "5", "--q", "3")
        assert res.returncode == 2

    def test_newton_and_bareiss_reported(self, capsys):
        argv = ["bench", "--backends", "newton,bareiss", "--p", "8", "--q", "3"]
        assert climod.run(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["newton", "bareiss"]
        assert all(r.endswith(",ok") for r in rows)

    def test_newton_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(phimod.BACKENDS, "newton", lambda spec: ONE)
        argv = ["bench", "--backends", "newton,bareiss", "--p", "8", "--q", "3"]
        assert climod.run(argv) == 1
        out = capsys.readouterr()
        assert len(out.out.splitlines()) == 3
        assert "mismatch among backends at p=8 q=3" in out.err

    def test_dp_window_over_16_bits_is_skipped(self):
        res = cli("bench", "--backends", "cycle_cover,bareiss",
                  "--p", "40", "--q", "20")
        lines = res.stdout.splitlines()
        assert lines[1] == "cycle_cover,40,20,,SKIPPED"
        assert lines[2].startswith("bareiss,40,20,") and lines[2].endswith(",ok")
        assert res.returncode == 0

    def test_invalid_pair_is_skipped(self):
        res = cli("bench", "--backends", "bareiss,ryser", "--p", "8", "--q", "1")
        assert res.stdout.splitlines()[1:] == [
            "bareiss,8,1,,SKIPPED", "ryser,8,1,,SKIPPED",
        ]
        assert res.returncode == 0


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


class TestImportGate:
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
