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

    @pytest.mark.parametrize("argv, flag", [
        (("--suite", "lemmas", "--pmax", "40"), "pmax"),
        (("--suite", "prime", "--cases", "5"), "cases"),
        (("--suite", "sign", "--seed", "3"), "seed"),
        (("--suite", "witness", "--cases", "5", "--seed", "3"), "cases"),
        (("--suite", "prime", "--q-policy", "coprime"), "q-policy"),
    ])
    def test_verify_size_the_suite_does_not_read_is_usage_error(self, argv, flag):
        res = cli("verify", *argv)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == f"error: the {argv[1]} suite does not read {flag}\n"

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
        # the DP's budget is checked before Bareiss (about 30 s here) runs
        ("permanent", "--p", "96", "--q", "48", "--backend", "bareiss"),
        # a window so wide that the DP's cost estimate passes the float range
        ("growth", "--q", "1000001", "--pmax", "1500000001"),
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
        with pytest.raises(InternalInconsistency, match=r"has 3 cycles and sign \+1"):
            climod.run(argv)
        assert capsys.readouterr().out == ""

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
        assert (
            "has 3 cycles and sign +1, but its class has k = 3 cycles of "
            "3 1-steps and 2 q-steps and sign +1"
        ) in res.stderr
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


#: modules that --help and the default route of phi and coeff never load
DEFAULT_ROUTE_UNUSED = frozenset({
    "cmath", "dataclasses", "fractions", "json", "tricirc.circulant",
    "tricirc.permanent", "tricirc.permclass", "tricirc.verify",
})


#: modules that no command loads: dataclasses brings in inspect, and the
#: float check, the only user of cmath, is on no command's path
NEVER_LOADED = frozenset({"cmath", "dataclasses", "inspect"})

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
    ])
    def test_exact_cross_checks_load_no_fractions(self, argv):
        # only the float check's sample grid and the permanent's lower
        # bound are fractions; the exact routes load neither
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
        assert not added & NEVER_LOADED, sorted(added & NEVER_LOADED)
        package = {m for m in added if m.startswith("tricirc.")}
        assert package == ALWAYS_LOADED | {"tricirc.verify"} | SUITE_ROUTES[suite]

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
