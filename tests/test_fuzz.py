"""Seeded fuzz of the CLI at edge values: every refusal is fast and clean.

Each argv names one command and gives its flags values from the
parser itself: a choice flag one of its choices, ``--suite`` one of the
suites and every integer flag an edge value (-1, 0, each declared limit
plus one, 10^6 or 10^18).  Required flags are always given, optional
ones half the time.  Each command gets ``PER_COMMAND`` argvs from its
own seeded stream, so a change to one command's flags re-deals that
command's argvs alone.  Each argv runs in process through ``cli.run``.
A refusal must come within ``REFUSAL_S`` with exit 2 or 3, empty
stdout and exactly one stderr line, the ``error:`` line (no ``note:``
before it); no argv may raise.

Admitted argvs (exit 0) are not the subject.  Some run for seconds
(``permanent --p 61 --q 11`` is inside the DP's budget), so a run still
going after ``HANG_S`` is stopped by an alarm and counted as admitted:
a refusal that comes only after ``HANG_S`` of work is not seen here.
"""

import argparse
import random
import signal
import time

import pytest

from test_readme import declared_limits
from tricirc import cli as climod
from tricirc import verify

PER_COMMAND = 30
RUNS = PER_COMMAND * len(climod._COMMANDS)
SEED = 20261018
REFUSAL_S = 0.5
HANG_S = 1.0

EDGES = sorted({-1, 0, 10**6, 10**18, *(n + 1 for n in declared_limits().values())})


class Overran(BaseException):
    """Raised by the alarm in a run that outlives ``HANG_S``.

    A ``BaseException``, so that no handler in the package catches it.
    """


def command_flags() -> dict:
    """command -> its flag actions, read off the parser."""
    parser = climod.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
        for name, sub in subs.choices.items()
    }


def fuzz_argvs():
    """``PER_COMMAND`` argvs of each command, the commands in sorted order."""
    for name, actions in sorted(command_flags().items()):
        rng = random.Random(f"{SEED}:{name}")
        for _ in range(PER_COMMAND):
            argv = [name]
            for action in actions:
                if not action.required and rng.random() < 0.5:
                    continue
                if action.choices:
                    value = rng.choice(sorted(action.choices))
                elif action.type is int:
                    value = rng.choice(EDGES)
                else:
                    assert action.dest == "suite", action.dest
                    value = rng.choice(verify.SUITES)
                argv += [action.option_strings[0], str(value)]
            yield argv


def test_the_grammar_covers_every_flag():
    seen = {(argv[0], flag) for argv in fuzz_argvs() for flag in argv[1::2]}
    every = {
        (name, action.option_strings[0])
        for name, actions in command_flags().items()
        for action in actions
    }
    assert seen == every


def test_a_flag_change_re_deals_only_its_own_command(monkeypatch):
    # growth gains a flag; every other command draws the same argvs
    def by_command():
        out = {}
        for argv in fuzz_argvs():
            out.setdefault(argv[0], []).append(argv)
        return out

    before = by_command()
    help_text, handler, flags = climod._COMMANDS["growth"]
    monkeypatch.setitem(
        climod._COMMANDS, "growth", (help_text, handler, {"--t": (int, 1), **flags})
    )
    after = by_command()
    assert after.keys() == before.keys()
    assert after["growth"] != before["growth"]
    for name in before.keys() - {"growth"}:
        assert after[name] == before[name], name


def raise_overran(signum, frame):
    raise Overran


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_refused_input_fails_fast_and_cleanly(capsys, monkeypatch):
    monkeypatch.setenv(climod.WORKERS_ENV, "1")
    previous = signal.signal(signal.SIGALRM, raise_overran)
    refused = 0
    try:
        for argv in fuzz_argvs():
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, HANG_S)
            try:
                code = climod.run(argv)
            except Overran:
                code = None
            except Exception as exc:
                pytest.fail(f"{' '.join(argv)} raised {exc!r}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            out, err = capsys.readouterr()
            if code in (0, None):
                continue
            refused += 1
            shown = " ".join(argv)
            assert code in (2, 3), (shown, code, err)
            assert elapsed < REFUSAL_S, (shown, elapsed)
            assert out == "", shown
            assert "Traceback" not in err, shown
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (shown, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # edge values are mostly out of range: most of the argvs are refusals
    assert refused > RUNS // 2
