"""List the lines under ``src/tricirc`` that the tier-1 tests never run.

Run it from the repository root (it is no test, so pytest does not
collect it); any arguments go to pytest, so a narrower run is possible::

    PYTHONPATH=src python tests/line_audit.py
    PYTHONPATH=src python tests/line_audit.py tests/test_cli.py

It sets ``TRICIRC_WORKERS=1``, so every ``verify`` suite runs its cases
in this process, and runs pytest in this process under a
:func:`sys.settrace` line collector; the standard library has no
coverage tool, and none is a dependency.  Then it prints each line that
the compiled modules could run and no test ran, as ``path:line  source``,
and one count per module.  It cannot see lines that run only in a
subprocess (a test that starts ``python -m tricirc``) or in a forked
``verify`` worker, so ``cli.main`` and a few lines that only such runs
reach are listed too.  Tracing makes the run several times slower.
"""

import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tricirc"


def executable_lines(path: Path) -> set[int]:
    """The lines that hold an instruction of the module or of any code it defines."""
    code = compile(path.read_text(), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        # a module's code starts at line 0, which holds no source
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the collector; its exit code and the lines run per file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None  # no line events outside the package
        seen = ran.setdefault(name, set())
        seen.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    class Retrace:
        """Turns the collector back on before each test.

        Python switches a trace function off when an exception leaves
        it, as one does when a signal handler raises while the
        collector runs (the fuzz test's SIGALRM timer); the rest of
        that test then goes unseen.
        """

        restored = 0

        def pytest_runtest_setup(self, item):
            if sys.gettrace() is not on_call:
                Retrace.restored += 1
                sys.settrace(on_call)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if Retrace.restored:
        print(f"# the collector was switched off and restored {Retrace.restored} times")
    return int(code), ran


def main() -> int:
    os.environ["TRICIRC_WORKERS"] = "1"
    code, ran = run_traced(sys.argv[1:])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":  # only ``python -m tricirc`` runs it
            continue
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}  {source[line - 1].strip()}")
        if missed:
            print(f"# {path.name}: {len(missed)} lines never run")
        total += len(missed)
    print(f"# {total} lines never run; pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
