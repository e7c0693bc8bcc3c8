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


class Collector:
    """A :func:`sys.settrace` line collector for the files under ``src/tricirc``.

    Inside ``with Collector() as c:`` every line of the package that
    runs, in this thread or in one started meanwhile, is added to
    ``c.ran``, a set of line numbers per file.  Passed to pytest as a
    plugin, it turns itself back on before each test: Python switches
    a trace function off when an exception leaves it, as one does when
    a signal handler raises while the collector runs (the fuzz test's
    SIGALRM timer), and the rest of that test would go unseen.
    """

    def __init__(self):
        self.ran: dict[str, set[int]] = {}
        self.restored = 0
        self._prefix = str(PACKAGE) + os.sep
        self._hook = self._on_call  # one bound method, so gettrace() is it

    def _on_call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self._prefix):
            return None  # no line events outside the package
        seen = self.ran.setdefault(name, set())
        seen.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    def __enter__(self) -> "Collector":
        threading.settrace(self._hook)
        sys.settrace(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def pytest_runtest_setup(self, item):
        if sys.gettrace() is not self._hook:
            self.restored += 1
            sys.settrace(self._hook)


def report(ran: dict[str, set[int]]) -> int:
    """Print each executable line of the package not in ``ran``; return their count."""
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
    return total


def main() -> int:
    import pytest

    os.environ["TRICIRC_WORKERS"] = "1"
    with Collector() as collector:
        code = int(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]],
                               plugins=[collector]))
    if collector.restored:
        print(f"# the collector was switched off and restored {collector.restored} times")
    total = report(collector.ran)
    print(f"# {total} lines never run; pytest exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
