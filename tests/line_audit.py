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

Each file is listed as it was when a frame of it first ran, so a file
edited during the run is still listed against the lines that ran; one
line names such files.  The audit exits with pytest's code, or 1 when
pytest passed and more than ``ACCEPTED`` lines are listed.
"""

import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tricirc"

#: the most lines the audit may list and pass: on Python 3.11, those that
#: only a subprocess or a forked child runs (``cli.main`` and its call,
#: ``verify._child_share`` and its call)
ACCEPTED = 19


def executable_lines(path: Path, source: str) -> set[int]:
    """The lines that hold an instruction of the module ``source`` of
    ``path``, or of any code it defines."""
    code = compile(source, str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        # a module's code starts at line 0, which holds no source
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


class Collector:
    """A :func:`sys.settrace` line collector for the files under ``package``.

    Inside ``with Collector() as c:`` every line of the package that
    runs, in this thread or in one started meanwhile, is added to
    ``c.ran``, a set of line numbers per file, and ``c.sources`` keeps
    each file's text from the moment a frame of it first ran.  On exit
    the trace functions from before are back.  Passed to pytest as a
    plugin, it turns itself back on before each test: Python switches
    a trace function off when an exception leaves it, as one does when
    a signal handler raises while the collector runs (the fuzz test's
    SIGALRM timer), and the rest of that test would go unseen.
    """

    def __init__(self, package: Path = PACKAGE):
        self.package = package
        self.ran: dict[str, set[int]] = {}
        self.sources: dict[str, str] = {}
        self.restored = 0
        self._prefix = str(package) + os.sep
        self._hook = self._on_call  # one bound method, so gettrace() is it

    def _on_call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self._prefix):
            return None  # no line events outside the package
        seen = self.ran.get(name)
        if seen is None:  # the text this run compiled, before any later edit
            self.sources[name] = Path(name).read_text()
            seen = self.ran[name] = set()
        seen.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    def __enter__(self) -> "Collector":
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._hook)
        sys.settrace(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])

    def pytest_runtest_setup(self, item):
        if sys.gettrace() is not self._hook:
            self.restored += 1
            sys.settrace(self._hook)


def report(collector: Collector) -> int:
    """Print each executable line of the package that ``collector`` saw no
    run of; return their count.

    A file that ran is read as it was when it first ran, and the files
    whose text has changed since are named in one line.
    """
    total, changed = 0, []
    for path in sorted(collector.package.glob("*.py")):
        if path.name == "__main__.py":  # only ``python -m tricirc`` runs it
            continue
        now = path.read_text()
        source = collector.sources.get(str(path), now)
        if source != now:
            changed.append(path.name)
        missed = sorted(executable_lines(path, source) - collector.ran.get(str(path), set()))
        text = source.splitlines()
        where = path.relative_to(collector.package.parent.parent)
        for line in missed:
            print(f"{where}:{line}  {text[line - 1].strip()}")
        if missed:
            print(f"# {path.name}: {len(missed)} lines never run")
        total += len(missed)
    if changed:
        print(f"# {', '.join(changed)} changed during the run")
    return total


def main() -> int:
    import pytest

    os.environ["TRICIRC_WORKERS"] = "1"
    with Collector() as collector:
        code = int(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]],
                               plugins=[collector]))
    if collector.restored:
        print(f"# the collector was switched off and restored {collector.restored} times")
    total = report(collector)
    print(f"# {total} lines never run ({ACCEPTED} accepted); pytest exit code {code}")
    return code or int(total > ACCEPTED)


if __name__ == "__main__":
    sys.exit(main())
