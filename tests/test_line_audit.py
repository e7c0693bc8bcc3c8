"""The line audit's collector (``tests/line_audit.py``) on a module of known lines."""

import importlib.util
from pathlib import Path

AUDIT = Path(__file__).resolve().parent / "line_audit.py"

SMALL_MODULE = '''"""A module docstring."""

LIMIT = 3


def outer(a):
    # a comment
    def inner(b):
        return a + b

    if a > LIMIT:
        raise ValueError(
            "too large"
        )
    return inner


class Box:
    size = 2

    def area(self):
        return self.size ** 2
'''


def load_audit():
    spec = importlib.util.spec_from_file_location("line_audit", AUDIT)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    return audit


def test_executable_lines_reach_nested_code():
    lines = load_audit().executable_lines(Path("small.py"), SMALL_MODULE)
    # the module's statements, the def lines, the nested function's and
    # the method's bodies, and each line of a statement that holds an
    # instruction; no comment, blank line, closing bracket or line 0
    assert lines == {1, 3, 6, 8, 9, 11, 12, 13, 15, 18, 19, 21, 22}


def test_report_lists_the_source_as_first_traced(tmp_path, capsys):
    # the collector keeps each file's text from its first frame, so a file
    # rewritten with its lines shifted is still listed against the lines
    # that ran, and is named as changed
    audit = load_audit()
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    path = package / "small.py"
    path.write_text(SMALL_MODULE)
    spec = importlib.util.spec_from_file_location("small", path)
    small = importlib.util.module_from_spec(spec)
    with audit.Collector(package) as collector:
        spec.loader.exec_module(small)
        small.outer(1)(2)
    path.write_text("\n" * 10 + SMALL_MODULE)
    assert audit.report(collector) == 3
    assert capsys.readouterr().out.splitlines() == [
        "src/pkg/small.py:12  raise ValueError(",
        'src/pkg/small.py:13  "too large"',
        "src/pkg/small.py:22  return self.size ** 2",
        "# small.py: 3 lines never run",
        "# small.py changed during the run",
    ]
