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


def test_executable_lines_reach_nested_code(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SMALL_MODULE)
    lines = load_audit().executable_lines(path)
    # the module's statements, the def lines, the nested function's and
    # the method's bodies, and each line of a statement that holds an
    # instruction; no comment, blank line, closing bracket or line 0
    assert lines == {1, 3, 6, 8, 9, 11, 12, 13, 15, 18, 19, 21, 22}

