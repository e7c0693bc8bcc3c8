"""The README agrees with the code: its commands, limits table and library example.

README's two tables of measured times are the one record of wall times,
so the code's comments and docstrings state none.
"""

import argparse
import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from tricirc import circulant, permanent, permclass, verify
from tricirc import cli as climod
from tricirc import phi as phimod
from tricirc.errors import TooLarge

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
LIMITS_HEADER = "| Limit | Value | Seconds | Measured by |"

#: the limits that are module constants, by home module
CONSTANTS = {
    "NEWTON_LIMIT": phimod,
    "SEARCH_LIMIT": phimod,
    "BAREISS_LIMIT": circulant,
    "DP_BUDGET": circulant,
    "RYSER_LIMIT": permanent,
    "WITNESS_LIMIT": permclass,
}

#: the README row of each suite's largest size, by row name: the suite's
#: own name, except that the lemmas suite's is LEMMA_CASES_LIMIT's row
SUITE_ROWS = {
    ("LEMMA_CASES_LIMIT" if suite == "lemmas" else suite): suite for suite in verify._SUITES
}

#: the flag that each constant bounds in its limits-table command; a
#: suite's limit bounds its size flag, and DP_BUDGET bounds no one flag
BOUNDED_FLAG = {
    "NEWTON_LIMIT": "p",
    "BAREISS_LIMIT": "p",
    "SEARCH_LIMIT": "p",
    "WITNESS_LIMIT": "p",
}

#: a wall time (a number, a space and a time unit) or the host it was
#: measured on; "1s in columns" has no space, so it is not a time
HOST_TIMING = re.compile(
    r"\b\d+(\.\d+)?(-\d+(\.\d+)?)?\s+(ns|µs|us|ms|s|sec|seconds?|minutes?|MB|GB)\b"
    r"|\d+-CPU\b|\bhost\b|Python 3\.\d"
)


def declared_limits() -> dict[str, int]:
    """Every declared size limit: the constants by name, each suite's largest size."""
    limits = {name: getattr(module, name) for name, module in CONSTANTS.items()}
    limits.update((name, verify._SUITES[suite].largest) for name, suite in SUITE_ROWS.items())
    return limits


def section(title: str) -> str:
    """The README text from a ``## title`` heading to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def parse_value(text: str) -> int:
    """An integer written as ``n``, ``b^e`` or ``m * b^e``."""
    value = 1
    for factor in text.split("*"):
        base, _, exp = factor.strip().partition("^")
        value *= int(base) ** int(exp or 1)
    return value


def limits_rows() -> dict[str, list[str]]:
    """Limit name -> the cells of its row in the README's limits table."""
    rows = {}
    lines = section("Command line").splitlines()
    start = lines.index(LIMITS_HEADER)
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[re.match(r"`(\w+)`", cells[0]).group(1)] = cells
    return rows


def limits_table() -> dict[str, int]:
    """Limit name -> value, read from the README's limits table."""
    return {name: parse_value(cells[1]) for name, cells in limits_rows().items()}


def comments_and_docstrings(path: Path) -> list[tuple[int, str]]:
    """(first line, text) of every comment block and docstring of a module.

    Comments on consecutive lines are joined, so a time split across
    two lines is still one text.
    """
    source = path.read_text()
    texts, next_line = [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        line, text = tok.start[0], tok.string.lstrip("#:").strip()
        if line == next_line:
            texts[-1] = (texts[-1][0], f"{texts[-1][1]} {text}")
        else:
            texts.append((line, text))
        next_line = line + 1
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                texts.append((node.body[0].lineno, doc))
    return texts


def test_command_line_block_lists_exactly_the_parser_commands():
    block = section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {line.split()[1] for line in block.splitlines() if line.startswith("tricirc ")}
    parser = climod.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(subs.choices)


def test_limits_table_values_match_the_code():
    assert limits_table() == declared_limits()


def test_library_block_runs_and_its_stated_results_hold():
    block = section("Library").split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    spec = scope["spec"]
    assert scope["det_newton"](spec) == scope["det_bareiss"](spec)
    assert scope["det_bareiss"](spec) == scope["det_cycle_cover"](spec)
    unsigned = scope["cycle_cover_counts"](8, 3)
    assert unsigned == scope["det_newton"](spec).termwise_abs()
    assert scope["bounds_report"](8, 3).d11 == 33 == unsigned.evaluate(1, 1)


def test_limits_table_commands_run_at_the_declared_limits(monkeypatch):
    limits = declared_limits()
    parser = climod.build_parser()
    rows = limits_rows()
    assert set(rows) == set(limits)
    for name, cells in rows.items():
        command = re.match(r"`([^`]+)`", cells[3]).group(1)
        words = shlex.split(command)
        if words[0] == "python":  # the one call with no CLI command
            assert words[1] == "-c" and name == "RYSER_LIMIT"
            calls = []
            monkeypatch.setattr(permanent, "permanent_ryser", lambda *pq: calls.append(pq))
            exec(compile(words[2], "README", "exec"), {})
            assert calls == [(limits[name], 12)]
            continue
        assert words[0] == "tricirc", command
        args = parser.parse_args(words[1:])
        if name == "DP_BUDGET":  # a pair the budget admits, at its stated estimate
            cost = circulant.dp_cost(args.p, args.q)
            assert cost <= limits[name]
            assert f"(estimated at {cost / 1e9:.2f} * 10^9)" in cells[3]
        elif name in SUITE_ROWS:
            suite = SUITE_ROWS[name]
            assert (args.command, args.suite) == ("verify", suite)
            assert getattr(args, "cases" if suite == "lemmas" else "pmax") == limits[name]
        else:
            assert getattr(args, BOUNDED_FLAG[name]) == limits[name], command


def test_src_comments_and_docstrings_state_no_wall_time():
    assert HOST_TIMING.search("takes 1.62-1.66 s in process on a 2-CPU host")
    assert not HOST_TIMING.search("the 0-1 circulant with 1s in columns 1, 2, q+1")
    found = [
        f"{path.name}:{line}: {match.group()!r}"
        for path in sorted((ROOT / "src" / "tricirc").glob("*.py"))
        for line, text in comments_and_docstrings(path)
        for match in HOST_TIMING.finditer(text)
    ]
    assert not found, "measured times belong in README's tables:\n" + "\n".join(found)


def test_longest_admitted_growth_tables_are_the_longest(monkeypatch):
    # arithmetic only: the walk, the rows' own DPs, Newton and the row
    # checks are stubbed, so only the limit and the table's price run
    monkeypatch.setattr(
        circulant, "_cover_count_rows", lambda q, p_lo, p_hi: [{}] * (p_hi - p_lo + 1)
    )
    monkeypatch.setattr(circulant, "cycle_cover_counts", lambda p, q: None)
    monkeypatch.setattr(phimod, "phi_polynomial", lambda p, q: None)
    monkeypatch.setattr(permanent, "_counts", lambda *args: (1, 1, 1, True))
    tables = re.findall(
        r"^\| The longest admitted growth table [^|]*\|[^|]*"
        r"\| `tricirc growth --q (\d+) --pmax (\d+)` \|$",
        section("Command line"),
        re.MULTILINE,
    )
    assert {int(q) for q, _ in tables} >= set(range(2, 9))
    for q, p_max in ((int(q), int(p_max)) for q, p_max in tables):
        permanent.growth_table(q, p_max)
        with pytest.raises(TooLarge):
            permanent.growth_table(q, p_max + 1)
