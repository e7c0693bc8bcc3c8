"""The README agrees with the code: its commands, limits table and library example."""

import argparse
import re
from pathlib import Path

from tricirc import circulant, permanent, permclass, verify
from tricirc import cli as climod
from tricirc import phi as phimod

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

#: the limits that are module constants, by home module
CONSTANTS = {
    "NEWTON_LIMIT": phimod,
    "BAREISS_LIMIT": circulant,
    "DP_BUDGET": circulant,
    "BRUTEFORCE_LIMIT": circulant,
    "RYSER_LIMIT": permanent,
    "ENUMERATION_LIMIT": permclass,
    "WITNESS_LIMIT": permclass,
    "LEMMA_CASES_LIMIT": verify,
}


def declared_limits() -> dict[str, int]:
    """Every declared size limit: the constants by name, each suite's largest pmax."""
    limits = {name: getattr(module, name) for name, module in CONSTANTS.items()}
    limits.update(
        (name, row.largest) for name, row in verify._SUITES.items() if row.largest is not None
    )
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


def limits_table() -> dict[str, int]:
    """Limit name -> value, read from the README's limits table."""
    rows = {}
    lines = section("Command line").splitlines()
    start = lines.index("| Limit | Value | Seconds | Measured by |")
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, value = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows[re.match(r"`(\w+)`", name).group(1)] = parse_value(value)
    return rows


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
    assert scope["bounds_report"](8, 3).d11 == 33
