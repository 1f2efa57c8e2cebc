"""The oracles stay independent of the code they check, and the one that
tells a selection decided above the base is right on hand-made ones."""

import ast
import os

from oracles import decided_above_base

ORACLES = os.path.join(os.path.dirname(__file__), "oracles.py")


def test_oracles_import_nothing_from_the_package():
    with open(ORACLES) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "the walk found no imports at all"
    assert not [m for m in imported if m.split(".")[0] in ("grassdegen", "")]


def test_a_tie_broken_by_a_base_digit_is_not_decided_above_the_base():
    """One relation whose initial pair has packed sum 125 * 4 + 5: a third
    term of sum 125 * 4 + 2 loses only in the base digits, one of sum
    125 * 3 + 124 loses above them."""
    pair = 125 * 4 + 5
    assert not decided_above_base((([pair], [pair], [125 * 4 + 2], [-1]), [pair]))
    assert decided_above_base((([pair], [pair], [125 * 3 + 124], [-1]), [pair]))
    assert decided_above_base((([pair], [125 * 3 + 124], [pair], [125 * 2]), [pair]))
