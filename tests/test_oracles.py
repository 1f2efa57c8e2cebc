"""The oracles stay independent of the code they check."""

import ast
import os

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
