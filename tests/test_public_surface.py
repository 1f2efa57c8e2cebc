"""Every public top-level function and class of the package is used by the
package itself: a name that only tests, demos or the benchmark reach
belongs with them, not in ``src/``.
"""

import ast
import builtins
import os

import grassdegen

PACKAGE_DIR = os.path.dirname(grassdegen.__file__)

ALLOWED = {
    "standard_sequence": "the paper's standard sequence, the example of most tests and demos",
}


def top_level_nodes():
    """(module file name, node) for every top-level statement of the package."""
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name)) as fh:
                for node in ast.parse(fh.read(), name).body:
                    yield name, node


def is_public_definition(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def references(node):
    """The names that the loads and attribute reads in ``node`` mention; an
    import mentions none."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_every_public_name_is_used_inside_the_package():
    """A use inside the name's own definition, a recursive call, does not
    count.  Each allowed name is still defined."""
    nodes = [(module, node, references(node)) for module, node in top_level_nodes()]
    public = [(module, node) for module, node, _ in nodes if is_public_definition(node)]
    unused = [
        f"{module}: {node.name}"
        for module, node in public
        if node.name not in ALLOWED
        and not any(node.name in names for _, other, names in nodes if other is not node)
    ]
    assert unused == []
    assert set(ALLOWED) <= {node.name for _, node in public}


def is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def test_every_exception_class_is_caught_by_name_inside_the_package():
    """An exception class earns its place by a handler that tells it apart:
    ``cli.main`` turns every ValueError into exit 2, so a subclass of it that
    no ``except`` names is a second name for ValueError."""
    nodes = [node for _, node in top_level_nodes()]
    defined = set()
    for node in nodes:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and (base.id in defined or is_builtin_exception(base.id))
            for base in node.bases
        ):
            defined.add(node.name)
    caught = {
        name.id
        for node in nodes
        for handler in ast.walk(node)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in ast.walk(handler.type)
        if isinstance(name, ast.Name)
    }
    assert sorted(defined - caught) == []
    assert defined == {"Infeasible"}


def test_only_the_renderer_indents_json():
    """The JSON text format lives in ``pipeline._render``: no other code
    calls ``json.dump`` or ``json.dumps`` with ``indent``.  An unindented
    call, such as the inputs hash of the manifest, is free."""
    sites = [
        (module, getattr(node, "name", None))
        for module, node in top_level_nodes()
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in ("dump", "dumps")
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "json"
        and any(keyword.arg == "indent" for keyword in call.keywords)
    ]
    assert sites == [("pipeline.py", "_render")]
