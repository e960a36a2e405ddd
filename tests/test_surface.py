"""Every public function, class and method in src/flipcheck has a caller
outside the tests."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = sorted((REPO / "src" / "flipcheck").glob("*.py"))
PERFBENCH = sorted((REPO / "perfbench").glob("*.py"))

# public names kept in src only as test oracles: none, they live in the tests
ORACLES = set()


def _public_defs(tree):
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
            if isinstance(node, ast.ClassDef):
                todo.extend(node.body)


def _references(path):
    """Names that ``path`` reads as attributes, and in src/flipcheck also
    as bare or imported names; perfbench's bare names are its own, and it
    looks flipcheck names up by string to patch them."""
    in_src = path in SRC
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif in_src and isinstance(node, ast.Name):
            yield node.id
        elif in_src and isinstance(node, ast.alias):
            yield node.name
        elif (not in_src and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value


def test_every_public_name_has_a_caller_outside_tests():
    defined = {name for path in SRC
               for name in _public_defs(ast.parse(path.read_text(encoding="utf-8")))}
    referenced = {name for path in SRC + PERFBENCH
                  for name in _references(path)}
    assert defined - referenced == ORACLES


# the methods of these types, which src calls by the same spelling
BUILTIN_METHODS = {name for t in (str, bytes, tuple, list, dict, set, int)
                   for name in dir(t)}


def _public_methods(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name


def test_no_public_method_hides_behind_a_builtin_method_name():
    """The test above matches names by spelling, so a method named like a
    builtin's (``count``, ``index``, ``copy``) would pass as called wherever
    src calls the builtin's.  The one such method is ``RuleTable.add``,
    which ``cli._sod_check`` calls."""
    methods = {name for path in SRC for name in
               _public_methods(ast.parse(path.read_text(encoding="utf-8")))}
    assert methods & BUILTIN_METHODS == {"add"}


def test_cli_functions_import_only_stdlib_modules_they_alone_need():
    """A command or golden check reaches a flipcheck module as
    ``fc.<module>``, which the package imports on first access, so no
    function in cli.py imports one itself: a relative import there would
    be a second, hand-written copy of that loader.  The imports left in
    functions are the standard-library modules only some commands need,
    ``os`` only for a stdout whose reader has gone."""
    tree = ast.parse((REPO / "src" / "flipcheck" / "cli.py")
                     .read_text(encoding="utf-8"))
    imported = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    imported.add("." * node.level + (node.module or ""))
                elif isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
    assert imported == {"argparse", "json", "os", "random"}
