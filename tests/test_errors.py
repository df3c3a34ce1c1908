"""kronkit has one exception class, ``kronkit.errors.KronkitError``.

Every bad-input or exceeded-limit condition raises it with a message that
names it; a bug raises a built-in exception, which the command line reports
by name.
"""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kronkit"
ERRORS = ["KronkitError"]
BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def classes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def base_names(node):
    for base in node.bases:
        yield base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)


def test_errors_defines_exactly_one_class():
    assert [node.name for node in classes(PACKAGE / "errors.py")] == ERRORS


def test_no_other_module_defines_an_exception():
    exceptions = BUILTIN_EXCEPTIONS | set(ERRORS)
    found = [
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for node in classes(path)
        if exceptions & set(base_names(node))
    ]
    assert found == []
