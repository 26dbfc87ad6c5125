"""No internal check in the package is an ``assert``.

``python -O`` strips assert statements, and a failed one ends in a bare
AssertionError.  Internal invariants raise ``scalars.InternalError``
instead, which the CLI reports as exit 4.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equislice"


def _asserts(tree):
    """Line of every assert statement and every raise of AssertionError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_no_module_asserts():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in _asserts(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_an_assert_is_caught():
    tree = ast.parse(
        "assert x\n"
        "if y:\n    raise AssertionError('no')\n"
        "raise AssertionError\n"
        "raise ValueError('fine')\n"
    )
    assert sorted(_asserts(tree)) == [1, 3, 4]
