"""Every division in the package is scalars.quo.

Coefficients that are integral are plain ints, and ``int / int`` is a
float in Python, as is ``int ** -1``.  So the package divides only
through ``scalars.quo``: this test fails on any true division (``/``
or ``/=``) outside that function and on any power whose exponent is a
negative number literal (``c ** -1``, ``c ** (-1)``)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equislice"
ALLOWED = {("scalars.py", "quo")}


def _negative_literal(node) -> bool:
    # the parser reads -1 as a unary minus applied to the constant 1
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant))


def _offences(tree, filename: str):
    """(line, what) of every division and negative literal power outside
    the allowed functions."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.Div) and (filename, function) not in ALLOWED:
                found.append((node.lineno, "true division"))
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(node.op, ast.Pow) and _negative_literal(exponent):
                found.append((node.lineno, "negative literal power"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_division_goes_through_quo():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line} {what}"
        for path in modules
        for line, what in _offences(ast.parse(path.read_text(), str(path)), path.name)
    ]
    assert found == []


def test_quo_is_where_the_division_is():
    tree = ast.parse((PACKAGE / "scalars.py").read_text())
    quo = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "quo")
    assert any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div) for n in ast.walk(quo))


def test_divisions_and_negative_powers_are_caught():
    source = (
        "def f(c, a, b, e):\n"
        "    x = c ** (-1)\n"
        "    y = c ** -1\n"
        "    z = a / b\n"
        "    a /= b\n"
        "    w = c ** -2.0\n"
        "    return a // b, c ** -e, c ** 2, x, y, z, w\n"
        "def quo(a, b):\n"
        "    return a / b\n"
    )
    tree = ast.parse(source)
    assert [line for line, _what in _offences(tree, "series.py")] == [2, 3, 4, 5, 6, 9]
    assert [line for line, _what in _offences(tree, "scalars.py")] == [2, 3, 4, 5, 6]
