"""The package imports nothing outside the standard library and itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equislice"


def _imported_roots(tree):
    """(line, top-level module) of every absolute import; relative
    imports stay inside the package and are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = [
        f"{path.name}:{line} imports {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in sys.stdlib_module_names and root != PACKAGE.name
    ]
    assert outside == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import numpy.linalg\nfrom sympy import Matrix\nfrom . import series\n")
    assert [root for _line, root in _imported_roots(tree)] == ["numpy", "sympy"]


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # every cold CLI call pays for what `import equislice` loads, and the
    # package needs neither module
    code = "import sys, equislice; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
