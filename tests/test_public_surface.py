"""Every public function and method of the package has a use: its name
appears as a word in src/, tests/ or perfbench/ somewhere other than on
a line that defines it."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "equislice"
CORPUS = ("src", "tests", "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(source):
    """(qualified name, name, def line) of every module-level function and
    class method whose name does not start with an underscore."""
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS):
            members = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            members = [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, FUNCTIONS)
            ]
        else:
            continue
        for qualified, item in members:
            if not item.name.startswith("_"):
                yield qualified, item.name, item.lineno


def _unreferenced(package, corpus):
    """The public definitions in package, as "file: qualified name", whose
    name appears in the corpus only on lines that define that name.  Both
    arguments map a file name to its source."""
    definitions = [
        (path, qualified, name, line)
        for path, source in package.items()
        for qualified, name, line in _public_definitions(source)
    ]
    def_lines = defaultdict(set)
    for path, _qualified, name, line in definitions:
        def_lines[name].add((path, line))
    seen = defaultdict(set)
    for path, source in corpus.items():
        for line, text in enumerate(source.splitlines(), 1):
            for word in set(re.findall(r"\w+", text)):
                seen[word].add((path, line))
    return sorted(
        f"{path}: {qualified}"
        for path, qualified, name, _line in definitions
        if not seen[name] - def_lines[name]
    )


def test_every_public_function_and_method_is_used():
    corpus = {
        str(path.relative_to(ROOT)): path.read_text()
        for top in CORPUS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    package = {
        str(path.relative_to(ROOT)): corpus[str(path.relative_to(ROOT))]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert package
    assert _unreferenced(package, corpus) == []


def test_a_name_used_only_where_it_is_defined_is_caught():
    package = {
        "mod.py": (
            "def used():\n    pass\n\n\n"
            "def dead():\n    return used()\n\n\n"
            "class K:\n    def method(self):\n        pass\n\n"
            "    def _private(self):\n        pass\n\n"
            "    def twin(self):\n        pass\n\n\n"
            "class L:\n    def twin(self):\n        pass\n"
        )
    }
    corpus = {**package, "test_mod.py": "from mod import K\n\nK().method()\n"}
    assert _unreferenced(package, corpus) == ["mod.py: K.twin", "mod.py: L.twin", "mod.py: dead"]
