"""CLI documents under mutation: every run ends in a documented outcome.

A seeded fuzz mutates the criterion-10 documents and spelled-out
Poisson, group, quantum and element documents (a dropped key, a value
of another JSON type, a list wrapped or unwrapped, a renamed
generator, the variables of a spelled-out Poisson document permuted
with their weights) and runs each mutant through ``cli.run`` in
process.  Each run must return a JSON report with status 0 to 3: a
mutated document is never an internal fault (exit 4).  An input
refusal must name the bad field in words, never with a raw Python
message such as "unhashable type: 'list'".  A permutation of the
variables keeps the exit status, the ``poisson hp0`` report and the
dimension of each weight of ``poisson center``.
"""

import itertools
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from equislice import cli
from equislice.cli import JobSpec, run
from equislice.scalars import InternalError
from test_acceptance import CLI_JOBS

RAW_PYTHON = ("unhashable", "not iterable", "cannot unpack", "has no attribute",
              "values to unpack", "Traceback")

SPELLED_OUT = [
    ("poisson jacobi", {
        "variables": ["x", "y", "z"], "weights": [1, 1, 1], "order": 4,
        "table": {"x,y": "x", "y,z": "y", "x,z": "-1*z"}, "relations": [], "degree": 0,
    }),
    # x of weight 1 comes before y of weight -1: the weight of x alone
    # does not bound its exponent in a weight slice
    ("poisson center", {
        "variables": ["x", "y", "z"], "weights": [1, -1, 0], "degree_cap": 2,
        "table": {"x,z": "x", "y,z": "-1*y"}, "weight_window": [-1, 1],
    }),
    # likewise x of weight 1 before the filtration variable u of weight -1
    ("poisson hp0", {
        "variables": ["x", "y", "u"], "weights": [1, 2, -1], "filtration": ["u"], "order": 3,
        "table": {"x,u": "1", "y,u": "x"}, "degree_cap": 4,
    }),
    ("quotient reflections", {
        "cyclotomic_order": 4, "omega": [[0, 1], [-1, 0]],
        "generators": [[[[0, 1], 0], [0, [0, -1]]]], "cap": 8,
    }),
    ("quantize build", {
        "family": "enveloping", "names": ["e", "f", "h"], "weights": [1, 1, 1], "k": 1,
        "constants": {"e,f": {"h": 1}, "e,h": {"e": -2}, "f,h": {"f": 2}},
    }),
    ("quantize central", {
        "presentation": {"family": "sl2", "order": 3},
        "element": [[1, 0, {"h": 2}], ["2", 0, {"e": 1, "f": 1}], ["-1/2", 1, {"h": 1}]],
    }),
]
DOCUMENTS = [(" ".join(args), doc) for args, doc in CLI_JOBS if doc is not None] + SPELLED_OUT
# dropping (or renaming) these would put a default in place that is larger
# than the document's own value, so a mutant could ask for more work than
# its parent; sizes stay at or below the document's own values
SIZES_WITH_LARGER_DEFAULTS = {"degree_cap", "order"}
OTHER_TYPES = [0, 0.5, True, "x", [], {}]


def _nodes(doc, path=()):
    """(path, value) of every value in the document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _mutant(doc, rng):
    """A deep copy of doc with one random mutation applied."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_nodes(doc))
    path, value = rng.choice(nodes)
    # a string value or an object key may get a name no document declares
    names = [(p, v) for p, v in nodes if isinstance(v, str)]
    names += [(p, k) for p, v in nodes if isinstance(v, dict)
              for k in v if k not in SIZES_WITH_LARGER_DEFAULTS]
    kinds = ["swap", "wrap"] + ["rename"] * bool(names) + ["permute"] * _permutable(doc)
    if path and path[-1] not in SIZES_WITH_LARGER_DEFAULTS:
        kinds.append("drop")
    if isinstance(value, list) and value:
        kinds.append("unwrap")
    kind = rng.choice(kinds)
    if kind == "permute":
        order = rng.sample(range(len(doc["variables"])), len(doc["variables"]))
        for key in ("variables", "weights"):
            doc[key] = [doc[key][i] for i in order]
        return doc
    if kind == "rename":
        path, value = rng.choice(names)
        if isinstance(_at(doc, path), dict):
            holder = _at(doc, path)
            holder[value + "9"] = holder.pop(value)
            return doc
        new = value + "9"
    elif kind == "swap":
        new = rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)])
    elif kind == "wrap":
        new = [value]
    elif kind == "unwrap":
        new = value[0]
    if not path:
        return doc if kind == "drop" else new
    holder = _at(doc, path[:-1])
    if kind == "drop":
        del holder[path[-1]]
    else:
        holder[path[-1]] = new
    return doc


def _permutable(doc) -> bool:
    """Whether doc spells out variables and their weights, two or more."""
    return (isinstance(doc, dict) and isinstance(doc.get("variables"), list)
            and isinstance(doc.get("weights"), list)
            and len(doc["variables"]) == len(doc["weights"]) > 1)


def _without_variable_order(doc):
    """doc with its (variable, weight) pairs sorted and the rest as it is;
    None when doc has no variables to permute."""
    if not _permutable(doc):
        return None
    rest = {key: value for key, value in doc.items() if key not in ("variables", "weights")}
    pairs = sorted(json.dumps(pair) for pair in zip(doc["variables"], doc["weights"]))
    return json.dumps([pairs, rest], sort_keys=True)


def _check_variable_order(command, document, mutant):
    """A mutant that only permutes the variables of document, with their
    weights, ends with the same status; its hp0 report is the same and its
    center has the same dimension at each weight."""
    (status, report), (got, permuted) = (run(JobSpec(command, d, {})) for d in (document, mutant))
    assert got == status, (command, mutant, permuted)
    if command == "poisson hp0":
        assert permuted == report, (mutant, permuted)
    elif command == "poisson center" and status == 0:
        dims = [{w: len(basis) for w, basis in r["basis"].items()} for r in (report, permuted)]
        assert dims[0] == dims[1], (mutant, permuted)


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _check_outcome(command, document):
    status, report = run(JobSpec(command, document, {}))
    json.dumps(report, sort_keys=True)
    assert status in (0, 1, 2, 3), (command, document, status, report)
    if status == 2:
        error = report["error"]
        assert not any(raw in error for raw in RAW_PYTHON), (command, document, error)
        assert not re.fullmatch(r"'[^']*'", error), (command, document, error)
    return status


def test_mutated_documents_end_in_documented_outcomes():
    rng = random.Random(13)
    statuses = set()
    permuted = 0
    for command, document in DOCUMENTS:
        assert _check_outcome(command, document) in (0, 1)
        unordered = _without_variable_order(document)
        for _ in range(100):
            mutant = _mutant(document, rng)
            if rng.random() < 0.3:
                mutant = _mutant(mutant, rng)
            statuses.add(_check_outcome(command, mutant))
            if mutant != document and unordered is not None and \
                    _without_variable_order(mutant) == unordered:
                _check_variable_order(command, document, mutant)
                permuted += 1
    # the mutants reach refusals and also documents that still run
    assert {0, 2} <= statuses
    assert permuted


def test_the_mutator_covers_every_mutation():
    rng = random.Random(1)
    document = {"a": [1, {"b": "x"}], "c": "y"}
    mutants = [json.dumps(_mutant(document, rng), sort_keys=True) for _ in range(400)]
    assert '{"a": [1, {"b": "x"}]}' in mutants  # a dropped key
    assert '{"a": [1, {"b": "x"}], "c": 0.5}' in mutants  # another type
    assert '{"a": [1, {"b": "x"}], "c": ["y"]}' in mutants  # wrapped
    assert '{"a": 1, "c": "y"}' in mutants  # unwrapped
    assert '{"a": [1, {"b": "x9"}], "c": "y"}' in mutants  # a renamed name
    assert '{"a": [1, {"b9": "x"}], "c": "y"}' in mutants  # a renamed key


def test_the_mutator_permutes_variables_with_their_weights():
    rng = random.Random(1)
    document = {"variables": ["x", "y", "z"], "weights": [1, -1, 0], "table": {}}
    mutants = {json.dumps(_mutant(document, rng), sort_keys=True) for _ in range(400)}
    permuted = {
        json.dumps(dict(document, variables=[v for v, _w in pairs], weights=[w for _v, w in pairs]),
                   sort_keys=True)
        for pairs in itertools.permutations(zip(document["variables"], document["weights"]))
    }
    assert permuted <= mutants
    assert not _permutable({"variables": ["x"], "weights": [1]})


SL2 = {"family": "sl2"}
QUANTUM_SLICE = {
    "presentation": {"family": "differential", "n": 2, "k": 1},
    "t_lift": "t", "window": [-1, 1], "truncation": 2, "degree_cap": 1,
}
# documents that once ended in a traceback, were read wrongly, or were
# refused with a raw Python message; each names the path it is refused at
REFUSED = [
    ("quantize build", {"family": "enveloping", "constants": [], "names": []}, "'constants'"),
    ("quantize build", {"family": "enveloping", "constants": {}, "names": "ab"}, "'names'"),
    ("quotient parabolics", {"builder": ["x"]}, "'builder'"),
    ("quantize normalform", {"presentation": SL2, "word": [True]}, "word[0]"),
    ("hypertoric decompose", {"matrix": [[1], [1]], "flat": 3}, "'flat'"),
    ("quotient reflections", {"omega": 3, "generators": []}, "'omega'"),
    ("poisson center", {"builder": "sl2", "weight_window": [0, 1, 2]}, "'weight_window'"),
    ("quantize slice", dict(QUANTUM_SLICE, z_lifts=7), "'z_lifts'"),
    ("quantize slice", dict(QUANTUM_SLICE, t_lift="x1"), "'t_lift'"),
    ("poisson jacobi", {"variables": ["x", "y"], "weights": [1, 1], "table": {"x,y": "q"}},
     "table['x,y']"),
    ("poisson jacobi", {"variables": ["x", "y"], "weights": [1, 1], "table": {"x,y": "1/0"}},
     "table['x,y']"),
    ("poisson jacobi", {"variables": ["x", "y"], "weights": [1, 1], "table": {"x,q": "1"}},
     "'x,q'"),
    ("quantize central", {"presentation": SL2, "element": [[1, 0, {"q": 1}]]}, "element[0][2]"),
    ("quotient reflections", {"omega": [[0, 1], [-1, 0]], "generators": [[[1, 0], [0, "x"]]]},
     "generators[0][1][1]"),
]


@pytest.mark.parametrize("command, document, path", REFUSED,
                         ids=[f"{c}-{p}" for c, _d, p in REFUSED])
def test_ill_typed_fields_are_refused_by_path(command, document, path):
    status, report = run(JobSpec(command, document, {}))
    assert status == 2 and path in report["error"], report
    assert not any(raw in report["error"] for raw in RAW_PYTHON)


def test_a_lagrangian_of_the_wrong_length_is_refused():
    document = {"builder": "cyclic", "n": 2, "base_point": [1, 0], "lagrangian": [[1, 0, 0]]}
    status, report = run(JobSpec("quotient slice", document, {}))
    assert status == 2 and "lagrangian" in report["error"]
    # refused by its path before any parabolic is tried
    for fields, error in (
        ({"lagrangian": [[1]]}, "lagrangian[0] must have one entry per dimension (2), got 1"),
        ({"base_point": [1, 0, 0]}, "base_point must have one entry per dimension (2), got 3"),
        ({"base_point": [0, 0], "lagrangian": [[1, 0]]}, "base_point must be nonzero"),
    ):
        status, report = run(JobSpec("quotient slice", dict(document, **fields), {}))
        assert (status, report["error"]) == (2, error)
    status, report = run(JobSpec("quotient slice", dict(document, lagrangian=[[1, 0]]), {}))
    assert status == 0 and report["cotangent_cover"] is True


def test_a_zero_denominator_is_refused_in_words():
    document = {"variables": ["x", "y"], "weights": [1, 1], "table": {"x,y": "1/0"}}
    status, report = run(JobSpec("poisson jacobi", document, {}))
    assert status == 2
    assert report["error"] == (
        "a 'table' value at table['x,y'] must be an element text in the generators x, y "
        "(division by zero in element text), got '1/0'"
    )


def test_an_unknown_builder_or_family_lists_the_known_names():
    status, report = run(JobSpec("poisson jacobi", {"builder": "nope"}, {}))
    assert status == 2 and "'nope'" in report["error"]
    assert all(name in report["error"] for name in cli.POISSON_BUILDERS)
    for family in ("nope", 3, None):
        status, report = run(JobSpec("quantize build", {"family": family}, {}))
        assert status == 2 and all(name in report["error"] for name in cli.QUANTUM_FAMILIES)


def test_a_refused_document_leaves_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "equislice", "quantize", "build", "-", "--json"],
        input=json.dumps(REFUSED[0][1]).encode(), capture_output=True,
    )
    assert proc.returncode == 2 and proc.stderr == b""
    assert "'constants'" in json.loads(proc.stdout)["error"]


def test_internal_faults_exit_four(monkeypatch):
    def broken(_self):
        raise InternalError("an invariant broke")

    monkeypatch.setattr(cli.PoissonPresentation, "check_jacobi", broken)
    status, report = run(JobSpec("poisson jacobi", {"builder": "sl2"}, {}))
    assert (status, report) == (4, {
        "command": "poisson jacobi", "error": "InternalError: an invariant broke",
        "internal": True,
    })
    # an exception no check foresaw is internal too, not bad input
    monkeypatch.setattr(cli.PoissonPresentation, "check_jacobi", lambda _self: {}["x"])
    status, report = run(JobSpec("poisson jacobi", {"builder": "sl2"}, {}))
    assert status == 4 and report["error"] == "KeyError: 'x'" and report["internal"]


def _schema_fields(schema):
    """The field names of an object schema and of the builder tables and
    object schemas nested in its kinds."""
    for key, kind in schema.items():
        yield key
        yield from _kind_fields(kind)


def _kind_fields(kind):
    if type(kind) is not tuple:
        return
    tag, arg, _expected = kind
    if tag == "one of":
        for name, (_build, schema) in arg.items():
            yield name
            yield from _schema_fields(schema)
    elif tag in ("list", "optional"):
        yield from _kind_fields(arg)
    elif tag == "map":
        for part in arg:
            yield from _kind_fields(part)
    elif tag == "tuple":
        for _noun, part in arg:
            yield from _kind_fields(part)


def test_every_schema_field_is_documented_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    schemas = [cli.POISSON_DOC, cli.POISSON_CONTEXT, cli.POISSON_TABLE, cli.GROUP_DOC,
               cli.GROUP_MATRICES, cli.QUANTUM_DOC, {"word": cli.WORD}]
    schemas += [schema for _handler, _main, schema in cli.COMMANDS.values()]
    names = {name for schema in schemas for name in _schema_fields(schema)}
    assert {"builder", "standard", "slice_n", "localized", "constants", "t_lift"} <= names
    missing = sorted(name for name in names if f"`{name}`" not in section)
    assert missing == []
    assert "4 when the program" in section and '"internal": true' in section
