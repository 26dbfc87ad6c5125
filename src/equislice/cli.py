"""Batch command-line frontend: JSON documents in, JSON reports out.

One job per invocation.  The exit status is the verdict: 0 when the
requested computation succeeds (or the property holds), 1 when the
computation ran and the property verifiably fails (a Jacobi violation,
a non-unimodular matrix, a non-central element), 2 when the input
cannot be used at all (among others: --order below 1, or below 3 for
hypertoric verify, a negative degree cap from --degree-cap or the
document, any field of the wrong type, an unknown generator name, an
empty weight window, an EQUISLICE_MAX_STEPS that is not a non-negative
decimal integer), 3 when a step budget ran out before an answer (the
report names EQUISLICE_MAX_STEPS, which sets the budget), 4 when
the program itself failed (an InternalError or any other unforeseen
exception; the report carries "internal": true and no traceback).
Reports are JSON on stdout, sorted keys, so identical jobs produce
byte-identical output; the pretty form is a rendering of the same data,
never a different source of truth.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures
from .darboux import StageError, extract_slice, normalize_full, scramble_presentation
from .hypertoric import (
    check_unimodular,
    decompose_at,
    enumerate_leaves,
    verify_decomposition,
)
from .poisson import PoissonPresentation, RewriteLimitError, standard_presentation
from .quantize import (
    ConicRelationError,
    centrality_check,
    differential_family,
    enveloping_family,
    quantization_axiom_check,
    quantized_slice,
    sl2_casimir_element,
    sl2_enveloping,
    verify_sl2_localization,
    weyl_family,
)
from .quotient import (
    close_group,
    leaf_slice_data,
    parabolic_subgroups,
    sra_relation,
    symplectic_reflections,
)
from .scalars import CycloField, Q, exact
from .series import GradedContext


class InputError(ValueError):
    """A document that cannot be turned into a job."""


class JobSpec:
    """One job: a command, its document and its options."""

    def __init__(self, command: str, document: dict, options: dict | None = None):
        self.command = command
        self.document = document
        self.options = {} if options is None else options


# -- document schemas ---------------------------------------------------------
#
# Every document is read against a schema, plain data that one walker,
# `_Reader`, checks and turns into typed values.  An object schema maps
# each field to its kind: a leaf kind below (the string says what a value
# must be) or a (tag, argument, expectation) triple from the helpers
# after them.  A refusal is an InputError naming the path of the bad
# field, such as table['x,y'], word[0] or generators[1][0][1].

INT = "an integer"
NAT = "an integer at least 0"
BOOL = "true or false"
TEXT = "a string"
RATIONAL = 'an integer or a string such as "3/4"'
CYCLO = "a rational or a list of rational coefficients of the powers of zeta"
NAME = "one of the generators"
NAMES = "a list of generator names"
KEY = "two generators joined by a comma, such as 'x,y'"
POLY = "an element text in the generators"
WINDOW = "a window [lo, hi] of two integers with lo <= hi"
ELEMENT = ('a generator name, {"word": [...]}, {"casimir": true} or a list '
           "of [coefficient, hbar power, exponents] terms")
OBJECT = "an object"
POISSON = "a Poisson presentation document"
GROUP = "a group document"
QUANTUM = "a quantum presentation document"


def _list(item, expected="a list"):
    return ("list", item, expected)


def _map(key, value):
    return ("map", (key, value), OBJECT)


def _tuple(expected, *parts):
    """A list of fixed length; each part is (noun, kind), the noun naming
    that entry in a refusal."""
    return ("tuple", parts, expected)


def _one_of(table):
    return ("one of", table, "one of " + ", ".join(sorted(table)))


def _optional(kind, default=None):
    """An absent field reads as the default: None stays None, any other
    default is read like a value the document gave."""
    return ("optional", kind, default)


POISSON_BUILDERS = {
    "standard": (standard_presentation, {"n": INT, "k": INT, "ell": _optional(INT, 1)}),
    "sl2": (fixtures.sl2_presentation, {}),
    "kleinian": (fixtures.kleinian_presentation, {"n": INT}),
    "kleinian-product": (fixtures.kleinian_product, {"n": INT, "slice_n": INT}),
    "cyclic-nonjacobi": (fixtures.cyclic_nonjacobi, {}),
    "coupled-line": (fixtures.coupled_line_example, {}),
    "cubic-jacobian": (fixtures.cubic_jacobian, {}),
    "invariant-quadric": (fixtures.invariant_quadric, {}),
}
POISSON_DOC = {"builder": _optional(_one_of(POISSON_BUILDERS)), "order": _optional(INT, 6)}
# a spelled-out presentation: its graded context, then its brackets
POISSON_CONTEXT = {
    "variables": NAMES,
    "weights": _list(INT),
    "invertible": _optional(_list(NAME), []),
    "filtration": _optional(_list(NAME), []),
}
POISSON_TABLE = {
    "table": _map(KEY, POLY),
    "relations": _optional(_list(POLY), []),
    "degree": _optional(INT),
}

GROUP_BUILDERS = {
    "cyclic": (fixtures.cyclic_plane_action, {"n": INT}),
    "pairwise-sign": (fixtures.pairwise_sign_action, {}),
    "binary-dihedral": (fixtures.binary_dihedral_action, {}),
}
GROUP_DOC = {
    "builder": _optional(_one_of(GROUP_BUILDERS)), "cyclotomic_order": _optional(INT, 1),
}
GROUP_MATRICES = {
    "omega": _list(_list(CYCLO)),
    "generators": _list(_list(_list(CYCLO))),
    "cap": _optional(INT, 512),
}

QUANTUM_FAMILIES = {
    "differential": (differential_family, {"n": INT, "k": INT}),
    "weyl": (weyl_family, {"pairs": INT, "k": INT}),
    "sl2": (sl2_enveloping, {"localized": _optional(BOOL, False)}),
    "enveloping": (enveloping_family, {
        "names": NAMES,
        "constants": _map(KEY, _map(NAME, RATIONAL)),
        "weights": _optional(_list(INT)),
        "k": _optional(INT, 1),
        "invertible": _optional(_list(NAME), []),
    }),
}
QUANTUM_DOC = {"family": _one_of(QUANTUM_FAMILIES), "order": _optional(INT, 3)}
WORD = _list(_tuple("a [generator, exponent] pair",
                    ("a 'word' generator", NAME), ("a 'word' exponent", INT)))
TERM = _tuple("a [coefficient, hbar power, exponents] term",
              ("an element term's coefficient", RATIONAL),
              ("an element term's hbar power", INT),
              ("an element term's exponent", _map(NAME, INT)))


class _Reader:
    """Reads documents against schemas, in a scope: `names` for NAME and
    KEY (set by a NAMES field and by each presentation read), `field` for
    CYCLO, `ctx` for POLY and `algebra` for ELEMENT, each set by the read
    that defines it.  A field that an option also sets, --order or
    --degree-cap, takes the option's value when it was given, and the
    document's value is not read."""

    def __init__(self, opts=None):
        self.opts = opts or {}
        self.names, self.field, self.ctx, self.algebra = (), None, None, None

    def object(self, doc, schema: dict, path: str = "") -> dict:
        if type(doc) is not dict:
            what = f"the {path!r} field" if path else "the document"
            raise InputError(f"{what} must be {OBJECT}, got {doc!r}")
        out = {}
        for key, kind in schema.items():
            at = f"{path}.{key}" if path else key
            if key in ("order", "degree_cap") and self.opts.get(key) is not None:
                out[key] = self.opts[key]
                continue
            if type(kind) is tuple and kind[0] == "optional":
                _tag, kind, default = kind
                if key not in doc and default is None:
                    out[key] = None
                    continue
                value = doc.get(key, default)
            elif key in doc:
                value = doc[key]
            else:
                raise InputError(f"the document is missing the {at!r} field")
            noun = "value" if type(kind) is tuple and kind[0] == "map" else "entry"
            out[key] = self.value(value, kind, at, f"a {key!r} {noun}", f"the {at!r} field")
        return out

    def value(self, value, kind, path: str, noun: str, what: str = ""):
        """value read as kind.  what names it in a refusal, by default as
        noun at path; noun names the entries inside it."""
        what = what or f"{noun} at {path}"
        expected = kind
        if type(kind) is tuple:
            tag, arg, expected = kind
            if tag == "one of" and type(value) is str and value in arg:
                return arg[value]
            if tag == "list" and type(value) is list:
                return [self.value(v, arg, f"{path}[{i}]", noun) for i, v in enumerate(value)]
            if tag == "tuple" and type(value) is list and len(value) == len(arg):
                return [self.value(v, part, f"{path}[{i}]", part_noun)
                        for i, (v, (part_noun, part)) in enumerate(zip(value, arg))]
            if tag == "map" and type(value) is dict:
                key_kind, value_kind = arg
                return {
                    self.value(k, key_kind, path, noun, f"the key {k!r} of {path}"):
                    self.value(v, value_kind, f"{path}[{k!r}]", noun)
                    for k, v in value.items()
                }
        elif kind in (INT, NAT) and type(value) is int:
            if kind == INT or value >= 0:
                return value
        elif kind in (BOOL, TEXT, OBJECT):
            if type(value) is {BOOL: bool, TEXT: str, OBJECT: dict}[kind]:
                return value
        elif kind == RATIONAL and type(value) in (int, str):
            try:
                return exact(Q(value))
            except (ValueError, ZeroDivisionError):
                pass
        elif kind == CYCLO:
            if type(value) is not list:
                return self.value(value, RATIONAL, path, noun, what)
            z, total = self.field.zeta(), self.field.zero()
            for i, c in enumerate(value):
                total = total + z ** i * self.value(c, RATIONAL, f"{path}[{i}]", noun)
            return total
        elif kind == NAME:
            if type(value) is str and value in self.names:
                return value
            expected = f"{NAME} {', '.join(self.names)}"
        elif kind == NAMES:
            self.names = tuple(self.value(value, _list(TEXT), path, noun, what))
            return list(self.names)
        elif kind == KEY:
            pair = tuple(value.split(","))
            if len(pair) == 2 and all(name in self.names for name in pair):
                return pair
            expected = f"two of the generators {', '.join(self.names)} joined by a comma"
        elif kind == POLY and type(value) is str:
            try:
                return self.ctx.parse(value)
            except (KeyError, ValueError) as exc:
                expected = f"{POLY} {', '.join(self.names)} ({exc.args[0]})"
        elif kind == WINDOW:
            lo, hi = self.value(value, _tuple(WINDOW, (noun, INT), (noun, INT)), path, noun, what)
            if lo > hi:
                raise InputError(f"the weight window [{lo}, {hi}] at {path} is empty")
            return lo, hi
        elif kind == ELEMENT:
            if type(value) is str:
                return self.algebra.var(self.value(value, NAME, path, noun, what))
            if type(value) is dict and "word" in value:
                word = self.object(value, {"word": WORD}, path)["word"]
                return self.algebra.normal_form(word)
            if type(value) is dict and value.get("casimir") is True:
                return sl2_casimir_element(self.algebra)
            if type(value) is list:
                return self.algebra.from_terms(self.value(value, _list(TERM), path, noun, what))
        elif kind in (POISSON, GROUP, QUANTUM):
            read = {POISSON: self.poisson, GROUP: self.group, QUANTUM: self.quantum}[kind]
            return read(value, path)
        raise InputError(f"{what} must be {expected}, got {value!r}")

    def poisson(self, doc, path: str = "") -> PoissonPresentation:
        head = self.object(doc, POISSON_DOC, path)
        if head["builder"]:
            build, schema = head["builder"]
            pres = build(**self.object(doc, schema, path), order=head["order"])
        else:
            self.ctx = GradedContext(**self.object(doc, POISSON_CONTEXT, path), order=head["order"])
            pres = PoissonPresentation(self.ctx, **self.object(doc, POISSON_TABLE, path))
        self.names = pres.ctx.variables
        return pres

    def group(self, doc, path: str = ""):
        head = self.object(doc, GROUP_DOC, path)
        if head["builder"]:
            build, schema = head["builder"]
            group = build(**self.object(doc, schema, path))
        else:
            self.field = CycloField(head["cyclotomic_order"])
            spec = self.object(doc, GROUP_MATRICES, path)
            group = close_group(spec["generators"], spec["omega"],
                                field=self.field, cap=spec["cap"])
        self.field = group.field
        return group

    def quantum(self, doc, path: str = ""):
        head = self.object(doc, QUANTUM_DOC, path)
        build, schema = head["family"]
        self.algebra = build(**self.object(doc, schema, path), order=head["order"])
        self.names = self.algebra.names
        return self.algebra


def load_poisson(doc: dict, order=None) -> PoissonPresentation:
    return _Reader({"order": order}).poisson(doc)


# -- command handlers ---------------------------------------------------------
# Each takes the structure its document describes (or None), the typed
# fields of the document and the options; see COMMANDS.


def _poisson_jacobi(p, fields, opts):
    failures = p.check_jacobi()
    return (0 if not failures else 1), {
        "ok": not failures, "failures": failures,
    }


def _poisson_degree(p, fields, opts):
    return 0, {"degree": p.homogeneity_degree()}


def _poisson_center(p, fields, opts):
    lo, hi = fields["weight_window"]
    basis = p.poisson_center_basis(range(lo, hi + 1), degree_cap=fields["degree_cap"])
    return 0, {
        "basis": {
            str(w): [str(e) for e in elems]
            for w, elems in sorted(basis.items())
        },
    }


def _poisson_hp0(p, fields, opts):
    dims = p.hp0_graded(fields["degree_cap"])
    return 0, {"dimensions": {str(w): d for w, d in sorted(dims.items())}}


def _poisson_gradings(p, fields, opts):
    ctx = p.ctx
    try:
        degree = p.homogeneity_degree()
    except ValueError:
        degree = None
    report = {
        "variables": list(ctx.variables),
        "weights": list(ctx.weights),
        "invertible": sorted(ctx.invertible),
        "filtration": sorted(ctx.filtration),
        "order": ctx.order,
        "declared_degree": p.degree,
        "degree": degree,
    }
    if degree is not None:
        report["search"] = [list(w) for w in p.grading_search(degree, fields["degree_cap"])]
    return 0, report


def _darboux_normalize(p, fields, opts):
    try:
        cert = normalize_full(p)
    except StageError as exc:
        return 1, {"ok": False, "stage_error": str(exc)}
    return 0, cert.as_json()


def _darboux_slice(p, fields, opts):
    pairs = tuple(name for pair in fields["pairs"] for name in pair)
    report = extract_slice(p, fields["t"], pairs, degree_cap=fields["degree_cap"],
                           weight=fields["weight"])
    return 0, {
        "weight": report["weight"],
        "generators": [str(g) for g in report["generators"]],
        "basis": [str(e) for e in report["basis"]],
    }


def _hypertoric_unimodular(_none, fields, opts):
    ok, witness = check_unimodular(fields["matrix"])
    return (0 if ok else 1), {"unimodular": ok, "witness": witness}


def _hypertoric_leaves(_none, fields, opts):
    leaves = enumerate_leaves(fields["matrix"])
    return 0, {
        "leaves": [leaf.as_json() for leaf in leaves],
        "dimensions": sorted({leaf.leaf_dim for leaf in leaves}, reverse=True),
    }


def _decompose_at_flat(matrix, flat):
    leaves = enumerate_leaves(matrix)
    for leaf in leaves:
        if leaf.as_json()["flat"] == flat:
            return decompose_at(matrix, leaf)
    raise InputError(
        f"no leaf has flat {flat}; "
        f"available: {[leaf.as_json()['flat'] for leaf in leaves]}"
    )


def _hypertoric_decompose(_none, fields, opts):
    return 0, _decompose_at_flat(fields["matrix"], fields["flat"]).as_json()


def _hypertoric_verify(_none, fields, opts):
    report = _decompose_at_flat(fields["matrix"], fields["flat"])
    verdict = verify_decomposition(
        fields["matrix"], report, order=opts.get("order") or 5
    )
    return (0 if verdict["ok"] else 1), verdict


def _quotient_parabolics(group, fields, opts):
    records = parabolic_subgroups(group)
    return 0, {
        "group": group.as_json(),
        "parabolics": [r.as_json() for r in records],
    }


def _quotient_reflections(group, fields, opts):
    return 0, symplectic_reflections(group).as_json()


def _quotient_slice(group, fields, opts):
    lagrangian = [(f"lagrangian[{i}]", w) for i, w in enumerate(fields["lagrangian"] or [])]
    for path, vector in [("base_point", fields["base_point"]), *lagrangian]:
        if len(vector) != group.dim:
            raise InputError(
                f"{path} must have one entry per dimension ({group.dim}), got {len(vector)}"
            )
    if not any(fields["base_point"]):
        raise InputError("base_point must be nonzero")
    last = None
    for record in parabolic_subgroups(group):
        try:
            return 0, leaf_slice_data(
                group, record, fields["base_point"], lagrangian=fields["lagrangian"]
            )
        except ValueError as exc:
            last = exc
    raise InputError(f"no parabolic matches the base point: {last}")


def _quotient_sra(group, fields, opts):
    sra = symplectic_reflections(group)
    relation = sra_relation(group, sra, fields["x"], fields["y"])
    return 0, {
        "relation": {
            f"{param},{idx}": str(coeff)
            for (param, idx), coeff in sorted(relation.items())
        },
        "params": list(sra.params),
    }


def _quantize_build(algebra, fields, opts):
    confluence = algebra.certify_confluence()
    return (0 if confluence["ok"] else 1), {
        "presentation": algebra.as_json(),
        "confluence": confluence,
    }


def _quantize_normalform(_none, fields, opts):
    algebra = fields["presentation"]
    return 0, {"normal_form": algebra.render(algebra.normal_form(fields["word"]))}


def _quantize_central(_none, fields, opts):
    report = centrality_check(fields["presentation"], fields["element"])
    return (0 if report["ok"] else 1), report


def _quantize_slice(_none, fields, opts):
    try:
        result = quantized_slice(
            fields["presentation"], fields["t_lift"], fields["z_lifts"],
            truncation=fields["truncation"], weight_window=fields["window"],
            degree_cap=fields["degree_cap"],
        )
    except ConicRelationError as exc:
        return 1, {"ok": False, "error": str(exc)}
    status = 0 if result.closure["ok"] else 1
    return status, result.as_json()


def _quantize_axiom(_none, fields, opts):
    # --order truncates the classical side only
    algebra = _Reader().quantum(fields["quantum"], "quantum")
    report = quantization_axiom_check(algebra, fields["classical"])
    return (0 if report["ok"] else 1), report


# -- selftest ------------------------------------------------------------------


def _selftest(_none, fields, opts):
    order = opts.get("order") or 6
    seed = opts.get("seed") or 0

    def sl2_jacobi():
        return fixtures.sl2_presentation(order=order).check_jacobi() == []

    def sl2_degree():
        return fixtures.sl2_presentation(order=order).homogeneity_degree() == -1

    def kleinian_jacobi():
        p = fixtures.kleinian_presentation(3, order=order)
        return p.check_jacobi() == [] and p.homogeneity_degree() == -2

    def cyclic_counterexample():
        failures = fixtures.cyclic_nonjacobi(order=order).check_jacobi()
        return len(failures) == 1 and sorted(
            failures[0]["residue"].replace("1*", "").split(" + ")
        ) == ["x", "y", "z"]

    def counterexample_center():
        p = fixtures.coupled_line_example()
        basis = p.poisson_center_basis((1, 1), degree_cap=6)
        return [str(e) for e in basis.get(1, ())] == [
            "1*t + -1*t*z + 1/2*t*z^2 + -1/6*t*z^3 + 1/24*t*z^4 + -1/120*t*z^5"
        ]

    def counterexample_twisted():
        cert = normalize_full(fixtures.coupled_line_example())
        return not cert.is_product()

    def hypertoric_line():
        dims = {leaf.leaf_dim for leaf in enumerate_leaves([[1], [1]])}
        leaf = enumerate_leaves([[1], [1]])[0]
        verdict = verify_decomposition(
            [[1], [1]], decompose_at([[1], [1]], leaf), order=5
        )
        return dims == {2, 0} and verdict["ok"]

    def hypertoric_rectangle():
        b = [[1, 0], [1, 0], [0, 1], [0, 1]]
        return {leaf.leaf_dim for leaf in enumerate_leaves(b)} == {4, 2, 2, 0}

    def quotient_z2():
        group = fixtures.cyclic_plane_action(2)
        records = parabolic_subgroups(group)
        sra = symplectic_reflections(group)
        relation = sra_relation(
            group, sra, (Q(1), Q(0)), (Q(0), Q(1))
        )
        return (
            len(records) == 2
            and len(sra.reflections) == 1
            and set(relation) == {("hbar", 0), ("c1", 1)}
        )

    def quantize_axiom():
        return quantization_axiom_check(
            differential_family(1, 1, order=3),
            standard_presentation(1, 1, order=max(order, 4)),
        )["ok"]

    def quantize_localization():
        return verify_sl2_localization(order=3)["ok"]

    def darboux_roundtrip():
        p = standard_presentation(1, 2, order=order)
        _change, scrambled = scramble_presentation(p, [], seed=seed)
        cert = normalize_full(scrambled)
        return cert.is_product()

    checks = [
        sl2_jacobi, sl2_degree, kleinian_jacobi, cyclic_counterexample,
        counterexample_center, counterexample_twisted, hypertoric_line,
        hypertoric_rectangle, quotient_z2, quantize_axiom,
        quantize_localization, darboux_roundtrip,
    ]
    # each check reports under its name, dashed: sl2_jacobi as sl2-jacobi
    matrix = {
        check.__name__.replace("_", "-"): "pass" if check() else "fail"
        for check in checks
    }
    ok = all(v == "pass" for v in matrix.values())
    return (0 if ok else 1), {
        "ok": ok, "order": order, "seed": seed, "fixtures": matrix,
    }


CAP = {"degree_cap": _optional(NAT)}
MATRIX = {"matrix": _list(_list(INT))}
LEAF = {**MATRIX, "flat": _optional(_list(INT), [])}
PAIRS = _list(_list(NAME, 'a list of names (pairs are name lists, like [["z1", "z2"]])'))
# command: (handler, the kind of the whole document or None, its fields)
COMMANDS = {
    "poisson jacobi": (_poisson_jacobi, POISSON, {}),
    "poisson degree": (_poisson_degree, POISSON, {}),
    "poisson center": (_poisson_center, POISSON, {"weight_window": WINDOW, **CAP}),
    "poisson hp0": (_poisson_hp0, POISSON, {"degree_cap": NAT}),
    "poisson gradings": (_poisson_gradings, POISSON, {"degree_cap": _optional(NAT, 2)}),
    "darboux normalize": (_darboux_normalize, POISSON, {}),
    "darboux slice": (_darboux_slice, POISSON, {
        "t": _optional(NAME, "t"), "pairs": _optional(PAIRS, []), **CAP,
        "weight": _optional(INT, 0),
    }),
    "hypertoric unimodular": (_hypertoric_unimodular, None, MATRIX),
    "hypertoric leaves": (_hypertoric_leaves, None, MATRIX),
    "hypertoric decompose": (_hypertoric_decompose, None, LEAF),
    "hypertoric verify": (_hypertoric_verify, None, LEAF),
    "quotient parabolics": (_quotient_parabolics, GROUP, {}),
    "quotient reflections": (_quotient_reflections, GROUP, {}),
    "quotient slice": (_quotient_slice, GROUP, {
        "base_point": _list(CYCLO), "lagrangian": _optional(_list(_list(CYCLO))),
    }),
    "quotient sra": (_quotient_sra, GROUP, {"x": _list(CYCLO), "y": _list(CYCLO)}),
    "quantize build": (_quantize_build, QUANTUM, {}),
    "quantize normalform": (_quantize_normalform, None, {"presentation": QUANTUM, "word": WORD}),
    "quantize central": (_quantize_central, None, {"presentation": QUANTUM, "element": ELEMENT}),
    "quantize slice": (_quantize_slice, None, {
        "presentation": QUANTUM, "t_lift": ELEMENT, "z_lifts": _optional(_list(ELEMENT), []),
        "window": WINDOW, "truncation": INT, "degree_cap": _optional(NAT, 4),
    }),
    "quantize axiom": (_quantize_axiom, None, {"quantum": OBJECT, "classical": POISSON}),
    "selftest": (_selftest, None, {}),
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Dispatch one job; returns (exit status, report)."""
    if job.command not in COMMANDS:
        return 2, {"error": f"unknown command {job.command!r}"}
    handler, main, schema = COMMANDS[job.command]
    order = job.options.get("order")
    if order is not None and order < 1:
        return 2, {"error": f"--order must be at least 1, got {order}",
                   "command": job.command}
    cap = job.options.get("degree_cap")
    if cap is not None and cap < 0:
        return 2, {"error": f"--degree-cap must be at least 0, got {cap}",
                   "command": job.command}
    try:
        reader = _Reader(job.options)
        doc = main and reader.value(job.document, main, "", "", "the document")
        return handler(doc, reader.object(job.document, schema), job.options)
    except RewriteLimitError as exc:
        return 3, {"error": str(exc), "command": job.command,
                   "budget": "EQUISLICE_MAX_STEPS"}
    except ValueError as exc:  # InputError and the library's refusals
        return 2, {"error": str(exc), "command": job.command}
    except Exception as exc:  # InternalError, or a fault no check foresaw
        return 4, {"error": f"{type(exc).__name__}: {exc}",
                   "command": job.command, "internal": True}


def render_report(report: dict, compact: bool) -> str:
    if compact:
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--order", type=int, default=argparse.SUPPRESS,
        help="truncation order override",
    )
    common.add_argument(
        "--degree-cap", dest="degree_cap", type=int,
        default=argparse.SUPPRESS, help="degree cap for basis searches",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="seed for randomized fixtures",
    )
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="compact single-line JSON output",
    )
    common.add_argument(
        "--pretty", action="store_true", default=argparse.SUPPRESS,
        help="indented JSON output (the default)",
    )
    common.add_argument(
        "--output", default=argparse.SUPPRESS,
        help="write the report to this path instead of stdout",
    )
    parser = argparse.ArgumentParser(
        prog="equislice", parents=[common],
        description="equivariant Poisson decompositions, exact arithmetic",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command in COMMANDS:
        group, _, op = command.partition(" ")
        if group not in groups:
            gp = sub.add_parser(group, parents=[common])
            groups[group] = op and gp.add_subparsers(dest="op", required=True)
        if op:
            groups[group].add_parser(op, parents=[common]).add_argument(
                "file", nargs="?", default="-",
                help="JSON document path, or - for stdin",
            )
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    options = {
        key: getattr(ns, key)
        for key in ("order", "degree_cap", "seed")
        if hasattr(ns, key)
    }
    compact = getattr(ns, "json", False) and not getattr(ns, "pretty", False)
    if ns.group == "selftest":
        command, document = "selftest", {}
    else:
        command = f"{ns.group} {ns.op}"
        try:
            if ns.file == "-":
                document = json.load(sys.stdin)
            else:
                with open(ns.file, encoding="utf-8") as handle:
                    document = json.load(handle)
        except json.JSONDecodeError as exc:
            report = {
                "error": f"malformed JSON: {exc.msg}",
                "line": exc.lineno,
                "column": exc.colno,
            }
            sys.stdout.write(render_report(report, compact))
            return 2
        except OSError as exc:
            sys.stdout.write(render_report({"error": str(exc)}, compact))
            return 2
    status, report = run(JobSpec(command, document, options))
    text = render_report(report, compact)
    output = getattr(ns, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
