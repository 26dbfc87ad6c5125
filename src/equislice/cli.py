"""Batch command-line frontend: JSON documents in, JSON reports out.

One job per invocation.  The exit status is the verdict: 0 when the
requested computation succeeds (or the property holds), 1 when the
computation ran and the property verifiably fails (a Jacobi violation,
a non-unimodular matrix, a non-central element), 2 when the input
cannot be used at all (among others: --order below 1, a negative
degree cap from --degree-cap or the document, an integer field that
holds a float, bool or string, an empty weight window), 3 when a step
budget ran out before an answer (the report names EQUISLICE_MAX_STEPS,
which sets the budget).  Reports are JSON on stdout, sorted keys, so
identical jobs produce byte-identical output; the pretty form is a
rendering of the same data, never a different source of truth.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

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


@dataclass
class JobSpec:
    command: str
    document: dict
    options: dict = field(default_factory=dict)


# -- document loaders --------------------------------------------------------


def _need(doc: dict, key: str):
    if key not in doc:
        raise InputError(f"the document is missing the {key!r} field")
    return doc[key]


def _degree_cap(opts: dict, fallback):
    """The --degree-cap option when it was given (0 is a cap too), else
    the fallback, which is usually the document's 'degree_cap'; refused
    unless an integer at least 0, whichever source it came from."""
    cap = opts.get("degree_cap")
    cap = fallback if cap is None else cap
    if cap is not None and _int(cap, "the 'degree_cap' field") < 0:
        raise InputError(f"the 'degree_cap' must be at least 0, got {cap}")
    return cap


def _window(doc: dict, key: str) -> tuple:
    lo, hi = (_int(x, f"a {key!r} entry") for x in _need(doc, key))
    if lo > hi:
        raise InputError(f"the weight window [{lo}, {hi}] is empty")
    return lo, hi


def _int(value, what: str) -> int:
    """value when it is an int (not a bool, float or string), so that no
    input is silently truncated; else an InputError naming the field."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _int_field(doc: dict, key: str, default=None) -> int:
    """The document's integer field, required when there is no default."""
    value = _need(doc, key) if default is None else doc.get(key, default)
    return _int(value, f"the {key!r} field")


def _int_matrix(doc: dict) -> list:
    """The 'matrix' field, refused unless it is a list of rows whose
    entries are all integers."""
    matrix = _need(doc, "matrix")
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise InputError("the 'matrix' field must be a list of rows")
    for row in matrix:
        for x in row:
            _int(x, "a 'matrix' entry")
    return matrix


def _rational(value, what: str):
    """value as an exact rational when it is an int (not a bool) or a
    string such as "3/4"; a JSON float would bring its binary rounding
    in (0.1 is 3602879701896397/36028797018963968) and a bool is not a
    number, so both are refused, naming the field."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return exact(Q(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what} is not a rational number: {value!r}") from exc
    raise InputError(
        f"{what} must be an integer or a string such as \"3/4\", got {value!r}"
    )


def load_poisson(doc: dict, order=None) -> PoissonPresentation:
    if not isinstance(doc, dict):
        raise InputError("a presentation document must be a JSON object")
    builder = doc.get("builder")
    if builder is not None:
        pick = order or _int_field(doc, "order", 6)
        table = {
            "standard": lambda: standard_presentation(
                _int_field(doc, "n"), _int_field(doc, "k"),
                ell=_int_field(doc, "ell", 1), order=pick,
            ),
            "sl2": lambda: fixtures.sl2_presentation(order=pick),
            "kleinian": lambda: fixtures.kleinian_presentation(
                _int_field(doc, "n"), order=pick
            ),
            "kleinian-product": lambda: fixtures.kleinian_product(
                _int_field(doc, "n"), _int_field(doc, "slice_n"), order=pick
            ),
            "cyclic-nonjacobi": lambda: fixtures.cyclic_nonjacobi(order=pick),
            "coupled-line": lambda: fixtures.coupled_line_example(order=pick),
            "cubic-jacobian": lambda: fixtures.cubic_jacobian(order=pick),
            "invariant-quadric": lambda: fixtures.invariant_quadric(order=pick),
        }
        if builder not in table:
            raise InputError(f"unknown builder {builder!r}")
        return table[builder]()
    variables = _need(doc, "variables")
    weights = _need(doc, "weights")
    ctx = GradedContext(
        variables,
        weights,
        invertible=doc.get("invertible", ()),
        filtration=doc.get("filtration", ()),
        order=order or _int_field(doc, "order", 6),
    )
    entries = _need(doc, "table")
    if not isinstance(entries, dict):
        raise InputError("the 'table' field must be an object of 'a,b': text entries")
    table = {}
    for key, text in entries.items():
        pair = tuple(key.split(","))
        if len(pair) != 2:
            raise InputError(f"table keys look like 'a,b', got {key!r}")
        table[pair] = ctx.parse(_text(text, f"the table entry {key!r}"))
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise InputError("the 'relations' field must be a list of texts")
    relations = tuple(ctx.parse(_text(r, "a 'relations' entry")) for r in relations)
    # an absent degree is undeclared, a present one an integer
    degree = _int_field(doc, "degree") if "degree" in doc else None
    return PoissonPresentation(ctx, table, relations=relations, degree=degree)


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string, got {value!r}")
    return value


def _cyclo_entry(fld: CycloField, value, what: str):
    """A field element: a rational, or a list of rational coefficients of
    the powers of zeta."""
    if isinstance(value, list):
        z = fld.zeta()
        total = fld.zero()
        for i, c in enumerate(value):
            total = total + z ** i * _rational(c, what)
        return total
    return _rational(value, what)


def load_group(doc: dict):
    if not isinstance(doc, dict):
        raise InputError("a group document must be a JSON object")
    builder = doc.get("builder")
    if builder == "cyclic":
        return fixtures.cyclic_plane_action(_int_field(doc, "n"))
    if builder == "pairwise-sign":
        return fixtures.pairwise_sign_action()
    if builder == "binary-dihedral":
        return fixtures.binary_dihedral_action()
    if builder is not None:
        raise InputError(f"unknown builder {builder!r}")
    fld = CycloField(_int_field(doc, "cyclotomic_order", 1))
    omega = tuple(
        tuple(_cyclo_entry(fld, v, "an 'omega' entry") for v in row)
        for row in _need(doc, "omega")
    )
    generators = [
        tuple(
            tuple(_cyclo_entry(fld, v, "a 'generators' entry") for v in row)
            for row in mat
        )
        for mat in _need(doc, "generators")
    ]
    return close_group(
        generators, omega, field=fld, cap=_int_field(doc, "cap", 512)
    )


def load_quantum(doc: dict, order=None):
    if not isinstance(doc, dict):
        raise InputError("a quantum document must be a JSON object")
    family = _need(doc, "family")
    pick = order or _int_field(doc, "order", 3)
    if family == "differential":
        return differential_family(
            _int_field(doc, "n"), _int_field(doc, "k"), order=pick
        )
    if family == "weyl":
        return weyl_family(
            _int_field(doc, "pairs"), _int_field(doc, "k"), order=pick
        )
    if family == "sl2":
        localized = doc.get("localized", False)
        if type(localized) is not bool:
            raise InputError(
                f"the 'localized' field must be true or false, got {localized!r}"
            )
        return sl2_enveloping(order=pick, localized=localized)
    if family == "enveloping":
        constants = {}
        for key, row in _need(doc, "constants").items():
            pair = tuple(key.split(","))
            if len(pair) != 2:
                raise InputError(f"constant keys look like 'a,b', got {key!r}")
            constants[pair] = {
                g: _rational(c, "a 'constants' value") for g, c in row.items()
            }
        return enveloping_family(
            _need(doc, "names"),
            constants,
            weights=doc.get("weights"),
            k=_int_field(doc, "k", 1),
            invertible=doc.get("invertible", ()),
            order=pick,
        )
    raise InputError(f"unknown family {family!r}")


def _word(word) -> list:
    return [(name, _int(exp, "a 'word' exponent")) for name, exp in word]


def load_quantum_element(algebra, spec):
    if isinstance(spec, str):
        return algebra.var(spec)
    if isinstance(spec, dict) and "word" in spec:
        return algebra.normal_form(_word(spec["word"]))
    if isinstance(spec, dict) and spec.get("casimir"):
        return sl2_casimir_element(algebra)
    if isinstance(spec, list):
        return algebra.from_terms([
            (_rational(c, "an element term's coefficient"),
             _int(h, "an element term's hbar power"),
             {name: _int(exps[name], "an element term's exponent")
              for name in exps})
            for c, h, exps in spec
        ])
    raise InputError(
        "an element is a generator name, {'word': [...]}, "
        "{'casimir': true}, or a list of [coeff, hbar_power, exponents]"
    )


# -- command handlers ---------------------------------------------------------


def _poisson_jacobi(doc, opts):
    p = load_poisson(doc, opts.get("order"))
    failures = p.check_jacobi()
    return (0 if not failures else 1), {
        "ok": not failures, "failures": failures,
    }


def _poisson_degree(doc, opts):
    p = load_poisson(doc, opts.get("order"))
    return 0, {"degree": p.homogeneity_degree()}


def _poisson_center(doc, opts):
    p = load_poisson(doc, opts.get("order"))
    lo, hi = _window(doc, "weight_window")
    cap = _degree_cap(opts, doc.get("degree_cap"))
    basis = p.poisson_center_basis(range(lo, hi + 1), degree_cap=cap)
    return 0, {
        "basis": {
            str(w): [str(e) for e in elems]
            for w, elems in sorted(basis.items())
        },
    }


def _poisson_hp0(doc, opts):
    p = load_poisson(doc, opts.get("order"))
    cap = _degree_cap(opts, doc.get("degree_cap"))
    if cap is None:
        raise InputError("hp0 needs a degree cap (--degree-cap or document)")
    dims = p.hp0_graded(cap)
    return 0, {"dimensions": {str(w): d for w, d in sorted(dims.items())}}


def _poisson_gradings(doc, opts):
    p = load_poisson(doc, opts.get("order"))
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
        bound = _degree_cap(opts, 2)
        report["search"] = [
            list(w) for w in p.grading_search(degree, bound)
        ]
    return 0, report


def _darboux_normalize(doc, opts):
    p = load_poisson(doc, opts.get("order"))
    try:
        cert = normalize_full(p)
    except StageError as exc:
        return 1, {"ok": False, "stage_error": str(exc)}
    return 0, cert.as_json()


def _darboux_slice(doc, opts):
    p = load_poisson(doc, opts.get("order"))
    pairs = doc.get("pairs", ())
    if not all(isinstance(pair, list) for pair in pairs):
        raise InputError('pairs is a list of name lists, like [["z1", "z2"]]')
    report = extract_slice(
        p,
        doc.get("t", "t"),
        tuple(name for pair in pairs for name in pair),
        degree_cap=_degree_cap(opts, doc.get("degree_cap")),
        weight=_int_field(doc, "weight", 0),
    )
    return 0, {
        "weight": report["weight"],
        "generators": [str(g) for g in report["generators"]],
        "basis": [str(e) for e in report["basis"]],
    }


def _hypertoric_unimodular(doc, opts):
    ok, witness = check_unimodular(_int_matrix(doc))
    return (0 if ok else 1), {"unimodular": ok, "witness": witness}


def _hypertoric_leaves(doc, opts):
    leaves = enumerate_leaves(_int_matrix(doc))
    return 0, {
        "leaves": [leaf.as_json() for leaf in leaves],
        "dimensions": sorted({leaf.leaf_dim for leaf in leaves}, reverse=True),
    }


def _pick_leaf(matrix, doc):
    leaves = enumerate_leaves(matrix)
    flat = doc.get("flat", [])
    for leaf in leaves:
        if leaf.as_json()["flat"] == list(flat):
            return leaf
    raise InputError(
        f"no leaf has flat {list(flat)}; "
        f"available: {[leaf.as_json()['flat'] for leaf in leaves]}"
    )


def _hypertoric_decompose(doc, opts):
    matrix = _int_matrix(doc)
    leaf = _pick_leaf(matrix, doc)
    report = decompose_at(matrix, leaf)
    return 0, report.as_json()


def _hypertoric_verify(doc, opts):
    matrix = _int_matrix(doc)
    leaf = _pick_leaf(matrix, doc)
    report = decompose_at(matrix, leaf)
    verdict = verify_decomposition(
        matrix, report, order=opts.get("order") or 5
    )
    return (0 if verdict["ok"] else 1), verdict


def _quotient_parabolics(doc, opts):
    group = load_group(doc)
    records = parabolic_subgroups(group)
    return 0, {
        "group": group.as_json(),
        "parabolics": [r.as_json() for r in records],
    }


def _quotient_reflections(doc, opts):
    group = load_group(doc)
    return 0, symplectic_reflections(group).as_json()


def _quotient_slice(doc, opts):
    group = load_group(doc)
    fld = group.field
    point = tuple(
        _cyclo_entry(fld, v, "a 'base_point' entry")
        for v in _need(doc, "base_point")
    )
    lagrangian = doc.get("lagrangian")
    if lagrangian is not None:
        lagrangian = [
            tuple(_cyclo_entry(fld, v, "a 'lagrangian' entry") for v in vec)
            for vec in lagrangian
        ]
    last = None
    for record in parabolic_subgroups(group):
        try:
            return 0, leaf_slice_data(
                group, record, point, lagrangian=lagrangian
            )
        except ValueError as exc:
            last = exc
    raise InputError(f"no parabolic matches the base point: {last}")


def _quotient_sra(doc, opts):
    group = load_group(doc)
    fld = group.field
    sra = symplectic_reflections(group)
    x = tuple(_cyclo_entry(fld, v, "an 'x' entry") for v in _need(doc, "x"))
    y = tuple(_cyclo_entry(fld, v, "a 'y' entry") for v in _need(doc, "y"))
    relation = sra_relation(group, sra, x, y)
    return 0, {
        "relation": {
            f"{param},{idx}": str(coeff)
            for (param, idx), coeff in sorted(relation.items())
        },
        "params": list(sra.params),
    }


def _quantize_build(doc, opts):
    algebra = load_quantum(doc, opts.get("order"))
    confluence = algebra.certify_confluence()
    return (0 if confluence["ok"] else 1), {
        "presentation": algebra.as_json(),
        "confluence": confluence,
    }


def _quantize_normalform(doc, opts):
    algebra = load_quantum(_need(doc, "presentation"), opts.get("order"))
    word = _word(_need(doc, "word"))
    return 0, {"normal_form": algebra.render(algebra.normal_form(word))}


def _quantize_central(doc, opts):
    algebra = load_quantum(_need(doc, "presentation"), opts.get("order"))
    element = load_quantum_element(algebra, _need(doc, "element"))
    report = centrality_check(
        algebra, element, degree_cap=opts.get("degree_cap")
    )
    return (0 if report["ok"] else 1), report


def _quantize_slice(doc, opts):
    algebra = load_quantum(_need(doc, "presentation"), opts.get("order"))
    t_lift = load_quantum_element(algebra, _need(doc, "t_lift"))
    z_lifts = [
        load_quantum_element(algebra, z) for z in doc.get("z_lifts", ())
    ]
    lo, hi = _window(doc, "window")
    try:
        result = quantized_slice(
            algebra,
            t_lift,
            z_lifts,
            truncation=_int_field(doc, "truncation"),
            weight_window=(lo, hi),
            degree_cap=_degree_cap(opts, doc.get("degree_cap", 4)),
        )
    except ConicRelationError as exc:
        return 1, {"ok": False, "error": str(exc)}
    status = 0 if result.closure["ok"] else 1
    return status, result.as_json()


def _quantize_axiom(doc, opts):
    algebra = load_quantum(_need(doc, "quantum"), None)
    classical = load_poisson(_need(doc, "classical"), opts.get("order"))
    report = quantization_axiom_check(algebra, classical)
    return (0 if report["ok"] else 1), report


# -- selftest ------------------------------------------------------------------


def _selftest(doc, opts):
    order = opts.get("order") or 6
    seed = opts.get("seed") or 0
    checks = []

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
        ("sl2-jacobi", sl2_jacobi),
        ("sl2-degree", sl2_degree),
        ("kleinian-jacobi", kleinian_jacobi),
        ("cyclic-counterexample", cyclic_counterexample),
        ("counterexample-center", counterexample_center),
        ("counterexample-twisted", counterexample_twisted),
        ("hypertoric-line", hypertoric_line),
        ("hypertoric-rectangle", hypertoric_rectangle),
        ("quotient-z2", quotient_z2),
        ("quantize-axiom", quantize_axiom),
        ("quantize-localization", quantize_localization),
        ("darboux-roundtrip", darboux_roundtrip),
    ]
    matrix = {}
    for name, check in checks:
        matrix[name] = "pass" if check() else "fail"
    ok = all(v == "pass" for v in matrix.values())
    return (0 if ok else 1), {
        "ok": ok, "order": order, "seed": seed, "fixtures": matrix,
    }


HANDLERS = {
    "poisson jacobi": _poisson_jacobi,
    "poisson degree": _poisson_degree,
    "poisson center": _poisson_center,
    "poisson hp0": _poisson_hp0,
    "poisson gradings": _poisson_gradings,
    "darboux normalize": _darboux_normalize,
    "darboux slice": _darboux_slice,
    "hypertoric unimodular": _hypertoric_unimodular,
    "hypertoric leaves": _hypertoric_leaves,
    "hypertoric decompose": _hypertoric_decompose,
    "hypertoric verify": _hypertoric_verify,
    "quotient parabolics": _quotient_parabolics,
    "quotient reflections": _quotient_reflections,
    "quotient slice": _quotient_slice,
    "quotient sra": _quotient_sra,
    "quantize build": _quantize_build,
    "quantize normalform": _quantize_normalform,
    "quantize central": _quantize_central,
    "quantize slice": _quantize_slice,
    "quantize axiom": _quantize_axiom,
    "selftest": _selftest,
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Dispatch one job; returns (exit status, report)."""
    handler = HANDLERS.get(job.command)
    if handler is None:
        return 2, {"error": f"unknown command {job.command!r}"}
    order = job.options.get("order")
    if order is not None and order < 1:
        return 2, {"error": f"--order must be at least 1, got {order}",
                   "command": job.command}
    cap = job.options.get("degree_cap")
    if cap is not None and cap < 0:
        return 2, {"error": f"--degree-cap must be at least 0, got {cap}",
                   "command": job.command}
    try:
        return handler(job.document, job.options)
    except RewriteLimitError as exc:
        return 3, {"error": str(exc), "command": job.command,
                   "budget": "EQUISLICE_MAX_STEPS"}
    except (InputError, KeyError, TypeError, ValueError) as exc:
        return 2, {"error": str(exc), "command": job.command}


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
    groups = {
        "poisson": ["jacobi", "degree", "center", "hp0", "gradings"],
        "darboux": ["normalize", "slice"],
        "hypertoric": ["unimodular", "leaves", "decompose", "verify"],
        "quotient": ["parabolics", "reflections", "slice", "sra"],
        "quantize": ["build", "normalform", "central", "slice", "axiom"],
    }
    sub = parser.add_subparsers(dest="group", required=True)
    for group, ops in groups.items():
        gp = sub.add_parser(group, parents=[common])
        gsub = gp.add_subparsers(dest="op", required=True)
        for op in ops:
            opp = gsub.add_parser(op, parents=[common])
            opp.add_argument(
                "file", nargs="?", default="-",
                help="JSON document path, or - for stdin",
            )
    sub.add_parser("selftest", parents=[common])
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
