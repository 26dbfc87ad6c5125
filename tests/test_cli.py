"""Exit-code contract, report shapes, and byte determinism of the CLI."""

import json
import subprocess
import sys

import pytest

from equislice import cli
from equislice.cli import JobSpec, load_poisson, main, render_report, run
from equislice.darboux import extract_slice
from equislice.linalg import Echelon
from equislice.poisson import standard_presentation
from test_quantize import non_jacobi_rules

CYCLIC_TABLE = {
    "variables": ["x", "y", "z"],
    "weights": [1, 1, 1],
    "table": {"x,y": "x", "y,z": "y", "x,z": "-1*z"},
}


def invoke(command, document, **options):
    return run(JobSpec(command, document, options))


def cli_bytes(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "equislice", *args],
        capture_output=True, input=stdin,
    )
    return proc.returncode, proc.stdout


def test_jacobi_pass_and_fail_exit_codes():
    status, report = invoke("poisson jacobi", {"builder": "sl2"})
    assert status == 0 and report["ok"]
    status, report = invoke("poisson jacobi", CYCLIC_TABLE)
    assert status == 1 and not report["ok"]
    residue = report["failures"][0]["residue"]
    assert sorted(residue.replace("1*", "").split(" + ")) == ["x", "y", "z"]


def test_hypertoric_leaves_reports_dimensions():
    status, report = invoke("hypertoric leaves", {"matrix": [[1], [1]]})
    assert status == 0
    assert report["dimensions"] == [2, 0]
    assert len(report["leaves"]) == 2


def test_normalize_standard_gives_product_with_empty_slice():
    status, report = invoke(
        "darboux normalize", {"builder": "standard", "n": 1, "k": 2}
    )
    assert status == 0
    assert report["form"] == "product"
    assert report["slice_table"] == {}


def test_unimodular_no_is_a_verified_fail():
    status, report = invoke(
        "hypertoric unimodular", {"matrix": [[1, 1], [1, -1]]}
    )
    assert status == 1
    assert not report["unimodular"]
    assert report["witness"] is not None


def test_quotient_commands_round_trip():
    status, report = invoke("quotient parabolics", {"builder": "cyclic", "n": 2})
    assert status == 0
    assert len(report["parabolics"]) == 2
    status, report = invoke(
        "quotient sra",
        {"builder": "cyclic", "n": 2, "x": [1, 0], "y": [0, 1]},
    )
    assert status == 0
    assert report["relation"] == {"c1,1": "1", "hbar,0": "1"}
    status, report = invoke(
        "quotient slice", {"builder": "cyclic", "n": 2, "base_point": [1, 0]}
    )
    assert status == 0
    assert report["conic_weight"] == 2


def test_quotient_sra_on_a_zero_dimensional_group_is_empty():
    document = {"cyclotomic_order": 1, "omega": [], "generators": [[]],
                "x": [], "y": []}
    assert invoke("quotient sra", document) == (
        0, {"params": ["hbar"], "relation": {}}
    )


def test_quantize_slice_and_bad_lifts():
    doc = {
        "presentation": {"family": "differential", "n": 2, "k": 2},
        "t_lift": "t", "z_lifts": [], "truncation": 2,
        "window": [-2, 2], "degree_cap": 2,
    }
    status, report = invoke("quantize slice", doc)
    assert status == 0
    assert report["closure"]["ok"]
    assert [c["element"] for c in report["generator_candidates"]] == [
        "1*z2", "1*z1",
    ]
    bad = dict(doc, z_lifts=["u"], window=[0, 0],
               presentation={"family": "differential", "n": 2, "k": 1})
    status, report = invoke("quantize slice", bad)
    assert status == 1
    assert "conic relations" in report["error"]


def test_quantize_slice_on_a_non_confluent_algebra_exits_one(monkeypatch):
    # no built-in family fails confluence, so the test registers one
    # (built to order 3, the document's default order)
    monkeypatch.setitem(
        cli.QUANTUM_FAMILIES, "non-confluent", (lambda order: non_jacobi_rules(), {})
    )
    doc = {
        "presentation": {"family": "non-confluent"}, "t_lift": "x",
        "truncation": 2, "window": [0, 3], "degree_cap": 3,
    }
    status, report = invoke("quantize slice", doc)
    assert status == 1 and not report["closure"]["ok"]
    failures = json.loads(render_report(report, True))["closure"]["failures"]
    assert [["z", 1], ["y", 1], ["x", 1]] in [f["word"] for f in failures]


def test_darboux_slice_takes_pairs_as_variable_names():
    p = standard_presentation(3, 2)
    expected = extract_slice(p, "t", ("z1", "z2"), degree_cap=2, weight=0)
    status, report = invoke(
        "darboux slice",
        {"builder": "standard", "n": 3, "k": 2, "pairs": [["z1", "z2"]],
         "weight": 0, "degree_cap": 2},
    )
    assert status == 0
    assert report == {
        "weight": 0,
        "generators": [str(g) for g in expected["generators"]],
        "basis": [str(e) for e in expected["basis"]],
    }
    # the pair's variables are constraints, so z1 and z2 leave the kernel
    assert not any("z1" in e or "z2" in e for e in report["basis"])
    assert len(report["basis"]) == 6
    status, report = invoke(
        "darboux slice", {"builder": "standard", "n": 3, "k": 2, "pairs": ["z1", "z2"]}
    )
    assert status == 2 and "name lists" in report["error"]


def test_input_errors_exit_two():
    status, report = invoke("no such command", {})
    assert status == 2 and "unknown command" in report["error"]
    status, report = invoke("poisson center", {"builder": "coupled-line"})
    assert status == 2 and "weight_window" in report["error"]
    status, report = invoke("hypertoric leaves", {"matrix": "nope"})
    assert status == 2


def test_exhausted_step_budget_exits_three(monkeypatch):
    documents = {
        "quantize central": {
            "presentation": {"family": "sl2"}, "element": {"casimir": True},
        },
        "quantize normalform": {
            "presentation": {"family": "sl2"}, "word": [["f", 2], ["e", 2]],
        },
    }
    # 0 is a budget too: it allows no step
    for budget in ("3", "0"):
        monkeypatch.setenv("EQUISLICE_MAX_STEPS", budget)
        for command, document in documents.items():
            status, report = invoke(command, document)
            assert status == 3
            assert report["budget"] == "EQUISLICE_MAX_STEPS"
            assert "step budget" in report["error"] and report["command"] == command
    monkeypatch.delenv("EQUISLICE_MAX_STEPS")
    status, report = invoke("quantize normalform", documents["quantize normalform"])
    assert status == 0 and report["normal_form"].startswith("1*e^2*f^2")


def test_exhausted_reduction_budget_exits_three(monkeypatch):
    monkeypatch.setenv("EQUISLICE_MAX_STEPS", "1")
    document = {"builder": "kleinian", "n": 2, "weight_window": [0, 8]}
    proc = subprocess.run(
        [sys.executable, "-m", "equislice", "poisson", "center", "-", "--json"],
        capture_output=True, input=json.dumps(document).encode(),
    )
    assert proc.returncode == 3 and b"Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["budget"] == "EQUISLICE_MAX_STEPS"
    assert "step budget" in report["error"]
    assert report["command"] == "poisson center"


CASIMIR_CENTRALITY = {"presentation": {"family": "sl2"}, "element": {"casimir": True}}


@pytest.mark.parametrize("cap", [0, 3])
def test_quantize_central_ignores_the_degree_cap(cap):
    # the command has no cap field, so a cap leaves its report unchanged
    # and is not a step budget
    uncapped = invoke("quantize central", CASIMIR_CENTRALITY)
    assert uncapped[0] == 0 and uncapped[1]["ok"]
    assert invoke("quantize central", CASIMIR_CENTRALITY, degree_cap=cap) == uncapped


@pytest.mark.parametrize("value", ["abc", "2.5", "-5"])
def test_malformed_step_budget_exits_two(monkeypatch, value):
    monkeypatch.setenv("EQUISLICE_MAX_STEPS", value)
    status, report = invoke("quantize central", CASIMIR_CENTRALITY)
    assert status == 2 and "internal" not in report
    assert "EQUISLICE_MAX_STEPS" in report["error"] and repr(value) in report["error"]


def test_poisson_center_covers_the_whole_weight_window():
    document = {"builder": "kleinian", "n": 2, "weight_window": [0, 4]}
    status, report = invoke("poisson center", document)
    assert status == 0
    assert sorted(report["basis"], key=int) == ["0", "1", "2", "3", "4"]
    pres = load_poisson(document)
    for w in range(5):
        expected = pres.centralizer_basis(pres.ctx.variables, w)
        assert report["basis"][str(w)] == [str(e) for e in expected]
    status, report = invoke("poisson center", dict(document, weight_window=[3, 2]))
    assert status == 2 and "empty" in report["error"]


# x of weight 1 before y of weight -1, with no invertible variable: x*y is a
# Casimir of weight zero, which a bound on x from the weight alone would miss
CASIMIR_AFTER_A_NEGATIVE_WEIGHT = {
    "variables": ["x", "y", "z"], "weights": [1, -1, 0],
    "table": {"x,z": "x", "y,z": "-1*y"}, "degree_cap": 2,
}
CASIMIR_SWAPPED = dict(CASIMIR_AFTER_A_NEGATIVE_WEIGHT, variables=["y", "x", "z"], weights=[-1, 1, 0])


def spans(document, basis, text) -> bool:
    ctx = load_poisson(document).ctx
    span = Echelon()
    for element in basis:
        span.insert(ctx.parse(element).terms)
    return span.contains(ctx.parse(text).terms)


def test_poisson_center_does_not_depend_on_the_variable_order():
    dims = []
    for document in (CASIMIR_AFTER_A_NEGATIVE_WEIGHT, CASIMIR_SWAPPED):
        status, report = invoke("poisson center", dict(document, weight_window=[-2, 2]))
        assert status == 0
        dims.append({w: len(basis) for w, basis in report["basis"].items()})
        assert spans(document, report["basis"]["0"], "x*y"), document["variables"]
    assert dims[0] == dims[1]


def test_darboux_slice_does_not_depend_on_the_variable_order():
    dims = []
    for document in (CASIMIR_AFTER_A_NEGATIVE_WEIGHT, CASIMIR_SWAPPED):
        for weight in (-1, 0, 1):
            status, report = invoke("darboux slice", dict(document, t="z", weight=weight))
            assert status == 0
            dims.append(len(report["basis"]))
            if weight == 0:
                assert spans(document, report["basis"], "x*y"), document["variables"]
    assert dims[:3] == dims[3:]


def test_hp0_refuses_a_non_positive_weight_by_name():
    """The document's degree_cap bounds the weight for hp0, so the refusal
    names the variable whose weight pieces are infinite, not the cap."""
    for document in (CASIMIR_AFTER_A_NEGATIVE_WEIGHT, CASIMIR_SWAPPED):
        status, report = invoke("poisson hp0", document)
        assert (status, report["error"]) == (
            2, "hp0 needs positive weights: variable 'y' has weight -1, "
            "so its weight pieces are infinite")
    zero = dict(CASIMIR_AFTER_A_NEGATIVE_WEIGHT, weights=[1, 1, 0], table={"x,y": "z"})
    status, report = invoke("poisson hp0", zero)
    assert status == 2 and "variable 'z' has weight 0" in report["error"]


def test_order_below_one_is_rejected():
    for order in (0, -1):
        status, report = invoke("poisson jacobi", {"builder": "sl2"}, order=order)
        assert status == 2 and "--order" in report["error"]
    status, _ = invoke("poisson jacobi", {"builder": "sl2"}, order=1)
    assert status == 0
    code, out = cli_bytes(["poisson", "jacobi", "-", "--order", "0"], b'{"builder": "sl2"}')
    assert code == 2 and b"--order" in out


def test_hypertoric_verify_needs_order_three():
    # below order 3 the check would be vacuous (order 2) or falsely
    # negative (order 1); both are unusable input, not a verdict
    document = {"matrix": [[1, 0], [1, 0], [0, 1], [0, 1]], "flat": [1, 2]}
    for order in (1, 2):
        status, report = invoke("hypertoric verify", document, order=order)
        assert status == 2
        assert report["error"].startswith("verification needs truncation order at least 3")
    status, report = invoke("hypertoric verify", document, order=3)
    assert status == 0 and report == {"ok": True, "failures": []}
    code, out = cli_bytes(["hypertoric", "verify", "--order", "1", "--json", "-"], json.dumps(document).encode())
    assert code == 2 and b"at least 3" in out


def test_selftest_matrix_is_order_stable():
    status, base = invoke("selftest", {})
    assert status == 0 and base["ok"]
    assert all(v == "pass" for v in base["fixtures"].values())
    status, high = invoke("selftest", {}, order=8)
    assert status == 0
    assert high["fixtures"] == base["fixtures"]


def test_malformed_json_reports_location():
    status, out = cli_bytes(
        ["hypertoric", "leaves", "-", "--json"], stdin=b'{"matrix": [[1,'
    )
    assert status == 2
    report = json.loads(out)
    assert "malformed JSON" in report["error"]
    assert report["line"] == 1 and report["column"] > 1


def test_cli_is_byte_deterministic():
    stdin = json.dumps({"matrix": [[1, 0], [1, 0], [0, 1], [0, 1]]}).encode()
    first = cli_bytes(["hypertoric", "leaves", "-", "--json"], stdin=stdin)
    second = cli_bytes(["hypertoric", "leaves", "-", "--json"], stdin=stdin)
    assert first == second and first[0] == 0
    first = cli_bytes(["selftest", "--json", "--seed", "7"])
    second = cli_bytes(["selftest", "--json", "--seed", "7"])
    assert first == second and first[0] == 0


def test_output_file_and_formats(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"matrix": [[1], [1]]}))
    target = tmp_path / "report.json"
    status = main([
        "hypertoric", "unimodular", str(doc), "--json",
        "--output", str(target),
    ])
    assert status == 0
    compact = target.read_text()
    assert compact.count("\n") == 1
    assert json.loads(compact)["unimodular"] is True
    pretty = render_report(json.loads(compact), compact=False)
    assert pretty.startswith("{\n  ")
    assert json.loads(pretty) == json.loads(compact)


def test_degree_cap_zero_is_a_cap():
    gradings = {"builder": "standard", "n": 1, "k": 2}
    status, report = invoke("poisson gradings", gradings, degree_cap=0)
    assert status == 0 and report["search"] == []
    status, report = invoke("poisson gradings", dict(gradings, degree_cap=0))
    assert status == 0 and report["search"] == []
    status, report = invoke("poisson gradings", dict(gradings, degree_cap=0), degree_cap=2)
    assert status == 0 and report["search"] == [[0, 2], [1, 0], [2, -2]]
    center = {"builder": "sl2", "weight_window": [2, 2], "degree_cap": 2}
    status, report = invoke("poisson center", center)
    assert status == 0 and report["basis"] == {"2": ["1*h^2 + 4*e*f"]}
    status, report = invoke("poisson center", center, degree_cap=0)
    assert status == 0 and report["basis"] == {"2": []}
    status, report = invoke("poisson hp0", {"builder": "kleinian", "n": 2}, degree_cap=0)
    assert status == 0 and report["dimensions"] == {"0": 1}
    status, report = invoke(
        "darboux slice",
        {"builder": "kleinian-product", "n": 1, "slice_n": 2, "weight": 2, "degree_cap": 2},
        degree_cap=0,
    )
    assert status == 0 and report["basis"] == ["1*t^2"]


def test_negative_degree_cap_is_rejected():
    document = {"builder": "kleinian", "n": 2, "weight_window": [0, 0]}
    status, report = invoke("poisson center", document, degree_cap=-1)
    assert status == 2 and "--degree-cap" in report["error"]
    code, out = cli_bytes(
        ["poisson", "center", "-", "--degree-cap", "-1"], json.dumps(document).encode()
    )
    assert code == 2 and b"--degree-cap" in out


def test_hypertoric_matrix_entries_must_be_integers():
    for command in ("unimodular", "leaves", "decompose", "verify"):
        for bad in ([[1.5], [1]], [[True], [1]], [["1"], [1]], [[1], 1]):
            status, report = invoke(f"hypertoric {command}", {"matrix": bad, "flat": []})
            assert status == 2 and "'matrix'" in report["error"], (command, bad)


def test_quantize_slice_refuses_an_empty_window():
    doc = {
        "presentation": {"family": "differential", "n": 2, "k": 2},
        "t_lift": "t", "truncation": 2, "window": [1, 0], "degree_cap": 2,
    }
    status, report = invoke("quantize slice", doc)
    assert status == 2 and "empty" in report["error"]


ENVELOPING_SL2 = {
    "family": "enveloping", "names": ["f", "e", "h"], "weights": [1, 1, 1],
    "constants": {"f,e": {"h": -1}, "f,h": {"f": 2}, "e,h": {"e": -2}},
}


def test_quantize_slice_refuses_what_the_monomial_walk_cannot_enumerate():
    slice_doc = {"t_lift": "h", "truncation": 2, "window": [0, 0], "degree_cap": 1}
    cases = [
        (dict(ENVELOPING_SL2, invertible=["f", "e"]),
         "slice enumeration supports at most one invertible generator"),
        (dict(ENVELOPING_SL2, invertible=["f"], weights=[0, 2, 1],
              constants={"f,e": {}, "f,h": {}, "e,h": {}}),
         "the invertible generator needs nonzero weight"),
    ]
    for presentation, error in cases:
        status, report = invoke("quantize slice", dict(slice_doc, presentation=presentation))
        assert (status, report["error"]) == (2, error)


NEGATIVE_CAP_JOBS = {
    "poisson center": {"builder": "kleinian", "n": 2, "weight_window": [0, 0]},
    "poisson hp0": {"builder": "kleinian", "n": 2},
    "darboux slice": {"builder": "kleinian-product", "n": 1, "slice_n": 2, "weight": 2},
    "quantize slice": {
        "presentation": {"family": "differential", "n": 2, "k": 1},
        "t_lift": "t", "z_lifts": ["z1", "z2"], "window": [0, 0], "truncation": 2,
    },
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_CAP_JOBS))
def test_negative_document_degree_cap_is_rejected(command):
    document = dict(NEGATIVE_CAP_JOBS[command], degree_cap=-1)
    status, report = invoke(command, document)
    assert status == 2 and "'degree_cap'" in report["error"]
    status, _report = invoke(command, dict(document, degree_cap=1))
    assert status == 0


SL2 = {"family": "sl2"}


def test_float_word_exponents_are_rejected():
    status, report = invoke(
        "quantize normalform", {"presentation": SL2, "word": [["e", 1.5], ["f", 1]]}
    )
    assert status == 2 and "'word' exponent" in report["error"]
    status, report = invoke(
        "quantize central", {"presentation": SL2, "element": {"word": [["e", True]]}}
    )
    assert status == 2 and "'word' exponent" in report["error"]
    status, report = invoke(
        "quantize normalform", {"presentation": SL2, "word": [["e", 1], ["f", 1]]}
    )
    assert status == 0 and report["normal_form"] == "1*e*f"


def test_float_hbar_powers_are_rejected():
    status, report = invoke(
        "quantize central", {"presentation": SL2, "element": [[1, 0.7, {"e": 1}]]}
    )
    assert status == 2 and "hbar power" in report["error"]


def test_float_exponents_in_an_element_term_are_rejected():
    status, report = invoke(
        "quantize central", {"presentation": SL2, "element": [[1, 0, {"e": 1.5}]]}
    )
    assert status == 2 and "exponent" in report["error"]
    status, report = invoke(
        "quantize central", {"presentation": SL2, "element": [[1, 0, {"h": 2}]]}
    )
    assert status in (0, 1) and "error" not in report


def test_only_failed_conic_relations_exit_one():
    doc = {
        "presentation": {"family": "differential", "n": 2, "k": 1},
        "t_lift": "t", "window": [0, 0], "degree_cap": 2,
    }
    status, report = invoke("quantize slice", dict(doc, z_lifts=["u"], truncation=2))
    assert status == 1 and report["ok"] is False
    status, report = invoke("quantize slice", dict(doc, truncation=0))
    assert status == 2 and "positive" in report["error"]


def test_inexact_weights_and_orders_are_refused():
    document = {"variables": ["x", "y"], "weights": [1.5, 1], "table": {"x,y": "1"}}
    status, report = invoke("poisson gradings", document)
    assert status == 2 and "weight" in report["error"]
    status, report = invoke("poisson gradings", dict(document, weights=[1, 1]))
    assert status == 0 and report["weights"] == [1, 1]
    status, report = invoke(
        "quantize build", {"family": "weyl", "pairs": 1, "k": 1, "order": 2.5}
    )
    assert status == 2 and "'order'" in report["error"]
    status, report = invoke(
        "quantize build",
        {"family": "enveloping", "names": ["x"], "constants": {}, "weights": [0.5]},
    )
    assert status == 2 and "weight" in report["error"]


def test_localized_must_be_a_json_boolean():
    for flag, generators in ((False, ["e", "f", "h"]), (True, ["f", "e", "h"])):
        status, report = invoke("quantize build", {"family": "sl2", "localized": flag})
        assert status == 0 and report["presentation"]["generators"] == generators
    for bad in ("false", "true", 0, 1, None):
        status, report = invoke("quantize build", {"family": "sl2", "localized": bad})
        assert status == 2 and "'localized'" in report["error"], (bad, report)


def test_declared_degree_must_be_an_integer():
    status, report = invoke("poisson gradings", CYCLIC_TABLE)
    assert status == 0 and report["declared_degree"] is None
    status, report = invoke("poisson gradings", dict(CYCLIC_TABLE, degree=-1))
    assert status == 0 and report["declared_degree"] == -1
    for bad in (1.5, "2", True, None):
        status, report = invoke("poisson gradings", dict(CYCLIC_TABLE, degree=bad))
        assert status == 2 and "'degree'" in report["error"], (bad, report)
    status, report = invoke("poisson degree", dict(CYCLIC_TABLE, degree="2"))
    assert status == 2 and "'degree'" in report["error"]


GROUP = {"omega": [[0, 1], [-1, 0]], "generators": [[[-1, 0], [0, -1]]],
         "cyclotomic_order": 1, "cap": 4}
CENTER = {"builder": "kleinian", "n": 2, "weight_window": [0, 0], "degree_cap": 2}
QUANTUM_SLICE = {
    "presentation": {"family": "differential", "n": 2, "k": 1},
    "t_lift": "t", "z_lifts": ["z1", "z2"], "window": [0, 0], "truncation": 2,
    "degree_cap": 1,
}
INTEGER_FIELDS = [
    ("poisson degree", {"builder": "kleinian", "n": 2}, "n"),
    ("poisson degree", {"builder": "standard", "n": 1, "k": 1}, "k"),
    ("poisson degree", {"builder": "standard", "n": 1, "k": 1, "ell": 1}, "ell"),
    ("poisson degree", {"builder": "kleinian-product", "n": 1, "slice_n": 2}, "slice_n"),
    ("poisson degree", {"builder": "kleinian", "n": 2, "order": 4}, "order"),
    ("poisson degree", dict(CYCLIC_TABLE, order=4), "order"),
    ("quantize build", {"family": "weyl", "pairs": 1, "k": 1}, "pairs"),
    ("quantize build", {"family": "differential", "n": 1, "k": 1, "order": 2}, "order"),
    ("quantize build", {"family": "enveloping", "names": ["x"], "constants": {}, "k": 1}, "k"),
    ("quotient reflections", {"builder": "cyclic", "n": 2}, "n"),
    ("quotient reflections", GROUP, "cap"),
    ("quotient reflections", GROUP, "cyclotomic_order"),
    ("darboux slice", {"builder": "kleinian-product", "n": 1, "slice_n": 2,
                       "weight": 2, "degree_cap": 1}, "weight"),
    ("quantize slice", QUANTUM_SLICE, "truncation"),
    ("quantize slice", QUANTUM_SLICE, "degree_cap"),
    ("quantize slice", QUANTUM_SLICE, ("window", 0)),
    ("poisson center", CENTER, "degree_cap"),
    ("poisson center", CENTER, ("weight_window", 1)),
]


@pytest.mark.parametrize(
    "command, document, key", INTEGER_FIELDS,
    ids=[f"{command}-{key}" for command, _doc, key in INTEGER_FIELDS],
)
def test_integer_document_fields_are_refused_unless_integers(command, document, key):
    status, report = invoke(command, document)
    assert status in (0, 1) and "error" not in report
    for bad in ("2", 2.0, True):
        if isinstance(key, tuple):
            name, position = key
            value = list(document[name])
            value[position] = bad
        else:
            name, value = key, bad
        status, report = invoke(command, dict(document, **{name: value}))
        assert status == 2 and repr(name) in report["error"], (bad, report)


ENVELOPING = {
    "family": "enveloping", "names": ["e", "f", "h"],
    "constants": {"e,f": {"h": 1}, "e,h": {"e": -2}, "f,h": {"f": 2}},
}
RATIONAL_FIELDS = [
    ("quotient slice", {"builder": "cyclic", "n": 2, "base_point": [1, 0]},
     ("base_point", 0), "'base_point' entry"),
    ("quotient slice", {"builder": "cyclic", "n": 2, "base_point": [[1, 0], 0]},
     ("base_point", 0, 1), "'base_point' entry"),
    ("quotient sra", {"builder": "pairwise-sign", "x": [1, 0, 0, 0], "y": [0, 0, 1, 0]},
     ("x", 0), "'x' entry"),
    ("quotient sra", {"builder": "pairwise-sign", "x": [1, 0, 0, 0], "y": [0, 0, 1, 0]},
     ("y", 2), "'y' entry"),
    ("quotient reflections", GROUP, ("omega", 0, 1), "'omega' entry"),
    ("quotient reflections", GROUP, ("generators", 0, 1, 1), "'generators' entry"),
    ("quantize build", ENVELOPING, ("constants", "e,h", "e"), "'constants' value"),
    ("quantize central", {"presentation": SL2, "element": [[1, 0, {"h": 2}]]},
     ("element", 0, 0), "element term's coefficient"),
]


def _replaced(document, path, value):
    """A deep copy of the document with the entry at path set to value."""
    document = json.loads(json.dumps(document))
    holder = document
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return document


def _entry(document, path):
    for step in path:
        document = document[step]
    return document


@pytest.mark.parametrize(
    "command, document, path, what", RATIONAL_FIELDS,
    ids=[f"{command}-{path[0]}" for command, _doc, path, _what in RATIONAL_FIELDS],
)
def test_rational_document_fields_take_ints_and_strings_only(command, document, path, what):
    expected = invoke(command, document)
    assert expected[0] in (0, 1) and "error" not in expected[1]
    value = _entry(document, path)
    for same in (str(value), f"{3 * value}/3"):
        assert invoke(command, _replaced(document, path, same)) == expected
    for bad in (0.5, 1.0, True, False, None, {"n": 1}):
        status, report = invoke(command, _replaced(document, path, bad))
        assert status == 2 and what in report["error"] and repr(bad) in report["error"], (bad, report)
    for bad in ("x", "1/0", "", [[1]]):
        status, report = invoke(command, _replaced(document, path, bad))
        assert status == 2 and what in report["error"], (bad, report)


def test_rational_strings_are_exact():
    element = [["1/10", 0, {"h": 2}]]
    status, report = invoke("quantize central", {"presentation": SL2, "element": element})
    assert status == 1 and report["residues"]["e"] == "-2/5*hbar*e*h + -2/5*hbar^2*e"
    assert invoke("quantize central", {"presentation": SL2, "element": [["2/20", 0, {"h": 2}]]}) == (
        status, report)
    status, report = invoke("quantize central", {"presentation": SL2, "element": [[0.1, 0, {"h": 2}]]})
    assert status == 2 and "0.1" in report["error"]


def test_a_presentation_table_must_be_an_object_of_texts():
    plain = {"variables": ["x", "y"], "weights": [1, 1], "table": {"x,y": "1"}}
    assert invoke("poisson jacobi", plain)[0] == 0
    cases = [
        (dict(plain, table=[["x", "y", "1"]]), "'table'"),
        (dict(plain, table="x,y: 1"), "'table'"),
        (dict(plain, table={"x,y": 0.5}), "'x,y'"),
        (dict(plain, table={"x,y": 1}), "'x,y'"),
        (dict(plain, table={"x,y": ["1"]}), "'x,y'"),
        (dict(plain, relations="x*y"), "'relations'"),
        (dict(plain, relations=[1]), "'relations'"),
        (dict(plain, relations=[["x"]]), "'relations'"),
    ]
    for document, key in cases:
        for command in ("poisson jacobi", "poisson degree"):
            status, report = invoke(command, document)
            assert status == 2 and key in report["error"], (document, report)
    code, out = cli_bytes(["poisson", "jacobi", "-", "--json"],
                          stdin=json.dumps(cases[0][0]).encode())
    assert code == 2 and "'table'" in json.loads(out)["error"]
