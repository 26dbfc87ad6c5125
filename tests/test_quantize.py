"""Rewriting normal forms, confluence, and quantized slice kernels."""

import json
import random

import pytest

from equislice.fixtures import sl2_presentation
from equislice.linalg import in_span
from equislice.poisson import PoissonPresentation, standard_presentation
from equislice.quantize import (
    ConicRelationError,
    HbarPresentation,
    _generator_candidates,
    RewriteLimitError,
    centrality_check,
    differential_family,
    element_add,
    element_scale,
    enveloping_family,
    exp_ad_conjugate,
    quantization_axiom_check,
    quantized_slice,
    sl2_casimir_element,
    sl2_enveloping,
    verify_sl2_localization,
    weyl_family,
)
from equislice.scalars import Q


def non_jacobi_rules() -> HbarPresentation:
    return HbarPresentation(
        ("x", "y", "z"), (1, 1, 1), 1,
        {("x", "y"): [(Q(1), 1, {"z": 1})],
         ("y", "z"): [(Q(1), 1, {"y": 1})]},
        order=3,
    )


# -- construction guards ---------------------------------------------------


def test_presentation_integers_must_be_exact():
    rules = {("x", "y"): [(Q(1), 1, {})]}
    for weights, k, order, what in (((1.5, 1), 1, 3, "weight"),
                                    ((1, 1), 0.5, 3, "k"),
                                    ((1, 1), 1, 2.5, "order"),
                                    ((1, 1), 1, "3", "order")):
        with pytest.raises(ValueError, match=what):
            HbarPresentation(("x", "y"), weights, k, rules, order=order)
    algebra = HbarPresentation(("x", "y"), (Q(1), 1), Q(2), rules, order=Q(3))
    assert (algebra.weights, algebra.k, algebra.order) == ((1, 1), 2, 3)
    assert type(algebra.order) is int


def test_invertible_generators_must_come_first():
    with pytest.raises(ValueError, match="come first"):
        HbarPresentation(("u", "t"), (0, 1), 1, {}, invertible=("t",))


def test_corrections_must_carry_hbar():
    with pytest.raises(ValueError, match="carry hbar"):
        HbarPresentation(
            ("x", "y"), (1, 1), 1, {("x", "y"): [(Q(1), 0, {})]}
        )


def test_corrections_must_be_weight_homogeneous():
    with pytest.raises(ValueError, match="weight homogeneous"):
        HbarPresentation(
            ("x", "y"), (1, 1), 1, {("x", "y"): [(Q(1), 1, {"x": 2})]}
        )


def test_commutator_keys_follow_declared_order():
    with pytest.raises(ValueError, match="declared order"):
        HbarPresentation(
            ("x", "y"), (1, 1), 1, {("y", "x"): [(Q(1), 1, {})]}
        )


def test_inversion_requires_invertible_generator():
    a = differential_family(1, 2, order=3)
    with pytest.raises(ValueError, match="not invertible"):
        a.var("u", -1)
    with pytest.raises(ValueError, match="not invertible"):
        a.normal_form([("u", -1)])


# -- normal forms -----------------------------------------------------------


def test_basic_rule_moves_u_past_t():
    a = differential_family(1, 1, order=3)
    assert a.render(a.normal_form([("u", 1), ("t", 1)])) == "1*t*u + -1*hbar"


def test_double_swap_applies_the_rule_twice():
    a2 = differential_family(1, 2, order=3)
    assert a2.render(a2.normal_form([("u", 1), ("t", 2)])) == \
        "1*t^2*u + -2*hbar"
    a3 = differential_family(1, 3, order=3)
    assert a3.render(a3.normal_form([("u", 1), ("t", 2)])) == \
        "1*t^2*u + -2*hbar*t^-1"


def test_weyl_pair_swap():
    w = weyl_family(1, 2, order=3)
    assert w.render(w.normal_form([("z2", 1), ("z1", 1)])) == \
        "1*z1*z2 + -1*hbar"


def test_inverse_letters_push_the_rule_down():
    a = differential_family(1, 2, order=3)
    assert a.render(a.normal_form([("u", 1), ("t", -1)])) == \
        "1*t^-1*u + 1*hbar*t^-3"
    assert a.normal_form([("t", 1), ("t", -1)]) == a.one()


def test_normal_form_is_idempotent_on_its_own_monomials():
    a = differential_family(1, 2, order=4)
    elem = a.normal_form([("u", 2), ("t", 2), ("u", 1)])
    for (hpow, mono), coeff in elem.items():
        word = [(a.names[i], e) for i, e in mono]
        again = a.normal_form(word)
        assert again == {(0, mono): Q(1)}, (hpow, mono, coeff)
    assert a.multiply(a.one(), elem) == elem


def test_multiplication_is_associative():
    a = differential_family(2, 2, order=3)
    x = element_add(a.var("u"), a.var("z1"))
    y = element_add(a.var("t", -1), a.hbar())
    z = element_add(a.var("z2", 2), a.one())
    assert a.multiply(a.multiply(x, y), z) == a.multiply(x, a.multiply(y, z))


def test_step_budget_exhaustion_raises(monkeypatch):
    a = differential_family(1, 2, order=3)
    monkeypatch.setenv("EQUISLICE_MAX_STEPS", "4")
    with pytest.raises(RewriteLimitError, match="step budget"):
        a.normal_form([("u", 3), ("t", 3)])


# -- the term-pair memo of multiply -------------------------------------------


def straightened_product(a, x, y, budget):
    """x*y pushed letter by letter through _straighten, one term pair at a
    time with no memo and no shortcut, and the steps that took."""
    out: dict = {}
    state = [budget]
    for (p1, m1), c1 in x.items():
        for (p2, m2), c2 in y.items():
            if p1 + p2 < a.order:
                a._straighten(
                    a._letters(m1) + a._letters(m2), p1 + p2, c1 * c2, out,
                    state,
                )
    return out, budget - state[0]


def so3_enveloping(order):
    return enveloping_family(
        ("x", "y", "z"),
        {("x", "y"): {"z": 1}, ("y", "z"): {"x": 1}, ("x", "z"): {"y": -1}},
        order=order,
    )


MEMO_ALGEBRAS = {
    "differential(2,2)": lambda: differential_family(2, 2, order=3),
    "differential(1,3)": lambda: differential_family(1, 3, order=4),
    "weyl(2,1)": lambda: weyl_family(2, 1, order=3),
    "sl2": lambda: sl2_enveloping(order=3),
    "localized sl2": lambda: sl2_enveloping(order=4, localized=True),
    "so3": lambda: so3_enveloping(order=3),
}


def random_element(a, rng, monomials):
    """A few terms over a small monomial pool, so that one monomial comes
    back at several hbar powers, with powers weighted towards the order."""
    elem: dict = {}
    for _ in range(rng.randint(1, 3)):
        hpow = rng.choice([0, 0, a.order - 2, a.order - 1, a.order - 1])
        coeff = Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2]))
        elem[(hpow, rng.choice(monomials))] = coeff
    return elem


def monomial_pool(a, rng):
    pool = []
    for _ in range(4):
        mono = {}
        for i in rng.sample(range(len(a.names)), rng.randint(1, 2)):
            inverse = a.names[i] in a.invertible and rng.random() < 0.5
            mono[i] = rng.choice([-2, -1]) if inverse else rng.choice([1, 2])
        pool.append(tuple(sorted(mono.items())))
    return pool


@pytest.mark.parametrize("name", sorted(MEMO_ALGEBRAS))
def test_memo_multiply_matches_letter_by_letter_straightening(name, monkeypatch):
    a = MEMO_ALGEBRAS[name]()
    rng = random.Random(f"memo {name}")
    pool = monomial_pool(a, rng)
    shared: dict = {}
    for _ in range(12):
        x, y = random_element(a, rng, pool), random_element(a, rng, pool)
        want, steps = straightened_product(a, x, y, 10 ** 9)
        # the smallest budget that does not raise is the same, on a fresh
        # memo and on one shared with every earlier product
        for memo in ({}, shared):
            monkeypatch.setenv("EQUISLICE_MAX_STEPS", str(steps))
            assert a.multiply(x, y, memo=memo) == want
            if steps:
                monkeypatch.setenv("EQUISLICE_MAX_STEPS", str(steps - 1))
                with pytest.raises(RewriteLimitError, match="step budget"):
                    a.multiply(x, y, memo=memo)
        monkeypatch.delenv("EQUISLICE_MAX_STEPS")
        assert a.multiply(x, y) == want


def test_cached_term_pairs_cost_their_first_steps(monkeypatch):
    a = sl2_enveloping(order=4, localized=True)
    casimir = sl2_casimir_element(a)
    shifted = a.multiply(casimir, a.var("f", -2))
    want, steps = straightened_product(a, shifted, shifted, 10 ** 9)
    for budget in (steps - 1, steps):
        statuses = []
        warm: dict = {}
        monkeypatch.delenv("EQUISLICE_MAX_STEPS", raising=False)
        a.multiply(shifted, shifted, memo=warm)
        monkeypatch.setenv("EQUISLICE_MAX_STEPS", str(budget))
        for memo in ({}, warm):
            try:
                statuses.append(a.multiply(shifted, shifted, memo=memo) == want)
            except RewriteLimitError:
                statuses.append("exhausted")
        expect = True if budget >= steps else "exhausted"
        assert statuses == [expect, expect], budget


def test_weight_bookkeeping():
    a = differential_family(1, 2, order=3)
    assert a.weight_of(a.normal_form([("u", 1), ("t", 2)])) == 2
    assert a.weight_of(a.one()) == 0
    assert a.weight_of(a.hbar()) == 2
    assert a.weight_of(a.zero()) is None
    with pytest.raises(ValueError, match="mixes weights"):
        a.weight_of(element_add(a.var("t"), a.var("u")))


def test_from_terms_merges_and_truncates():
    a = differential_family(1, 1, order=2)
    assert a.from_terms([(Q(1), 0, {"t": 1}), (Q(-1), 0, {"t": 1})]) == {}
    assert a.from_terms([(Q(1), 5, {})]) == {}
    assert a.hbar(2) == {}
    assert a.render(a.zero()) == "0"


def test_from_terms_refuses_inexact_exponents():
    a = differential_family(1, 1, order=3)
    for bad in (1.5, 2.0, True, Q(1, 2)):
        with pytest.raises(ValueError, match="exact integer"):
            a.from_terms([(Q(1), 0, {"t": bad})])
        with pytest.raises(ValueError, match="exact integer"):
            a.from_terms([(Q(1), bad, {"t": 1})])
    assert a.from_terms([(Q(1), Q(1), {"t": Q(2)})]) == a.from_terms([(Q(1), 1, {"t": 2})])


# -- the enveloping families -------------------------------------------------


def test_sl2_commutator_and_casimir():
    u = sl2_enveloping(order=3)
    assert u.render(u.commutator(u.var("h"), u.var("e"))) == "2*hbar*e"
    cas = sl2_casimir_element(u)
    assert u.render(cas) == "2*e*f + 1/2*h^2 + -1*hbar*h"
    report = centrality_check(u, cas)
    assert report["ok"]
    assert set(report["residues"]) == {"e", "f", "h"}
    bad = centrality_check(u, u.var("e"))
    assert not bad["ok"]
    assert bad["residues"]["h"] == "2*hbar*e"
    assert bad["residues"]["f"] == "-1*hbar*h"


def test_structure_constants_must_satisfy_jacobi():
    with pytest.raises(ValueError, match="Jacobi"):
        enveloping_family(
            ("x", "y", "z"),
            {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}},
        )


def test_conic_coordinate_is_not_central():
    a = differential_family(1, 2, order=3)
    report = centrality_check(a, a.var("t"))
    assert not report["ok"]
    assert report["residues"]["u"] == "-1*hbar*t^-1"
    assert centrality_check(a, a.hbar())["ok"]


def test_localized_sl2_report():
    report = verify_sl2_localization(order=3)
    assert report["ok"]
    assert report["weights"] == {"hbar": 1, "x": 1, "y": 1, "casimir": 2}
    assert all(v == "0" for v in report["checks"].values())
    assert verify_sl2_localization(order=4)["ok"]


# -- confluence certification -------------------------------------------------


def test_families_are_confluent_on_all_triples():
    for fam, triples in [
        (differential_family(2, 2, order=3), 125),
        (sl2_enveloping(order=3, localized=True), 64),
        (weyl_family(2, 1, order=3), 64),
    ]:
        report = fam.certify_confluence()
        assert report["ok"], report["failures"]
        assert report["triples"] == triples


def test_non_jacobi_rules_fail_confluence():
    report = non_jacobi_rules().certify_confluence()
    assert not report["ok"]
    words = [tuple(f["word"]) for f in report["failures"]]
    assert (("z", 1), ("y", 1), ("x", 1)) in words
    failure = report["failures"][words.index((("z", 1), ("y", 1), ("x", 1)))]
    assert failure["first"] == \
        "1*x*y*z + -1*hbar*x*y + -1*hbar*z^2 + 1*hbar^2*z"
    assert failure["last"] == "1*x*y*z + -1*hbar*x*y + -1*hbar*z^2"


# -- the quantization axiom ---------------------------------------------------


def test_axiom_holds_for_the_conic_families():
    for n, k in [(1, 1), (1, 2), (2, 2), (2, 1)]:
        report = quantization_axiom_check(
            differential_family(n, k, order=3),
            standard_presentation(n, k, order=4),
        )
        assert report["ok"], (n, k, report["failures"])
        assert report["checked"] == (2 * n) * (2 * n - 1) // 2


def test_axiom_holds_for_sl2():
    report = quantization_axiom_check(
        sl2_enveloping(order=3), sl2_presentation(order=4)
    )
    assert report["ok"]
    assert report["checked"] == 3


def test_axiom_rejects_mismatched_conic_weight():
    report = quantization_axiom_check(
        differential_family(1, 2, order=3),
        standard_presentation(1, 1, order=4),
    )
    assert not report["ok"]
    assert "degree" in [f["kind"] for f in report["failures"]]


def test_axiom_rejects_wrong_first_order_bracket():
    ctx = sl2_presentation(order=4).ctx
    table = {
        ("h", "e"): 2 * ctx.var("e"),
        ("h", "f"): -2 * ctx.var("f"),
        ("e", "f"): -ctx.var("h"),
    }
    wrong = PoissonPresentation(ctx, table, degree=-1)
    report = quantization_axiom_check(sl2_enveloping(order=3), wrong)
    assert not report["ok"]
    bad = [f for f in report["failures"] if f["kind"] == "first-order"]
    assert [f["pair"] for f in bad] == [["e", "f"]]


# -- quantized slices ---------------------------------------------------------


def test_slice_of_the_product_is_the_weyl_factor():
    a = differential_family(2, 2, order=3)
    res = quantized_slice(
        a, "t", [], truncation=2, weight_window=(-2, 2), degree_cap=2
    )
    assert {w: len(v) for w, v in res.basis.items()} == {
        -2: 12, -1: 12, 0: 12, 1: 12, 2: 12,
    }
    assert res.closure["ok"]
    assert res.closure["pairs"] == 3600
    z1 = {(0, ((2, 1),)): Q(1)}
    z2 = {(0, ((3, 1),)): Q(1)}
    assert res.generator_candidates == [(0, z2), (2, z1)]
    for vs in res.basis.values():
        for v in vs:
            for _hpow, mono in v:
                assert all(a.names[i] != "u" for i, _e in mono)


def test_slice_of_localized_sl2_finds_the_casimir():
    u = sl2_enveloping(order=3, localized=True)
    res = quantized_slice(
        u, "f", [], truncation=2, weight_window=(0, 0), degree_cap=2
    )
    assert {w: len(v) for w, v in res.basis.items()} == {0: 4}
    assert res.closure["ok"]
    assert len(res.generator_candidates) == 1
    weight, candidate = res.generator_candidates[0]
    assert weight == 0
    shifted = u.multiply(sl2_casimir_element(u), u.var("f", -2))
    assert candidate == shifted
    keys = sorted({k for v in res.basis[0] for k in v} | set(shifted))
    span = [[v.get(k, Q(0)) for k in keys] for v in res.basis[0]]
    assert in_span(span, [shifted.get(k, Q(0)) for k in keys])


def test_slice_with_all_lifts_leaves_the_coefficient_ring():
    a = differential_family(2, 1, order=4)
    res = quantized_slice(
        a, "t", ["z1", "z2"], truncation=2, weight_window=(-1, 1),
        degree_cap=2,
    )
    assert res.generator_candidates == []
    for vs in res.basis.values():
        for v in vs:
            for _hpow, mono in v:
                assert all(a.names[i] == "t" for i, _e in mono)


def test_slice_rejects_bad_lifts_before_kernel_work():
    a = differential_family(2, 1, order=4)
    with pytest.raises(ValueError, match="conic relations"):
        quantized_slice(a, "t", ["u"], truncation=2, weight_window=(0, 0))
    with pytest.raises(ValueError, match="order at least"):
        quantized_slice(a, "t", [], truncation=4, weight_window=(0, 0))
    with pytest.raises(ValueError, match="must be positive"):
        quantized_slice(a, "t", [], truncation=0, weight_window=(0, 0))


def test_only_failed_conic_relations_are_a_conic_relation_error():
    a = differential_family(2, 1, order=4)
    with pytest.raises(ConicRelationError, match=r"\[t, z1\]"):
        quantized_slice(a, "t", ["u"], truncation=2, weight_window=(0, 0))
    for bad in ({"truncation": 4}, {"truncation": 0}):
        with pytest.raises(ValueError) as info:
            quantized_slice(a, "t", [], weight_window=(0, 0), **bad)
        assert not isinstance(info.value, ConicRelationError)


def test_conjugated_lifts_give_the_conjugated_kernel():
    a = differential_family(2, 1, order=4)
    w = a.multiply(a.var("u"), a.var("z1"))
    twisted_t = exp_ad_conjugate(a, w, a.var("t"))
    assert a.render(twisted_t) == "1*t + -1*hbar^2*z1"
    plain = quantized_slice(
        a, "t", [], truncation=2, weight_window=(-1, 1), degree_cap=3
    )
    twisted = quantized_slice(
        a, twisted_t, [], truncation=2, weight_window=(-1, 1), degree_cap=3
    )
    for weight, vs in plain.basis.items():
        tvs = twisted.basis[weight]
        assert len(tvs) == len(vs)
        images = [exp_ad_conjugate(a, w, v) for v in vs]
        images = [
            {k: c for k, c in img.items() if k[0] < 2} for img in images
        ]
        keys = sorted({k for v in tvs + images for k in v})
        span = [[v.get(k, Q(0)) for k in keys] for v in tvs]
        for img in images:
            assert in_span(span, [img.get(k, Q(0)) for k in keys])


def test_generator_search_multiplies_each_pool_pair_once(monkeypatch):
    a = differential_family(2, 2, order=3)
    res = quantized_slice(
        a, "t", [], truncation=2, weight_window=(0, 1), degree_cap=2
    )
    operands: dict = {}
    multiply = HbarPresentation.multiply

    def counting(self, x, y, **kwargs):
        key = (id(x), id(y))
        operands[key] = operands.get(key, 0) + 1
        return multiply(self, x, y, **kwargs)

    monkeypatch.setattr(HbarPresentation, "multiply", counting)
    again = _generator_candidates(a, res.basis, res.truncation, {})
    assert again == res.generator_candidates
    assert operands and max(operands.values()) == 1


def test_exp_ad_is_an_algebra_map():
    a = differential_family(2, 1, order=4)
    w = a.multiply(a.var("u"), a.var("z1"))
    x = element_add(a.var("u"), a.var("z2"))
    y = element_add(a.var("t"), element_scale(a.var("z1"), Q(1, 2)))
    lhs = exp_ad_conjugate(a, w, a.multiply(x, y))
    rhs = a.multiply(exp_ad_conjugate(a, w, x), exp_ad_conjugate(a, w, y))
    assert lhs == rhs


# -- serialization ------------------------------------------------------------


def test_reports_serialize_deterministically():
    a = differential_family(2, 2, order=3)
    blob = json.dumps(a.as_json(), sort_keys=True)
    assert blob == json.dumps(a.as_json(), sort_keys=True)
    assert a.as_json()["commutators"]["t,u"] == "1*hbar*t^-1"
    res = quantized_slice(
        a, "t", [], truncation=2, weight_window=(0, 1), degree_cap=1
    )
    dumped = json.dumps(res.as_json(), sort_keys=True)
    assert dumped == json.dumps(res.as_json(), sort_keys=True)
    assert json.loads(dumped)["truncation"] == 2
