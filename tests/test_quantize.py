"""Rewriting normal forms, confluence, and quantized slice kernels."""

import itertools
import json
import random
from collections import Counter
from functools import partial

import pytest

from equislice import fixtures, quantize
from equislice.fixtures import sl2_presentation
from equislice.linalg import Echelon, in_span
from equislice.poisson import PoissonPresentation, max_steps, standard_presentation
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
from equislice.series import GradedContext
from reference import (
    _reference_differential_family,
    _reference_enveloping_family,
    _reference_sl2_constants,
    _reference_straighten,
    _reference_weyl_family,
    reference_certify_confluence,
    reference_closure,
    reference_generator_candidates,
    reference_slice_monomials,
)


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


def test_generators_are_checked_by_their_graded_context():
    rules = {("x", "y"): [(Q(1), 1, {})]}
    for names, weights, invertible, error in (
        (("x", "x"), (1, 1), (), "duplicate variable names"),
        (("x", "y"), (1,), (), "weights do not match variables"),
        (("x", "y"), (1, 1), ("q",), r"unknown variables: \['q'\]"),
    ):
        with pytest.raises(ValueError, match=f"^{error}$"):
            HbarPresentation(names, weights, 1, rules, invertible=invertible)
    a = HbarPresentation(("x", "y"), (1, 2), 1, {}, invertible=("x",))
    assert isinstance(a.ctx, GradedContext)
    assert (a.names, a.weights, a.invertible) == (
        a.ctx.variables, a.ctx.weights, a.ctx.invertible) == (("x", "y"), (1, 2), {"x"})


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


def test_commutator_keys_name_known_generators():
    # on either side of the key, as inside a correction
    for key in (("x", "q"), ("q", "y")):
        with pytest.raises(ValueError, match="^unknown generator q$"):
            HbarPresentation(("x", "y"), (1, 1), 1, {key: [(1, 1, {})]})
    with pytest.raises(ValueError, match="^unknown generator q$"):
        HbarPresentation(("x", "y"), (1, 1), 1, {("x", "y"): [(1, 1, {"q": 1})]})


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


def test_element_constructors_check_their_input():
    a = differential_family(1, 2, order=3)
    for bad in (1.5, 2.0, True, Q(1, 2), "1"):
        with pytest.raises(ValueError, match="exact integer"):
            a.hbar(bad)
        with pytest.raises(ValueError, match="exact integer"):
            a.var("t", bad)
        with pytest.raises(ValueError, match="exact integer"):
            a.normal_form([("t", bad)])
    with pytest.raises(ValueError, match="nonnegative"):
        a.hbar(-1)
    for unknown in ("nope", "hbar"):
        with pytest.raises(ValueError, match="unknown generator"):
            a.var(unknown)
        with pytest.raises(ValueError, match="unknown generator"):
            a.normal_form([("t", 1), (unknown, 1)])
        with pytest.raises(ValueError, match="unknown generator"):
            a.from_terms([(Q(1), 0, {unknown: 1})])
    assert a.hbar(Q(1)) == a.hbar(1) == {(1, ()): 1}
    assert a.hbar(0) == a.one() and a.hbar(3) == {}
    assert a.var("t", Q(-2)) == a.var("t", -2) == {(0, ((0, -2),)): 1}
    assert a.var("u", 0) == a.one()
    assert a.normal_form([("t", Q(2)), ("u", 0)]) == a.var("t", 2)


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


def test_localized_sl2_at_cap_six_fits_the_default_budget(monkeypatch):
    """Letter-by-letter straightening spends about 2.9 million steps here
    and exhausts the default budget; merged straightening finishes, and
    the shifted Casimir C f^-2 still generates the weight-zero piece:
    its square and cube, of degree 4 and 6, lie in the span."""
    monkeypatch.delenv("EQUISLICE_MAX_STEPS", raising=False)
    a = sl2_enveloping(order=4, localized=True)
    res = quantized_slice(
        a, "f", [], truncation=3, weight_window=(0, 0), degree_cap=6
    )
    assert res.closure["ok"]
    shifted = a.multiply(sl2_casimir_element(a), a.var("f", -2))
    assert res.generator_candidates == [(0, shifted)]
    span = Echelon()
    for v in res.basis[0]:
        assert span.insert(v)
    power = shifted
    for _ in range(2):
        power = a.multiply(power, shifted)
        assert span.contains({k: c for k, c in power.items() if k[0] < 3})


def test_a_computation_reads_the_step_budget_once(monkeypatch):
    a = sl2_enveloping(order=4, localized=True)
    # warm the presentation: the push-down rows of inverse letters, built
    # on first use, are products of their own
    quantized_slice(a, "f", [], truncation=3, weight_window=(0, 0), degree_cap=2)
    casimir = sl2_casimir_element(a)
    reads, products = [], []
    read, multiply = quantize.max_steps, HbarPresentation.multiply

    def counting_read():
        reads.append(1)
        return read()

    def counting_multiply(self, x, y, **kwargs):
        products.append(1)
        return multiply(self, x, y, **kwargs)

    monkeypatch.setattr(quantize, "max_steps", counting_read)
    monkeypatch.setattr(HbarPresentation, "multiply", counting_multiply)
    for compute in (
        lambda: quantized_slice(a, "f", [], truncation=3,
                                weight_window=(0, 0), degree_cap=2),
        lambda: exp_ad_conjugate(a, a.var("h"), a.var("e")),
        lambda: centrality_check(a, casimir),
        lambda: a.commutator(a.var("e"), a.var("f")),
    ):
        reads.clear()
        products.clear()
        compute()
        assert len(reads) == 1 and len(products) > 1


def test_a_fresh_presentation_reads_the_step_budget_once(monkeypatch):
    """The push-down rows that a fresh presentation builds on first use
    are products charged to the budget of the straightening that needs
    them, so they read no budget of their own."""
    reads = []
    read = quantize.max_steps

    def counting_read():
        reads.append(1)
        return read()

    monkeypatch.setattr(quantize, "max_steps", counting_read)
    quantized_slice(sl2_enveloping(order=4, localized=True), "f", [], truncation=3,
                    weight_window=(0, 0), degree_cap=2)
    assert len(reads) == 1


def least_passing_budget(monkeypatch, compute) -> int:
    """The smallest EQUISLICE_MAX_STEPS under which compute() does not
    raise RewriteLimitError, by doubling and then bisection."""
    def passes(budget):
        monkeypatch.setenv("EQUISLICE_MAX_STEPS", str(budget))
        try:
            compute()
        except RewriteLimitError:
            return False
        return True

    failing, passing = -1, 1
    while not passes(passing):
        failing, passing = passing, 2 * passing
    while passing - failing > 1:
        middle = (failing + passing) // 2
        if passes(middle):
            passing = middle
        else:
            failing = middle
    return passing


@pytest.mark.parametrize("compute", [
    lambda a: a.normal_form([("e", 1), ("f", -1)]),
    lambda a: a.multiply(a.var("e"), a.var("f", -1)),
    lambda a: a.normal_form([("e", 2), ("f", -2)]),
], ids=["e f^-1", "multiply e by f^-1", "e^2 f^-2"])
def test_the_first_computation_pays_for_a_push_down_row(compute, monkeypatch):
    """Moving e past f^-1 needs the push-down row of the pair, built by
    products on first use: on a fresh presentation those steps count
    against the budget of the computation that builds the row, on a warm
    one the row is read from the cache."""
    warm = sl2_enveloping(order=4, localized=True)
    compute(warm)
    fresh = least_passing_budget(
        monkeypatch, lambda: compute(sl2_enveloping(order=4, localized=True))
    )
    assert fresh > least_passing_budget(monkeypatch, lambda: compute(warm))


def test_a_memo_hit_does_not_pay_for_a_push_down_row_again(monkeypatch):
    """A term pair whose straightening built a push-down row is kept in
    the memo at its own cost, so a later product over that memo needs no
    more budget than one over a fresh memo."""
    a = sl2_enveloping(order=4, localized=True)
    e, f_inverse = a.var("e"), a.var("f", -1)
    shared: dict = {}
    a.multiply(e, f_inverse, memo=shared)
    budgets = [
        least_passing_budget(monkeypatch, lambda: a.multiply(e, f_inverse, memo=memo))
        for memo in (shared, {})
    ]
    assert budgets[0] == budgets[1]


# -- the term-pair memo of multiply -------------------------------------------


def straightened_product(a, x, y, straighten):
    """x*y pushed through straighten (HbarPresentation._straighten or the
    letter-by-letter reference) one term pair at a time, with no memo and
    no shortcut, and the steps that took."""
    out: dict = {}
    budget = 10 ** 9
    state = [budget]
    for (p1, m1), c1 in x.items():
        for (p2, m2), c2 in y.items():
            if p1 + p2 < a.order:
                straighten(
                    a, a._letters(m1) + a._letters(m2), p1 + p2, c1 * c2, out,
                    state,
                )
    return out, budget - state[0]


def merged_and_reference_product(a, x, y):
    """x*y by the reference, and the steps merged straightening spends on
    it, never more than the reference's."""
    want, reference_steps = straightened_product(a, x, y, _reference_straighten)
    got, steps = straightened_product(a, x, y, HbarPresentation._straighten)
    assert got == want
    assert steps <= reference_steps
    return want, steps


SO3 = {("x", "y"): {"z": 1}, ("y", "z"): {"x": 1}, ("x", "z"): {"y": -1}}


def so3_enveloping(order):
    return enveloping_family(("x", "y", "z"), SO3, order=order)


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
        want, steps = merged_and_reference_product(a, x, y)
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
    want, steps = merged_and_reference_product(a, shifted, shifted)
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


STRAIGHTEN_ALGEBRAS = {
    **MEMO_ALGEBRAS,
    "differential(1,0)": lambda: differential_family(1, 0, order=3),
    "differential(3,2)": lambda: differential_family(3, 2, order=3),
    "weyl(1,0)": lambda: weyl_family(1, 0, order=4),
    "sl2 order 4": lambda: sl2_enveloping(order=4),
    "localized sl2 order 5": lambda: sl2_enveloping(order=5, localized=True),
    "not confluent": non_jacobi_rules,
}


def seeded_words(a, rng, count):
    """Words of two to six factors with exponents up to three, inverse
    letters included where a generator is invertible."""
    words = []
    for _ in range(count):
        word = []
        for _ in range(rng.randint(2, 6)):
            i = rng.randrange(len(a.names))
            exps = [1, 2, 3] + ([-1, -2] if a.names[i] in a.invertible else [])
            word.append((i, rng.choice(exps)))
        words.append(a._letters(word))
    return words


def confluence_triples(a):
    alphabet = [(i, 1) for i in range(len(a.names))] + [
        (i, -1) for i in range(len(a.names)) if a.names[i] in a.invertible
    ]
    return [tuple(t) for t in itertools.product(alphabet, repeat=3)]


@pytest.mark.parametrize("name", sorted(STRAIGHTEN_ALGEBRAS))
def test_merged_straightening_matches_the_reference(name):
    """Normal forms of merged straightening equal the letter-by-letter
    reference's in both swap orders, on seeded words and on every letter
    triple, and never cost more steps."""
    a = STRAIGHTEN_ALGEBRAS[name]()
    rng = random.Random(f"straighten {name}")
    words = seeded_words(a, rng, 25) + confluence_triples(a)
    saved = 0
    for word in words:
        hpow = rng.choice([0, 0, a.order - 1])
        coeff = Q(rng.choice([1, -2, 3]), rng.choice([1, 2]))
        for strategy in ("first", "last"):
            forms, steps = [], []
            for straighten in (HbarPresentation._straighten, _reference_straighten):
                out, state = {}, [10 ** 9]
                straighten(a, word, hpow, coeff, out, state, strategy)
                forms.append(out)
                steps.append(10 ** 9 - state[0])
            assert forms[0] == forms[1], (word, strategy)
            assert steps[0] <= steps[1], (word, strategy)
            saved += steps[1] - steps[0]
    assert saved > 0
    assert a.certify_confluence()["ok"] == (name != "not confluent")


SHARED_STATES = {
    # z2 z1 z2 z1 reaches hbar*z1 z2 by three rewrite paths: the reference
    # expands it on each, merged straightening once (four words at hbar^0,
    # two at hbar^1, one at hbar^2)
    "weyl(1,0)": (partial(weyl_family, 1, 0, order=3),
                  [("z2", 1), ("z1", 1), ("z2", 1), ("z1", 1)],
                  "1*z1^2*z2^2 + -3*hbar*z1*z2 + 1*hbar^2", [7, 9]),
    # h e f reaches hbar*e f twice, with coefficients 2 and -2 ([h, ef] = 0):
    # merged straightening drops the state, the reference expands it twice
    "sl2": (partial(sl2_enveloping, order=4), [("h", 1), ("e", 1), ("f", 1)],
            "1*e*f*h", [3, 5]),
}


@pytest.mark.parametrize("name", sorted(SHARED_STATES))
def test_merged_straightening_expands_each_state_once(name):
    build, word, form, want_steps = SHARED_STATES[name]
    a = build()
    letters = a._letters([(a.names.index(g), e) for g, e in word])
    steps = []
    for straighten in (HbarPresentation._straighten, _reference_straighten):
        out, state = {}, [100]
        straighten(a, letters, 0, 1, out, state)
        assert a.render(out) == form
        steps.append(100 - state[0])
    assert steps == want_steps


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
    """One overlap fails, the same one that comparing both reduction
    orders on every letter triple finds."""
    a = non_jacobi_rules()
    report = a.certify_confluence()
    assert not report["ok"]
    assert report["failures"] == reference_certify_confluence(a)["failures"]
    assert [f["word"] for f in report["failures"]] == [[("z", 1), ("y", 1), ("x", 1)]]
    failure = report["failures"][0]
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
    again = _generator_candidates(a, res.basis, res.truncation, {}, max_steps())
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


# -- the families against their hand-written reference ------------------------


LOCALIZED_SL2 = {
    ("f", "e"): {"h": -1},
    ("f", "h"): {"f": 2},
    ("e", "h"): {"e": -2},
}


def _attempt(call):
    """call(), or the exception it raised as (type name, text)."""
    try:
        return call()
    except (ValueError, KeyError, RewriteLimitError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def family_outcome(build):
    """What a family builder gives: its refusal, or the algebra's as_json(),
    repr, confluence report (up to four generators) and the normal forms
    of seeded words."""
    a = _attempt(build)
    if not isinstance(a, HbarPresentation):
        return a
    rng = random.Random(repr(a.as_json()))
    forms = []
    for _ in range(3):
        word = []
        for _ in range(rng.randint(2, 4)):
            name = rng.choice(a.names)
            word.append((name, rng.choice([1, 2, -1 if name in a.invertible else 3])))
        forms.append(_attempt(partial(a.normal_form, word)))
    confluence = _attempt(a.certify_confluence) if len(a.names) <= 4 else None
    return a.as_json(), repr(a), confluence, forms


def _pair(new, reference, *args, **kwargs):
    return partial(new, *args, **kwargs), partial(reference, *args, **kwargs)


FAMILY_GRID = {
    **{
        f"differential({n},{k}) order {order}": _pair(
            differential_family, _reference_differential_family, n, k, order=order
        )
        for n in (1, 2, 3) for k in range(4) for order in range(1, 5)
    },
    **{
        f"weyl({pairs},{k})": _pair(weyl_family, _reference_weyl_family, pairs, k)
        for pairs in (1, 2) for k in range(3)
    },
    **{
        f"sl2 order {order}": (
            partial(sl2_enveloping, order=order),
            partial(_reference_enveloping_family, ("e", "f", "h"),
                    _reference_sl2_constants(), order=order),
        )
        for order in (2, 3, 4)
    },
    **{
        f"localized sl2 order {order}": (
            partial(sl2_enveloping, order=order, localized=True),
            partial(_reference_enveloping_family, ("f", "e", "h"), LOCALIZED_SL2,
                    invertible=("f",), order=order),
        )
        for order in (2, 3, 4)
    },
    "so3": _pair(enveloping_family, _reference_enveloping_family, ("x", "y", "z"), SO3),
    "heisenberg, k = 0": _pair(
        enveloping_family, _reference_enveloping_family, ("x", "y", "c"),
        {("x", "y"): {"c": 1}}, weights=(1, 1, 2), k=0,
    ),
    # refusals
    "differential n = 0": _pair(differential_family, _reference_differential_family, 0, 1),
    "differential k < 0": _pair(differential_family, _reference_differential_family, 1, -1),
    "differential n = 0, k < 0": _pair(
        differential_family, _reference_differential_family, 0, -1
    ),
    "differential k = 1/2": _pair(
        differential_family, _reference_differential_family, 1, Q(1, 2)
    ),
    "differential n = 2, k = 1/2": _pair(
        differential_family, _reference_differential_family, 2, Q(1, 2)
    ),
    "weyl pairs = 0": _pair(weyl_family, _reference_weyl_family, 0, 1),
    "weyl order 0": _pair(weyl_family, _reference_weyl_family, 1, 1, order=0),
    "enveloping non-Jacobi": _pair(
        enveloping_family, _reference_enveloping_family, ("x", "y", "z"),
        {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}},
    ),
    "enveloping key order": _pair(
        enveloping_family, _reference_enveloping_family, ("x", "y"),
        {("y", "x"): {"x": 1}},
    ),
    "enveloping diagonal key": _pair(
        enveloping_family, _reference_enveloping_family, ("x", "y"),
        {("x", "x"): {"y": 1}},
    ),
    "enveloping k = 2 on weight one": _pair(
        enveloping_family, _reference_enveloping_family, ("x", "y"),
        {("x", "y"): {"x": 1}}, k=2,
    ),
    "enveloping invertible not first": _pair(
        enveloping_family, _reference_enveloping_family, ("x", "y"),
        {("x", "y"): {"x": 1}}, invertible=("y",),
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILY_GRID))
def test_family_matches_its_hand_written_reference(name):
    build, reference = FAMILY_GRID[name]
    assert family_outcome(build) == family_outcome(reference)


KNOWN_LIE_ALGEBRAS = [
    {("a", "b"): {"a": 1}},
    {("a", "b"): {"c": 1}},
    {("a", "b"): {"c": 1}, ("a", "c"): {"a": -2}, ("b", "c"): {"b": 2}},
    {("a", "b"): {"c": 1}, ("b", "c"): {"a": 1}, ("a", "c"): {"b": -1}},
    {("a", "b"): {"b": 1}, ("c", "d"): {"d": 1}},
    {("a", "b"): {"c": 1}, ("a", "c"): {"d": 1}},
]


def _rescaled(constants, scale):
    """The constants in the basis scale[g] * g: each coefficient of g in
    [a, b] becomes scale[a] * scale[b] / scale[g] times itself."""
    return {
        (a, b): {g: Q(c) * scale[a] * scale[b] / scale[g] for g, c in row.items()}
        for (a, b), row in constants.items()
    }


def test_seeded_lie_constants_match_the_reference():
    rng = random.Random("enveloping against the reference")
    seen = Counter()
    inputs = []
    for constants in KNOWN_LIE_ALGEBRAS:
        for _ in range(2):
            scale = {g: rng.choice([1, -1, 2, Q(1, 2)]) for g in "abcd"}
            inputs.append(_rescaled(constants, scale))
    for _ in range(30):
        names = "abcd"[:rng.randint(3, 4)]
        inputs.append({
            (a, b): {
                g: rng.choice([1, -1, 2, Q(1, 2), Q(-3, 2)])
                for g in rng.sample(names, rng.randint(1, 2))
            }
            for i, a in enumerate(names) for b in names[i + 1:]
            if rng.random() < 0.4
        })
    for constants in inputs:
        used = {g for key, row in constants.items() for g in (*key, *row)}
        size = max([2] + ["abcd".index(g) + 1 for g in used])
        names = tuple("abcd"[:size])
        options = {
            "invertible": names[:1] if rng.random() < 0.5 else (),
            "order": rng.choice([2, 3]),
        }
        got = family_outcome(partial(enveloping_family, names, constants, **options))
        want = family_outcome(
            partial(_reference_enveloping_family, names, constants, **options)
        )
        assert got == want, (constants, options)
        refused = got[0] == "raised"
        if refused:
            assert "Jacobi identity at (" in got[2], got
        seen["refused" if refused else "built"] += 1
    assert seen["built"] >= 2 * len(KNOWN_LIE_ALGEBRAS) and seen["refused"] >= 10, seen


# -- quantizing a Poisson presentation ----------------------------------------


CLASSICAL_FIXTURES = {
    "sl2": fixtures.sl2_presentation,
    "kleinian": partial(fixtures.kleinian_presentation, 2),
    "cyclic non-Jacobi": fixtures.cyclic_nonjacobi,
    "cubic jacobian": fixtures.cubic_jacobian,
    "coupled line": fixtures.coupled_line_example,
    "invariant quadric": fixtures.invariant_quadric,
    "kleinian product": partial(fixtures.kleinian_product, 2, 3),
    "standard(1,2)": partial(standard_presentation, 1, 2),
    "standard(3,1), ell = 2": partial(standard_presentation, 3, 1, ell=2),
}


def test_from_poisson_quantizes_every_accepted_fixture():
    refused = {}
    for name, build in sorted(CLASSICAL_FIXTURES.items()):
        p = build()
        try:
            a = HbarPresentation.from_poisson(p, order=3)
        except ValueError as exc:
            refused[name] = str(exc)
            continue
        assert not p.relations
        report = quantization_axiom_check(a, p)
        assert report["ok"], (name, report["failures"])
        assert report["checked"] == len(a.names) * (len(a.names) - 1) // 2
    assert refused == {
        "kleinian": "an hbar presentation has no relation ideal",
        "invariant quadric": "an hbar presentation has no relation ideal",
        "cyclic non-Jacobi":
            "structure constants fail the Jacobi identity at (x,y,z)",
    }


def test_from_poisson_refuses_an_invertible_generator_out_of_place():
    ctx = GradedContext(("u", "t"), (0, 1), invertible=("t",))
    p = PoissonPresentation(ctx, {("t", "u"): ctx.one()}, degree=-1)
    with pytest.raises(ValueError, match="come first"):
        HbarPresentation.from_poisson(p)


def test_from_poisson_reads_the_hbar_weight_off_the_degree():
    p = sl2_presentation()
    undeclared = PoissonPresentation(
        p.ctx, {pair: p.entry(*pair) for pair in p.pairs()}
    )
    assert undeclared.degree is None
    assert HbarPresentation.from_poisson(undeclared).as_json() == \
        sl2_enveloping().as_json()
    # a declared degree wins over the table's own
    redeclared = PoissonPresentation(
        p.ctx, {pair: p.entry(*pair) for pair in p.pairs()}, degree=-2
    )
    with pytest.raises(ValueError, match="not weight homogeneous"):
        HbarPresentation.from_poisson(redeclared)


# -- the classical limit of the quantized slice -------------------------------


def built_with_classical(build, monkeypatch):
    """build() and the Poisson presentation its family hands to
    HbarPresentation.from_poisson."""
    given = []
    quantize = HbarPresentation.from_poisson.__func__

    def spy(cls, p, order=3):
        given.append(p)
        return quantize(cls, p, order)

    with monkeypatch.context() as patch:
        patch.setattr(HbarPresentation, "from_poisson", classmethod(spy))
        algebra = build()
    return algebra, given[-1]


def hbar_layers(basis):
    """The graded pieces of the hbar-adic filtration of span(basis): layer
    j holds the hbar^j parts of the elements with no lower hbar power.  In
    the reduced echelon form over (hbar power, monomial) keys these are
    the hbar^j parts of the rows whose pivot has hbar power j."""
    layers: dict = {}
    for (j, _mono), row in spanned(basis).items():
        layers.setdefault(j, []).append(
            {mono: c for (p, mono), c in row.items() if p == j}
        )
    return layers


def spanned(vectors) -> Echelon:
    span = Echelon()
    for v in vectors:
        span.insert(v)
    return span


CLASSICAL_LIMIT_CASES = {
    "differential(2,2), t z1 z2": (partial(differential_family, 2, 2, order=3), "t", ["z1", "z2"]),
    "differential(2,2), t": (partial(differential_family, 2, 2, order=3), "t", []),
    "sl2, h": (partial(sl2_enveloping, order=3), "h", []),
    "sl2, e": (partial(sl2_enveloping, order=3), "e", []),
    "localized sl2, f": (partial(sl2_enveloping, order=3, localized=True), "f", []),
    "localized sl2, h": (partial(sl2_enveloping, order=3, localized=True), "h", []),
    "weyl(2,1), z1": (partial(weyl_family, 2, 1, order=3), "z1", []),
    "weyl(2,1), z1 z3 z4": (partial(weyl_family, 2, 1, order=3), "z1", ["z3", "z4"]),
}


@pytest.mark.parametrize("name", sorted(CLASSICAL_LIMIT_CASES))
def test_quantized_slice_layers_are_the_classical_centralizer(name, monkeypatch):
    """The hbar^0 part of every quantum slice element lies in the classical
    centralizer of the lifts at its weight and these parts span it; the
    hbar^j layer is hbar^j times the centralizer at weight w - j*k.

    How the two sides line up:
    - the classical side is the presentation the family quantized, so the
      generators, weights and invertibles agree and a quantum monomial's
      exponents are a classical exponent tuple; k is minus its degree;
    - truncation T = 2: the quantum basis runs over hbar^0..hbar^(T-1) and
      its kernel condition holds mod hbar^(T+1), so layers j = 0..T-1 are
      compared, layer j of weight w with classical weight w - j*k;
    - the degree cap counts the exponents of the non-invertible generators
      on both sides (both walk GradedContext.weight_monomials), at every
      hbar power;
    - the classical truncation order exceeds the cap by more than one, so
      no J-truncation cuts a classical monomial or a certified bracket."""
    build, t_lift, z_lifts = CLASSICAL_LIMIT_CASES[name]
    a, classical = built_with_classical(build, monkeypatch)
    truncation, cap, window = 2, 2, (0, 4)
    assert classical.ctx.variables == a.names and a.k == -classical.degree
    assert classical.ctx.order > cap + 1
    lifts = [t_lift] + z_lifts
    res = quantized_slice(a, t_lift, z_lifts, truncation, window, degree_cap=cap)

    def exps(mono):
        out = [0] * len(a.names)
        for i, e in mono:
            out[i] = e
        return tuple(out)

    nonzero = 0
    for w in range(window[0], window[1] + 1):
        basis = res.basis.get(w, [])
        layers = hbar_layers(basis)
        assert set(layers) <= set(range(truncation))
        for j in range(truncation):
            centralizer = spanned(
                e.terms for e in
                classical.centralizer_basis(lifts, w - j * a.k, degree_cap=cap)
            )
            nonzero += len(centralizer)
            if j == 0:
                for v in basis:
                    part = a.hbar_coefficient(v, 0)
                    assert centralizer.contains({exps(m): c for m, c in part.items()}), w
            symbols = [{exps(m): c for m, c in v.items()} for v in layers.get(j, [])]
            assert spanned(symbols).items() == centralizer.items(), (w, j)
    assert nonzero


# -- slice closure from one confluence certificate ----------------------------


def twisted_t(a):
    """t conjugated by exp(hbar ad(u z1)), as in
    test_conjugated_lifts_give_the_conjugated_kernel."""
    return exp_ad_conjugate(a, a.multiply(a.var("u"), a.var("z1")), a.var("t"))


def localized_sl2(order):
    return partial(sl2_enveloping, order=order, localized=True)


def differential(n, k, order=3):
    return partial(differential_family, n, k, order=order)


# every (family, lifts, truncation, window, degree cap) of a quantized slice
# in these tests, the CLI tests and criterion 9: (build, t_lift (a name or a
# function of the algebra), z_lifts, truncation, window, degree_cap)
CLOSURE_CASES = {
    "localized sl2 order 4, f, cap 6": (localized_sl2(4), "f", [], 3, (0, 0), 6),
    "localized sl2 order 4, f, cap 4": (localized_sl2(4), "f", [], 3, (0, 0), 4),
    "localized sl2 order 4, f, cap 2": (localized_sl2(4), "f", [], 3, (0, 0), 2),
    "localized sl2 order 3, f, cap 2": (localized_sl2(3), "f", [], 2, (0, 0), 2),
    "differential(2,2), t, -2..2 cap 2": (differential(2, 2), "t", [], 2, (-2, 2), 2),
    "differential(2,2), t, 0..1 cap 2": (differential(2, 2), "t", [], 2, (0, 1), 2),
    "differential(2,2), t, 0..1 cap 1": (differential(2, 2), "t", [], 2, (0, 1), 1),
    "differential(3,2), t, -2..2 cap 1": (differential(3, 2), "t", [], 2, (-2, 2), 1),
    "differential(2,1) order 4, t z1 z2":
        (differential(2, 1, order=4), "t", ["z1", "z2"], 2, (-1, 1), 2),
    "differential(2,1) order 4, t": (differential(2, 1, order=4), "t", [], 2, (-1, 1), 3),
    "differential(2,1) order 4, twisted t":
        (differential(2, 1, order=4), twisted_t, [], 2, (-1, 1), 3),
    "differential(2,1), t, -1..1 cap 1": (differential(2, 1), "t", [], 2, (-1, 1), 1),
    "differential(2,1), t z1 z2, 0..0 cap 1":
        (differential(2, 1), "t", ["z1", "z2"], 2, (0, 0), 1),
    **{
        f"classical limit {name}": (build, t_lift, z_lifts, 2, (0, 4), 2)
        for name, (build, t_lift, z_lifts) in CLASSICAL_LIMIT_CASES.items()
    },
}


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_slice_closure_from_confluence_matches_the_pairwise_reference(name):
    build, t_lift, z_lifts, truncation, window, cap = CLOSURE_CASES[name]
    a = build()
    if callable(t_lift):
        t_lift = t_lift(a)
    res = quantized_slice(a, t_lift, z_lifts, truncation, window, degree_cap=cap)
    lifts = [a.var(lift) if isinstance(lift, str) else lift for lift in [t_lift, *z_lifts]]
    assert res.closure["ok"]
    assert res.closure == reference_closure(a, lifts, res.basis, truncation)


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_slice_columns_are_the_box_walk_in_its_order(name, monkeypatch):
    """The kernel's columns, one candidate monomial commuted with each lift
    in turn, are the whole-box walk of the reference, weight by weight and
    in the same order (a column's index names it in the relations)."""
    build, t_lift, z_lifts, truncation, window, cap = CLOSURE_CASES[name]
    a = build()
    if callable(t_lift):
        t_lift = t_lift(a)
    calls = []
    commutator = HbarPresentation.commutator

    def recording(self, x, y, **kwargs):
        calls.append(y)
        return commutator(self, x, y, **kwargs)

    monkeypatch.setattr(HbarPresentation, "commutator", recording)
    quantized_slice(a, t_lift, z_lifts, truncation, window, degree_cap=cap)
    lifts = 1 + len(z_lifts)
    # the conic relations come first: [t, z] for every z, then every z pair
    kernel = calls[len(z_lifts) + len(z_lifts) * (len(z_lifts) - 1) // 2:]
    assert kernel and len(kernel) % lifts == 0
    columns = []
    for n in range(0, len(kernel), lifts):
        assert all(y is kernel[n] for y in kernel[n:n + lifts])
        [(key, c)] = kernel[n].items()
        assert c == 1
        columns.append(key)
    assert columns == [
        key
        for w in range(window[0], window[1] + 1)
        for key in reference_slice_monomials(a, w, truncation - 1, cap)
    ]


@pytest.mark.parametrize("lift", ["x", "y", "z"])
def test_a_non_confluent_algebra_fails_slice_closure(lift):
    a = non_jacobi_rules()
    res = quantized_slice(a, lift, [], truncation=2, weight_window=(0, 3), degree_cap=3)
    assert not res.closure["ok"]
    words = [tuple(f["word"]) for f in res.closure["failures"]]
    assert (("z", 1), ("y", 1), ("x", 1)) in words
    # the pairwise check sees the missing associativity only through y
    reference = reference_closure(a, [a.var(lift)], res.basis, 2)
    assert reference["ok"] == (lift != "y")
    assert res.closure["pairs"] == reference["pairs"]


def test_slice_closure_multiplies_no_basis_pair(monkeypatch):
    """Closure is one confluence certificate, not a product per basis
    pair.  The generator search multiplies pool pairs, which are basis
    elements, by design (see
    test_generator_search_multiplies_each_pool_pair_once), so its
    products are left out of the count."""
    a = differential_family(3, 2, order=3)
    operands, certificates, searching = [], [], []
    multiply = HbarPresentation.multiply
    certify = HbarPresentation.certify_confluence
    search = quantize._generator_candidates

    def counting_multiply(self, x, y, **kwargs):
        if not searching:
            operands.append((x, y))
        return multiply(self, x, y, **kwargs)

    def counting_certify(self, *args, **kwargs):
        certificates.append(1)
        return certify(self, *args, **kwargs)

    def flagged_search(*args):
        searching.append(1)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(HbarPresentation, "multiply", counting_multiply)
    monkeypatch.setattr(HbarPresentation, "certify_confluence", counting_certify)
    monkeypatch.setattr(quantize, "_generator_candidates", flagged_search)
    res = quantized_slice(a, "t", [], truncation=2, weight_window=(-2, 2), degree_cap=1)
    basis = [v for vs in res.basis.values() for v in vs]

    def in_basis(x):
        return any(x is v for v in basis)

    assert operands and res.closure["pairs"] == len(basis) ** 2
    assert not any(in_basis(x) and in_basis(y) for x, y in operands)
    assert len(certificates) == 1


# -- the generator search reads a product's lowest hbar layer first -----------


def searched(a, t_lift, z_lifts, truncation, window, cap, monkeypatch):
    """(slice result, generator search products) of one quantized slice,
    the search rerun on the result's basis with a fresh memo while every
    product it forms is recorded."""
    res = quantized_slice(a, t_lift, z_lifts, truncation, window, degree_cap=cap)
    products = []
    multiply = HbarPresentation.multiply

    def recording(self, x, y, **kwargs):
        out = multiply(self, x, y, **kwargs)
        products.append(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(HbarPresentation, "multiply", recording)
        again = _generator_candidates(a, res.basis, truncation, {}, max_steps())
    assert again == res.generator_candidates
    return res, products


def assert_search_matches_the_reference(a, res):
    ref = reference_generator_candidates(a, res.basis, res.truncation, {}, max_steps())
    assert res.generator_candidates == ref
    mirror = quantize.QuantSliceResult(
        a, res.truncation, res.window, res.degree_cap, res.basis, ref, res.closure
    )
    assert json.dumps(res.as_json(), sort_keys=True) == json.dumps(mirror.as_json(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
def test_generator_search_matches_the_full_product_reference(name, monkeypatch):
    """Skipping the products whose lowest layer cannot enter a span leaves
    the candidates, their order and the report as the search that
    multiplies every pool pair gives them; every product still formed
    has visible terms, all of them enumerated at its weight."""
    build, t_lift, z_lifts, truncation, window, cap = CLOSURE_CASES[name]
    a = build()
    if callable(t_lift):
        t_lift = t_lift(a)
    res, products = searched(a, t_lift, z_lifts, truncation, window, cap, monkeypatch)
    assert_search_matches_the_reference(a, res)
    keys = {w: {key for v in vs for key in v} for w, vs in res.basis.items()}
    for out in products:
        visible = {key for key in out if key[0] < truncation}
        assert visible and visible <= keys[a.weight_of(out)]


@pytest.mark.parametrize("seed", range(6))
def test_generator_search_matches_the_reference_under_seeded_gauges(seed):
    """t conjugated by exp(hbar ad(g)) for a seeded g of the weight of u z1
    (terms at hbar^0 and hbar^1, Laurent in t, degree at most 2)."""
    rng = random.Random(seed)
    a = differential_family(2, 1, order=4)
    terms = [
        (hpow, exps)
        for hpow in (0, 1)
        for exps in a.ctx.weight_monomials(1 - hpow * a.k, 2)
    ]
    gauge = a.from_terms(
        (Q(rng.randint(-3, 3), rng.randint(1, 3)), hpow, dict(zip(a.names, exps)))
        for hpow, exps in rng.sample(terms, 3)
    )
    twisted = exp_ad_conjugate(a, gauge, a.var("t"))
    res = quantized_slice(a, twisted, [], truncation=2, weight_window=(-1, 1), degree_cap=2)
    assert res.closure["ok"] and res.generator_candidates
    assert_search_matches_the_reference(a, res)


def test_generator_search_forms_only_products_that_can_enter_a_span(monkeypatch):
    """Criterion 9's localized sl2: the search forms 36 products, each
    with visible terms all enumerated at weight 0; multiplying every pool
    pair forms 81, 45 of which lie wholly at hbar^3 or reach a monomial
    that no basis element of weight 0 holds."""
    a = sl2_enveloping(order=4, localized=True)
    res, products = searched(a, "f", [], 3, (0, 0), 4, monkeypatch)
    keys = {key for v in res.basis[0] for key in v}
    assert len(products) == 36
    for out in products:
        visible = {key for key in out if key[0] < 3}
        assert visible and visible <= keys


# -- confluence on the ambiguities -------------------------------------------


# every presentation these tests build, the closure cases' by the family part
# of their names
CONFLUENCE_FAMILIES = {
    **STRAIGHTEN_ALGEBRAS,
    **{f"closure: {name.split(',')[0]}": case[0] for name, case in CLOSURE_CASES.items()},
}

OSCILLATOR = {("e", "f"): {"c": 1}, ("e", "h"): {"e": -1}, ("f", "h"): {"f": 1}}

# families a scaled structure constant can take off the Jacobi identity
PERTURBED_FAMILIES = {
    "sl2": partial(sl2_enveloping, order=3),
    "localized sl2": localized_sl2(4),
    "oscillator": partial(enveloping_family, ("e", "f", "h", "c"), OSCILLATOR),
    "localized oscillator": partial(enveloping_family, ("e", "f", "h", "c"),
                                    OSCILLATOR, invertible=("e",)),
}


def assert_certificate_matches_the_reference(a) -> dict:
    """The certificate on the ambiguities has the all-triples reference's
    verdict and triple count, and its failures are some of the
    reference's, in the reference's order; the reference is returned."""
    got, want = a.certify_confluence(), reference_certify_confluence(a)
    assert got["ok"] == want["ok"]
    assert got["triples"] == want["triples"]
    assert got["failures"] == [f for f in want["failures"] if f in got["failures"]]
    return want


@pytest.mark.parametrize("name", sorted(CONFLUENCE_FAMILIES))
def test_confluence_matches_the_all_triples_reference(name):
    assert_certificate_matches_the_reference(CONFLUENCE_FAMILIES[name]())


def perturbed(build, seed):
    """build() with one structure constant of its rule table scaled by a
    seeded factor, before any word is straightened."""
    rng = random.Random(seed)
    a = build()
    key = rng.choice(sorted(a.commutators))
    rule = dict(a.commutators[key])
    term = rng.choice(sorted(rule))
    rule[term] *= rng.choice([2, -1, 3, Q(1, 2)])
    a.commutators[key] = rule
    return a


@pytest.mark.parametrize("name", sorted(PERTURBED_FAMILIES))
def test_confluence_matches_the_reference_on_perturbed_rules(name):
    """Seeded rule tables with one coefficient scaled; the seeds that break
    the Jacobi identity, seven of twelve, fail both certificates."""
    broken = []
    for seed in range(12):
        if not assert_certificate_matches_the_reference(
                perturbed(PERTURBED_FAMILIES[name], seed))["ok"]:
            broken.append(seed)
    assert broken == [0, 5, 6, 7, 9, 10, 11]


def test_cancellation_words_catch_a_corrupted_push_down_row():
    """A push-down row is built once and then trusted.  Doubling the
    coefficient of the last row under a key with an inverse letter (two
    keys on localized sl2, one on differential(2,2)) must fail the
    certificate; each reduction order swaps y past x^e first in y.x^e.x^-e,
    so comparing the two on every letter triple misses two of the three."""
    caught, reference_caught = [], []
    for build in (localized_sl2(4), differential(2, 2)):
        a = build()
        assert a.certify_confluence()["ok"]
        keys = [key for key, rows in a._corr_cache.items()
                if rows and min(key[1], key[3]) < 0]
        for key in keys:
            rows = a._corr_cache[key]
            p, letters, c = rows[-1]
            a._corr_cache[key] = rows[:-1] + ((p, letters, 2 * c),)
            report = a.certify_confluence()
            caught.append(not report["ok"])
            reference_caught.append(not reference_certify_confluence(a)["ok"])
            a._corr_cache[key] = rows
    assert caught == [True] * 3
    assert sum(reference_caught) == 1
    # the cancellation failure names the word, its form and the monomial y
    assert report["failures"][0] == {
        "word": [("u", 1), ("t", 1), ("t", -1)],
        "first": "1*u + 1*hbar*t^-2",
        "last": "1*u",
    }


# straightenings of a certificate once the push-down rows are built
CERTIFICATE_STRAIGHTENINGS = {
    "differential(3,2)": (differential(3, 2), 70),
    "differential(2,2)": (differential(2, 2), 20),
    "localized sl2": (localized_sl2(3), 8),
    "weyl(2,1)": (partial(weyl_family, 2, 1, order=3), 8),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_STRAIGHTENINGS))
def test_confluence_straightens_each_ambiguity_once(name, monkeypatch):
    """A certificate straightens each overlap in both orders and each
    cancellation word once: 30 overlaps and 10 cancellation words on
    differential(3,2), not its 343 letter triples twice."""
    build, calls = CERTIFICATE_STRAIGHTENINGS[name]
    a = build()
    a.certify_confluence()
    straighten = HbarPresentation._straighten
    counted = []

    def counting(*args, **kwargs):
        counted.append(args[1])
        return straighten(*args, **kwargs)

    monkeypatch.setattr(HbarPresentation, "_straighten", counting)
    assert a.certify_confluence()["ok"]
    assert len(counted) == calls


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
