"""Poisson engine: brackets, Jacobi certification, gradings, center, HP0."""

import random

import pytest
from reference import _reference_bracket, _reference_jacobi

from equislice import fixtures
from equislice.darboux import CoordinateChange, scramble_presentation
from equislice.fixtures import (
    coupled_line_example,
    cubic_jacobian,
    cyclic_nonjacobi,
    invariant_quadric,
    kleinian_presentation,
    sl2_casimir,
    sl2_presentation,
)
from equislice.poisson import PoissonPresentation, standard_presentation
from equislice.scalars import CycloField, Q
from equislice.series import GradedContext, TruncatedElement


# -- bracket mechanics -----------------------------------------------------


def test_sl2_leibniz_expansion():
    p = sl2_presentation()
    ctx = p.ctx
    e, f, h = ctx.var("e"), ctx.var("f"), ctx.var("h")
    assert p.bracket(e, f * f) == 2 * f * h
    assert p.bracket(h, e) == 2 * e
    assert p.bracket(e, h) == -2 * e


def test_sl2_casimir_is_central():
    p = sl2_presentation()
    c = sl2_casimir(p)
    for name in p.ctx.variables:
        assert p.bracket(c, p.ctx.var(name)).is_zero()


def test_standard_tu_bracket():
    for k in (-1, 0, 1, 2):
        p = standard_presentation(1, k)
        assert p.bracket(p.ctx.var("t"), p.ctx.var("u")) == p.ctx.var("t", 1 - k)


def test_bracket_skew_and_leibniz_random():
    rng = random.Random(5)
    p = standard_presentation(2, 2)
    ctx = p.ctx
    names = ctx.variables

    def rand_elem():
        out = ctx.zero()
        for _ in range(rng.randrange(1, 4)):
            exps = [0] * len(names)
            exps[0] = rng.randrange(-1, 2)
            for i in range(1, len(names)):
                exps[i] = rng.randrange(0, 2)
            out = out + ctx.monomial(tuple(exps), Q(rng.randrange(-3, 4)))
        return out

    for _ in range(15):
        f, g, h = rand_elem(), rand_elem(), rand_elem()
        assert p.bracket(f, g) == -p.bracket(g, f)
        assert p.bracket(f * g, h) == g * p.bracket(f, h) + f * p.bracket(g, h)


# -- Jacobi certification ---------------------------------------------------


def test_jacobi_passes_on_fixtures():
    assert sl2_presentation().check_jacobi() == []
    assert cubic_jacobian().check_jacobi() == []
    assert coupled_line_example().check_jacobi() == []
    assert invariant_quadric().check_jacobi() == []
    for n in (2, 3, 4):
        assert kleinian_presentation(n).check_jacobi() == []
    for n in (1, 2, 3):
        for k in (-1, 0, 1, 2):
            assert standard_presentation(n, k).check_jacobi() == []


def test_jacobi_fails_on_cyclic_table():
    report = cyclic_nonjacobi().check_jacobi()
    assert len(report) == 1
    assert report[0]["triple"] == ["x", "y", "z"]
    residue = cyclic_nonjacobi().ctx.parse(report[0]["residue"])
    ctx = cyclic_nonjacobi().ctx
    assert residue in (
        ctx.parse("x + y + z"),
        ctx.parse("-1*x + -1*y + -1*z"),
    )


def test_relation_compatibility_detects_bad_ideal():
    ctx = GradedContext(("x", "y"), (1, 1))
    p = PoissonPresentation(
        ctx, {("x", "y"): ctx.one()}, relations=(ctx.var("x"),), degree=-2
    )
    report = p.check_jacobi()
    assert any(r["kind"] == "relation" for r in report)


# -- Hamiltonian and Poisson vector fields ----------------------------------


def test_hamiltonian_field_of_coupled_example():
    p = coupled_line_example()
    xi = p.hamiltonian_field(p.ctx.var("u"))
    assert xi.image("t") == p.ctx.var("t")
    assert xi.image("z") == p.ctx.one()
    assert xi.image("u").is_zero()


def test_hamiltonian_field_of_casimir_vanishes():
    p = sl2_presentation()
    assert p.hamiltonian_field(sl2_casimir(p)).is_zero()


def test_hamiltonian_fields_are_poisson():
    # [xi_f, pi] = 0 for any f once Jacobi holds
    rng = random.Random(17)
    p = standard_presentation(2, 1)
    ctx = p.ctx
    for _ in range(5):
        exps = [rng.randrange(0, 2) for _ in ctx.variables]
        exps[0] = rng.randrange(-1, 2)
        f = ctx.monomial(tuple(exps), Q(rng.randrange(1, 4)))
        assert p.lie_derivative_check(p.hamiltonian_field(f), 0) == []


def test_lie_derivative_euler_field():
    for n, k in ((1, 1), (1, 2), (2, 2), (3, 0)):
        p = standard_presentation(n, k)
        euler = {
            name: p.ctx.weight_of_name(name) * p.ctx.var(name)
            for name in p.ctx.variables
        }
        from equislice.poisson import VectorFieldRep

        xi = VectorFieldRep(p, euler)
        assert p.lie_derivative_check(xi, -k) == []
        if k != 0:
            assert p.lie_derivative_check(xi, k) != []


def test_lie_derivative_cubic_euler():
    p = cubic_jacobian()
    from equislice.poisson import VectorFieldRep

    xi = VectorFieldRep(p, {v: p.ctx.var(v) for v in p.ctx.variables})
    assert p.lie_derivative_check(xi, 0) == []


def test_lie_derivative_u_scaling_fails():
    p = standard_presentation(1, 2)
    from equislice.poisson import VectorFieldRep

    xi = VectorFieldRep(p, {"u": p.ctx.var("u")})
    report = p.lie_derivative_check(xi, 2)
    assert report and report[0]["pair"] == ["t", "u"]


# -- homogeneity and grading search -----------------------------------------


def test_homogeneity_degrees():
    assert sl2_presentation().homogeneity_degree() == -1
    for n in (2, 3, 4):
        assert kleinian_presentation(n).homogeneity_degree() == -2
    for n in (1, 2):
        for k in (-1, 0, 1, 2):
            assert standard_presentation(n, k).homogeneity_degree() == -k


def test_homogeneity_failure_lists_offender():
    ctx = GradedContext(("x", "y"), (1, 1))
    p = PoissonPresentation(ctx, {("x", "y"): ctx.one() + ctx.var("x")})
    with pytest.raises(ValueError, match="inhomogeneous"):
        p.homogeneity_degree()


def test_grading_search_kleinian():
    hits = kleinian_presentation(2).grading_search(-1, 4)
    assert (1, 1, 1) in hits
    for ws in hits:
        assert kleinian_presentation(2).homogeneity_degree(ws) == -1


def test_grading_search_sl2():
    assert (1, 1, 1) in sl2_presentation().grading_search(-1, 2)


def test_grading_search_cubic_empty():
    assert cubic_jacobian().grading_search(-1, 6) == []


# -- center and HP0 ----------------------------------------------------------


def test_center_of_standard_is_constants():
    p = standard_presentation(1, 2)
    basis = p.poisson_center_basis(range(0, 3))
    assert [str(b) for b in basis[0]] == ["1"]
    assert basis[1] == [] and basis[2] == []


def test_center_of_sl2():
    p = sl2_presentation()
    basis = p.poisson_center_basis(range(0, 3))
    assert [str(b) for b in basis[0]] == ["1"]
    assert basis[1] == []
    assert len(basis[2]) == 1
    c = basis[2][0]
    # echelon normalization pivots on h^2, so c = h^2 + 4ef
    assert c.scale(Q(1, 2)) == sl2_casimir(p)


def test_center_of_coupled_example_is_exponential():
    p = coupled_line_example()
    basis = p.poisson_center_basis([1])[1]
    assert len(basis) == 1
    got = basis[0]
    t, z = p.ctx.var("t"), p.ctx.var("z")
    expected = p.ctx.zero()
    coeffs = [Q(1), Q(-1), Q(1, 2), Q(-1, 6), Q(1, 24), Q(-1, 120)]
    for i, c in enumerate(coeffs):
        expected = expected + (t * z**i).scale(c)
    assert got == expected


def test_hp0_plane_all_zero():
    ctx = GradedContext(("x", "y"), (1, 1))
    p = PoissonPresentation(ctx, {("x", "y"): ctx.one()}, degree=-2)
    dims = p.hp0_graded(4)
    assert dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}


def test_hp0_quadric_cone_degree_zero():
    dims = invariant_quadric().hp0_graded(0)
    assert dims[0] == 1


def test_hp0_rejects_invertible_variables():
    with pytest.raises(ValueError):
        standard_presentation(1, 1).hp0_graded(2)


def test_weight_monomials_standard_basis():
    p = invariant_quadric()
    # the relation's leading monomial ab is excluded; m^2 stays standard
    monos = p.weight_monomials(4)
    strs = {str(p.ctx.monomial(e)) for e in monos}
    assert strs == {"1*a^2", "1*a*m", "1*b^2", "1*b*m", "1*m^2"}
    assert all(p.reduce(p.ctx.monomial(e)) == p.ctx.monomial(e) for e in monos)


def test_reduce_normalizes_products():
    p = invariant_quadric()
    ctx = p.ctx
    a, b, m = ctx.var("a"), ctx.var("b"), ctx.var("m")
    # ab is the leading term of ab - m^2 under graded lex
    assert p.reduce(a * b) == m * m
    assert p.reduce(a * b * m) == m**3
    assert p.reduce(a**2 * b**2) == m**4


# -- sparse brackets against the table walk ---------------------------------

# every presentation builder of the fixtures module, with small arguments
BUILDERS = {
    "sl2_presentation": fixtures.sl2_presentation,
    "kleinian_presentation": lambda: fixtures.kleinian_presentation(3),
    "cyclic_nonjacobi": fixtures.cyclic_nonjacobi,
    "cubic_jacobian": fixtures.cubic_jacobian,
    "coupled_line_example": fixtures.coupled_line_example,
    "invariant_quadric": fixtures.invariant_quadric,
    "product_with_slice": lambda: fixtures.product_with_slice(
        2, 1, ("a", "b"), (1, 0), lambda ctx: {("a", "b"): ctx.var("a")}, order=4
    ),
    "kleinian_product": lambda: fixtures.kleinian_product(1, 2, order=4),
    "standard_presentation": lambda: fixtures.standard_presentation(2, 2, order=5),
}

# Q, Q(i) and Q(zeta_8)
FIELDS = {"Q": None, "Q(i)": CycloField(4), "Q(zeta8)": CycloField(8)}


def _scalar(rng, field):
    if field is None:
        return Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
    return field.element([rng.randrange(-2, 3) for _ in range(field.degree)]) or field.one()


def _random_element(rng, ctx, field, terms=3):
    out = {}
    for _ in range(terms):
        exps = tuple(
            rng.randrange(-1, 2) if v in ctx.invertible else rng.randrange(0, 3)
            for v in ctx.variables
        )
        out[exps] = _scalar(rng, field)
    return TruncatedElement(ctx, out)


def _rescaled(pres, rng, field):
    """The same structure in generators scaled by seeded nonzero scalars
    of the field."""
    if field is None:
        return pres
    ctx = pres.ctx
    scales = {name: field.zeta(rng.randrange(field.order)) * rng.choice((1, 2)) for name in ctx.variables}
    forward = {name: ctx.var(name).scale(c) for name, c in scales.items()}
    inverse = {name: ctx.var(name).scale(c.inverse()) for name, c in scales.items()}
    return CoordinateChange(ctx, forward, inverse).transport(pres)


def _random_table(rng, field, relations):
    """A skew table on four variables (one, w, in no entry) with seeded
    entries, so Jacobi mostly fails, and optionally one relation."""
    ctx = GradedContext(("x", "y", "z", "w"), (1, 1, 1, 1), order=5)
    table = {}
    for a, b in (("x", "y"), ("y", "z"), ("x", "z")):
        if rng.random() < 0.85:
            table[(a, b) if rng.random() < 0.5 else (b, a)] = _random_element(rng, ctx, field, 2)
    rels = (ctx.var("x") * ctx.var("y") - _random_element(rng, ctx, field, 1),) if relations else ()
    return PoissonPresentation(ctx, table, relations=rels)


def _presentations(rng, field):
    cases = [(name, _rescaled(make(), rng, field)) for name, make in BUILDERS.items()]
    for label, source, pairs in (
        ("standard", standard_presentation(2, 2, order=5), [("z1", "z2")]),
        ("kleinian_product", fixtures.kleinian_product(1, 2, order=4), []),
    ):
        _change, scrambled = scramble_presentation(source, pairs, rng.randrange(100))
        cases.append((f"scrambled {label}", _rescaled(scrambled, rng, field)))
    cases.append(("random table", _random_table(rng, field, relations=False)))
    cases.append(("random table with a relation", _random_table(rng, field, relations=True)))
    return cases


def test_builders_cover_every_fixture_presentation():
    others = {
        "sl2_casimir",
        "kleinian_ambient_slice",
        "cyclic_plane_action",
        "pairwise_sign_action",
        "binary_dihedral_action",
        "PLANE_FORM",
        "DOUBLE_PLANE_FORM",
    }
    assert set(BUILDERS) == set(fixtures.__all__) - others


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_brackets_match_the_table_walk(field_name):
    field = FIELDS[field_name]
    rng = random.Random(f"brackets {field_name}")
    for label, pres in _presentations(rng, field):
        ctx = pres.ctx
        for _ in range(6):
            f, g = _random_element(rng, ctx, field), _random_element(rng, ctx, field)
            want = _reference_bracket(pres, f, g)
            assert pres.bracket(f, g) == want, label
            assert pres.bracket_of_gradients(f.gradient(), g.gradient()) == want, label
        for a, name in enumerate(ctx.variables):
            g = _random_element(rng, ctx, field)
            # the generator on the left and on the right
            assert pres.generator_bracket(a, g.gradient()) == _reference_bracket(pres, ctx.var(name), g), label
            assert pres.bracket(g, ctx.var(name)) == _reference_bracket(pres, g, ctx.var(name)), label
            assert pres.bracket(ctx.var(name), g) == _reference_bracket(pres, ctx.var(name), g), label


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_jacobi_matches_the_triple_walk(field_name):
    field = FIELDS[field_name]
    rng = random.Random(f"jacobi {field_name}")
    failing = 0
    for label, pres in _presentations(rng, field):
        for certified_only in (False, True):
            got = pres.check_jacobi(certified_only=certified_only)
            assert got == _reference_jacobi(pres, certified_only=certified_only), label
            failing += bool(got)
    assert failing  # the records themselves are compared, not only emptiness


def test_bracket_edge_cases_match_the_table_walk():
    ctx = GradedContext(("x", "y", "z", "w"), (1, 1, 1, 1), order=5)
    x, y, z, w = (ctx.var(v) for v in ctx.variables)
    pres = PoissonPresentation(
        ctx, {("x", "y"): z, ("z", "y"): x * x, ("x", "z"): ctx.one()}
    )
    cases = [
        # w has an empty row: every bracket with it vanishes
        (w, x * y + z),
        (x * y * z, w),
        # disjoint supports: no entry joins x to w
        (x * x, w * w),
        # (x, y) is reached from both ends: both arguments involve x and y
        (x * y, x + y * y),
        (x * y + z, x * z + y),
        # a generator on the left and on the right
        (y, x * z),
        (x * z, y),
    ]
    for f, g in cases:
        want = _reference_bracket(pres, f, g)
        assert pres.bracket(f, g) == want
    assert pres.bracket(w, x * y + z) == ctx.zero()
    assert pres.generator_bracket(ctx.index("w"), (x * y + z).gradient()) == ctx.zero()
    assert pres.bracket(x * x, w * w) == ctx.zero()
    assert pres.bracket(x * y, x + y * y) == _reference_bracket(pres, x * y, x + y * y) != ctx.zero()


def _count_gradients(monkeypatch):
    taken = []
    gradient = TruncatedElement.gradient

    def counting(self):
        taken.append(self)
        return gradient(self)

    monkeypatch.setattr(TruncatedElement, "gradient", counting)
    return taken


def test_check_jacobi_takes_one_gradient_per_entry(monkeypatch):
    rng = random.Random(3)
    cases = [make() for make in BUILDERS.values()]
    cases.append(scramble_presentation(standard_presentation(2, 2, order=5), [("z1", "z2")], 1)[1])
    cases.append(_random_table(rng, None, relations=True))
    taken = _count_gradients(monkeypatch)
    for pres in cases:
        for certified_only in (False, True):
            taken.clear()
            pres.check_jacobi(certified_only=certified_only)
            entries = sum(1 for a, b in pres.pairs() if pres.entry(a, b))
            assert len(taken) <= entries + len(pres.relations)
