"""Truncated graded series arithmetic."""

import random
from fractions import Fraction

import pytest

from equislice.scalars import CycloField, Q
from equislice.series import GradedContext, TruncatedElement


def make_ctx(order=6):
    return GradedContext(
        variables=("t", "u", "z1", "z2"),
        weights=(1, 0, 1, 0),
        invertible=("t",),
        filtration=("u", "z1", "z2"),
        order=order,
    )


def test_truncation_drops_high_jorder():
    ctx = make_ctx(order=4)
    u = ctx.var("u")
    a = 1 + u
    b = 1 - u + u**2 - u**3
    assert a * b == ctx.one()


def test_laurent_inverse_of_unit():
    ctx = make_ctx()
    t, u = ctx.var("t"), ctx.var("u")
    f = t + u
    g = f.invert_unit()
    assert f * g == ctx.one()
    # leading part is t^-1
    assert g.coefficient((-1, 0, 0, 0)) == 1


def test_invert_unit_rejects_non_units():
    ctx = make_ctx()
    with pytest.raises(ValueError):
        ctx.var("u").invert_unit()
    with pytest.raises(ValueError):
        (ctx.var("t") + ctx.var("t", 2)).invert_unit()


def test_invert_unit_random_roundtrip():
    rng = random.Random(2024)
    ctx = make_ctx(order=5)
    names = ctx.variables
    for _ in range(20):
        f = ctx.var("t", rng.choice([-2, -1, 1, 2])) * Q(rng.choice([1, 2, 3, -1]))
        for _ in range(rng.randrange(4)):
            exps = [0, rng.randrange(3), rng.randrange(2), rng.randrange(2)]
            if sum(exps[1:]) == 0:
                exps[1] = 1
            exps[0] = rng.randrange(-1, 2)
            f = f + ctx.monomial(exps, Q(rng.randrange(-3, 4)))
        assert f * f.invert_unit() == ctx.one()


def test_negative_exponent_rules():
    ctx = make_ctx()
    assert ctx.var("t", -3).coefficient((-3, 0, 0, 0)) == 1
    with pytest.raises(ValueError):
        ctx.var("u", -1)


def test_partial_and_antiderivative_are_inverse():
    ctx = make_ctx()
    f = ctx.parse("3*t*u^2 + 1/2*z1*z2 + 5*u")
    g = f.antiderivative("u")
    assert g.partial("u") == f
    # antiderivative has no u-free terms
    assert all(e[1] > 0 for e in g.terms)


def test_antiderivative_rejects_log_terms():
    ctx = make_ctx()
    f = ctx.var("t", -1)
    with pytest.raises(ValueError):
        f.antiderivative("t")


def test_weight_and_jorder():
    ctx = make_ctx()
    f = ctx.parse("t*u + z1")
    assert f.weight() == 1
    assert f.min_jorder() == 1
    assert (f + ctx.one()).weight() is None
    assert ctx.zero().weight() is None


def test_jpart_split():
    ctx = make_ctx()
    f = ctx.parse("1 + u + u^2 + t*z1*z2")
    assert f.jpart(0) == ctx.one()
    assert f.jpart(1) == ctx.var("u")
    assert f.jtail(2) == ctx.parse("u^2 + t*z1*z2")


def test_coefficients_in_variable():
    ctx = make_ctx()
    f = ctx.parse("t + 2*t*u + 3*u^2*z1")
    by_u = f.coefficients_in("u")
    assert sorted(by_u) == [0, 1, 2]
    assert by_u[0] == ctx.var("t")
    assert by_u[1] == 2 * ctx.var("t")
    assert by_u[2] == 3 * ctx.var("z1")


def test_substitution_composes():
    ctx = make_ctx()
    f = ctx.parse("t*u + z1^2")
    images = {"u": ctx.parse("u + z1*z2"), "z1": ctx.parse("z1 + u^2")}
    g = f.subs(images)
    expected = ctx.var("t") * (ctx.parse("u + z1*z2")) + ctx.parse("z1 + u^2") ** 2
    assert g == expected


def test_substitution_with_laurent_target():
    ctx = make_ctx()
    f = ctx.parse("t^-1*u")
    g = f.subs({"t": ctx.parse("t") * (1 + ctx.var("u"))})
    assert g == ctx.var("t", -1) * ctx.var("u") * (1 + ctx.var("u")).invert_unit()


def test_canonical_string_roundtrip():
    ctx = make_ctx()
    samples = [
        "0",
        "1",
        "-1/2",
        "t^-2",
        "1*t + -1/2*u",
        "2*t^3*u*z1^2 + 1/3*z2",
    ]
    for s in samples:
        f = ctx.parse(s)
        assert ctx.parse(str(f)) == f
    rng = random.Random(7)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            exps = (
                rng.randrange(-2, 3),
                rng.randrange(0, 3),
                rng.randrange(0, 2),
                rng.randrange(0, 2),
            )
            terms[exps] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        f = TruncatedElement(ctx, terms)
        assert ctx.parse(str(f)) == f


def test_parser_rejects_unknown_variables():
    ctx = make_ctx()
    with pytest.raises(KeyError):
        ctx.parse("t + w")


def test_context_validation():
    with pytest.raises(ValueError):
        GradedContext(("t", "t"), (1, 1))
    with pytest.raises(ValueError):
        GradedContext(("t",), (1,), invertible=("t",), filtration=("t",))
    with pytest.raises(ValueError):
        GradedContext(("t",), (1, 2))


def test_equal_elements_hash_equal_across_scalar_types():
    ctx = make_ctx()
    gauss = CycloField(4)
    u = ctx.var("u")
    pairs = [
        (ctx.const(Q(2)), ctx.const(gauss.element([2]))),
        (ctx.const(Q(0)), ctx.const(gauss.zero())),
        (u.scale(Q(-1, 3)) + 1, u.scale(gauss.element([Q(-1, 3)])) + gauss.one()),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert ctx.const(Q(2)) != ctx.const(gauss.element([0, 2]))
