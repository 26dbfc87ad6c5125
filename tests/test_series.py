"""Truncated graded series arithmetic."""

import itertools
import random
from fractions import Fraction

import pytest
from reference import _reference_subs, as_fractions, assert_same_result

from equislice.poisson import PoissonPresentation
from equislice.quantize import differential_family, element_scale, sl2_enveloping
from equislice.scalars import CycloField, Q
from equislice.series import GradedContext, TruncatedElement, _trusted


def make_ctx(order=6):
    return GradedContext(
        variables=("t", "u", "z1", "z2"),
        weights=(1, 0, 1, 0),
        invertible=("t",),
        filtration=("u", "z1", "z2"),
        order=order,
    )


def test_context_integers_must_be_exact():
    for weights, order, what in (((1.5, 1), 6, "weight"), ((True, 1), 6, "weight"),
                                 ((1, 1), 2.5, "order"), ((1, 1), "6", "order")):
        with pytest.raises(ValueError, match=what):
            GradedContext(("x", "y"), weights, order=order)
    ctx = GradedContext(("x", "y"), (Fraction(2), 1), order=Fraction(4))
    assert ctx.weights == (2, 1) and type(ctx.weights[0]) is int
    assert ctx.order == 4 and type(ctx.order) is int


# -- the weight-monomial walk -------------------------------------------------


def random_walk_context(rng):
    """Two to four variables with weights of both signs, some of them
    filtration variables, at most one invertible (of nonzero weight, at
    any position), a truncation order of 1 to 4 and a degree cap of 0 to
    3 or none."""
    names = [f"v{i}" for i in range(rng.randint(2, 4))]
    weights = [rng.randint(-2, 2) for _ in names]
    invertible = []
    if rng.random() < 0.4:
        i = rng.randrange(len(names))
        weights[i] = rng.choice([-2, -1, 1, 2])
        invertible = [names[i]]
    filtration = [v for v in names if v not in invertible and rng.random() < 0.4]
    ctx = GradedContext(names, weights, invertible=invertible, filtration=filtration,
                        order=rng.randint(1, 4))
    return ctx, rng.choice([0, 1, 2, 3, None, None])


def box_walk(ctx, weight, cap):
    """Every exponent tuple of the given weight, found by filtering a box
    of the free (non-invertible) exponents taken lexicographically; None
    when no finite box holds them all."""
    free = [i for i, v in enumerate(ctx.variables) if v not in ctx.invertible]
    inv = [i for i, v in enumerate(ctx.variables) if v in ctx.invertible]
    in_j = [ctx.variables[i] in ctx.filtration for i in free]
    # a positive weight's exponent is at most the weight plus what the
    # negative filtration variables can take back
    room = abs(weight) + sum(
        -ctx.weights[i] * (ctx.order - 1) for i, j in zip(free, in_j) if j and ctx.weights[i] < 0
    )
    box = []
    for i, j in zip(free, in_j):
        if j:
            box.append(range(ctx.order))
        elif cap is not None:
            box.append(range(cap + 1))
        elif ctx.weights[i] > 0 and not inv:
            box.append(range(room + 1))
        else:
            return None
    out = []
    for es in itertools.product(*box):
        if cap is not None and sum(es) > cap:
            continue
        if sum(e for e, j in zip(es, in_j) if j) >= ctx.order:
            continue
        exps = [0] * len(ctx.variables)
        for i, e in zip(free, es):
            exps[i] = e
        rest = weight - ctx.weight_of_exps(exps)
        if inv:
            if rest % ctx.weights[inv[0]]:
                continue
            exps[inv[0]] = rest // ctx.weights[inv[0]]
        elif rest:
            continue
        out.append(tuple(exps))
    return out


def test_weight_monomials_is_the_box_walk_and_ignores_the_variable_order():
    rng = random.Random("weight monomials")
    walked = 0
    for _ in range(300):
        ctx, cap = random_walk_context(rng)
        weight = rng.randint(-3, 3)
        want = box_walk(ctx, weight, cap)
        if want is None:
            with pytest.raises(ValueError, match="degree cap|unbounded"):
                ctx.weight_monomials(weight, cap)
            continue
        got = ctx.weight_monomials(weight, cap)
        assert got == want, (ctx, ctx.filtration, ctx.invertible, weight, cap)
        walked += len(got)
        # permuting the variables permutes every exponent tuple
        perm = rng.sample(range(len(ctx.variables)), len(ctx.variables))
        permuted = GradedContext(
            [ctx.variables[p] for p in perm], [ctx.weights[p] for p in perm],
            invertible=ctx.invertible, filtration=ctx.filtration, order=ctx.order,
        )
        back = set()
        for exps in permuted.weight_monomials(weight, cap):
            original = [0] * len(exps)
            for k, p in enumerate(perm):
                original[p] = exps[k]
            back.add(tuple(original))
        assert back == set(got)
    assert walked > 300


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


def test_substitution_refuses_images_from_another_context():
    ctx = make_ctx()
    f = ctx.parse("t*u + z1^2")
    for other in (make_ctx(order=5), diff_ctx()):
        with pytest.raises(ValueError):
            f.subs({"u": other.var("u")}, ctx)


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


def test_constants_hash_like_the_scalars_they_equal():
    """A zero element hashes as 0 and a constant as its coefficient, so
    equal elements and scalars hash equal and a set keeps one of them;
    a cyclotomic scalar compares with a constant as the others do."""
    rng = random.Random(89)
    ctx = make_ctx()
    assert ctx.one() == 1 and hash(ctx.one()) == hash(1) and len({ctx.one(), 1}) == 1
    assert ctx.zero() == 0 and hash(ctx.zero()) == hash(0) and len({ctx.zero(), 0}) == 1
    for field in (GAUSS, ZETA8):
        for _ in range(12):
            q = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
            z = field.element([q] + [rng.randint(-2, 2) for _ in range(field.degree - 1)])
            scalars = [field.element([q])]
            if q.denominator == 1:
                scalars.append(q.numerator)
            scalars.append(q)
            for value in scalars:
                c = ctx.const(value)
                assert c == value and value == c and hash(c) == hash(value)
                assert c == ctx.const(scalars[0]) and hash(c) == hash(ctx.const(scalars[0]))
            assert len({*scalars, *map(ctx.const, scalars)}) == 1
            c = ctx.const(z)
            assert c == z and z == c and hash(c) == hash(z)
            assert len({c, z, fraction_fed(c)}) == 1
            assert (c == q) is (z == q)
    u = ctx.var("u")
    assert u != 1 and u + 1 != 1 and len({u, u + 1, ctx.one()}) == 3


# -- differential tests of the series core ----------------------------------
#
# Random elements over Q and Q(i), with Laurent variables (t, w) and
# filtration variables (u, z), at a low order so that many products reach
# the truncation boundary.  The references multiply all pairs of terms and
# filter afterwards; they share no code with the series core.

GAUSS = CycloField(4)


def diff_ctx(order=3):
    return GradedContext(
        variables=("t", "u", "z", "w"),
        weights=(1, 0, 1, 2),
        invertible=("t", "w"),
        filtration=("u", "z"),
        order=order,
    )


def _jorder(exps):
    return exps[1] + exps[2]


def _random_coeff(rng, field):
    if field is None:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return field.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2)])


def random_element(ctx, rng, field=None, terms=6, min_jorder=0):
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        j = rng.randint(min_jorder, ctx.order)  # J-order == order is dropped
        u = rng.randint(0, j)
        exps = (rng.randint(-2, 2), u, j - u, rng.randint(-1, 1))
        out[exps] = _random_coeff(rng, field)  # zero coefficients are dropped
    return TruncatedElement(ctx, out)


def random_unit(ctx, rng, field=None):
    lead = ctx.monomial((rng.choice((-2, -1, 1, 2)), 0, 0, rng.randint(-1, 1)), Q(rng.choice((1, -2, 3))))
    if field is not None:
        lead = lead.scale(field.element([1, rng.choice((0, 1))]))
    return lead + random_element(ctx, rng, field, terms=3, min_jorder=1)


def assert_clean(elem):
    """The element invariant: no zero coefficient, no term at or above the
    order, negative exponents only on invertible variables."""
    ctx = elem.ctx
    for exps, c in elem.terms.items():
        assert c
        assert _jorder(exps) < ctx.order
        assert all(e >= 0 or inv for e, inv in zip(exps, (True, False, False, True)))


def _declared_jorder(ctx, exps):
    """The J-order of exps from the names the context declares."""
    return sum(e for name, e in zip(ctx.variables, exps) if name in ctx.filtration)


def naive_product(a, b):
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return TruncatedElement(
        a.ctx, {e: c for e, c in acc.items() if c and _declared_jorder(a.ctx, e) < a.ctx.order}
    )


def naive_power(f, e):
    base = f if e >= 0 else f.invert_unit()
    out = f.ctx.one()
    for _ in range(abs(e)):
        out = naive_product(out, base)
    return out


def naive_subs(f, images, target=None):
    target = target or f.ctx
    acc = {}
    for exps, c in f.terms.items():
        term = target.const(c)
        for name, e in zip(f.ctx.variables, exps):
            term = naive_product(term, naive_power(images.get(name, target.var(name)), e))
        for k, v in term.terms.items():
            acc[k] = acc.get(k, 0) + v
    return TruncatedElement(target, acc)


FIELDS = [None, GAUSS]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(i)"])
def test_product_matches_all_pairs_reference(field):
    rng = random.Random(81)
    for order in (1, 2, 3, 4):
        ctx = diff_ctx(order)
        for _ in range(40):
            a, b = random_element(ctx, rng, field), random_element(ctx, rng, field)
            prod = a * b
            assert prod.terms == naive_product(a, b).terms
            assert_clean(prod)
            for other in (a + b, a - b, -a, a.scale(_random_coeff(rng, field) or Q(1))):
                assert_clean(other)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(i)"])
def test_gradient_matches_partials(field):
    rng = random.Random(82)
    ctx = diff_ctx(3)
    for _ in range(40):
        f = random_element(ctx, rng, field, terms=8)
        grad = f.gradient()
        for i, name in enumerate(ctx.variables):
            assert grad.get(i, ctx.zero()) == f.partial(name)
        for d in grad.values():
            assert d
            assert_clean(d)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(i)"])
def test_powers_match_repeated_products(field):
    rng = random.Random(83)
    ctx = diff_ctx(3)
    for _ in range(12):
        f = random_unit(ctx, rng, field)
        assert naive_product(f, f.invert_unit()) == ctx.one()
        for e in range(-3, 6):
            got = f ** e
            assert got == naive_power(f, e)
            assert_clean(got)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "Q(i)"])
def test_subs_with_shared_powers_matches_fresh_calls(field):
    rng = random.Random(84)
    ctx = diff_ctx(3)
    for _ in range(6):
        images = {
            "t": random_unit(ctx, rng, field),
            "u": random_element(ctx, rng, field, terms=3, min_jorder=1),
            "w": random_unit(ctx, rng, field),
        }
        powers = {}
        for _ in range(4):
            f = random_element(ctx, rng, field)
            shared = f.subs(images, ctx, powers)
            assert shared == f.subs(images, ctx) == naive_subs(f, images)
            assert_clean(shared)
        assert powers


# -- substitution across target contexts ----------------------------------------
#
# subs against the term-by-term reference (every variable raised to its
# power and the powers multiplied) and against naive_subs, from diff_ctx
# into targets with the same names at other truncation orders, with the
# names permuted, and with two more variables.  Images cover a random
# subset of the source variables, some of them given as the identity;
# Laurent variables left unmapped carry negative exponents.

ZETA8 = CycloField(8)
WALK_FIELDS = [None, GAUSS, ZETA8]
WALK_IDS = ["Q", "Q(i)", "Q(zeta8)"]


def permuted_ctx(order=3):
    return GradedContext(
        variables=("w", "z", "t", "u"),
        weights=(2, 1, 1, 0),
        invertible=("t", "w"),
        filtration=("u", "z"),
        order=order,
    )


def wider_ctx(order=3):
    return GradedContext(
        variables=("t", "u", "z", "w", "v", "s"),
        weights=(1, 0, 1, 2, 1, 1),
        invertible=("t", "w", "v"),
        filtration=("u", "z", "s"),
        order=order,
    )


def random_in(ctx, rng, field=None, terms=3, min_jorder=0):
    """A random element of a context whose every variable is invertible
    or in the filtration."""
    filtration = [i for i, name in enumerate(ctx.variables) if name in ctx.filtration]
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        exps = [
            rng.randint(0, 2) if name in ctx.filtration else rng.randint(-2, 2)
            for name in ctx.variables
        ]
        lack = min_jorder - _declared_jorder(ctx, exps)
        if lack > 0:
            exps[rng.choice(filtration)] += lack
        out[tuple(exps)] = _random_coeff(rng, field)
    return TruncatedElement(ctx, out)


def random_unit_in(ctx, rng, field=None):
    lead = [rng.randint(-1, 1) if name in ctx.invertible else 0 for name in ctx.variables]
    return ctx.monomial(lead, walk_coeff(rng, field)) + random_in(ctx, rng, field, min_jorder=1)


def random_images(target, rng, field):
    """Images for a random subset of diff_ctx's variables, in the target:
    units for the Laurent ones, and now and then the identity."""
    images = {}
    for name in ("t", "u", "z", "w"):
        roll = rng.random()
        if roll < 0.4:
            continue
        if roll < 0.55:
            images[name] = target.var(name)
        elif name in ("t", "w"):
            images[name] = random_unit_in(target, rng, field)
        else:
            images[name] = random_in(target, rng, field, min_jorder=1)
    return images


def assert_clean_in(elem):
    ctx = elem.ctx
    for exps, c in elem.terms.items():
        assert c
        assert _declared_jorder(ctx, exps) < ctx.order
        assert all(e >= 0 or name in ctx.invertible for name, e in zip(ctx.variables, exps))


SUBS_TARGETS = {"same names": diff_ctx, "permuted": permuted_ctx, "wider": wider_ctx}


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("make_target", SUBS_TARGETS.values(), ids=SUBS_TARGETS)
@pytest.mark.parametrize("field", WALK_FIELDS, ids=WALK_IDS)
def test_subs_matches_both_references_across_targets(field, make_target, order):
    rng = random.Random(f"subs {make_target.__name__} {order} {field}")
    source, target = diff_ctx(3), make_target(order)
    unmapped_laurent = 0
    for _ in range(6):
        images = random_images(target, rng, field)
        powers, reference_powers = {}, {}
        for _ in range(3):
            f = random_element(source, rng, field, terms=8)
            got = f.subs(images, target, powers)
            assert got.ctx is target
            assert got.terms == _reference_subs(f, images, target, reference_powers).terms
            assert got.terms == naive_subs(f, images, target).terms
            assert got == f.subs(images, target)
            assert_clean_in(got)
            unmapped_laurent += any(
                exps[i] < 0 for exps in f.terms for i, name in ((0, "t"), (3, "w"))
                if name not in images
            )
        # only images are raised to powers; an unmapped variable is a shift
        assert {name for name, _ in powers} <= set(images)
        identity = {name: target.var(name) for name in source.variables}
        assert f.subs(identity, target) == f.subs({}, target) == _reference_subs(f, {}, target)
    assert unmapped_laurent


def raised(call):
    """The type and message of the exception call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("field", WALK_FIELDS, ids=WALK_IDS)
def test_subs_refuses_as_the_reference_does(field):
    """A source variable the target lacks raises KeyError only when a
    term uses it; a negative power of an unmapped variable the target
    cannot invert raises the ValueError of invert_unit; an image from
    another context raises ValueError only when a term uses it."""
    rng = random.Random(f"refusals {field}")
    source = diff_ctx(3)
    w_free = {(0, 0, 0, 0): 1, (1, 1, 0, 0): 2, (-2, 0, 1, 0): 3}
    f = TruncatedElement(source, w_free).scale(walk_coeff(rng, field))
    narrow = GradedContext(("t", "u", "z"), (1, 0, 1), invertible=("t",),
                           filtration=("u", "z"), order=3)
    images = {"u": random_in(narrow, rng, field, min_jorder=1)}
    assert f.subs(images, narrow).terms == _reference_subs(f, images, narrow).terms
    g = f + source.monomial((0, 0, 0, -1), walk_coeff(rng, field))
    expected = (KeyError, str(KeyError("unknown variable 'w'")))
    assert raised(lambda: g.subs(images, narrow)) == expected
    assert raised(lambda: _reference_subs(g, images, narrow)) == expected

    t_plain = GradedContext(("t", "u", "z", "w"), (1, 0, 1, 2), invertible=("w",),
                            filtration=("u", "z"), order=3)
    t_filtered = GradedContext(("t", "u", "z", "w"), (1, 0, 1, 2), invertible=("w",),
                               filtration=("t", "u", "z"), order=3)
    for target in (t_plain, t_filtered):
        positive = TruncatedElement(source, {e: c for e, c in f.terms.items() if e[0] >= 0})
        assert positive.subs({}, target).terms == _reference_subs(positive, {}, target).terms
        assert positive.subs({}, target).terms == naive_subs(positive, {}, target).terms
        got = raised(lambda: f.subs({}, target))
        assert got[0] is ValueError and got[1].startswith("not a unit")
        assert got == raised(lambda: _reference_subs(f, {}, target))

    foreign = {"z": random_in(diff_ctx(4), rng, field, min_jorder=1)}
    z_free = TruncatedElement(source, {e: c for e, c in f.terms.items() if not e[2]})
    assert z_free.subs(foreign, source) == _reference_subs(z_free, foreign, source)
    expected = (ValueError, "an image lives outside the target context")
    assert raised(lambda: f.subs(foreign, source)) == expected
    assert raised(lambda: _reference_subs(f, foreign, source)) == expected


# -- call counts ----------------------------------------------------------------


def count_calls(monkeypatch, cls, name):
    """Record (self, *args) of every call of cls.name."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append((self, *args))
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_low_powers_make_no_spare_products(monkeypatch):
    ctx = make_ctx()
    x = ctx.parse("t + u + z1")
    products = count_calls(monkeypatch, TruncatedElement, "__mul__")
    assert x ** 1 == x and x ** 0 == ctx.one()
    assert products == []
    x ** 2
    assert len(products) == 1
    x ** 5  # x * x^4, with x^2 and x^4 by squaring
    assert len(products) == 1 + 3


def test_subs_inverts_each_image_once(monkeypatch):
    ctx = make_ctx()
    f = ctx.parse("t^-1*u + t^-2 + 3*t^-3*z1 + t^2*z2")
    images = {"t": ctx.parse("t + t*u"), "u": ctx.parse("u + z1")}
    inversions = count_calls(monkeypatch, TruncatedElement, "invert_unit")
    g = f.subs(images)
    assert len(inversions) == 1
    assert g == naive_subs(f, images)


def test_subs_of_unmapped_variables_forms_no_product(monkeypatch):
    """A variable without an image shifts exponents: substituting into
    an element none of whose variables is mapped multiplies nothing and
    raises nothing to a power, in any target."""
    rng = random.Random(90)
    cases = []
    for make_target in SUBS_TARGETS.values():
        target = make_target(3)
        for _ in range(8):
            f = random_element(diff_ctx(3), rng, GAUSS, terms=8)
            images = {"v": target.var("v")} if "v" in target.variables else {}
            cases.append((f, images, target, _reference_subs(f, images, target)))
    products = count_calls(monkeypatch, TruncatedElement, "__mul__")
    powers = count_calls(monkeypatch, TruncatedElement, "__pow__")
    for f, images, target, expected in cases:
        assert f.subs(images, target).terms == expected.terms
    assert products == [] and powers == []


# -- the coefficient rule: ints first, Fractions only from a division ------------
#
# Every operation runs twice: on elements as the constructors build them,
# whose integral coefficients are ints, and on copies whose every rational
# coefficient (inside cyclotomic numbers too) is a Fraction.  The results
# must be equal, hash equal and print the same, and no coefficient
# anywhere may be a float.


def fraction_fed(elem):
    """The element with Fraction coefficients, past the constructors that
    would turn integral ones into ints."""
    return _trusted(elem.ctx, {e: as_fractions(c) for e, c in elem.terms.items()})


def walk_coeff(rng, field):
    """A random nonzero scalar, integral about half the time."""
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    if field is None:
        return c if c.denominator != 1 else c.numerator
    return field.element([c, rng.randint(-1, 1)])


def walk_presentation(ctx, rng, field):
    """A bracket table on the walk context and one relation whose leading
    coefficient is not a unit of the integers."""
    table = {
        ("t", "u"): ctx.var("t").scale(walk_coeff(rng, field)),
        ("t", "z"): ctx.var("t") * ctx.var("u"),
        ("z", "w"): random_element(ctx, rng, field, terms=3, min_jorder=1) * ctx.var("w"),
    }
    relation = ctx.parse("3*u^2 + 2*z*u")
    return table, relation


@pytest.mark.parametrize("field", WALK_FIELDS, ids=WALK_IDS)
def test_every_series_operation_agrees_across_coefficient_types(field):
    rng = random.Random(85)
    ctx = diff_ctx(4)
    for _ in range(10):
        a, b = random_element(ctx, rng, field), random_element(ctx, rng, field)
        unit = random_unit(ctx, rng, field)
        c = walk_coeff(rng, field)
        A, B, UNIT = fraction_fed(a), fraction_fed(b), fraction_fed(unit)
        assert_same_result(a + b, A + B)
        assert_same_result(a - b, A - B)
        assert_same_result(a * b, A * B)
        assert_same_result(a.scale(c), A.scale(as_fractions(c)))
        assert_same_result(a + 2, A + Fraction(2))
        for e in (-2, -1, 2, 3):
            assert_same_result(unit ** e, UNIT ** e)
        assert_same_result(unit.invert_unit(), UNIT.invert_unit())
        for name in ("t", "u"):
            assert_same_result(a.partial(name), A.partial(name))
        assert_same_result(a.gradient(), A.gradient())
        assert_same_result(a.antiderivative("u"), A.antiderivative("u"))
        images = {"t": unit, "u": random_element(ctx, rng, field, terms=3, min_jorder=1)}
        fed = {name: fraction_fed(image) for name, image in images.items()}
        assert_same_result(a.subs(images, ctx), A.subs(fed, ctx))
        table, relation = walk_presentation(ctx, rng, field)
        pres = PoissonPresentation(ctx, table, relations=[relation])
        fed_pres = PoissonPresentation(
            ctx, {k: fraction_fed(v) for k, v in table.items()},
            relations=[fraction_fed(relation)],
        )
        assert_same_result(pres.bracket(a, b), fed_pres.bracket(A, B))
        assert_same_result(pres.reduce(a * b), fed_pres.reduce(A * B))


@pytest.mark.parametrize("make", [
    lambda: sl2_enveloping(order=3),
    lambda: differential_family(2, 1, order=3),
], ids=["U(sl2)", "differential(2,1)"])
def test_hbar_products_agree_across_coefficient_types(make):
    algebra = make()
    rng = random.Random(86)

    def random_hbar_element():
        rows = []
        for _ in range(rng.randint(1, 4)):
            exps = {}
            for name in algebra.names:
                lo = -1 if name in algebra.invertible else 0
                exps[name] = rng.randint(lo, 1)
            rows.append((walk_coeff(rng, None), rng.randint(0, 1), exps))
        return algebra.from_terms(rows)

    for _ in range(12):
        a, b = random_hbar_element(), random_hbar_element()
        A = {k: Fraction(v) for k, v in a.items()}
        B = {k: Fraction(v) for k, v in b.items()}
        assert_same_result(algebra.multiply(a, b), algebra.multiply(A, B))
        assert_same_result(algebra.commutator(a, b), algebra.commutator(A, B))
        assert algebra.render(algebra.multiply(a, b)) == algebra.render(algebra.multiply(A, B))


def test_integral_coefficients_enter_as_ints():
    ctx = diff_ctx(4)
    t = ctx.var("t")
    entered = [
        ctx.one(), t, ctx.const(Fraction(2)), ctx.monomial((1, 0, 0, 0), Fraction(4, 2)),
        t.scale(Fraction(-3)), t + Fraction(3), ctx.parse("4/2*t + 6/3*u - 1/2*z"),
        TruncatedElement(ctx, {(1, 0, 0, 0): Fraction(5)}),
    ]
    for elem in entered:
        assert [c for c in elem.terms.values() if type(c) is Fraction and c.denominator == 1] == []
    assert type(ctx.zero().constant_coefficient()) is int
    assert type(t.coefficient((0, 0, 0, 0))) is int
    assert type(t.invert_unit().coefficient((-1, 0, 0, 0))) is int
    assert str(ctx.parse("4/2*t - 1/2*z")) == "-1/2*z + 2*t"
    gauss_two = ctx.const(GAUSS.element([2]))
    assert len({ctx.const(2), ctx.const(Fraction(2)), gauss_two, fraction_fed(ctx.const(2))}) == 1
    algebra = sl2_enveloping(order=2)
    element = algebra.from_terms([(Fraction(2), 0, {"e": 1}), (Fraction(1, 2), 1, {})])
    assert sorted(map(type, element.values()), key=str) == [Fraction, int]
    assert [type(c) for c in element_scale(algebra.var("h"), Fraction(6, 3)).values()] == [int]


@pytest.mark.parametrize("field", WALK_FIELDS, ids=WALK_IDS)
def test_below_is_the_element_minus_its_tail(field):
    """below(m) keeps the terms of J-order < m, in the order and with the
    coefficients that x - x.jtail(m) leaves, for m at or below zero,
    inside the stored range and at or above the order."""
    rng = random.Random(53)
    for order in (1, 2, 3, 4):
        ctx = diff_ctx(order)
        for _ in range(30):
            x = random_element(ctx, rng, field)
            for m in range(-2, order + 3):
                low, reference = x.below(m), x - x.jtail(m)
                assert low == reference
                assert list(low.terms.items()) == list(reference.terms.items())
                assert_clean(low)
            assert not x.below(0)
            assert x.below(order) == x
