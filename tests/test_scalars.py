"""Cyclotomic and rational scalar arithmetic."""

import random
from fractions import Fraction

import pytest
from reference import as_fractions, assert_same_result

from equislice.linalg import Echelon, Span, relations, solve
from equislice.scalars import CycloField, CycloNumber, Q, as_scalar, cyclotomic_polynomial


def test_cyclotomic_polynomials_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_relations():
    f = CycloField(5)
    z = f.zeta()
    assert z**5 == 1
    assert z**4 == z ** (-1)
    assert sum(z**i for i in range(5)) == 0


def test_sixth_root_reduction():
    f = CycloField(6)
    z = f.zeta()
    # z^2 = z - 1 since z^2 - z + 1 = 0
    assert z * z == z - 1
    assert z**3 == -1


def test_inverse_and_division():
    f = CycloField(8)
    z = f.zeta()
    x = 2 + 3 * z - z**3
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        f.zero().inverse()


def test_rational_detection_and_hash_compat():
    f = CycloField(4)
    z = f.zeta()
    y = (z * z) + 3  # z^2 = -1, so y = 2
    assert y.is_rational()
    assert y.as_rational() == Fraction(2)
    assert hash(y) == hash(Fraction(2))
    assert y == 2


def test_mixed_arithmetic_with_fractions():
    f = CycloField(3)
    z = f.zeta()
    x = Q(1, 2) + z
    assert 2 * x - 2 * z == 1
    assert (x - z) * 2 == 1


def test_distinct_orders_do_not_mix():
    a = CycloField(3).zeta()
    b = CycloField(4).zeta()
    with pytest.raises(TypeError):
        _ = a + b


def test_as_scalar_passthrough():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar(Fraction(2, 5)) == Fraction(2, 5)
    f = CycloField(5)
    assert as_scalar(f.zeta(), f) == f.zeta()


@pytest.mark.parametrize("order", [4, 8])
def test_inverse_of_rational_and_irrational_elements(order):
    import random

    rng = random.Random(order)
    field = CycloField(order)
    for k in range(40):
        rational = k % 2 == 0
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.degree)]
        if rational:
            coeffs[1:] = [0] * (field.degree - 1)
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        x = field.element(coeffs)
        assert x.is_rational() == (not any(coeffs[1:]))
        inv = x.inverse()
        assert x * inv == 1
        assert inv.is_rational() == x.is_rational()
        assert inv.field is field


# -- the coefficient rule: ints first, Fractions only from a division ------------
#
# The same computation fed int-first inputs and Fraction-typed ones must
# give equal, hash-equal, identically printed results with no float in
# them, over Q, Q(i) and Q(zeta8).

WALK_FIELDS = [CycloField(1), CycloField(4), CycloField(8)]
WALK_IDS = ["Q", "Q(i)", "Q(zeta8)"]


def _walk_number(rng, field):
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(field.degree)]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return field.element(coeffs)


@pytest.mark.parametrize("field", WALK_FIELDS, ids=WALK_IDS)
def test_cyclotomic_operations_agree_across_coefficient_types(field):
    rng = random.Random(field.order)
    for _ in range(30):
        x, y = _walk_number(rng, field), _walk_number(rng, field)
        X, Y = as_fractions(x), as_fractions(y)
        for got, ref in ((x + y, X + Y), (x - y, X - Y), (x * y, X * Y), (-x, -X),
                         (x * 3, X * Fraction(3)), (x ** 3, X ** 3), (x ** -2, X ** -2),
                         (x.inverse(), X.inverse()), (x / y, X / Y), (2 / x, Fraction(2) / X)):
            assert_same_result(got, ref)
        assert all(type(c) is int or c.denominator != 1 for c in x.coeffs)


@pytest.mark.parametrize("field", WALK_FIELDS, ids=WALK_IDS)
def test_elimination_agrees_across_coefficient_types(field):
    rng = random.Random(100 + field.order)
    for _ in range(15):
        vectors = [
            {j: _walk_number(rng, field) if field.degree > 1 else rng.randint(-3, 3)
             for j in rng.sample(range(6), rng.randint(1, 4))}
            for _ in range(rng.randint(1, 6))
        ]
        fed = [{j: as_fractions(c) for j, c in v.items()} for v in vectors]
        ints, fractions = Echelon(), Echelon()
        for v, f in zip(vectors, fed):
            assert ints.insert(v) == fractions.insert(f)
        assert len(ints) == len(fractions)
        for (p, row), (q, ref) in zip(ints.items(), fractions.items()):
            assert p == q
            assert_same_result(row, ref)
        target = {j: rng.randint(-2, 2) for j in range(6)}
        assert_same_result(ints.reduce(target), fractions.reduce({j: Fraction(c) for j, c in target.items()}))
        got, ref = relations(vectors), relations(fed)
        assert len(got) == len(ref)
        for row, ref_row in zip(got, ref):
            assert_same_result(row, ref_row)
        span, span_ref = Span(), Span()
        for v, f in zip(vectors, fed):
            relation, ref_relation = span.add(v), span_ref.add(f)
            assert (relation is None) == (ref_relation is None)
            if relation is not None:
                assert_same_result(relation, ref_relation)
        assert_same_result(
            span.express(target), span_ref.express({j: Fraction(c) for j, c in target.items()})
        )


def test_integral_scalars_are_ints():
    z8 = CycloField(8)
    assert [type(c) for c in z8.element([Fraction(2), Fraction(1, 2)]).coeffs] == [int, Fraction, int, int]
    assert [type(c) for c in (z8.element([Fraction(1, 2)]) * 2).coeffs] == [int] * 4
    assert [type(c) for c in z8.zeta().inverse().coeffs] == [int] * 4
    assert type(CycloField(4).element([Fraction(1, 3)]).inverse().as_rational()) is int
    assert type(as_scalar(Fraction(6, 3))) is int
    echelon = Echelon()
    echelon.insert({0: 1, 1: 4, 2: 3})  # a unit pivot divides nothing
    assert [type(c) for c in echelon.items()[0][1].values()] == [int] * 3
    assert [type(x) for x in solve([[1, 0], [0, 3]], [4, 1])] == [int, Fraction]
    echelon.insert({1: 2, 2: 4, 3: 3})  # a non-unit pivot keeps integral entries ints
    assert echelon.items()[1][1] == {1: 1, 2: 2, 3: Fraction(3, 2)}
    assert [type(c) for c in echelon.items()[1][1].values()] == [int, int, Fraction]
    # clearing the new pivot from an earlier row keeps its integral entries ints
    assert echelon.items()[0][1] == {0: 1, 2: -5, 3: -6}
    assert [type(c) for c in echelon.items()[0][1].values()] == [int] * 3
    x = solve([[2, 0], [0, 3]], [4, 1])
    assert x == [2, Fraction(1, 3)] and type(x[0]) is int
    gauss_two = CycloField(4).element([2])
    assert len({2, Fraction(2), gauss_two}) == 1


# -- products with a rational factor: a scaled vector, no reduction ------------


def _general_product(field, a, b):
    """a * b by the full polynomial product of the coefficient vectors,
    then long division by Phi_n, all in Fraction."""
    va, vb = ([Fraction(c) for c in x.coeffs] if isinstance(x, CycloNumber) else [Fraction(x)] for x in (a, b))
    prod = [Fraction(0)] * (len(va) + len(vb) - 1)
    for i, x in enumerate(va):
        for j, y in enumerate(vb):
            prod[i + j] += x * y
    modulus = cyclotomic_polynomial(field.order)
    d = len(modulus) - 1
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        for j, m in enumerate(modulus):
            prod[i - d + j] -= c * m
    return (prod + [Fraction(0)] * d)[:d]


@pytest.mark.parametrize("order", [1, 3, 4, 5, 8, 12])
def test_rational_factors_scale_without_reduction(order, monkeypatch):
    field = CycloField(order)
    rng = random.Random(order)
    rationals = [0, Fraction(0), field.zero(), 1, -3, Fraction(4, 2), Fraction(-5, 6),
                 field.element([Fraction(7, 3)]), field.element([-2]), field.one()]
    others = [_walk_number(rng, field) for _ in range(6)] + [field.zero(), field.zeta(order - 1)]
    cases = [(x, r) for x in others for r in rationals] + [(r, x) for x in others for r in rationals]
    cases += [(r, s) for r in rationals for s in rationals if isinstance(r, CycloNumber) or isinstance(s, CycloNumber)]
    reductions = []
    reduce = CycloField.reduce

    def counting(self, coeffs):
        reductions.append(coeffs)
        return reduce(self, coeffs)

    for a, b in cases:
        expected = _general_product(field, a, b)
        monkeypatch.setattr(CycloField, "reduce", counting)
        got = a * b
        monkeypatch.setattr(CycloField, "reduce", reduce)
        assert got.field is field
        assert list(got.coeffs) == expected
        # an integral coefficient stays an int
        assert [type(c) for c in got.coeffs] == [int if c.denominator == 1 else Fraction for c in expected]
    assert reductions == []
    # two irrational factors still take the general product
    if field.degree > 1:
        x = field.zeta() + Fraction(1, 2)
        assert list((x * x).coeffs) == _general_product(field, x, x)


def test_scalars_are_dispatched_on_exact_type():
    # a bool is an int subclass and a float is inexact: neither becomes a
    # coefficient, by construction or by arithmetic, on either side
    field = CycloField(4)
    for x in (field.zeta(), field.one(), field.zero()):
        for bad in (True, False, 1.0, 0.5):
            for op in (lambda: x * bad, lambda: bad * x, lambda: x + bad, lambda: bad - x, lambda: x / bad):
                with pytest.raises(TypeError):
                    op()
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            field.element([bad])
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            field.element([1, bad])
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            as_scalar(bad, field)
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            as_scalar(bad)
    assert field.element([1]) == 1 and field.zeta() * 1 == field.zeta()
