"""Cyclotomic and rational scalar arithmetic."""

from fractions import Fraction

import pytest

from equislice.scalars import CycloField, Q, as_scalar, cyclotomic_polynomial


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
