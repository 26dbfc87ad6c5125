"""Generic exact linear algebra over Fraction and cyclotomic scalars."""

import random
from fractions import Fraction

import pytest

from equislice.linalg import Echelon, in_span, kernel_basis, rank, rref, solve
from equislice.scalars import CycloField


def test_rref_and_rank():
    mat = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    red, pivots = rref(mat)
    assert pivots == [0, 1]
    assert rank(mat) == 2


def test_kernel_basis_annihilates():
    mat = [[1, 2, 3], [4, 5, 6]]
    for v in kernel_basis(mat):
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat)
    assert len(kernel_basis(mat)) == 1


def test_solve_consistent_and_inconsistent():
    assert solve([[2, 0], [0, 4]], [1, 1]) == [Fraction(1, 2), Fraction(1, 4)]
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_in_span():
    assert in_span([[1, 0, 1], [0, 1, 1]], [1, 1, 2])
    assert not in_span([[1, 0, 1], [0, 1, 1]], [0, 0, 1])
    assert in_span([], [0, 0])
    assert not in_span([], [1])


def test_cyclotomic_elimination():
    f = CycloField(3)
    z = f.zeta()
    # rows are dependent over Q(z): second = z * first
    mat = [[f.one(), z], [z, z * z]]
    assert rank(mat) == 1
    ker = kernel_basis(mat)
    assert len(ker) == 1
    v = ker[0]
    assert all(r[0] * v[0] + r[1] * v[1] == 0 for r in mat)


# -- the incremental sparse echelon against the dense reference ---------------


def _random_scalar(rng, field):
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if field is None or rng.random() < 0.5:
        return c
    return field.element([c, Fraction(rng.randint(-2, 2))])


def _random_sparse(rng, width, field, density):
    return {
        j: _random_scalar(rng, field)
        for j in range(width)
        if rng.random() < density
    }


def _dense(vec, width):
    return [vec.get(j, 0) for j in range(width)]


@pytest.mark.parametrize("field", [None, CycloField(4)], ids=["Q", "Q(i)"])
@pytest.mark.parametrize("seed", range(6))
def test_echelon_agrees_with_dense_elimination(field, seed):
    rng = random.Random(seed)
    width = rng.randint(1, 9)
    echelon = Echelon()
    inserted: list[list] = []
    for _ in range(3 * width):
        vec = _random_sparse(rng, width, field, rng.choice((0.2, 0.5)))
        if inserted and rng.random() < 0.4:
            # a combination of earlier vectors, which must not be new
            vec = {}
            for row in rng.sample(inserted, min(3, len(inserted))):
                c = _random_scalar(rng, field)
                for j, x in enumerate(row):
                    vec[j] = vec.get(j, 0) + c * x
        dense = _dense(vec, width)
        spanned = in_span(inserted, dense)
        assert echelon.contains(vec) == spanned
        rest = echelon.reduce(vec)
        removed = [x - y for x, y in zip(dense, _dense(rest, width))]
        assert in_span(inserted, removed) and in_span(inserted + [dense], _dense(rest, width))
        before = rank(inserted) if inserted else 0
        new = echelon.insert(vec)
        inserted.append(dense)
        assert new == (rank(inserted) == before + 1) == (not spanned)
        assert len(echelon) == rank(inserted)
    # with full row rank every coordinate vector is in the span
    if len(echelon) == width:
        assert all(echelon.contains({j: 1}) for j in range(width))


def test_echelon_zero_vector_and_empty_basis():
    echelon = Echelon()
    assert echelon.contains({}) and echelon.contains({"a": 0})
    assert not echelon.contains({"a": 1})
    assert echelon.reduce({"a": 2, "b": 0}) == {"a": Fraction(2)}
    assert not echelon.insert({})
    assert not echelon.insert({"a": Fraction(0)})
    assert len(echelon) == 0
    assert echelon.insert({"a": 1, "b": 2})
    assert not echelon.insert({"a": Fraction(-1, 2), "b": -1})
    assert echelon.contains({"a": 3, "b": 6}) and not echelon.contains({"b": 1})
