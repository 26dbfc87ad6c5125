"""Generic exact linear algebra over Fraction and cyclotomic scalars."""

import random
from fractions import Fraction

import pytest

from equislice.linalg import Echelon, Span, in_span, rank, relations, solve
from equislice.scalars import CycloField
from reference import (
    _reference_kernel,
    _reference_rank,
    _reference_rref,
    _reference_solve,
)


def test_rank():
    mat = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert rank(mat) == 2


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
        before = _reference_rank(inserted)
        spanned = _reference_rank(inserted + [dense]) == before
        assert echelon.contains(vec) == spanned
        rest = _dense(echelon.reduce(vec), width)
        removed = [x - y for x, y in zip(dense, rest)]
        assert _reference_rank(inserted + [removed]) == before
        assert _reference_rank(inserted + [rest]) == _reference_rank(inserted + [dense])
        new = echelon.insert(vec)
        inserted.append(dense)
        assert new == (_reference_rank(inserted) == before + 1) == (not spanned)
        assert len(echelon) == _reference_rank(inserted)
        # least-key pivots: the stored rows are the canonical RREF
        reduced, pivots = _reference_rref(inserted)
        assert [p for p, _ in echelon.items()] == pivots
        assert [_dense(row, width) for _, row in echelon.items()] == reduced[: len(pivots)]
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


def test_echelon_pivots_on_the_least_key():
    echelon = Echelon()
    echelon.insert({"b": 2, "a": 4, "c": 1})
    echelon.insert({"b": 1, "c": 1})
    assert echelon.items() == [
        ("a", {"a": 1, "c": Fraction(-1, 4)}),
        ("b", {"b": 1, "c": 1}),
    ]


# -- the dense wrappers against the reference ---------------------------------


def _random_matrix(rng, field):
    n, m = rng.randint(0, 5), rng.randint(0, 5)
    density = rng.choice((0.3, 0.7))
    rows = [
        [_random_scalar(rng, field) if rng.random() < density else 0 for _ in range(m)]
        for _ in range(n)
    ]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(n)] = [0] * m
    if m and rng.random() < 0.3:
        c = rng.randrange(m)
        for r in rows:
            r[c] = 0
    if rows and rng.random() < 0.3:
        # a dependent row: a combination of the others
        i = rng.randrange(n)
        rows[i] = [
            sum((_random_scalar(rng, field) * r[j] for r in rows if r is not rows[i]), 0)
            for j in range(m)
        ]
    return rows


@pytest.mark.parametrize("field", [None, CycloField(4)], ids=["Q", "Q(i)"])
@pytest.mark.parametrize("seed", range(8))
def test_wrappers_agree_with_the_reference(field, seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        rows = _random_matrix(rng, field)
        assert rank(rows) == _reference_rank(rows)
        width = len(rows[0]) if rows else 0
        x = [_random_scalar(rng, field) for _ in range(width)]
        consistent = [sum((a * y for a, y in zip(r, x)), 0) for r in rows]
        arbitrary = [_random_scalar(rng, field) for _ in rows]
        for b in (consistent, arbitrary):
            got = solve(rows, b)
            assert got == _reference_solve(rows, b)
            if got is not None:
                assert all(sum((a * y for a, y in zip(r, got)), 0) == v for r, v in zip(rows, b))


def test_wrappers_on_empty_and_zero_inputs():
    assert rank([]) == 0
    assert solve([], []) == [] and solve([], [1]) is None
    assert solve([[], []], [0, 0]) == [] and solve([[], []], [0, 1]) is None
    zero = [[0, 0, 0], [0, 0, 0]]
    assert rank(zero) == 0
    assert solve(zero, [0, 0]) == [0, 0, 0] and solve(zero, [0, 2]) is None


@pytest.mark.parametrize("field", [None, CycloField(4)], ids=["Q", "Q(i)"])
@pytest.mark.parametrize("seed", range(4))
def test_relations_of_sparse_columns(field, seed):
    rng = random.Random(200 + seed)
    for _ in range(10):
        rows = _random_matrix(rng, field)
        if not rows or not rows[0]:
            continue
        width = len(rows[0])
        columns = [{("row", i): r[j] for i, r in enumerate(rows) if r[j]} for j in range(width)]
        # the canonical kernel: its RREF in column order
        kernel = _reference_kernel(rows)
        reduced, pivots = _reference_rref(kernel) if kernel else ([], [])
        assert [_dense(row, width) for row in relations(columns)] == reduced[: len(pivots)]
        # the Span's relations: the kernel basis with a 1 in each free position
        span = Span()
        free = [r for r in map(span.add, columns) if r is not None]
        assert [_dense(row, width) for row in free] == kernel


# -- the augmented elimination against the reference --------------------------


def _random_columns(rng, field, height):
    """Sparse columns keyed by row index, with zero columns and columns
    that combine earlier ones mixed in."""
    columns: list[dict] = []
    for _ in range(rng.randint(0, 7)):
        roll = rng.random()
        if roll < 0.15:
            col = {}
        elif roll < 0.45 and columns:
            col = {}
            for other in rng.sample(columns, min(2, len(columns))):
                c = _random_scalar(rng, field)
                for i, x in other.items():
                    col[i] = col.get(i, 0) + c * x
        else:
            col = _random_sparse(rng, height, field, rng.choice((0.3, 0.7)))
        columns.append(col)
    return columns


@pytest.mark.parametrize("field", [None, CycloField(4), CycloField(8)], ids=["Q", "Q(i)", "Q(z8)"])
@pytest.mark.parametrize("seed", range(6))
def test_span_agrees_with_the_reference(field, seed):
    rng = random.Random(300 + seed)
    for _ in range(15):
        height = rng.randint(1, 6)
        columns = _random_columns(rng, field, height)
        width = len(columns)
        rows = [[col.get(i, 0) for col in columns] for i in range(height)]
        span = Span()
        free, dependent = [], []
        for j, col in enumerate(columns):
            before = _reference_rank([_dense(c, height) for c in columns[:j]])
            relation = span.add(col)
            grew = _reference_rank([_dense(c, height) for c in columns[: j + 1]]) > before
            assert (relation is None) == grew
            if relation is not None:
                # 1 at j, minus j's coefficients on the earlier vectors
                assert max(relation) == j and relation[j] == 1
                total = {}
                for k, c in relation.items():
                    for i, x in columns[k].items():
                        total[i] = total.get(i, 0) + c * x
                assert not any(total.values())
                free.append(_dense(relation, width))
                dependent.append(j)
        # both shapes of the kernel
        kernel = _reference_kernel(rows)
        assert free == kernel
        reduced, pivots = _reference_rref(kernel) if kernel else ([], [])
        assert [_dense(row, width) for row in relations(columns)] == reduced[: len(pivots)]
        # targets in the span and off it
        basis, pivots = _reference_rref([_dense(c, height) for c in columns])
        inside = {}
        for col in columns:
            c = _random_scalar(rng, field)
            for i, x in col.items():
                inside[i] = inside.get(i, 0) + c * x
        for target in (inside, _random_sparse(rng, height, field, 0.6), {}):
            coefficients, residual = span.express(target)
            residue = _dense(target, height)
            for row, p in zip(basis, pivots):
                f = residue[p]
                residue = [x - f * y for x, y in zip(residue, row)]
            assert _dense(residual, height) == residue and all(residual.values())
            solution = _reference_solve(rows, _dense(target, height))
            if residual:
                assert solution is None
            else:
                assert [coefficients.get(j, 0) for j in range(width)] == solution
            # target == residual + the combination, with coefficients only
            # on the vectors independent of the ones before them
            rebuilt = dict(residual)
            for j, c in coefficients.items():
                assert c and j not in dependent
                for i, x in columns[j].items():
                    rebuilt[i] = rebuilt.get(i, 0) + c * x
            assert _dense(rebuilt, height) == _dense(target, height)


def test_span_on_empty_and_zero_vectors():
    span = Span()
    assert span.express({}) == ({}, {})
    assert span.express({"a": 2, "b": 0}) == ({}, {"a": 2})
    assert relations([]) == []
    assert span.add({}) == {0: 1} and span.add({"a": 0}) == {1: 1}
    assert span.add({"a": 1}) is None and span.add({"a": 3}) == {2: -3, 3: 1}
    assert span.express({"a": Fraction(1, 2), "b": 1}) == ({2: Fraction(1, 2)}, {"b": 1})
