"""Finite quotients: group closure, parabolics, reflections, slices."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from reference import (
    _galois_conjugate,
    _reference_compressed_form,
    _reference_intersect,
    _reference_kernel,
    _reference_rref,
    _reference_solve,
    reference_parabolic_subgroups,
)

from equislice import linalg, quotient
from equislice.fixtures import (
    DOUBLE_PLANE_FORM,
    PLANE_FORM,
    binary_dihedral_action,
    cyclic_plane_action,
    pairwise_sign_action,
)
from equislice.linalg import rank
from equislice.quotient import (
    GroupData,
    _contains,
    _coordinates,
    _kernel,
    _reduced_basis,
    close_group,
    leaf_slice_data,
    parabolic_subgroups,
    sra_relation,
    symplectic_reflections,
)
from equislice.scalars import CycloField, CycloNumber, InternalError

BLOCK_GENERATORS = (
    ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
)


G_M12_FORM = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


def _mat_mul(a, b):
    """The dense product: every term of every entry, each sum from the
    integer 0."""
    width = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
              for j in range(width))
        for i in range(len(a))
    )


def _standard_form(n):
    """The form pairing coordinate i of C^n with coordinate i of its dual."""
    return tuple(
        tuple(1 if j == i + n else -1 if i == j + n else 0 for j in range(2 * n))
        for i in range(2 * n)
    )


def _g_m1n_generators(m, n, field):
    """Generators of G(m,1,n) on C^n plus its dual: an m-th root of unity
    on the first coordinate and the swaps of neighbouring coordinates.
    The root is -1 for m = 2, which every field holds, and a power of
    the field's zeta otherwise."""
    one, zero = field.one(), field.zero()
    z = -one if m == 2 else field.zeta() ** (field.order // m)
    d = 2 * n
    scale = {0: z, n: z ** (m - 1)}
    gens = [tuple(
        tuple(scale.get(i, one) if i == j else zero for j in range(d))
        for i in range(d)
    )]
    for k in range(n - 1):
        swap = {k: k + 1, k + 1: k, n + k: n + k + 1, n + k + 1: n + k}
        gens.append(tuple(
            tuple(one if swap.get(i, i) == j else zero for j in range(d))
            for i in range(d)
        ))
    return gens


def _g_m1n(m, n, field=None):
    field = field or CycloField(m)
    return close_group(_g_m1n_generators(m, n, field), _standard_form(n),
                       field=field, cap=512)


def _g_m12(m, field=None):
    return _g_m1n(m, 2, field)


def _binary_dihedral(order):
    n = order // 4
    field = CycloField(2 * n)
    z, one, zero = field.zeta(), field.one(), field.zero()
    rotation = ((z, zero), (zero, z ** (2 * n - 1)))
    swap = ((zero, one), (-one, zero))
    return close_group([rotation, swap], PLANE_FORM, field=field, cap=order)


def _klein_four_on_three_planes():
    """Z/2 x Z/2 on three symplectic planes, each element but the
    identity acting as -1 on two of them: the fixed spaces are the
    planes, so the origin is a meet that no element's fixed space is."""
    field = CycloField(1)
    one, zero = field.one(), field.zero()

    def signs(*planes):
        diagonal = planes + planes
        return tuple(
            tuple(diagonal[i] * one if i == j else zero for j in range(6))
            for i in range(6)
        )

    return close_group([signs(-1, -1, 1), signs(1, -1, -1)], _standard_form(3),
                       field=field)


def _sheared(group, rng):
    """The group conjugated by a seeded symplectic transvection
    x -> x + c omega(v, x) v, which moves its fixed spaces off the
    coordinate planes."""
    field, omega, dim = group.field, group.omega, group.dim
    v = [rng.choice([0, 1, -1]) * field.zeta(rng.randrange(field.order))
         for _ in range(dim)]
    u = [sum((v[i] * omega[i][j] for i in range(dim)), start=field.zero())
         for j in range(dim)]
    c = rng.choice([-2, -1, 1, 2])

    def transvection(c):
        return tuple(
            tuple(int(r == j) + c * v[r] * u[j] for j in range(dim))
            for r in range(dim)
        )

    forward, back = transvection(c), transvection(-c)
    gens = [quotient._mat_mul(quotient._mat_mul(forward, group.element(i)), back)
            for i in group.generators]
    return close_group(gens, omega, field=field, cap=group.order)


@pytest.fixture(scope="module")
def all_groups():
    """The fixture groups, G(m,1,2) for m = 2, 3, 4 and the binary
    dihedral groups of order 12 and 24."""
    return [cyclic_plane_action(n) for n in (1, 2, 3, 4)] + [
        pairwise_sign_action(), binary_dihedral_action(),
        _g_m12(2), _g_m12(3), _g_m12(4),
        _binary_dihedral(12), _binary_dihedral(24),
    ]


def _record_by_dim(group, dim):
    recs = [r for r in parabolic_subgroups(group) if r.leaf_dim == dim]
    assert len(recs) == 1
    return recs[0]


# -- group closure -------------------------------------------------------------


def test_close_group_orders():
    assert cyclic_plane_action(1).order == 1
    assert cyclic_plane_action(2).order == 2
    assert cyclic_plane_action(3).order == 3
    assert pairwise_sign_action().order == 4
    assert binary_dihedral_action().order == 8


def test_close_group_contains_inverses_and_identity():
    group = binary_dihedral_action()
    assert group.element(group.identity) == tuple(
        tuple(group.field.one() if i == j else group.field.zero()
              for j in range(2))
        for i in range(2)
    )
    for i in range(group.order):
        assert group.multiply(i, group.inverse(i)) == group.identity


def test_close_group_rejects_nonsymplectic_generator():
    with pytest.raises(ValueError, match="does not preserve"):
        close_group([[[2, 0], [0, 1]]], PLANE_FORM)


def test_close_group_rejects_bad_forms():
    with pytest.raises(ValueError, match="nondegenerate"):
        close_group([], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="skew"):
        close_group([], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="even"):
        close_group([], [[0]])


def test_close_group_cap_guards_infinite_closure():
    # diag(2, 1/2) is symplectic but of infinite order
    gen = [[Fraction(2), 0], [0, Fraction(1, 2)]]
    with pytest.raises(ValueError, match="exceeded"):
        close_group([gen], PLANE_FORM, cap=64)


def test_conjugacy_classes():
    z2 = cyclic_plane_action(2)
    assert z2.classes == ((0,), (1,))
    sizes = sorted(len(c) for c in binary_dihedral_action().classes)
    assert sizes == [1, 1, 2, 2, 2]


def test_cayley_table_matches_matrix_products(all_groups):
    for group in all_groups:
        n = group.order
        for i in range(n):
            for j in range(n):
                product = _mat_mul(group.element(i), group.element(j))
                assert group.multiply(i, j) == group.index(product)
            assert group.multiply(i, group.inverse(i)) == group.identity


def test_conjugacy_classes_match_conjugation_by_matrices(all_groups):
    for group in all_groups:
        one = group.element(group.identity)
        gens = [group.element(k) for k in group.generators]
        inverses = []
        for s in gens:
            power = s
            while _mat_mul(power, s) != one:
                power = _mat_mul(power, s)
            inverses.append(power)
        classes = set()
        for i in range(group.order):
            orbit = {group.element(i)}
            frontier = list(orbit)
            while frontier:
                g = frontier.pop()
                for s, s_inv in zip(gens, inverses):
                    h = _mat_mul(_mat_mul(s, g), s_inv)
                    if h not in orbit:
                        orbit.add(h)
                        frontier.append(h)
            classes.add(tuple(sorted(group.index(h) for h in orbit)))
        assert group.classes == tuple(sorted(classes))


def test_group_data_closes_its_generators():
    four = cyclic_plane_action(4)
    gens = [four.element(k) for k in four.generators]
    assert GroupData(four.field, PLANE_FORM, gens).as_json() == four.as_json()


def test_closure_forms_each_product_once(monkeypatch):
    """One product per element and generator, plus the two products of
    each generator's form check: |G|*s + 2s matrix products in all."""
    field = CycloField(3)
    gens = _g_m1n_generators(3, 2, field)
    calls = []
    product = quotient._mat_mul

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(quotient, "_mat_mul", counted)
    group = close_group(gens, G_M12_FORM, field=field, cap=64)
    assert group.order == 18
    assert len(calls) == 18 * 2 + 2 * 2 == 40


def test_closure_edge_cases():
    rot = cyclic_plane_action(3)
    field, gen = rot.field, rot.element(rot.generators[0])
    one = rot.element(rot.identity)

    def table(group):
        return [[group.multiply(i, j) for j in range(group.order)]
                for i in range(group.order)]

    with_one = close_group([one, gen], PLANE_FORM, field=field)
    assert with_one.elements == rot.elements
    assert with_one.generators == (0, rot.generators[0])
    assert table(with_one) == table(rot)
    twice = close_group([gen, gen], PLANE_FORM, field=field)
    assert twice.elements == rot.elements
    assert twice.generators == rot.generators * 2
    assert table(twice) == table(rot)
    trivial = close_group([], PLANE_FORM, field=field)
    assert trivial.order == 1 and trivial.generators == ()
    assert trivial.classes == ((0,),)
    assert trivial.multiply(0, 0) == trivial.inverse(0) == trivial.identity
    group = _binary_dihedral(12)
    gens = [group.element(k) for k in group.generators]
    exact = close_group(gens, PLANE_FORM, field=group.field, cap=12)
    assert exact.as_json() == group.as_json()
    with pytest.raises(ValueError, match="exceeded 11 elements"):
        close_group(gens, PLANE_FORM, field=group.field, cap=11)


def test_groups_agree_over_a_larger_field():
    """The same matrices closed over a field and over an extension give
    the same element order, classes, parabolics and reflections."""
    g212 = [
        ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1)),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    ]

    def summary(group):
        return (
            group.classes,
            [(r.subgroup, r.leaf_dim, len(r.normalizer))
             for r in parabolic_subgroups(group)],
            symplectic_reflections(group).reflections,
        )

    for gens, omega in ((BLOCK_GENERATORS, DOUBLE_PLANE_FORM),
                        (g212, G_M12_FORM)):
        small = close_group(gens, omega, field=CycloField(1))
        large = close_group(gens, omega, field=CycloField(4))
        assert small.as_json()["elements"] == large.as_json()["elements"]
        assert summary(small) == summary(large)
    assert summary(_g_m12(4)) == summary(_g_m12(4, CycloField(8)))


def test_close_group_refuses_generators_from_two_cyclotomic_fields():
    qi, q8 = CycloField(4), CycloField(8)
    rotation_i = ((qi.zeta(), qi.zero()), (qi.zero(), qi.zeta(3)))
    rotation_8 = ((q8.zeta(), q8.zero()), (q8.zero(), q8.zeta(7)))
    # the field is that of the first cyclotomic entry, whichever
    # generator comes first, and no embedding between fields is implied
    with pytest.raises(ValueError, match="order 8 does not lie in the field of cyclotomic order 4"):
        close_group([rotation_i, rotation_8], PLANE_FORM)
    with pytest.raises(ValueError, match="order 4 does not lie in the field of cyclotomic order 8"):
        close_group([rotation_8, rotation_i], PLANE_FORM)
    group = close_group([rotation_i], PLANE_FORM)
    assert group.field is qi and group.order == 4
    with pytest.raises(ValueError, match="order 8 does not lie in the field of cyclotomic order 4"):
        leaf_slice_data(group, _record_by_dim(group, 2), [q8.zeta(), 0])


def test_g412_order_reflections_and_parabolics():
    group = _g_m12(4)
    assert group.order == 32
    assert len(symplectic_reflections(group).reflections) == 10
    records = parabolic_subgroups(group)
    assert len(records) == 8
    assert sorted(r.leaf_dim for r in records) == [0] + [2] * 6 + [4]


# -- subspace helpers against the dense reference ------------------------------


FIELDS = [CycloField(1), CycloField(4), CycloField(8)]
FIELD_IDS = ["Q", "Q(i)", "Q(z8)"]


def _random_scalar(rng, field):
    if rng.random() < 0.4:
        return field.zero()
    return field.element([
        Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for _ in range(rng.randint(1, field.degree))
    ])


def _random_span(rng, field, dim):
    """A spanning set: empty (the zero space), the coordinate basis (the
    whole space), or random vectors with dependent combinations mixed in."""
    kind = rng.random()
    if kind < 0.15:
        return []
    if kind < 0.3:
        return [
            tuple(field.one() if i == j else field.zero() for j in range(dim))
            for i in range(dim)
        ]
    vectors = [
        tuple(_random_scalar(rng, field) for _ in range(dim))
        for _ in range(rng.randint(1, dim))
    ]
    if rng.random() < 0.5:
        a, b = _random_scalar(rng, field), _random_scalar(rng, field)
        vectors.append(
            tuple(a * x + b * y for x, y in zip(vectors[0], vectors[-1]))
        )
    rng.shuffle(vectors)
    return vectors


def _reference_basis(vectors):
    """The nonzero rows of the reference RREF."""
    reduced, pivots = _reference_rref([list(v) for v in vectors])
    return reduced[: len(pivots)]


def _whole(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def _rows(basis):
    return [list(v) for v in basis]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_intersect_and_reduced_basis_agree_with_the_reference(field, seed):
    # the Zassenhaus meet is the reference: the closure meets spans as
    # row unions of their annihilators
    rng = random.Random(300 + seed)
    for _ in range(12):
        dim = rng.randint(1, 5)
        a, b = _random_span(rng, field, dim), _random_span(rng, field, dim)
        assert _rows(_reduced_basis(field, a)) == _reference_basis(a)
        # the intersection is the kernel of both spans' annihilators
        constraints = [
            row for span in (a, b)
            for row in (_reference_kernel(span) if span else _whole(dim))
        ]
        meet = _reference_kernel(constraints) if constraints else _whole(dim)
        got = _reference_intersect(
            field, _reduced_basis(field, a), _reduced_basis(field, b), dim
        )
        assert _rows(got) == _reference_basis(meet)
        assert _rows(_reference_intersect(field, a, b, dim)) == _rows(got)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_kernel_agrees_with_the_reference(field, seed):
    rng = random.Random(400 + seed)
    for _ in range(12):
        dim = rng.randint(1, 5)
        rows = _random_span(rng, field, dim)
        expected = _reference_basis(_reference_kernel(rows)) if rows else _whole(dim)
        assert _rows(_kernel(field, rows, dim)) == expected


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_coordinates_agree_with_the_reference(field, seed):
    rng = random.Random(500 + seed)
    for _ in range(12):
        dim = rng.randint(1, 5)
        basis = []
        for v in _random_span(rng, field, dim):
            if len(_reference_basis(basis + [v])) > len(basis):
                basis.append(v)
        inside = []
        for _ in range(3):
            coeffs = [_random_scalar(rng, field) for _ in basis]
            inside.append(tuple(
                sum((c * v[i] for c, v in zip(coeffs, basis)),
                    start=field.zero())
                for i in range(dim)
            ))
        anywhere = [
            tuple(_random_scalar(rng, field) for _ in range(dim))
            for _ in range(3)
        ]
        targets = inside + anywhere + [(field.zero(),) * dim]
        columns = [[v[i] for v in basis] for i in range(dim)]
        got = _coordinates(basis, targets)
        assert len(got) == len(targets)
        for w, coords in zip(targets, got):
            expected = _reference_solve(columns, list(w))
            assert coords == expected
        assert _contains(basis, targets) == (None not in got)
        assert None not in got[: len(inside)]


def test_fixed_spaces_agree_with_the_reference(all_groups):
    for group in all_groups:
        for i in range(group.order):
            g = group.element(i)
            moved = [
                [g[r][c] - (1 if r == c else 0) for c in range(group.dim)]
                for r in range(group.dim)
            ]
            assert _rows(group.fixed_space(i)) == _reference_basis(
                _reference_kernel(moved)
            )


def test_g412_closure_meets_each_space_once_per_class_and_solves_nothing(monkeypatch):
    group = _g_m12(4)
    classes = {group.annihilator(i) for i in range(group.order)}
    assert len(classes) == 8
    meets = []
    reduced = quotient._reduced_basis

    def counted(field, vectors):
        meets.append(reduced(field, vectors))
        return meets[-1]

    def refused(basis, vectors):
        raise AssertionError("the closure solved for coordinates")

    # the annihilators are cached, so every reduction now is a meet
    monkeypatch.setattr(quotient, "_reduced_basis", counted)
    monkeypatch.setattr(quotient, "_coordinates", refused)
    records = parabolic_subgroups(group)
    lattice = {()} | set(meets)
    assert len(records) == len(lattice) == 8
    # each lattice space is met with each class of elements sharing an
    # annihilator once, and the stabilizers come from the same meets
    assert len(meets) <= len(classes) * len(lattice) == 64


# -- parabolic subgroups -------------------------------------------------------


# (m, field, Galois exponent or None) of the G(m,1,2) in the differential
# test: every m from 2 to 4 over each of Q, Q(i) and Q(zeta_8) that holds
# it, with G(3,1,2) over its own field, and a Galois conjugate over each
# field but Q.  G(2,1,2) over Q(i) adds nothing that G(4,1,2) over Q(i)
# does not, and the conjugate of G(4,1,2) over Q(zeta_8) would double the
# slowest case.
DIFFERENTIAL_CASES = (
    (2, CycloField(1), None), (2, CycloField(8), 5),
    (3, CycloField(3), 2),
    (4, CycloField(4), 3), (4, CycloField(8), None),
)


def _differential_groups():
    """The DIFFERENTIAL_CASES, each conjugated by a seeded transvection,
    then each Galois conjugate asked for, G(2,1,3) and the Klein four
    group on three planes, whose lattice is deeper than one meet."""
    rng = random.Random(2900)
    groups = {}
    for m, field, k in DIFFERENTIAL_CASES:
        group = _sheared(_g_m12(m, field), rng)
        name = f"G({m},1,2) over Q(z{field.order})"
        groups[name] = group
        if k is not None:
            omega, conjugate = _galois_conjugate(
                group.omega, [group.element(i) for i in group.generators], k)
            groups[f"{name}, z -> z^{k}"] = close_group(
                conjugate, omega, field=field, cap=group.order)
    groups["G(2,1,3) over Q"] = _sheared(_g_m1n(2, 3), rng)
    groups["Klein four on three planes"] = _sheared(_klein_four_on_three_planes(), rng)
    return groups


def test_closure_agrees_with_the_zassenhaus_reference():
    groups = _differential_groups()
    assert len(groups) == 10
    for name, group in groups.items():
        records = parabolic_subgroups(group)
        reference = reference_parabolic_subgroups(group)
        assert [r.subgroup for r in records] == [e["subgroup"] for e in reference], name
        assert [r.leaf_dim for r in records] == [len(e["fixed_basis"]) for e in reference], name
        assert [r.fixed_basis for r in records] == [e["fixed_basis"] for e in reference], name
        assert [r.perp_basis for r in records] == [e["perp_basis"] for e in reference], name
        assert [r.as_json() for r in records] == [e["json"] for e in reference], name


def test_fixed_dimension_is_the_trace_average(all_groups):
    # dim Fix(P) = (1/|P|) sum of tr(p) over p in P, with no elimination
    checked = 0
    for group in all_groups + [_g_m1n(2, 3), _g_m1n(3, 3), _klein_four_on_three_planes()]:
        for record in parabolic_subgroups(group):
            trace_sum = sum(
                (group.element(i)[r][r] for i in record.subgroup for r in range(group.dim)),
                start=group.field.zero(),
            )
            assert trace_sum == record.leaf_dim * len(record.subgroup)
            checked += 1
    assert checked == 102


def test_parabolic_counts():
    assert len(parabolic_subgroups(cyclic_plane_action(2))) == 2
    assert len(parabolic_subgroups(cyclic_plane_action(3))) == 2
    assert len(parabolic_subgroups(pairwise_sign_action())) == 4
    assert len(parabolic_subgroups(binary_dihedral_action())) == 2


def test_a_meet_of_fixed_spaces_that_no_element_fixes_is_a_leaf():
    group = _klein_four_on_three_planes()
    assert all(len(group.annihilator(i)) < 6 for i in range(group.order))
    records = parabolic_subgroups(group)
    assert [(len(r.subgroup), r.leaf_dim) for r in records] == [
        (1, 6), (2, 2), (2, 2), (2, 2), (4, 0)
    ]


def test_parabolic_records_of_plane_involution():
    open_leaf, vertex = parabolic_subgroups(cyclic_plane_action(2))
    assert open_leaf.subgroup == (0,)
    assert open_leaf.leaf_dim == 2
    assert open_leaf.residual_order == 2
    assert open_leaf.perp_basis == ()
    assert vertex.subgroup == (0, 1)
    assert vertex.leaf_dim == 0
    assert vertex.fixed_basis == ()
    assert vertex.residual_order == 1


def test_klein_four_parabolics_exclude_the_diagonal():
    group = pairwise_sign_action()
    minus = group.index(
        tuple(
            tuple(-group.field.one() if i == j else group.field.zero()
                  for j in range(4))
            for i in range(4)
        )
    )
    subgroups = [r.subgroup for r in parabolic_subgroups(group)]
    # the diagonal sign subgroup fixes only the origin, so it stabilizes
    # no point that a larger subgroup does not already stabilize
    assert (group.identity, minus) not in subgroups
    assert sorted(len(s) for s in subgroups) == [1, 2, 2, 4]


def test_klein_four_fixed_and_perp_spaces():
    group = pairwise_sign_action()
    mid = next(
        r for r in parabolic_subgroups(group)
        if r.leaf_dim == 2 and 1 in r.subgroup
    )
    assert mid.fixed_basis == ((0, 0, 1, 0), (0, 0, 0, 1))
    assert mid.perp_basis == ((1, 0, 0, 0), (0, 1, 0, 0))
    together = [list(v) for v in mid.fixed_basis + mid.perp_basis]
    assert rank(together) == 4


def test_parabolic_count_invariant_under_symplectic_conjugation():
    # transvection along e1+e3 mixes the two planes
    shear = ((1, -1, 0, -1), (0, 1, 0, 0), (0, -1, 1, -1), (0, 0, 0, 1))
    unshear = ((1, 1, 0, 1), (0, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 1))
    assert _mat_mul(shear, unshear) == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    conjugated = [
        _mat_mul(_mat_mul(shear, g), unshear) for g in BLOCK_GENERATORS
    ]
    assert conjugated[0] != BLOCK_GENERATORS[0]
    base = parabolic_subgroups(pairwise_sign_action())
    moved = parabolic_subgroups(close_group(conjugated, DOUBLE_PLANE_FORM))
    assert len(base) == len(moved)
    assert [r.leaf_dim for r in base] == [r.leaf_dim for r in moved]
    assert [r.residual_order for r in base] == [r.residual_order for r in moved]


# -- symplectic reflections ----------------------------------------------------


def test_plane_involution_reflection_is_minus_identity():
    group = cyclic_plane_action(2)
    sra = symplectic_reflections(group)
    assert sra.reflections == (1,)
    assert sra.classes == ((1,),)
    assert sra.params == ("hbar", "c1")
    assert sra.omega_s[1] == PLANE_FORM


def test_cyclic_reflection_counts():
    for n in (2, 3, 5):
        sra = symplectic_reflections(cyclic_plane_action(n))
        assert len(sra.reflections) == n - 1
        assert all(len(c) == 1 for c in sra.classes)
        assert len(sra.classes) == n - 1


def test_klein_four_reflection_pairings():
    group = pairwise_sign_action()
    sra = symplectic_reflections(group)
    assert sra.reflections == (1, 2)
    first = group.index(
        tuple(
            tuple(group.field.element([v]) for v in row)
            for row in BLOCK_GENERATORS[0]
        )
    )
    assert first == 1
    assert sra.omega_s[1] == (
        (0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
    )
    assert sra.omega_s[2] == (
        (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0),
    )


def test_reflection_moved_ranks_sum():
    group = binary_dihedral_action()
    sra = symplectic_reflections(group)
    assert len(sra.reflections) == 7
    assert len(sra.classes) == 4
    total = 0
    for s in sra.reflections:
        g = group.element(s)
        moved = [
            [g[r][c] - (1 if r == c else 0) for c in range(2)]
            for r in range(2)
        ]
        total += rank(moved)
    assert total == 2 * len(sra.reflections)


def test_compressed_forms_are_skew_and_kill_the_fixed_space():
    for group in (pairwise_sign_action(), binary_dihedral_action()):
        sra = symplectic_reflections(group)
        for s in sra.reflections:
            m = sra.omega_s[s]
            assert all(
                m[i][j] == -m[j][i]
                for i in range(group.dim) for j in range(group.dim)
            )
            for w in group.fixed_space(s):
                assert all(
                    not sum(m[i][j] * w[j] for j in range(group.dim))
                    for i in range(group.dim)
                )


def _embedded(x, field):
    """A scalar of a subfield Q(zeta_n) of Q(zeta_N) written in
    Q(zeta_N): zeta_n -> zeta_N^(N/n)."""
    step = field.order // x.field.order
    return sum((c * field.zeta(i * step) for i, c in enumerate(x.coeffs) if c), start=field.zero())


def _over_fields(group):
    """The group closed over its own field and over each of Q, Q(i) and
    Q(zeta_8) that contains it, from the same generating matrices."""
    out = [group]
    for field in FIELDS:
        if field is not group.field and field.order % group.field.order == 0:
            gens = [
                tuple(tuple(_embedded(x, field) for x in row) for row in group.element(i))
                for i in group.generators
            ]
            omega = tuple(tuple(_embedded(x, field) for x in row) for row in group.omega)
            out.append(close_group(gens, omega, field=field, cap=group.order))
    return out


def test_compressed_forms_agree_with_the_projection(all_groups):
    # the closed form equals the projection onto the moved plane along
    # the fixed space, over every fixture group and every field among Q,
    # Q(i) and Q(zeta_8) that holds it
    groups = [g for group in all_groups for g in _over_fields(group)]
    assert len(groups) == 22
    assert {g.field.order for g in groups} >= {1, 4, 8}
    for group in groups:
        sra = symplectic_reflections(group)
        for s in sra.reflections:
            assert sra.omega_s[s] == _reference_compressed_form(group, s)
            assert quotient._matrix_json(sra.omega_s[s]) == quotient._matrix_json(
                _reference_compressed_form(group, s))


def test_reflection_data_builds_no_span(monkeypatch, all_groups):
    # with the annihilators in hand, the pairings solve nothing
    built = []
    span = linalg.Span.__init__

    def counting(self, vectors=()):
        built.append(self)
        span(self, vectors)

    reflections = 0
    for group in all_groups:
        for i in range(group.order):
            group.annihilator(i)
        monkeypatch.setattr(linalg.Span, "__init__", counting)
        reflections += len(symplectic_reflections(group).reflections)
        monkeypatch.setattr(linalg.Span, "__init__", span)
    assert reflections > 50 and built == []


def test_a_reflection_whose_moved_columns_never_pair_is_an_internal_error(monkeypatch):
    group = pairwise_sign_action()
    zero = group.field.zero()
    monkeypatch.setattr(quotient, "_pairing", lambda omega, x, y: zero)
    with pytest.raises(InternalError, match="must split the space"):
        symplectic_reflections(group)


# -- leaf slice data -----------------------------------------------------------


def test_klein_four_middle_leaf_slice():
    group = pairwise_sign_action()
    mid = next(
        r for r in parabolic_subgroups(group)
        if r.leaf_dim == 2 and 1 in r.subgroup
    )
    data = leaf_slice_data(group, mid, [0, 0, 1, 2])
    assert data["leaf_dim"] == 2
    assert data["subgroup_order"] == 2
    assert data["normalizer_order"] == 4
    assert data["residual_order"] == 2
    assert data["conic_weight"] == 2
    assert data["line_stabilizer_order"] == 2
    assert data["slice_dim"] == 2
    assert data["slice_group_order"] == 2
    assert data["slice_group"] == [
        [["1", "0"], ["0", "1"]],
        [["-1", "0"], ["0", "-1"]],
    ]
    assert data["slice_form"] == [["0", "1"], ["-1", "0"]]


def test_cyclic_open_leaf_conic_weights():
    z3 = cyclic_plane_action(3)
    d3 = leaf_slice_data(z3, _record_by_dim(z3, 2), [1, 5])
    assert d3["conic_weight"] == 1
    assert d3["line_stabilizer_order"] == 1
    assert d3["residual_order"] == 3

    z2 = cyclic_plane_action(2)
    d2 = leaf_slice_data(z2, _record_by_dim(z2, 2), [1, 3])
    assert d2["conic_weight"] == 2
    assert d2["line_stabilizer_order"] == 2
    # an open leaf has a zero-dimensional slice and an empty slice form
    assert d2["slice_dim"] == d3["slice_dim"] == 0
    assert d2["slice_form"] == d3["slice_form"] == []


def test_lagrangian_cover_flag():
    z2 = cyclic_plane_action(2)
    d2 = leaf_slice_data(
        z2, _record_by_dim(z2, 2), [1, 0], lagrangian=[[1, 0]]
    )
    assert d2["cotangent_cover"] is True
    bd = binary_dihedral_action()
    db = leaf_slice_data(
        bd, _record_by_dim(bd, 2), [1, 0], lagrangian=[[1, 0]]
    )
    # the swap generator moves the first axis off itself
    assert db["cotangent_cover"] is False
    plain = leaf_slice_data(bd, _record_by_dim(bd, 2), [1, 0])
    assert "cotangent_cover" not in plain


def test_leaf_slice_rejects_bad_base_points():
    z2 = cyclic_plane_action(2)
    vertex = _record_by_dim(z2, 0)
    with pytest.raises(ValueError, match="nonzero"):
        leaf_slice_data(z2, vertex, [0, 0])
    # only zero is fixed by everything, so the vertex has no base point
    with pytest.raises(ValueError, match="stabilizer of order 1"):
        leaf_slice_data(z2, vertex, [1, 0])
    with pytest.raises(ValueError, match="one entry per dimension"):
        leaf_slice_data(z2, _record_by_dim(z2, 2), [1, 0, 0])


def test_open_leaf_line_order_counts_scalar_rescalings():
    bd = binary_dihedral_action()
    data = leaf_slice_data(bd, _record_by_dim(bd, 2), [1, 0])
    # diag(i, -i) and its powers rescale the first axis by all of <i>
    assert data["line_stabilizer_order"] == 4
    assert data["conic_weight"] == 2


def _generating_set(group, subgroup):
    """Elements of a subgroup, each outside the subgroup generated by
    those before it, read off the Cayley table."""
    gens, reached = [], {group.identity}
    for i in subgroup:
        if i in reached:
            continue
        gens.append(i)
        frontier = list(reached)
        while frontier:
            products = {group.multiply(x, g) for x in frontier for g in gens}
            frontier = list(products - reached)
            reached |= products
    return gens


def _slice_group(group, record):
    """The parabolic restricted to its symplectic complement, with the
    form restricted there, closed as a group of its own; and the element
    of `group` that each restricted matrix comes from (the restriction
    is faithful, since the parabolic fixes the rest)."""
    perp = record.perp_basis
    restricted = {i: quotient._restrict(group, i, perp) for i in record.subgroup}
    origin = {m: i for i, m in restricted.items()}
    assert len(origin) == len(restricted)
    gens = [restricted[i] for i in _generating_set(group, record.subgroup)]
    form = quotient._mat_mul(quotient._mat_mul(perp, group.omega), quotient._transpose(perp))
    return GroupData(group.field, form, gens, cap=len(origin)), origin


def test_slice_parabolics_are_the_parabolics_inside_the_leaf_parabolic():
    """The parabolics of the slice group of P, mapped back to G, are the
    parabolics Q of G inside P, and the leaf of Q is that of P plus the
    slice's own: V = Fix(P) + perp, and a point u + w is fixed by an
    element of P exactly when w is."""
    rng = random.Random(2901)
    groups = [_sheared(_g_m12(m), rng) for m in (2, 3, 4)]
    groups.append(_sheared(_g_m1n(2, 3), rng))
    slices = 0
    for group in groups:
        records = parabolic_subgroups(group)
        for record in records:
            if not record.perp_basis:
                continue
            sub, origin = _slice_group(group, record)
            assert sub.order == len(record.subgroup)
            got = {
                tuple(sorted(origin[sub.element(j)] for j in q.subgroup)):
                    q.leaf_dim + record.leaf_dim
                for q in parabolic_subgroups(sub)
            }
            inside = set(record.subgroup)
            assert got == {
                q.subgroup: q.leaf_dim for q in records if set(q.subgroup) <= inside
            }, (group, record.subgroup)
            slices += 1
    assert slices == 5 + 6 + 7 + 23


# -- deformation commutators ---------------------------------------------------


def test_trivial_group_relation_is_the_symplectic_pairing():
    group = cyclic_plane_action(1)
    sra = symplectic_reflections(group)
    assert sra.reflections == ()
    assert sra_relation(group, sra, [1, 0], [0, 1]) == {("hbar", 0): 1}


def test_plane_involution_relation():
    group = cyclic_plane_action(2)
    sra = symplectic_reflections(group)
    rel = sra_relation(group, sra, [1, 0], [0, 1])
    assert rel == {("hbar", 0): 1, ("c1", 1): 1}


def test_relation_is_antisymmetric_and_kills_repeats():
    group = pairwise_sign_action()
    sra = symplectic_reflections(group)
    x, y = [1, 2, 3, 4], [0, 1, 1, 0]
    fwd = sra_relation(group, sra, x, y)
    bwd = sra_relation(group, sra, y, x)
    assert {k: -v for k, v in fwd.items()} == bwd
    assert sra_relation(group, sra, x, x) == {}


def test_klein_four_relation_separates_the_planes():
    group = pairwise_sign_action()
    sra = symplectic_reflections(group)
    # directions in different planes commute in the deformation
    assert sra_relation(group, sra, [1, 0, 0, 0], [0, 0, 1, 0]) == {}
    rel = sra_relation(group, sra, [0, 0, 1, 0], [0, 0, 0, 1])
    assert rel == {("hbar", 0): 1, ("c2", 2): 1}


def test_zero_dimensional_relation_is_empty():
    group = close_group([()], (), field=CycloField(1))
    sra = symplectic_reflections(group)
    assert group.order == 1 and sra.reflections == ()
    assert sra_relation(group, sra, [], []) == {}


def test_relation_rejects_wrong_arity():
    group = cyclic_plane_action(2)
    sra = symplectic_reflections(group)
    with pytest.raises(ValueError, match="one entry per dimension"):
        sra_relation(group, sra, [1], [0, 1])


# -- serialization -------------------------------------------------------------


def test_group_json_is_deterministic():
    a = json.dumps(binary_dihedral_action().as_json(), sort_keys=True)
    b = json.dumps(binary_dihedral_action().as_json(), sort_keys=True)
    assert a == b
    data = binary_dihedral_action().as_json()
    assert data["order"] == 8
    assert data["cyclotomic_order"] == 4
    assert data["dim"] == 2
    assert len(data["elements"]) == 8
    assert data["omega"] == [["0", "1"], ["-1", "0"]]


def test_record_and_sra_json_round_trip_through_dumps():
    group = pairwise_sign_action()
    rec = parabolic_subgroups(group)[1].as_json()
    assert rec["subgroup_order"] == 2
    assert rec["leaf_dim"] == 2
    assert json.loads(json.dumps(rec)) == rec
    sra = symplectic_reflections(group).as_json()
    assert sra["reflections"] == [1, 2]
    assert sra["params"] == ["hbar", "c1", "c2"]
    assert json.loads(json.dumps(sra)) == sra


# -- sparse products -----------------------------------------------------------


PRODUCT_FIELDS = [CycloField(n) for n in (1, 3, 4, 8)]


def _random_matrix(rng, field, rows, cols):
    """A random matrix, with a zero row and a zero column now and then;
    an empty tuple when it has no rows."""
    a = [[_random_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        a[rng.randrange(rows)] = [field.zero()] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = field.zero()
    return tuple(tuple(row) for row in a)


def _dense_mat_vec(a, v):
    column = _mat_mul(a, tuple((c,) for c in v))
    return tuple(row[0] if row else 0 for row in column)


def _in_field(entries, field):
    return all(type(x) is CycloNumber and x.field is field for x in entries)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=lambda f: f"n={f.order}")
@pytest.mark.parametrize("seed", range(12))
def test_sparse_products_agree_with_the_dense_product(field, seed):
    """_mat_mul, _mat_vec and _pairing against the dense product, on
    shapes from 0 to 4 in each direction, so 0xn, nx0 and 0x0 operands
    come up, with their products over the field's zero."""
    rng = random.Random(seed)
    for _ in range(25):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        a = _random_matrix(rng, field, r, k)
        b = _random_matrix(rng, field, k, c)
        got = quotient._mat_mul(a, b)
        assert got == _mat_mul(a, b)
        assert len(got) == r and all(len(row) == (c if k else 0) for row in got)
        assert _in_field((x for row in got for x in row), field)

        v = _random_matrix(rng, field, 1, k)[0] if k else ()
        got = quotient._mat_vec(a, v)
        assert got == _dense_mat_vec(a, v) and len(got) == r
        if k:
            assert _in_field(got, field)

        omega = _random_matrix(rng, field, k, k)
        x = _random_matrix(rng, field, 1, k)[0] if k else ()
        pairing = quotient._pairing(omega, x, v)
        assert pairing == sum(
            xi * wi for xi, wi in zip(x, _dense_mat_vec(omega, v))
        )
        if k:
            assert _in_field([pairing], field)


def _slice_every_leaf_of_g312():
    """Close G(3,1,2) and take leaf_slice_data at one base point of each
    leaf with a nonzero fixed space."""
    field = CycloField(3)
    group = close_group(_g_m1n_generators(3, 2, field), G_M12_FORM,
                        field=field, cap=64)
    assert group.order == 18
    records = parabolic_subgroups(group)
    slices = 0
    for record in records:
        for coeffs in ((1, 2, 5, 11), (3, 1, 4, 1), (2, 7, 1, 8)):
            v = [
                sum((c * b[i] for c, b in zip(coeffs, record.fixed_basis)),
                    start=field.zero())
                for i in range(group.dim)
            ]
            try:
                leaf_slice_data(group, record, v)
            except ValueError:  # zero, or a special point of a smaller leaf
                continue
            slices += 1
            break
    assert slices == len(records) - 1  # all but the vertex


def test_sparse_products_form_no_product_with_a_zero_factor(monkeypatch):
    """Closing G(3,1,2) and taking the slice data of each of its leaves
    forms no cyclotomic product with a zero factor inside _mat_mul,
    _mat_vec or _pairing."""
    helpers = {"_mat_mul", "_mat_vec", "_pairing"}
    products = Counter()
    product = CycloNumber.__mul__

    def counted(self, other):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals is vars(quotient):
            if frame.f_code.co_name in helpers:
                products["zero" if not self or not other else "nonzero"] += 1
                break
            frame = frame.f_back
        return product(self, other)

    monkeypatch.setattr(CycloNumber, "__mul__", counted)
    monkeypatch.setattr(CycloNumber, "__rmul__", counted)
    _slice_every_leaf_of_g312()
    assert products["nonzero"] > 0
    assert products["zero"] == 0


def test_line_stabilizer_order_inverts_once_and_never_multiplies_by_zero(monkeypatch):
    """At a base point of each leaf of G(3,1,2), _line_stabilizer_order
    inverts the pivot entry once and forms no product with a zero factor:
    a zero entry of the base point asks its image entry to be zero."""
    calls = []
    active = []
    line_order = quotient._line_stabilizer_order
    product, inverse = CycloNumber.__mul__, CycloNumber.inverse

    def recording_line_order(group, v):
        active.append(Counter())
        try:
            return line_order(group, v)
        finally:
            calls.append((v, active.pop()))

    def counted_product(self, other):
        if active:
            active[-1]["zero" if not self or not other else "nonzero"] += 1
        return product(self, other)

    def counted_inverse(self):
        if active:
            active[-1]["inversions"] += 1
        return inverse(self)

    monkeypatch.setattr(quotient, "_line_stabilizer_order", recording_line_order)
    monkeypatch.setattr(CycloNumber, "__mul__", counted_product)
    monkeypatch.setattr(CycloNumber, "__rmul__", counted_product)
    monkeypatch.setattr(CycloNumber, "inverse", counted_inverse)
    _slice_every_leaf_of_g312()
    assert calls
    assert any(not x for v, _ in calls for x in v)
    for _, counts in calls:
        assert counts["zero"] == 0 and counts["inversions"] <= 1
        assert counts["nonzero"] > 0


# -- Galois conjugation --------------------------------------------------------


def _galois_summary(group):
    records = parabolic_subgroups(group)
    return (
        group.order,
        sorted(len(c) for c in group.classes),
        sorted(Counter(r.leaf_dim for r in records).items()),
        sorted(len(c) for c in symplectic_reflections(group).classes),
    )


GALOIS_GROUPS = {
    **{f"cyclic {n}": (lambda n=n: cyclic_plane_action(n)) for n in range(1, 7)},
    "pairwise-sign": pairwise_sign_action,
    "binary-dihedral": binary_dihedral_action,
    "binary dihedral 12": lambda: _binary_dihedral(12),
    **{f"G({m},1,2)": (lambda m=m: _g_m12(m)) for m in (1, 2, 3, 4)},
    "G(4,1,2) over Q(z8)": lambda: _g_m12(4, CycloField(8)),
}


@pytest.mark.parametrize("build", GALOIS_GROUPS.values(), ids=GALOIS_GROUPS)
def test_galois_conjugate_groups_share_their_invariants(build):
    """zeta -> zeta^k, for every k coprime to the cyclotomic order, maps
    the form and generators to a presentation of an isomorphic group:
    the order, the class sizes, the parabolics per leaf dimension and
    the reflections per class stay the same."""
    group = build()
    field, n = group.field, group.field.order
    generators = [group.element(i) for i in group.generators]
    summary = _galois_summary(group)
    for k in range(1, n + 1):
        if gcd(k, n) != 1:
            continue
        omega, conjugate = _galois_conjugate(group.omega, generators, k)
        image = close_group(conjugate, omega, field=field, cap=group.order)
        assert _galois_summary(image) == summary, k
