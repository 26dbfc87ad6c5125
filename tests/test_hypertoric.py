"""Hypertoric cones: unimodularity, leaves, charts, and certification."""

import random
import re
from itertools import combinations, permutations

import pytest
from reference import (
    _reference_check_unimodular,
    _reference_decompose_at,
    _reference_det,
    _reference_integer_inverse,
    _reference_leaves,
    _reference_rank,
    _reference_smith_kernel,
    _reference_smith_normal_form,
    _reference_verify,
)

from equislice import hypertoric, intmat
from equislice.hypertoric import (
    LEAST_VERIFY_ORDER,
    DecompositionReport,
    LeafDescriptor,
    TorusActionMatrix,
    _complement_rows,
    _integer_inverse,
    check_unimodular,
    decompose_at,
    enumerate_leaves,
    moment_map,
    slice_matrix,
    verify_decomposition,
)
from equislice.intmat import IntMatrix
from equislice.scalars import InternalError
from equislice.series import TruncatedElement

A1 = [[1], [1]]
A1xA1 = [[1, 0], [1, 0], [0, 1], [0, 1]]
TRIPLE = [[1], [1], [1]]
# C^2/Z_3: its row matroid has flats that are not cyclic
A2 = [[1, 0], [0, 1], [1, 1]]
A2xA1 = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1]]


def _complete_graph(n, copies=1):
    """The signed incidence matrix of K_n with vertex 0 grounded, each
    edge repeated `copies` times: totally unimodular, and its flats are
    the partitions of the n vertices."""
    rows = []
    for a, b in combinations(range(n), 2):
        row = [0] * (n - 1)
        if a:
            row[a - 1] = 1
        row[b - 1] = -1
        rows += [row] * copies
    return rows


# -- unimodularity ------------------------------------------------------------


def test_unimodularity_basics():
    assert check_unimodular(A1) == (True, None)
    ok, witness = check_unimodular([[1], [2]])
    assert not ok
    assert witness == {"rows": [2], "minor": 2}
    assert check_unimodular(A1xA1) == (True, None)


def test_unimodularity_matches_fraction_determinants():
    for mat in (A1, A1xA1, TRIPLE, [[1], [2]], [[1, 0], [1, 1], [0, 1]], [[2, 1], [1, 1], [1, 0]]):
        b = TorusActionMatrix(mat)
        minors = [
            _reference_det([mat[i] for i in sel])
            for sel in combinations(range(b.n), b.m)
        ]
        expected = all(m in (-1, 0, 1) for m in minors)
        assert check_unimodular(mat)[0] == expected


def _first_bad_minor(rows):
    m = len(rows[0])
    for sel in combinations(range(len(rows)), m):
        minor = _reference_det([rows[i] for i in sel])
        if minor not in (-1, 0, 1):
            return False, {"rows": [i + 1 for i in sel], "minor": minor}
    return True, None


def test_the_witness_is_the_first_bad_minor():
    rng = random.Random(21)
    several = 0
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        rank = _reference_rank(rows)
        if rank < m:
            with pytest.raises(ValueError, match=f"has rank {rank} but {m} columns$"):
                check_unimodular(rows)
            continue
        assert check_unimodular(rows) == _first_bad_minor(rows)
        several += sum(
            _reference_det([rows[i] for i in sel]) not in (-1, 0, 1)
            for sel in combinations(range(n), m)
        ) > 1
    assert several > 100


def test_faithful_inputs_are_never_ranked(monkeypatch):
    calls = []
    rank = IntMatrix.rank

    def counting(self):
        calls.append(self.rows)
        return rank(self)

    monkeypatch.setattr(IntMatrix, "rank", counting)
    for rows in (A1, A1xA1, TRIPLE, A2, A2xA1, [[1], [2]], [[2, 1], [1, 1], [1, 0]], _complete_graph(5)):
        check_unimodular(rows)
    assert calls == []
    with pytest.raises(ValueError, match="has rank 1 but 2 columns"):
        check_unimodular([[1, 1], [2, 2]])
    assert calls == [((1, 1), (2, 2))]


def _graph(vertices, edges):
    """The signed incidence matrix of a multigraph with vertex 0
    grounded, each edge oriented from its first to its second vertex."""
    rows = []
    for a, b in edges:
        row = [0] * (vertices - 1)
        if a:
            row[a - 1] += 1
        if b:
            row[b - 1] -= 1
        rows.append(row)
    return rows


def _seeded_matrices(rng, count):
    """Seeded integer matrices with 0-4 columns and up to 8 rows: entries
    in -2..2, or in -1..1 with zero rows and parallel rows of either
    sign, or the incidence matrix of a random multigraph (unimodular)
    with, half the time, one entry moved by one."""
    out = []
    while len(out) < count:
        m = rng.randint(0, 4)
        n = rng.randint(max(m, 1), 8)
        kind = rng.random()
        if kind < 0.3:
            rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        elif kind < 0.6:
            rows = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(n)]
            for i in range(1, n):
                roll = rng.random()
                if roll < 0.15:
                    rows[i] = [0] * m
                elif roll < 0.4:
                    rows[i] = [rng.choice((1, -1)) * x for x in rows[rng.randrange(i)]]
        else:
            edges = [tuple(rng.sample(range(m + 1), 2)) for _ in range(n)] if m else []
            rows = _graph(m + 1, edges) if m else [[] for _ in range(n)]
            if m and rng.random() < 0.5:
                rows[rng.randrange(n)][rng.randrange(m)] += rng.choice((-1, 1))
        out.append(rows)
    return out


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as err:
        return "refused", str(err)


def test_unimodularity_agrees_with_the_scan_over_every_minor(monkeypatch):
    # the tableau decides matrices with more than n*m maximal minors; the
    # verdict, the witness rows and the witness minor are the scan's
    decided = []
    tableau = hypertoric._totally_unimodular

    def recording(t):
        decided.append(tableau(t))
        return decided[-1]

    monkeypatch.setattr(hypertoric, "_totally_unimodular", recording)
    rng = random.Random(23)
    cases = _seeded_matrices(rng, 1500) + [
        _complete_graph(n, copies) for n in (3, 4, 5, 6) for copies in (1, 2)
    ] + [[[1, 0], [0, 1]], [[2, 1], [1, 1]], [[1, 1], [1, -1]], [[0, 0], [1, 0], [0, 1]]]
    shapes = set()
    for rows in cases:
        assert _outcome(check_unimodular, rows) == _outcome(_reference_check_unimodular, rows)
        shapes.add((len(rows), len(rows[0])))
    assert {(n, n) for n in range(1, 5)} <= shapes and any(m == 0 for _, m in shapes)
    # the tableau accepted many matrices and found an offending minor in
    # many others, whose witness the scan then named
    assert decided.count(True) > 100 and decided.count(False) > 50


def test_unimodularity_forms_fewer_determinants_than_minors(monkeypatch):
    # a unimodular 11 x 4 graphic matrix has C(11, 4) = 330 maximal minors
    calls = []
    bareiss = intmat._bareiss

    def counting(rows):
        calls.append(rows)
        return bareiss(rows)

    monkeypatch.setattr(intmat, "_bareiss", counting)
    rows = _complete_graph(5) + [_complete_graph(5)[0]]
    assert (len(rows), len(rows[0])) == (11, 4)
    assert check_unimodular(rows) == (True, None)
    assert 0 < len(calls) < 330


def test_rank_deficient_input_is_refused():
    # the refusals keep their wording, rank included, on both entry points
    for call in (check_unimodular, TorusActionMatrix):
        for bad in ([], ()):
            with pytest.raises(ValueError) as err:
                call(bad)
            assert str(err.value) == "the weight matrix needs at least one row"
        for bad, rank in (([[1, 1], [2, 2]], 1), ([[0], [0]], 0), ([[1, 0, 0], [0, 1, 0]], 2)):
            with pytest.raises(ValueError) as err:
                call(bad)
            assert str(err.value) == (
                "the torus action is not faithful: the weight matrix has "
                f"rank {rank} but {len(bad[0])} columns"
            )


# -- moment map ---------------------------------------------------------------


def test_moment_map_formula():
    assert [str(c) for c in moment_map(A1)] == ["1*x2*y2 + 1*x1*y1"]
    assert [str(c) for c in moment_map([[1], [-1]])] == ["-1*x2*y2 + 1*x1*y1"]
    assert [str(c) for c in moment_map(A1xA1)] == [
        "1*x2*y2 + 1*x1*y1",
        "1*x4*y4 + 1*x3*y3",
    ]


# -- leaves -------------------------------------------------------------------


def test_leaf_enumeration_frozen_dimensions():
    assert [l.leaf_dim for l in enumerate_leaves(A1)] == [2, 0]
    assert [l.leaf_dim for l in enumerate_leaves(A1xA1)] == [4, 2, 2, 0]
    assert [l.leaf_dim for l in enumerate_leaves(TRIPLE)] == [4, 0]


def test_leaf_descriptors_carry_flats_and_lattices():
    leaves = enumerate_leaves(A1xA1)
    open_leaf, mid1, mid2, vertex = leaves
    assert open_leaf.is_open and open_leaf.flat == ()
    assert vertex.is_vertex and vertex.flat == (1, 2, 3, 4)
    assert mid1.flat == (1, 2) and mid1.subtorus_lattice == IntMatrix([[1, 0]])
    assert mid2.flat == (3, 4) and mid2.subtorus_lattice == IntMatrix([[0, 1]])
    for leaf in leaves:
        assert leaf.leaf_dim % 2 == 0
        _, d, _ = _reference_smith_normal_form(leaf.subtorus_lattice)
        assert all(d.rows[i][i] == 1 for i in range(leaf.subtorus_lattice.nrows))


def test_open_leaf_dimension_formula():
    for mat in (A1, A1xA1, TRIPLE):
        b = TorusActionMatrix(mat)
        assert enumerate_leaves(mat)[0].leaf_dim == 2 * (b.n - b.m)


def test_leaves_invariant_under_row_permutation():
    base = sorted(l.leaf_dim for l in enumerate_leaves(A1xA1))
    for perm in permutations(range(4)):
        mat = [A1xA1[i] for i in perm]
        assert sorted(l.leaf_dim for l in enumerate_leaves(mat)) == base


def test_only_cyclic_flats_carry_leaves():
    for perm in permutations(range(3)):
        mat = [A2[i] for i in perm]
        leaves = enumerate_leaves(mat)
        assert {leaf.flat: leaf.leaf_dim for leaf in leaves} == {(): 2, (1, 2, 3): 0}
        assert sum(leaf.is_vertex for leaf in leaves) == 1
    # the product with A_1 has the product leaves
    assert {leaf.flat: leaf.leaf_dim for leaf in enumerate_leaves(A2xA1)} == {
        (): 4, (1, 2, 3): 2, (4, 5): 2, (1, 2, 3, 4, 5): 0,
    }
    for leaf in enumerate_leaves(A2):
        assert verify_decomposition(A2, decompose_at(A2, leaf), order=5)["ok"]
    for flat in [(2, 3), (1, 3), (1, 2)]:
        with pytest.raises(ValueError, match="not the flat of a leaf"):
            slice_matrix(A2, flat)


def _seeded_unimodular(rng):
    """A faithful unimodular matrix with at most 3 columns and 7 rows,
    often with zero rows and with parallel rows of either sign."""
    while True:
        m = rng.randint(1, 3)
        n = rng.randint(m, 7)
        rows = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(n)]
        for i in range(1, n):
            roll = rng.random()
            if roll < 0.15:
                rows[i] = [0] * m
            elif roll < 0.4:
                sign = rng.choice((1, -1))
                rows[i] = [sign * x for x in rows[rng.randrange(i)]]
        if _reference_rank(rows) == m and all(
            _reference_det([rows[i] for i in sel]) in (-1, 0, 1)
            for sel in combinations(range(n), m)
        ):
            return rows


def test_leaves_match_the_subset_walk():
    rng = random.Random(12)
    cases = [A1, A1xA1, TRIPLE, A2, A2xA1, _complete_graph(4), _complete_graph(5), _complete_graph(4, copies=2)]
    for _ in range(100):
        rows = _seeded_unimodular(rng)
        cases += [rows, rng.sample(rows, len(rows))]
    zero = sum(any(not any(row) for row in rows) for rows in cases)
    antiparallel = sum(
        any([-x for x in r] == s and any(r) for r, s in combinations(rows, 2)) for rows in cases
    )
    assert zero > 20 and antiparallel > 20
    for rows in cases:
        expected = [leaf.as_json() for leaf in _reference_leaves(rows)]
        assert [leaf.as_json() for leaf in enumerate_leaves(rows)] == expected


# a triangle with a pendant edge: the pendant edge is a coloop, so 8 of
# the 10 flats of its matroid are not cyclic
PENDANT = _graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def test_non_cyclic_flats_carry_no_leaves():
    for rows in (PENDANT, A2, _complete_graph(4)):
        assert [leaf.as_json() for leaf in enumerate_leaves(rows)] == [
            leaf.as_json() for leaf in _reference_leaves(rows)
        ]
    assert [leaf.flat for leaf in enumerate_leaves(PENDANT)] == [(4,), (1, 2, 3, 4)]


def test_leaves_take_no_rank_per_fixed_coordinate(monkeypatch):
    calls = []
    rank = IntMatrix.rank

    def counting(self):
        calls.append(self.rows)
        return rank(self)

    for rows in (PENDANT, A2, A2xA1, _complete_graph(5), _complete_graph(4, copies=2)):
        b = TorusActionMatrix(rows)
        monkeypatch.setattr(IntMatrix, "rank", counting)
        enumerate_leaves(b)
        monkeypatch.setattr(IntMatrix, "rank", rank)
    assert calls == []


def _chart_cases():
    rng = random.Random(31)
    cases = [A1, A1xA1, TRIPLE, A2, A2xA1, PENDANT, _complete_graph(4), _complete_graph(4, copies=2)]
    cases += [_seeded_unimodular(rng) for _ in range(40)]
    return cases


def test_charts_agree_with_the_slice_matrix_path():
    # the chart of every leaf, at the default designation and at seeded
    # ones, equals the chart that re-derives its leaf from the flat and
    # ranks every candidate inverted set
    rng = random.Random(9)
    charts = refused = 0
    for rows in _chart_cases():
        for leaf in enumerate_leaves(rows):
            designations = [None] + [
                {i: rng.choice("xy") for i in leaf.fixed if rng.random() < 0.7} for _ in range(3)
            ]
            for nonvanishing in designations:
                try:
                    expected = _reference_decompose_at(rows, leaf, nonvanishing)
                except ValueError as err:
                    with pytest.raises(ValueError, match=str(err)):
                        decompose_at(rows, leaf, nonvanishing)
                    refused += 1
                    continue
                assert decompose_at(rows, leaf, nonvanishing).as_json() == expected.as_json()
                charts += 1
    assert charts > 300 and refused > 10


def test_charts_take_no_integer_normal_form(monkeypatch):
    calls = []
    hermite = IntMatrix.hermite_normal_form

    def counting(self):
        calls.append(self.rows)
        return hermite(self)

    for rows in (A2xA1, PENDANT, _complete_graph(4, copies=2)):
        leaves = enumerate_leaves(rows)
        monkeypatch.setattr(IntMatrix, "hermite_normal_form", counting)
        for leaf in leaves:
            decompose_at(rows, leaf)
        monkeypatch.setattr(IntMatrix, "hermite_normal_form", hermite)
    assert calls == []


def test_charts_refuse_leaves_that_are_not_leaves_of_the_matrix():
    # a non-cyclic flat of A_2: its lattice fixes exactly row 1, which is
    # a coloop of the fixed rows
    coloop = LeafDescriptor((2, 3), IntMatrix([[0, 1]]), 2, 3)
    with pytest.raises(ValueError, match=r"\[2, 3\] is not the flat of a leaf"):
        decompose_at(A2, coloop)
    # leaves of other matrices: of the same size but fixing other rows,
    # with another number of torus factors, and with another number of
    # coordinates
    other = [[1, 0], [0, 1], [1, 1], [0, 1]]
    for rows, leaf in (
        (other, next(leaf for leaf in enumerate_leaves(A1xA1) if leaf.flat == (1, 2))),
        (TRIPLE, enumerate_leaves(A2)[-1]),
        (A2xA1, enumerate_leaves(A1xA1)[0]),
        (A1xA1, enumerate_leaves(A2xA1)[-1]),
    ):
        with pytest.raises(ValueError, match=re.escape(f"{list(leaf.flat)} is not the flat of a leaf")):
            decompose_at(rows, leaf)


@pytest.mark.parametrize("n, flats, leaves", [(4, 15, 6), (5, 52, 17), (6, 203, 53)])
def test_one_hermite_form_per_flat(monkeypatch, n, flats, leaves):
    # the flats of the graphic matroid of K_n are the partitions of its
    # n vertices, a Bell number of them; each has its lattice from one
    # Hermite form and is paired with the weight rows once, the same
    # table serving its closure check and its covers
    calls = []
    hermite = IntMatrix.hermite_normal_form
    pairings = hypertoric._pairings
    tables = []

    def counting(self):
        calls.append(self.rows)
        return hermite(self)

    def counting_pairings(b, lattice):
        tables.append(lattice.rows)
        return pairings(b, lattice)

    monkeypatch.setattr(IntMatrix, "hermite_normal_form", counting)
    monkeypatch.setattr(hypertoric, "_pairings", counting_pairings)
    assert len(enumerate_leaves(_complete_graph(n))) == leaves
    assert len(calls) == flats
    assert len(tables) == flats
    assert len(set(tables)) == flats


def test_a_cover_that_is_not_closed_is_refused(monkeypatch):
    # drop one row of a parallel pair from the first cover the walk reads:
    # the lattice of what is left still fixes the dropped row, so that
    # cover is not a flat and the walk must say so, not fail inside _covers
    covers = hypertoric._covers
    tampered = []

    def dropping(*args):
        found = covers(*args)
        if not tampered:
            tampered.append(found[0][:-1])
            found[0] = tampered[0]
        return found

    monkeypatch.setattr(hypertoric, "_covers", dropping)
    with pytest.raises(InternalError, match=r"the flat fixing \[1\] is not closed"):
        enumerate_leaves(_complete_graph(4, copies=2))
    assert tampered == [(0,)]


def test_nonunimodular_enumeration_is_refused():
    with pytest.raises(ValueError):
        enumerate_leaves([[1], [2]])


# -- slice matrices -----------------------------------------------------------


def test_slice_matrices():
    assert slice_matrix(A1xA1, (1, 2)) == IntMatrix([[1], [1]])
    assert slice_matrix(A1xA1, ()) == IntMatrix([])
    assert slice_matrix(A1, (1, 2)) == IntMatrix([[1], [1]])


def test_slice_matrix_rejects_non_flats():
    with pytest.raises(ValueError):
        slice_matrix(A1, (1,))
    with pytest.raises(ValueError):
        slice_matrix(A1xA1, (1, 3))


def test_slice_matrices_stay_unimodular():
    for mat in (A1, A1xA1, TRIPLE):
        for leaf in enumerate_leaves(mat):
            sliced = slice_matrix(mat, leaf.flat)
            if sliced.nrows:
                assert check_unimodular(sliced.rows)[0]


def _connected_graph(rng, vertices, edges):
    """The incidence matrix of a seeded connected multigraph: a random
    spanning tree, then random edges up to the count, in shuffled order."""
    pairs = [(rng.randrange(v), v) for v in range(1, vertices)]
    while len(pairs) < edges:
        pairs.append(tuple(rng.sample(range(vertices), 2)))
    rng.shuffle(pairs)
    return _graph(vertices, pairs)


def test_the_slice_at_a_leaf_has_the_leaves_of_its_flat():
    """Slices of slices: the cone of slice_matrix(b, F) at the leaf L of
    the flat F has, with its flats mapped back through F, exactly the
    leaves of b whose flat lies in F, each of dimension its own less
    leaf_dim(L)."""
    rng = random.Random(32)
    cases = [A2, A2xA1, PENDANT] + [_complete_graph(n) for n in (3, 4, 5)]
    cases += [_connected_graph(rng, rng.randint(3, 5), rng.randint(6, 9)) for _ in range(12)]
    cases += [_seeded_unimodular(rng) for _ in range(200)]
    slices = 0
    for rows in cases:
        leaves = enumerate_leaves(rows)
        for leaf in leaves:
            if not leaf.flat:
                continue
            inner = enumerate_leaves(slice_matrix(rows, leaf.flat).rows)
            got = sorted(
                (tuple(leaf.flat[k - 1] for k in sub.flat), sub.leaf_dim + leaf.leaf_dim)
                for sub in inner
            )
            assert got == sorted(
                (other.flat, other.leaf_dim) for other in leaves if set(other.flat) <= set(leaf.flat)
            ), (rows, leaf.flat)
            slices += 1
    assert slices == 389


# -- charts -------------------------------------------------------------------


def test_open_chart_of_the_quadric_cone():
    open_leaf = enumerate_leaves(A1)[0]
    report = decompose_at(A1, open_leaf, nonvanishing={1: "x"})
    assert report.g == (1,)
    assert report.r == IntMatrix([[-1]])
    assert report.weights == {"x2": 0, "y2": 2}
    assert report.hyperplanes == ["x1"]
    assert verify_decomposition(A1, report, order=5)["ok"]


def test_middle_leaf_chart_of_the_product():
    leaf = next(l for l in enumerate_leaves(A1xA1) if l.flat == (1, 2))
    report = decompose_at(A1xA1, leaf, nonvanishing={3: "x"})
    assert report.g == (3,)
    assert report.r == IntMatrix([[-1]])
    assert report.weights == {"x4": 0, "y4": 2}
    assert report.slice_matrix == IntMatrix([[1], [1]])
    assert verify_decomposition(A1xA1, report, order=5)["ok"]


def test_triple_column_open_chart():
    report = decompose_at(TRIPLE, enumerate_leaves(TRIPLE)[0])
    assert report.g == (1,)
    assert report.r == IntMatrix([[-1], [-1]])
    assert report.weights == {"x2": 0, "x3": 0, "y2": 2, "y3": 2}
    assert verify_decomposition(TRIPLE, report, order=5)["ok"]


def test_vertex_chart_has_no_leaf_coordinates():
    vertex = next(l for l in enumerate_leaves(A1) if l.is_vertex)
    report = decompose_at(A1, vertex)
    assert report.g == ()
    assert report.weights == {}
    assert report.slice_matrix == IntMatrix([[1], [1]])
    assert verify_decomposition(A1, report, order=5)["ok"]


def test_conjugate_designation_swaps_the_chart():
    report = decompose_at(A1, enumerate_leaves(A1)[0], nonvanishing={2: "y"})
    assert report.g == (2,)
    assert report.hyperplanes == ["y2"]
    assert report.weights == {"x1": 2, "y1": 0}
    assert verify_decomposition(A1, report, order=5)["ok"]


def test_weight_sum_constraint_on_every_chart():
    for mat in (A1, A1xA1, TRIPLE):
        for leaf in enumerate_leaves(mat):
            report = decompose_at(mat, leaf)
            for i in (i for i in leaf.fixed if i not in report.g):
                assert report.weights[f"x{i}"] + report.weights[f"y{i}"] == 2
            assert verify_decomposition(mat, report, order=5)["ok"]


def test_unusable_sign_data_is_refused():
    with pytest.raises(ValueError):
        decompose_at(A1, enumerate_leaves(A1)[0], nonvanishing={})


def _corrupted_product_chart():
    leaf = next(l for l in enumerate_leaves(A1xA1) if l.flat == (1, 2))
    report = decompose_at(A1xA1, leaf, nonvanishing={3: "x"})
    return report, DecompositionReport(
        leaf=report.leaf,
        g=report.g,
        designated=report.designated,
        r=IntMatrix([[1]]),
        weights={"x4": 2, "y4": 0},
        slice_mat=report.slice_matrix,
        hyperplanes=report.hyperplanes,
    )


def test_corrupted_dressing_exponent_fails_verification():
    _, corrupted = _corrupted_product_chart()
    out = verify_decomposition(A1xA1, corrupted, order=5)
    assert not out["ok"]
    assert any(f["check"] == "invariance" for f in out["failures"])


def test_orders_below_the_least_are_refused():
    # below order 3 the moment components x_j*y_j truncate to zero: a
    # corrupted chart would pass at order 2, a true one fail at order 1
    assert LEAST_VERIFY_ORDER == 3
    report, corrupted = _corrupted_product_chart()
    for order in range(-1, LEAST_VERIFY_ORDER):
        for chart in (report, corrupted):
            with pytest.raises(ValueError, match="truncation order at least 3"):
                verify_decomposition(A1xA1, chart, order=order)
    assert verify_decomposition(A1xA1, report, order=LEAST_VERIFY_ORDER) == {"ok": True, "failures": []}
    out = verify_decomposition(A1xA1, corrupted, order=LEAST_VERIFY_ORDER)
    assert not out["ok"]
    assert any(f["check"] == "invariance" for f in out["failures"])
    assert out == _reference_verify(A1xA1, corrupted, LEAST_VERIFY_ORDER)
    with pytest.raises(ValueError, match="exact integer"):
        verify_decomposition(A1xA1, report, order=3.0)


def _tampered(rng, report):
    """Seeded corruptions of a chart: one r entry moved by one, one
    stated weight moved by one, the designation of one inverted
    coordinate flipped (with its hyperplane, so the report stays
    coherent), and one inverted coordinate moved into the flat."""
    out = []
    if report.r.nrows:
        rows = [list(row) for row in report.r.rows]
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows[i][j] += rng.choice((-1, 1))
        out.append(DecompositionReport(report.leaf, report.g, report.designated, IntMatrix(rows),
                                       report.weights, report.slice_matrix, report.hyperplanes))
        weights = dict(report.weights)
        weights[rng.choice(sorted(weights))] += rng.choice((-1, 1))
        out.append(DecompositionReport(report.leaf, report.g, report.designated, report.r,
                                       weights, report.slice_matrix, report.hyperplanes))
    if report.g:
        designated = dict(report.designated)
        j = rng.choice(report.g)
        designated[j] = "y" if designated[j] == "x" else "x"
        out.append(DecompositionReport(report.leaf, report.g, designated, report.r, report.weights,
                                       report.slice_matrix, [f"{designated[k]}{k}" for k in report.g]))
    if report.g and report.leaf.flat:
        # an inverted coordinate moved into the flat: the dressing then
        # involves a transverse coordinate
        g = sorted(set(report.g[1:]) | {rng.choice(report.leaf.flat)})
        designated = {**report.designated, **{k: "x" for k in g}}
        rows = [list(row) for row in report.r.rows] + [[0] * len(g)]
        remaining = [i for i in report.leaf.fixed if i not in g]
        weights = {f"{side}{i}": 1 + sign * sum(row)
                   for i, row in zip(remaining, rows) for side, sign in (("x", 1), ("y", -1))}
        out.append(DecompositionReport(report.leaf, g, designated, IntMatrix(rows), weights,
                                       report.slice_matrix, [f"x{k}" for k in g]))
    return out


@pytest.mark.parametrize("name, mat", [
    ("A1", A1), ("A1xA1", A1xA1), ("TRIPLE", TRIPLE), ("K4 doubled", _complete_graph(4, copies=2)),
])
def test_verification_matches_the_bracket_by_bracket_reference(name, mat):
    rng = random.Random(len(mat))
    failing = 0
    checks = set()
    for leaf in enumerate_leaves(mat):
        report = decompose_at(mat, leaf)
        for chart in [report] + _tampered(rng, report):
            for order in range(3, 7):
                got = verify_decomposition(mat, chart, order=order)
                assert got == _reference_verify(mat, chart, order)
                assert got["ok"] or chart is not report
                checks.update(f["check"] for f in got["failures"])
    # the Darboux brackets of monomial charts hold whatever r says, so
    # only the other four checks can be made to fail
    if len(mat) > 3:
        assert checks == {"weights", "invariance", "slice-commutation", "elimination"}


def test_integer_inverse_is_one_elimination():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        v = IntMatrix.identity(n)
        for _ in range(6 if n > 1 else 0):
            # add a multiple of one row to another: still unimodular
            i, j = rng.sample(range(n), 2)
            k = rng.choice((-2, -1, 1, 2))
            rows = [list(r) for r in v.rows]
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            v = IntMatrix(rows)
        if rng.random() < 0.5:
            v = IntMatrix([[-x for x in v.rows[0]], *v.rows[1:]])
        assert _integer_inverse(v) == _reference_integer_inverse(v)
        assert v @ _integer_inverse(v) == IntMatrix.identity(n)
    for singular in ([[1, 1], [1, 1]], [[2, 0], [0, 1]], [[0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
        with pytest.raises(ValueError, match="not unimodular"):
            _integer_inverse(IntMatrix(singular))


def test_complement_rows_complete_a_saturated_lattice():
    # seeded kernel lattices, half of them in another basis than their
    # Hermite one: the lattice rows and the complement rows form a
    # unimodular matrix
    rng = random.Random(17)
    lattices = 0
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        lattice = _reference_smith_kernel(IntMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]))
        if not lattice.nrows:
            continue
        rows = [list(row) for row in lattice.rows]
        for _ in range(3 if len(rows) > 1 and rng.random() < 0.5 else 0):
            i, j = rng.sample(range(len(rows)), 2)
            k = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        comp = _complement_rows(IntMatrix(rows), m)
        assert comp.nrows == m - len(rows)
        assert IntMatrix(rows + [list(row) for row in comp.rows]).det() in (1, -1)
        lattices += 1
    assert lattices > 100
    for bad in ([[2, 0]], [[1, 1], [2, 2]]):
        with pytest.raises(ValueError, match="the subtorus lattice is not saturated"):
            _complement_rows(IntMatrix(bad), 2)
    assert _complement_rows(IntMatrix([]), 3) == IntMatrix.identity(3)
    assert _complement_rows(IntMatrix([[2, 3], [1, 1]]), 2).nrows == 0


def test_a_lattice_of_another_width_fails_elimination():
    # a hand-built leaf whose lattice is narrower or wider than the
    # torus: no complement exists, and verification must say so
    leaf = next(leaf for leaf in enumerate_leaves(A1xA1) if leaf.flat == (1, 2))
    report = decompose_at(A1xA1, leaf)
    for rows in ([[1]], [[1, 0, 0]]):
        bad = DecompositionReport(LeafDescriptor(leaf.flat, IntMatrix(rows), 2, 4), report.g,
                                  report.designated, report.r, report.weights, report.slice_matrix,
                                  report.hyperplanes)
        got = verify_decomposition(A1xA1, bad, order=3)
        assert got == _reference_verify(A1xA1, bad, 3)
        assert got["failures"][-1] == {
            "check": "elimination", "detail": f"the subtorus lattice has width {len(rows[0])}, not 2",
        }


def test_an_inverted_coordinate_of_the_flat_fails_elimination():
    # the last corruption of _tampered moves an inverted coordinate into
    # the flat; the elimination matrix then pairs the complement with a
    # flat coordinate, on which the subtorus does not vanish, so its
    # determinant would depend on the complement chosen
    rng = random.Random(7)
    charts = 0
    for mat in (A1xA1, TRIPLE, A2xA1, _complete_graph(4), _complete_graph(4, copies=2), _complete_graph(5)):
        for leaf in enumerate_leaves(mat):
            if not leaf.flat:
                continue
            for nonvanishing in [None] + [{i: rng.choice("xy") for i in leaf.fixed} for _ in range(3)]:
                report = decompose_at(mat, leaf, nonvanishing)
                if not report.g:
                    continue
                chart = _tampered(rng, report)[-1]
                moved = [j for j in chart.g if j in leaf.flat]
                got = verify_decomposition(mat, chart, order=3)
                assert got == _reference_verify(mat, chart, 3)
                elimination = [f["detail"] for f in got["failures"] if f["check"] == "elimination"]
                assert elimination[-len(moved):] == [
                    f"the inverted coordinate {j} lies in the flat" for j in moved
                ]
                charts += 1
    assert charts > 100


def test_an_incoherent_designation_is_refused_by_both():
    # a designated side that is not the inverted hyperplane makes a
    # negative power of a non-invertible coordinate
    report = decompose_at(TRIPLE, enumerate_leaves(TRIPLE)[0])
    flipped = DecompositionReport(report.leaf, report.g, {**report.designated, 1: "y"}, report.r,
                                  report.weights, report.slice_matrix, report.hyperplanes)
    for verify in (verify_decomposition, _reference_verify):
        with pytest.raises(ValueError, match="negative exponent on non-invertible variable"):
            verify(TRIPLE, flipped, 5)


def test_one_gradient_per_element(monkeypatch):
    # each coordinate, moment component and transverse variable has its
    # gradient taken once per verification, whatever it is bracketed with
    taken = []
    gradient = TruncatedElement.gradient

    def counting(self):
        taken.append(self)
        return gradient(self)

    monkeypatch.setattr(TruncatedElement, "gradient", counting)
    mat = _complete_graph(4, copies=2)
    for leaf in enumerate_leaves(mat):
        report = decompose_at(mat, leaf)
        taken.clear()
        assert verify_decomposition(mat, report, order=4)["ok"]
        assert len(taken) == len(set(taken))
        coordinates = 2 * len(report.r.rows)
        assert len(taken) <= coordinates + len(mat[0]) + 2 * len(leaf.flat)
