"""Symplectic leaves and equivariant product charts of hypertoric cones.

A torus (C^x)^m acting diagonally and faithfully on the cotangent bundle
of affine n-space has a Hamiltonian reduction at moment level zero, the
affine hypertoric cone of the action.  Dilation of the cotangent fibers
and base gives every coordinate weight one, so the reduced bracket has
weight -2.  Under the unimodularity hypothesis (every nonzero maximal
minor of the weight matrix is 1 or -1) the cone splits Zariski-locally
along each symplectic leaf as an open piece of the leaf times the
transverse hypertoric slice, with explicit invariant coordinates on the
leaf factor obtained by dressing each coordinate with monomials in the
inverted ones.

Leaves are indexed by parabolic subtori, the pointwise stabilizers of
points of the base; each is recorded by the saturated kernel lattice of
its Lie algebra inside the cocharacter lattice.  Everything here is pure
and deterministic: leaf enumeration, chart construction, and the
symbolic certification of a chart are independent computations.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd
from operator import mul

from .intmat import IntMatrix, det
from .linalg import Span, relations
from .poisson import PoissonPresentation
from .scalars import InternalError, exact, exact_int
from .series import GradedContext, TruncatedElement


class TorusActionMatrix:
    """Diagonal torus weights on the base coordinates.

    Row i is the character through which the torus scales the i-th base
    coordinate; the conjugate fiber coordinate carries its negation.
    The action is required to be faithful, so the rank must equal the
    number of torus factors."""

    def __init__(self, rows):
        self.matrix = rows if isinstance(rows, IntMatrix) else IntMatrix(rows)
        if self.matrix.nrows == 0 or self.matrix.rank() != self.matrix.ncols:
            raise _unfaithful(self.matrix)

    @property
    def n(self) -> int:
        return self.matrix.nrows

    @property
    def m(self) -> int:
        return self.matrix.ncols

    def row(self, i: int) -> tuple:
        return self.matrix.rows[i]

    def __repr__(self):
        return f"TorusActionMatrix({[list(r) for r in self.matrix.rows]})"


def _unfaithful(matrix: IntMatrix) -> ValueError:
    """The refusal of a weight matrix whose action is not faithful."""
    if matrix.nrows == 0:
        return ValueError("the weight matrix needs at least one row")
    return ValueError(
        "the torus action is not faithful: the weight matrix has "
        f"rank {matrix.rank()} but {matrix.ncols} columns"
    )


class LeafDescriptor:
    """One symplectic leaf, recorded by its maximal parabolic subtorus.

    The flat lists the base coordinates (one-based) on which the
    subtorus acts nontrivially; the lattice rows are a Hermite basis of
    its Lie algebra inside the cocharacter lattice."""

    def __init__(self, flat, subtorus_lattice: IntMatrix, m: int, n: int):
        self.flat = tuple(sorted(flat))
        self.fixed = tuple(i for i in range(1, n + 1) if i not in self.flat)
        self.subtorus_lattice = subtorus_lattice
        self.leaf_dim = 2 * (len(self.fixed) - (m - subtorus_lattice.nrows))
        self.is_vertex = self.leaf_dim == 0
        self.is_open = subtorus_lattice.nrows == 0
        if self.leaf_dim < 0:
            raise ValueError("negative leaf dimension; the flat is not valid")

    def as_json(self) -> dict:
        return {
            "flat": list(self.flat),
            "fixed": list(self.fixed),
            "subtorus_lattice": [list(r) for r in self.subtorus_lattice.rows],
            "leaf_dim": self.leaf_dim,
            "is_vertex": self.is_vertex,
            "is_open": self.is_open,
        }

    def __repr__(self):
        return f"LeafDescriptor(flat={list(self.flat)}, dim={self.leaf_dim})"


class DecompositionReport:
    """The invariant-coordinate chart of one leaf at one base point.

    g lists the inverted coordinate indices; r has one row per remaining
    leaf coordinate giving the exponents of the dressing monomial, so
    the dressed coordinate has weight 1 + (row sum).  The slice matrix
    records the subtorus weights on the transverse coordinates."""

    def __init__(self, leaf, g, designated, r, weights, slice_mat, hyperplanes):
        self.leaf = leaf
        self.g = tuple(sorted(g))
        self.designated = dict(designated)
        self.r = r
        self.weights = dict(weights)
        self.slice_matrix = slice_mat
        self.hyperplanes = list(hyperplanes)

    def as_json(self) -> dict:
        return {
            "leaf": self.leaf.as_json(),
            "inverted": list(self.g),
            "designated": {str(i): s for i, s in sorted(self.designated.items())},
            "r": [list(row) for row in self.r.rows],
            "weights": dict(sorted(self.weights.items())),
            "slice_matrix": [list(row) for row in self.slice_matrix.rows],
            "hyperplanes": list(self.hyperplanes),
        }

    def __repr__(self):
        return f"DecompositionReport(flat={list(self.leaf.flat)}, inverted={list(self.g)})"


# -- unimodularity and the moment map ----------------------------------------


def check_unimodular(b) -> tuple[bool, dict | None]:
    """Whether every nonzero maximal minor of the weight matrix is 1 or
    -1.  On failure the witness names the first offending row set in
    combinations order, one-based, and its minor: the verdict and the
    witness are those of the scan over all C(n, m) maximal minors.  A
    matrix with no nonzero maximal minor is refused as unfaithful; the
    rank is computed only to word that refusal.

    A matrix with few minors is decided by that scan.  Otherwise the
    first nonzero minor in combinations order is the one on the greedy
    row basis B, and it is the witness when it is not 1 or -1.  When it
    is, the maximal minor on a row set S is det B times a square minor
    of the tableau T = A B^-1 on the rows S - B and the columns B - S,
    so A is unimodular exactly when the non-basis rows of T form a
    totally unimodular matrix.  The scan then runs only to name the
    witness of a matrix the tableau has found not unimodular."""
    matrix = b.matrix if isinstance(b, TorusActionMatrix) else IntMatrix(b)
    rows = matrix.rows
    if not rows:
        raise _unfaithful(matrix)
    n, m = len(rows), matrix.ncols
    # the scan forms one m x m determinant per maximal minor, the tableau
    # one n x m elimination and then its nonzero square minors; measured,
    # the scan is the cheaper while there are at most n * m minors
    if comb(n, m) > n * m:
        basis, span = _greedy_basis(rows, m)
        if len(basis) < m:
            raise _unfaithful(matrix)
        minor = det([rows[i] for i in basis])
        if minor not in (-1, 1):
            return False, {"rows": [i + 1 for i in basis], "minor": minor}
        if _totally_unimodular(_tableau(rows, basis, span)):
            return True, None
    faithful = False
    for sel in combinations(range(n), m):
        minor = det([rows[i] for i in sel])
        if minor not in (-1, 0, 1):
            return False, {"rows": [i + 1 for i in sel], "minor": minor}
        faithful = faithful or minor != 0
    if not faithful:
        raise _unfaithful(matrix)
    return True, None


def _greedy_basis(rows, m: int) -> tuple[list[int], Span]:
    """The indices of the first rows, in order, independent of the rows
    before them, at most m, and the Span of the rows added (vector k is
    row k): when the rows have rank m, the lexicographically first basis,
    so the first independent m-subset in combinations order."""
    span, basis = Span(), []
    for i, row in enumerate(rows):
        if len(basis) == m:
            break
        if span.add(dict(enumerate(row))) is None:
            basis.append(i)
    return basis, span


def _tableau(rows, basis, span: Span) -> list[list[int]]:
    """The non-basis rows of T = A B^-1: row r holds the coordinates of
    row r of A over the basis rows, read off the Span that chose them
    (integral when det B is 1 or -1)."""
    inside = set(basis)
    out = []
    for i, row in enumerate(rows):
        if i not in inside:
            coordinates, _ = span.express(dict(enumerate(row)))
            out.append([exact(coordinates.get(j, 0)) for j in basis])
    return out


def _totally_unimodular(tableau) -> bool:
    """Whether every square minor of an integer matrix is 0, 1 or -1.

    The minors are built by Laplace expansion along their last row, one
    size at a time.  A level lists, for each row set (increasing, named
    by its last row), its nonzero minors keyed by column bitmask; a row
    set with no nonzero minor has none when extended, so it is dropped.
    The walk stops at the first minor outside {0, 1, -1}."""
    entries = [[(1 << c, x) for c, x in enumerate(row) if x] for row in tableau]
    level, size = [(-1, {0: 1})], 0
    while level:
        size += 1
        grown = []
        for last, minors in level:
            for r in range(last + 1, len(tableau)):
                out: dict = {}
                for mask, minor in minors.items():
                    for bit, x in entries[r]:
                        if not mask & bit:
                            # the column's place among the new minor's columns
                            # gives the cofactor sign (-1)^(size + place)
                            term = x * minor
                            if (size + (mask & (bit - 1)).bit_count()) % 2 == 0:
                                term = -term
                            out[mask | bit] = out.get(mask | bit, 0) + term
                out = {key: v for key, v in out.items() if v}
                if any(v not in (1, -1) for v in out.values()):
                    return False
                if out:
                    grown.append((r, out))
        level = grown
    return True


def moment_map(b, order: int = 4) -> list[TruncatedElement]:
    """The components of the torus moment map on the cotangent bundle,
    one quadratic per torus factor."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    return _moment_components(b, cotangent_context(b, order=order))


def _moment_components(b: TorusActionMatrix, ctx: GradedContext) -> list[TruncatedElement]:
    """The moment components sum_j b_jt * x_j * y_j, built in ctx."""
    return [_quadratic(ctx, [row[t] for row in b.matrix.rows]) for t in range(b.m)]


def _quadratic(ctx: GradedContext, coefficients) -> TruncatedElement:
    """sum_j c_j * x_j * y_j in a cotangent context (variables x1..xn,
    y1..yn), one monomial per nonzero coefficient c_j."""
    n = len(coefficients)
    terms = {}
    for j, c in enumerate(coefficients):
        if c:
            exps = [0] * (2 * n)
            exps[j] = exps[n + j] = 1
            terms[tuple(exps)] = c
    return TruncatedElement(ctx, terms)


def cotangent_context(b, order: int = 4, invertible=()) -> GradedContext:
    """The dilation-graded coordinate ring of the cotangent bundle: every
    coordinate has weight one, named x1..xn, y1..yn."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    names = [f"x{i + 1}" for i in range(b.n)] + [f"y{i + 1}" for i in range(b.n)]
    inv = tuple(invertible)
    for name in inv:
        if name not in names:
            raise ValueError(f"unknown coordinate {name}")
    return GradedContext(
        tuple(names),
        tuple(1 for _ in names),
        invertible=inv,
        filtration=tuple(nm for nm in names if nm not in inv),
        order=order,
    )


def cotangent_presentation(ctx: GradedContext, n: int) -> PoissonPresentation:
    """The standard symplectic bracket {x_i, y_i} = 1 of weight -2."""
    table = {(f"x{i + 1}", f"y{i + 1}"): ctx.one() for i in range(n)}
    return PoissonPresentation(ctx, table, degree=-2)


# -- leaves -------------------------------------------------------------------


def _stabilizer_lattice(b: TorusActionMatrix, support) -> IntMatrix:
    """Hermite basis of the cocharacters pairing to zero with every base
    character in the support.  An empty support stands for one zero row,
    whose kernel is every cocharacter, so each lattice is one Smith form."""
    rows = [b.row(i) for i in sorted(support)]
    return IntMatrix(rows or [(0,) * b.m]).kernel_basis()


def _pairings(b: TorusActionMatrix, lattice: IntMatrix) -> list[tuple]:
    """The pairings of the weight rows with a lattice of cocharacters:
    row i holds the pairing of weight row i with each lattice row, so a
    zero row is a coordinate on which the subtorus acts trivially."""
    vecs = lattice.rows
    return [tuple(sum(map(mul, vec, row)) for vec in vecs) for row in b.matrix.rows]


def _fixed_coordinates(pairings) -> tuple:
    """The zero-based coordinates whose rows of a pairing table are zero."""
    return tuple(i for i, p in enumerate(pairings) if not any(p))


def _fixed_rank(b: TorusActionMatrix, fixed) -> tuple[int, bool]:
    """The rank of the fixed weight rows and whether they form a cyclic
    flat (a union of circuits of the row matroid), from one elimination:
    the linear relations among the rows.  A row is a coloop exactly when
    it lies outside the support of every relation.  Cyclic flats are the
    primal form of the coloop-free flats of the Gale dual, and only
    these flats carry leaves."""
    found = relations([dict(enumerate(b.row(i))) for i in fixed])
    supported = set().union(*found)
    return len(fixed) - len(found), len(supported) == len(fixed)


def _covers(flat: tuple, pairings) -> list:
    """The flats of the row matroid that cover a flat, given the pairing
    table of the flat's stabilizer lattice (see _pairings).

    The flat must be closed, its rows exactly the zero rows of the table,
    so each row j outside it pairs with the lattice to a nonzero integer
    vector.  Row k lies in the span of the flat and row j exactly when
    their pairings are parallel, so each cover is the flat plus one class
    of parallel pairings, grouped by primitive form: divided by the gcd,
    first nonzero entry positive."""
    classes: dict = {}
    inside = set(flat)
    for j, p in enumerate(pairings):
        if j in inside:
            continue
        g = gcd(*p)
        if next(x for x in p if x) < 0:
            g = -g
        classes.setdefault(tuple(x // g for x in p), []).append(j)
    return [tuple(sorted(inside.union(cls))) for cls in classes.values()]


def enumerate_leaves(b) -> list[LeafDescriptor]:
    """All symplectic leaves of the hypertoric cone, one per maximal
    parabolic subtorus whose fixed coordinates form a cyclic flat,
    sorted by decreasing dimension.

    The fixed coordinates of a parabolic subtorus are a flat of the row
    matroid, and the subtorus is the stabilizer of its flat.  The walk
    starts at the least flat, the zero rows, and climbs by covers (see
    _covers), so it meets every flat once and computes one kernel
    lattice, one Smith form, and one pairing table (see _pairings) per
    flat.  The table of a flat is checked to fix exactly that flat
    before its covers are read off it, so the recorded subtorus is
    maximal for its leaf; only the cyclic flats carry leaves, those from
    which no fixed coordinate can be dropped to leave another flat."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    ok, witness = check_unimodular(b)
    if not ok:
        raise ValueError(f"the action is not unimodular: minor {witness['minor']} on rows {witness['rows']}")
    least = tuple(i for i in range(b.n) if not any(b.row(i)))
    lattices = {least: _stabilizer_lattice(b, least)}
    todo = [least]
    while todo:
        flat = todo.pop()
        pairings = _pairings(b, lattices[flat])
        # a cover that missed a row of its span (a parallel class split
        # in two) would not be closed: its lattice would fix that row too
        if _fixed_coordinates(pairings) != flat:
            raise InternalError(f"the flat fixing {[i + 1 for i in flat]} is not closed")
        for cover in _covers(flat, pairings):
            if cover not in lattices:
                lattices[cover] = _stabilizer_lattice(b, cover)
                todo.append(cover)
    leaves = []
    for fixed, lat in lattices.items():
        # a fixed coordinate is a coloop exactly when dropping it leaves a
        # flat, and the walk has met every flat
        if any(fixed[:k] + fixed[k + 1:] in lattices for k in range(len(fixed))):
            continue
        flat = [i + 1 for i in range(b.n) if i not in fixed]
        leaves.append(LeafDescriptor(flat, lat, b.m, b.n))
    leaves.sort(key=lambda leaf: (-leaf.leaf_dim, leaf.flat))
    return leaves


def slice_matrix(b, flat) -> IntMatrix:
    """Weights of the parabolic subtorus on the coordinates of its flat,
    written in the Hermite basis of the subtorus lattice."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    flat = tuple(sorted(flat))
    if any(i < 1 or i > b.n for i in flat):
        raise ValueError("flat indices must lie in 1..n")
    fixed = tuple(i for i in range(1, b.n + 1) if i not in flat)
    return _leaf_slice(b, flat, fixed, _stabilizer_lattice(b, [i - 1 for i in fixed]))


def _leaf_slice(b: TorusActionMatrix, flat, fixed, lattice: IntMatrix) -> IntMatrix:
    """The slice matrix of a leaf read off its subtorus lattice: the rows
    of the flat in the lattice's pairing table (see _pairings), whose
    zero rows are the coordinates the lattice fixes.

    The flat and the fixed coordinates (one-based) must split 1..n, and
    the lattice must be a lattice of cocharacters that fixes exactly the
    fixed coordinates, with rank m minus the rank of their rows, which
    must be cyclic; otherwise the flat is not the flat of a leaf."""
    zero_based = tuple(i - 1 for i in fixed)
    if sorted(flat + fixed) == list(range(1, b.n + 1)) and lattice.ncols in (0, b.m):
        pairings = _pairings(b, lattice)
        if _fixed_coordinates(pairings) == zero_based:
            rank, cyclic = _fixed_rank(b, zero_based)
            if cyclic and lattice.nrows == b.m - rank:
                return IntMatrix([pairings[i - 1] for i in flat])
    raise ValueError(f"{list(flat)} is not the flat of a leaf")


# -- charts -------------------------------------------------------------------


def _designation(leaf, nonvanishing) -> tuple[dict, set]:
    """Per-coordinate nonvanishing choices and the set usable for
    inversion.  An explicit dictionary restricts inversion to the listed
    coordinates; omitting it designates every leaf coordinate's base
    half as nonvanishing."""
    if nonvanishing is None:
        usable = set(leaf.fixed)
        designated = {i: "x" for i in leaf.fixed}
    else:
        designated = {}
        for i, side in nonvanishing.items():
            if side not in ("x", "y"):
                raise ValueError(f"designation for {i} must be 'x' or 'y'")
            if i not in leaf.fixed:
                raise ValueError(f"coordinate {i} is not fixed by the subtorus")
            designated[int(i)] = side
        usable = set(designated)
    return designated, usable


def decompose_at(b, leaf, nonvanishing=None) -> DecompositionReport:
    """The equivariant product chart of a leaf at a base point.

    The leaf comes from enumerate_leaves of the same matrix: the slice
    matrix is read off its subtorus lattice, which is not recomputed.  A
    leaf whose lattice does not fix exactly its fixed coordinates, or
    whose fixed rows are not cyclic, is refused as not the flat of a
    leaf.  The sign data says which of the two conjugate coordinates is
    nonzero at the point; the inverted set g is the lexicographically
    first set of usable coordinates on which the quotient torus acts
    faithfully, the greedy basis of their signed rows.  The dressing
    exponents are the unique integers making each remaining coordinate
    invariant, and unimodularity makes them integral."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    designated, usable = _designation(leaf, nonvanishing)
    lattice = leaf.subtorus_lattice
    quotient_dim = b.m - lattice.nrows

    def signed_row(i):
        sign = 1 if designated.get(i, "x") == "x" else -1
        return tuple(sign * w for w in b.row(i - 1))

    slice_mat = _leaf_slice(b, leaf.flat, leaf.fixed, lattice)
    usable = sorted(usable)
    basis, span = _greedy_basis([signed_row(i) for i in usable], quotient_dim)
    g = [usable[k] for k in basis]
    if len(g) < quotient_dim:
        raise ValueError(
            "no invertible coordinate set exists for the given sign data; "
            "the base point does not lie on a free orbit"
        )
    remaining = [i for i in leaf.fixed if i not in g]
    r_rows = []
    weights = {}
    for i in remaining:
        sol, residual = span.express({t: -w for t, w in enumerate(b.row(i - 1))})
        if residual or any(x.denominator != 1 for x in sol.values()):
            raise ValueError(f"no integral dressing exponents for coordinate {i}")
        row = [int(sol.get(k, 0)) for k in basis]
        r_rows.append(row)
        weights[f"x{i}"] = 1 + sum(row)
        weights[f"y{i}"] = 1 - sum(row)
    report = DecompositionReport(
        leaf=leaf,
        g=g,
        designated={i: designated.get(i, "x") for i in leaf.fixed},
        r=IntMatrix(r_rows),
        weights=weights,
        slice_mat=slice_mat,
        hyperplanes=[f"{designated[j]}{j}" for j in g],
    )
    if any(report.weights[f"x{i}"] + report.weights[f"y{i}"] != 2 for i in remaining):
        raise InternalError("each remaining pair must have weights summing to 2")
    return report


# -- symbolic certification ----------------------------------------------------

# The moment components x_j * y_j have J-order 2, so below order 3 they
# truncate to zero and the invariance and elimination checks see nothing.
LEAST_VERIFY_ORDER = 3


def _integer_inverse(v: IntMatrix) -> IntMatrix:
    """The inverse of a unimodular matrix: row k of V^-1 holds the
    coefficients of e_k over V's rows, which exist for every k exactly
    when V is invertible and are integral exactly when V is unimodular."""
    span = Span(dict(enumerate(row)) for row in v.rows)
    inv = []
    for k in range(v.nrows):
        coefficients, residual = span.express({k: 1})
        if residual or any(x.denominator != 1 for x in coefficients.values()):
            raise ValueError("matrix is not unimodular")
        inv.append([coefficients.get(i, 0) for i in range(v.nrows)])
    return IntMatrix(inv)


def _complement_rows(lattice: IntMatrix, m: int) -> IntMatrix:
    """A basis of a complementary lattice: the Smith transform exhibits
    the lattice as the top rows of a unimodular basis, and the bottom
    rows complete it."""
    if lattice.nrows == 0:
        return IntMatrix.identity(m)
    _, d, v = lattice.smith_normal_form()
    if any(d.rows[i][i] != 1 for i in range(lattice.nrows)):
        raise ValueError("the subtorus lattice is not saturated")
    v_inv = _integer_inverse(v)
    return IntMatrix(v_inv.rows[lattice.nrows :]) if lattice.nrows < m else IntMatrix([])


def chart_coordinates(b, report, ctx: GradedContext) -> dict:
    """The dressed invariant coordinates of the leaf factor, by name.
    Each is one monomial: x_i times the product of d_j^r_ij over the
    inverted coordinates j, d_j the designated side of j, and y_i with
    the inverse dressing."""
    remaining = [i for i in report.leaf.fixed if i not in report.g]
    out = {}
    for row, i in zip(report.r.rows, remaining):
        for side, sign in (("x", 1), ("y", -1)):
            exps = [0] * len(ctx.variables)
            exps[ctx.index(f"{side}{i}")] = 1
            for e, j in zip(row, report.g):
                if e:
                    exps[ctx.index(f"{report.designated[j]}{j}")] += sign * e
            out[f"{side}{i}"] = TruncatedElement(ctx, {tuple(exps): 1})
    return out


def verify_decomposition(b, report, order: int = 5) -> dict:
    """Symbolic certification of a chart at the given truncation order,
    at least LEAST_VERIFY_ORDER.

    Checks that the dressed coordinates are torus-invariant (they
    bracket to zero with every moment component), commute with the
    transverse coordinates, satisfy standard Darboux brackets with the
    stated weights, and that the moment equations on the inverted chart
    solve the conjugates of the inverted coordinates by exact
    elimination.  Each coordinate, moment component and transverse
    coordinate has its gradient taken once, and every bracket is formed
    from those gradients.  Returns {"ok": bool, "failures": [...]}."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    order = exact_int(order, "the truncation order")
    if order < LEAST_VERIFY_ORDER:
        raise ValueError(
            f"verification needs truncation order at least {LEAST_VERIFY_ORDER}, got {order}: "
            "below it the moment components truncate to zero"
        )
    failures = []
    ctx = cotangent_context(b, order=order, invertible=tuple(report.hyperplanes))
    bracket = cotangent_presentation(ctx, b.n).bracket_of_gradients
    coords = chart_coordinates(b, report, ctx)
    grads = {name: elem.gradient() for name, elem in coords.items()}
    mu_grads = [comp.gradient() for comp in _moment_components(b, ctx)]
    slice_grads = [
        (f"{side}{f}", ctx.var(f"{side}{f}").gradient())
        for f in report.leaf.flat
        for side in ("x", "y")
    ]

    for name, elem in sorted(coords.items()):
        if elem.weight() != report.weights[name]:
            failures.append(
                {"check": "weights", "detail": f"{name} has weight {elem.weight()}, stated {report.weights[name]}"}
            )
        for t, dmu in enumerate(mu_grads):
            res = bracket(dmu, grads[name])
            if res:
                failures.append(
                    {"check": "invariance", "detail": f"{{mu_{t + 1}, {name}}} = {res}"}
                )
        for var, dvar in slice_grads:
            res = bracket(grads[name], dvar)
            if res:
                failures.append(
                    {"check": "slice-commutation", "detail": f"{{{name}, {var}}} = {res}"}
                )

    remaining = [i for i in report.leaf.fixed if i not in report.g]
    for a_pos, i in enumerate(remaining):
        for l in remaining[a_pos:]:
            expected_xy = ctx.one() if i == l else ctx.zero()
            res = bracket(grads[f"x{i}"], grads[f"y{l}"]) - expected_xy
            if res:
                failures.append(
                    {"check": "darboux", "detail": f"{{x{i}',y{l}'}} != {expected_xy}"}
                )
            if i != l:
                for side in ("x", "y"):
                    res = bracket(grads[f"{side}{i}"], grads[f"{side}{l}"])
                    if res:
                        failures.append(
                            {"check": "darboux", "detail": f"{{{side}{i}',{side}{l}'}} != 0"}
                        )

    failures.extend(_verify_elimination(b, report, ctx))
    return {"ok": not failures, "failures": failures}


def _verify_elimination(b, report, ctx) -> list[dict]:
    """Solve the quotient-torus moment equations for the conjugates of
    the inverted coordinates and substitute back.  The moment component
    of a cocharacter vec is the quadratic whose coefficient on x_j * y_j
    is the pairing of vec with row j."""
    failures = []
    g = report.g
    lattice = report.leaf.subtorus_lattice
    try:
        comp_rows = _complement_rows(lattice, b.m)
    except ValueError as err:
        return [{"check": "elimination", "detail": str(err)}]

    for p in zip(*_pairings(b, lattice)):
        comp = _quadratic(ctx, p)
        outside = [nm for nm in ctx.variables if comp.involves(nm) and int(nm[1:]) not in report.leaf.flat]
        if outside:
            failures.append(
                {"check": "elimination", "detail": f"a subtorus moment component involves {outside}"}
            )
    if not g:
        return failures
    comp_pairings = list(zip(*_pairings(b, comp_rows)))
    pairing = IntMatrix([[p[j - 1] for j in g] for p in comp_pairings])
    pairing_det = pairing.det()
    if pairing_det not in (-1, 1):
        failures.append(
            {"check": "elimination", "detail": f"the elimination matrix has determinant {pairing_det}"}
        )
        return failures
    inv = _integer_inverse(pairing)
    rests = [_quadratic(ctx, [0 if j + 1 in g else c for j, c in enumerate(p)]) for p in comp_pairings]
    subs = {}
    for s, j in enumerate(g):
        product = ctx.zero()
        for t in range(len(rests)):
            if inv.rows[s][t]:
                product = product - inv.rows[s][t] * rests[t]
        solved_name = f"y{j}" if report.designated[j] == "x" else f"x{j}"
        subs[solved_name] = product * ctx.var(report.hyperplanes[s], -1)
    powers = {}
    for p in comp_pairings:
        res = _quadratic(ctx, p).subs(subs, powers=powers)
        if res:
            failures.append(
                {"check": "elimination", "detail": f"moment residue {res} after elimination"}
            )
    return failures
