"""Symplectic leaves and slice data of finite linear quotient cones.

A finite group acting linearly on a symplectic vector space, with matrix
entries in a cyclotomic field, gives a quotient cone whose symplectic
leaves are indexed by the parabolic subgroups: the pointwise stabilizers
of points of the vector space.  Each leaf is the free locus of the fixed
space of its parabolic, quotiented by the residual action of the
normalizer, and the transverse slice is the quotient of the symplectic
complement of the fixed space by the parabolic itself.  The parabolics
are read off the intersection lattice of the element fixed spaces, each
space kept as the reduced basis of its annihilator (the rows of g - 1):
a meet is a union of rows, and a meet that leaves a space unchanged
names elements of its stabilizer.

All arithmetic is exact over the cyclotomic field of the input, so every
reported subspace, projection, and pairing is certified by construction
rather than approximated.  The conic weight of a leaf is two exactly
when minus the identity acts on the fixed space through the residual
group, the only case where the dilation character of the slice halves.

The commutator data of the graded deformations supported by such a cone
is recorded by the symplectic reflections of the group: the elements
moving only a two-dimensional subspace.  Each reflection contributes its
own skew pairing, the symplectic form restricted to the moved plane, and
reflections share a deformation parameter exactly when they are
conjugate.
"""

from __future__ import annotations

from array import array
from itertools import combinations

from .linalg import Echelon, Span, rank, relations
from .scalars import CycloField, CycloNumber, InternalError, as_scalar, quo

Matrix = tuple[tuple[CycloNumber, ...], ...]
Vector = tuple[CycloNumber, ...]


def _vector(field: CycloField, entries) -> Vector:
    """Entries as scalars of the field; an entry of another cyclotomic
    field is refused, since no embedding between fields is implied."""
    for x in entries:
        if type(x) is CycloNumber and x.field is not field:
            raise ValueError(
                f"an entry of cyclotomic order {x.field.order} does not lie "
                f"in the field of cyclotomic order {field.order}"
            )
    return tuple(as_scalar(x, field) for x in entries)


def _matrix(field: CycloField, rows) -> Matrix:
    return tuple(_vector(field, r) for r in rows)


def _identity_matrix(field: CycloField, n: int) -> Matrix:
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def _zero(a: Matrix):
    """The zero of the field of a matrix's entries; the integer 0 when
    the matrix has no entries, so carries no field."""
    for row in a:
        for x in row:
            return x.field.zero()
    return 0


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a times b, forming only products of two nonzero entries: each row
    of b is read once for its nonzero (column, entry) pairs, and each
    nonzero entry of a row of a scales the pairs of its row of b."""
    width = len(b[0]) if b else 0
    zero = _zero(b)
    pairs = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * width
        for x, bk in zip(row, pairs):
            if x:
                for j, y in bk:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _mat_vec(a: Matrix, v) -> Vector:
    """a times v, forming only products of two nonzero entries."""
    zero = _zero(a)
    pairs = [(k, c) for k, c in enumerate(v) if c]
    out = []
    for row in a:
        total = zero
        for k, c in pairs:
            x = row[k]
            if x:
                total += x * c
        out.append(total)
    return tuple(out)


def _transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def _pairing(omega: Matrix, x, y):
    """x . omega y, forming the entries of omega y only where x is
    nonzero."""
    support = [i for i, xi in enumerate(x) if xi]
    total = _zero(omega)
    for i, wi in zip(support, _mat_vec([omega[i] for i in support], y)):
        if wi:
            total += x[i] * wi
    return total


def _matrix_json(a: Matrix) -> list[list[str]]:
    return [[repr(x) for x in row] for row in a]


def _close(ident: Matrix, gens, cap: int) -> tuple[dict, tuple[array, ...]]:
    """The breadth-first closure of the generators from the identity:
    the index of each element, in closure order, and the rows of the
    multiplication table, row i listing i*j by j.

    Each product h*g_k of an element and a generator is formed once.  It
    fills row h of right multiplication by the generators and, when it
    is new, writes the new element j as h times g_k; then i*j is
    (i*h)*g_k, one lookup once row i holds i*h."""
    index = {ident: 0}
    elements = [ident]
    right = []
    steps = []
    for h, a in enumerate(elements):  # the list grows as it is walked
        row = []
        for k, g in enumerate(gens):
            p = _mat_mul(a, g)
            j = index.setdefault(p, len(elements))
            if j == len(elements):
                elements.append(p)
                steps.append((j, h, k))
                if len(elements) > cap:
                    raise ValueError(
                        f"group closure exceeded {cap} elements; the "
                        "generators may not generate a finite group"
                    )
            row.append(j)
        right.append(row)
    n = len(elements)
    rows = []
    for i in range(n):
        row = [i] * n
        for j, h, k in steps:
            row[j] = right[row[h]][k]
        rows.append(array("I", row))
    return index, tuple(rows)


class GroupData:
    """A finite matrix group preserving an exact symplectic form, closed
    from its generating matrices.

    One breadth-first pass from the identity forms each product of an
    element and a generator once; it fixes the element order (the
    closure order, so it is deterministic) and yields the Cayley table
    of element indices, from which products and inverses are read.  The
    generators are checked to preserve the form, which makes every
    element preserve it, since the arithmetic is exact.  The closure
    aborts once it exceeds `cap` elements, the sign that the generators
    do not generate a finite group.  `generators` holds the element
    indices of the generating matrices, the identity is element 0, and
    conjugacy classes are sorted index tuples."""

    def __init__(self, field: CycloField, omega, generators, cap: int = 512):
        self.field = field
        self.omega = _matrix(field, omega)
        self.dim = len(self.omega)
        if self.dim % 2 != 0:
            raise ValueError("the symplectic space must be even dimensional")
        if any(len(r) != self.dim for r in self.omega):
            raise ValueError("the symplectic form must be a square matrix")
        if _transpose(self.omega) != tuple(
            tuple(-x for x in row) for row in self.omega
        ):
            raise ValueError("the symplectic form must be skew")
        if rank([list(r) for r in self.omega]) != self.dim:
            raise ValueError("the symplectic form must be nondegenerate")
        gens = [_matrix(field, g) for g in generators]
        for i, g in enumerate(gens):
            if len(g) != self.dim or any(len(r) != self.dim for r in g):
                raise ValueError(f"generator {i} does not match the form size")
            if _mat_mul(_mat_mul(_transpose(g), self.omega), g) != self.omega:
                raise ValueError(f"generator {i} does not preserve the form")
        ident = _identity_matrix(field, self.dim)
        self._index, self._table = _close(ident, gens, cap)
        self.elements: tuple[Matrix, ...] = tuple(self._index)
        self.identity = 0
        self.generators = tuple(self._index[g] for g in gens)
        self._inverse = tuple(row.index(self.identity) for row in self._table)
        self.classes = self._conjugacy_classes()
        self._annihilator: dict[int, tuple[Vector, ...]] = {}

    def _conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        classes = []
        for i in range(self.order):
            if i in seen:
                continue
            orbit = {
                self.multiply(self.multiply(h, i), self.inverse(h))
                for h in range(self.order)
            }
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        return tuple(sorted(classes))

    @property
    def order(self) -> int:
        return len(self.elements)

    def element(self, i: int) -> Matrix:
        return self.elements[i]

    def index(self, g: Matrix) -> int:
        if g not in self._index:
            raise ValueError("the matrix is not a group element")
        return self._index[g]

    def multiply(self, i: int, j: int) -> int:
        return self._table[i][j]

    def inverse(self, i: int) -> int:
        return self._inverse[i]

    def _moved_rows(self, i: int) -> list[list]:
        """Rows of g - 1 for one element g: its fixed space is their
        kernel and its moved space their column span."""
        g = self.elements[i]
        return [
            [g[r][c] - (1 if r == c else 0) for c in range(self.dim)]
            for r in range(self.dim)
        ]

    def annihilator(self, i: int) -> tuple[Vector, ...]:
        """Reduced basis of the row space of g - 1 for one element g: the
        annihilator of its fixed space, empty for the identity."""
        if i not in self._annihilator:
            self._annihilator[i] = _reduced_basis(self.field, self._moved_rows(i))
        return self._annihilator[i]

    def fixed_space(self, i: int) -> tuple[Vector, ...]:
        """Reduced basis of the fixed space of one element."""
        return _kernel(self.field, self.annihilator(i), self.dim)

    def as_json(self) -> dict:
        return {
            "cyclotomic_order": self.field.order,
            "dim": self.dim,
            "order": self.order,
            "omega": _matrix_json(self.omega),
            "generators": list(self.generators),
            "elements": [_matrix_json(g) for g in self.elements],
            "classes": [list(c) for c in self.classes],
        }

    def __repr__(self):
        return (
            f"GroupData(order={self.order}, dim={self.dim}, "
            f"cyclotomic_order={self.field.order})"
        )


def close_group(generators, omega, field: CycloField | None = None,
                cap: int = 512) -> GroupData:
    """Close a generating set of exact symplectic matrices into a group.

    The field defaults to the field of the first cyclotomic entry, or
    to the rationals when every entry is an integer or Fraction; an
    entry of another cyclotomic field is refused.  The closure and its
    `cap` are those of `GroupData`."""
    if field is None:
        field = next(
            (x.field for g in generators for row in g for x in row
             if isinstance(x, CycloNumber)),
            CycloField(1),
        )
    return GroupData(field, omega, generators, cap)


def _basis(field: CycloField, rows, keys) -> tuple[Vector, ...]:
    """Dense vectors of sparse echelon rows, read at the given keys, each
    missing key padded with the one field zero."""
    zero = field.zero()
    return tuple(_vector(field, [row.get(k, zero) for k in keys]) for row in rows)


def _reduced_basis(field: CycloField, vectors) -> tuple[Vector, ...]:
    """Canonical (reduced echelon) basis of a span, empty for the zero
    space."""
    echelon = Echelon()
    for v in vectors:
        echelon.insert(dict(enumerate(v)))
    dim = len(vectors[0]) if vectors else 0
    return _basis(field, (row for _, row in echelon.items()), range(dim))


def _kernel(field: CycloField, rows, dim: int) -> tuple[Vector, ...]:
    """Reduced basis of {x : rows @ x == 0}, the whole space when there
    are no rows: the relations among the columns."""
    columns = [
        {r: row[j] for r, row in enumerate(rows) if row[j]}
        for j in range(dim)
    ]
    return _basis(field, relations(columns), range(dim))


def _coordinates(basis, vectors) -> list:
    """Coordinates of each vector in an independent basis, or None for a
    vector off its span."""
    span = Span(dict(enumerate(v)) for v in basis)
    out = []
    for w in vectors:
        coefficients, residual = span.express(dict(enumerate(w)))
        out.append(None if residual else [coefficients.get(t, 0) for t in range(len(basis))])
    return out


def _contains(space, vectors) -> bool:
    return None not in _coordinates(space, vectors)


def _omega_perp(field: CycloField, omega: Matrix,
                space) -> tuple[Vector, ...]:
    """Symplectic orthogonal complement of a span."""
    return _kernel(field, [_mat_vec(omega, w) for w in space], len(omega))


class ParabolicRecord:
    """One parabolic subgroup with the geometry of its leaf.

    The subgroup is the pointwise stabilizer of its own fixed space, the
    leaf closure is the quotient of that fixed space by the residual
    action of the normalizer, and the slice direction is the symplectic
    complement.  The fixed space and its complement always pair into a
    direct sum with both pieces symplectic; this is re-checked exactly
    on construction."""

    def __init__(self, group: GroupData, subgroup):
        self.group = group
        self.subgroup = tuple(sorted(subgroup))
        field, dim = group.field, group.dim
        # the fixed space is cut out by the subgroup's distinct annihilators
        rows = dict.fromkeys(group.annihilator(i) for i in self.subgroup)
        fixed = _kernel(field, [r for a in rows for r in a], dim)
        self.fixed_basis = fixed
        self.perp_basis = _omega_perp(field, group.omega, fixed)
        together = [list(v) for v in fixed + self.perp_basis]
        if len(together) != dim or rank(together) != dim:
            raise InternalError("the fixed space of a parabolic must be symplectic")
        members = set(self.subgroup)
        self.normalizer = tuple(
            h for h in range(group.order)
            if {group.multiply(group.multiply(h, i), group.inverse(h))
                for i in self.subgroup} == members
        )
        self.residual_order = len(self.normalizer) // len(self.subgroup)
        self.leaf_dim = len(fixed)

    def as_json(self) -> dict:
        return {
            "subgroup": list(self.subgroup),
            "subgroup_order": len(self.subgroup),
            "leaf_dim": self.leaf_dim,
            "fixed_basis": [[repr(x) for x in v] for v in self.fixed_basis],
            "perp_basis": [[repr(x) for x in v] for v in self.perp_basis],
            "normalizer_order": len(self.normalizer),
            "residual_order": self.residual_order,
        }

    def __repr__(self):
        return (
            f"ParabolicRecord(order={len(self.subgroup)}, "
            f"leaf_dim={self.leaf_dim})"
        )


def parabolic_subgroups(group: GroupData) -> tuple[ParabolicRecord, ...]:
    """All pointwise stabilizers of points, one record per subgroup.

    Every stabilizer of a point is the stabilizer of a generic point of
    some intersection of element fixed spaces, so the intersection
    lattice of the fixed spaces enumerates the parabolics without
    touching the full subgroup lattice.

    Each space of the lattice is kept as the reduced basis of its
    annihilator, so meeting it with an element's fixed space is the
    reduced basis of the union of their annihilator rows.  The walk
    starts from the whole space (no rows) and meets each space once with
    each class of elements sharing an annihilator: a meet that leaves
    the space unchanged puts the class into the space's stabilizer, and
    any other meet is a space of the lattice."""
    field = group.field
    # elements sharing an annihilator (so a fixed space), in
    # first-element order
    members: dict[tuple, list[int]] = {}
    for i in range(group.order):
        members.setdefault(group.annihilator(i), []).append(i)
    stabilizers: dict[tuple, list[int]] = {(): []}
    frontier = [()]
    while frontier:
        nxt = []
        for space in frontier:
            for rows, elements in members.items():
                meet = _reduced_basis(field, space + rows)
                if meet == space:
                    stabilizers[space].extend(elements)
                elif meet not in stabilizers:
                    stabilizers[meet] = []
                    nxt.append(meet)
        frontier = nxt
    # distinct spaces of the lattice are the fixed spaces of distinct
    # subgroups, so each stabilizer is recorded once
    return tuple(
        sorted(
            (ParabolicRecord(group, stab) for stab in stabilizers.values()),
            key=lambda r: (-r.leaf_dim, r.subgroup),
        )
    )


class SRAData:
    """Symplectic reflections of the group with their skew pairings.

    A reflection moves exactly a two-dimensional subspace; its pairing
    is the symplectic form compressed to that moved plane, so it kills
    the fixed space and agrees with the form on the moved plane.  The
    deformation parameters are one for the symplectic form itself and
    one per conjugacy class of reflections, in class order."""

    def __init__(self, group: GroupData):
        self.group = group
        self.reflections = tuple(
            i for i in range(group.order)
            if len(group.annihilator(i)) == 2
        )
        inside = set(self.reflections)
        self.classes = tuple(
            c for c in group.classes if set(c) <= inside
        )
        if sum(len(c) for c in self.classes) != len(self.reflections):
            raise InternalError("conjugation must preserve the reflection set")
        self.param_of = {
            s: f"c{k + 1}" for k, c in enumerate(self.classes) for s in c
        }
        self.params = ("hbar",) + tuple(
            f"c{k + 1}" for k in range(len(self.classes))
        )
        self.omega_s = {s: self._compressed_form(s) for s in self.reflections}

    def _compressed_form(self, s: int) -> Matrix:
        """The pairing of a reflection in closed form.  With m1, m2 the
        first pair of columns of s - 1 that pair to c = omega(m1, m2) != 0,
        omega_s(x, y) = (omega(x, m1) omega(y, m2) - omega(x, m2) omega(y, m1)) / c.
        This is omega on the projections of x and y onto the moved plane
        along the fixed space, since a form-preserving s has its fixed
        space omega-orthogonal to its moved plane."""
        omega = self.group.omega
        columns = _transpose(self.group._moved_rows(s))
        for m1, m2 in combinations(columns, 2):
            c = _pairing(omega, m1, m2)
            if c:
                break
        else:
            raise InternalError("a reflection must split the space into fixed plus moved")
        # entry i of omega m is omega(e_i, m); v1 is omega(., m1) / c
        u2 = _mat_vec(omega, m2)
        inv = quo(1, c)
        v1 = tuple(x * inv if x else x for x in _mat_vec(omega, m1))
        zero = _zero(omega)

        def entry(i, j):
            # v1[i] u2[j] - u2[i] v1[j], forming only products of two
            # nonzero entries
            total = zero
            if v1[i] and u2[j]:
                total += v1[i] * u2[j]
            if u2[i] and v1[j]:
                total -= u2[i] * v1[j]
            return total

        dim = len(omega)
        out = tuple(tuple(entry(i, j) for j in range(dim)) for i in range(dim))
        if _transpose(out) != tuple(tuple(-x for x in row) for row in out):
            raise InternalError("a compressed symplectic form must stay skew")
        return out

    def as_json(self) -> dict:
        return {
            "reflections": list(self.reflections),
            "classes": [list(c) for c in self.classes],
            "params": list(self.params),
            "omega_s": {
                str(s): _matrix_json(m) for s, m in self.omega_s.items()
            },
        }

    def __repr__(self):
        return (
            f"SRAData(reflections={len(self.reflections)}, "
            f"classes={len(self.classes)})"
        )


def symplectic_reflections(group: GroupData) -> SRAData:
    """Reflection data of the group: the elements moving a plane."""
    return SRAData(group)


def sra_relation(group: GroupData, sra: SRAData, x, y) -> dict:
    """Commutator of two linear generators in the universal deformation.

    Returns the exact coefficient of each (parameter, group element)
    pair in [x, y]: the symplectic pairing times the central parameter
    on the identity, plus one pairing term per reflection whose
    compressed form does not kill the pair.  Zero coefficients are
    omitted, so antisymmetry is literal dictionary negation."""
    field = group.field
    vx = _vector(field, x)
    vy = _vector(field, y)
    if len(vx) != group.dim or len(vy) != group.dim:
        raise ValueError("the generators must have one entry per dimension")
    out: dict[tuple[str, int], CycloNumber] = {}
    top = _pairing(group.omega, vx, vy)
    if top:
        out[("hbar", group.identity)] = top
    for s in sra.reflections:
        c = _pairing(sra.omega_s[s], vx, vy)
        if c:
            out[(sra.param_of[s], s)] = c
    return out


def _line_stabilizer_order(group: GroupData, v: Vector) -> int:
    """Number of scalars through which group elements rescale the line
    of a nonzero vector.  The pivot entry is inverted once per call, and
    no product has a zero factor: an image with a zero pivot entry is
    not a multiple of v (an invertible g maps v to a nonzero vector),
    and a zero entry of v asks its image entry to be zero."""
    pivot = next(i for i, x in enumerate(v) if x)
    inv = quo(1, v[pivot])
    scalars = set()
    for g in group.elements:
        w = _mat_vec(g, v)
        if not w[pivot]:
            continue
        lam = w[pivot] * inv
        if all(wi == lam * vi if vi else not wi for wi, vi in zip(w, v)):
            scalars.add(lam)
    return len(scalars)


def _restrict(group: GroupData, i: int, basis) -> Matrix:
    """Matrix of one element in the coordinates of an invariant basis."""
    g = group.element(i)
    cols = _coordinates(basis, [_mat_vec(g, b) for b in basis])
    if None in cols:
        raise ValueError("the subspace is not invariant under the group")
    return _matrix(group.field, _transpose(cols))


def leaf_slice_data(group: GroupData, record: ParabolicRecord, v,
                    lagrangian=None) -> dict:
    """Slice data of one leaf at one base point of its fixed space.

    The base point must be nonzero with stabilizer exactly the recorded
    parabolic; this is checked and a mismatch is an error, since a
    special point sits on a smaller leaf.  In particular the vertex
    leaf of a nontrivial group has no valid base point: only zero is
    fixed by everything.  The report carries the slice group written in
    the coordinates of the symplectic complement, the conic weight of
    the leaf (two exactly when minus the identity acts on the fixed
    space through the residual group), and separately the number of
    scalars through which the whole group rescales the base line, which
    is meaningful even at special points of other leaves.

    An optional lagrangian, a basis of a subspace, adds a flag telling
    whether the group preserves it, the case where the quotient is a
    cotangent cone up to finite cover."""
    field = group.field
    vv = _vector(field, v)
    if len(vv) != group.dim:
        raise ValueError("the base point must have one entry per dimension")
    if lagrangian is not None and any(len(w) != group.dim for w in lagrangian):
        raise ValueError("each lagrangian vector must have one entry per dimension")
    if not any(vv):
        raise ValueError("the base point must be nonzero")
    stab = tuple(
        sorted(
            i for i in range(group.order)
            if _mat_vec(group.element(i), vv) == vv
        )
    )
    if stab != record.subgroup:
        raise ValueError(
            f"the base point has stabilizer of order {len(stab)}, not the "
            f"recorded parabolic of order {len(record.subgroup)}"
        )
    if not _contains(record.fixed_basis, [vv]):
        raise InternalError("a point with the recorded stabilizer lies in its fixed space")

    slice_group = [_restrict(group, i, record.perp_basis)
                   for i in record.subgroup]
    seen = set(slice_group)
    for a in slice_group:
        for b in slice_group:
            if _mat_mul(a, b) not in seen:
                raise ValueError("the slice matrices do not close")
    columns = tuple(
        tuple(w[r] for w in record.perp_basis) for r in range(group.dim)
    )
    slice_form = _mat_mul(_mat_mul(_transpose(columns), group.omega), columns)

    minus_on_fixed = any(
        all(
            _mat_vec(group.element(h), w) == tuple(-x for x in w)
            for w in record.fixed_basis
        )
        for h in record.normalizer
    )
    out = {
        "leaf_dim": record.leaf_dim,
        "subgroup_order": len(record.subgroup),
        "normalizer_order": len(record.normalizer),
        "residual_order": record.residual_order,
        "conic_weight": 2 if minus_on_fixed else 1,
        "line_stabilizer_order": _line_stabilizer_order(group, vv),
        "slice_dim": len(record.perp_basis),
        "slice_group_order": len(slice_group),
        "slice_group": [_matrix_json(m) for m in slice_group],
        "slice_form": _matrix_json(slice_form),
    }
    if lagrangian is not None:
        basis = _reduced_basis(field, [_vector(field, w) for w in lagrangian])
        preserved = all(
            _contains(basis, [_mat_vec(g, w) for w in basis])
            for g in group.elements
        )
        out["cotangent_cover"] = preserved
    return out
