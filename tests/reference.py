"""References shared by the tests: an independent dense textbook
Gauss-Jordan over Fraction and cyclotomic scalars, for the tests that
check the elimination engine and its callers; the brute-force walk of
hypertoric leaves over every coordinate subset, with unimodularity
from every maximal minor and cyclicity from one rank per dropped row;
the Smith normal form, the kernel lattice read off it, and the lattice
complement taken from the Hermite form of [L^T | I] and inverted by
dense solves; the hypertoric chart with its leaf re-derived from the
flat and its inverted set found by ranking every candidate; the
Poisson bracket as a walk over the whole table and the Jacobi check one generator triple
at a time; the bracket-by-bracket certification of a hypertoric chart;
substitution that raises every variable, mapped or not, to its power
and multiplies the powers; the Fraction-typed form of a scalar, with the
comparison that holds int-first results to the same computation on
Fraction inputs; the Galois conjugate of a group presentation over a
cyclotomic field; the Zassenhaus meet of two spans, and the parabolic
closure built from it, with each lattice space's stabilizer read off by
a containment test per element fixed space; the hbar families with
their rule tables written by hand, the enveloping algebra checking its
structure constants with a loop of its own over every ordered generator
triple; hbar rewriting
letter by letter, every rewrite path of a word followed on its own; the
confluence certificate comparing both reduction orders on every letter
triple; the closure of a quantized slice checked product by product on every ordered
basis pair; the candidate monomials of a quantized slice's weight, found
by walking the whole degree box at every hbar power; the generator search
of a quantized slice multiplying every ordered pool pair in full; and the
compressed
form of a symplectic reflection as a projection onto its moved plane
along its fixed space."""

from fractions import Fraction
from itertools import combinations
from itertools import product as iter_product

from equislice.hypertoric import (
    DecompositionReport,
    LeafDescriptor,
    TorusActionMatrix,
    _designation,
    _stabilizer_lattice,
    _unfaithful,
    cotangent_context,
    cotangent_presentation,
    slice_matrix,
)
from equislice.intmat import IntMatrix, det
from equislice.linalg import Echelon, Span
from equislice.poisson import max_steps
from equislice.quotient import (
    _basis,
    _contains,
    _coordinates,
    _kernel,
    _mat_mul,
    _mat_vec,
    _matrix_json,
    _omega_perp,
    _reduced_basis,
    _transpose,
)
from equislice.quantize import (
    HbarPresentation,
    _charge,
    _element_degree,
    _element_unit_depth,
    _is_laurent_seed,
)
from equislice.scalars import CycloNumber, Q
from equislice.series import TruncatedElement, _add_into, _trusted, sum_of_products


def _reference_rref(rows):
    """Textbook dense Gauss-Jordan: (RREF with zero rows last, pivots)."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _reference_rank(rows):
    return len(_reference_rref(rows)[1])


def _reference_det(rows):
    """Determinant as the signed product of Fraction pivots."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _reference_kernel(rows):
    a, pivots = _reference_rref(rows)
    width = len(rows[0]) if rows else 0
    basis = []
    for f in (f for f in range(width) if f not in pivots):
        v = [Fraction(int(j == f)) for j in range(width)]
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        basis.append(v)
    return basis


def _reference_smith_normal_form(mat):
    """Returns (U, D, V) with U @ mat @ V == D diagonal, U and V
    unimodular, and each diagonal entry dividing the next: the smallest
    entry of the tail block moved to the corner, its row and column
    cleared by division, repeated until the corner divides the block."""
    a = [list(r) for r in mat.rows]
    n, m = mat.nrows, mat.ncols
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_sub(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for k in range(min(n, m)):
        while True:
            best = None
            for i in range(k, n):
                for j in range(k, m):
                    if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != k:
                row_swap(k, best[0])
            if best[1] != k:
                col_swap(k, best[1])
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    row_sub(i, k, a[i][k] // a[k][k])
                    dirty = dirty or bool(a[i][k])
            for j in range(k + 1, m):
                if a[k][j]:
                    col_sub(j, k, a[k][j] // a[k][k])
                    dirty = dirty or bool(a[k][j])
            if dirty:
                continue
            fix = next(
                (i for i in range(k + 1, n) for j in range(k + 1, m) if a[i][j] % a[k][k]), None
            )
            if fix is None:
                break
            row_sub(k, fix, -1)
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
    return IntMatrix(u), IntMatrix(a), IntMatrix(v)


def _reference_smith_kernel(mat):
    """The Hermite basis of the integer kernel read off the Smith form:
    the columns of V past the rank span the kernel."""
    _, d, v = _reference_smith_normal_form(mat)
    rank = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i])
    basis = v.transpose().rows[rank:]
    return IntMatrix(basis).hermite_normal_form() if basis else IntMatrix([])


def _reference_complement(lattice, m):
    """The complement of hypertoric._complement_rows, from the Hermite
    form of [L^T | I_m] built here and inverted by dense reference
    solves."""
    if lattice.nrows and lattice.ncols != m:
        raise ValueError(f"the subtorus lattice has width {lattice.ncols}, not {m}")
    r = lattice.nrows
    h = IntMatrix(
        [[row[k] for row in lattice.rows] + [int(j == k) for j in range(m)] for k in range(m)]
    ).hermite_normal_form()
    if r > m or any(h.rows[i][i] != 1 for i in range(r)):
        raise ValueError("the subtorus lattice is not saturated")
    u = IntMatrix([row[r:] for row in h.rows])
    return IntMatrix(_reference_integer_inverse(u).transpose().rows[r:])


def _reference_solve(rows, b):
    if not rows:
        return []
    width = len(rows[0])
    a, pivots = _reference_rref([list(r) + [y] for r, y in zip(rows, b)])
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for i, c in enumerate(pivots):
        x[c] = a[i][width]
    return x


def _reference_check_unimodular(b):
    """Unimodularity by the scan over every maximal minor, one Bareiss
    determinant each, in combinations order: the first minor outside
    {0, 1, -1} is the witness, and a matrix with no nonzero minor is
    refused as unfaithful."""
    matrix = b.matrix if isinstance(b, TorusActionMatrix) else IntMatrix(b)
    rows = matrix.rows
    if not rows:
        raise _unfaithful(matrix)
    faithful = False
    for sel in combinations(range(len(rows)), matrix.ncols):
        minor = det([rows[i] for i in sel])
        if minor not in (-1, 0, 1):
            return False, {"rows": [i + 1 for i in sel], "minor": minor}
        faithful = faithful or minor != 0
    if not faithful:
        raise _unfaithful(matrix)
    return True, None


def _reference_is_cyclic(b, fixed):
    """Whether every fixed weight row lies in the span of the other fixed
    rows, by |fixed| + 1 ranks."""
    rows = [b.row(i) for i in fixed]
    full = IntMatrix(rows).rank()
    return all(
        IntMatrix(rows[:k] + rows[k + 1 :]).rank() == full for k in range(len(rows))
    )


def _reference_leaves(b):
    """The leaves by brute force: one kernel lattice per coordinate
    subset, 2**n in all, deduplicated by Hermite basis, each lattice's
    fixed coordinates found by pairing it with every weight row."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    ok, witness = _reference_check_unimodular(b)
    if not ok:
        raise ValueError(f"the action is not unimodular: minor {witness['minor']} on rows {witness['rows']}")
    lattices = {}
    for size in range(b.n + 1):
        for support in combinations(range(b.n), size):
            lat = _stabilizer_lattice(b, support)
            lattices[lat.rows] = lat
    leaves = []
    for lat in lattices.values():
        fixed = tuple(
            i
            for i in range(b.n)
            if all(sum(c * w for c, w in zip(vec, b.row(i))) == 0 for vec in lat.rows)
        )
        # the kernel over the full fixed locus reproduces the lattice, so
        # each recorded subtorus is the maximal one for its flat
        assert _stabilizer_lattice(b, fixed).rows == lat.rows
        if not _reference_is_cyclic(b, fixed):
            continue
        flat = [i + 1 for i in range(b.n) if i not in fixed]
        leaves.append(LeafDescriptor(flat, lat, b.m, b.n))
    leaves.sort(key=lambda leaf: (-leaf.leaf_dim, leaf.flat))
    return leaves


def _reference_moment_map(b, ctx):
    """One quadratic per torus factor, as sums of products of variables."""
    out = []
    for t in range(b.m):
        comp = ctx.zero()
        for j in range(b.n):
            if b.row(j)[t]:
                comp = comp + b.row(j)[t] * ctx.var(f"x{j + 1}") * ctx.var(f"y{j + 1}")
        out.append(comp)
    return out


def _reference_integer_inverse(v):
    """The inverse of a unimodular matrix, one dense reference solve per
    column."""
    cols = []
    for j in range(v.nrows):
        unit = [1 if i == j else 0 for i in range(v.nrows)]
        sol = _reference_solve(v.rows, unit)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("matrix is not unimodular")
        cols.append([int(x) for x in sol])
    return IntMatrix(cols).transpose()


def _reference_decompose_at(b, leaf, nonvanishing=None):
    """The chart with its leaf re-derived from the flat by slice_matrix
    (a second kernel lattice) and the inverted set found by ranking every
    candidate set of usable coordinates in combinations order."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    designated, usable = _designation(leaf, nonvanishing)
    quotient_dim = b.m - leaf.subtorus_lattice.nrows

    def signed_row(i):
        sign = 1 if designated.get(i, "x") == "x" else -1
        return tuple(sign * w for w in b.row(i - 1))

    g = next(
        (cand for cand in combinations(sorted(usable), quotient_dim)
         if quotient_dim == 0 or IntMatrix([signed_row(i) for i in cand]).rank() == quotient_dim),
        None,
    )
    if g is None:
        raise ValueError("no invertible coordinate set exists for the given sign data")
    remaining = [i for i in leaf.fixed if i not in g]
    span = Span(dict(enumerate(signed_row(j))) for j in g)
    r_rows, weights = [], {}
    for i in remaining:
        sol, residual = span.express({t: -w for t, w in enumerate(b.row(i - 1))})
        if residual or any(x.denominator != 1 for x in sol.values()):
            raise ValueError(f"no integral dressing exponents for coordinate {i}")
        row = [int(sol.get(k, 0)) for k in range(len(g))]
        r_rows.append(row)
        weights[f"x{i}"] = 1 + sum(row)
        weights[f"y{i}"] = 1 - sum(row)
    return DecompositionReport(
        leaf=leaf,
        g=g,
        designated={i: designated.get(i, "x") for i in leaf.fixed},
        r=IntMatrix(r_rows),
        weights=weights,
        slice_mat=slice_matrix(b, leaf.flat),
        hyperplanes=[f"{designated[j]}{j}" for j in g],
    )


def _reference_chart(report, ctx):
    """Each dressed coordinate as a product of one variable power at a time."""
    remaining = [i for i in report.leaf.fixed if i not in report.g]
    out = {}
    for row, i in zip(report.r.rows, remaining):
        for side, sign in (("x", 1), ("y", -1)):
            elem = ctx.var(f"{side}{i}")
            for e, j in zip(row, report.g):
                if e:
                    elem = elem * ctx.var(f"{report.designated[j]}{j}", sign * e)
            out[f"{side}{i}"] = elem
    return out


def _reference_subs(f, images, target=None, powers=None):
    """f with images substituted: every variable of a term, mapped or
    not, raised to its power (an unmapped one as the target's own
    generator), and the powers multiplied, each cached by (name,
    exponent) in powers."""
    if target is None:
        some = next(iter(images.values()), None)
        target = some.ctx if some is not None else f.ctx
    if powers is None:
        powers = {}

    def image_power(name, e):
        key = (name, e)
        got = powers.get(key)
        if got is None:
            if e == -1:
                got = image_power(name, 1).invert_unit()
            elif e < 0:
                got = image_power(name, -1) ** -e
            else:
                base = images.get(name)
                if base is None:
                    base = target.var(name)
                elif base.ctx is not target and not (
                    base.ctx.same_variables(target) and base.ctx.order == target.order
                ):
                    raise ValueError("an image lives outside the target context")
                got = base ** e
            powers[key] = got
        return got

    out = {}
    const_key = (0,) * len(target.variables)
    for exps, c in sorted(f.terms.items()):
        term = None
        for name, e in zip(f.ctx.variables, exps):
            if e:
                p = image_power(name, e)
                term = p if term is None else term * p
        if term is None:
            _add_into(out, [(const_key, c)])
        else:
            _add_into(out, [(k, c * v) for k, v in term.terms.items()])
    return _trusted(target, out)


def _reference_bracket(pres, f, g):
    """{f, g} by a walk over every table entry, taking both gradients
    afresh: sum_{i<j} T_ij * (f_i g_j - f_j g_i), reduced modulo the
    relations."""
    if not f.ctx.same_variables(pres.ctx) or not g.ctx.same_variables(pres.ctx):
        raise ValueError("elements live in a different context")
    df, dg = f.gradient(), g.gradient()
    products = []
    for (i, j), t_ij in pres._table.items():
        fi, fj, gi, gj = df.get(i), df.get(j), dg.get(i), dg.get(j)
        # a missing partial is zero, and so is its product
        pairs = []
        if fi is not None and gj is not None:
            pairs.append((fi, gj))
        if fj is not None and gi is not None:
            pairs.append((-fj, gi))
        if pairs:
            term = sum_of_products(pairs[0][0].ctx, pairs)
            if term:
                products.append((t_ij, term))
    return pres.reduce(sum_of_products(pres.ctx, products))


def _reference_jacobi(pres, certified_only=False):
    """The Jacobiator of every generator triple, each of its three
    brackets by _reference_bracket, then {relation, generator} for every
    pair; the records of PoissonPresentation.check_jacobi, in its order
    and with its texts."""
    cutoff = None
    if certified_only and pres.ctx.filtration:
        cutoff = pres.ctx.order - 1
    names = pres.ctx.variables
    out = []
    n = len(names)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = names[i], names[j], names[k]
                jac = (
                    _reference_bracket(pres, pres.ctx.var(a), pres.entry(b, c))
                    + _reference_bracket(pres, pres.ctx.var(b), pres.entry(c, a))
                    + _reference_bracket(pres, pres.ctx.var(c), pres.entry(a, b))
                )
                jac = pres.reduce(jac)
                if cutoff is not None and jac:
                    jac = jac - jac.jtail(cutoff)
                if jac:
                    out.append({"kind": "jacobi", "triple": [a, b, c], "residue": str(jac)})
    for r_idx, rel in enumerate(pres.relations):
        for name in names:
            res = pres.reduce(_reference_bracket(pres, rel, pres.ctx.var(name)))
            if cutoff is not None and res:
                res = res - res.jtail(cutoff)
            if res:
                out.append(
                    {"kind": "relation", "relation": r_idx, "generator": name, "residue": str(res)}
                )
    return out


def _reference_verify(b, report, order):
    """The chart certification one bracket at a time, each bracket taking
    both gradients afresh, with the moment map built in the uninverted
    context and substituted across; the failures in the same order and
    with the same texts as hypertoric.verify_decomposition."""
    b = b if isinstance(b, TorusActionMatrix) else TorusActionMatrix(b)
    failures = []
    ctx = cotangent_context(b, order=order, invertible=tuple(report.hyperplanes))
    pres = cotangent_presentation(ctx, b.n)
    mu = [comp.subs({}, target=ctx) for comp in _reference_moment_map(b, cotangent_context(b, order=order))]
    coords = _reference_chart(report, ctx)
    for name, elem in sorted(coords.items()):
        if elem.weight() != report.weights[name]:
            failures.append(
                {"check": "weights", "detail": f"{name} has weight {elem.weight()}, stated {report.weights[name]}"}
            )
        for t, comp in enumerate(mu):
            res = _reference_bracket(pres, comp, elem)
            if res:
                failures.append({"check": "invariance", "detail": f"{{mu_{t + 1}, {name}}} = {res}"})
        for f in report.leaf.flat:
            for side in ("x", "y"):
                res = _reference_bracket(pres, elem, ctx.var(f"{side}{f}"))
                if res:
                    failures.append({"check": "slice-commutation", "detail": f"{{{name}, {side}{f}}} = {res}"})
    remaining = [i for i in report.leaf.fixed if i not in report.g]
    for a_pos, i in enumerate(remaining):
        for l in remaining[a_pos:]:
            expected_xy = ctx.one() if i == l else ctx.zero()
            if _reference_bracket(pres, coords[f"x{i}"], coords[f"y{l}"]) - expected_xy:
                failures.append({"check": "darboux", "detail": f"{{x{i}',y{l}'}} != {expected_xy}"})
            if i != l:
                for side in ("x", "y"):
                    if _reference_bracket(pres, coords[f"{side}{i}"], coords[f"{side}{l}"]):
                        failures.append({"check": "darboux", "detail": f"{{{side}{i}',{side}{l}'}} != 0"})
    failures.extend(_reference_elimination(b, report, ctx, mu))
    return {"ok": not failures, "failures": failures}


def _reference_elimination(b, report, ctx, mu):
    def combine(vec):
        total = ctx.zero()
        for c, comp in zip(vec, mu):
            if c:
                total = total + c * comp
        return total

    failures = []
    g = report.g
    lattice = report.leaf.subtorus_lattice
    try:
        comp_rows = _reference_complement(lattice, b.m)
    except ValueError as err:
        return [{"check": "elimination", "detail": str(err)}]
    for vec in lattice.rows:
        comp = combine(vec)
        outside = [nm for nm in ctx.variables if comp.involves(nm) and int(nm[1:]) not in report.leaf.flat]
        if outside:
            failures.append({"check": "elimination", "detail": f"a subtorus moment component involves {outside}"})
    in_flat = [j for j in g if j in report.leaf.flat]
    for j in in_flat:
        failures.append({"check": "elimination", "detail": f"the inverted coordinate {j} lies in the flat"})
    if in_flat or not g:
        return failures
    pairing = IntMatrix(
        [[sum(c * w for c, w in zip(vec, b.row(j - 1))) for j in g] for vec in comp_rows.rows]
    )
    pairing_det = pairing.det()
    if pairing_det not in (-1, 1):
        failures.append({"check": "elimination", "detail": f"the elimination matrix has determinant {pairing_det}"})
        return failures
    inv = _reference_integer_inverse(pairing)
    rests = []
    for vec in comp_rows.rows:
        rest = ctx.zero()
        for j in range(b.n):
            c = sum(cc * w for cc, w in zip(vec, b.row(j)))
            if c and j + 1 not in g:
                rest = rest + c * ctx.var(f"x{j + 1}") * ctx.var(f"y{j + 1}")
        rests.append(rest)
    subs = {}
    for s, j in enumerate(g):
        product = ctx.zero()
        for t in range(len(rests)):
            if inv.rows[s][t]:
                product = product - inv.rows[s][t] * rests[t]
        solved_name = f"y{j}" if report.designated[j] == "x" else f"x{j}"
        subs[solved_name] = product * ctx.var(report.hyperplanes[s], -1)
    for vec in comp_rows.rows:
        res = combine(vec).subs(subs)
        if res:
            failures.append({"check": "elimination", "detail": f"moment residue {res} after elimination"})
    return failures


def as_fractions(c):
    """A scalar with every rational in it a Fraction, the representation
    before the int-first rule; the constructors would turn integral
    Fractions back into ints, so a CycloNumber is built directly."""
    if isinstance(c, CycloNumber):
        return CycloNumber(c.field, tuple(Fraction(x) for x in c.coeffs))
    return Fraction(c)


def rationals(obj):
    """Every rational scalar in a result: coefficients of elements, of
    cyclotomic numbers and of dict values, through lists and tuples."""
    if isinstance(obj, TruncatedElement):
        obj = list(obj.terms.values())
    elif isinstance(obj, CycloNumber):
        obj = obj.coeffs
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from rationals(x)
    else:
        yield obj


def _hashable(obj):
    if isinstance(obj, dict):
        return frozenset((k, _hashable(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_hashable(x) for x in obj)
    return obj


def _printed(obj) -> str:
    # str(dict) would show repr(Fraction(2)), which no report prints
    if isinstance(obj, dict):
        return str(sorted((k, _printed(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return str([_printed(x) for x in obj])
    return str(obj)


def assert_same_result(got, ref):
    """got (from int-first inputs) and ref (from Fraction inputs) agree as
    values, hashes and printed text, and neither holds a float."""
    for result in (got, ref):
        strays = [c for c in rationals(result) if type(c) not in (int, Fraction)]
        assert strays == []
    assert got == ref
    assert hash(_hashable(got)) == hash(_hashable(ref))
    assert _printed(got) == _printed(ref)


def _galois(x, k: int):
    """The image of an exact scalar under the field automorphism
    zeta -> zeta^k of its cyclotomic field (k coprime to the order);
    rationals are fixed."""
    if not isinstance(x, CycloNumber):
        return x
    field = x.field
    return sum((c * field.zeta(i * k) for i, c in enumerate(x.coeffs) if c),
               start=field.zero())


def _galois_conjugate(omega, generators, k: int):
    """The form and generating matrices with zeta -> zeta^k applied to
    every entry: a presentation of an isomorphic group acting on the
    conjugate space."""
    def conj(matrix):
        return tuple(tuple(_galois(x, k) for x in row) for row in matrix)

    return conj(omega), [conj(g) for g in generators]


def _reference_intersect(field, a, b, dim: int):
    """Reduced basis of the intersection of two spans (Zassenhaus).

    The rows (v|v) for v in a and (w|0) for w in b combine to (x+y|x)
    with x in a and y in b, so the combinations with zero left half are
    (0|x) for x in both spans; those are exactly the echelon rows that
    pivot in the right half."""
    echelon = Echelon()
    for v in a:
        echelon.insert({**dict(enumerate(v)), **dict(enumerate(v, dim))})
    for w in b:
        echelon.insert(dict(enumerate(w)))
    meet = (row for p, row in echelon.items() if p >= dim)
    return _basis(field, meet, range(dim, 2 * dim))


def reference_parabolic_subgroups(group) -> list[dict]:
    """The parabolics in two passes: the intersection lattice of the
    element fixed spaces closed under Zassenhaus meets, then each
    space's stabilizer read off as the elements whose fixed space
    contains it.  One entry per subgroup, in the order of
    `parabolic_subgroups`: the subgroup, its fixed space (the lattice
    space, reduced), its symplectic complement, and the `as_json()` its
    record must have."""
    field, dim = group.field, group.dim
    members: dict[tuple, list[int]] = {}
    for i in range(group.order):
        members.setdefault(_kernel(field, group._moved_rows(i), dim), []).append(i)
    spaces = dict.fromkeys(members)
    frontier = list(members)
    while frontier:
        nxt = []
        for space in frontier:
            for fixed in members:
                meet = _reference_intersect(field, space, fixed, dim)
                if meet not in spaces:
                    spaces[meet] = None
                    nxt.append(meet)
        frontier = nxt
    by_subgroup: dict[tuple[int, ...], tuple] = {}
    for space in spaces:
        stab = tuple(sorted(
            i for fixed, elements in members.items()
            if _contains(fixed, space) for i in elements
        ))
        by_subgroup.setdefault(stab, space)
    out = []
    for stab, space in sorted(by_subgroup.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        perp = _omega_perp(field, group.omega, space)
        normalizer = [
            h for h in range(group.order)
            if {group.multiply(group.multiply(h, i), group.inverse(h)) for i in stab} == set(stab)
        ]
        out.append({
            "subgroup": stab,
            "fixed_basis": space,
            "perp_basis": perp,
            "json": {
                "subgroup": list(stab),
                "subgroup_order": len(stab),
                "leaf_dim": len(space),
                "fixed_basis": _matrix_json(space),
                "perp_basis": _matrix_json(perp),
                "normalizer_order": len(normalizer),
                "residual_order": len(normalizer) // len(stab),
            },
        })
    return out


def _reference_compressed_form(group, s: int):
    """The compressed form of a reflection as a projection: the fixed
    space plus a reduced basis of the moved plane is a basis of the
    space, the coordinates of each unit vector in it give the projection
    onto the moved plane along the fixed space, and the form is the
    symplectic form pulled back along that projection."""
    field, dim = group.field, group.dim
    kernel = group.fixed_space(s)
    moved = _reduced_basis(field, _transpose(group._moved_rows(s)))
    basis = list(kernel) + list(moved)
    identity = tuple(tuple(field.one() if i == j else field.zero() for j in range(dim)) for i in range(dim))
    moved_t = _transpose(moved)
    proj_t = [_mat_vec(moved_t, c[len(kernel):]) for c in _coordinates(basis, identity)]
    return _mat_mul(_mat_mul(proj_t, group.omega), _transpose(proj_t))


def _reference_differential_family(n: int, k: int, order: int = 3) -> HbarPresentation:
    """Quantized conic coordinates: invertible t of weight one, its
    conjugate u with [t,u] = hbar*t^(1-k), and n-1 transverse Darboux
    pairs of weights (k, 0) with [z_{2i-1}, z_{2i}] = hbar."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    names = ["t", "u"] + [f"z{i}" for i in range(1, 2 * n - 1)]
    weights = [1, 0] + [k if i % 2 == 1 else 0 for i in range(1, 2 * n - 1)]
    commutators = {("t", "u"): [(1, 1, {"t": 1 - k})]}
    for i in range(1, 2 * n - 1, 2):
        commutators[(f"z{i}", f"z{i + 1}")] = [(1, 1, {})]
    return HbarPresentation(
        names, weights, k, commutators, invertible=("t",), order=order
    )


def _reference_weyl_family(pairs: int, k: int, order: int = 3) -> HbarPresentation:
    """Darboux pairs alone: [z_{2i-1}, z_{2i}] = hbar with weights (k, 0)."""
    if pairs < 1:
        raise ValueError("at least one pair is required")
    names = [f"z{i}" for i in range(1, 2 * pairs + 1)]
    weights = [k if i % 2 == 1 else 0 for i in range(1, 2 * pairs + 1)]
    commutators = {
        (f"z{i}", f"z{i + 1}"): [(1, 1, {})]
        for i in range(1, 2 * pairs + 1, 2)
    }
    return HbarPresentation(names, weights, k, commutators, order=order)


def _reference_enveloping_family(names, constants: dict, weights=None, k: int = 1,
                                 invertible=(), order: int = 3) -> HbarPresentation:
    """Homogenized enveloping algebra: [x_a, x_b] = hbar * (Lie bracket).

    constants maps generator pairs (in declared order) to {name:
    coefficient} rows of the Lie bracket; the constants are validated
    against the Jacobi identity before any rewriting is trusted."""
    names = tuple(names)
    index = {g: i for i, g in enumerate(names)}

    def lie(a: str, b: str) -> dict:
        if (a, b) in constants:
            return {g: Q(c) for g, c in constants[(a, b)].items()}
        if (b, a) in constants:
            return {g: -Q(c) for g, c in constants[(b, a)].items()}
        return {}

    def lie_vec(a: str, vec: dict) -> dict:
        out: dict = {}
        for b, c in vec.items():
            for g, d in lie(a, b).items():
                s = out.get(g, Q(0)) + c * d
                if s:
                    out[g] = s
                else:
                    out.pop(g, None)
        return out

    for a, b, c in iter_product(names, repeat=3):
        total: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for g, d in lie_vec(x, lie(y, z)).items():
                s = total.get(g, Q(0)) + d
                if s:
                    total[g] = s
                else:
                    total.pop(g, None)
        if total:
            raise ValueError(
                f"structure constants fail the Jacobi identity at "
                f"({a},{b},{c})"
            )

    if weights is None:
        weights = (1,) * len(names)
    commutators = {}
    for a, b in constants:
        if index[a] >= index[b]:
            raise ValueError(
                f"constant keys follow the declared order, got ({a},{b})"
            )
        commutators[(a, b)] = [
            (c, 1, {g: 1}) for g, c in sorted(constants[(a, b)].items())
        ]
    return HbarPresentation(
        names, weights, k, commutators, invertible=invertible, order=order
    )


def _reference_sl2_constants() -> dict:
    """Structure constants of sl2 on (e, f, h)."""
    return {
        ("e", "f"): {"h": 1},
        ("e", "h"): {"e": -2},
        ("f", "h"): {"f": 2},
    }


def _reference_straighten(a: HbarPresentation, letters, hpow, coeff, out,
                          budget, strategy: str = "first") -> None:
    """Add coeff*hbar^hpow times the normal form of a word to out, one
    stack entry per rewrite path: no two entries with the same word and
    hbar power are merged, and each entry popped costs one step.  The
    leftmost ("first") or rightmost inverted letter pair swaps first."""
    stack = [(tuple(letters), hpow, coeff)]
    while stack:
        word, p, c = stack.pop()
        _charge(budget, 1)
        spots = range(len(word) - 1)
        if strategy != "first":
            spots = reversed(spots)
        m = next((m for m in spots if word[m][0] > word[m + 1][0]), None)
        if m is None:
            a._collect(word, p, c, out)
            continue
        (j, ej), (i, ei) = word[m], word[m + 1]
        head, tail = word[:m], word[m + 2:]
        stack.append((head + ((i, ei), (j, ej)) + tail, p, c))
        for p2, letters2, c2 in a._swap_rows(j, ej, i, ei, budget):
            if p + p2 < a.order:
                stack.append((head + letters2 + tail, p + p2, c * c2))


def reference_certify_confluence(a: HbarPresentation, limit=None) -> dict:
    """Both reduction orders compared on every letter triple, cancellation
    words and triples with no ambiguity included: the {"ok", "triples",
    "failures"} report, a failure giving the word and its leftmost-first
    and rightmost-first forms.  limit is each reduction's step budget,
    max_steps() when None."""
    alphabet = [(i, 1) for i in range(len(a.names))] + [
        (i, -1) for i in range(len(a.invertible))
    ]
    failures = []
    checked = 0
    if limit is None:
        limit = max_steps()
    for triple in iter_product(alphabet, repeat=3):
        checked += 1
        results = []
        for strategy in ("first", "last"):
            out: dict = {}
            a._straighten(triple, 0, 1, out, [limit], strategy)
            results.append(out)
        if results[0] != results[1]:
            failures.append({
                "word": [
                    (a.names[i], e) for i, e in triple
                ],
                "first": a.render(results[0]),
                "last": a.render(results[1]),
            })
    return {"ok": not failures, "triples": checked, "failures": failures}


def reference_slice_monomials(a: HbarPresentation, weight: int, hmax: int,
                               degree_cap: int) -> list:
    """The (hbar power, monomial) columns of one weight of a quantized
    slice, in column order: for each hbar power up to hmax, every exponent
    tuple of the non-invertible generators in the (degree_cap + 1) box,
    lexicographically, kept when its total degree is within the cap and the
    weight equation solves for the invertible generator's exponent."""
    inv = range(len(a.invertible))
    if len(inv) > 1:
        raise ValueError(
            "slice enumeration supports at most one invertible generator"
        )
    if inv and a.weights[inv[0]] == 0:
        raise ValueError("the invertible generator needs nonzero weight")
    others = [i for i in range(len(a.names)) if i not in inv]
    out = []
    for hpow in range(hmax + 1):
        for exps in iter_product(range(degree_cap + 1), repeat=len(others)):
            if sum(exps) > degree_cap:
                continue
            base = hpow * a.k + sum(
                e * a.weights[i] for i, e in zip(others, exps)
            )
            mono = [(i, e) for i, e in zip(others, exps) if e]
            if inv:
                rem = weight - base
                wt = a.weights[inv[0]]
                if rem % wt:
                    continue
                e_t = rem // wt
                if e_t:
                    mono.insert(0, (inv[0], e_t))
            elif base != weight:
                continue
            out.append((hpow, tuple(sorted(mono))))
    return out


def reference_closure(a: HbarPresentation, lifts, basis: dict, truncation: int) -> dict:
    """Closure of a quantized slice basis, checked pair by pair: every
    ordered pair of basis elements is multiplied and the product commuted
    with every lift, a failure being a commutator term at hbar power at
    most truncation.  The {"ok", "pairs", "failures"} report, failures
    naming the pair's weights and the product."""
    failures = []
    pairs = 0
    for w1, vs1 in sorted(basis.items()):
        for w2, vs2 in sorted(basis.items()):
            for v1 in vs1:
                for v2 in vs2:
                    pairs += 1
                    prod = a.multiply(v1, v2)
                    if any(
                        hpow <= truncation
                        for lift in lifts
                        for (hpow, _m) in a.commutator(lift, prod)
                    ):
                        failures.append({"weights": [w1, w2], "product": a.render(prod)})
    return {"ok": not failures, "pairs": pairs, "failures": failures}


def reference_generator_candidates(a: HbarPresentation, basis: dict, truncation: int,
                                   limit: int) -> list:
    """The generator candidates of a quantized slice basis, every ordered
    pool pair multiplied in full and its product kept when it lies in the
    enumerated monomials of its weight and grows that weight's span mod
    hbar^truncation; the pool, the pair order and the candidate order are
    those of quantize._generator_candidates."""
    keys = {w: {key for v in vs for key in v} for w, vs in basis.items()}
    spans = {w: Echelon() for w in basis}
    pool = []

    def vectorize(w, elem):
        visible = {key: c for key, c in elem.items() if key[0] < truncation}
        if any(key not in keys[w] for key in visible):
            return None
        return visible

    def absorb(w, elem) -> bool:
        vec = vectorize(w, elem)
        if vec is None or not spans[w].insert(vec):
            return False
        pool.append((w, elem))
        return True

    multiplied = set()

    def close_products():
        grew = True
        while grew:
            grew = False
            for i, (w1, e1) in enumerate(list(pool)):
                for j, (w2, e2) in enumerate(list(pool)):
                    w = w1 + w2
                    if w not in keys or (i, j) in multiplied:
                        continue
                    multiplied.add((i, j))
                    if absorb(w, a.multiply(e1, e2, limit=limit)):
                        grew = True

    for w, vs in basis.items():
        for v in vs:
            if _is_laurent_seed(a, v):
                absorb(w, v)
    close_products()
    ordered = sorted(
        (
            (_element_degree(a, v), _element_unit_depth(a, v), w, pos, v)
            for w, vs in basis.items()
            for pos, v in enumerate(vs)
        ),
        key=lambda row: row[:4],
    )
    candidates = []
    for _deg, _depth, w, _pos, v in ordered:
        vec = vectorize(w, v)
        if vec is not None and spans[w].contains(vec):
            continue
        candidates.append((w, v))
        absorb(w, v)
        close_products()
    return candidates
