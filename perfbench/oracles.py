"""Independent oracles for the benchmark's output checks.

Nothing here calls into equislice's linear algebra, lattice or group
code: ranks, kernels and spans come from a plain Gaussian elimination
written below, determinants from the Leibniz formula, hypertoric leaves
from the flats of the Gale dual, and Poisson brackets from the table by
the Leibniz rule on term dictionaries.  Besides the scalars (Fraction
or the package's cyclotomic numbers), the checks read only the inputs'
own data from the package (table entries, candidate monomials, the
certified cutoff).  Every check raises CheckError with a message naming
what was wrong.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb


class CheckError(Exception):
    """An output that disagrees with its oracle."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- elimination over any exact field ------------------------------------------


def echelon(rows):
    """Row echelon form by Gauss-Jordan elimination; returns (rows, pivots).

    Entries may be Fractions, ints or any exact field elements with
    +, -, *, / and truth testing."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    pivots = []
    r = 0
    width = len(a[0]) if a else 0
    for c in range(width):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def rank(rows) -> int:
    return len(echelon(rows)[1]) if rows else 0


def kernel(rows, width: int, zero=Fraction(0), one=Fraction(1)):
    """Basis of {x : rows @ x == 0}."""
    if not rows:
        return [[one if i == j else zero for j in range(width)] for i in range(width)]
    a, pivots = echelon(rows)
    out = []
    for f in range(width):
        if f in pivots:
            continue
        v = [zero] * width
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = -a[i][f]
        out.append(v)
    return out


def sparse_rows(elements, keys=None):
    """Dense rows over a shared key order from {key: coeff} dictionaries."""
    if keys is None:
        keys = sorted({k for e in elements for k in e})
    return [[e.get(k, Fraction(0)) for k in keys] for e in elements], keys


# -- polynomial arithmetic on term dictionaries ----------------------------------


def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _partial(f: dict, i: int) -> dict:
    out = {}
    for e, c in f.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def bracket_with_generator(pres, terms: dict, name: str) -> dict:
    """{f, name} = sum_i (df/dx_i) {x_i, name}, from the stored table."""
    ctx = pres.ctx
    out: dict = {}
    for i, xi in enumerate(ctx.variables):
        if xi == name:
            continue
        entry = pres.entry(xi, name).terms
        if not entry:
            continue
        for e, c in _poly_mul(_partial(terms, i), entry).items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def jorder(ctx, exps) -> int:
    return sum(e for e, v in zip(exps, ctx.variables) if v in ctx.filtration)


# -- roundtrip ---------------------------------------------------------------------


def check_certificate(cert, expect: dict) -> None:
    """A normal form matches the invariants of the source it was scrambled
    from: form, horizon, role counts, slice weights and k; product forms
    have a zero residual, twisted forms keep the residual constant."""
    label = expect["label"]
    require(cert.form == expect["form"], f"{label}: form {cert.form}, expected {expect['form']}")
    require(
        cert.certified_jorder == expect["order"] - 1,
        f"{label}: certified J-order {cert.certified_jorder}, expected {expect['order'] - 1}",
    )
    require(len(cert.pairs) == expect["pairs"], f"{label}: {len(cert.pairs)} pairs, expected {expect['pairs']}")
    require(
        len(cert.slice_names) == len(expect["slice_weights"]),
        f"{label}: {len(cert.slice_names)} slice variables, expected {len(expect['slice_weights'])}",
    )
    require(
        sorted(cert.slice_weights.values()) == sorted(expect["slice_weights"]),
        f"{label}: slice weights {sorted(cert.slice_weights.values())}, "
        f"expected {sorted(expect['slice_weights'])}",
    )
    require(cert.k == expect["k"], f"{label}: k={cert.k}, expected {expect['k']}")
    if expect["form"] == "product":
        require(
            all(not v for v in cert.residual_field.values()),
            f"{label}: product form with a nonzero residual",
        )
    else:
        for name, const in expect["residual_constants"].items():
            got = cert.residual_field[name].constant_coefficient()
            require(got == const, f"{label}: residual constant {got} on {name}, expected {const}")
    table = expect.get("slice_table")
    if table is not None:
        check_slice_table(cert, table, label)


def check_slice_table(cert, expected: dict, label: str) -> None:
    """The certificate's slice table equals the fixture's, entry by entry,
    up to the orientation of each pair."""
    ctx = cert.slice_ctx
    got = {}
    for (a, b), v in cert.slice_table.items():
        if v:
            got[(a, b)] = v.terms
    seen = set()
    for (a, b), text in expected.items():
        want = ctx.parse(text).terms
        if (a, b) in got:
            have = got[(a, b)]
            seen.add((a, b))
        elif (b, a) in got:
            have = {e: -c for e, c in got[(b, a)].items()}
            seen.add((b, a))
        else:
            have = {}
        require(have == want, f"{label}: slice entry {{{a},{b}}} is {have}, expected {want}")
    extra = set(got) - seen
    require(not extra, f"{label}: unexpected slice entries {sorted(extra)}")


# -- centralizer ---------------------------------------------------------------------


def check_extract_slice(pres, result: dict, constraints, weight: int, degree_cap) -> None:
    """Every basis element brackets to zero with each constraint below its
    certified cutoff, the basis is independent, and its size is the
    candidate count minus the rank of the constraint matrix."""
    ctx = pres.ctx
    cutoffs = {name: pres.certified_bracket_order(name) for name in constraints}

    def low_brackets(terms):
        out = {}
        for name in constraints:
            for e, c in bracket_with_generator(pres, terms, name).items():
                if jorder(ctx, e) < cutoffs[name]:
                    out[(name, e)] = c
        return out

    basis = result["basis"]
    for n, elem in enumerate(basis):
        require(elem.weight() == weight, f"extract_slice w{weight}: element {n} has weight {elem.weight()}")
        require(not low_brackets(elem.terms), f"extract_slice w{weight}: element {n} is not central")
    cands = pres.weight_monomials(weight, degree_cap)
    columns = [low_brackets({exps: Fraction(1)}) for exps in cands]
    rows_keys = sorted({k for col in columns for k in col})
    matrix = [[col.get(k, Fraction(0)) for col in columns] for k in rows_keys]
    expected_dim = len(cands) - rank(matrix)
    require(
        len(basis) == expected_dim,
        f"extract_slice w{weight}: {len(basis)} basis elements, expected {expected_dim}",
    )
    rows, _keys = sparse_rows([e.terms for e in basis])
    require(rank(rows) == len(basis), f"extract_slice w{weight}: the basis is dependent")
    require(all(any(g is b for b in basis) for g in result["generators"]),
            f"extract_slice w{weight}: a generator is not a basis element")


def u_free_count(a, truncation: int, degree_cap: int) -> int:
    """Monomials of one weight in a differential family that avoid u: the
    invertible t absorbs the weight, so each hbar power below the
    truncation contributes every z-monomial of degree at most the cap."""
    z_count = len(a.names) - 2
    return truncation * comb(z_count + degree_cap, degree_cap)


def check_differential_slice(a, result, truncation: int, window, degree_cap: int, label: str) -> None:
    """The joint centralizer of t in a differential family is spanned by
    the u-free monomials: every basis vector avoids u, the vectors are
    independent, and each weight has exactly the u-free count."""
    u = a.names.index("u")
    expected = u_free_count(a, truncation, degree_cap)
    lo, hi = window
    for w in range(lo, hi + 1):
        vs = result.basis.get(w, [])
        require(len(vs) == expected, f"{label} w{w}: {len(vs)} basis vectors, expected {expected}")
        for vec in vs:
            require(
                all(i != u for _h, mono in vec for i, _e in mono),
                f"{label} w{w}: a basis vector involves u",
            )
        rows, _keys = sparse_rows(vs)
        require(rank(rows) == len(vs), f"{label} w{w}: the basis is dependent")
    require(result.closure["ok"], f"{label}: the closure check failed")


def u_free_monomials(a, weight: int, truncation: int, degree_cap: int) -> list:
    """The u-free monomials of one weight, as single-term elements."""
    t = a.names.index("t")
    zs = [i for i, n in enumerate(a.names) if n not in ("t", "u")]
    out = []
    for hpow in range(truncation):
        for exps in itertools.product(range(degree_cap + 1), repeat=len(zs)):
            if sum(exps) > degree_cap:
                continue
            rest = weight - hpow * a.k - sum(e * a.weights[i] for i, e in zip(zs, exps))
            mono = [(i, e) for i, e in zip(zs, exps) if e]
            if rest:
                mono.append((t, rest))
            out.append({(hpow, tuple(sorted(mono))): Fraction(1)})
    return out


def check_twisted_slice(a, result, images_by_weight: dict, plain_count: int, truncation: int) -> None:
    """The kernel for the conjugated lift has the plain dimensions and
    contains the conjugated plain kernel."""
    for w, images in sorted(images_by_weight.items()):
        vs = result.basis.get(w, [])
        require(len(vs) == plain_count, f"twisted w{w}: {len(vs)} basis vectors, expected {plain_count}")
        visible = [{k: c for k, c in img.items() if k[0] < truncation} for img in images]
        keys = sorted({k for v in vs + visible for k in v})
        span, _ = sparse_rows(vs, keys)
        require(rank(span) == len(vs), f"twisted w{w}: the basis is dependent")
        base = rank(span)
        for img in visible:
            row = [img.get(k, Fraction(0)) for k in keys]
            require(rank(span + [row]) == base, f"twisted w{w}: a conjugated kernel vector is missing")
    require(result.closure["ok"], "twisted: the closure check failed")


def check_localized_slice(result, targets, truncation: int) -> None:
    """The shifted Casimir C f^-2 is the only generator candidate, and it
    and its square lie in the weight-zero span."""
    require(result.closure["ok"], "localized sl2: the closure check failed")
    vs = result.basis.get(0, [])
    shifted = targets[0]
    require(
        [w for w, _v in result.generator_candidates] == [0] and result.generator_candidates[0][1] == shifted,
        "localized sl2: the generator candidates are not [C f^-2]",
    )
    visible = [{k: c for k, c in t.items() if k[0] < truncation} for t in targets]
    keys = sorted({k for v in vs + visible for k in v})
    span, _ = sparse_rows(vs, keys)
    base = rank(span)
    require(base == len(vs), "localized sl2: the basis is dependent")
    for t in visible:
        require(rank(span + [[t.get(k, Fraction(0)) for k in keys]]) == base,
                "localized sl2: a Casimir power is missing from the span")


# -- toric ---------------------------------------------------------------------------


def _permutation_signs(m: int):
    out = []
    for perm in itertools.permutations(range(m)):
        inversions = sum(1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j])
        out.append((-1 if inversions % 2 else 1, perm))
    return out


def leibniz_minors(rows) -> dict:
    """Every maximal minor by the Leibniz formula, keyed by row selection."""
    n, m = len(rows), len(rows[0])
    signs = _permutation_signs(m)
    minors = {}
    for sel in itertools.combinations(range(n), m):
        total = 0
        for sign, perm in signs:
            prod = sign
            for i, j in enumerate(perm):
                prod *= rows[sel[i]][j]
                if not prod:
                    break
            total += prod
        minors[sel] = total
    return minors


def check_unimodular_result(rows, result, minors=None) -> None:
    ok, witness = result
    minors = leibniz_minors(rows) if minors is None else minors
    expected = all(d in (-1, 0, 1) for d in minors.values())
    require(ok == expected, f"unimodularity of {rows}: got {ok}, expected {expected}")
    if not ok:
        sel = tuple(i - 1 for i in witness["rows"])
        require(
            minors.get(sel) == witness["minor"] and witness["minor"] not in (-1, 0, 1),
            f"unimodularity of {rows}: witness {witness} disagrees with the Leibniz minor {minors.get(sel)}",
        )


def gale_leaves(rows) -> dict:
    """Leaves from the Gale dual: each coloop-free flat F of the dual
    matroid carries one leaf of dimension 2 (n - m - rank F), and F is
    the set of coordinates the leaf's parabolic subtorus moves."""
    n, m = len(rows), len(rows[0])
    # Gale dual: a basis of the left kernel of the weight matrix, read by rows
    columns = [[Fraction(rows[i][j]) for i in range(n)] for j in range(m)]
    dual = kernel(columns, n)
    gale = [tuple(v[i] for v in dual) for i in range(n)]
    total = len(dual)
    cache: dict = {}

    def rk(s: frozenset) -> int:
        if s not in cache:
            cache[s] = rank([list(gale[i]) for i in sorted(s)]) if s and total else 0
        return cache[s]

    def closure(s: frozenset) -> frozenset:
        r = rk(s)
        return frozenset(i for i in range(n) if i in s or rk(s | {i}) == r)

    flats = set()
    frontier = [closure(frozenset())]
    while frontier:
        nxt = []
        for f in frontier:
            if f in flats:
                continue
            flats.add(f)
            for i in range(n):
                if i not in f:
                    nxt.append(closure(f | {i}))
        frontier = nxt
    out = {}
    for f in flats:
        r = rk(f)
        if any(rk(f - {i}) < r for i in f):
            continue
        out[tuple(sorted(i + 1 for i in f))] = 2 * (total - r)
    return out


def check_leaves(rows, leaves, oracle: dict) -> None:
    got = {tuple(leaf.flat): leaf.leaf_dim for leaf in leaves}
    require(len(got) == len(leaves), f"leaves of {rows}: repeated flats")
    require(got == oracle, f"leaves of {rows}: {sorted(got.items())}, expected {sorted(oracle.items())}")


def check_decomposition(rows, leaf, report_json: dict, verdict: dict) -> None:
    """The chart pairs every leaf coordinate to total weight two, inverts
    one coordinate per quotient-torus direction, and verifies."""
    weights = report_json["weights"]
    for name, w in weights.items():
        partner = ("y" if name[0] == "x" else "x") + name[1:]
        require(weights.get(partner) is not None and w + weights[partner] == 2,
                f"decomposition of {rows} at {list(leaf.flat)}: weights of {name} do not pair to 2")
    quotient_dim = len(rows[0]) - len(leaf.subtorus_lattice.rows)
    require(len(report_json["inverted"]) == quotient_dim,
            f"decomposition of {rows} at {list(leaf.flat)}: {len(report_json['inverted'])} inverted coordinates")
    require(verdict.get("ok") is True, f"decomposition of {rows} at {list(leaf.flat)} failed verification")


# -- quotient ------------------------------------------------------------------------


def mat_vec(g, v, zero):
    return tuple(sum((g[r][c] * v[c] for c in range(len(v))), start=zero) for r in range(len(g)))


def fixed_space(g, field):
    """Kernel of g - 1 by the oracle's own elimination."""
    dim = len(g)
    rows = [[g[r][c] - (1 if r == c else 0) for c in range(dim)] for r in range(dim)]
    return kernel(rows, dim, zero=field.zero(), one=field.one())


def check_group(group, expect: dict, records, sra) -> None:
    label = expect["label"]
    require(group.order == expect["order"], f"{label}: order {group.order}, expected {expect['order']}")
    require(len(records) == expect["parabolics"], f"{label}: {len(records)} parabolics, expected {expect['parabolics']}")
    require(
        len(sra.reflections) == expect["reflections"],
        f"{label}: {len(sra.reflections)} reflections, expected {expect['reflections']}",
    )
    field, dim, zero = group.field, group.dim, group.field.zero()
    moved_dims = {i: dim - len(fixed_space(group.element(i), field)) for i in range(group.order)}
    require(
        sorted(sra.reflections) == sorted(i for i, d in moved_dims.items() if d == 2),
        f"{label}: the reflection set is not the set of elements moving a plane",
    )
    for s in sra.reflections:
        form = sra.omega_s[s]
        require(rank([list(r) for r in form]) == 2, f"{label}: reflection {s} has a form of rank != 2")
        for vec in fixed_space(group.element(s), field):
            require(all(x == zero for x in mat_vec(form, vec, zero)), f"{label}: form {s} does not kill the fixed space")
        g = group.element(s)
        moved = [tuple(g[r][c] - (1 if r == c else 0) for r in range(dim)) for c in range(dim)]
        for u in moved:
            wu = mat_vec(form, u, zero)
            ou = mat_vec(group.omega, u, zero)
            for v in moved:
                lhs = sum((v[i] * wu[i] for i in range(dim)), start=zero)
                rhs = sum((v[i] * ou[i] for i in range(dim)), start=zero)
                require(lhs == rhs, f"{label}: form {s} disagrees with omega on moved vectors")


def stabilizer(group, v) -> tuple:
    zero = group.field.zero()
    return tuple(i for i in range(group.order) if mat_vec(group.element(i), v, zero) == tuple(v))


def check_leaf_slice(group, record, data: dict, label: str) -> None:
    field, dim = group.field, group.dim
    rows = []
    for i in record.subgroup:
        g = group.element(i)
        rows += [[g[r][c] - (1 if r == c else 0) for c in range(dim)] for r in range(dim)]
    fixed_dim = dim - rank(rows)
    require(data["leaf_dim"] == fixed_dim, f"{label}: leaf dimension {data['leaf_dim']}, expected {fixed_dim}")
    require(data["slice_dim"] == dim - fixed_dim, f"{label}: slice dimension {data['slice_dim']}")
    require(data["subgroup_order"] == len(record.subgroup), f"{label}: subgroup order {data['subgroup_order']}")
    require(data["slice_group_order"] == len(record.subgroup), f"{label}: slice group order {data['slice_group_order']}")
