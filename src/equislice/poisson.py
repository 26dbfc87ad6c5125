"""Poisson structures presented by a skew bracket table on generators.

A presentation carries a graded context, the brackets {g_i, g_j} for
generator pairs, an optional relation ideal, and an optional declared
bracket degree d (so weight({f,g}) = weight(f) + weight(g) + d).  The
bracket of arbitrary elements is the Leibniz extension

    {f, g} = sum_{i<j} T_ij * (df/dg_i * dg/dg_j - df/dg_j * dg/dg_i)

reduced modulo the relation ideal.  Sign convention: the standard
structure of degree -k has {t, u} = t^(1-k); the bivector is oriented so
this holds verbatim, and hamiltonian_field(f) maps g to {f, g}.

A bracket visits only the entries its supports reach.  The presentation
keeps one row index, for each generator the keys of the table entries
that touch it, and {f, g} walks the rows of f's nonzero partials,
adding the entries whose other end carries a partial of g.  A generator
bracket {x_a, g} = sum_j +-T_aj * dg/dg_j is one product per entry of
a's row.  Both work from gradients (bracket_of_gradients,
generator_bracket), so a caller bracketing one element with many takes
its gradient once; check_jacobi takes each entry's gradient once per
call.

Relation reduction is plain multivariate division under a graded
lexicographic order (total degree, ties by exponent tuple in context
order).  A single relation is always a Groebner basis of its ideal, so
normal forms are canonical for the principal ideals used here; general
Groebner completion is out of scope and multi-relation inputs must
already be division-ready.
"""

from __future__ import annotations

import os
from itertools import product as iter_product

from . import linalg
from .scalars import quo
from .series import GradedContext, TruncatedElement, sum_of_products

DEFAULT_MAX_STEPS = 100000


class RewriteLimitError(RuntimeError):
    """A rewriting or relation-reduction loop exceeded its step budget
    (EQUISLICE_MAX_STEPS); for hbar rewriting, the non-confluence
    signal."""


def max_steps() -> int:
    """The step budget: EQUISLICE_MAX_STEPS, a non-negative decimal
    integer, or DEFAULT_MAX_STEPS when it is unset or empty.  Any other
    value is refused with a ValueError, never replaced by the default."""
    raw = os.environ.get("EQUISLICE_MAX_STEPS", "")
    if not raw:
        return DEFAULT_MAX_STEPS
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(
            f"EQUISLICE_MAX_STEPS must be a non-negative decimal integer, got {raw!r}"
        )
    return int(raw)


def _grlex_key(exps):
    return (sum(exps), exps)


class PoissonPresentation:
    """Generators, skew bracket table, optional relations, declared degree."""

    def __init__(self, ctx: GradedContext, table: dict, relations=(), degree=None):
        self.ctx = ctx
        self.relations = tuple(relations)
        self.degree = degree
        self._table: dict[tuple[int, int], TruncatedElement] = {}
        for (a, b), val in table.items():
            i, j = ctx.index(a), ctx.index(b)
            if i == j:
                raise ValueError(f"diagonal bracket entry {a!r}")
            if i > j:
                i, j, val = j, i, -val
            key = (i, j)
            if key in self._table:
                raise ValueError(f"duplicate bracket entry for ({a}, {b})")
            if val:
                self._table[key] = val
        # row index: for each generator, the keys of the entries touching it
        rows = [[] for _ in ctx.variables]
        for key in self._table:
            rows[key[0]].append(key)
            rows[key[1]].append(key)
        self._rows = tuple(tuple(row) for row in rows)
        for rel in self.relations:
            for exps in rel.terms:
                if any(e < 0 for e in exps):
                    raise ValueError("relations must be polynomial")
        self._lt_cache = None

    # -- table access ----------------------------------------------------

    def entry(self, a: str, b: str) -> TruncatedElement:
        i, j = self.ctx.index(a), self.ctx.index(b)
        if i == j:
            return self.ctx.zero()
        if i < j:
            return self._table.get((i, j), self.ctx.zero())
        return -self._table.get((j, i), self.ctx.zero())

    def pairs(self):
        """All generator pairs (a, b) with a before b in context order."""
        names = self.ctx.variables
        return [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]

    def table_as_strings(self) -> dict[str, str]:
        names = self.ctx.variables
        return {
            f"{names[i]},{names[j]}": str(v)
            for (i, j), v in sorted(self._table.items())
        }

    # -- reduction modulo relations ---------------------------------------

    def _leading_terms(self):
        if self._lt_cache is None:
            data = []
            for rel in self.relations:
                lead = max(rel.terms, key=_grlex_key)
                rest = TruncatedElement(
                    self.ctx, {e: c for e, c in rel.terms.items() if e != lead}
                )
                data.append((lead, rel.terms[lead], rest))
            self._lt_cache = data
        return self._lt_cache

    def reduce(self, f: TruncatedElement) -> TruncatedElement:
        """Normal form of f modulo the relation ideal by iterated division."""
        if not self.relations or not f:
            return f
        lts = self._leading_terms()
        budget = max_steps()
        work = dict(f.terms)
        while True:
            hit = None
            for exps in sorted(work, key=_grlex_key, reverse=True):
                for lead, lc, rest in lts:
                    if all(e >= l for e, l in zip(exps, lead)):
                        hit = (exps, lead, lc, rest)
                        break
                if hit:
                    break
            if hit is None:
                return TruncatedElement(self.ctx, work)
            budget -= 1
            if budget < 0:
                raise RewriteLimitError(
                    "relation reduction exceeded step budget "
                    "(set EQUISLICE_MAX_STEPS to raise it)"
                )
            exps, lead, lc, rest = hit
            coeff = work.pop(exps)
            quot = tuple(e - l for e, l in zip(exps, lead))
            factor = -quo(coeff, lc)
            # work += factor * x^quot * rest
            for re, rc in rest.terms.items():
                key = tuple(q + r for q, r in zip(quot, re))
                if self.ctx.jorder_of_exps(key) >= self.ctx.order:
                    continue
                s = work.get(key, 0) + factor * rc
                if s:
                    work[key] = s
                else:
                    work.pop(key, None)

    # -- the bracket -------------------------------------------------------

    def bracket(self, f: TruncatedElement, g: TruncatedElement) -> TruncatedElement:
        if not f.ctx.same_variables(self.ctx) or not g.ctx.same_variables(self.ctx):
            raise ValueError("elements live in a different context")
        return self.bracket_of_gradients(f.gradient(), g.gradient())

    def bracket_of_gradients(self, df: dict, dg: dict) -> TruncatedElement:
        """{f, g} from the gradients of f and g (TruncatedElement.gradient),
        so that a caller bracketing one element with many takes its
        gradient once.  Only the entries with a partial of f at one end
        and a partial of g at the other are visited, found through the
        rows of f's indices; each adds T_ij * (f_i g_j - f_j g_i).  The
        gradients must come from elements of this presentation's
        variables; nothing checks it here."""
        table = self._table
        products = []
        for i, fi in df.items():
            for key in self._rows[i]:
                j = key[1] if key[0] == i else key[0]
                gj = dg.get(j)
                if gj is None:
                    continue
                fj, gi = df.get(j), dg.get(i)
                if fj is None or gi is None:
                    pairs = [(fi, gj) if i < j else (-fi, gj)]
                elif i < j:
                    pairs = [(fi, gj), (-fj, gi)]
                else:
                    continue  # reached from j as well; its turn adds the entry
                term = sum_of_products(fi.ctx, pairs)
                if term:
                    products.append((table[key], term))
        return self.reduce(sum_of_products(self.ctx, products))

    def generator_bracket(self, a: int, dg: dict) -> TruncatedElement:
        """{x_a, g} for the generator of index a, from the gradient of g:
        the sum of +-T_aj * dg/dx_j over the entries of a's row, one
        product each."""
        table = self._table
        products = []
        for key in self._rows[a]:
            j = key[1] if key[0] == a else key[0]
            gj = dg.get(j)
            if gj is not None:
                products.append((table[key], gj if a < j else -gj))
        return self.reduce(sum_of_products(self.ctx, products))

    # -- certification ------------------------------------------------------

    def check_jacobi(self, certified_only: bool = False) -> list[dict]:
        """Jacobiators of all generator triples plus relation compatibility.
        Returns a list of violation records; empty means certified.

        A table that was produced by transporting through a truncated
        coordinate change carries no information at the top J-order:
        bracketing a generator with an entry whose J-order >= N tail was
        dropped leaves junk one order below the truncation.  With
        certified_only=True, residue terms of J-order >= order - 1 are
        ignored (a no-op for presentations without filtration variables)."""
        cutoff = None
        if certified_only and self.ctx.filtration:
            cutoff = self.ctx.order - 1
        names = self.ctx.variables
        grads = {key: val.gradient() for key, val in self._table.items()}
        out = []
        n = len(names)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    a, b, c = names[i], names[j], names[k]
                    # {a, T_bc} + {b, T_ca} + {c, T_ab}, with T_ca = -T_ac
                    jac = self.ctx.zero()
                    if (j, k) in grads:
                        jac = jac + self.generator_bracket(i, grads[(j, k)])
                    if (i, k) in grads:
                        jac = jac - self.generator_bracket(j, grads[(i, k)])
                    if (i, j) in grads:
                        jac = jac + self.generator_bracket(k, grads[(i, j)])
                    jac = self.reduce(jac)
                    if cutoff is not None:
                        jac = jac.below(cutoff)
                    if jac:
                        out.append(
                            {"kind": "jacobi", "triple": [a, b, c], "residue": str(jac)}
                        )
        for r_idx, rel in enumerate(self.relations):
            drel = rel.gradient()
            for g_idx, name in enumerate(names):
                # {rel, x} = -{x, rel}
                res = self.reduce(-self.generator_bracket(g_idx, drel))
                if cutoff is not None:
                    res = res.below(cutoff)
                if res:
                    out.append(
                        {
                            "kind": "relation",
                            "relation": r_idx,
                            "generator": name,
                            "residue": str(res),
                        }
                    )
        return out

    def hamiltonian_field(self, f: TruncatedElement) -> "VectorFieldRep":
        df = f.gradient()
        # {f, x} = -{x, f}
        images = {
            name: -self.generator_bracket(i, df) for i, name in enumerate(self.ctx.variables)
        }
        return VectorFieldRep(self, images)

    def lie_derivative_check(self, xi: "VectorFieldRep", k: int) -> list[dict]:
        """Residues of xi{f,g} - {xi f, g} - {f, xi g} - k{f,g} over all
        generator pairs; empty list means [xi, pi] = k pi holds at order N."""
        ctx = self.ctx
        grads = {name: xi.image(name).gradient() for name in ctx.variables}
        out = []
        for a, b in self.pairs():
            t_ab = self.entry(a, b)
            res = (
                xi.apply(t_ab)
                + self.generator_bracket(ctx.index(b), grads[a])
                - self.generator_bracket(ctx.index(a), grads[b])
                - t_ab.scale(k)
            )
            res = self.reduce(res)
            if res:
                out.append({"pair": [a, b], "residue": str(res)})
        return out

    def homogeneity_degree(self, weights=None) -> int:
        """The unique d making every table entry homogeneous of weight
        w_i + w_j + d.  Raises ValueError listing offenders otherwise."""
        ws = tuple(weights) if weights is not None else self.ctx.weights
        names = self.ctx.variables
        degree = None
        offenders = []
        for (i, j), val in sorted(self._table.items()):
            wts = {sum(e * w for e, w in zip(exps, ws)) for exps in val.terms}
            if len(wts) != 1:
                offenders.append(f"{{{names[i]},{names[j]}}} inhomogeneous")
                continue
            d = wts.pop() - ws[i] - ws[j]
            if degree is None:
                degree = d
            elif degree != d:
                offenders.append(
                    f"{{{names[i]},{names[j]}}} has degree {d}, expected {degree}"
                )
        if offenders:
            raise ValueError("; ".join(offenders))
        if degree is None:
            if self.degree is not None:
                return self.degree
            raise ValueError("empty bracket table has no intrinsic degree")
        return degree

    def grading_search(self, target_degree: int, bound: int) -> list[tuple[int, ...]]:
        """All weight vectors with entries in [-bound, bound] making every
        table entry homogeneous of the target degree and every relation
        homogeneous."""
        names = self.ctx.variables
        found = []
        for ws in iter_product(range(-bound, bound + 1), repeat=len(names)):
            ok = True
            for (i, j), val in self._table.items():
                wts = {sum(e * w for e, w in zip(exps, ws)) for exps in val.terms}
                if len(wts) != 1 or wts.pop() != ws[i] + ws[j] + target_degree:
                    ok = False
                    break
            if ok:
                for rel in self.relations:
                    wts = {sum(e * w for e, w in zip(exps, ws)) for exps in rel.terms}
                    if len(wts) > 1:
                        ok = False
                        break
            if ok:
                found.append(ws)
        return found

    # -- weight-graded linear algebra ----------------------------------------

    def certified_bracket_order(self, name: str) -> int:
        """J-order below which {., name} is determined by an order-N element.

        Truncation hides terms of J-order >= N; bracketing with a generator
        can lower J-order by differentiating a filtration variable against a
        low-J-order table entry, so only terms below N - drop are certified."""
        g = self.ctx.index(name)
        drop = 0
        for key in self._rows[g]:
            other = key[1] if key[0] == g else key[0]
            loss = -self._table[key].min_jorder()
            if self.ctx.variables[other] in self.ctx.filtration:
                loss += 1
            drop = max(drop, loss)
        return self.ctx.order - drop

    def weight_monomials(self, weight: int, degree_cap=None) -> list[tuple[int, ...]]:
        """Exponent tuples of all standard monomials of the given weight,
        sorted: the context's weight_monomials walk less the monomials
        that the relations reduce."""
        results = self.ctx.weight_monomials(weight, degree_cap)
        if self.relations:
            results = [
                e
                for e in results
                if self.reduce(self.ctx.monomial(e)) == self.ctx.monomial(e)
            ]
        return sorted(results)

    def poisson_center_basis(self, weight_window, degree_cap=None) -> dict:
        """Per-weight bases of elements whose bracket with every generator
        vanishes to certified J-order (modulo relations), in reduced
        echelon form."""
        return {
            w: self.centralizer_basis(self.ctx.variables, w, degree_cap)
            for w in weight_window
        }

    def centralizer_basis(self, names, weight: int, degree_cap=None) -> list:
        """Elements of one weight whose bracket with each named generator
        vanishes below its certified J-order (modulo relations), as the
        reduced echelon basis over the weight's monomials.

        Each candidate monomial's brackets form one sparse column; the
        kernel is the span of the linear relations among the columns."""
        ctx = self.ctx
        cutoffs = [self.certified_bracket_order(name) for name in names]
        cands = self.weight_monomials(weight, degree_cap)
        columns = []
        indices = [ctx.index(name) for name in names]
        for exps in cands:
            dmono = ctx.monomial(exps).gradient()
            col = {}
            for g_idx, index in enumerate(indices):
                # {mono, x} = -{x, mono}
                br = -self.generator_bracket(index, dmono)
                for oe, oc in br.terms.items():
                    if ctx.jorder_of_exps(oe) < cutoffs[g_idx]:
                        col[(g_idx, oe)] = oc
            columns.append(col)
        return [
            TruncatedElement(ctx, {cands[j]: v for j, v in sorted(row.items())})
            for row in linalg.relations(columns)
        ]

    def hp0_graded(self, degree_cap: int) -> dict[int, int]:
        """Graded dimensions of the functions modulo the span of all
        brackets, degree by degree up to the cap, which bounds the weight.
        Requires a polynomial presentation (no invertible variables) whose
        variables outside the filtration have positive weight, so that each
        weight piece is finite."""
        if self.ctx.invertible:
            raise ValueError("hp0 requires a presentation without invertible variables")
        for name, w in zip(self.ctx.variables, self.ctx.weights):
            if w <= 0 and name not in self.ctx.filtration:
                raise ValueError(
                    f"hp0 needs positive weights: variable {name!r} has weight {w}, "
                    "so its weight pieces are infinite"
                )
        degree = self.degree if self.degree is not None else self.homogeneity_degree()
        dims = {}
        mono_cache: dict[int, list] = {}

        def monos(w):
            if w not in mono_cache:
                mono_cache[w] = self.weight_monomials(w) if w >= 0 else []
            return mono_cache[w]

        for d in range(degree_cap + 1):
            basis = monos(d)
            if not basis:
                dims[d] = 0
                continue
            total = d - degree
            brackets = linalg.Echelon()
            for w1 in range(total + 1):
                w2 = total - w1
                if w2 < w1:
                    break
                for m1 in monos(w1):
                    for m2 in monos(w2):
                        if w1 == w2 and m2 <= m1:
                            continue
                        br = self.bracket(self.ctx.monomial(m1), self.ctx.monomial(m2))
                        brackets.insert(br.terms)
            dims[d] = len(basis) - len(brackets)
        return dims


class VectorFieldRep:
    """A derivation given by its images on generators."""

    def __init__(self, presentation: PoissonPresentation, images: dict):
        self.presentation = presentation
        self.images = dict(images)

    def image(self, name: str) -> TruncatedElement:
        return self.images.get(name, self.presentation.ctx.zero())

    def apply(self, f: TruncatedElement) -> TruncatedElement:
        ctx = self.presentation.ctx
        df = f.gradient()
        products = []
        for i, name in enumerate(ctx.variables):
            img = self.images.get(name)
            if img and i in df:
                products.append((img, df[i]))
        return self.presentation.reduce(sum_of_products(ctx, products))

    def is_zero(self) -> bool:
        return all(not v for v in self.images.values())


def standard_presentation(n: int, k: int, ell: int = 1, order: int = 6) -> PoissonPresentation:
    """The standard structure of degree -k*ell on an invertible conic
    coordinate t (weight ell), its conjugate u, and n-1 Darboux pairs:
    {t, u} = t^(1-k), {z_{2i-1}, z_{2i}} = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = ["t", "u"] + [f"z{i}" for i in range(1, 2 * n - 1)]
    weights = [ell, 0] + [k * ell if i % 2 == 1 else 0 for i in range(1, 2 * n - 1)]
    ctx = GradedContext(
        names,
        weights,
        invertible=("t",),
        filtration=tuple(names[1:]),
        order=order,
    )
    table = {("t", "u"): ctx.var("t", 1 - k)}
    for i in range(1, 2 * n - 1, 2):
        table[(f"z{i}", f"z{i + 1}")] = ctx.one()
    return PoissonPresentation(ctx, table, degree=-k * ell)
