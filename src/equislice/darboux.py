"""Normal forms for graded Poisson presentations with a conic coordinate.

Given a presentation with a single invertible generator t of positive
weight, the normalizer produces a change of generators after which the
bracket splits into an exactly standard block

    {t, u} = t^(1-k),   {A_q, B_q} = 1,

decoupled from the remaining generators, plus a residual slice structure
and a residual vector field xi on the slice.  The structure is a product
of the standard block and the slice exactly when xi vanishes; a nonzero
xi is the obstruction and is reported, never hidden.

The pipeline is a chain of stages, each a certified move; every stage
logs one line under its name and fails with a StageError of that name:

  validate             the grading, the bracket degree -k*ell, and the
                       Jacobi identity;
  locate-conjugate     locate and rescale a conjugate coordinate u with
                       {t, u} = t^(1-k) modulo the filtration;
  flatten-conic        flatten {t, g} = 0 exactly for every other
                       generator by sweeps of u-antiderivative
                       corrections;
  conjugate-normalize  normalize {t, u} = t^(1-k) exactly by iterated
                       conjugate corrections (each pass squares the
                       defect);
  pair-split           kill constant u-couplings where a t-power
                       correction exists, then split off Darboux pairs by
                       symplectic Gram-Schmidt on the constant pairing
                       matrix;
  straighten-pairs     flatten each Darboux pair against all later
                       generators by two-phase antiderivative sweeps;
  decouple-conjugate   decouple u from every Darboux pair by exact
                       antiderivative shifts (logged only when there are
                       pairs);
  decouple-slice       absorb the part of the couplings {u, s} to the
                       slice that admissible moves reach, leaving its
                       canonical residual;
  extract-slice        freeze the finished run as a certificate, which
                       reads the slice table and the residual field in
                       the weight-zero chart s -> t^(-w/ell) * s;
  certify              re-verify the certificate, whose change is the
                       composite of the run's steps.

Every stage works on one run state, which records each step it takes;
the certificate's change is the composite of those steps.  Every
iterative stage runs through _Run.sweep, which requires the least
J-order of the defect each pass targets to rise strictly (the Jacobi
identity guarantees it).  Defects are read below the certification
horizon, so every sweep ends before its orders reach it.

All corrections are either antiderivatives of table entries or built
from J-order-zero data, so the computed pipeline agrees with the exact
one below the truncation order.  Truncation still costs exactly one
J-order: a defect in the top stored layer would need a correction one
order higher, which the ring cannot represent.  Every stage therefore
works to a certification horizon of order - 1; defects at or above the
horizon are left in place, all certified claims (standard leaf, zero
couplings, the slice data) hold below it, and the certificate records
the horizon.  Inputs whose normalization happens to close exactly (all
the polynomial model cases) come out exact anyway.
"""

from __future__ import annotations

import random

from . import linalg
from .poisson import PoissonPresentation, VectorFieldRep
from .scalars import InternalError, quo
from .series import GradedContext, TruncatedElement


class StageError(Exception):
    """A structured failure of one pipeline stage."""

    def __init__(self, stage: str, message: str, details=None):
        self.stage = stage
        self.details = details
        super().__init__(f"[{stage}] {message}")


# -- coordinate changes -----------------------------------------------------


class CoordinateChange:
    """An invertible change of generators over a fixed graded context.

    forward maps each new generator name to its expression in the old
    generators; inverse maps each old name to its expression in the new
    ones.  Missing names are identities.  to_old rewrites an element
    given in new coordinates as an element in old coordinates, to_new
    the other way around.  Both take an optional dict of image powers
    that one operation (transport, one direction of then, verify) shares
    across its substitutions; it is never stored on the change, which a
    certificate keeps alive.
    """

    def __init__(self, ctx: GradedContext, forward: dict, inverse: dict):
        self.ctx = ctx
        self.forward = {
            name: img for name, img in forward.items() if img != ctx.var(name)
        }
        self.inverse = {
            name: img for name, img in inverse.items() if img != ctx.var(name)
        }

    @classmethod
    def compose(cls, ctx: GradedContext, steps) -> "CoordinateChange":
        """The composite of the steps applied in order, the identity when
        there are none."""
        composite = cls(ctx, {}, {})
        for step in steps:
            composite = composite.then(step)
        return composite

    @classmethod
    def from_forward(cls, ctx: GradedContext, forward: dict) -> "CoordinateChange":
        """Invert a near-identity change by fixpoint iteration.

        Every correction forward[v] - v must lie in the filtration ideal
        (or involve only unchanged variables), so that each pass refines
        the inverse by one J-order."""
        deltas = {}
        for name, img in forward.items():
            delta = img - ctx.var(name)
            if delta:
                deltas[name] = delta
        inverse = {name: ctx.var(name) for name in deltas}
        for _ in range(2 * ctx.order + 2):
            powers = {}
            refined = {
                name: ctx.var(name) - delta.subs(inverse, ctx, powers)
                for name, delta in deltas.items()
            }
            if refined == inverse:
                break
            inverse = refined
        else:
            raise StageError(
                "invert-change",
                "fixpoint inversion did not stabilize; the change is not "
                "near-identity in the filtration",
            )
        return cls(ctx, forward, inverse)

    def changed_names(self):
        return set(self.forward) | set(self.inverse)

    def image_forward(self, name: str) -> TruncatedElement:
        got = self.forward.get(name)
        return got if got is not None else self.ctx.var(name)

    def image_inverse(self, name: str) -> TruncatedElement:
        got = self.inverse.get(name)
        return got if got is not None else self.ctx.var(name)

    def to_old(self, f: TruncatedElement, powers: dict | None = None) -> TruncatedElement:
        return f.subs(self.forward, self.ctx, powers)

    def to_new(self, f: TruncatedElement, powers: dict | None = None) -> TruncatedElement:
        return f.subs(self.inverse, self.ctx, powers)

    def verify(self) -> list[dict]:
        """Both compositions must fix every generator at the truncation
        order; returns a list of defect records, empty when invertible."""
        out = []
        new_powers, old_powers = {}, {}
        for name in sorted(self.changed_names()):
            v = self.ctx.var(name)
            back = self.to_new(self.image_forward(name), new_powers)
            if back != v:
                out.append(
                    {"direction": "new-old-new", "variable": name, "residue": str(back - v)}
                )
            forth = self.to_old(self.image_inverse(name), old_powers)
            if forth != v:
                out.append(
                    {"direction": "old-new-old", "variable": name, "residue": str(forth - v)}
                )
        return out

    def then(self, other: "CoordinateChange") -> "CoordinateChange":
        """The composite change: apply self first, then other."""
        if other.ctx is not self.ctx and not other.ctx.same_variables(self.ctx):
            raise ValueError("cannot compose changes over different contexts")
        names = self.changed_names() | other.changed_names()
        old_powers, new_powers = {}, {}
        forward = {n: self.to_old(other.image_forward(n), old_powers) for n in names}
        inverse = {n: other.to_new(self.image_inverse(n), new_powers) for n in names}
        return CoordinateChange(self.ctx, forward, inverse)

    def is_identity(self) -> bool:
        return not self.forward and not self.inverse

    def is_weight_homogeneous(self) -> bool:
        for name in self.changed_names():
            w = self.ctx.weight_of_name(name)
            for img in (self.image_forward(name), self.image_inverse(name)):
                if img.weight() != w:
                    return False
        return True

    def transport(self, pres: PoissonPresentation) -> PoissonPresentation:
        """The table of the same structure in the new generators."""
        ctx = self.ctx
        if not pres.ctx.same_variables(ctx):
            raise ValueError("presentation lives in a different context")
        changed = self.changed_names()
        powers = {}
        grads = {name: img.gradient() for name, img in self.forward.items()}

        def bracket(a, b):
            """{F_a, F_b} of the forward images; an unchanged image is a
            generator, bracketed through its row of the table."""
            if a not in grads:
                if b not in grads:
                    return pres.reduce(pres.entry(a, b))
                return pres.generator_bracket(ctx.index(a), grads[b])
            if b not in grads:
                return -pres.generator_bracket(ctx.index(b), grads[a])
            return pres.bracket_of_gradients(grads[a], grads[b])

        table = {}
        for a, b in pres.pairs():
            cur = pres.entry(a, b)
            if (
                a not in changed
                and b not in changed
                and not any(cur.involves(v) for v in changed)
            ):
                entry = cur
            else:
                entry = self.to_new(bracket(a, b), powers)
            if entry:
                table[(a, b)] = entry
        relations = tuple(self.to_new(r, powers) for r in pres.relations)
        return PoissonPresentation(ctx, table, relations=relations, degree=pres.degree)

    def as_strings(self) -> dict:
        return {
            "forward": {n: str(e) for n, e in sorted(self.forward.items())},
            "inverse": {n: str(e) for n, e in sorted(self.inverse.items())},
        }


def apply_exponential(field: VectorFieldRep, f: TruncatedElement, budget: int) -> TruncatedElement:
    """exp(field) applied to f, summed until the terms vanish."""
    acc = f
    term = f
    for i in range(1, budget + 1):
        term = field.apply(term).scale(quo(1, i))
        if not term:
            return acc
        acc = acc + term
    raise StageError(
        "flow-exponential",
        f"the flow series did not terminate within {budget} terms; "
        "raise the budget or lower the generator's filtration order",
    )


def hamiltonian_flow_change(
    pres: PoissonPresentation, hamiltonian: TruncatedElement
) -> CoordinateChange:
    """The coordinate change realized by the bracket flow of a generator.

    The inverse images are exp(xi_H) of the generators, so substituting
    them computes the flow of an element; the forward images use the
    opposite field."""
    ctx = pres.ctx
    terms = 8 * ctx.order + 8
    xi = pres.hamiltonian_field(hamiltonian)
    neg = VectorFieldRep(pres, {n: -img for n, img in xi.images.items() if img})
    forward = {}
    inverse = {}
    for name in ctx.variables:
        v = ctx.var(name)
        fwd = apply_exponential(neg, v, terms)
        if fwd != v:
            forward[name] = fwd
            inverse[name] = apply_exponential(xi, v, terms)
    return CoordinateChange(ctx, forward, inverse)


# -- helpers ----------------------------------------------------------------


def _single_t_monomial(ctx: GradedContext, elem: TruncatedElement, t_name: str, stage: str):
    """The (coefficient, exponent) of an element that must be c * t^a."""
    if len(elem.terms) != 1:
        raise StageError(stage, f"expected a single conic monomial, got {elem}")
    ((exps, coeff),) = elem.terms.items()
    ti = ctx.index(t_name)
    if any(e and i != ti for i, e in enumerate(exps)):
        raise StageError(stage, f"expected a pure conic monomial, got {elem}")
    return coeff, exps[ti]


def certification_horizon(ctx: GradedContext) -> int:
    """The J-order below which normalization results are certified.

    A defect in the top stored J-order would need a correction one
    order higher than the ring represents, so one order is lost: all
    standard-form and decoupling claims hold for terms of J-order
    strictly below ctx.order - 1."""
    return ctx.order - 1


def extract_slice(
    pres: PoissonPresentation,
    t_name: str,
    pair_names: tuple = (),
    degree_cap: int | None = None,
    weight: int = 0,
) -> dict:
    """The centralizer of the conic coordinate and the given pair
    variables in one weight, as an echelonized basis plus a greedy set
    of generators (elements not spanned by pairwise products of earlier
    ones)."""
    basis = pres.centralizer_basis([t_name, *pair_names], weight, degree_cap)
    generators = _greedy_generators(pres, basis)
    return {"weight": weight, "basis": basis, "generators": generators}


def _greedy_generators(pres: PoissonPresentation, basis: list) -> list:
    """Basis elements not in the linear span of pairwise products of
    earlier ones (constants never count as generators).

    The span grows by the products of each element with those before
    it, formed once, as the next element is tested."""
    ctx = pres.ctx
    earlier: list[TruncatedElement] = []
    products = linalg.Echelon()
    last = ctx.one()
    generators = []
    for elem in basis:
        earlier.append(last)
        for x in earlier:
            products.insert(pres.reduce(x * last).terms)
        if elem - ctx.const(elem.constant_coefficient()) and not products.contains(
            elem.terms
        ):
            generators.append(elem)
        last = elem
    return generators


# -- the full pipeline --------------------------------------------------------


class DecompositionCertificate:
    """The verified outcome of a full normalization: a finished run,
    frozen.

    The roles, exponents and horizon are the run's; final is its current
    presentation and change the composite of its steps.  The slice table
    and the residual field are read once, by _slice_data, in the
    weight-zero chart s -> t^(-w/ell) * s over slice_ctx; verify reads
    them again with the same method."""

    def __init__(self, source: PoissonPresentation, run: "_Run", stage_log: list):
        self.source = source
        self.final = run.cur
        self.change = run.change()
        self.t_name = run.t
        self.u_name = run.u
        self.pairs = list(run.pairs)
        self.slice_names = list(run.slice_names)
        self.k = run.k
        self.ell = run.ell
        self.slice_weights = {s: run.ctx.weight_of_name(s) for s in self.slice_names}
        self.certified_jorder = run.horizon
        self.slice_ctx = GradedContext(
            tuple(self.slice_names),
            (0,) * len(self.slice_names),
            filtration=tuple(self.slice_names),
            order=run.horizon,
        )
        self.slice_table, self.residual_field = self._slice_data()
        self.stage_log = list(stage_log)

    @property
    def form(self) -> str:
        return "product" if self.is_product() else "twisted"

    def is_product(self) -> bool:
        return all(not v for v in self.residual_field.values())

    def verify(self) -> list[dict]:
        """Re-derive every certified claim below the certification
        horizon; empty list means certified."""
        out = []
        ctx = self.final.ctx
        horizon = self.certified_jorder
        for defect in self.change.verify():
            out.append({"check": "change-inverse", "detail": str(defect)})
        transported = self.change.transport(self.source)
        for a, b in self.final.pairs():
            if (transported.entry(a, b) - self.final.entry(a, b)).below(horizon):
                out.append(
                    {
                        "check": "transport-match",
                        "detail": f"{{{a},{b}}} differs from the transported table",
                    }
                )
        t, u = self.t_name, self.u_name
        if (self.final.entry(t, u) - ctx.var(t, 1 - self.k)).below(horizon):
            out.append({"check": "leaf-standard", "detail": "{t,u} is not standard"})
        for a, b in self.pairs:
            if (self.final.entry(a, b) - 1).below(horizon):
                out.append({"check": "leaf-standard", "detail": f"{{{a},{b}}} != 1"})
        leaf = [t, u] + [v for ab in self.pairs for v in ab]
        for i, a in enumerate(leaf):
            for b in leaf[i + 1 :]:
                if (a, b) == (t, u) or any({a, b} == {x, y} for x, y in self.pairs):
                    continue
                if self.final.entry(a, b).below(horizon):
                    out.append(
                        {"check": "leaf-standard", "detail": f"{{{a},{b}}} != 0"}
                    )
        for s in self.slice_names:
            if self.final.entry(t, s).below(horizon):
                out.append({"check": "couplings", "detail": f"{{{t},{s}}} != 0"})
            for v in [x for ab in self.pairs for x in ab]:
                if self.final.entry(v, s).below(horizon):
                    out.append({"check": "couplings", "detail": f"{{{v},{s}}} != 0"})
        try:
            sigma, xi = self._slice_data()
        except StageError as err:
            out.append({"check": "slice-closure", "detail": str(err)})
        else:
            if sigma != self.slice_table:
                out.append({"check": "slice-closure", "detail": "slice table mismatch"})
            if xi != self.residual_field:
                out.append({"check": "slice-closure", "detail": "residual field mismatch"})
        for record in self.final.check_jacobi(certified_only=True):
            out.append({"check": "jacobi", "detail": str(record)})
        return out

    def _slice_data(self) -> tuple[dict, dict]:
        """The slice table and the residual field of final in the
        weight-zero chart s -> t^(-w/ell) * s, over the slice context.

        Terms at or above the certification horizon are dropped before
        the closure checks; the slice data is only claimed below it."""
        final, names, weights = self.final, self.slice_names, self.slice_weights

        def read(a, b, weight):
            """{a, b} below the horizon times t^(k - weight/ell)."""
            dressing = final.ctx.var(self.t_name, self.k - weight // self.ell)
            dressed = final.entry(a, b).below(self.certified_jorder) * dressing
            return self._to_slice_polynomial(dressed, f"{{{a},{b}}}")

        sigma = {
            (a, b): read(a, b, weights[a] + weights[b])
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        }
        xi = {s: read(self.u_name, s, weights[s]) for s in names}
        return sigma, xi

    def _to_slice_polynomial(self, elem: TruncatedElement, what: str) -> TruncatedElement:
        """Rewrite an element of the weight-zero chart as a polynomial in
        the rescaled slice variables, or fail with the offending coupling."""
        ctx = self.final.ctx
        ti = ctx.index(self.t_name)
        slice_pos = [ctx.index(s) for s in self.slice_names]
        weights = [self.slice_weights[s] for s in self.slice_names]
        out = {}
        for exps, coeff in elem.terms.items():
            for i, e in enumerate(exps):
                if e and i != ti and i not in slice_pos:
                    raise StageError(
                        "extract-slice",
                        f"{what} still couples to {ctx.variables[i]} after "
                        "normalization; this signals a Jacobi failure upstream",
                    )
            key = tuple(exps[i] for i in slice_pos)
            dressing = -sum(e * w for e, w in zip(key, weights)) // self.ell
            if exps[ti] != dressing:
                raise StageError(
                    "extract-slice",
                    f"{what} carries a stray conic power after normalization",
                )
            out[key] = coeff
        return TruncatedElement(self.slice_ctx, out)

    def as_json(self) -> dict:
        return {
            "roles": {
                "conic": self.t_name,
                "conjugate": self.u_name,
                "pairs": [list(ab) for ab in self.pairs],
                "slice": list(self.slice_names),
            },
            "k": self.k,
            "conic_weight": self.ell,
            "slice_weights": dict(sorted(self.slice_weights.items())),
            "order": self.final.ctx.order,
            "certified_jorder": self.certified_jorder,
            "form": self.form,
            "residual_field": {s: str(v) for s, v in sorted(self.residual_field.items())},
            "slice_table": {f"{a},{b}": str(v) for (a, b), v in sorted(self.slice_table.items())},
            "change": self.change.as_strings(),
            "final_table": self.final.table_as_strings(),
            "stages": list(self.stage_log),
        }


def _coupling_move_system(cur, t_name, u_name, slice_names, leaf, horizon):
    """The linear action of the admissible moves on the coupling row.

    Returns (targets, cands, columns) where targets maps each slice
    name to the trusted coupling {u, s}, cands lists the admissible
    moves, and columns their first-order effect on the row, keyed by
    (slice index, exponent tuple).  Two families qualify:

      * conjugate shifts u -> u - h with h weight-zero in the conic and
        slice coordinates, acting by minus the slice-Hamiltonian field
        of h;
      * slice translations s_i -> s_i + g with g weight-homogeneous in
        the conic and slice coordinates carrying a nonzero conic
        exponent, acting through {u, g} (whose conic derivative pairs
        with {u, t}, realizing a grading shift of g) together with the
        re-expression of the other couplings.

    Both families leave the conic pairing, the flattened couplings and
    the pair block untouched, so they are exactly the moves still
    available after the earlier stages."""
    ctx = cur.ctx
    targets = {s: cur.entry(u_name, s).below(horizon) for s in slice_names}
    if not any(targets.values()):
        return targets, [], []
    max_jorder = 1 + max(
        max(ctx.jorder_of_exps(e) for e in v.terms)
        for v in targets.values()
        if v
    )
    cands = []
    columns = []

    def admissible(exps, min_jorder):
        jord = ctx.jorder_of_exps(exps)
        return min_jorder <= jord <= max_jorder and all(
            exps[ctx.index(v)] == 0 for v in leaf
        )

    for exps in cur.weight_monomials(0):
        if not admissible(exps, 1):
            continue
        mono = ctx.monomial(exps)
        dmono = mono.gradient()
        col = {}
        for si, s in enumerate(slice_names):
            # {mono, s} = -{s, mono}
            shift = (-cur.generator_bracket(ctx.index(s), dmono)).below(horizon)
            for oe, oc in shift.terms.items():
                col[(si, oe)] = -oc
        if col:
            cands.append(("conjugate", None, mono))
            columns.append(col)
    for si, s in enumerate(slice_names):
        for exps in cur.weight_monomials(ctx.weight_of_name(s)):
            if not admissible(exps, 1) or exps[ctx.index(t_name)] == 0:
                continue
            mono = ctx.monomial(exps)
            col = {}
            shift = cur.generator_bracket(ctx.index(u_name), mono.gradient()).below(horizon)
            for oe, oc in shift.terms.items():
                col[(si, oe)] = oc
            for sj, s_other in enumerate(slice_names):
                conj = (-targets[s_other].partial(s) * mono).below(horizon)
                for oe, oc in conj.terms.items():
                    key = (sj, oe)
                    col[key] = col.get(key, 0) + oc
            col = {key: v for key, v in col.items() if v}
            if col:
                cands.append(("translate", s, mono))
                columns.append(col)
    return targets, cands, columns


# -- the stages ---------------------------------------------------------------


class _Run:
    """One normalization in progress: the current presentation, the
    steps that reached it from the source, and the facts the stages
    share (the conic coordinate t and its weight ell, the conjugate u,
    the exponent k, the pairs and slice names once split off, and the
    certification horizon).  apply is the only place a step transports
    the presentation."""

    def __init__(self, pres: PoissonPresentation):
        self.ctx = pres.ctx
        self.cur = pres
        self.steps: list[CoordinateChange] = []
        self.horizon = certification_horizon(self.ctx)
        self.t = self.u = self.k = self.ell = None
        self.pairs: list[tuple[str, str]] = []
        self.slice_names: list[str] = []

    @property
    def others(self) -> list[str]:
        """The generators other than t and u, in context order."""
        return [g for g in self.ctx.variables if g not in (self.t, self.u)]

    def trusted(self, a: str, b: str) -> TruncatedElement:
        """The entry {a, b} below the certification horizon."""
        return self.cur.entry(a, b).below(self.horizon)

    def apply(self, step: CoordinateChange) -> None:
        self.cur = step.transport(self.cur)
        self.steps.append(step)

    def apply_forward(self, forward: dict) -> None:
        """Apply the near-identity change with these forward images, if any."""
        if forward:
            self.apply(CoordinateChange.from_forward(self.ctx, forward))

    def change(self) -> CoordinateChange:
        """The composite of every step taken, from the source presentation."""
        return CoordinateChange.compose(self.ctx, self.steps)

    def sweep(self, stage: str, subject: str, passes, floor: int = 0) -> int:
        """Drive the passes of one iterative stage; returns their number.

        passes yields, before each pass applies its correction, the least
        J-order of the defect that the correction targets.  It must rise
        strictly above floor and above the previous pass, or a StageError
        names subject.  Defects are trusted, so every order lies below the
        horizon and the sweep ends within horizon - floor passes."""
        count = 0
        for order in passes:
            if order <= floor:
                message = f"{subject} did not rise; this signals a Jacobi failure upstream"
                raise StageError(stage, message)
            if order >= self.horizon:
                raise InternalError(f"[{stage}] a trusted defect reached J-order {order}")
            floor = order
            count += 1
        return count


def _rescale(run: _Run, name: str, lead: TruncatedElement, target: int, stage: str) -> None:
    """Rescale a generator by a conic monomial so that the lead c * t^a
    of its pairing becomes t^target."""
    ctx = run.ctx
    coeff, a = _single_t_monomial(ctx, lead, run.t, stage)
    if (coeff, a) == (1, target):
        return
    exps = [0] * len(ctx.variables)
    exps[ctx.index(run.t)] = target - a
    exps[ctx.index(name)] = 1
    fwd = ctx.monomial(tuple(exps), quo(1, coeff))
    exps[ctx.index(run.t)] = a - target
    inv = ctx.monomial(tuple(exps), coeff)
    run.apply(CoordinateChange(ctx, {name: fwd}, {name: inv}))


def _validate(run: _Run) -> int:
    """Stage validate: the grading, the bracket degree -k*ell and the
    Jacobi identity.  Sets t, ell and k; returns the bracket degree."""
    ctx = run.ctx
    if ctx.order < 2:
        raise StageError(
            "validate", "normalization needs a truncation order of at least 2"
        )
    inv_vars = [v for v in ctx.variables if v in ctx.invertible]
    if len(inv_vars) != 1:
        raise StageError(
            "validate", f"need exactly one invertible generator, found {inv_vars}"
        )
    run.t = inv_vars[0]
    run.ell = ell = ctx.weight_of_name(run.t)
    if ell <= 0:
        raise StageError("validate", "the conic coordinate must have positive weight")
    outside = [v for v in ctx.variables if v != run.t and v not in ctx.filtration]
    if outside:
        raise StageError(
            "validate", f"generators {outside} lie outside the filtration"
        )
    try:
        degree = run.cur.homogeneity_degree()
    except ValueError as err:
        raise StageError("validate", f"inhomogeneous table: {err}") from err
    if degree % ell:
        raise StageError(
            "validate",
            f"the bracket degree {degree} is not a multiple of the conic weight {ell}",
        )
    run.k = -(degree // ell)
    bad_weights = [v for v in ctx.variables if ctx.weight_of_name(v) % ell]
    if bad_weights:
        raise StageError(
            "validate",
            f"weights of {bad_weights} are not multiples of the conic weight {ell}",
        )
    violations = run.cur.check_jacobi(certified_only=True)
    if violations:
        raise StageError("validate", "the table fails the Jacobi identity", violations)
    return degree


def _locate_conjugate(run: _Run) -> None:
    """Stage locate-conjugate: the first generator pairing with t at
    J-order zero becomes u, rescaled so that {t, u} leads with t^(1-k)."""
    for g in run.ctx.variables:
        if g == run.t:
            continue
        lead = run.cur.entry(run.t, g).jpart(0)
        if lead:
            run.u = g
            _rescale(run, g, lead, 1 - run.k, "locate-conjugate")
            return
    raise StageError(
        "locate-conjugate",
        "no generator pairs with the conic coordinate at constant order; "
        "the structure has no conic symplectic direction",
    )


def _flatten_conic(run: _Run) -> None:
    """Stage flatten-conic: sweeps of u-antiderivative corrections until
    {t, g} = 0 below the horizon for every generator g other than u."""
    ctx, t = run.ctx, run.t
    others = run.others

    def passes():
        while True:
            defects = {}
            for g in others:
                d = run.trusted(t, g)
                if d:
                    defects[g] = d
            if not defects:
                return
            yield min(d.min_jorder() for d in defects.values())
            t_power = ctx.var(t, run.k - 1)
            run.apply_forward({
                g: ctx.var(g) - (t_power * d).antiderivative(run.u)
                for g, d in defects.items()
            })

    run.sweep("flatten-conic", "the defect order", passes(), floor=-1)


def enforce_tu(run: _Run) -> int:
    """Stage conjugate-normalize: corrections to u making {t, u} =
    t^(1-k) below the horizon.

    Requires {t, g} = 0 below the horizon for every generator g other
    than u.  Returns the number of passes; each pass squares the
    J-order of the defect."""
    ctx, t, u = run.ctx, run.t, run.u
    offenders = [g for g in run.others if run.trusted(t, g)]
    if offenders:
        raise StageError(
            "conjugate-normalize",
            f"the conic couplings {offenders} must be flattened first",
        )

    def passes():
        while True:
            eps = (run.cur.entry(t, u) * ctx.var(t, run.k - 1) - 1).below(run.horizon)
            if not eps:
                return
            yield eps.min_jorder()
            correction = ctx.zero()
            for exp, coeff_elem in eps.coefficients_in(u).items():
                if coeff_elem.involves(u) or run.cur.generator_bracket(
                    ctx.index(t), coeff_elem.gradient()
                ).below(run.horizon):
                    raise StageError(
                        "conjugate-normalize",
                        f"the defect coefficient at conjugate power {exp} does "
                        "not commute with the conic coordinate",
                    )
                correction = correction + (
                    ctx.var(u, exp + 1) * coeff_elem
                ).scale(quo(1, exp + 1))
            run.apply_forward({u: ctx.var(u) - correction})

    return run.sweep("conjugate-normalize", "the pairing defect order", passes())


def _split_pairs(run: _Run) -> None:
    """Stage pair-split: kill the constant u-couplings a t-power shift
    absorbs, then split off Darboux pairs by symplectic Gram-Schmidt on
    the constant pairing matrix.  Sets pairs and slice_names."""
    ctx, t, u = run.ctx, run.t, run.u
    shifts_fwd = {}
    shifts_inv = {}
    for g in run.others:
        lead = run.cur.entry(u, g).jpart(0)
        if not lead:
            continue
        coeff, a = _single_t_monomial(ctx, lead, t, "pair-split")
        b = a + run.k
        if b == 0:
            continue
        shift = ctx.var(t, b).scale(quo(coeff, b))
        shifts_fwd[g] = ctx.var(g) + shift
        shifts_inv[g] = ctx.var(g) - shift
    if shifts_fwd:
        run.apply(CoordinateChange(ctx, shifts_fwd, shifts_inv))
    remaining = run.others
    while True:
        hit = None
        for i, gi in enumerate(remaining):
            for gj in remaining[i + 1 :]:
                lead = run.cur.entry(gi, gj).jpart(0)
                if lead:
                    hit = (gi, gj, lead)
                    break
            if hit:
                break
        if hit is None:
            break
        a_name, b_name, lead = hit
        _rescale(run, b_name, lead, 0, "pair-split")
        corrections = {}
        for g in remaining:
            if g in (a_name, b_name):
                continue
            alpha = run.cur.entry(g, a_name).jpart(0)
            beta = run.cur.entry(g, b_name).jpart(0)
            if alpha or beta:
                corrections[g] = (
                    ctx.var(g) + alpha * ctx.var(b_name) - beta * ctx.var(a_name)
                )
        run.apply_forward(corrections)
        run.pairs.append((a_name, b_name))
        remaining.remove(a_name)
        remaining.remove(b_name)
    run.slice_names = remaining
    for i, gi in enumerate(remaining):
        for gj in remaining[i + 1 :]:
            if run.cur.entry(gi, gj).jpart(0):
                raise StageError(
                    "pair-split", f"constant pairing of ({gi},{gj}) survived the split"
                )


def _straighten_pairs(run: _Run) -> None:
    """Stage straighten-pairs: flatten each Darboux pair against all
    later generators by two-phase antiderivative sweeps."""
    ctx = run.ctx

    def passes(a_name, b_name, later):
        while True:
            defects = []
            d_pair = (run.cur.entry(a_name, b_name) - 1).below(run.horizon)
            if d_pair:
                defects.append(d_pair)
            for g in later:
                for v in (a_name, b_name):
                    d = run.trusted(v, g)
                    if d:
                        defects.append(d)
            if not defects:
                return
            yield min(d.min_jorder() for d in defects)
            fwd = {}
            if d_pair:
                fwd[b_name] = ctx.var(b_name) - d_pair.antiderivative(b_name)
            for g in later:
                d = run.trusted(a_name, g)
                if d:
                    fwd[g] = ctx.var(g) - d.antiderivative(b_name)
            run.apply_forward(fwd)
            fwd = {}
            for g in later:
                d = run.trusted(b_name, g)
                if d:
                    fwd[g] = ctx.var(g) + d.antiderivative(a_name)
            run.apply_forward(fwd)

    for q, (a_name, b_name) in enumerate(run.pairs):
        later = [v for ab in run.pairs[q + 1 :] for v in ab] + run.slice_names
        subject = f"the defect order for pair ({a_name},{b_name})"
        run.sweep("straighten-pairs", subject, passes(a_name, b_name, later))


def decouple_u(run: _Run) -> int:
    """Stage decouple-conjugate: shifts of u killing its couplings to
    every Darboux pair.

    Requires standard pair brackets and flat conic and cross couplings,
    all below the certification horizon.  Returns the number of shifts."""
    ctx, t, u, pairs = run.ctx, run.t, run.u, run.pairs
    pair_vars = [v for ab in pairs for v in ab]
    problems = []
    for a, b in pairs:
        if (run.cur.entry(a, b) - 1).below(run.horizon):
            problems.append(f"{{{a},{b}}} != 1")
    for v in pair_vars:
        if run.trusted(t, v):
            problems.append(f"{{{t},{v}}} != 0")
        for w in pair_vars:
            if w != v and not any({v, w} == {a, b} for a, b in pairs):
                if run.trusted(v, w):
                    problems.append(f"{{{v},{w}}} != 0")
    if problems:
        raise StageError(
            "decouple-conjugate",
            "the pair block must be exactly standard first: " + "; ".join(sorted(set(problems))),
        )
    passes = 0
    for a, b in pairs:
        coupling = run.trusted(u, a)
        if coupling:
            run.apply_forward({u: ctx.var(u) + coupling.antiderivative(b)})
            passes += 1
        if run.trusted(u, a):
            raise StageError(
                "decouple-conjugate",
                f"the coupling {{u,{a}}} survived an exact kill; this "
                "signals a Jacobi failure upstream",
            )
        coupling = run.trusted(u, b)
        if coupling:
            run.apply_forward({u: ctx.var(u) - coupling.antiderivative(a)})
            passes += 1
        if run.trusted(u, b) or run.trusted(u, a):
            raise StageError(
                "decouple-conjugate",
                f"the couplings of u to the pair ({a},{b}) survived an "
                "exact kill; this signals a Jacobi failure upstream",
            )
    return passes


def _decouple_slice(run: _Run) -> bool:
    """Stage decouple-slice: sweeps reducing the conjugate coupling to
    its canonical residual.

    Each pass assembles the linear system of _coupling_move_system and
    eliminates it once: expressing the trusted coupling in the span of
    the move columns splits it into the echelon residual and the
    reachable part, a combination of the columns.  One change, the moves
    with minus its coefficients, then absorbs the reachable part.
    Nonlinear transport effects reappear at strictly higher J-order, so
    the sweep terminates; what survives is the obstruction to product
    form.  Returns whether anything was absorbed."""
    ctx, u, slice_names = run.ctx, run.u, run.slice_names
    leaf = [v for ab in run.pairs for v in ab] + [u]

    def passes():
        while True:
            targets, cands, columns = _coupling_move_system(
                run.cur, run.t, u, slice_names, leaf, run.horizon
            )
            target = {
                (si, oe): oc
                for si, s in enumerate(slice_names)
                for oe, oc in targets[s].terms.items()
            }
            coefficients, residual = linalg.Span(columns).express(target)
            if not coefficients:
                return
            yield min(
                ctx.jorder_of_exps(key[1])
                for key in target.keys() | residual.keys()
                if target.get(key) != residual.get(key)
            )
            forward = {}
            for j, (kind, name, mono) in enumerate(cands):
                c = coefficients.get(j)
                if not c:
                    continue
                piece = mono.scale(-c)
                if kind == "conjugate":
                    forward[u] = forward.get(u, ctx.var(u)) - piece
                else:
                    forward[name] = forward.get(name, ctx.var(name)) + piece
            run.apply_forward(forward)

    return run.sweep("decouple-slice", "the reachable coupling order", passes()) > 0


def normalize_full(pres: PoissonPresentation) -> DecompositionCertificate:
    """Run the full staged normalization and return a verified certificate."""
    run = _Run(pres)
    degree = _validate(run)
    log = [f"validate: degree {degree}, k={run.k}, conic weight {run.ell}"]
    _locate_conjugate(run)
    log.append(f"locate-conjugate: {run.u}")
    _flatten_conic(run)
    log.append("flatten-conic: flat below the horizon")
    log.append(f"conjugate-normalize: {enforce_tu(run)} passes")
    _split_pairs(run)
    log.append(f"pair-split: {len(run.pairs)} pairs, {len(run.slice_names)} slice candidates")
    _straighten_pairs(run)
    log.append("straighten-pairs: flat below the horizon")
    if run.pairs:
        log.append(f"decouple-conjugate: {decouple_u(run)} shifts")
    if _decouple_slice(run):
        log.append("decouple-slice: reachable part absorbed")
    else:
        log.append("decouple-slice: nothing to absorb")

    log.append("extract-slice: done")
    cert = DecompositionCertificate(pres, run, log)
    failures = cert.verify()
    if failures:
        raise StageError("certify", "the certificate failed re-verification", failures)
    cert.stage_log.append(f"certify: form {cert.form}")
    return cert


# -- scrambling (for round-trip exercises) ------------------------------------


def scramble_presentation(pres: PoissonPresentation, pairs: list, seed: int):
    """A seeded random change of generators, honestly transported.

    The conic coordinate is t and its conjugate u.  The change composes
    two bracket flows taken with respect to the standard block only (so
    they are genuine flow substitutions but not automorphisms of the full
    structure and visibly scramble the table), three triangular
    weight-homogeneous substitutions with corrections of J-order at least
    two, and one linear mix of equal-weight slice variables.  Corrections
    to slice variables never carry the conic coordinate, so the coupling
    they induce stays absorbable.  Returns (change, scrambled_presentation)."""
    t_name, u_name = "t", "u"
    ctx = pres.ctx
    rng = random.Random(seed)
    degree = pres.degree if pres.degree is not None else pres.homogeneity_degree()
    block_table = {(t_name, u_name): pres.entry(t_name, u_name)}
    for a, b in pairs:
        block_table[(a, b)] = pres.entry(a, b)
    block = PoissonPresentation(ctx, block_table, degree=degree)
    pair_vars = {v for ab in pairs for v in ab}
    slice_vars = [
        v for v in ctx.variables if v not in pair_vars and v not in (t_name, u_name)
    ]

    def random_monomial(target_weight, min_jorder, conic_free=False):
        cands = [
            e
            for e in pres.weight_monomials(target_weight)
            if ctx.jorder_of_exps(e) >= min_jorder
            and (not conic_free or e[ctx.index(t_name)] == 0)
        ]
        if not cands:
            return None
        coeff = quo(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        return ctx.monomial(rng.choice(cands), coeff)

    changes = []
    for _ in range(2):
        hamiltonian = random_monomial(-degree, 3)
        if hamiltonian is not None:
            changes.append(hamiltonian_flow_change(block, hamiltonian))
    for _ in range(3):
        name = rng.choice(ctx.variables)
        if name == t_name:
            j = random_monomial(0, 2)
            if j is not None:
                t = ctx.var(t_name)
                changes.append(
                    CoordinateChange.from_forward(ctx, {t_name: t + t * j})
                )
        else:
            m = random_monomial(
                ctx.weight_of_name(name), 2, conic_free=name in slice_vars
            )
            if m is not None:
                changes.append(
                    CoordinateChange.from_forward(ctx, {name: ctx.var(name) + m})
                )
    for _ in range(1):
        mixable = [
            (a, b)
            for a in slice_vars
            for b in slice_vars
            if a != b and ctx.weight_of_name(a) == ctx.weight_of_name(b)
        ]
        if mixable:
            a, b = mixable[rng.randrange(len(mixable))]
            coeff = rng.choice([-2, -1, 1, 2])
            changes.append(
                CoordinateChange.from_forward(
                    ctx, {a: ctx.var(a) + ctx.var(b).scale(coeff)}
                )
            )
    composite = CoordinateChange.compose(ctx, changes)
    return composite, composite.transport(pres)
