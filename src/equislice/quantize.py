"""Graded hbar-algebras by oriented rewriting, and their slice kernels.

A presentation fixes generators with integer weights, a central formal
parameter hbar of weight k, and one oriented rule per generator pair:
the right letter moves past the left one at the cost of a correction
that carries at least one power of hbar.  Words then have a unique
normal form, an expansion in ordered monomials with hbar-truncated
coefficients, provided the rules are confluent; confluence is certified
on the rules' ambiguities, the three-letter words on which two swaps
overlap or a swap meets the cancellation of x^e x^-e.

Inverse letters of invertible generators rewrite through the push-down
identity [a, b^-1] = -b^-1 [a,b] b^-1, expanded to the truncation
order; the corrections' hbar factors make the expansion finite.  A
pushed-down row is kept for the presentation's life, and its products
are charged to the budget of the straightening that first needs it.

A word is straightened with equal states merged: pending (word, hbar
power) states collect their coefficients and are expanded in order of
hbar power, then of falling inversion count.  A swap keeps the hbar
power and removes one inversion, and a correction raises the hbar
power, so a state has received every contribution before it is
expanded, each state is rewritten once however many rewrite paths reach
it, and a state whose contributions cancel is dropped.  One step of the
budget is one expanded state.

Products are formed term pair by term pair.  A pair none of whose
crossing letters has a rule is the merged monomial; any other pair is
straightened once and its normal form kept in a memo that the caller
scopes to one computation (quantized_slice shares one across its whole
call).  The rules are fixed and confluent, so a pair's normal form never
changes, and a cached pair costs the rewrite steps it cost when it was
first straightened, less any push-down row that straightening built:
whether a step budget runs out never depends on what the memo holds.  A
computation that forms many products reads the budget once and hands it
to each; every product still starts with the whole budget.

Each built-in family quantizes a Poisson presentation without relations
by HbarPresentation.from_poisson, [g_a, g_b] = hbar*{g_a, g_b} with hbar
of weight minus the bracket degree: standard_presentation (differential
operators on a torus times affine space), Darboux pairs, and the
Lie-Poisson presentation of a graded Lie algebra (plain sl2 is
fixtures.sl2_presentation).  So hbar^-1 [g_i, g_j] = {g_i, g_j} mod hbar
holds by construction; quantization_axiom_check tests it pair by pair
for an algebra and a classical presentation given apart.

The transverse slice of such an algebra along a conic coordinate t and
Darboux lifts z_i is the joint kernel of the derivations hbar^-1 ad(t)
and hbar^-1 ad(z_i) at a fixed hbar order.  The kernel is computed by
exact linear algebra on a weight window of monomials.  It is closed
under multiplication by Leibniz, [l, v1 v2] = [l, v1] v2 + v1 [l, v2]
with hbar central, once multiplication is associative, which the
confluence certificate gives (Bergman's diamond lemma).

Since every correction carries hbar, the lowest hbar layer of a product
is the commutative product of its factors' lowest layers, the classical
limit.  The generator search reads that layer before it multiplies a
pair, and forms no product that its spans would ignore: one lying wholly
at hbar^truncation or above, or one reaching a monomial that no basis
element of its weight holds.
"""

from __future__ import annotations

from itertools import product as iter_product

from .fixtures import sl2_presentation
# in_span is unused here but stays importable: the benchmark's tracer
# test (perfbench/test_quick.py) checks that it is rebound in this module
from .linalg import Echelon, Span, in_span
from .poisson import (PoissonPresentation, RewriteLimitError, max_steps,
                      standard_presentation)
from .scalars import InternalError, Q, exact, exact_int, quo
from .series import GradedContext


class ConicRelationError(ValueError):
    """Lifts of a quantized slice that fail the conic relations."""


def _charge(budget: list, steps: int) -> None:
    budget[0] -= steps
    if budget[0] < 0:
        raise RewriteLimitError(
            "rewriting exceeded the step budget; raise "
            "EQUISLICE_MAX_STEPS if the input is this large"
        )


def _merged(m1, m2) -> tuple:
    # the monomial m1*m2 with its letters commuting: exponents added, zero
    # exponents dropped
    exps = dict(m1)
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted((i, e) for i, e in exps.items() if e))


def _inversions(word) -> int:
    count = 0
    for n, (i, _e) in enumerate(word):
        for j, _f in word[n + 1:]:
            if i > j:
                count += 1
    return count


def _add_state(pending: dict, level: tuple, word: tuple, c) -> None:
    states = pending.setdefault(level, {})
    s = states.get(word, 0) + c
    if s:
        states[word] = s
    else:
        del states[word]


def element_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def element_scale(a: dict, c) -> dict:
    c = exact(Q(c))
    if not c:
        return {}
    return {key: v * c for key, v in a.items()}


class HbarPresentation:
    """Generators, weights, and oriented commutation rules mod hbar^N.

    Elements are dicts mapping (hbar power, monomial) to a rational
    coefficient, where a monomial lists (generator index, exponent)
    pairs with strictly increasing indices.  The declared generator
    order is the monomial order, with invertible generators required to
    come first so that every correction is a step down; the invertible
    indices are thus range(len(invertible)).  The names, weights and
    invertible generators are those of ctx, the GradedContext that checks
    them and walks the monomials of a weight."""

    def __init__(self, names, weights, k: int, commutators: dict,
                 invertible=(), order: int = 3):
        self.ctx = GradedContext(names, weights, invertible=invertible)
        self.names = self.ctx.variables
        self.weights = self.ctx.weights
        self.invertible = self.ctx.invertible
        self.k = exact_int(k, "k")
        self.order = exact_int(order, "the hbar truncation order")
        if self.order < 1:
            raise ValueError("the hbar truncation order must be positive")
        n_inv = len(self.invertible)
        if set(self.names[:n_inv]) != self.invertible:
            raise ValueError(
                "invertible generators must come first in the declared order"
            )
        self._index = {g: i for i, g in enumerate(self.names)}
        self.commutators: dict[tuple[int, int], dict] = {}
        for (a, b), terms in commutators.items():
            for name in (a, b):
                if name not in self._index:
                    raise ValueError(f"unknown generator {name}")
            i, j = self._index[a], self._index[b]
            if i >= j:
                raise ValueError(
                    f"commutator keys follow the declared order, got ({a},{b})"
                )
            elem = self.from_terms(terms)
            for (hpow, mono) in elem:
                if hpow < 1:
                    raise ValueError(
                        f"the ({a},{b}) correction must carry hbar"
                    )
                w = hpow * self.k + self._mono_weight(mono)
                if w != self.weights[i] + self.weights[j]:
                    raise ValueError(
                        f"the ({a},{b}) correction is not weight homogeneous"
                    )
            if elem:
                self.commutators[(i, j)] = elem
        # (i, ei, j, ej) -> the signed correction rows of swapping the
        # letters g_j^ej and g_i^ei (see _swap_rows); the rules are fixed,
        # so the rows stay valid for the presentation's life
        self._corr_cache: dict[tuple[int, int, int, int], tuple] = {}
        self._corr_building: set[tuple[int, int, int, int]] = set()

    @classmethod
    def from_poisson(cls, p: PoissonPresentation,
                     order: int = 3) -> HbarPresentation:
        """[g_a, g_b] = hbar*{g_a, g_b} over the context of p, a Poisson
        presentation without relations that passes check_jacobi; hbar
        weighs minus the declared bracket degree, or minus the table's
        homogeneity degree when none is declared."""
        if p.relations:
            raise ValueError("an hbar presentation has no relation ideal")
        violations = p.check_jacobi()
        if violations:
            raise ValueError(
                "structure constants fail the Jacobi identity at "
                f"({','.join(violations[0]['triple'])})"
            )
        degree = p.homogeneity_degree() if p.degree is None else p.degree
        names = p.ctx.variables
        rules = {
            pair: [(c, 1, dict(zip(names, e)))
                   for e, c in p.entry(*pair).terms.items()]
            for pair in p.pairs()
        }
        return cls(names, p.ctx.weights, -degree, rules,
                   invertible=p.ctx.invertible, order=order)

    # -- element construction ------------------------------------------------

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return {(0, ()): 1}

    def _hbar_power(self, power) -> int:
        power = exact_int(power, "an hbar power")
        if power < 0:
            raise ValueError("hbar powers must be nonnegative")
        return power

    def _factor(self, name, exp) -> tuple:
        """(index, exponent) of the factor name^exp, checked."""
        if name not in self._index:
            raise ValueError(f"unknown generator {name}")
        exp = exact_int(exp, f"the exponent of {name}")
        if exp < 0 and name not in self.invertible:
            raise ValueError(f"{name} is not invertible")
        return self._index[name], exp

    def hbar(self, power: int = 1) -> dict:
        power = self._hbar_power(power)
        if power >= self.order:
            return {}
        return {(power, ()): 1}

    def var(self, name: str, exp: int = 1) -> dict:
        i, exp = self._factor(name, exp)
        if exp == 0:
            return self.one()
        return {(0, ((i, exp),)): 1}

    def from_terms(self, terms) -> dict:
        """Element from (coefficient, hbar power, {name: exponent}) rows."""
        out: dict = {}
        for coeff, hpow, exps in terms:
            hpow = self._hbar_power(hpow)
            if hpow >= self.order:
                continue
            mono = sorted(self._factor(name, e) for name, e in exps.items())
            key = (hpow, tuple((i, e) for i, e in mono if e))
            s = exact(out.get(key, 0) + Q(coeff))
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    # -- weights ---------------------------------------------------------------

    def _mono_weight(self, mono) -> int:
        return sum(e * self.weights[i] for i, e in mono)

    def weight_of(self, element: dict):
        """The common weight of a homogeneous element, None when zero."""
        seen = {
            hpow * self.k + self._mono_weight(mono)
            for (hpow, mono) in element
        }
        if not seen:
            return None
        if len(seen) > 1:
            raise ValueError(f"element mixes weights {sorted(seen)}")
        return seen.pop()

    # -- rewriting -------------------------------------------------------------

    def _letters(self, mono) -> tuple:
        out = []
        for i, e in mono:
            step = 1 if e > 0 else -1
            out.extend([(i, step)] * abs(e))
        return tuple(out)

    def _collect(self, letters, hpow, coeff, out) -> None:
        mono = []
        for i, e in letters:
            if mono and mono[-1][0] == i:
                mono[-1] = (i, mono[-1][1] + e)
                if mono[-1][1] == 0:
                    mono.pop()
            else:
                mono.append((i, e))
        if any(e < 0 and i >= len(self.invertible) for i, e in mono):
            raise InternalError("negative exponents require invertible generators")
        key = (hpow, tuple(mono))
        s = out.get(key, 0) + coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    def _straighten(self, letters, hpow, coeff, out, budget,
                    strategy: str = "first") -> int:
        """Add coeff*hbar^hpow times the normal form of a word to out,
        one step per (word, hbar power) state expanded; the steps, not
        counting the products that build a push-down row, are returned.

        Pending states are kept by level (hbar power, -inversions) and a
        level is expanded only once every lower one has been: a swap lands
        one level up, a correction at a higher hbar power, so no expanded
        state ever receives another contribution.  The leftmost ("first")
        or rightmost inverted letter pair is swapped; certify_confluence
        compares the two."""
        word = tuple(letters)
        pending = {(hpow, -_inversions(word)): {word: coeff}}
        steps = 0
        while pending:
            level = min(pending)
            states = pending.pop(level)
            _charge(budget, len(states))
            steps += len(states)
            p, neg_inv = level
            for word, c in states.items():
                if not neg_inv:
                    self._collect(word, p, c, out)
                    continue
                spots = range(len(word) - 1)
                if strategy != "first":
                    spots = reversed(spots)
                m = next(m for m in spots if word[m][0] > word[m + 1][0])
                (j, ej), (i, ei) = word[m], word[m + 1]
                head, tail = word[:m], word[m + 2:]
                _add_state(pending, (p, neg_inv + 1),
                           head + ((i, ei), (j, ej)) + tail, c)
                for p2, letters2, c2 in self._swap_rows(j, ej, i, ei, budget):
                    if p + p2 < self.order:
                        w2 = head + letters2 + tail
                        _add_state(pending, (p + p2, -_inversions(w2)), w2,
                                   c * c2)
        return steps

    def _swap_rows(self, j: int, ej: int, i: int, ei: int, budget) -> tuple:
        # [g_j^ej, g_i^ei] for j > i, the correction when they swap, as
        # (hbar power, letters, coefficient) rows; building a row charges
        # the budget of the straightening that first needs it
        key = (i, ei, j, ej)
        rows = self._corr_cache.get(key)
        if rows is None:
            rows = tuple(
                (p, self._letters(mono), -c)
                for (p, mono), c in self._pair_commutator(i, ei, j, ej, budget).items()
            )
            self._corr_cache[key] = rows
        return rows

    def _pair_commutator(self, i: int, ei: int, j: int, ej: int, budget) -> dict:
        # [g_i^ei, g_j^ej] for i < j, pushed down through inverse letters
        out = self.commutators.get((i, j), {})
        if not out or (ei > 0 and ej > 0):
            return out
        key = (i, ei, j, ej)
        if key in self._corr_building:
            raise RewriteLimitError(
                "inverse rule expansion is cyclic for "
                f"({self.names[i]}, {self.names[j]})"
            )
        self._corr_building.add(key)
        try:
            for g, e in ((i, ei), (j, ej)):
                if e < 0:
                    inverse = self.var(self.names[g], -1)
                    out = element_scale(self._product(
                        self._product(inverse, out, budget, {}), inverse,
                        budget, {}), -1)
        finally:
            self._corr_building.discard(key)
        return out

    def _term_product(self, m1, m2, p: int, budget, memo: dict) -> tuple:
        """The normal form of the term pair hbar^p*m1*m2, charged to the
        budget, as one flat tuple (steps, key, coeff, key, coeff, ...)
        with unit input coefficient.

        steps is what straightening the pair spends, one per expanded
        state.  When no crossing letter pair (a letter of m1 above one of
        m2) has a rule, each state has one successor, so that is one step
        per crossing plus the final collect, and the form is the merged
        monomial.  Otherwise the pair is looked up in the memo under (m1,
        m2, p), and straightened and stored there on a miss.  The memo
        also maps each (hbar power, monomial) key it stores to itself, so
        that equal keys share one tuple; term-pair keys are triples and
        never collide with them."""
        steps = 1
        for j, ej in m1:
            for i, ei in m2:
                if i < j:
                    if (i, j) in self.commutators:
                        return self._memo_product(m1, m2, p, budget, memo)
                    steps += abs(ej * ei)
        _charge(budget, steps)
        return (steps, (p, _merged(m1, m2)), 1)

    def _memo_product(self, m1, m2, p: int, budget, memo: dict) -> tuple:
        entry = memo.get((m1, m2, p))
        if entry is not None:
            _charge(budget, entry[0])
            return entry
        # straightened against the caller's budget, so that a runaway pair
        # still stops where the budget runs out; a push-down row it builds
        # is paid once, so a memo hit costs the pair's own steps
        form: dict = {}
        entry = [self._straighten(
            self._letters(m1) + self._letters(m2), p, 1, form, budget
        )]
        for key, c in form.items():
            entry.append(memo.setdefault(key, key))
            entry.append(exact(c))
        entry = memo[(m1, m2, p)] = tuple(entry)
        return entry

    def multiply(self, a: dict, b: dict, memo=None, limit=None) -> dict:
        """The normal form of a*b.

        memo, when given, is a dict shared by the calls of one computation
        on this presentation: the term pairs of every call are looked up
        and stored there (see _term_product).  A term pair costs the steps
        its merged straightening cost when it was first straightened, less
        any push-down row built on the way, so whether the budget runs out
        depends on the call alone, not on what the memo holds.  limit is
        the product's step budget, max_steps() when None; a computation
        that forms many products reads it once."""
        return self._product(a, b, [max_steps() if limit is None else limit],
                             {} if memo is None else memo)

    def _product(self, a: dict, b: dict, budget: list, memo: dict) -> dict:
        # a*b charged to the budget list, which push-down rows share
        out: dict = {}
        for (p1, m1), c1 in a.items():
            for (p2, m2), c2 in b.items():
                p = p1 + p2
                if p >= self.order:
                    continue
                c = c1 * c2
                entry = self._term_product(m1, m2, p, budget, memo)
                for n in range(1, len(entry), 2):
                    key, v = entry[n], entry[n + 1]
                    s = out.get(key, 0) + (c if v == 1 else c * v)
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return out

    def commutator(self, a: dict, b: dict, memo=None, limit=None) -> dict:
        if limit is None:
            limit = max_steps()
        return element_add(
            self.multiply(a, b, memo=memo, limit=limit),
            element_scale(self.multiply(b, a, memo=memo, limit=limit), -1),
        )

    def normal_form(self, word) -> dict:
        """Unique ordered expansion of a word of (name, exponent) pairs."""
        letters = self._letters([self._factor(name, e) for name, e in word])
        out: dict = {}
        self._straighten(letters, 0, 1, out, [max_steps()])
        return out

    def hbar_coefficient(self, element: dict, power: int) -> dict:
        """The {monomial: coefficient} slice at one hbar power."""
        return {
            mono: c for (hpow, mono), c in element.items() if hpow == power
        }

    # -- certification ---------------------------------------------------------

    def certify_confluence(self, limit=None) -> dict:
        """Resolve every ambiguity of the rewriting rules.

        Rewriting terminates (a swap removes an inversion, a correction
        raises the hbar power), so by the diamond lemma normal forms are
        unique once each ambiguity resolves.  A swap fires only where the
        left index is larger, and letters of one index merge, so the
        ambiguities are the overlaps c.b.a with falling indices, whose
        leftmost-first ("first") and rightmost-first ("last") forms must
        agree, and the cancellation words y.x^e.x^-e (y above x) and
        x^e.x^-e.y (y below x), whose "first" form must be the monomial y
        ("last").  A failure gives the word and both forms.  "triples"
        counts all len(alphabet)^3 letter triples, the words whose verdict
        the lemma covers.  limit is each reduction's step budget,
        max_steps() when None."""
        alphabet = [(i, 1) for i in range(len(self.names))] + [
            (i, -1) for i in range(len(self.invertible))
        ]
        failures = []
        if limit is None:
            limit = max_steps()
        for word in iter_product(alphabet, repeat=3):
            (c, ec), (b, eb), (a, ea) = word
            if not (c > b > a or (b, eb) == (a, -ea) and c > a
                    or (c, ec) == (b, -eb) and b > a):
                continue
            first: dict = {}
            self._straighten(word, 0, 1, first, [limit], "first")
            if c > b > a:
                last: dict = {}
                self._straighten(word, 0, 1, last, [limit], "last")
            else:
                last = {(0, (word[0] if b == a else word[2],)): 1}
            if first != last:
                failures.append({
                    "word": [(self.names[i], e) for i, e in word],
                    "first": self.render(first),
                    "last": self.render(last),
                })
        return {"ok": not failures, "triples": len(alphabet) ** 3, "failures": failures}

    # -- display ---------------------------------------------------------------

    def render(self, element: dict) -> str:
        if not element:
            return "0"
        parts = []
        for (hpow, mono) in sorted(element):
            factors = [str(element[(hpow, mono)])]
            if hpow == 1:
                factors.append("hbar")
            elif hpow > 1:
                factors.append(f"hbar^{hpow}")
            for i, e in mono:
                factors.append(
                    self.names[i] if e == 1 else f"{self.names[i]}^{e}"
                )
            parts.append("*".join(factors))
        return " + ".join(parts)

    def as_json(self) -> dict:
        return {
            "generators": list(self.names),
            "weights": list(self.weights),
            "hbar_weight": self.k,
            "order": self.order,
            "invertible": sorted(self.invertible),
            "commutators": {
                f"{self.names[i]},{self.names[j]}": self.render(elem)
                for (i, j), elem in sorted(self.commutators.items())
            },
        }

    def __repr__(self):
        return (
            f"HbarPresentation({list(self.names)}, k={self.k}, "
            f"order={self.order})"
        )


# -- built-in families ---------------------------------------------------------


def differential_family(n: int, k: int, order: int = 3) -> HbarPresentation:
    """Quantized conic coordinates, standard_presentation(n, k) quantized:
    invertible t of weight one, its conjugate u with [t,u] = hbar*t^(1-k),
    and n-1 transverse Darboux pairs of weights (k, 0) with
    [z_{2i-1}, z_{2i}] = hbar."""
    classical = standard_presentation(n, k)
    if k < 0:
        raise ValueError("k must be >= 0")
    return HbarPresentation.from_poisson(classical, order=order)


def weyl_family(pairs: int, k: int, order: int = 3) -> HbarPresentation:
    """Darboux pairs alone: [z_{2i-1}, z_{2i}] = hbar with weights (k, 0)."""
    if pairs < 1:
        raise ValueError("at least one pair is required")
    names = [f"z{i}" for i in range(1, 2 * pairs + 1)]
    ctx = GradedContext(names, [k, 0] * pairs)
    table = {
        (names[i], names[i + 1]): ctx.one() for i in range(0, 2 * pairs, 2)
    }
    return HbarPresentation.from_poisson(
        PoissonPresentation(ctx, table, degree=-k), order=order
    )


def enveloping_family(names, constants: dict, weights=None, k: int = 1,
                      invertible=(), order: int = 3) -> HbarPresentation:
    """Homogenized enveloping algebra: [x_a, x_b] = hbar * (Lie bracket).

    constants maps generator pairs (in declared order) to {name:
    coefficient} rows of the Lie bracket; their Lie-Poisson presentation,
    of bracket degree -k, passes the Jacobi check of from_poisson before
    any rewriting is trusted."""
    names = tuple(names)
    if weights is None:
        weights = (1,) * len(names)
    ctx = GradedContext(names, weights, invertible=invertible)
    for a, b in constants:
        if ctx.index(a) >= ctx.index(b):
            raise ValueError(
                f"constant keys follow the declared order, got ({a},{b})"
            )
    table = {
        pair: sum(
            (ctx.var(g).scale(Q(c)) for g, c in sorted(row.items())),
            ctx.zero(),
        )
        for pair, row in constants.items()
    }
    return HbarPresentation.from_poisson(
        PoissonPresentation(ctx, table, degree=-k), order=order
    )


def sl2_enveloping(order: int = 3, localized: bool = False) -> HbarPresentation:
    """Homogenized U(sl2), the quantization of sl2_presentation; with
    localized=True the generator f is inverted and moved first in the
    monomial order."""
    if not localized:
        return HbarPresentation.from_poisson(sl2_presentation(), order=order)
    constants = {
        ("f", "e"): {"h": -1},
        ("f", "h"): {"f": 2},
        ("e", "h"): {"e": -2},
    }
    return enveloping_family(
        ("f", "e", "h"), constants, invertible=("f",), order=order
    )


def sl2_casimir_element(a: HbarPresentation) -> dict:
    """ef + fe + h^2/2 in normal form."""
    return element_add(
        element_add(
            a.normal_form([("e", 1), ("f", 1)]),
            a.normal_form([("f", 1), ("e", 1)]),
        ),
        element_scale(a.normal_form([("h", 2)]), Q(1, 2)),
    )


# -- verification operations ---------------------------------------------------


def centrality_check(a: HbarPresentation, element: dict) -> dict:
    """Commutators of one element with every generator, rendered."""
    residues = {}
    ok = True
    limit = max_steps()
    for name in a.names:
        r = a.commutator(a.var(name), element, limit=limit)
        if r:
            ok = False
        residues[name] = a.render(r)
    return {"ok": ok, "residues": residues}


def quantization_axiom_check(a: HbarPresentation,
                             p: PoissonPresentation) -> dict:
    """First-order commutators against a classical bracket table.

    Passes when the generator names, weights, invertibles, and bracket
    degree line up and hbar^-1 [g_i, g_j] modulo hbar equals the
    Poisson bracket of every generator pair."""
    failures = []
    ctx = p.ctx
    if tuple(ctx.variables) != a.names:
        failures.append({"kind": "generators", "detail": list(ctx.variables)})
    elif tuple(ctx.weights) != a.weights:
        failures.append({"kind": "weights", "detail": list(ctx.weights)})
    elif set(ctx.invertible) != set(a.invertible):
        failures.append({"kind": "invertible",
                         "detail": sorted(ctx.invertible)})
    if p.degree is None or p.degree != -a.k:
        failures.append({
            "kind": "degree",
            "detail": f"bracket degree {p.degree} against hbar weight {a.k}",
        })
    if failures:
        return {"ok": False, "checked": 0, "failures": failures}
    checked = 0
    limit = max_steps()
    for ai in range(len(a.names)):
        for bi in range(ai + 1, len(a.names)):
            na, nb = a.names[ai], a.names[bi]
            comm = a.commutator(a.var(na), a.var(nb), limit=limit)
            checked += 1
            if a.hbar_coefficient(comm, 0):
                failures.append({
                    "kind": "classical-residue",
                    "pair": [na, nb],
                    "detail": a.render(comm),
                })
                continue
            first = ctx.zero()
            for mono, c in a.hbar_coefficient(comm, 1).items():
                exps = [0] * len(ctx.variables)
                for gi, e in mono:
                    exps[ctx.index(a.names[gi])] = e
                first = first + ctx.monomial(tuple(exps), c)
            if first != p.entry(na, nb):
                failures.append({
                    "kind": "first-order",
                    "pair": [na, nb],
                    "detail": a.render(comm),
                })
    return {"ok": not failures, "checked": checked, "failures": failures}


def verify_sl2_localization(order: int = 3) -> dict:
    """The localized enveloping algebra against its product form.

    With x = f inverted and y = h/2, checks [x,y] = hbar*x, that the
    Casimir ef + fe + h^2/2 commutes with x and y at the truncation
    order, and the weights |hbar| = |x| = |y| = 1, |C| = 2."""
    a = sl2_enveloping(order=order, localized=True)
    x = a.var("f")
    y = element_scale(a.var("h"), Q(1, 2))
    casimir = sl2_casimir_element(a)
    pair_residue = element_add(
        a.commutator(x, y), element_scale(a.multiply(a.hbar(), x), -1)
    )
    checks = {
        "pair_relation": a.render(pair_residue),
        "casimir_with_x": a.render(a.commutator(casimir, x)),
        "casimir_with_y": a.render(a.commutator(casimir, y)),
        "casimir_with_x_inverse": a.render(
            a.commutator(casimir, a.var("f", -1))
        ),
    }
    weights = {
        "hbar": a.k,
        "x": a.weight_of(x),
        "y": a.weight_of(y),
        "casimir": a.weight_of(casimir),
    }
    ok = all(v == "0" for v in checks.values()) and weights == {
        "hbar": 1, "x": 1, "y": 1, "casimir": 2,
    }
    return {"ok": ok, "order": order, "checks": checks, "weights": weights}


# -- quantized slices ----------------------------------------------------------


class QuantSliceResult:
    """Joint kernel of the slice derivations on a weight window.

    basis maps each weight to kernel elements spanning that graded
    piece of the centralizer mod hbar^N within the degree cap.
    generator_candidates lists, in degree order, the basis elements not
    reachable as products of earlier ones and of the pure Laurent
    kernel monomials in the invertible generator and hbar; closure is
    the confluence certificate, which closes the kernel under products
    by Leibniz, with pairs the number of basis pairs that this covers."""

    def __init__(self, presentation, truncation, window, degree_cap,
                 basis, candidates, closure):
        self.presentation = presentation
        self.truncation = truncation
        self.window = window
        self.degree_cap = degree_cap
        self.basis = basis
        self.generator_candidates = candidates
        self.closure = closure

    def as_json(self) -> dict:
        render = self.presentation.render
        return {
            "truncation": self.truncation,
            "window": list(self.window),
            "degree_cap": self.degree_cap,
            "basis": {
                str(w): [render(v) for v in vs]
                for w, vs in sorted(self.basis.items())
            },
            "generator_candidates": [
                {"weight": w, "element": render(v)}
                for w, v in self.generator_candidates
            ],
            "closure": self.closure,
        }

    def __repr__(self):
        dims = {w: len(vs) for w, vs in sorted(self.basis.items())}
        return f"QuantSliceResult(dims={dims})"


def quantized_slice(a: HbarPresentation, t_lift, z_lifts, truncation: int,
                    weight_window, degree_cap: int = 4) -> QuantSliceResult:
    """Weight-graded basis of the joint centralizer of the lifts.

    The lifts must satisfy the conic relations first: t commutes with
    every z, consecutive z pairs bracket to hbar, and all other z pairs
    commute, each checked mod hbar^(truncation+1); a violation is an
    error before any kernel computation.  The kernel condition for an
    element is that its commutator with every lift vanishes to the same
    order, so the result is exactly the slice algebra mod
    hbar^truncation restricted to the window and degree cap."""
    if truncation < 1:
        raise ValueError("the truncation must be positive")
    if truncation >= a.order:
        raise ValueError(
            "the presentation must be built to order at least "
            "truncation + 1 for exact kernel conditions"
        )
    if len(a.invertible) > 1:
        raise ValueError(
            "slice enumeration supports at most one invertible generator"
        )
    if a.invertible and a.weights[0] == 0:
        raise ValueError("the invertible generator needs nonzero weight")
    t_elem = a.var(t_lift) if isinstance(t_lift, str) else t_lift
    z_elems = [
        a.var(z) if isinstance(z, str) else z for z in z_lifts
    ]
    hbar = a.hbar()
    # one memo of term-pair normal forms and one read of the step budget
    # for every product of this call
    memo: dict = {}
    limit = max_steps()

    def residue_visible(elem):
        return {
            (p, m): c for (p, m), c in elem.items() if p <= truncation
        }

    problems = []
    for idx, z in enumerate(z_elems):
        r = residue_visible(a.commutator(t_elem, z, memo=memo, limit=limit))
        if r:
            problems.append(f"[t, z{idx + 1}] = {a.render(r)}")
    for idx in range(len(z_elems)):
        for jdx in range(idx + 1, len(z_elems)):
            expect = hbar if (idx % 2 == 0 and jdx == idx + 1) else {}
            r = residue_visible(
                element_add(
                    a.commutator(z_elems[idx], z_elems[jdx], memo=memo,
                                 limit=limit),
                    element_scale(expect, -1),
                )
            )
            if r:
                problems.append(
                    f"[z{idx + 1}, z{jdx + 1}] residue {a.render(r)}"
                )
    if problems:
        raise ConicRelationError("lifts fail the conic relations: " +
                                 "; ".join(problems))

    lifts = [t_elem] + z_elems
    lo, hi = weight_window
    basis: dict[int, list] = {}
    for w in range(lo, hi + 1):
        # the invertible generator is index 0, so these are sorted monomials
        monos = [
            (hpow, tuple((i, e) for i, e in enumerate(exps) if e))
            for hpow in range(truncation)
            for exps in a.ctx.weight_monomials(w - hpow * a.k, degree_cap)
        ]
        if not monos:
            continue
        # the relations of the columns are the kernel basis with a 1 in
        # each dependent column, one per such column, in column order
        span, elems = Span(), []
        for hpow, mono in monos:
            cand = {(hpow, mono): 1}
            col = {}
            for li, lift in enumerate(lifts):
                for (p, m), c in a.commutator(lift, cand, memo=memo,
                                              limit=limit).items():
                    if p <= truncation:
                        col[(li, p, m)] = c
            relation = span.add(col)
            if relation is not None:
                elems.append({monos[j]: c for j, c in relation.items()})
        if elems:
            basis[w] = elems

    # closed by Leibniz once confluence makes multiply associative
    confluence = a.certify_confluence(limit=limit)
    closure = {
        "ok": confluence["ok"],
        "pairs": sum(len(vs) for vs in basis.values()) ** 2,
        "failures": confluence["failures"],
    }

    candidates = _generator_candidates(a, basis, truncation, memo, limit)
    return QuantSliceResult(
        a, truncation, tuple(weight_window), degree_cap, basis, candidates,
        closure,
    )


def _element_degree(a: HbarPresentation, elem: dict) -> int:
    inv = range(len(a.invertible))
    return max(
        sum(abs(e) for i, e in mono if i not in inv)
        for (_p, mono) in elem
    )


def _element_unit_depth(a: HbarPresentation, elem: dict) -> int:
    inv = range(len(a.invertible))
    return max(
        (abs(e) for (_p, mono) in elem for i, e in mono if i in inv),
        default=0,
    )


def _is_laurent_seed(a: HbarPresentation, elem: dict) -> bool:
    inv = range(len(a.invertible))
    return all(
        all(i in inv for i, _e in mono) for (_p, mono) in elem
    )


def _generator_candidates(a, basis, truncation, memo, limit):
    """Basis elements not spanned by products of earlier ones.

    The pure Laurent kernel vectors (monomials in the invertible
    generator and hbar alone) seed the reachable spans; then basis
    elements are taken in degree order, shallowest unit dressing first,
    and each one already spanned by products of the pool is skipped.
    Spans are compared mod hbar^truncation; products landing outside
    the window or the enumerated monomial sets are ignored, so the
    listing is a within-window certificate, not a global generating
    claim.

    Every correction carries hbar, so the lowest layer of a product,
    at hbar^(p1+p2) for factors whose lowest layers sit at hbar^p1 and
    hbar^p2, is the commutative product of those layers.  A pool pair
    is multiplied only when that layer is visible and all its monomials
    are enumerated; any other product would be ignored, so skipping it
    leaves the pool, the spans and the candidates as they were."""
    keys: dict[int, set] = {}
    spans: dict[int, Echelon] = {}
    for w, vs in basis.items():
        keys[w] = {key for v in vs for key in v}
        spans[w] = Echelon()

    def vectorize(w, elem):
        visible = {
            key: c for key, c in elem.items() if key[0] < truncation
        }
        if any(key not in keys[w] for key in visible):
            return None
        return visible

    # (weight, element, (hbar power, {monomial: coefficient}) of its
    # lowest layer)
    pool: list[tuple[int, dict, tuple]] = []

    def absorb(w, elem) -> bool:
        vec = vectorize(w, elem)
        if vec is None or not spans[w].insert(vec):
            return False
        low = min(p for p, _m in elem)
        pool.append((w, elem, (low, {
            m: c for (p, m), c in elem.items() if p == low
        })))
        return True

    def can_enter(w, layer1, layer2) -> bool:
        # whether the lowest layer of the product is visible and within
        # keys[w]; only monomials outside keys[w] are summed, since a
        # merged monomial can cancel
        p = layer1[0] + layer2[0]
        if p >= truncation:
            return False
        outside: dict = {}
        for m1, c1 in layer1[1].items():
            for m2, c2 in layer2[1].items():
                m = _merged(m1, m2)
                if (p, m) not in keys[w]:
                    outside[m] = outside.get(m, 0) + c1 * c2
        return not any(outside.values())

    # spans only grow, so a product once rejected stays rejected and
    # each ordered pool pair needs looking at once
    multiplied: set[tuple[int, int]] = set()

    def close_products():
        grew = True
        while grew:
            grew = False
            for i, (w1, e1, layer1) in enumerate(list(pool)):
                for j, (w2, e2, layer2) in enumerate(list(pool)):
                    w = w1 + w2
                    if w not in keys or (i, j) in multiplied:
                        continue
                    multiplied.add((i, j))
                    if not can_enter(w, layer1, layer2):
                        continue
                    if absorb(w, a.multiply(e1, e2, memo=memo,
                                            limit=limit)):
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


def exp_ad_conjugate(a: HbarPresentation, w: dict, element: dict) -> dict:
    """exp(hbar * ad(w)) applied to an element, a gauge automorphism.

    Each application of hbar*ad(w) raises the hbar order by at least
    two, so the sum is finite at any truncation."""
    out = dict(element)
    term = element
    m = 1
    limit = max_steps()
    while True:
        term = element_scale(
            a.multiply(a.hbar(), a.commutator(w, term, limit=limit),
                       limit=limit),
            quo(1, m),
        )
        if not term:
            return out
        out = element_add(out, term)
        m += 1
