"""Graded coordinate contexts and truncated series arithmetic.

A GradedContext fixes an ordered list of variables, an integer weight for
each, which variables are invertible (Laurent directions, negative
exponents allowed), and which variables generate the truncation ideal J.
Every element is kept truncated: no term of J-order >= order survives,
where the J-order of a monomial is the total exponent of the filtration
variables.  All coefficients are exact: an int when integral, else a
Fraction or a CycloNumber (the rule of ``scalars``).  Coefficients are
normalised where an element takes them in: the public constructor, the
context's constructors, scale, coercion of a scalar and the parser.

Multiplication example at order 4 with J = (u):
(1 + u) * (1 - u + u^2 - u^3) = 1 - u^4 -> 1.

Invariant.  The terms of every element have no zero coefficient, no term
of J-order >= order and no negative exponent outside the invertible
variables.  The public constructor enforces it by filtering and checking.
Results that hold it by construction (products, sums, negation, scale by
a nonzero scalar, partials and the gradient, J-order parts, coefficients
in one variable, substitution) go through the private _trusted
constructor, which skips that pass; antiderivative and the parser keep
the checked path.

Substitution and its power caches.  A coordinate change moves a few
generators and fixes the rest, so subs multiplies only the images it is
given.  A variable without an image stands for the target's own
generator: its exponent is added to a shift vector of the term, in
target positions, and the product of the mapped image powers (one key
when there is none) is shifted by it and scaled by the coefficient,
dropping the keys whose J-order reaches the order.  subs raises each
given image to each exponent once per call, and a caller may hand one
dict of powers to several calls that substitute the same images into
the same target (one transport, one direction of one composition, one
inversion check, one fixpoint pass).  Such a dict lives only as long as
that operation: it is never stored on a long-lived object, since
certificates keep their coordinate changes (and so anything stored on
them) alive.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, itemgetter

from .scalars import CycloNumber, exact, exact_int, quo


def _jorder_function(idx):
    """exps -> total exponent at the positions idx, built once per context."""
    if not idx:
        return lambda exps: 0
    if len(idx) == 1:
        return itemgetter(idx[0])
    pick = itemgetter(*idx)
    return lambda exps: sum(pick(exps))


class GradedContext:
    """Ordered variables with weights, invertible flags, and a truncation order."""

    __slots__ = (
        "variables",
        "weights",
        "invertible",
        "filtration",
        "order",
        "_index",
        "_inv_flags",
        "jorder_of_exps",
    )

    def __init__(
        self,
        variables,
        weights,
        invertible=(),
        filtration=(),
        order: int = 6,
    ):
        self.variables = tuple(variables)
        self.weights = tuple(exact_int(w, "a weight") for w in weights)
        self.invertible = frozenset(invertible)
        self.filtration = frozenset(filtration)
        self.order = exact_int(order, "the truncation order")
        if len(self.variables) != len(set(self.variables)):
            raise ValueError("duplicate variable names")
        if len(self.weights) != len(self.variables):
            raise ValueError("weights do not match variables")
        unknown = (self.invertible | self.filtration) - set(self.variables)
        if unknown:
            raise ValueError(f"unknown variables: {sorted(unknown)}")
        if self.invertible & self.filtration:
            raise ValueError("invertible variables cannot generate the filtration")
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")
        self._index = {v: i for i, v in enumerate(self.variables)}
        self._inv_flags = tuple(v in self.invertible for v in self.variables)
        # exps -> J-order, over the filtration positions found once here
        self.jorder_of_exps = _jorder_function(
            [i for i, v in enumerate(self.variables) if v in self.filtration]
        )

    # -- basic queries -------------------------------------------------

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def weight_of_name(self, name: str) -> int:
        return self.weights[self.index(name)]

    def weight_of_exps(self, exps) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def weight_monomials(self, weight: int, degree_cap=None) -> list[tuple[int, ...]]:
        """Exponent tuples of all monomials of the given weight, in walk
        order: lexicographic in the exponents of the variables that are not
        invertible.

        Filtration variables are bounded by the truncation order.  Other
        non-invertible variables must have positive weight or a degree_cap
        must bound their total degree.  At most one invertible variable is
        supported; its exponent is solved from the weight equation.  With
        none, a positive weight bounds its exponent by the weight left over
        plus what the later negative weights can take back."""
        names, weights = self.variables, self.weights
        inv = [i for i, flag in enumerate(self._inv_flags) if flag]
        if len(inv) > 1:
            raise ValueError("monomial enumeration supports at most one invertible variable")
        free = [i for i, flag in enumerate(self._inv_flags) if not flag]
        for i in free:
            if names[i] not in self.filtration and weights[i] <= 0 and degree_cap is None:
                raise ValueError(
                    f"variable {names[i]!r} makes weight slices infinite; pass a degree cap"
                )
        # reach[pos]: the most weight that the free variables from pos on
        # can take back; with no cap, a negative one is a filtration variable
        top = self.order - 1 if degree_cap is None else degree_cap
        reach = [0] * (len(free) + 1)
        for pos in reversed(range(len(free))):
            reach[pos] = reach[pos + 1] - min(weights[free[pos]], 0) * top
        results = []
        exps = [0] * len(names)

        def recurse(pos, wt, jorder_used, degree_used):
            if pos == len(free):
                if not inv:
                    if wt == weight:
                        results.append(tuple(exps))
                    return
                i, need = inv[0], weight - wt
                if weights[i] == 0:
                    if need == 0:
                        raise ValueError("weight-zero invertible variable makes slices infinite")
                elif need % weights[i] == 0:
                    exps[i] = need // weights[i]
                    results.append(tuple(exps))
                    exps[i] = 0
                return
            i = free[pos]
            w = weights[i]
            in_filtration = names[i] in self.filtration
            bounds = []
            if in_filtration:
                bounds.append(self.order - 1 - jorder_used)
            if degree_cap is not None:
                bounds.append(degree_cap - degree_used)
            if not inv and w > 0:
                bounds.append((weight - wt + reach[pos + 1]) // w)
            if not bounds:
                raise ValueError(f"variable {names[i]!r} is unbounded in this weight slice")
            for e in range(min(bounds) + 1):
                exps[i] = e
                recurse(pos + 1, wt + e * w, jorder_used + e * in_filtration, degree_used + e)
            exps[i] = 0

        recurse(0, 0, 0, 0)
        return results

    def same_variables(self, other: "GradedContext") -> bool:
        return (
            self.variables == other.variables
            and self.weights == other.weights
            and self.invertible == other.invertible
            and self.filtration == other.filtration
        )

    # -- element constructors ------------------------------------------

    def zero(self) -> "TruncatedElement":
        return TruncatedElement(self, {})

    def const(self, c) -> "TruncatedElement":
        return TruncatedElement(self, {(0,) * len(self.variables): c})

    def one(self) -> "TruncatedElement":
        return self.const(1)

    def var(self, name: str, exp: int = 1) -> "TruncatedElement":
        i = self.index(name)
        exps = [0] * len(self.variables)
        exps[i] = exp
        return TruncatedElement(self, {tuple(exps): 1})

    def monomial(self, exps, coeff=1) -> "TruncatedElement":
        return TruncatedElement(self, {tuple(exps): coeff})

    def parse(self, text: str) -> "TruncatedElement":
        return parse_element(self, text)

    def __repr__(self):
        return f"GradedContext({self.variables}, weights={self.weights}, order={self.order})"


class TruncatedElement:
    """Sparse exact element of the truncated graded coordinate ring.

    Terms map exponent tuples to nonzero scalars.  Negative exponents are
    only allowed on invertible variables; terms of J-order >= ctx.order
    are dropped on construction.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: GradedContext, terms: dict):
        self.ctx = ctx
        clean = {}
        for exps, c in terms.items():
            if not c:
                continue
            if ctx.jorder_of_exps(exps) >= ctx.order:
                continue
            clean[exps] = exact(c)
        self.terms = clean
        # this also keeps filtration variables nonnegative: GradedContext
        # never lets one be invertible
        for exps in clean:
            for e, inv in zip(exps, ctx._inv_flags):
                if e < 0 and not inv:
                    raise ValueError(f"negative exponent on non-invertible variable in {exps}")

    # -- predicates and structure --------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def min_jorder(self):
        """Least J-order among terms, or None for the zero element."""
        if not self.terms:
            return None
        return min(self.ctx.jorder_of_exps(e) for e in self.terms)

    def weight(self):
        """Common weight of all terms, or None if inhomogeneous or zero."""
        if not self.terms:
            return None
        ws = {self.ctx.weight_of_exps(e) for e in self.terms}
        return ws.pop() if len(ws) == 1 else None

    def jpart(self, m: int) -> "TruncatedElement":
        """The terms of J-order exactly m."""
        jo = self.ctx.jorder_of_exps
        return _trusted(self.ctx, {e: c for e, c in self.terms.items() if jo(e) == m})

    def jtail(self, m: int) -> "TruncatedElement":
        """The terms of J-order >= m."""
        jo = self.ctx.jorder_of_exps
        return _trusted(self.ctx, {e: c for e, c in self.terms.items() if jo(e) >= m})

    def below(self, m: int) -> "TruncatedElement":
        """The terms of J-order < m."""
        jo = self.ctx.jorder_of_exps
        return _trusted(self.ctx, {e: c for e, c in self.terms.items() if jo(e) < m})

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.ctx.variables), 0)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def monomials(self):
        return sorted(self.terms)

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedElement):
            if other.ctx is self.ctx or (
                other.ctx.same_variables(self.ctx) and other.ctx.order == self.ctx.order
            ):
                return other
            raise ValueError("elements live in different contexts")
        if isinstance(other, (int, Fraction, CycloNumber)):
            return self.ctx.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _trusted(self.ctx, _add_into(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _trusted(self.ctx, _mul_into({}, self, o))

    __rmul__ = __mul__

    def scale(self, c) -> "TruncatedElement":
        c = exact(c)
        if not c:
            return self.ctx.zero()
        return _trusted(self.ctx, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, e: int):
        """Binary powering: e = 1 is the element itself, e = 0 is one, and a
        negative e is a power of invert_unit()."""
        if e < 0:
            return self.invert_unit() ** (-e)
        if e == 0:
            return self.ctx.one()
        out = None
        base = self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def invert_unit(self) -> "TruncatedElement":
        """Inverse of a unit: J-order-0 part must be a single monomial in
        invertible variables.  Computed by the geometric series in the
        J-adic tail, truncated at the context order."""
        ctx = self.ctx
        head = self.jpart(0)
        if len(head.terms) != 1:
            raise ValueError("not a unit: J-order-0 part is not a single monomial")
        (exps, c), = head.terms.items()
        for e, inv in zip(exps, ctx._inv_flags):
            if e != 0 and not inv:
                raise ValueError(
                    "not a unit: leading monomial involves a non-invertible variable"
                )
        lead_inv = ctx.monomial(tuple(-e for e in exps), quo(1, c))
        g = self * lead_inv - 1
        # sum_{j} (-g)^j by Horner; a term of (-g)^j has J-order at least
        # j * min_jorder(g) >= j, so the powers past (order - 1) // m vanish
        acc = ctx.one()
        m = g.min_jorder()
        if m is not None:
            for _ in range((ctx.order - 1) // m):
                acc = ctx.one() - g * acc
        return lead_inv * acc

    # -- calculus ------------------------------------------------------

    def partial(self, name: str) -> "TruncatedElement":
        # lowering one exponent is injective on monomials: no terms collide
        i = self.ctx.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        return _trusted(self.ctx, out)

    def gradient(self) -> dict:
        """Every nonzero partial derivative, in one pass over the terms:
        variable index (position in ctx.variables) -> partial in that
        variable.  A missing index means the partial is zero."""
        parts: dict[int, dict] = {}
        for exps, c in self.terms.items():
            for i, e in enumerate(exps):
                if e:
                    d = parts.get(i)
                    if d is None:
                        d = parts[i] = {}
                    d[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        return {i: _trusted(self.ctx, d) for i, d in parts.items()}

    def antiderivative(self, name: str) -> "TruncatedElement":
        """The primitive in the given variable with no constant term,
        i.e. every output term is a multiple of the variable."""
        i = self.ctx.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == -1:
                raise ValueError(f"cannot integrate exponent -1 in {name}")
            ne = list(exps)
            ne[i] = e + 1
            out[tuple(ne)] = quo(c, e + 1)
        return TruncatedElement(self.ctx, out)

    def coefficients_in(self, name: str) -> dict:
        """Split as a polynomial in one variable: exponent -> coefficient
        element (which does not involve that variable)."""
        i = self.ctx.index(name)
        out: dict[int, dict] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            ne = list(exps)
            ne[i] = 0
            out.setdefault(e, {})[tuple(ne)] = c
        return {e: _trusted(self.ctx, d) for e, d in sorted(out.items())}

    def involves(self, name: str) -> bool:
        i = self.ctx.index(name)
        return any(exps[i] != 0 for exps in self.terms)

    # -- substitution ----------------------------------------------------

    def subs(
        self,
        images: dict,
        target: GradedContext | None = None,
        powers: dict | None = None,
    ) -> "TruncatedElement":
        """Substitute an element for every variable.  A variable missing
        from images maps to the same-named variable of the target context;
        it costs no product, since its exponent only shifts the exponents
        of the term (see the module docstring).

        powers caches the image powers, keyed (name, exponent).  A caller
        that substitutes the same images into the same target several
        times passes one dict to all of those calls; it must not outlive
        them (see the module docstring).  A negative power is a power of
        the cached inverse, so each image is inverted at most once."""
        if target is None:
            some = next(iter(images.values()), None)
            target = some.ctx if some is not None else self.ctx
        if powers is None:
            powers = {}

        def image_power(name: str, e: int) -> TruncatedElement:
            key = (name, e)
            got = powers.get(key)
            if got is None:
                if e == -1:
                    got = image_power(name, 1).invert_unit()
                elif e < 0:
                    got = image_power(name, -1) ** -e
                else:
                    base = images[name]
                    if base.ctx is not target and not (
                        base.ctx.same_variables(target) and base.ctx.order == target.order
                    ):
                        raise ValueError("an image lives outside the target context")
                    got = base ** e
                powers[key] = got
            return got

        names = self.ctx.variables
        # per source variable: whether it has an image, and its target
        # position (None when the target lacks it)
        mapped = [images.get(name) is not None for name in names]
        slots = [target._index.get(name) for name in names]
        width = len(target.variables)
        const_key = (0,) * width
        jo, order, inv_flags = target.jorder_of_exps, target.order, target._inv_flags
        out: dict = {}
        for exps, c in sorted(self.terms.items()):
            term = shift = None
            for i, e in enumerate(exps):
                if not e:
                    continue
                name = names[i]
                if mapped[i]:
                    p = image_power(name, e)
                    term = p if term is None else term * p
                    continue
                j = slots[i]
                if j is None:
                    target.index(name)  # raises the KeyError that names it
                if e < 0 and not inv_flags[j]:
                    target.var(name).invert_unit()  # raises: not a unit
                if shift is None:
                    shift = [0] * width
                shift[j] += e
            if shift is None:
                if term is None:
                    items = [(const_key, c)]
                else:
                    items = [(k, c * v) for k, v in term.terms.items()]
            else:
                # J-orders add and the shift's is at least 0, so a key
                # stays below the order when its own J-order is below
                # the room the shift leaves
                room = order - jo(shift)
                if term is None:
                    items = [(tuple(shift), c)] if room > 0 else []
                else:
                    items = [
                        (tuple(map(add, k, shift)), c * v)
                        for k, v in term.terms.items() if jo(k) < room
                    ]
            _add_into(out, items)
        return _trusted(target, out)

    # -- comparison and formatting ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            other = self.ctx.const(other)
        if not isinstance(other, TruncatedElement):
            return NotImplemented
        return self.ctx.same_variables(other.ctx) and self.terms == other.terms

    def __hash__(self):
        """Equal to the hash of the scalar an element equals, if any: a
        zero element hashes as 0 and a constant as its coefficient."""
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if not any(exps):
                return hash(c)
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = [_coeff_str(c)]
            for name, e in zip(self.ctx.variables, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


_first = itemgetter(0)


def _trusted(ctx: GradedContext, terms: dict) -> TruncatedElement:
    """Wrap terms that already hold the element invariant: no zero
    coefficient, no term of J-order >= ctx.order and no negative exponent
    outside the invertible variables.  Skips the filter of __init__."""
    el = object.__new__(TruncatedElement)
    el.ctx = ctx
    el.terms = terms
    return el


def _add_into(acc: dict, items) -> dict:
    """Add the (exps, coefficient) items into the terms dict acc, in
    place, dropping terms that cancel; returns acc."""
    for e, c in items:
        got = acc.get(e)
        if got is None:
            acc[e] = c
        else:
            s = got + c
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


def sum_of_products(ctx: GradedContext, pairs) -> TruncatedElement:
    """The sum of a * b over the (a, b) pairs of elements of ctx, added
    into one terms dict in place instead of through an element per
    partial sum."""
    acc: dict = {}
    for a, b in pairs:
        _mul_into(acc, a, a._coerce(b))
    return _trusted(ctx, acc)


def _mul_into(acc: dict, a: TruncatedElement, b: TruncatedElement) -> dict:
    """Add the truncated product a * b into the terms dict acc, in place,
    and return acc.  The J-orders of b are computed once and its terms
    sorted by them, so the inner loop stops at the truncation."""
    ctx = a.ctx
    jo = ctx.jorder_of_exps
    right = sorted([(jo(e), e, c) for e, c in b.terms.items()], key=_first)
    order = ctx.order
    for e1, c1 in a.terms.items():
        room = order - jo(e1)
        for j2, e2, c2 in right:
            if j2 >= room:
                break
            e = tuple(map(add, e1, e2))
            got = acc.get(e)
            if got is None:
                acc[e] = c1 * c2
            else:
                s = got + c1 * c2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    return acc


def _coeff_str(c) -> str:
    if isinstance(c, (int, Fraction)):
        return str(c)
    return f"({c!r})"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize element text at {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num") is not None:
            out.append(("num", int(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def parse_element(ctx: GradedContext, text: str) -> TruncatedElement:
    """Parse the canonical linear format: terms joined by + or -, each a
    '*'-separated product of a rational coefficient and var^exp factors."""
    tokens = _tokenize(text)
    n = len(ctx.variables)
    result: dict = {}
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None)

    while i < len(tokens):
        sign = 1
        kind, val = peek()
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            i += 1
            kind, val = peek()
        if kind is None:
            break
        coeff = sign
        exps = [0] * n
        saw_atom = False
        while True:
            kind, val = peek()
            if kind == "num":
                i += 1
                num = val
                kind2, val2 = peek()
                if kind2 == "op" and val2 == "/":
                    i += 1
                    kind3, val3 = peek()
                    if kind3 != "num":
                        raise ValueError("expected denominator")
                    if not val3:
                        raise ValueError("division by zero in element text")
                    num = quo(num, val3)
                    i += 1
                coeff *= num
                saw_atom = True
            elif kind == "name":
                i += 1
                idx = ctx.index(val)
                exp = 1
                kind2, val2 = peek()
                if kind2 == "op" and val2 == "^":
                    i += 1
                    esign = 1
                    kind3, val3 = peek()
                    if kind3 == "op" and val3 == "-":
                        esign = -1
                        i += 1
                        kind3, val3 = peek()
                    if kind3 != "num":
                        raise ValueError("expected exponent")
                    exp = esign * val3
                    i += 1
                exps[idx] += exp
                saw_atom = True
            else:
                raise ValueError(f"unexpected token {val!r} in element text")
            kind, val = peek()
            if kind == "op" and val == "*":
                i += 1
                continue
            break
        if not saw_atom:
            raise ValueError("empty term in element text")
        key = tuple(exps)
        s = result.get(key, 0) + coeff
        if s:
            result[key] = s
        else:
            result.pop(key, None)
    return TruncatedElement(ctx, result)
