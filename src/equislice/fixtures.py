"""Named fixture presentations and group actions shared by the test
suite, the CLI selftest and quantize (whose plain sl2 enveloping algebra
quantizes sl2_presentation): small Lie-Poisson and surface-singularity
structures, the two-dimensional coupled example whose center is
t*exp(-z), the quadric-cone invariant presentation of a cyclic double
cover, and the standard finite symplectic actions on two and four
dimensional space."""

from __future__ import annotations

from .poisson import PoissonPresentation, standard_presentation
from .quotient import GroupData, close_group
from .scalars import CycloField, Q
from .series import GradedContext


def sl2_presentation(order: int = 6) -> PoissonPresentation:
    """Lie-Poisson structure of sl2: {h,e} = 2e, {h,f} = -2f, {e,f} = h."""
    ctx = GradedContext(("e", "f", "h"), (1, 1, 1), order=order)
    table = {
        ("h", "e"): 2 * ctx.var("e"),
        ("h", "f"): -2 * ctx.var("f"),
        ("e", "f"): ctx.var("h"),
    }
    return PoissonPresentation(ctx, table, degree=-1)


def sl2_casimir(p: PoissonPresentation):
    """2ef + h^2/2, the generator of the Poisson center."""
    ctx = p.ctx
    return 2 * ctx.var("e") * ctx.var("f") + ctx.var("h") ** 2 * Q(1, 2)


def kleinian_presentation(n: int, order: int = 6) -> PoissonPresentation:
    """Type-A surface singularity xy + z^n with its weight -2 bracket:
    {x,y} = n z^(n-1), {z,x} = x, {y,z} = y, weights (n, n, 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ctx = GradedContext(("x", "y", "z"), (n, n, 2), order=order)
    table = kleinian_ambient_slice(n, ctx)
    relation = ctx.var("x") * ctx.var("y") + ctx.var("z") ** n
    return PoissonPresentation(ctx, table, relations=(relation,), degree=-2)


def kleinian_ambient_slice(n: int, ctx: GradedContext) -> dict:
    """The bracket of kleinian_presentation as a table over caller-supplied
    variables named x, y, z (also a transverse-slice factor: no relation
    imposed, the bracket satisfies Jacobi on the ambient three-space)."""
    return {
        ("x", "y"): n * ctx.var("z", n - 1),
        ("z", "x"): ctx.var("x"),
        ("y", "z"): ctx.var("y"),
    }


def cyclic_nonjacobi(order: int = 6) -> PoissonPresentation:
    """{x,y} = x, {y,z} = y, {z,x} = z: fails Jacobi with residue x+y+z."""
    ctx = GradedContext(("x", "y", "z"), (1, 1, 1), order=order)
    table = {
        ("x", "y"): ctx.var("x"),
        ("y", "z"): ctx.var("y"),
        ("z", "x"): ctx.var("z"),
    }
    return PoissonPresentation(ctx, table)


def cubic_jacobian(order: int = 6) -> PoissonPresentation:
    """Jacobian structure of the Fermat cubic: {x,y} = 3z^2 and cyclic
    shifts; a degree-0 structure admitting no grading of degree -1."""
    ctx = GradedContext(("x", "y", "z"), (1, 1, 1), order=order)
    table = {
        ("x", "y"): 3 * ctx.var("z") ** 2,
        ("y", "z"): 3 * ctx.var("x") ** 2,
        ("z", "x"): 3 * ctx.var("y") ** 2,
    }
    return PoissonPresentation(ctx, table, degree=0)


def coupled_line_example(order: int = 6) -> PoissonPresentation:
    """Rank-two structure on (t, u, z) with {u,t} = t, {u,z} = 1, {t,z} = 0.

    Its weight-one Poisson center is spanned by the truncation of
    t*exp(-z), and the u-direction stays coupled to z: the structure is
    not a product of a conic symplectic block and a slice."""
    ctx = GradedContext(
        ("t", "u", "z"),
        (1, 0, 0),
        invertible=("t",),
        filtration=("u", "z"),
        order=order,
    )
    table = {
        ("u", "t"): ctx.var("t"),
        ("u", "z"): ctx.one(),
    }
    return PoissonPresentation(ctx, table, degree=0)


def invariant_quadric(order: int = 6) -> PoissonPresentation:
    """Invariants of the plane under negation: C[a,b,m]/(m^2 - ab) with
    {a,b} = 4m, {a,m} = 2a, {m,b} = 2b, all weights 2, degree -2."""
    ctx = GradedContext(("a", "b", "m"), (2, 2, 2), order=order)
    table = {
        ("a", "b"): 4 * ctx.var("m"),
        ("a", "m"): 2 * ctx.var("a"),
        ("m", "b"): 2 * ctx.var("b"),
    }
    relation = ctx.var("m") ** 2 - ctx.var("a") * ctx.var("b")
    return PoissonPresentation(ctx, table, relations=(relation,), degree=-2)


def product_with_slice(
    n: int,
    k: int,
    slice_names,
    slice_weights,
    slice_table,
    ell: int = 1,
    order: int = 6,
) -> PoissonPresentation:
    """A standard conic block of rank n joined with a decoupled slice.

    slice_table is a callable receiving the joint context and returning
    the slice block's table as a dict over the slice variable names; its
    entries must be polynomials in the slice variables alone (any conic
    factor would break Jacobi against the conjugate coordinate) and
    weight-homogeneous so the joint structure is graded of degree
    -k*ell."""
    names = ["t", "u"]
    weights = [ell, 0]
    for i in range(1, n):
        names += [f"z{2 * i - 1}", f"z{2 * i}"]
        weights += [k * ell, 0]
    names += list(slice_names)
    weights += list(slice_weights)
    ctx = GradedContext(
        tuple(names),
        tuple(weights),
        invertible=("t",),
        filtration=tuple(names[1:]),
        order=order,
    )
    table = {("t", "u"): ctx.var("t", 1 - k)}
    for i in range(1, n):
        table[(f"z{2 * i - 1}", f"z{2 * i}")] = ctx.one()
    for pair, entry in slice_table(ctx).items():
        if entry.involves("t") or entry.involves("u"):
            raise ValueError(f"slice entry {pair} involves the conic block")
        table[pair] = entry
    return PoissonPresentation(ctx, table, degree=-k * ell)


def kleinian_product(n: int, slice_n: int, order: int = 6) -> PoissonPresentation:
    """Standard rank-n block at conic exponent 2, times the ambient
    type-A slice xy + z^slice_n with weights (slice_n, slice_n, 2)."""
    return product_with_slice(
        n,
        2,
        ("x", "y", "z"),
        (slice_n, slice_n, 2),
        lambda ctx: kleinian_ambient_slice(slice_n, ctx),
        order=order,
    )


PLANE_FORM = ((0, 1), (-1, 0))

DOUBLE_PLANE_FORM = (
    (0, 1, 0, 0),
    (-1, 0, 0, 0),
    (0, 0, 0, 1),
    (0, 0, -1, 0),
)


def cyclic_plane_action(n: int) -> GroupData:
    """Order-n cyclic group on the symplectic plane, the diagonal action
    by an n-th root of unity and its inverse."""
    if n < 1:
        raise ValueError("the cyclic order must be positive")
    field = CycloField(n)
    z = field.zeta()
    gen = ((z, field.zero()), (field.zero(), z ** (n - 1)))
    return close_group([gen], PLANE_FORM, field=field, cap=max(4, 2 * n))


def pairwise_sign_action() -> GroupData:
    """Klein four-group on two symplectic planes, negating each plane
    independently."""
    return close_group(
        [
            ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
        ],
        DOUBLE_PLANE_FORM,
    )


def binary_dihedral_action() -> GroupData:
    """Order-eight binary dihedral group on the symplectic plane,
    generated by the diagonal order-four rotation and the symplectic
    swap."""
    field = CycloField(4)
    i, zero = field.zeta(), field.zero()
    one = field.one()
    rotation = ((i, zero), (zero, -i))
    swap = ((zero, one), (-one, zero))
    return close_group([rotation, swap], PLANE_FORM, field=field, cap=16)


__all__ = [
    "sl2_presentation",
    "sl2_casimir",
    "kleinian_presentation",
    "kleinian_ambient_slice",
    "cyclic_nonjacobi",
    "cubic_jacobian",
    "coupled_line_example",
    "invariant_quadric",
    "product_with_slice",
    "kleinian_product",
    "standard_presentation",
    "cyclic_plane_action",
    "pairwise_sign_action",
    "binary_dihedral_action",
    "PLANE_FORM",
    "DOUBLE_PLANE_FORM",
]
