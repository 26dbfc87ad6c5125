"""Darboux normalizer: coordinate changes, staged normal forms, certificates."""

import copy
import json
from collections import Counter

import pytest
from reference import _reference_rref, _reference_solve

from equislice import darboux
from equislice.darboux import (
    CoordinateChange,
    StageError,
    _greedy_generators,
    certification_horizon,
    decouple_u,
    enforce_tu,
    extract_slice,
    hamiltonian_flow_change,
    normalize_full,
    scramble_presentation,
)
from equislice.fixtures import (
    coupled_line_example,
    kleinian_product,
    sl2_presentation,
)
from equislice.linalg import Span
from equislice.poisson import PoissonPresentation, standard_presentation
from equislice.scalars import InternalError, Q
from equislice.series import TruncatedElement


def _vanishes_below(elem, horizon):
    return not elem or elem.min_jorder() >= horizon


def _tables_agree(p1, p2, horizon):
    return all(
        _vanishes_below(p1.entry(a, b) - p2.entry(a, b), horizon)
        for a, b in p1.pairs()
    )


# -- coordinate changes ------------------------------------------------------


def test_from_forward_inverts_and_composes():
    p = standard_presentation(2, 1, order=6)
    ctx = p.ctx
    t, u, z1, z2 = (ctx.var(n) for n in ("t", "u", "z1", "z2"))
    c1 = CoordinateChange.from_forward(ctx, {"u": u + ctx.var("t", -1) * z1 * z2})
    c2 = CoordinateChange.from_forward(ctx, {"z1": z1 + t * z2})
    assert c1.verify() == []
    assert c2.verify() == []
    assert c1.is_weight_homogeneous()
    assert not c1.is_identity()
    for c in (c1, c2):
        for name in ctx.variables:
            v = ctx.var(name)
            assert c.to_old(c.to_new(v)) == v
            assert c.to_new(c.to_old(v)) == v
    both = c1.then(c2)
    assert both.verify() == []
    sample = t * u + z1**2
    assert both.to_new(sample) == c2.to_new(c1.to_new(sample))
    composed = CoordinateChange.compose(ctx, [c1, c2])
    assert (composed.forward, composed.inverse) == (both.forward, both.inverse)
    assert CoordinateChange.compose(ctx, []).is_identity()
    three = CoordinateChange.compose(ctx, [c1, c2, c1])
    assert three.to_new(sample) == c1.to_new(both.to_new(sample))


def test_transport_raises_each_image_to_each_power_once(monkeypatch):
    pres = standard_presentation(2, 2, order=6)
    change, scrambled = scramble_presentation(pres, [("z1", "z2")], 3)
    raised = []
    power = TruncatedElement.__pow__

    def counted(self, e):
        raised.append((self, e))
        return power(self, e)

    monkeypatch.setattr(TruncatedElement, "__pow__", counted)
    assert change.transport(pres).table_as_strings() == scrambled.table_as_strings()
    assert raised
    assert max(Counter(raised).values()) == 1


def test_transport_takes_one_gradient_per_changed_image(monkeypatch):
    cases = []
    for pres, pairs, seed in (
        (standard_presentation(2, 2, order=6), [("z1", "z2")], 3),
        (kleinian_product(1, 2, order=5), [], 1),
    ):
        change, scrambled = scramble_presentation(pres, pairs, seed)
        assert len(change.forward) > 1
        cases.append((pres, change, scrambled))
    taken = []
    gradient = TruncatedElement.gradient

    def counting(self):
        taken.append(self)
        return gradient(self)

    monkeypatch.setattr(TruncatedElement, "gradient", counting)
    for pres, change, scrambled in cases:
        taken.clear()
        assert change.transport(pres).table_as_strings() == scrambled.table_as_strings()
        assert len(taken) <= len(change.forward)


def test_transport_of_a_one_generator_change_multiplies_only_its_terms(monkeypatch):
    """A change that moves z alone transports the table with products
    only for the terms that involve z: each is one power of z's image,
    raised once per exponent, and no term is multiplied factor by
    factor."""
    pres = kleinian_product(1, 2, order=6)
    ctx = pres.ctx
    moved = ctx.var("z") + ctx.var("t", -2) * ctx.var("x") * ctx.var("y")
    change = CoordinateChange.from_forward(ctx, {"z": moved})
    assert change.changed_names() == {"z"}
    expected = change.transport(pres).table_as_strings()
    image = change.inverse["z"]
    z = ctx.index("z")
    state = {"subs": 0, "inside": 0}
    inputs, raised, direct = [], [], []
    subs, power, product = TruncatedElement.subs, TruncatedElement.__pow__, TruncatedElement.__mul__

    def recording_subs(self, *args):
        inputs.append(self)
        state["subs"] += 1
        try:
            return subs(self, *args)
        finally:
            state["subs"] -= 1

    def recording_power(self, e):
        if state["subs"] and not state["inside"]:
            raised.append((self, e))
        state["inside"] += 1
        try:
            return power(self, e)
        finally:
            state["inside"] -= 1

    def recording_product(self, other):
        if state["subs"] and not state["inside"]:
            direct.append((self, other))
        return product(self, other)

    monkeypatch.setattr(TruncatedElement, "subs", recording_subs)
    monkeypatch.setattr(TruncatedElement, "__pow__", recording_power)
    monkeypatch.setattr(TruncatedElement, "__mul__", recording_product)
    assert change.transport(pres).table_as_strings() == expected
    exponents = {exps[z] for f in inputs for exps in f.terms if exps[z]}
    assert exponents and any(not exps[z] for f in inputs for exps in f.terms)
    assert direct == []
    assert all(base is image for base, _ in raised)
    assert sorted(e for _, e in raised) == sorted(exponents)


def test_transport_preserves_jacobi():
    p = standard_presentation(2, 2, order=6)
    ctx = p.ctx
    shift = ctx.var("u") + ctx.var("t", -2) * ctx.var("z1") * ctx.var("z2")
    change = CoordinateChange.from_forward(ctx, {"u": shift})
    q = change.transport(p)
    assert q.check_jacobi(certified_only=True) == []
    assert q.entry("z1", "z2") == ctx.one()
    assert q.entry("u", "z1") != p.entry("u", "z1")


def test_hamiltonian_flow_is_automorphism():
    p = standard_presentation(2, 1, order=6)
    ctx = p.ctx
    horizon = certification_horizon(ctx)
    hamiltonian = ctx.var("z1") * ctx.var("z2") ** 2
    change = hamiltonian_flow_change(p, hamiltonian)
    assert change.verify() == []
    assert change.is_weight_homogeneous()
    assert _tables_agree(change.transport(p), p, horizon)


# -- single-stage operations -------------------------------------------------


def _run_state(pres, k, pairs=()):
    """A run state on pres with conic t, conjugate u and the given pairs."""
    run = darboux._Run(pres)
    run.t, run.u, run.k, run.pairs = "t", "u", k, list(pairs)
    return run


def test_enforce_tu_restores_standard_pairing():
    p = standard_presentation(2, 1, order=6)
    ctx = p.ctx
    horizon = certification_horizon(ctx)
    mangled = CoordinateChange.from_forward(
        ctx, {"u": ctx.var("u") * (1 + ctx.var("z1") * ctx.var("z2"))}
    ).transport(p)
    assert not _vanishes_below(mangled.entry("t", "u") - 1, horizon)
    run = _run_state(mangled, 1)
    assert enforce_tu(run) >= 1
    assert run.change().verify() == []
    fixed = run.cur
    assert _vanishes_below(fixed.entry("t", "u") - 1, horizon)
    for g in ("z1", "z2"):
        assert _vanishes_below(fixed.entry("t", g), horizon)


def test_decouple_u_kills_pair_couplings():
    p = standard_presentation(2, 1, order=6)
    ctx = p.ctx
    horizon = certification_horizon(ctx)
    mangled = CoordinateChange.from_forward(
        ctx, {"u": ctx.var("u") + ctx.var("z1") * ctx.var("z2") ** 2}
    ).transport(p)
    assert not _vanishes_below(mangled.entry("u", "z1"), horizon)
    run = _run_state(mangled, 1, [("z1", "z2")])
    assert decouple_u(run) >= 1
    assert run.change().verify() == []
    fixed = run.cur
    for g in ("z1", "z2"):
        assert _vanishes_below(fixed.entry("u", g), horizon)
    assert _vanishes_below(fixed.entry("t", "u") - 1, horizon)
    assert _vanishes_below(fixed.entry("z1", "z2") - 1, horizon)


# -- full normalization on exact forms ---------------------------------------


def test_standard_presentations_are_fixed_points():
    for n, k in ((1, 3), (2, 1), (2, 2), (3, 1)):
        cert = normalize_full(standard_presentation(n, k, order=6))
        assert cert.form == "product"
        assert cert.change.is_identity()
        assert cert.slice_names == []
        assert cert.residual_field == {}
        assert cert.slice_table == {}
        assert cert.k == k
        assert cert.ell == 1
        assert cert.pairs == [(f"z{i}", f"z{i + 1}") for i in range(1, 2 * n - 1, 2)]
        assert cert.certified_jorder == certification_horizon(cert.final.ctx) == 5
        assert cert.verify() == []


def test_coupled_line_is_honestly_twisted():
    cert = normalize_full(coupled_line_example(order=6))
    assert cert.form == "twisted"
    assert cert.k == 0
    assert list(cert.residual_field) == ["z"]
    assert str(cert.residual_field["z"]) == "-1"
    assert cert.slice_table == {}
    assert cert.verify() == []


def test_kleinian_product_reads_off_its_slice():
    cert = normalize_full(kleinian_product(1, 2, order=5))
    assert cert.form == "product"
    assert cert.change.is_identity()
    assert cert.slice_names == ["x", "y", "z"]
    assert cert.slice_weights == {"x": 2, "y": 2, "z": 2}
    assert all(not v for v in cert.residual_field.values())
    assert {key: str(v) for key, v in cert.slice_table.items()} == {
        ("x", "y"): "2*z",
        ("x", "z"): "-1*x",
        ("y", "z"): "1*y",
    }
    assert cert.verify() == []


def test_normalization_is_idempotent():
    cert = normalize_full(kleinian_product(1, 2, order=5))
    again = normalize_full(cert.final)
    assert again.change.is_identity()
    assert again.form == "product"
    assert {key: str(v) for key, v in again.slice_table.items()} == {
        key: str(v) for key, v in cert.slice_table.items()
    }


# -- scramble round trips ----------------------------------------------------


def test_roundtrip_scrambled_standard():
    p = standard_presentation(2, 1, order=6)
    for seed in range(6):
        _, scrambled = scramble_presentation(p, [("z1", "z2")], seed)
        cert = normalize_full(scrambled)
        assert cert.form == "product"
        assert cert.slice_names == []
        assert cert.certified_jorder == 5
        assert cert.verify() == []


def test_roundtrip_scrambled_kleinian_product():
    p = kleinian_product(1, 2, order=6)
    for seed in range(4):
        _, scrambled = scramble_presentation(p, [], seed)
        cert = normalize_full(scrambled)
        assert cert.form == "product"
        assert cert.slice_weights == {"x": 2, "y": 2, "z": 2}
        assert cert.verify() == []


def test_roundtrip_scrambled_product_with_pair():
    p = kleinian_product(2, 2, order=5)
    for seed in range(2):
        _, scrambled = scramble_presentation(p, [("z1", "z2")], seed)
        cert = normalize_full(scrambled)
        assert cert.form == "product"
        assert cert.pairs == [("z1", "z2")]
        assert cert.verify() == []


def test_decouple_step_matches_the_dense_reference(monkeypatch):
    """Expressing each move system's target in one Span gives the
    residual and the solution of two dense reference eliminations: the
    reachable part is the target minus the residual, and the moves are
    minus the coefficients that reach it."""
    systems = []
    original = darboux._coupling_move_system

    def record(cur, t_name, u_name, slice_names, leaf, horizon):
        out = original(cur, t_name, u_name, slice_names, leaf, horizon)
        systems.append((list(slice_names), out))
        return out

    monkeypatch.setattr(darboux, "_coupling_move_system", record)
    _, scrambled = scramble_presentation(kleinian_product(1, 2, order=6), [], 0)
    assert normalize_full(scrambled).form == "product"
    checked = 0
    for slice_names, (targets, _, columns) in systems:
        target = {
            (si, oe): oc
            for si, s in enumerate(slice_names)
            for oe, oc in targets[s].terms.items()
        }
        if not target:
            continue
        keys = sorted(set(target).union(*columns))
        amat = [[col.get(key, 0) for col in columns] for key in keys]
        tvec = [target.get(key, 0) for key in keys]
        basis, pivots = _reference_rref([list(c) for c in zip(*amat)])
        residual = list(tvec)
        for row, p in zip(basis, pivots):
            f = residual[p]
            residual = [x - f * y for x, y in zip(residual, row)]
        reachable = [t - r for t, r in zip(tvec, residual)]
        coefficients, rest = Span(columns).express(target)
        assert rest == {key: v for key, v in zip(keys, residual) if v}
        assert bool(coefficients) == any(reachable)
        if coefficients:
            x = _reference_solve(amat, reachable)
            assert x == [coefficients.get(j, 0) for j in range(len(columns))]
            checked += 1
    assert checked


ORDER_LIFT_SOURCES = [
    ("kleinian_product(1,2)", lambda order: kleinian_product(1, 2, order=order), []),
    ("kleinian_product(2,2)", lambda order: kleinian_product(2, 2, order=order), [("z1", "z2")]),
    ("coupled_line", lambda order: coupled_line_example(order=order), []),
]


def _invariants(cert):
    return cert.form, cert.as_json()["roles"], cert.k, cert.slice_weights


@pytest.mark.parametrize("label,make,pairs", ORDER_LIFT_SOURCES, ids=[s[0] for s in ORDER_LIFT_SOURCES])
def test_invariants_survive_order_lifting(label, make, pairs):
    """Raising the truncation order adds terms but changes no certified
    invariant: form, roles, k and slice weights agree at orders N and
    N + 1, unscrambled and for scramble seeds 0 and 1."""
    for seed in (None, 0, 1):
        seen = []
        for order in (4, 5, 6):
            pres = make(order)
            if seed is not None:
                pres = scramble_presentation(pres, pairs, seed)[1]
            seen.append(_invariants(normalize_full(pres)))
        assert seen[0] == seen[1] == seen[2], (label, seed)


def test_sweep_requires_rising_orders_below_the_horizon():
    run = darboux._Run(standard_presentation(1, 2, order=6))
    assert run.horizon == 5
    applied = []

    def passes(orders):
        for order in orders:
            yield order
            applied.append(order)

    for orders, floor in (([1, 1], 0), ([0], 0), ([3, 2], 0), ([2], 2), ([-1], -1)):
        applied.clear()
        with pytest.raises(StageError) as err:
            run.sweep("some-stage", "the test order", passes(orders), floor)
        assert err.value.stage == "some-stage"
        assert str(err.value) == (
            "[some-stage] the test order did not rise; this signals a Jacobi failure upstream"
        )
        # the pass whose order failed never applied its correction
        assert applied == orders[:-1]
    for orders in ([5], [1, 2, 6]):
        with pytest.raises(InternalError):
            run.sweep("some-stage", "the test order", passes(orders))
    assert run.sweep("some-stage", "the test order", passes([1, 2, 3])) == 3
    assert run.sweep("some-stage", "the test order", passes([0, 4]), floor=-1) == 2
    assert run.sweep("some-stage", "the test order", passes([])) == 0


@pytest.mark.parametrize("label,make,pairs", ORDER_LIFT_SOURCES, ids=[s[0] for s in ORDER_LIFT_SOURCES])
def test_every_sweep_ends_within_the_horizon(label, make, pairs, monkeypatch):
    """Sweep orders rise strictly and stay below the certification
    horizon, so no sweep takes more than horizon - floor passes.  Every
    stage sweeps under its own subject, straighten-pairs once per pair,
    and a scramble leaves flatten-conic a defect to correct."""
    sweeps = []
    sweep = darboux._Run.sweep

    def recording(run, stage, subject, passes, floor=0):
        count = sweep(run, stage, subject, passes, floor)
        sweeps.append(((stage, subject), count, run.horizon - floor))
        return count

    monkeypatch.setattr(darboux._Run, "sweep", recording)
    for order in (4, 5, 6):
        for seed in (0, 1):
            sweeps.clear()
            normalize_full(scramble_presentation(make(order), pairs, seed)[1])
            assert [named for named, _, _ in sweeps] == [
                ("flatten-conic", "the defect order"),
                ("conjugate-normalize", "the pairing defect order"),
                *(("straighten-pairs", f"the defect order for pair ({a},{b})") for a, b in pairs),
                ("decouple-slice", "the reachable coupling order"),
            ], (label, order, seed)
            assert all(count <= bound for _, count, bound in sweeps), (label, order, seed)
            assert sweeps[0][1] >= 1, (label, order, seed)


def test_scrambling_cannot_untwist():
    p = coupled_line_example(order=6)
    for seed in range(4):
        _, scrambled = scramble_presentation(p, [], seed)
        cert = normalize_full(scrambled)
        assert cert.form == "twisted"
        assert cert.residual_field["z"].constant_coefficient() == Q(-1)


# -- failure modes -----------------------------------------------------------


def test_rejects_structures_without_a_conic_coordinate():
    with pytest.raises(StageError) as err:
        normalize_full(sl2_presentation())
    assert err.value.stage == "validate"


def test_rejects_truncation_order_below_two():
    with pytest.raises(StageError) as err:
        normalize_full(standard_presentation(2, 1, order=1))
    assert err.value.stage == "validate"


def test_rejects_jacobi_violations():
    ctx = standard_presentation(2, 1, order=5).ctx
    table = {
        ("t", "u"): ctx.var("t", 0),
        ("z1", "z2"): ctx.one(),
        ("u", "z1"): ctx.var("u") * ctx.var("z2"),
    }
    with pytest.raises(StageError) as err:
        normalize_full(PoissonPresentation(ctx, table, degree=-1))
    assert err.value.stage == "validate"


def test_rejects_inhomogeneous_tables():
    ctx = standard_presentation(2, 1, order=5).ctx
    table = {("t", "u"): ctx.one() + ctx.var("z1"), ("z1", "z2"): ctx.one()}
    with pytest.raises(StageError) as err:
        normalize_full(PoissonPresentation(ctx, table, degree=-1))
    assert err.value.stage == "validate"


def test_rejects_structures_without_a_conjugate():
    ctx = standard_presentation(2, 1, order=5).ctx
    table = {("t", "u"): ctx.var("u") ** 2, ("z1", "z2"): ctx.one()}
    with pytest.raises(StageError) as err:
        normalize_full(PoissonPresentation(ctx, table, degree=-1))
    assert err.value.stage == "locate-conjugate"


# -- slice extraction --------------------------------------------------------


def test_extract_slice_finds_the_transverse_generators():
    p = kleinian_product(1, 2, order=5)
    at_zero = extract_slice(p, "t", pair_names=("u",), weight=0)
    assert [str(b) for b in at_zero["basis"]] == ["1"]
    assert at_zero["generators"] == []
    at_two = extract_slice(p, "t", pair_names=("u",), weight=2)
    assert sorted(str(b) for b in at_two["basis"]) == ["1*x", "1*y", "1*z"]
    assert sorted(str(g) for g in at_two["generators"]) == ["1*x", "1*y", "1*z"]


def test_generator_search_forms_each_basis_product_once(monkeypatch):
    p = kleinian_product(1, 2, order=4)
    report = extract_slice(p, "t", weight=2)
    n = len(report["basis"])
    calls = []
    reduce = PoissonPresentation.reduce

    def counting(self, f):
        calls.append(f)
        return reduce(self, f)

    monkeypatch.setattr(PoissonPresentation, "reduce", counting)
    generators = _greedy_generators(p, report["basis"])
    assert [str(g) for g in generators] == [str(g) for g in report["generators"]]
    assert n == 20 and len(generators) == n
    assert len(calls) <= n * (n + 1) // 2


# -- certificates ------------------------------------------------------------


def test_certificate_stages_end_with_the_certify_line():
    cert = normalize_full(standard_presentation(2, 2))
    stages = cert.as_json()["stages"]
    assert stages[-1].startswith("certify: form ")
    assert stages[-1] == f"certify: form {cert.form}"
    assert stages[-2] == "extract-slice: done"



def test_certificate_serializes_deterministically():
    cert = normalize_full(kleinian_product(1, 2, order=5))
    data = cert.as_json()
    assert data["form"] == "product"
    assert data["k"] == 2
    assert data["conic_weight"] == 1
    assert data["order"] == 5
    assert data["certified_jorder"] == 4
    assert data["roles"]["slice"] == ["x", "y", "z"]
    assert data["slice_table"] == {"x,y": "2*z", "x,z": "-1*x", "y,z": "1*y"}
    blob = json.dumps(data, sort_keys=True)
    assert json.loads(blob) == json.loads(json.dumps(cert.as_json(), sort_keys=True))


# -- tampered certificates ----------------------------------------------------


@pytest.fixture(scope="module")
def line_cert():
    """kleinian_product(1, 2) scrambled with seed 3, normalized."""
    return normalize_full(scramble_presentation(kleinian_product(1, 2), [], 3)[1])


@pytest.fixture(scope="module")
def pair_cert():
    """kleinian_product(2, 2) with the pair (z1, z2) scrambled with seed 5,
    normalized."""
    pres = kleinian_product(2, 2)
    return normalize_full(scramble_presentation(pres, [("z1", "z2")], 5)[1])


def _tampered(cert, **attributes):
    """A copy of the certificate with the given attributes replaced; the
    original is left as it was."""
    other = copy.copy(cert)
    for name, value in attributes.items():
        setattr(other, name, value)
    return other


def _with_entry(pres, a, b, value):
    """The presentation with the bracket {a, b} replaced by value."""
    table = {pair: pres.entry(*pair) for pair in pres.pairs()}
    if (a, b) not in table:
        a, b, value = b, a, -value
    table[(a, b)] = value
    return PoissonPresentation(pres.ctx, table, relations=pres.relations, degree=pres.degree)


def _failed_checks(cert):
    return {record["check"] for record in cert.verify()}


def test_fresh_tamper_sources_are_certified(line_cert, pair_cert):
    assert line_cert.verify() == [] and pair_cert.verify() == []
    assert not line_cert.change.is_identity()
    assert pair_cert.pairs == [("z1", "z2")]


@pytest.mark.parametrize("attribute", ["slice_table", "residual_field"])
def test_a_shifted_slice_entry_fails_slice_closure(line_cert, attribute):
    data = getattr(line_cert, attribute)
    key = sorted(data)[0]
    cert = _tampered(line_cert, **{attribute: {**data, key: data[key] + 1}})
    assert "slice-closure" in _failed_checks(cert)
    assert line_cert.verify() == []


def test_a_change_without_its_inverse_fails_change_inverse(line_cert):
    change = line_cert.change
    broken = CoordinateChange(change.ctx, change.forward, {})
    assert "change-inverse" in _failed_checks(_tampered(line_cert, change=broken))


def test_the_identity_change_fails_transport_match(line_cert):
    identity = CoordinateChange(line_cert.change.ctx, {}, {})
    assert _failed_checks(_tampered(line_cert, change=identity)) == {"transport-match"}


def test_a_doubled_conic_pairing_fails_leaf_standard(line_cert):
    final = line_cert.final
    doubled = _with_entry(final, "t", "u", final.entry("t", "u") * 2)
    assert "leaf-standard" in _failed_checks(_tampered(line_cert, final=doubled))


def test_a_conic_coupling_fails_couplings_and_jacobi(line_cert):
    final = line_cert.final
    coupled = _with_entry(final, "t", "x", final.ctx.var("x"))
    assert {"couplings", "jacobi"} <= _failed_checks(_tampered(line_cert, final=coupled))


def test_a_slice_bracket_leaving_the_slice_fails_slice_closure(line_cert):
    final = line_cert.final
    leaking = _tampered(line_cert, final=_with_entry(final, "x", "y", final.ctx.var("u")))
    closure = [r["detail"] for r in leaking.verify() if r["check"] == "slice-closure"]
    assert len(closure) == 1
    assert closure[0].startswith("[extract-slice] {x,y} still couples to u")


def test_a_doubled_pair_bracket_fails_leaf_standard(pair_cert):
    final = pair_cert.final
    doubled = _with_entry(final, "z1", "z2", final.entry("z1", "z2") * 2)
    failures = _tampered(pair_cert, final=doubled).verify()
    assert {"check": "leaf-standard", "detail": "{z1,z2} != 1"} in failures


def test_a_pair_coupling_to_the_slice_fails_couplings(pair_cert):
    final = pair_cert.final
    coupled = _with_entry(final, "z1", "x", final.ctx.var("x"))
    failures = _tampered(pair_cert, final=coupled).verify()
    assert {"check": "couplings", "detail": "{z1,x} != 0"} in failures


def test_a_conjugate_coupling_to_a_pair_fails_leaf_standard(pair_cert):
    final = pair_cert.final
    coupled = _with_entry(final, "u", "z1", final.ctx.var("z2"))
    failures = _tampered(pair_cert, final=coupled).verify()
    assert {"check": "leaf-standard", "detail": "{u,z1} != 0"} in failures
