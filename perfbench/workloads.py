"""The benchmark's four workloads.

Each workload builds its inputs from a seed, lists its jobs (one call a
user would make: one certificate, one slice, one leaf set, one CLI
invocation), checks the outputs of a pass against the oracles in
``oracles.py``, and reduces every output to a JSON fingerprint so later
passes can be compared with the checked one.  Inputs whose cost would
swing with the seed are kept fixed and the seed varies what does not
change the amount of work (signs, relabelings, gauges, base points, job
order), so runs with different seeds measure the same work.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import oracles
from oracles import CheckError, require

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Job:
    """One timed call.  ``prepare`` runs untimed first (for inputs that
    depend on an earlier job's output in the same pass); ``run`` is the
    timed call and returns the output; ``validate``, when given, checks
    that output on every pass, and a CheckError from it makes the job a
    failed operation."""

    def __init__(self, label, run, prepare=None, validate=None):
        self.label = label
        self.run = run
        self.prepare = prepare
        self.validate = validate


def child_env() -> dict:
    """The environment of every child interpreter: ``src/`` on the path
    and bytecode caching on, whatever the calling shell sets, so that a
    child loads the package from ``src/equislice/__pycache__`` (written
    once by ``warm_bytecode``) as an installed package would, instead
    of compiling it on every start."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def warm_bytecode(env) -> None:
    """Compile the package's bytecode cache once, untimed, so that no
    timed child pays for compiling it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "equislice")], env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


def flip_signs(pres, rng):
    """Conjugate by a seeded sign change of every generator: a
    weight-preserving change of coordinates that keeps every coefficient
    size, so the normal form keeps its shape and the work stays the same
    across seeds (a rescaling by other rationals grows the coefficients
    and moves the run time by up to a quarter)."""
    from equislice import darboux

    ctx = pres.ctx
    signs = {name: rng.choice((1, -1)) for name in ctx.variables}
    change = {name: ctx.var(name).scale(Fraction(c)) for name, c in signs.items()}
    return darboux.CoordinateChange(ctx, change, dict(change)).transport(pres)


# -- roundtrip ---------------------------------------------------------------------


def _kleinian_table(n):
    return {("x", "y"): f"{n}*z" if n == 2 else f"{n}*z^{n - 1}", ("z", "x"): "x", ("y", "z"): "y"}


def roundtrip_sources(reduced: bool):
    from equislice import fixtures
    from equislice.poisson import standard_presentation

    order_k = 4 if reduced else 5
    return [
        ("standard(2,2)", lambda: standard_presentation(2, 2, order=6), [("z1", "z2")],
         {"form": "product", "order": 6, "pairs": 1, "slice_weights": [], "k": 2, "slice_table": {}}),
        ("kleinian_product(1,2)", lambda: fixtures.kleinian_product(1, 2, order=order_k), [],
         {"form": "product", "order": order_k, "pairs": 0, "slice_weights": [2, 2, 2], "k": 2,
          "slice_table": _kleinian_table(2)}),
        ("kleinian_product(1,3)", lambda: fixtures.kleinian_product(1, 3, order=order_k), [],
         {"form": "product", "order": order_k, "pairs": 0, "slice_weights": [3, 3, 2], "k": 2,
          "slice_table": _kleinian_table(3)}),
        ("kleinian_product(2,2)", lambda: fixtures.kleinian_product(2, 2, order=order_k), [("z1", "z2")],
         {"form": "product", "order": order_k, "pairs": 1, "slice_weights": [2, 2, 2], "k": 2,
          "slice_table": _kleinian_table(2)}),
        ("coupled_line", lambda: fixtures.coupled_line_example(order=6), [],
         {"form": "twisted", "order": 6, "pairs": 0, "slice_weights": [0], "k": 0,
          "residual_constants": {"z": Fraction(-1)}}),
    ]


class Roundtrip:
    """Scrambled presentations through normalize_full.

    The scrambles are a fixed corpus (scramble seeds 0..K-1 of every
    source): their cost differs by up to tenfold from one scramble seed
    to the next, so drawing them from the run seed would make run time
    a function of the seed.  The run seed instead flips the signs of
    the generators of every scrambled product source and orders the
    jobs."""

    name = "roundtrip"
    runs_children = False

    def __init__(self, seed: int, reduced: bool = False, step=lambda: None):
        from equislice import darboux

        rng = random.Random(seed)
        corpus = 1 if reduced else 5
        self.inputs = []
        for label, make, pairs, expect in roundtrip_sources(reduced):
            source = make()
            self.inputs.append((f"{label} unscrambled", source, dict(expect, label=f"{label} unscrambled")))
            # a scramble keeps the invariants but not the slice coordinates
            plain = {k: v for k, v in expect.items() if k != "slice_table"}
            for s in range(corpus):
                _change, scrambled = darboux.scramble_presentation(source, pairs, s)
                if expect["form"] == "product":
                    scrambled = flip_signs(scrambled, rng)
                tag = f"{label} scramble {s}"
                self.inputs.append((tag, scrambled, dict(plain, label=tag)))
                step()
        rng.shuffle(self.inputs)

    def jobs(self):
        from equislice import darboux

        return [Job(tag, lambda p=pres: darboux.normalize_full(p)) for tag, pres, _e in self.inputs]

    def check(self, outputs) -> None:
        for (_tag, _pres, expect), cert in zip(self.inputs, outputs):
            oracles.check_certificate(cert, expect)

    def fingerprint(self, output):
        return output.as_json()

    def counts(self, outputs) -> dict:
        passes = 0
        for cert in outputs:
            for line in cert.stage_log:
                stage, _, rest = line.partition(": ")
                if stage in ("conjugate-normalize", "decouple-conjugate"):
                    passes += int(rest.split()[0])
        return {"darboux.passes": passes}


# -- centralizer ---------------------------------------------------------------------


class Centralizer:
    """Centralizer kernels: extract_slice on Poisson presentations and
    quantized_slice on hbar-algebras.  The run seed picks the gauge of
    the twisted lift and the job order; the kernels themselves are
    fixed, so every seed does the same elimination work.

    Every job gets a fresh presentation or algebra, built untimed just
    before it: an HbarPresentation keeps the inverse-rule corrections it
    has expanded for its whole life, so reusing one would time warm-cache
    calls that no fresh caller makes.  Set-up builds one instance of each
    (and the twisted lift, a plain element dict that any instance of the
    same algebra accepts); the checks use those instances."""

    name = "centralizer"
    runs_children = False

    def __init__(self, seed: int, reduced: bool = False, step=lambda: None):
        from equislice import fixtures, quantize
        from equislice.poisson import standard_presentation

        rng = random.Random(seed)
        weights = (0, 1) if reduced else (0, 1, 2, 3)
        kp = partial(fixtures.kleinian_product, 1, 2, order=4 if reduced else 5)
        std = partial(standard_presentation, 3, 2, order=6)
        diff22 = partial(quantize.differential_family, 2, 2, order=3)
        crit9a = partial(quantize.differential_family, 3, 2, order=3)
        crit9b = partial(quantize.sl2_enveloping, order=4, localized=True)
        diff21 = partial(quantize.differential_family, 2, 1, order=4)
        # (label, factory, constraints, weight, degree cap)
        self.slices = [(f"extract_slice kleinian_product(1,2) w{w}", kp, ("t", ()), w, 2 if reduced else 3)
                       for w in weights]
        self.slices.append(("extract_slice standard(3,2) w0", std, ("t", ("z1", "z2")), 0, 2))
        # (label, factory, t lift (None: the twisted lift), truncation, window, degree cap, kind)
        self.quantum = [
            ("quantized_slice differential(2,2)", diff22, "t", 2, (0, 1), 1 if reduced else 2, "differential"),
            ("quantized_slice criterion-9 differential(3,2)", crit9a, "t", 2, (0, 0) if reduced else (-2, 2), 1,
             "differential"),
            ("quantized_slice criterion-9 localized sl2", crit9b, "f", 3, (0, 0), 2 if reduced else 4, "localized"),
            ("quantized_slice twisted differential(2,1)", diff21, None, 2, (0, 1), 1 if reduced else 2,
             "twisted"),
        ]
        self.instances = {}
        for spec in self.slices + self.quantum:
            factory = spec[1]
            if factory not in self.instances:
                self.instances[factory] = factory()
        a = self.instances[diff21]
        c = Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice((1, 2)))
        self.gauge = quantize.element_scale(a.multiply(a.var("u"), a.var("z1")), c)
        self.twisted_t = quantize.exp_ad_conjugate(a, self.gauge, a.var("t"))
        count = len(self.slices) + len(self.quantum)
        self.order = rng.sample(range(count), count)

    def _all(self):
        return [("slice", s) for s in self.slices] + [("quantum", q) for q in self.quantum]

    def jobs(self):
        from equislice import darboux, quantize

        items = self._all()
        out = []
        fresh: dict = {}
        for i in self.order:
            kind, spec = items[i]

            def prepare(i=i, factory=spec[1]):
                fresh[i] = factory()

            if kind == "slice":
                label, _f, (t, pairs), weight, cap = spec
                out.append(Job(label, lambda i=i, t=t, pairs=pairs, w=weight, c=cap:
                               darboux.extract_slice(fresh[i], t, pairs, degree_cap=c, weight=w), prepare))
            else:
                label, _f, lift, trunc, window, cap, _k = spec
                lift = self.twisted_t if lift is None else lift
                out.append(Job(label, lambda i=i, lift=lift, tr=trunc, win=window, c=cap:
                               quantize.quantized_slice(fresh[i], lift, [], truncation=tr, weight_window=win,
                                                        degree_cap=c), prepare))
        return out

    def check(self, outputs) -> None:
        from equislice import quantize

        items = self._all()
        for i, result in zip(self.order, outputs):
            kind, spec = items[i]
            if kind == "slice":
                label, factory, (t, pairs), weight, cap = spec
                oracles.check_extract_slice(self.instances[factory], result, [t, *pairs], weight, cap)
                continue
            label, factory, _lift, trunc, window, cap, k = spec
            a = self.instances[factory]
            if k == "differential":
                oracles.check_differential_slice(a, result, trunc, window, cap, label)
            elif k == "localized":
                # C f^-2 has degree 2 in e and h, its square degree 4
                shifted = a.multiply(quantize.sl2_casimir_element(a), a.var("f", -2))
                powers = [shifted, a.multiply(shifted, shifted)][: cap // 2]
                oracles.check_localized_slice(result, powers, trunc)
            else:
                images = {
                    w: [quantize.exp_ad_conjugate(a, self.gauge, m)
                        for m in oracles.u_free_monomials(a, w, trunc, cap)]
                    for w in range(window[0], window[1] + 1)
                }
                oracles.check_twisted_slice(a, result, images, oracles.u_free_count(a, trunc, cap), trunc)

    def fingerprint(self, output):
        if isinstance(output, dict):
            return {"basis": [str(e) for e in output["basis"]],
                    "generators": [str(g) for g in output["generators"]]}
        return output.as_json()

    def counts(self, outputs) -> dict:
        return {}


# -- toric-quotient ------------------------------------------------------------------


def graph_shape(n_rows: int):
    """A fixed connected multigraph with ``n_rows`` edges, every edge with
    at least one parallel partner: a random spanning tree (seeded by the
    size alone) with doubled edges, one doubled extra edge when there is
    room, and the odd remaining row as a third copy of a tree edge.

    Every flat of such a graph's matroid is cyclic.  enumerate_leaves
    reports one leaf per flat, so on flats that are not cyclic it adds
    spurious leaves (see FAULT_MATRIX); these graphs keep the seeded
    inputs on the side where it agrees with the Gale-dual oracle."""
    vertices = 4 if n_rows <= 7 else 5
    rng = random.Random(1000 + n_rows)
    edges = []
    for v in range(1, vertices):
        edges += [(rng.randrange(v), v)] * 2
    if n_rows - len(edges) >= 2:
        a, b = rng.sample(range(vertices), 2)
        edges += [(a, b)] * 2
    if n_rows > len(edges):
        edges.append(edges[0])
    return vertices, edges


def graphic_matrix(n_rows: int, rng):
    """The signed incidence matrix of the fixed graph with a seeded
    relabeling of vertices (which also picks the ground vertex), edge
    orientations and row order; totally unimodular by construction, with
    the same matroid for every seed."""
    vertices, edges = graph_shape(n_rows)
    labels = list(range(vertices))
    rng.shuffle(labels)
    rows = []
    for a, b in edges:
        a, b = labels[a], labels[b]
        if rng.random() < 0.5:
            a, b = b, a
        row = [0] * (vertices - 1)
        if a:
            row[a - 1] += 1
        if b:
            row[b - 1] -= 1
        rows.append(row)
    rng.shuffle(rows)
    return rows


# The A_2 cone C^2/Z_3 as a hypertoric cone.  Its row matroid has three
# flats that are not cyclic, and enumerate_leaves reports each as an
# extra vertex leaf (four "vertices" where the cone has one), so this
# job fails its oracle check on every pass; it does not depend on the seed.
FAULT_MATRIX = [[1, 0], [0, 1], [1, 1]]


def small_matrices(rng, count: int):
    """Seeded faithful integer matrices with 2-4 rows, 1-2 columns and
    entries in -2..2, about half of them not unimodular."""
    out = []
    while len(out) < count:
        m = rng.choice((1, 2))
        n = rng.randint(max(2, m), 4)
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        if oracles.rank(rows) == m:
            out.append(rows)
    return out


def g_m12(m: int):
    """Generators of G(m,1,2) acting on h + h* for h = C^2."""
    from equislice.scalars import CycloField

    field = CycloField(m)
    z, one, zero = field.zeta(), field.one(), field.zero()
    diag = ((z, zero, zero, zero), (zero, one, zero, zero),
            (zero, zero, z ** (m - 1), zero), (zero, zero, zero, one))
    swap = ((zero, one, zero, zero), (one, zero, zero, zero),
            (zero, zero, zero, one), (zero, zero, one, zero))
    omega = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
    expect = {"label": f"G({m},1,2)", "order": 2 * m * m, "reflections": 3 * m - 2, "parabolics": m + 4}
    return [diag, swap], omega, field, expect


def binary_dihedral(order: int):
    """Generators of the binary dihedral group of the given order 4n on C^2."""
    from equislice.scalars import CycloField

    n = order // 4
    field = CycloField(2 * n)
    z, one, zero = field.zeta(), field.one(), field.zero()
    rotation = ((z, zero), (zero, z ** (2 * n - 1)))
    swap = ((zero, one), (-one, zero))
    expect = {"label": f"binary dihedral {order}", "order": order, "reflections": order - 1, "parabolics": 2}
    return [rotation, swap], ((0, 1), (-1, 0)), field, expect


class ToricQuotient:
    """Hypertoric leaves on graphic weight matrices, unimodularity on a
    sample of small integer matrices, and finite quotients G(m,1,2) and
    binary dihedral groups."""

    name = "toric-quotient"
    runs_children = False

    def __init__(self, seed: int, reduced: bool = False, step=lambda: None):
        rng = random.Random(seed)
        sizes = (6, 8) if reduced else (6, 7, 8, 9, 10, 11)
        self.matrices = [graphic_matrix(n, rng) for n in sizes]
        self.sample = small_matrices(rng, 8 if reduced else 40)
        self.groups = [g_m12(2), binary_dihedral(12)] if reduced else (
            [g_m12(2), g_m12(3)] + [binary_dihedral(o) for o in (12, 16, 20, 24)])
        self.point_rng = random.Random(rng.random())
        self.base_points: dict = {}

    def jobs(self):
        from equislice import hypertoric, quotient

        out = []
        state: dict = {}
        for i, rows in enumerate(self.matrices):
            out.append(Job(f"check_unimodular graphic {len(rows)}x{len(rows[0])}",
                           lambda r=rows: hypertoric.check_unimodular(r)))

            def leaves(r=rows, i=i):
                state[("leaves", i)] = hypertoric.enumerate_leaves(r)
                return state[("leaves", i)]

            def charts(r=rows, i=i):
                return [
                    (report, hypertoric.verify_decomposition(r, report, order=5))
                    for report in (hypertoric.decompose_at(r, leaf) for leaf in state[("leaves", i)])
                ]

            out.append(Job(f"enumerate_leaves graphic {len(rows)}x{len(rows[0])}", leaves))
            out.append(Job(f"decompose+verify graphic {len(rows)}x{len(rows[0])}", charts))
        out.append(Job("enumerate_leaves A_2 cone", lambda: hypertoric.enumerate_leaves(FAULT_MATRIX),
                       validate=lambda leaves: oracles.check_leaves(
                           FAULT_MATRIX, leaves, oracles.gale_leaves(FAULT_MATRIX))))
        out.append(Job("check_unimodular sample",
                       lambda: [hypertoric.check_unimodular(r) for r in self.sample]))
        for g, (gens, omega, field, expect) in enumerate(self.groups):
            label = expect["label"]

            def close(gens=gens, omega=omega, field=field, g=g):
                state[("group", g)] = quotient.close_group(gens, omega, field=field, cap=64)
                return state[("group", g)]

            def parabolics(g=g):
                state[("records", g)] = quotient.parabolic_subgroups(state[("group", g)])
                return state[("records", g)]

            def slices(g=g):
                group, records = state[("group", g)], state[("records", g)]
                return [quotient.leaf_slice_data(group, rec, list(v))
                        for rec, v in zip(records, self.base_points[g]) if v is not None]

            out.append(Job(f"close_group {label}", close))
            out.append(Job(f"parabolic_subgroups {label}", parabolics))
            out.append(Job(f"symplectic_reflections {label}",
                           lambda g=g: quotient.symplectic_reflections(state[("group", g)])))
            out.append(Job(f"leaf_slice_data {label}", slices,
                           prepare=lambda g=g: self._choose_points(g, state)))
        return out

    def _choose_points(self, g: int, state: dict) -> None:
        """Seeded base points, one per parabolic with a nonzero fixed
        space, each checked by the oracle to have exactly the recorded
        stabilizer (a special point would sit on a smaller leaf)."""
        if g in self.base_points:
            return
        group, records = state[("group", g)], state[("records", g)]
        points = []
        for rec in records:
            if not rec.fixed_basis:
                points.append(None)
                continue
            while True:
                coeffs = [self.point_rng.randint(1, 97) for _ in rec.fixed_basis]
                v = tuple(sum((c * b[i] for c, b in zip(coeffs, rec.fixed_basis)), start=group.field.zero())
                          for i in range(group.dim))
                if oracles.stabilizer(group, v) == rec.subgroup:
                    break
            points.append(v)
        self.base_points[g] = points

    def check(self, outputs) -> None:
        it = iter(outputs)
        for rows in self.matrices:
            oracles.check_unimodular_result(rows, next(it))
            leaves = next(it)
            oracles.check_leaves(rows, leaves, oracles.gale_leaves(rows))
            charts = next(it)
            require(len(charts) == len(leaves), f"charts of {rows}: {len(charts)} for {len(leaves)} leaves")
            for leaf, (report, verdict) in zip(leaves, charts):
                oracles.check_decomposition(rows, leaf, report.as_json(), verdict)
        next(it)  # the A_2 cone, validated on every pass
        sample = next(it)
        for rows, result in zip(self.sample, sample):
            oracles.check_unimodular_result(rows, result)
        for g, (_gens, _omega, _field, expect) in enumerate(self.groups):
            group, records, sra, slices = next(it), next(it), next(it), next(it)
            oracles.check_group(group, expect, records, sra)
            placed = [rec for rec, v in zip(records, self.base_points[g]) if v is not None]
            require(len(slices) == len(placed) == expect["parabolics"] - 1,
                    f"{expect['label']}: {len(slices)} leaf slices")
            for rec, data in zip(placed, slices):
                oracles.check_leaf_slice(group, rec, data, expect["label"])

    def fingerprint(self, output):
        if isinstance(output, tuple):
            return list(output)
        if isinstance(output, list):
            return [self.fingerprint(x) for x in output]
        if hasattr(output, "as_json"):
            return output.as_json()
        return output

    def counts(self, outputs) -> dict:
        it = iter(outputs)
        leaves = 0
        for _rows in self.matrices:
            next(it)
            leaves += len(next(it))
            next(it)
        next(it), next(it)
        order = 0
        for _g in self.groups:
            order += next(it).order
            next(it), next(it), next(it)
        return {"hypertoric.leaves": leaves, "quotient.group_order": order}


# -- cli-cold ------------------------------------------------------------------------


CLI_JOBS = [
    # (arguments, document, documented exit status, fact about the report)
    (("poisson", "jacobi"), {"builder": "sl2"}, 0, lambda r: r["ok"] is True),
    (("poisson", "jacobi"), {"builder": "cyclic-nonjacobi"}, 1,
     lambda r: r["ok"] is False and len(r["failures"]) == 1),
    (("poisson", "degree"), {"builder": "kleinian", "n": 3}, 0, lambda r: r["degree"] == -2),
    (("poisson", "center"), {"builder": "coupled-line", "weight_window": [1, 1]}, 0,
     lambda r: list(r["basis"]) == ["1"] and len(r["basis"]["1"]) == 1),
    (("poisson", "hp0"), {"builder": "kleinian", "n": 2, "degree_cap": 4}, 0, lambda r: "dimensions" in r),
    (("poisson", "gradings"), {"builder": "standard", "n": 1, "k": 2}, 0, lambda r: r["degree"] == -2),
    (("darboux", "normalize"), {"builder": "standard", "n": 2, "k": 2}, 0,
     lambda r: r["form"] == "product" and r["k"] == 2 and len(r["roles"]["pairs"]) == 1),
    (("darboux", "slice"), {"builder": "kleinian-product", "n": 1, "slice_n": 2, "weight": 0, "order": 4}, 0,
     lambda r: r["weight"] == 0 and len(r["basis"]) > 0),
    (("hypertoric", "unimodular"), {"matrix": [[1, 1], [1, -1]]}, 1,
     lambda r: r["unimodular"] is False and r["witness"]["minor"] in (2, -2) and r["witness"]["rows"] == [1, 2]),
    (("hypertoric", "leaves"), {"matrix": [[1, 0], [1, 0], [0, 1], [0, 1]]}, 0,
     lambda r: sorted((leaf["leaf_dim"] for leaf in r["leaves"]), reverse=True) == [4, 2, 2, 0]),
    (("hypertoric", "decompose"), {"matrix": [[1], [1]], "flat": []}, 0,
     lambda r: r["inverted"] == [1] and r["weights"]["x2"] + r["weights"]["y2"] == 2),
    (("hypertoric", "verify"), {"matrix": [[1], [1]], "flat": []}, 0, lambda r: r["ok"] is True),
    (("quotient", "parabolics"), {"builder": "cyclic", "n": 4}, 0,
     lambda r: r["group"]["order"] == 4 and len(r["parabolics"]) == 2),
    (("quotient", "reflections"), {"builder": "cyclic", "n": 3}, 0, lambda r: len(r["reflections"]) == 2),
    (("quotient", "slice"), {"builder": "cyclic", "n": 2, "base_point": [1, 0]}, 0,
     lambda r: r["conic_weight"] == 2),
    (("quotient", "sra"), {"builder": "pairwise-sign", "x": [1, 0, 0, 0], "y": [0, 0, 1, 0]}, 0,
     lambda r: r["params"][0] == "hbar"),
    (("quantize", "build"), {"family": "differential", "n": 1, "k": 2}, 0, lambda r: r["confluence"]["ok"] is True),
    (("quantize", "normalform"),
     {"presentation": {"family": "differential", "n": 1, "k": 2}, "word": [["u", 1], ["t", 2]]}, 0,
     lambda r: "normal_form" in r),
    (("quantize", "central"), {"presentation": {"family": "sl2"}, "element": {"casimir": True}}, 0,
     lambda r: r["ok"] is True),
    (("quantize", "slice"),
     {"presentation": {"family": "differential", "n": 2, "k": 1}, "t_lift": "t", "window": [-1, 1],
      "truncation": 2, "degree_cap": 1}, 0, lambda r: r["closure"]["ok"] is True),
    (("quantize", "axiom"),
     {"quantum": {"family": "differential", "n": 1, "k": 1},
      "classical": {"builder": "standard", "n": 1, "k": 1, "order": 4}}, 0, lambda r: r["ok"] is True),
    (("selftest",), None, 0, lambda r: r["ok"] is True),
    (("poisson", "jacobi"), {"builder": "no-such-builder"}, 2, lambda r: "error" in r),
]


class CliCold:
    """Every CLI command, each a fresh ``python -m equislice ... --json``
    process with its document on stdin.  The run seed is passed as
    ``--seed`` and orders the jobs."""

    name = "cli-cold"
    runs_children = True

    def __init__(self, seed: int, reduced: bool = False, step=lambda: None):
        rng = random.Random(seed)
        jobs = CLI_JOBS[::3] if reduced else list(CLI_JOBS)
        rng.shuffle(jobs)
        self.cli_seed = rng.randint(0, 999)
        self.specs = jobs
        self.env = child_env()

    def argv(self, args):
        return [sys.executable, "-m", "equislice", *args, "--json", "--seed", str(self.cli_seed)]

    def jobs(self):
        out = []
        for args, doc, _status, _fact in self.specs:
            cmd = self.argv(args) + ([] if doc is None else ["-"])
            payload = None if doc is None else json.dumps(doc).encode()

            def call(cmd=cmd, payload=payload):
                proc = subprocess.run(cmd, input=payload, capture_output=True, env=self.env,
                                      cwd=ROOT, timeout=120)
                if proc.returncode not in (0, 1, 2):
                    raise RuntimeError(f"{' '.join(cmd[3:])} exited {proc.returncode}: "
                                       f"{proc.stderr.decode(errors='replace')[-400:]}")
                return proc.returncode, proc.stdout
            out.append(Job(" ".join(args), call))
        return out

    def check(self, outputs) -> None:
        for (args, doc, status, fact), (code, stdout) in zip(self.specs, outputs):
            label = " ".join(args)
            require(code == status, f"{label}: exit status {code}, documented {status}")
            try:
                report = json.loads(stdout)
            except ValueError as exc:
                raise CheckError(f"{label}: stdout is not JSON ({exc})") from exc
            require(stdout.endswith(b"\n") and stdout.count(b"\n") == 1, f"{label}: --json output is not one line")
            try:
                holds = fact(report)
            except (KeyError, TypeError, IndexError):
                holds = False
            require(holds, f"{label}: the report fails its fact check: {stdout[:200]!r}")

    def fingerprint(self, output):
        code, stdout = output
        return [code, stdout.decode()]

    def counts(self, outputs) -> dict:
        return {}

    def replay(self):
        """The same jobs for an in-process replay through cli.run, as
        (command, document, options)."""
        out = []
        for args, doc, _status, _fact in self.specs:
            command = "selftest" if args == ("selftest",) else " ".join(args)
            out.append((command, {} if doc is None else doc, {"seed": self.cli_seed}))
        return out


WORKLOADS = {w.name: w for w in (Roundtrip, Centralizer, ToricQuotient, CliCold)}
