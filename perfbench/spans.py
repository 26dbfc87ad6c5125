"""Outside-in span tracing of equislice's public functions.

The tracer wraps, from outside the package, every public module-level
function and every public method and arithmetic operator of the classes
in each layer module, and rebinds each wrapper wherever the original is
bound: on its class, in its own module, and in every package module
that imported it by name (``quantize`` and ``quotient`` import
``in_span``, ``kernel_basis``, ``rank`` and ``solve`` that way, ``cli``
and ``fixtures`` import the entry points).  Small accessors listed in SKIPPED are left alone; their
time counts as self time of their caller.

While installed, each call records one span: name, start, end, parent
span and job id, kept in flat arrays in memory and written out by
``write`` at the end.  ``uninstall`` restores every original binding, so
untraced passes run the unmodified program.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "scalars", "series", "intmat", "linalg", "poisson",
    "darboux", "hypertoric", "quotient", "quantize", "cli",
)

OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__matmul__",
}

# accessors and constructors cheap enough that a span would cost more
# than the call; their time stays in the caller's self time
SKIPPED = {
    "index", "weight_of_name", "jorder_of_exps", "weight_of_exps",
    "same_variables", "with_order", "zero", "one", "var", "const",
    "monomial", "hbar", "is_zero", "min_jorder", "weight", "jpart",
    "jtail", "constant_coefficient", "coefficient", "monomials",
    "involves", "entry", "pairs", "row", "element", "identity",
    "is_rational", "as_rational", "image_forward", "image_inverse",
    "changed_names", "is_identity", "is_product", "multiply_index",
    "as_json", "as_strings", "render", "table_as_strings", "image",
    "submatrix", "transpose", "inverse_index", "fixed_space",
    "CycloField.reduce",
}

# span keys that differ from "<layer>.<Class>.<method>"
RENAMED = {
    ("scalars", "CycloNumber", "__mul__"): "scalars.cyclo_mul",
    ("scalars", "CycloNumber", "__rmul__"): "scalars.cyclo_mul",
    ("scalars", "CycloNumber", "inverse"): "scalars.cyclo_inverse",
    ("series", "TruncatedElement", "__mul__"): "series.mul",
    ("series", "TruncatedElement", "__rmul__"): "series.mul",
    ("series", "TruncatedElement", "subs"): "series.subs",
    ("series", "TruncatedElement", "invert_unit"): "series.invert_unit",
    ("intmat", "IntMatrix", "rank"): "intmat.rank",
    ("intmat", "IntMatrix", "det"): "intmat.det",
    ("intmat", "IntMatrix", "smith_normal_form"): "intmat.smith",
    ("intmat", "IntMatrix", "hermite_normal_form"): "intmat.smith",
    ("intmat", "IntMatrix", "kernel_basis"): "intmat.smith",
    ("intmat", "IntMatrix", "solve_rational"): "intmat.solve_rational",
    ("poisson", "PoissonPresentation", "bracket"): "poisson.bracket",
    ("poisson", "PoissonPresentation", "reduce"): "poisson.reduce",
    ("poisson", "PoissonPresentation", "check_jacobi"): "poisson.check_jacobi",
    ("poisson", "PoissonPresentation", "weight_monomials"): "poisson.weight_monomials",
    ("darboux", "CoordinateChange", "transport"): "darboux.transport",
    ("darboux", "CoordinateChange", "then"): "darboux.then",
    ("darboux", "CoordinateChange", "from_forward"): "darboux.from_forward",
    ("darboux", "DecompositionCertificate", "verify"): "darboux.verify",
    ("darboux", None, "scramble_presentation"): "darboux.scramble",
    ("quantize", "HbarPresentation", "multiply"): "quantize.multiply",
    ("quantize", "HbarPresentation", "commutator"): "quantize.commutator",
}


def _shape_counts(*matrices):
    cells = nnz = 0
    for m in matrices:
        for row in m:
            if isinstance(row, (list, tuple)):
                cells += len(row)
                nnz += sum(1 for x in row if x)
            else:  # a right-hand side vector
                cells += 1
                nnz += 1 if row else 0
    return cells, nnz


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.keys: list[str] = []
        self._key_id: dict[str, int] = {}
        self.span_key = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_outer = array("b")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._linalg_depth = 0
        self.job = -1
        self.counters = {"linalg.cells": 0, "linalg.nnz": 0, "linalg.in_span.new": 0}
        self._saved: list[tuple[object, str, object]] = []
        self._targets = self._collect()

    # -- discovery ------------------------------------------------------------

    def _key(self, key: str) -> int:
        if key not in self._key_id:
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
            self._depth.append(0)
        return self._key_id[key]

    def _collect(self):
        """(owner, attribute, original, key) for everything to wrap."""
        targets = []
        for layer in LAYERS:
            mod = importlib.import_module(f"equislice.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or name in SKIPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = RENAMED.get((layer, None, name), f"{layer}.{name}")
                    targets.append((mod, name, obj, key))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, raw in vars(obj).items():
                        if attr in SKIPPED or f"{name}.{attr}" in SKIPPED or (
                            attr.startswith("_") and attr not in OPERATORS
                        ):
                            continue
                        if not isinstance(raw, (classmethod, staticmethod)) and not inspect.isfunction(raw):
                            continue
                        key = RENAMED.get((layer, name, attr), f"{layer}.{name}.{attr}")
                        targets.append((obj, attr, raw, key))
        return targets

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        package = [importlib.import_module(f"equislice{suffix}")
                   for suffix in ("", ".fixtures", *(f".{layer}" for layer in LAYERS))]
        for owner, attr, raw, key in self._targets:
            wrapped = self._wrap(raw, key)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if inspect.ismodule(owner):
                for mod in package:
                    if mod is not owner and vars(mod).get(attr) is raw:
                        self._saved.append((mod, attr, raw))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def _wrap(self, raw, key: str):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_function(raw.__func__, key))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap_function(raw.__func__, key))
        return self._wrap_function(raw, key)

    def _wrap_function(self, fn, key: str):
        kid = self._key(key)
        depth = self._depth
        stack = self._stack
        span_key, span_start, span_end = self.span_key, self.span_start, self.span_end
        span_parent, span_job, span_outer = self.span_parent, self.span_job, self.span_outer
        tracer = self
        linalg_hook = key.startswith("linalg.")
        is_in_span = key == "linalg.in_span"

        def wrapper(*args, **kwargs):
            if linalg_hook and tracer._linalg_depth == 0:
                cells, nnz = _shape_counts(*(a for a in args if isinstance(a, (list, tuple))))
                tracer.counters["linalg.cells"] += cells
                tracer.counters["linalg.nnz"] += nnz
            idx = len(span_start)
            span_key.append(kid)
            span_parent.append(stack[-1] if stack else -1)
            span_job.append(tracer.job)
            span_outer.append(1 if depth[kid] == 0 else 0)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            depth[kid] += 1
            if linalg_hook:
                tracer._linalg_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if linalg_hook:
                    tracer._linalg_depth -= 1
                depth[kid] -= 1
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if is_in_span and tracer._linalg_depth == 0 and result is False:
                tracer.counters["linalg.in_span.new"] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def summarize(self, group_of_job: dict) -> dict:
        """Per group of jobs: call counts and inclusive seconds per key
        (outermost spans of a key only, so recursion is not counted
        twice) and self seconds per layer (span time minus the time its
        child spans cover)."""
        n = len(self.span_start)
        keys, start, end = self.span_key, self.span_start, self.span_end
        parent, job, outer = self.span_parent, self.span_job, self.span_outer
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [k.split(".", 1)[0] for k in self.keys]
        out: dict = {}
        for i in range(n):
            group = group_of_job.get(job[i])
            if group is None:
                continue
            stats = out.setdefault(group, {"calls": {}, "incl": {}, "self": {}, "spans": 0})
            key = self.keys[keys[i]]
            dur = end[i] - start[i]
            stats["spans"] += 1
            stats["calls"][key] = stats["calls"].get(key, 0) + 1
            if outer[i]:
                stats["incl"][key] = stats["incl"].get(key, 0.0) + dur
            layer = layer_of[keys[i]]
            stats["self"][layer] = stats["self"].get(layer, 0.0) + dur - child[i]
        return out

    FIELDS = ("span_key", "span_start", "span_end", "span_parent", "span_job")

    def write(self, stem: Path, jobs: dict, metrics: dict) -> None:
        """Write ``<stem>.json`` (key table, job table, metrics and the
        layout of the span file) and ``<stem>.spans``: the span arrays one
        after another, each in native byte order with the typecode the
        header names (key index, start, end, parent span, job id)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "keys": self.keys,
            "jobs": jobs,
            "metrics": metrics,
            "spans": len(self.span_start),
            "layout": [[name[len("span_"):], getattr(self, name).typecode] for name in self.FIELDS],
        }
        with open(stem.with_suffix(".json"), "w", encoding="utf-8") as out:
            json.dump(header, out, sort_keys=True)
        with open(stem.with_suffix(".spans"), "wb") as out:
            for name in self.FIELDS:
                getattr(self, name).tofile(out)
