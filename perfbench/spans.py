"""Per-layer tracing: spans recorded by wrappers installed where the package
binds each layer's entry points, and removed afterwards.

A binding site is a module attribute (`quandles.cli.alexander_quandle`) or a
class attribute (`quandles.quandle.FiniteQuandle.from_json`).  Installing
sets the attribute to a wrapper and edits no source file; a site that no
longer exists is reported as absent.  Per-element helpers (`mat_mul`,
`FiniteTModule.add`, `LaurentPoly` arithmetic, element labels) are left
alone, so their cost counts as the self time of the layer calling them.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

LAYERS = ("cli", "laurent", "intmat", "tmodule", "alexander", "group", "quandle",
          "decomposition", "mcq")

# (module, attribute at that module, span name); the span name's first part
# is the layer the wrapped code belongs to
BINDINGS = (
    ("quandles.cli", "main", "cli.main"),
    ("quandles.cli", "alexander_quandle", "alexander.alexander_quandle"),
    ("quandles.cli", "component_ideal", "alexander.component_ideal"),
    ("quandles.cli", "dihedral", "alexander.dihedral"),
    ("quandles.cli", "gcd_chain", "alexander.gcd_chain"),
    ("quandles.cli", "maximal_decomposition", "decomposition.maximal_decomposition"),
    ("quandles.cli", "conj_quandle", "group.conj_quandle"),
    ("quandles.cli", "cyclic_group", "group.cyclic_group"),
    ("quandles.cli", "symmetric_group", "group.symmetric_group"),
    ("quandles.cli", "parse_poly", "laurent.parse_poly"),
    ("quandles.cli", "format_poly", "laurent.format_poly"),
    ("quandles.cli", "associated_mcq", "mcq.associated_mcq"),
    ("quandles.cli", "check_mcq_axioms", "mcq.check_mcq_axioms"),
    ("quandles.cli", "lambda_orbits", "mcq.lambda_orbits"),
    ("quandles.cli", "maximal_mcq_decomposition", "mcq.maximal_mcq_decomposition"),
    ("quandles.cli", "check_axioms", "quandle.check_axioms"),
    ("quandles.cli", "connected_components", "quandle.connected_components"),
    ("quandles.cli", "find_isomorphism", "quandle.find_isomorphism"),
    ("quandles.cli", "build", "tmodule.build"),
    ("quandles.cli", "parse_ideal", "tmodule.parse_ideal"),
    ("quandles.alexander", "alexander_quandle", "alexander.alexander_quandle"),
    ("quandles.alexander", "build", "tmodule.build"),
    ("quandles.alexander", "split_one_minus_t", "laurent.split_one_minus_t"),
    ("quandles.alexander", "syzygy_basis", "laurent.syzygy_basis"),
    ("quandles.alexander", "gcd_vec", "laurent.gcd_vec"),
    ("quandles.alexander", "format_poly", "laurent.format_poly"),
    ("quandles.decomposition", "iterate_refinement", "decomposition.iterate_refinement"),
    ("quandles.decomposition", "connected_components", "quandle.connected_components"),
    ("quandles.mcq", "iterate_refinement", "decomposition.iterate_refinement"),
    ("quandles.mcq", "lambda_orbits", "mcq.lambda_orbits"),
    ("quandles.mcq", "check_mcq_axioms", "mcq.check_mcq_axioms"),
    ("quandles.mcq", "type_of", "quandle.type_of"),
    ("quandles.mcq", "cyclic_group", "group.cyclic_group"),
    ("quandles.mcq", "MCQ.from_json", "mcq.MCQ.from_json"),
    ("quandles.mcq", "MCQ.to_json", "mcq.MCQ.to_json"),
    ("quandles.quandle", "check_axioms", "quandle.check_axioms"),
    ("quandles.quandle", "connected_components", "quandle.connected_components"),
    ("quandles.quandle", "FiniteQuandle.from_json", "quandle.FiniteQuandle.from_json"),
    ("quandles.group", "check_group", "group.check_group"),
    ("quandles.group", "FiniteGroup.from_json", "group.FiniteGroup.from_json"),
    ("quandles.tmodule", "hnf", "intmat.hnf"),
    ("quandles.tmodule", "right_kernel", "intmat.right_kernel"),
    ("quandles.tmodule", "snf_transform", "intmat.snf_transform"),
    ("quandles.tmodule", "solve", "intmat.solve"),
    ("quandles.tmodule", "unimodular_inverse", "intmat.unimodular_inverse"),
    ("quandles.tmodule", "parse_poly", "laurent.parse_poly"),
    ("quandles.tmodule", "eval_one", "laurent.eval_one"),
    ("quandles.tmodule", "gcd_vec", "laurent.gcd_vec"),
    ("quandles.tmodule", "FiniteTModule.elements", "tmodule.FiniteTModule.elements"),
    ("quandles.tmodule", "FiniteTModule.labels", "tmodule.FiniteTModule.labels"),
    ("quandles.laurent", "hnf", "intmat.hnf"),
    ("quandles.laurent", "left_kernel", "intmat.left_kernel"),
)

# span names whose own self time is a per-layer metric
SELF_TIME_SPANS = (
    "tmodule.build", "alexander.alexander_quandle", "quandle.connected_components",
    "decomposition.maximal_decomposition", "quandle.check_axioms", "quandle.find_isomorphism",
    "quandle.type_of", "group.symmetric_group", "group.check_group", "mcq.associated_mcq",
    "mcq.check_mcq_axioms", "mcq.lambda_orbits", "mcq.maximal_mcq_decomposition",
)


def _tower(result):
    """(rounds run, depth) of a Decomposition or McqDecomposition."""
    tree = getattr(result, "index_tree", result)
    return len(tree.levels) - 1, tree.depth


def _count_table(counts, result):
    counts["alexander.table_entries"] += result.quandle.size ** 2


def _count_carrier(counts, result):
    counts["mcq.carrier_cells"] += result.size ** 2


def _count_rounds(counts, result):
    rounds, depth = _tower(result)
    counts["decomposition.rounds"] += rounds
    counts["decomposition.depth"] += depth


# work counted from a span's result, where the work happens
COUNTERS = {
    "alexander.alexander_quandle": _count_table,
    "mcq.associated_mcq": _count_carrier,
    "mcq.MCQ.from_json": _count_carrier,
    "decomposition.maximal_decomposition": _count_rounds,
    "mcq.maximal_mcq_decomposition": _count_rounds,
}


def resolve(module_name, path):
    """(owner, attribute name), or None when the binding no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if attr in vars(owner) else None


def binding_snapshot() -> dict:
    """The raw object at every binding site, to check nothing was left wrapped."""
    out = {}
    for module_name, path, _ in BINDINGS:
        site = resolve(module_name, path)
        if site is not None:
            out[(module_name, path)] = vars(site[0])[site[1]]
    return out


class Tracer:
    """Records spans [name, start, end, parent index, call id] in memory.

    Used as a context manager: entering installs the wrappers, leaving
    restores every original object, also when a call raised.
    """

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans = []
        self.counts = {k: 0 for k in ("alexander.table_entries", "mcq.carrier_cells",
                                      "decomposition.rounds", "decomposition.depth")}
        self.absent = []
        self._stack = []
        self._calls = 0
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self._calls += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._calls]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(counts, result)
                except AttributeError:
                    # the result changed shape: report it instead of failing the call
                    if f"counter {name}" not in self.absent:
                        self.absent.append(f"counter {name}")
            return result

        return wrapper

    def __enter__(self):
        try:
            for module_name, path, name in self.bindings:
                site = resolve(module_name, path)
                if site is None:
                    if f"{module_name}.{path}" not in self.absent:
                        self.absent.append(f"{module_name}.{path}")
                    continue
                owner, attr = site
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def self_times(self):
        """Self time per span: duration minus the durations of its children.

        Spans nest (one thread), so the children of a span cover disjoint
        parts of its interval.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - c) for s, c in zip(self.spans, child)]

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, per pass of the workload."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        span_self = {name: 0.0 for name in SELF_TIME_SPANS}
        for name, self_s in self.self_times():
            layer = name.split(".", 1)[0]
            layer_self[layer] += self_s
            layer_calls[layer] += 1
            if name in span_self:
                span_self[name] += self_s
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] / passes, "s")
            out[f"{layer}.calls"] = (layer_calls[layer] / passes, "count")
        for name, value in span_self.items():
            out[f"{name}.self_s"] = (value / passes, "s")
        c = self.counts
        out["alexander.table_entries"] = (c["alexander.table_entries"] / passes, "count")
        out["mcq.carrier_cells"] = (c["mcq.carrier_cells"] / passes, "count")
        out["decomposition.rounds"] = (c["decomposition.rounds"] / passes, "count")
        ratio = c["decomposition.depth"] / c["decomposition.rounds"] if c["decomposition.rounds"] else 0.0
        out["decomposition.useful_round_ratio"] = (ratio, "ratio")
        out["trace.absent"] = (len(self.absent), "count")
        return out
