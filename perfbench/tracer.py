"""Tracing of wreathfock from outside the program.

`Tracer.install()` replaces public functions and methods of the library
with wrappers, and rebinds every copy that a ``from .x import y`` left in
another wreathfock module, so calls made inside the library are seen too.
Two kinds of wrapper exist:

* span wrappers record (id, name, start, end, parent id, query id) for
  each call, in memory, for functions called at most a few thousand times
  per query;
* count wrappers only bump a counter, for hot functions such as
  ``FiniteGroup.mul`` and ``Permutation.__init__``, whose time is left in
  the self time of the span that called them.

Layer metrics are derived from the spans after the run: a layer is the
module that defines the function, and self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# Span names are "<module>.<function>"; the module is the layer.
SPAN_FUNCTIONS = {
    "groups": ["group_from_permutation_generators", "conjugation_orbits",
               "find_generators", "centralizer", "subgroup",
               "find_generators_on", "direct_product", "compose_homs",
               "hom_from_generator_images", "check_group_axioms"],
    "classfun": ["pullback_along", "restrict", "induce", "inner_product",
                 "external_product", "span_rank"],
    "wreath": ["classes_by_type", "wreath_group", "embed_product",
               "quotient_to_symmetric", "class_count_series"],
    "fock": ["fock_product", "delta", "monomial_value", "change_of_basis",
             "module_action_over_sym", "kunneth_generator_identity",
             "graded_dimension_series"],
    "pullback": ["build_pullback", "is_conjugacy_closed",
                 "restriction_map_matrix", "fusion_pattern",
                 "tensor_over_classk", "verify_class_ring_decomposition",
                 "semidirect_product_iso", "n_cycle_classes_closed",
                 "n_cycle_closed_brute"],
    "ratlinalg": ["rref", "rank", "kernel_basis", "solve", "det", "inverse",
                  "span_select"],
    "catalog": ["group_from_json", "resolve_group", "hom_from_json"],
}
SPAN_METHODS = {
    "groups": [("FiniteGroup", "cayley_table"), ("Homomorphism", "verify")],
    "wreath": [("WreathGroup", "__init__"), ("WreathGroup", "_enumerate")],
    "fock": [("FockElement", "__mul__"), ("FockElement", "__add__")],
}
COUNT_FUNCTIONS = {"wreath": ["type_of", "centralizer_order"]}
COUNT_METHODS = {"groups": [("FiniteGroup", "mul"),
                            ("Permutation", "__init__")]}
STRATEGY_SPANS = {"fock.fock_product", "classfun.induce"}

LAYERS = ("groups", "classfun", "wreath", "fock", "pullback", "ratlinalg",
          "catalog")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.query_id = None
        self._stack: list[tuple[int, str]] = []   # open spans: (id, name)

    # -- spans ----------------------------------------------------------

    def span_wrapper(self, name, fn, after=None):
        """Wrap fn so each call records a span; `after(args, kwargs, result)`
        may add counts derived from the call."""
        tracer = self
        strategy = name in STRATEGY_SPANS

        def wrapper(*args, **kwargs):
            label = name
            if strategy:
                label = f"{name}.{kwargs.get('strategy', args[2] if len(args) > 2 else 'fusion')}"
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append((sid, label))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, label, start, end, parent,
                                     tracer.query_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the library in place; call before any group is built."""
        import wreathfock  # noqa: F401  (loads every submodule)
        from wreathfock import catalog, groups

        mods = {name: sys.modules[f"wreathfock.{name}"]
                for name in ("groups", "classfun", "wreath", "fock",
                             "pullback", "ratlinalg", "catalog")}
        counts = self.counts
        ratlinalg_names = {f"ratlinalg.{f}" for f in SPAN_FUNCTIONS["ratlinalg"]}

        def after_ratlinalg(args, kwargs, result):
            # only calls from outside ratlinalg count as calls and cells
            if self._stack and self._stack[-1][1] in ratlinalg_names:
                return
            rows = args[0] if args else []
            counts["ratlinalg.calls"] += 1
            counts["ratlinalg.cells"] += len(rows) * (len(rows[0]) if rows else 0)

        def after_verify(args, kwargs, result):
            hom = args[0]
            sample = kwargs.get("sample", args[1] if len(args) > 1 else None)
            counts["groups.verify_calls"] += 1
            counts["groups.verify_pairs"] += (hom.dom.order ** 2
                                              if sample is None else sample)

        def after_build(args, kwargs, result):
            counts["pullback.carrier_elements"] += result.carrier.order

        def after_types(args, kwargs, result):
            counts["wreath.types_generated"] += len(result)

        def after_enumerate(args, kwargs, result):
            counts["groups.wreath_elements_enumerated"] += len(result)
            counts["groups.elements_enumerated"] += len(result)

        after = {"pullback.build_pullback": after_build,
                 "wreath.classes_by_type": after_types,
                 "wreath.WreathGroup._enumerate": after_enumerate,
                 "groups.Homomorphism.verify": after_verify}
        for f in SPAN_FUNCTIONS["ratlinalg"]:
            after[f"ratlinalg.{f}"] = after_ratlinalg

        for layer, names in SPAN_FUNCTIONS.items():
            for fname in names:
                full = f"{layer}.{fname}"
                self._wrap_function(mods[layer], fname,
                                    self.span_wrapper(full, getattr(mods[layer], fname),
                                                      after.get(full)))
        for layer, names in COUNT_FUNCTIONS.items():
            for fname in names:
                self._wrap_function(mods[layer], fname,
                                    self.count_wrapper(f"{layer}.{fname}_calls",
                                                       getattr(mods[layer], fname)))
        for layer, pairs in SPAN_METHODS.items():
            for cname, mname in pairs:
                cls = getattr(mods[layer], cname)
                full = f"{layer}.{cname}.{mname}"
                self._wrap_method(cls, mname,
                                  self.span_wrapper(full, cls.__dict__[mname],
                                                    after.get(full)))
        for layer, pairs in COUNT_METHODS.items():
            for cname, mname in pairs:
                cls = getattr(mods[layer], cname)
                self._wrap_method(cls, mname, self.count_wrapper(
                    f"{layer}.{cname}.{mname}", cls.__dict__[mname]))
        self._wrap_carriers(groups.FiniteGroup)
        self._wrap_cayley(groups.FiniteGroup)
        self._wrap_catalog(catalog)

    def _wrap_catalog(self, catalog):
        counts = self.counts
        lookup = catalog.catalog_group      # the lru_cache keeps the misses
        traced = self.span_wrapper("catalog.catalog_group", lookup)

        def catalog_group(name):
            before = lookup.cache_info().misses
            try:
                return traced(name)
            finally:
                counts["catalog.group_builds"] += lookup.cache_info().misses - before

        catalog_group.cache_clear = lookup.cache_clear
        self._wrap_function(catalog, "catalog_group", catalog_group)

    def _wrap_function(self, module, fname, wrapper):
        original = getattr(module, fname)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "wreathfock" and not name.startswith("wreathfock."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, cls, mname, wrapper):
        original = cls.__dict__[mname]
        for attr, value in list(vars(cls).items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                setattr(cls, attr, wrapper)

    def _wrap_carriers(self, FiniteGroup):
        counts = self.counts
        original = FiniteGroup.__init__

        def init(group, label, elements, *args, **kwargs):
            original(group, label, elements, *args, **kwargs)
            if elements is not None:
                counts["groups.elements_enumerated"] += group.order

        self._wrap_method(FiniteGroup, "__init__", init)

    def _wrap_cayley(self, FiniteGroup):
        counts = self.counts
        traced = FiniteGroup.cayley_table

        def cayley_table(group):
            before = getattr(group, "_table", None)
            table = traced(group)
            if table is not before:
                counts["groups.cayley_tables_built"] += 1
                counts["groups.cayley_table_bytes"] += 4 * group.order ** 2
            return table

        self._wrap_method(FiniteGroup, "cayley_table", cayley_table)

    def snapshot(self):
        return len(self.spans), Counter(self.counts)

    def restore(self, snap):
        """Forget the spans and counts recorded since `snapshot()`."""
        n, counts = snap
        del self.spans[n:]
        self.counts.clear()
        self.counts.update(counts)

    # -- output ---------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, query in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, query]) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals.

    `spans` holds (id, name, start, end, parent, query) tuples.
    """
    children: dict = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, not counting a span nested inside
    another span of the same name (so recursion is not double counted)."""
    by_id = {s[0]: s for s in spans}
    total: dict = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        p = parent
        nested = False
        while p is not None:
            ps = by_id[p]
            if ps[1] == name:
                nested = True
                break
            p = ps[4]
        if not nested:
            total[name] += end - start
    return total


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics (unnormalized) from spans and counters."""
    selfs = self_times(spans)
    incl = inclusive_times(spans)
    calls = Counter(s[1] for s in spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for sid, name, *_ in spans:
        out[f"{name.split('.', 1)[0]}.self_s"] += selfs[sid]

    def t(name):
        return incl.get(name, 0.0)

    out.update({
        "groups.mul_calls": counts["groups.FiniteGroup.mul"],
        "groups.verify_calls": counts["groups.verify_calls"],
        "groups.verify_pairs": counts["groups.verify_pairs"],
        "groups.verify_s": t("groups.Homomorphism.verify"),
        "groups.direct_product_s": t("groups.direct_product"),
        "groups.subgroup_s": t("groups.subgroup"),
        "groups.hom_build_s": t("groups.hom_from_generator_images"),
        "groups.orbits_s": t("groups.conjugation_orbits"),
        "groups.elements_enumerated": counts["groups.elements_enumerated"],
        "groups.cayley_tables_built": counts["groups.cayley_tables_built"],
        "groups.cayley_table_bytes": counts["groups.cayley_table_bytes"],
        "groups.permutation_inits": counts["groups.Permutation.__init__"],
        "groups.wreath_elements_enumerated":
            counts["groups.wreath_elements_enumerated"],
        "wreath.level_builds": calls["wreath.WreathGroup.__init__"],
        "wreath.level_build_s": t("wreath.WreathGroup.__init__"),
        "wreath.types_generated": counts["wreath.types_generated"],
        "wreath.type_of_calls": counts["wreath.type_of_calls"],
        "wreath.embed_product_calls": calls["wreath.embed_product"],
        "fock.product_fusion_calls": calls["fock.fock_product.fusion"],
        "fock.product_fusion_s": t("fock.fock_product.fusion"),
        "fock.product_elements_calls": calls["fock.fock_product.elements"],
        "fock.product_elements_s": t("fock.fock_product.elements"),
        "fock.change_of_basis_s": t("fock.change_of_basis"),
        "classfun.induce_fusion_calls": calls["classfun.induce.fusion"],
        "classfun.induce_elements_calls": calls["classfun.induce.elements"],
        "classfun.induce_elements_s": t("classfun.induce.elements"),
        "classfun.pullback_along_s": t("classfun.pullback_along"),
        "ratlinalg.calls": counts["ratlinalg.calls"],
        "ratlinalg.cells": counts["ratlinalg.cells"],
        "ratlinalg.det_s": t("ratlinalg.det"),
        "ratlinalg.rank_s": t("ratlinalg.rank"),
        "pullback.build_s": t("pullback.build_pullback"),
        "pullback.carrier_elements": counts["pullback.carrier_elements"],
        "pullback.conj_closed_s": t("pullback.is_conjugacy_closed"),
        "pullback.decomposition_s":
            t("pullback.verify_class_ring_decomposition"),
        "pullback.semidirect_iso_s": t("pullback.semidirect_product_iso"),
        "catalog.group_builds": counts["catalog.group_builds"],
        "catalog.hom_from_json_s": t("catalog.hom_from_json"),
        "trace.spans": len(spans),
    })
    return out
