"""The in-process workloads: seeded query lists, the calls they time, and
the oracles that check each result by an independent route.

A workload builds one *pass* of queries from a `random.Random`.  Every pass
has the same slots (kind, group, level or size stratum) in the same order;
the seed only draws the concrete inputs inside each slot.  That keeps the
cost of a pass, and the query kinds around each latency percentile, the
same from seed to seed, so the end-to-end metrics move only when the
library does.  The fixed order matters because a pass starts with empty
caches: the query that pays for building a group or a wreath level, and
the ones that find it built by an earlier query or its oracle, are the
same in every pass.  The order is a shuffle seeded by the workload's
name, so each kind is spread over the pass and a slow second of the
machine does not fall on one kind alone.

`execute(q)` is the timed call.  `check(q, result)` runs after the timer
stops and raises `OracleError` when the result is wrong.

Library functions are looked up on their modules at call time, so a tracer
installed after this module is imported still sees every call.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import wreathfock as wf
from wreathfock import catalog, ratlinalg


class OracleError(AssertionError):
    """A result disagrees with its independent check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


@dataclass
class Query:
    kind: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        shown = {k: v for k, v in self.params.items() if k in ("G", "H", "K", "base", "n")}
        return f"{self.kind}{shown}"


# ---------------------------------------------------------------------------
# combinatorics the oracles use, written independently of the library


def colored_partitions(k: int, n: int) -> list[tuple]:
    """Every k-colored partition of n as a sorted tuple of (r, c, m), in the
    canonical order of the tuples themselves."""
    pairs = [(r, c) for r in range(1, n + 1) for c in range(k)]
    out = []

    def go(i, left, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        if i == len(pairs):
            return
        r, c = pairs[i]
        go(i + 1, left, acc)
        for m in range(1, left // r + 1):
            go(i + 1, left - r * m, acc + [(r, c, m)])

    go(0, n, [])
    out.sort()
    return out


def cent_order(base_cents: list[int], entries) -> int:
    """|C(x)| in G wr S_n for x of the given type, from the centralizer
    orders of the base classes: prod (r |C_G(c)|)^m m!."""
    total = 1
    for r, c, m in entries:
        total *= (r * base_cents[c]) ** m * math.factorial(m)
    return total


def base_cents(G) -> list[int]:
    return [G.order // s for s in G.classes.sizes]


def add_types(t1, t2) -> tuple:
    acc = Counter()
    for r, c, m in t1 + t2:
        acc[(r, c)] += m
    return tuple(sorted((r, c, m) for (r, c), m in acc.items()))


def fusion_product(cents, f: dict, g: dict) -> dict:
    """The graded product of two sparse class functions {type: value}:
    (f g)[t] = |C(t)| sum_{t1 + t2 = t} f[t1] g[t2] / (|C(t1)| |C(t2)|)."""
    out: dict = {}
    for t1, a in f.items():
        for t2, b in g.items():
            t = add_types(t1, t2)
            out[t] = out.get(t, 0) + a * b / (cent_order(cents, t1) * cent_order(cents, t2))
    return {t: v * cent_order(cents, t) for t, v in out.items() if v}


def factorial_weight(entries) -> int:
    return math.prod(math.factorial(m) for _, _, m in entries)


def random_colored_partition(rng: random.Random, k: int, n: int) -> tuple:
    parts = Counter()
    left = n
    while left:
        r = rng.randint(1, left)
        parts[(r, rng.randrange(k))] += 1
        left -= r
    return tuple(sorted((r, c, m) for (r, c), m in parts.items()))


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def random_sparse(rng: random.Random, k: int, n: int, most: int = 4) -> dict:
    types = colored_partitions(k, n)
    support = rng.sample(types, min(len(types), rng.randint(1, most)))
    return {t: random_fraction(rng) for t in support}


def as_sparse(f) -> dict:
    """A library class function on a wreath level as {type entries: value}."""
    return {t.entries: v for t, v in zip(f.group.types, f.values) if v}


def on_level(G, n: int, sparse: dict):
    W = wf.wreath_group(G, n)
    vals = [Fraction(0)] * len(W.types)
    for entries, v in sparse.items():
        vals[W.class_index_of_type(wf.TypeMatrix(entries))] = v
    return wf.ClassFunction(W, vals)


def fresh_caches() -> None:
    """Forget every catalog group, and with them what the library caches
    on a group: its classes, Cayley table, wreath levels and products."""
    catalog.catalog_group.cache_clear()


def fixed_order(name: str, slots: list[tuple]) -> list[tuple]:
    """The slots in the one order that every pass of workload `name` uses."""
    order = list(slots)
    random.Random(name).shuffle(order)
    return order


class Workload:
    """A seeded query list plus the timed call and the oracle for each query."""

    name = ""
    groups: list[str] = []      # catalog groups built during set-up
    pools: dict = {}            # the input pools, for the record
    in_process = True           # queries run in the worker, not in children

    def prepare(self, trace: bool = False) -> None:
        """Build the catalog groups; `trace` asks for traced queries, which
        in-process workloads get from the tracer installed around them."""
        for g in self.groups:
            wf.catalog_group(g)

    def queries(self, rng: random.Random) -> list[Query]:
        raise NotImplementedError

    def execute(self, q: Query):
        raise NotImplementedError

    def check(self, q: Query, result) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# pullback-decide


# Generator images onto S3 of the bundled scenario maps (demos/scenarios/
# d12_dic3.json), on the catalog groups' stored generators.
SCENARIO_S3_IMAGES = {"D12": [(2, 0, 1), (0, 2, 1)],
                      "Dic3": [(0, 2, 1), (0, 1, 2), (1, 2, 0)]}
PAIRINGS = [frozenset({frozenset({0, 1}), frozenset({2, 3})}),
            frozenset({frozenset({0, 2}), frozenset({1, 3})}),
            frozenset({frozenset({0, 3}), frozenset({1, 2})})]


def s4_to_s3(p: tuple) -> tuple:
    """S4 -> S3 by the action on the three pairings of {0, 1, 2, 3}."""
    moved = [frozenset(frozenset(p[i] for i in pair) for pair in pairing)
             for pairing in PAIRINGS]
    return tuple(PAIRINGS.index(m) for m in moved)


# (order, number of classes) of the catalog groups the workloads use
KNOWN = {"trivial": (1, 1), "C2": (2, 2), "C3": (3, 3), "C4": (4, 4),
         "S3": (6, 3), "S4": (24, 5), "S5": (120, 7), "D8": (8, 5),
         "D12": (12, 6), "Dic3": (12, 6)}
# groups that admit each target K, by the maps the workload knows
TO_C2 = ["S3", "S4", "S5", "D8", "D12", "C4"]
TO_S3 = ["S3", "S4", "D12", "Dic3"]


class PullbackDecide(Workload):
    name = "pullback-decide"
    groups = ["trivial", "C2", "S3", "S4", "S5", "D8", "D12", "C4", "Dic3"]
    # (size class, K, lowest |G||H|, highest |G||H|, queries per pass).
    # The cost of a query grows with |G||H| squared and depends on K, so
    # both are fixed per slot.  The medium and large slots are fixed pairs
    # in seeded order: they hold the top 10% of a pass, whose cost would
    # otherwise swing the pass total and the p90 from seed to seed.  The
    # p90 falls inside the five alike medium queries.
    strata = [("tiny", "trivial", 8, 48, 10), ("tiny", "C2", 12, 72, 20),
              ("tiny", "S3", 36, 72, 10), ("small", "C2", 144, 144, 8),
              ("small", "S3", 144, 144, 2)]
    fixed = [("medium", "C2", "S4", "D12")] * 5 + [
        ("large", "S3", "S4", "D12"), ("large", "C2", "S4", "S4"),
        ("large", "C2", "S5", "C4")]
    # 2-generator subgroups of S5/S6 with an odd generator, as (name,
    # degree, generator cycles, order).  Each pass relabels the points of
    # every one by a seeded permutation: the inputs change, the groups and
    # so the cost of a slot do not.
    subgroups = [("C4", 5, [[(0, 1, 2, 3)], [(0, 3, 2, 1)]], 4),
                 ("S3", 5, [[(0, 1, 2)], [(0, 1)]], 6),
                 ("C6", 5, [[(0, 1, 2), (3, 4)], [(0, 2, 1), (3, 4)]], 6),
                 ("D8", 5, [[(0, 1, 2, 3)], [(0, 2)]], 8),
                 ("S3xC2", 5, [[(0, 1, 2), (3, 4)], [(0, 1)]], 12),
                 ("F20", 5, [[(0, 1, 2, 3, 4)], [(1, 2, 4, 3)]], 20),
                 ("S4", 5, [[(0, 1, 2, 3)], [(0, 1)]], 24),
                 ("S3xS3", 6, [[(0, 1, 2), (3, 4)], [(0, 1), (3, 4, 5)]], 36),
                 ("S4xC2", 6, [[(0, 1, 2, 3), (4, 5)], [(0, 1)]], 48)]
    pools = {"G, H": "catalog S3 S4 S5 D8 D12 C4 Dic3, or, relabeled by a seeded "
                     "permutation, the subgroups " + " ".join(
                         f"{name}<S{d}" for name, d, _, _ in subgroups),
             "K": "trivial (collapse), C2 (sign), S3 (identity, S4 pairings, "
                  "bundled D12/Dic3 scenario maps)"}

    def subgroup_pool(self, rng: random.Random) -> list[tuple]:
        pool = []
        for _, d, cycles, order in self.subgroups:
            relabel = list(range(d))
            rng.shuffle(relabel)
            gens = []
            for gen in cycles:
                images = list(range(d))
                for cycle in gen:
                    for i, x in enumerate(cycle):
                        images[relabel[x]] = relabel[cycle[(i + 1) % len(cycle)]]
                gens.append(tuple(images))
            pool.append(("perm", d, tuple(gens), order))
        return pool

    def queries(self, rng: random.Random) -> list[Query]:
        pool = self.subgroup_pool(rng)
        slots = [slot[:4] for slot in self.strata for _ in range(slot[4])]
        slots += [(size, K, G, H) for size, K, G, H in self.fixed]

        def draw(rng, size, K, lo, hi):
            if isinstance(lo, str):  # a fixed pair, in seeded order
                G, H = rng.sample([lo, hi], 2)
                return Query(size, {"K": K, "G": ("cat", G, None, KNOWN[G][0]),
                                    "H": ("cat", H, None, KNOWN[H][0])})
            if K == "S3":
                specs = [("cat", g, None, KNOWN[g][0]) for g in TO_S3]
            else:
                names = TO_C2 if K == "C2" else TO_C2 + ["Dic3"]
                specs = [("cat", g, None, KNOWN[g][0]) for g in names] + pool
            while True:
                G, H = rng.choice(specs), rng.choice(specs)
                if lo <= G[3] * H[3] <= hi:
                    return Query(size, {"K": K, "G": G, "H": H})

        return [draw(rng, *slot) for slot in fixed_order(self.name, slots)]

    @staticmethod
    def _group(spec):
        if spec[0] == "cat":
            return wf.catalog_group(spec[1])
        _, degree, gens, _ = spec
        return wf.group_from_permutation_generators(degree, gens, label="sub")

    @staticmethod
    def _map(G, name, K):
        gens = G.generator_indices
        if K.order == 1:
            images = [0] * len(gens)
        elif K.order == 2:
            images = [1 if G.elements[g].sign() < 0 else 0 for g in gens]
        elif name == "S3":
            images = list(gens)
        elif name == "S4":
            images = [K.index_of(wf.Permutation(s4_to_s3(G.elements[g].images)))
                      for g in gens]
        else:
            images = [K.index_of(wf.Permutation(p)) for p in SCENARIO_S3_IMAGES[name]]
        return wf.hom_from_generator_images(G, gens, K, images)

    def execute(self, q: Query):
        p = q.params
        K = wf.catalog_group(p["K"])
        G, H = self._group(p["G"]), self._group(p["H"])
        alpha = self._map(G, p["G"][1], K)
        beta = self._map(H, p["H"][1], K)
        pb = wf.build_pullback(alpha, beta)
        closed, witness = wf.is_conjugacy_closed(pb.incl)
        pattern = wf.fusion_pattern(pb.incl)
        report = wf.verify_class_ring_decomposition(pb)
        return pb, closed, witness, pattern, report

    def check(self, q: Query, result) -> None:
        pb, closed, witness, pattern, report = result
        G, H, K = pb.G, pb.H, pb.K
        a, b = pb.alpha.images, pb.beta.images
        fibers_a, fibers_b = Counter(a), Counter(b)
        pairs = sum(fibers_a[k] * fibers_b[k] for k in range(K.order))
        expect(pb.order == pairs == G.order * H.order // K.order, "carrier order")
        expect(closed == report.conj_closed, "two closedness verdicts")
        expect(report.is_isomorphism == closed, "iso iff conjugacy-closed")
        kcls = K.classes
        kG = Counter(kcls.class_of_index(a[r]) for r in G.classes.reps)
        kH = Counter(kcls.class_of_index(b[r]) for r in H.classes.reps)
        expect(report.quotient_dim == sum(kG[x] * kH[x] for x in kG),
               "quotient dimension closed form")
        P, carrier = pb.product, pb.carrier
        met = {(G.classes.class_of_index(P.elements[i][0]),
                H.classes.class_of_index(P.elements[i][1]))
               for i in (pb.incl(r) for r in carrier.classes.reps)}
        expect(report.map_rank == len(met), "map rank closed form")
        expect(report.carrier_classes == carrier.classes.num_classes
               == pattern["sub_classes"], "carrier class count")
        expect(pattern["image_rank"] == pattern["ambient_classes"] - pattern["empty"],
               "fusion image rank")
        expect(pattern["empty"] + pattern["bijective"] + pattern["splitting"]
               == pattern["ambient_classes"], "fusion pattern sums")
        expect((witness is None) == closed, "witness iff not closed")
        if witness is not None:
            x, y = witness
            for w in witness:
                expect(a[w[0]] == b[w[1]], "witness lies in the carrier")
            expect(P.classes.class_of_desc(x) == P.classes.class_of_desc(y),
                   "witness is ambient-conjugate")
            cx = carrier.classes.class_of_desc(P.index_of(x))
            cy = carrier.classes.class_of_desc(P.index_of(y))
            expect(cx != cy, "witness is not carrier-conjugate")


# ---------------------------------------------------------------------------
# fock-levels


# highest level of G wr S_n under the default element cap at the seed commit
FOCK_TOPS = {"trivial": 8, "C2": 6, "C3": 5, "C4": 5, "S3": 4, "D8": 4, "Dic3": 3}


class FockLevels(Workload):
    name = "fock-levels"
    groups = list(FOCK_TOPS)
    pools = {"base": "trivial C2 C3 C4 S3 D8 Dic3",
             "levels": "1..top with tops " + ", ".join(f"{g} {n}" for g, n in FOCK_TOPS.items()),
             "per pass": "every (base, level) once as monomial, product and "
                         "classes query; per base one FockElement product, one "
                         "series and one change of basis + det at the top level"}

    def queries(self, rng: random.Random) -> list[Query]:
        slots = []
        for base, top in FOCK_TOPS.items():
            for n in range(1, top + 1):
                slots += [("monomial", base, n), ("classes", base, n)]
                if n >= 2:
                    slots.append(("product", base, n))
            slots += [("element", base, top), ("series", base, top),
                      ("basis", base, top)]

        def draw(rng, kind, base, n):
            k = wf.catalog_group(base).classes.num_classes
            p = {"base": base, "n": n}
            if kind == "monomial":
                p["mu"] = random_colored_partition(rng, k, n)
            elif kind == "product":
                p["n1"] = n1 = rng.randint(1, n - 1)
                p["f"] = random_sparse(rng, k, n1)
                p["g"] = random_sparse(rng, k, n - n1)
            elif kind == "element":
                p["x"] = {m: random_sparse(rng, k, m, 2)
                          for m in rng.sample(range(n + 1), 2)}
                p["y"] = {m: random_sparse(rng, k, m, 2)
                          for m in rng.sample(range(n + 1), 2)}
            return Query(kind, p)

        return [draw(rng, *slot) for slot in fixed_order(self.name, slots)]

    def execute(self, q: Query):
        p = q.params
        G = wf.catalog_group(p["base"])
        n = p["n"]
        if q.kind == "monomial":
            return wf.monomial_value(G, wf.TypeMatrix(p["mu"]))
        if q.kind == "product":
            return wf.fock_product(on_level(G, p["n1"], p["f"]),
                                   on_level(G, n - p["n1"], p["g"]))
        if q.kind == "classes":
            return [(t, wf.centralizer_order(G, t)) for t, _ in wf.classes_by_type(G, n)]
        if q.kind == "element":
            x = wf.FockElement(G, {m: on_level(G, m, f) for m, f in p["x"].items()},
                               max_level=n)
            y = wf.FockElement(G, {m: on_level(G, m, f) for m, f in p["y"].items()},
                               max_level=n)
            return x * y
        if q.kind == "series":
            return wf.graded_dimension_series(G, n)
        rows, types = wf.change_of_basis(G, n)
        return rows, types, ratlinalg.det(rows)

    def check(self, q: Query, result) -> None:
        p = q.params
        G = wf.catalog_group(p["base"])
        k, n = G.classes.num_classes, p["n"]
        cents = base_cents(G)
        if q.kind == "monomial":
            mu = p["mu"]
            expect(as_sparse(result) == {mu: factorial_weight(mu)},
                   "monomial is prod m! on its own type")
            expect(len(result.values) == len(colored_partitions(k, n)), "level size")
        elif q.kind == "product":
            expect(as_sparse(result) == fusion_product(cents, p["f"], p["g"]),
                   "fusion product")
        elif q.kind == "classes":
            types = colored_partitions(k, n)
            expect([t.entries for t, _ in result] == types, "types are the colored partitions")
            expect([c for _, c in result] == [cent_order(cents, t) for t in types],
                   "centralizer product formula")
            order = G.order ** n * math.factorial(n)
            expect(sum(order // c for _, c in result) == order, "class equation")
        elif q.kind == "element":
            for level in range(n + 1):
                want: dict = {}
                for m1, f in p["x"].items():
                    for m2, g in p["y"].items():
                        if m1 + m2 == level:
                            for t, v in fusion_product(cents, f, g).items():
                                want[t] = want.get(t, 0) + v
                want = {t: v for t, v in want.items() if v}
                expect(as_sparse(result.level(level)) == want, f"element level {level}")
            expect(max(result.levels, default=0) <= n, "truncation")
        elif q.kind == "series":
            counts, series = result
            want = [len(colored_partitions(k, m)) for m in range(n + 1)]
            expect(counts == series == want, "class counts")
        else:
            rows, types, det = result
            expect([t.entries for t in types] == colored_partitions(k, n), "basis types")
            diag = [factorial_weight(t.entries) for t in types]
            expect(all(rows[i][j] == (diag[i] if i == j else 0)
                       for i in range(len(rows)) for j in range(len(rows))),
                   "change of basis is diagonal with prod m!")
            expect(det == math.prod(diag), "determinant")


# ---------------------------------------------------------------------------
# oracle-elements


class OracleElements(Workload):
    name = "oracle-elements"
    groups = ["trivial", "C2", "C3", "C4", "S3", "S4", "S5", "D8", "D12", "Dic3"]
    basis_slots = [("trivial", 3), ("C2", 2), ("C2", 3), ("C3", 2), ("C4", 2),
                   ("S3", 2), ("D8", 2)]
    induce_bases = ["S3", "S4", "S5", "D8", "D12", "C4", "Dic3"]
    induce_per_base = 8
    orbit_slots = [("C2", 3), ("C2", 4), ("C3", 2), ("C3", 3), ("C4", 2),
                   ("S3", 2), ("D8", 2), ("Dic3", 2)]
    pair_slots = [("C2", "C2", 2), ("C2", "C3", 2), ("C3", "C2", 2), ("C2", "C4", 2)]
    pools = {"change_of_basis": "elements strategy on " + ", ".join(f"{g}@{n}" for g, n in basis_slots),
             "induce": "elements strategy from proper subgroups generated by 1-2 "
                       "seeded elements of " + " ".join(induce_bases),
             "conjugation_orbits": "wreath levels " + ", ".join(f"{g}@{n}" for g, n in orbit_slots),
             "semidirect / n-cycle": ", ".join(f"({a} x {b}) wr S{n}" for a, b, n in pair_slots)}

    def queries(self, rng: random.Random) -> list[Query]:
        slots = [("basis", g, n) for g, n in self.basis_slots]
        slots += [("induce", g, 0) for g in self.induce_bases
                  for _ in range(self.induce_per_base)]
        slots += [("orbits", g, n) for g, n in self.orbit_slots]
        slots += [(kind, (a, b), n) for a, b, n in self.pair_slots
                  for kind in ("semidirect", "ncycle")]

        def draw(rng, kind, base, n):
            p = {"base": base, "n": n}
            if kind == "induce":
                G = wf.catalog_group(base)
                members = {0}
                while len(members) in (1, G.order):  # a proper, nontrivial subgroup
                    gens = [rng.randrange(1, G.order) for _ in range(rng.randint(1, 2))]
                    members = {0}
                    frontier = [0]
                    while frontier:
                        nxt = []
                        for x in frontier:
                            for g in gens:
                                y = G.mul(x, g)
                                if y not in members:
                                    members.add(y)
                                    nxt.append(y)
                        frontier = nxt
                p["members"] = sorted(members)
                p["values"] = [random_fraction(rng) for _ in range(len(members))]
            elif kind == "orbits":
                W = wf.wreath_group(wf.catalog_group(base), n)
                p["extra"] = rng.randrange(W.order)
            return Query(kind, p)

        return [draw(rng, *slot) for slot in fixed_order(self.name, slots)]

    def execute(self, q: Query):
        p = q.params
        if q.kind == "basis":
            return wf.change_of_basis(wf.catalog_group(p["base"]), p["n"],
                                      strategy="elements")
        if q.kind == "induce":
            S, incl = wf.subgroup(wf.catalog_group(p["base"]), p["members"])
            f = wf.ClassFunction(S, p["values"][:S.classes.num_classes])
            return f, incl, wf.induce(f, incl, strategy="elements")
        if q.kind == "orbits":
            W = wf.wreath_group(wf.catalog_group(p["base"]), p["n"])
            return W, wf.groups.conjugation_orbits(W, list(W.generator_indices) + [p["extra"]])
        A, B = (wf.catalog_group(x) for x in p["base"])
        if q.kind == "semidirect":
            return wf.semidirect_product_iso(A, B, p["n"])
        return wf.pullback.n_cycle_closed_brute(A, B, p["n"])

    def check(self, q: Query, result) -> None:
        p = q.params
        if q.kind == "basis":
            G = wf.catalog_group(p["base"])
            rows, types = result
            expect(result == wf.change_of_basis(G, p["n"]), "elements == fusion")
            expect(all(rows[i][j] == (factorial_weight(t.entries) if i == j else 0)
                       for i, t in enumerate(types) for j in range(len(rows))),
                   "diagonal prod m!")
        elif q.kind == "induce":
            f, incl, induced = result
            expect(induced == wf.induce(f, incl, strategy="fusion"), "elements == fusion")
        elif q.kind == "orbits":
            W, (class_of, _, sizes) = result
            G = W.base
            type_to_orbit = {}
            for i, x in enumerate(W.elements):
                t = wf.type_of(G, x)
                expect(type_to_orbit.setdefault(t, class_of[i]) == class_of[i],
                       "one orbit per type")
            expect(len(type_to_orbit) == len(sizes) == len(W.types),
                   "orbits are the types")
            cents = base_cents(G)
            for t, o in type_to_orbit.items():
                expect(sizes[o] * cent_order(cents, t.entries) == W.order, "orbit sizes")
        elif q.kind == "semidirect":
            pb, phi = result
            A, B = (wf.catalog_group(x) for x in p["base"])
            n = p["n"]
            expect(pb.order == phi.dom.order == (A.order * B.order) ** n * math.factorial(n),
                   "carrier order")
            expect(phi.is_injective(), "split map injective")
            expect(pb.carrier.classes.num_classes == len(phi.dom.types),
                   "orbit classes == types")
        else:
            A, B = (wf.catalog_group(x) for x in p["base"])
            expect(result == wf.n_cycle_classes_closed(A, B, p["n"]), "brute == types")


WORKLOADS = {w.name: w for w in (PullbackDecide(), FockLevels(), OracleElements())}
