"""Wreath products G wr S_n and their conjugacy theory by cycle type.

An element is a pair (parts, perm): an n-tuple of base-group element indices
and a permutation of the n slots.  Multiplication follows the semidirect
rule (g, s)(h, t) = (g * (s . h), s t) where (s . h)_i = h_{s^-1(i)}.

Conjugacy is decided by the type matrix: entry (r, c) counts the r-cycles of
the permutation part whose cycle product g_{i_r} ... g_{i_1} lies in base
class c.  Two elements are conjugate iff their types agree, the centralizer
order is a product formula over the type, and classes enumerate as
base-class-colored partitions of n.  None of that needs the group enumerated,
so class-level work scales far beyond an element sweep: a level is built
from class data alone, and the element cap applies only where its elements
are laid out.

One recursion over the colored partitions (`_type_walk`) gives a level its
types and, multiplying the centralizer formula's per-entry factors as it
descends, their centralizer orders.  The same recursion memoized on the
budget (`_type_counts`) gives the number of types of every level up to N
in O(k N^2) additions, without listing one; `class_count_series` expands
the product formula instead.  Types add by merging their sorted entry
tuples (`merge_entries`), which also gives the integer ratio of centralizer
orders that the Fock product's fusion rule needs; the Fock product runs it
on the entry tuples themselves, and a level is indexed by them
(`class_index_of_type`), so its fusion builds no `TypeMatrix`.

At the element level no wreath product is made either: a level's columns
come from the base group's by index arithmetic, and its inverses are one
walk of its kept spanning tree along those columns (`groups`).
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import index, mul
from typing import NamedTuple

from .catalog import catalog_group
from .groups import (ConjugacyClasses, FiniteGroup, Homomorphism, Permutation,
                     check_order_cap, direct_product)


class WreathElement(NamedTuple):
    parts: tuple[int, ...]
    perm: Permutation


def _int_entry(e) -> tuple[int, int, int]:
    """A type entry (r, c, m) with each number taken exactly as an integer
    (`operator.index`): a float or a string is refused, not truncated."""
    try:
        r, c, m = e
        return index(r), index(c), index(m)
    except TypeError:
        raise ValueError(f"bad type entry {e!r}: not three integers") from None


def merge_entries(a: tuple, b: tuple) -> tuple[tuple, int]:
    """(a + b, the product over their shared (r, c) of binom(m1 + m2, m1))
    for two sorted entry tuples, in one pass over both.

    The coefficient is |C(a + b)| / (|C(a)| |C(b)|), as the factor
    (r |C_G(g_c)|)^m m! of an entry is multiplicative in m but for its m!.
    """
    out, coeff, i, j = [], 1, 0, 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x[0] == y[0] and x[1] == y[1]:
            out.append((x[0], x[1], x[2] + y[2]))
            coeff *= math.comb(x[2] + y[2], x[2])
            i, j = i + 1, j + 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    return tuple(out) + a[i:] + b[j:], coeff


class TypeMatrix:
    """Complete conjugacy invariant of a wreath-product element.

    Stored sparsely as (cycle length r, base class c, multiplicity) triples
    sorted by (r, c), zero multiplicities omitted.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        if isinstance(entries, dict):
            entries = [(r, c, m) for (r, c), m in entries.items()]
        # each entry, zero multiplicities included, is checked before
        # repeated (r, c) pairs are summed and zero sums dropped
        merged: list = []
        for r, c, m in sorted(map(_int_entry, entries)):
            if r < 1 or c < 0 or m < 0:
                raise ValueError(f"bad type entry ({r}, {c}, {m})")
            if merged and merged[-1][:2] == (r, c):
                m += merged.pop()[2]
            merged.append((r, c, m))
        self.entries = tuple(e for e in merged if e[2])

    @classmethod
    def _unchecked(cls, entries: tuple) -> "TypeMatrix":
        # for entry tuples that are canonical by construction
        t = object.__new__(cls)
        t.entries = entries
        return t

    @classmethod
    def single(cls, r: int, c: int) -> "TypeMatrix":
        return cls([(r, c, 1)])

    @property
    def n(self) -> int:
        return sum(r * m for r, _, m in self.entries)

    def multiplicity(self, r: int, c: int) -> int:
        for rr, cc, m in self.entries:
            if (rr, cc) == (r, c):
                return m
        return 0

    def merge(self, other: "TypeMatrix") -> tuple["TypeMatrix", int]:
        """(self + other, their fusion coefficient), by `merge_entries`."""
        entries, coeff = merge_entries(self.entries, other.entries)
        return TypeMatrix._unchecked(entries), coeff

    def __add__(self, other: "TypeMatrix") -> "TypeMatrix":
        return self.merge(other)[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, TypeMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{m} x ({r}-cycle in class {c})"
                          for r, c, m in self.entries)
        return f"TypeMatrix[{inner or 'empty'}]"

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [list(e) for e in self.entries]}

    @classmethod
    def from_json(cls, doc: dict) -> "TypeMatrix":
        t = cls(doc["entries"])
        if "n" in doc and t.n != doc["n"]:
            raise ValueError(f"type entries sum to {t.n}, header says {doc['n']}")
        return t


# ---------------------------------------------------------------------------
# type computation


def cycle_product(G: FiniteGroup, x: WreathElement, cycle) -> int:
    """g_{i_r} * g_{i_{r-1}} * ... * g_{i_1} for a cycle (i_1, ..., i_r),
    each step read off the cached column of the running product."""
    acc = 0
    for i in cycle:
        acc = G.column(acc)[x.parts[i]]
    return acc


def type_of(G: FiniteGroup, x: WreathElement) -> TypeMatrix:
    """Type matrix of an element of G wr S_n (fixed points count as 1-cycles).

    Rotating a cycle conjugates its product, so the base class is independent
    of the starting point.  The entries are the sorted (r, c, m) of the
    counts, each m >= 1 as it counts a cycle, so the type is canonical by
    construction and skips `TypeMatrix`'s checks.
    """
    counts: dict = {}
    cls = G.classes
    for cyc in x.perm.cycles():
        c = cls.class_of_index(cycle_product(G, x, cyc))
        key = (len(cyc), c)
        counts[key] = counts.get(key, 0) + 1
    return TypeMatrix._unchecked(
        tuple(sorted([(r, c, m) for (r, c), m in counts.items()])))


def _type_walk(n: int, z) -> tuple[list[TypeMatrix], list[int]]:
    """The types of G wr S_n, n >= 0, for a base G with len(z) classes, in
    canonical order: the partitions of n colored by base classes, ascending
    by entry tuple.  Returns (types, cents), cents[i] the product of the
    factors (r z_c)^m m! over the entries (r, c, m) of types[i]: its
    centralizer order when z holds G's."""
    if n == 0:
        return [TypeMatrix._unchecked(())], [1]     # the empty type
    pairs = [(r, c) for r in range(1, n + 1) for c in range(len(z))]
    # the cycle length of each pair; the last, n + 1, fits no budget
    rs = [r for r, _ in pairs] + [n + 1]
    # one shared (triple, factor, r * m) per entry (r, c, m), however many
    # types use it
    steps = [[((r, c, m), (r * z[c]) ** m * math.factorial(m), r * m)
              for m in range(1, n // r + 1)] for r, c in pairs]
    types: list[TypeMatrix] = []
    cents: list[int] = []

    def go(i: int, budget: int, acc: list, cent: int):
        # Entry tuples compare by their first differing triple, so every
        # type using pair i with multiplicity m precedes those using it m+1
        # times, and all of them precede the types that skip pair i.  A
        # call is made only where pair i fits the budget.
        nxt = rs[i + 1]
        for e, f, used in steps[i]:
            rest = budget - used
            if rest < 0:
                break
            acc.append(e)
            if rest == 0:
                types.append(TypeMatrix._unchecked(tuple(acc)))
                cents.append(cent * f)
            elif nxt <= rest:
                go(i + 1, rest, acc, cent * f)
            acc.pop()
        if nxt <= budget:
            go(i + 1, budget, acc, cent)

    go(0, n, [], 1)
    return types, cents


def _type_counts(k: int, N: int) -> list[int]:
    """The number of types of G wr S_n for n <= N, for a base with k
    classes, by `_type_walk`'s recursion over the pairs (r, c) memoized on
    the budget: counts[b] is the number of colored partitions of b into the
    pairs taken so far, and taking pair (r, c) adds those that use it,
    counts[b - r].  O(k N^2) additions; no type is listed."""
    _check_class_counts(k, N)
    counts = [1] + [0] * N
    for r, _ in itertools.product(range(1, N + 1), range(k)):
        for b in range(r, N + 1):
            counts[b] += counts[b - r]
    return counts


def _type_reps(G: FiniteGroup, n: int, types) -> list[WreathElement]:
    """One representative per type of G wr S_n: consecutive cycles in
    (r, c) order, with the base class representative in the first slot of
    each cycle."""
    # Representatives share their permutations: a permutation depends only
    # on the cycle lengths, so a level has as many as n has partitions.
    reps = G.classes.reps
    shared_perms: dict = {}
    out = []
    for t in types:
        parts = [0] * n
        images: list[int] = []
        for r, c, m in t.entries:
            for _ in range(m):
                pos = len(images)
                parts[pos] = reps[c]
                images.extend(range(pos + 1, pos + r))
                images.append(pos)
        images = tuple(images)
        perm = shared_perms.get(images)
        if perm is None:
            perm = shared_perms[images] = Permutation._unchecked(images)
        out.append(WreathElement(tuple(parts), perm))
    return out


def classes_by_type(G: FiniteGroup, n: int):
    """All conjugacy classes of G wr S_n as (TypeMatrix, representative).

    The types are the base-class-colored partitions of n in canonical
    order: ascending by the type's entry tuple, so the ordering is
    reproducible.  The representative of a type takes consecutive cycles in
    (r, c) order with the base class representative in the first slot of
    each cycle.

    Both are read off the cached level (`_level`), whose representatives
    are made on first use.  Requires only the conjugacy classes of G, never
    the elements of G wr S_n.
    """
    W = _level(G, n)
    return list(zip(W.types, W.classes.rep_descs))


def centralizer_order(G: FiniteGroup, t: TypeMatrix) -> int:
    """|C(x)| in G wr S_n for x of type t:
    product over entries of (r * |C_G(g_c)|)^m * m!.

    A single n-cycle typed by class c gives n * |C_G(g_c)|.  Raises
    ValueError for an entry whose base class c is not a class of G.
    """
    z = G.classes.centralizer_orders
    total = 1
    for r, c, m in t.entries:
        if c >= len(z):
            raise ValueError(f"type entry {[r, c, m]} names base class {c}, "
                             f"but {G.label} has {len(z)} classes")
        total *= (r * z[c]) ** m * math.factorial(m)
    return total


# ---------------------------------------------------------------------------
# the group itself


class WreathGroup(FiniteGroup):
    """G wr S_n with conjugacy decided by type.

    Building a level makes only its class data: the types in canonical
    order and their sizes, both from one `_type_walk`; one representative
    per type is made on first read of ``classes.rep_descs``.  That needs
    the base group's classes alone, so any level can be built, whatever
    its order.
    The element cap (`max_order_cap`) is checked where the elements are
    first laid out (`_slot_perms`): enumeration, columns, inverses and
    element lookups are refused above it, class-level work never is.

    Elements enumerate lazily (parts-major, both factors lexicographic).  The
    element (g, s) has index P(g) * n! + rank(s), where P(g) reads the
    parts g_0 ... g_{n-1} as the digits of a base-|G| number and rank(s) is
    the position of s among the permutations of the slots in lexicographic
    order.  Columns are computed on these indices from the base group's
    columns (`_derived_column`), with no product of wreath elements; the
    inverse array is read off the level's kept spanning tree, as on any
    group whose construction derives none.  `index_of` reads the index off
    a descriptor, so class representatives and stored generators are
    located without enumerating the level.
    """

    def __init__(self, base: FiniteGroup, n: int):
        _check_level(n)
        order = base.order ** n * math.factorial(n)
        base_mul = base.mul

        def wmul(x: WreathElement, y: WreathElement) -> WreathElement:
            moved = x.perm.permute(y.parts)
            parts = tuple(base_mul(g, h) for g, h in zip(x.parts, moved))
            return WreathElement(parts, x.perm * y.perm)

        ident = Permutation.identity(n)
        gens = [WreathElement((g,) + (0,) * (n - 1), ident)
                for g in base.generator_indices] if n else []
        if n >= 2:
            gens.append(WreathElement((0,) * n,
                                      Permutation.from_cycles(n, [(0, 1)])))
        if n >= 3:
            gens.append(WreathElement((0,) * n,
                                      Permutation.from_cycles(n, [tuple(range(n))])))
        super().__init__(f"{base.label} wr S{n}", None, wmul,
                         generators=gens, order=order,
                         _column_of=self._derived_column)
        self.base = base
        self.n = n

        self.types, cents = _type_walk(n, base.classes.centralizer_orders)
        # entry tuple -> class index, for lookups hashed and compared in C
        self._type_index = type_index = {t.entries: i
                                         for i, t in enumerate(self.types)}
        sizes = [order // cent for cent in cents]
        assert all(size * cent == order for size, cent in zip(sizes, cents))

        digits = range(base.order)

        def classify(d: WreathElement) -> int:
            # a part outside the base group has no cycle product
            try:
                if all(g in digits for g in d.parts):
                    return type_index[type_of(base, d).entries]
            except KeyError:
                pass
            raise ValueError(f"{d!r} is not an element of {self.label}")

        self._classes = ConjugacyClasses(
            self, sizes, classify, lambda: _type_reps(base, n, self.types))

    def _enumerate(self):
        perms = [Permutation._unchecked(p) for p in self._slot_perms]
        return [WreathElement(parts, perm)
                for parts in itertools.product(range(self.base.order),
                                               repeat=self.n)
                for perm in perms]

    @functools.cached_property
    def _slot_perms(self) -> list[tuple]:
        """The permutations of the n slots as image tuples, in index order.

        Every element-level array starts here, so this is where the
        element cap is enforced.
        """
        check_order_cap(self.label, self.order)
        return list(itertools.permutations(range(self.n)))

    def index_of(self, desc) -> int:
        """The index P(g) * n! + rank(s) of desc = (g, s), read off the
        descriptor without enumerating the level.  Accepts exactly what
        the element dict would, any part equal to a base index included;
        ValueError for anything else."""
        rank, digits = self._slot_rank, range(self.base.order)
        if (isinstance(desc, tuple) and len(desc) == 2
                and isinstance(desc[0], tuple) and len(desc[0]) == self.n
                and all(g in digits for g in desc[0])
                and isinstance(desc[1], Permutation) and desc[1].images in rank):
            weighted = map(mul, map(digits.index, desc[0]), self._place_values())
            return sum(weighted) + rank[desc[1].images]
        raise ValueError(f"{desc!r} is not an element of {self.label}")

    @functools.cached_property
    def _slot_rank(self) -> dict:
        """The index of each permutation of the slots."""
        return {p: i for i, p in enumerate(self._slot_perms)}

    def _place_values(self) -> list[int]:
        """The index weight of a base element in slot i: |G|^(n-1-i) * n!."""
        n, b = self.n, self.base.order
        return [b ** (n - 1 - i) * math.factorial(n) for i in range(n)]

    def _digits(self, y: int):
        """The parts and the permutation (as image tuple) of element y."""
        perms = self._slot_perms
        p, si = divmod(y, len(perms))
        parts = []
        for _ in range(self.n):
            p, d = divmod(p, self.base.order)
            parts.append(d)
        return parts[::-1], perms[si]

    def _derived_column(self, y: int) -> list[int]:
        """The column x -> x*y from the base group's columns.

        For x = (g, s) and y = (h, t), x*y = (g_i * h_{s^-1(i)}, s t): slot
        s(k) of the product holds g_{s(k)} * h_k, which is the base column
        of h_k read at g_{s(k)}.  For each s the weighted sums over every g
        are laid out in lexicographic order of g, one slot at a time, as
        `direct_product` lays out its pairs.  |G wr S_n| lookups, no wreath
        product.
        """
        h, t = self._digits(y)
        rank = self._slot_rank
        place = self._place_values()
        col = self.base.column
        weighted = [[[c * w for c in col(hk)] for w in place] for hk in h]
        sums, qs = [], []
        for s in self._slot_perms:
            maps = [None] * self.n
            for k, i in enumerate(s):
                maps[i] = weighted[k][i]
            acc = [0]
            for m in maps:
                acc = [a + b for a in acc for b in m]
            sums.append(acc)
            qs.append(rank[tuple(map(s.__getitem__, t))])
        return [a + q for row in zip(*sums) for a, q in zip(row, qs)]

    def class_index_of_type(self, t: TypeMatrix) -> int:
        """The index of the class of type t, looked up by its entries;
        ValueError for a type of another level or base."""
        try:
            return self._type_index[t.entries]
        except KeyError:
            raise ValueError(f"{t!r} is not a type of {self.label}") from None


def _check_level(n: int) -> None:
    if n < 0:
        raise ValueError(f"no level {n}: the levels are n >= 0")


def _level(G: FiniteGroup, n: int) -> WreathGroup:
    """The cached level G wr S_n, for class-level work: no cap check."""
    cache = G.__dict__.setdefault("_wreath_levels", {})
    W = cache.get(n)
    if W is None:
        W = cache[n] = WreathGroup(G, n)
    return W


def wreath_group(G: FiniteGroup, n: int) -> WreathGroup:
    """The cached level G wr S_n, for element-level work.

    Refused when |G|^n * n! exceeds the element cap, checked before the
    level is looked up, so a bounded call is refused whether or not the
    level already exists.  Class-level code, which never needs an element,
    uses `_level` and is not limited by the cap.
    """
    _check_level(n)
    check_order_cap(f"{G.label} wr S{n}", G.order ** n * math.factorial(n))
    return _level(G, n)


# ---------------------------------------------------------------------------
# structure maps


def embed_product(G: FiniteGroup, n: int, m: int) -> Homomorphism:
    """The injective homomorphism G_n x G_m -> G_{n+m} acting on the first n
    and last m letters; its domain is the direct product group.

    The images are index arithmetic on the levels' index P(g) * n! + rank(s)
    (`WreathGroup`): ((g, s), (h, t)) goes to (g h, s + t), the parts side
    by side and t shifted past the first n letters, whose index is
    (P(g) |G|^m + P(h)) (n+m)! + rank(s + t), one rank per pair (s, t).
    Cached per (n, m) on G, next to its wreath levels; the product's maps
    are verified once, when it is built.  Like `wreath_group`, a cache hit
    re-checks the element cap on the product and on G_{n+m}.
    """
    cache = G.__dict__.setdefault("_embeddings", {})
    emb = cache.get((n, m))
    if emb is None:
        Gn, Gm = wreath_group(G, n), wreath_group(G, m)
        amb = wreath_group(G, n + m)
        P = direct_product(Gn, Gm)[0]
        rank = amb._slot_rank
        ranks = [[rank[s + tuple(n + j for j in t)] for t in Gm._slot_perms]
                 for s in Gn._slot_perms]
        N = math.factorial(n + m)
        high = G.order ** m * N
        # dom index (P(g) n! + rank(s)) |G_m| + P(h) m! + rank(t), in order
        images = [pg * high + ph * N + r
                  for pg in range(G.order ** n) for row in ranks
                  for ph in range(G.order ** m) for r in row]
        emb = cache[(n, m)] = Homomorphism(P, amb, images,
                                           label=f"embed {n}+{m}")
    for H in (emb.dom, emb.cod):
        check_order_cap(H.label, H.order)
    return emb


def quotient_to_symmetric(Gn: WreathGroup) -> Homomorphism:
    """The surjection G wr S_n -> S_n forgetting the base parts.

    (g, s) has index P(g) * n! + rank(s), so the images are the S_n indices
    of the permutations of the slots, in rank order, repeated |G|^n times.
    """
    Sn = catalog_group(f"S{Gn.n}")
    images = [Sn.index_of(Permutation._unchecked(s)) for s in Gn._slot_perms]
    return Homomorphism(Gn, Sn, images * Gn.base.order ** Gn.n,
                        label="permutation part")


# ---------------------------------------------------------------------------
# counting


def _check_class_counts(k: int, N: int) -> None:
    _check_level(N)
    if k < 1:
        raise ValueError(f"num_base_classes must be at least 1, not {k}")


def class_count_series(num_base_classes: int, N: int) -> list[int]:
    """Coefficients of prod_{r>=1} (1 - q^r)^(-k) up to q^N, k the number of
    base classes; coefficient n is the class count of G wr S_n."""
    _check_class_counts(num_base_classes, N)
    k = num_base_classes
    # C(m+k-1, k-1) for every m <= N, made once
    binom = [math.comb(m + k - 1, k - 1) for m in range(N + 1)]
    coeffs = [1] + [0] * N
    for r in range(1, N + 1):
        # multiply by sum_m C(m+k-1, k-1) q^(r m)
        nxt = [0] * (N + 1)
        for i, a in enumerate(coeffs):
            if a == 0:
                continue
            for m in range((N - i) // r + 1):
                nxt[i + r * m] += a * binom[m]
        coeffs = nxt
    return coeffs
