"""Finite groups over an enumerated carrier of opaque element descriptors.

Elements are addressed by stable integer indices; the descriptor type
(permutation, index pair, wreath tuple, ...) is only touched by the native
multiplication of each construction.  Index 0 is always the identity.

Bulk operations walk the Cayley graph of a generating set instead of
multiplying all pairs: `Homomorphism.verify` and `subgroup` check every
edge (x, x*s), |G| * #gens of them.  `verify` is the one homomorphism edge
check: `hom_from_generator_images` assigns images along a spanning tree
and proves the map with it.  Edges are read off the right-multiplication
column of s (`FiniteGroup.column`), the index sequence x -> x*s, made once
per element and cached on the group.  `verify` and the conjugation orbits
handle a whole column at once, gathering index sequences through one
another (`_gather`) rather than stepping edge by edge.  A column costs |G|
native products, or none where the group's construction gives the column:
the permutation closure keeps the columns of its generators, a direct
product reads the factors' columns at i*|H| + j, a subgroup the ambient
column, and a wreath product G wr S_n (`wreath.WreathGroup`) the base
group's columns, slot by slot, at the index P(g) * n! + rank(s) of (g, s).
Inverses follow one rule: direct products, subgroups and wreath levels
derive their inverse arrays from their parts' as they do their columns;
every other group reads it off its kept spanning tree (below).
Every walk is a breadth-first queue, a list that grows while it is read,
and every orbit split is one `_orbit_partition`: the conjugacy classes and
the double cosets that `pullback` counts.
The Cayley table, `verify`, the conjugacy classes, `centralizer` and
`hom_from_generator_images` use one generating set per group
(`FiniteGroup._spanning_generators`): the permutation closure, `subgroup`
and `direct_product` record the one their construction proves, any other
group decides it once, since stored generators need not generate the
group.  The group keeps one breadth-first spanning tree of the Cayley
graph of that set (`_spanning_tree`), walked once, on first use, and its
conjugation steps (`_spanning_steps`), made once: the Cayley table,
`conjugates`, `hom_from_generator_images` on that set and
`conjugation_orbits` read them rather than walking again.  An element's
conjugates, a homomorphism's images and the inverse array are each one
walk of values along the tree (`_walk`).
Conjugacy classes take one class-data form (`ConjugacyClasses`): sizes, a
classifier of descriptors, and representatives and a class array made on
first use.  Orbit-computed groups hold their array from the start; direct
products and wreath levels make it only when it is read.
`mul` is always a single native product.  `FiniteGroup.cayley_table()`
(orders <= 4096 only) is an output for tests and the benchmark's tracer:
no library code builds or reads it, and a built table changes no answer of
`mul` or `column`.  The conjugates w^-1 x w of an element by every w
(`conjugates`), which `centralizer` and `classfun.induce(strategy=
"elements")` read, are one walk of the kept tree at any order.
"""

from __future__ import annotations

import contextvars
import functools
import os
import random
from array import array
from operator import itemgetter
from typing import Iterable, Sequence

DEFAULT_MAX_ORDER = 200_000
TABLE_LIMIT = 4096
ENV_MAX_ORDER = "WREATHFOCK_MAX_ORDER"

# The element cap of the running CLI command, set and reset by `cli.main`;
# None leaves the cap to the environment.
MAX_ORDER = contextvars.ContextVar("max_order", default=None)


class ResourceLimitError(RuntimeError):
    """A construction would exceed the configured element cap."""


class NotAHomomorphismError(ValueError):
    pass


class NotASubgroupError(ValueError):
    pass


def max_order_cap() -> int:
    """Element cap for group constructions: the value of `MAX_ORDER` when
    set, else the WREATHFOCK_MAX_ORDER environment variable, else
    DEFAULT_MAX_ORDER.

    Raises ValueError naming the variable when the env value is not a
    positive integer.
    """
    cap = MAX_ORDER.get()
    if cap is not None:
        return cap
    env = os.environ.get(ENV_MAX_ORDER)
    if not env:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{ENV_MAX_ORDER} must be a positive integer, got {env!r}")
    return cap


def check_order_cap(label: str, order: int) -> None:
    """Refuse a group of the given order above the element cap."""
    cap = max_order_cap()
    if order > cap:
        raise ResourceLimitError(
            f"|{label}| = {order} exceeds the element cap {cap}")


def _gather(seq, idx) -> tuple:
    """(seq[i] for i in idx) as a tuple: the index sequence idx composed
    with seq.  One `itemgetter` call for two or more indices; a single
    index, for which itemgetter returns the bare item, is still a tuple."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return tuple(map(seq.__getitem__, idx))


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """Bijection of {0, ..., n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def _unchecked(cls, images: tuple) -> "Permutation":
        # for image tuples that are permutations by construction
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            if cyc:
                images[cyc[-1]] = cyc[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # function composition: (p*q)(i) = p(q(i))
        p, q = self.images, other.images
        if len(p) != len(q):
            raise ValueError(f"degrees differ: {len(p)} and {len(q)}")
        return Permutation._unchecked(tuple(map(p.__getitem__, q)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._unchecked(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images))

    def permute(self, seq: Sequence) -> tuple:
        """Place-permute a sequence: result[p(i)] = seq[i]."""
        out = [None] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = seq[i]
        return tuple(out)

    def cycles(self, include_fixed: bool = True) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least point, sorted by it."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if include_fixed or len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycles())) % 2 else 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)


# ---------------------------------------------------------------------------
# groups


class ConjugacyClasses:
    """Partition of a group into conjugation orbits, deterministically indexed.

    Orbit-computed classes are ordered by least member index; direct products
    use lexicographic pairs of factor classes; wreath groups use their
    cycle-type order.  Either way the indexing is reproducible.

    Every construction passes one form: the class sizes, `classify`
    (descriptor -> class index), `make_rep_descs()` and, optionally,
    `make_class_of()`; the last two make the representatives and the
    class_of array on first use, and without `make_class_of` the array
    classifies every element.  Until the array exists, `class_of_index`
    classifies the one element.  Orbit-computed groups hold their array
    from the start; products and wreath levels make it only when read.
    """

    def __init__(self, group, sizes, classify, make_rep_descs,
                 make_class_of=None):
        self.group = group
        self.sizes = tuple(sizes)
        self._classify = classify
        self._make_rep_descs = make_rep_descs
        self._make_class_of = make_class_of
        self._rep_descs = self._class_of = None

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    @property
    def class_of(self) -> Sequence[int]:
        """Class index per element index (materializes the whole array)."""
        if self._class_of is None:
            self._class_of = (self._make_class_of() if self._make_class_of
                              else array("i", map(self._classify,
                                                  self.group.elements)))
        return self._class_of

    def class_of_index(self, i: int) -> int:
        if self._class_of is not None:
            return self._class_of[i]
        return self._classify(self.group.elements[i])

    def class_of_desc(self, desc) -> int:
        return self._classify(desc)

    @property
    def rep_descs(self) -> tuple:
        """One representative descriptor per class."""
        if self._rep_descs is None:
            self._rep_descs = tuple(self._make_rep_descs())
        return self._rep_descs

    @functools.cached_property
    def reps(self) -> tuple[int, ...]:
        """One representative element index per class, made once."""
        return tuple(self.group.index_of(d) for d in self.rep_descs)

    def members(self, k: int) -> list[int]:
        co = self.class_of
        return [i for i in range(self.group.order) if co[i] == k]

    @functools.cached_property
    def centralizer_orders(self) -> tuple[int, ...]:
        """|C(g)| per class, made once."""
        # orbit-stabilizer: |class| * |centralizer| = |G|
        return tuple(self.group.order // size for size in self.sizes)

    def centralizer_order(self, k: int) -> int:
        return self.centralizer_orders[k]


class FiniteGroup:
    """A finite group: enumerated hashable descriptors plus a native product.

    `elements` may be built lazily by subclasses; all index-level operations
    (`mul`, `inv`, `index_of`) force enumeration.  Instances are treated as
    immutable once constructed.
    """

    def __init__(self, label, elements, mul_desc, *, generators=(),
                 order=None, _column_of=None):
        # _column_of(s), if given, makes the column of s without native
        # products: direct products and subgroups derive it.  Inverses come
        # from the kept spanning tree (`_compute_inverses`) unless the
        # construction derives them, as direct products, subgroups and
        # wreath levels do.
        self.label = label
        self._mul_desc = mul_desc
        self._elements = None if elements is None else list(elements)
        self._order = order if order is not None else (
            len(self._elements) if self._elements is not None else None)
        self._gen_descs = tuple(generators)
        self._spanning = self._tree = None
        self._classes = None
        self._index: dict | None = None
        self._table = None
        self._inverses = None
        self._columns: dict = {}
        self._column_of = _column_of
        self.factors = None     # (G, H) on a group built by direct_product

    # -- enumeration --------------------------------------------------

    def _enumerate(self) -> list:
        raise NotImplementedError("no elements given and no lazy enumeration")

    @property
    def elements(self) -> list:
        if self._elements is None:
            self._elements = self._enumerate()
        return self._elements

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = len(self.elements)
        return self._order

    def __len__(self) -> int:
        return self.order

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = {d: i for i, d in enumerate(self.elements)}
        return self._index

    def index_of(self, desc) -> int:
        try:
            return self.index[desc]
        except KeyError:
            raise ValueError(f"{desc!r} is not an element of {self.label}") from None

    @property
    def identity(self) -> int:
        return 0

    @property
    def generator_indices(self) -> tuple[int, ...]:
        return tuple(self.index_of(d) for d in self._gen_descs)

    def _spanning_generators(self) -> list[int]:
        """A generating set, decided once: the stored generators if they
        reach every element, else `find_generators`.  The permutation
        closure, `subgroup` and `direct_product` record theirs when they
        build the group, as their construction proves it generates; any
        other group decides it by the walk of `_spanning_tree`."""
        if self._spanning is None:
            self._spanning_tree()
        return self._spanning

    def _spanning_tree(self) -> list[tuple]:
        """The edges (w, parent, k), w = parent * gens[k], of the
        breadth-first spanning tree of the Cayley graph of
        `_spanning_generators` (`_generator_columns`), walked once and kept.

        On a group with no recorded generating set, the walk of the stored
        generators decides it: they are kept if the walk spans the group,
        else `find_generators` replaces them and is walked instead."""
        if self._tree is None:
            # a recorded set is empty only on a trivial group, where any spans
            gens = self._spanning or list(self.generator_indices)
            tree = self._generator_columns(gens)
            if len(tree) < self.order - 1:
                gens = find_generators(self)
                tree = self._generator_columns(gens)
            self._spanning, self._tree = gens, tree
        return self._tree

    @functools.cached_property
    def _spanning_steps(self) -> list[tuple]:
        """The conjugation steps of `_spanning_generators`
        (`_conjugation_steps`), made once and kept."""
        return _conjugation_steps(self, self._spanning_generators())

    # -- arithmetic ----------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        els = self.elements
        return self.index_of(self._mul_desc(els[i], els[j]))

    def inv(self, i: int) -> int:
        return self._inverse_array()[i]

    def _inverse_array(self):
        if self._inverses is None:
            self._inverses = self._compute_inverses()
        return self._inverses

    def _compute_inverses(self):
        """The inverse array, read off the kept spanning tree with the
        generators' columns alone: no descriptor, native product or table.

        Left multiplication by a commutes with right multiplication, so
        x -> a*x is the tree walked from a along the columns; `left[k]` is
        the one walked from g_k^-1, the element g_k's column sends to the
        identity.  As (p * g_k)^-1 = g_k^-1 * p^-1, the inverse array is
        the tree walked from the identity along `left`."""
        tree = self._spanning_tree()
        cols = list(map(self.column, self._spanning_generators()))
        left = [_walk(tree, col.index(0), cols) for col in cols]
        return array("i", _walk(tree, 0, left))

    def conj(self, s: int, x: int) -> int:
        """s * x * s^-1"""
        return self.mul(self.mul(s, x), self.inv(s))

    def element_order(self, i: int) -> int:
        k, acc = 1, i
        while acc != 0:
            acc = self.mul(acc, i)
            k += 1
        return k

    def column(self, s: int) -> Sequence[int]:
        """The right-multiplication column of s: x -> x*s for every element
        index x, made once and cached.

        Made by the construction's column rule (direct products,
        subgroups), else by |G| native products.  The identity's column
        needs no product, and a permutation closure caches its generators'
        columns when built.
        """
        col = self._columns.get(s)
        if col is None:
            if s == 0:
                col = range(self.order)
            elif self._column_of is not None:
                col = self._column_of(s)
            else:
                els, mul, d = self.elements, self._mul_desc, self.elements[s]
                col = _gather(self.index, [mul(a, d) for a in els])
            self._columns[s] = col
        return col

    def cayley_table(self):
        """Flat row-major multiplication table (orders <= 4096 only), an
        output for tests and the benchmark's tracer: no library code builds
        or reads it, so `mul` and `column` answer the same with or without.

        Starts from the columns x*s of the generators s of
        `_spanning_generators` (`column`, at most |G| native products per
        generator).  Every other column follows by array lookups along the
        kept spanning tree (`_spanning_tree`): the column of w*s is the
        column of s read at the column of w, as x*(w*s) = (x*w)*s.
        """
        if self._table is None:
            n = self.order
            if n > TABLE_LIMIT:
                raise ResourceLimitError(
                    f"no Cayley table above order {TABLE_LIMIT} (|{self.label}| = {n})")
            cols = list(map(self.column, self._spanning_generators()))
            t = array("i", bytes(4 * n * n))
            t[0::n] = array("i", range(n))
            for w, parent, k in self._spanning_tree():
                t[w::n] = array("i", _gather(cols[k], t[parent::n]))
            self._table = t
        return self._table

    def _generator_columns(self, gens) -> list[tuple]:
        """The edges (w, parent, k) with w = parent * gens[k] of a
        breadth-first spanning tree of the part of the Cayley graph of gens
        that they reach from the identity, read off their columns."""
        cols = list(enumerate(map(self.column, gens)))
        seen = bytearray(self.order)
        seen[0] = 1
        tree = []
        queue = [0]
        for x in queue:
            for k, col in cols:
                y = col[x]
                if not seen[y]:
                    seen[y] = 1
                    tree.append((y, x, k))
                    queue.append(y)
        return tree

    # -- conjugacy -----------------------------------------------------

    @property
    def classes(self) -> ConjugacyClasses:
        if self._classes is None:
            class_of, rep_descs, sizes = conjugation_orbits(self)
            self._classes = ConjugacyClasses(
                self, sizes, lambda d: class_of[self.index_of(d)],
                lambda: rep_descs)
            self._classes._class_of = class_of
        return self._classes

    def __repr__(self) -> str:
        return f"<group {self.label} of order {self.order}>"


# ---------------------------------------------------------------------------
# construction and inspection


def group_from_permutation_generators(degree, generators, label=None):
    """Closure of permutation generators under products, enumerated by BFS.

    Deterministic: the identity is index 0 and new elements appear in
    breadth-first order with the generators applied in the given order.
    """
    gens = [g if isinstance(g, Permutation) else Permutation(g)
            for g in generators]
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    cap = max_order_cap()
    if degree > cap:
        # the identity alone holds `degree` points
        raise ResourceLimitError(
            f"degree {degree} exceeds the element cap {cap}")
    ident = Permutation.identity(degree)
    elements = [ident]
    index = {ident: 0}
    cols = [[] for _ in gens]       # cols[k][w] = index of w * gens[k]
    for w in elements:
        for g, col in zip(gens, cols):
            y = w * g
            i = index.get(y)
            if i is None:
                if len(elements) >= cap:
                    raise ResourceLimitError(
                        f"closure exceeds the element cap {cap}")
                i = index[y] = len(elements)
                elements.append(y)
            col.append(i)
    if label is None:
        label = f"<perm group on {degree} points>"
    G = FiniteGroup(label, elements, Permutation.__mul__, generators=gens)
    # the walk above reached every element from the identity along gens
    G._index = index
    G._spanning = [index[g] for g in gens]
    G._columns.update(zip(G._spanning, cols))
    return G


def conjugation_orbits(G: FiniteGroup, gens=None):
    """Brute-force conjugacy classes: orbit closure under conjugation.

    Conjugating by a generating set (by default `_spanning_generators`,
    whose steps the group keeps) reaches the full orbit.  Returns
    (class_of, rep_descs, sizes) with classes ordered by least member index,
    so representatives are the least index in each class.
    """
    orbits = _orbit_partition(range(G.order), G._spanning_steps
                              if gens is None else _conjugation_steps(G, gens))
    class_of = array("i", bytes(4 * G.order))
    for k, orbit in enumerate(orbits):
        for y in orbit:
            class_of[y] = k
    return (class_of, [G.elements[orbit[0]] for orbit in orbits],
            [len(orbit) for orbit in orbits])


def _conjugation_steps(G: FiniteGroup, gens) -> list[tuple]:
    """The index sequences x -> g^-1*x*g for g in gens, each made by three
    whole-column gathers: with c the column of g itself and inv the inverse
    array, g^-1*x*g = c[inv[c[inv[x]]]].  No column of g^-1 is made, so
    they cost no native product where the columns of gens exist."""
    inv = G._inverse_array()
    return [_gather(c, _gather(inv, _gather(c, inv)))
            for c in map(G.column, gens)]


def _walk(tree, seed, steps) -> list[int]:
    """The values along a spanning tree of edges (w, parent, k), parents
    first: out[0] = seed and out[w] = steps[k][out[parent]], each step an
    index sequence.  Conjugates, homomorphism images and inverses are
    each such a walk of the kept tree (`FiniteGroup._spanning_tree`)."""
    out = [seed] * (len(tree) + 1)
    for w, parent, k in tree:
        out[w] = steps[k][out[parent]]
    return out


def _orbit_partition(seeds, steps) -> list[list[int]]:
    """The orbits of the group the steps generate that meet `seeds`, each
    step an index sequence that permutes the element indices.

    One orbit per seed outside the orbits before it, in seed order, walked
    breadth-first from that seed along x -> step[x], so the seed comes
    first: with seeds in increasing order, each orbit starts at its least
    seed.  Conjugacy classes and double cosets are both such partitions.
    """
    seen: set[int] = set()
    orbits = []
    for seed in seeds:
        if seed in seen:
            continue
        seen.add(seed)
        orbit = [seed]
        for x in orbit:
            for step in steps:
                y = step[x]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        orbits.append(orbit)
    return orbits


def find_generators(G: FiniteGroup) -> list[int]:
    """Small generating set, greedily: adjoin the least element outside the
    running closure until the closure is the whole group."""
    return find_generators_on(G, range(G.order))


def conjugates(G: FiniteGroup, x) -> list[int]:
    """w^-1 x w for every element index w of G, in index order.

    Reads the kept spanning tree (`_spanning_tree`) from the identity,
    carrying conj[w] = w^-1 x w: along an edge w -> w*g, conj[w*g] =
    g^-1 conj[w] g is the kept conjugation step of g (`_spanning_steps`)
    read at conj[w].  It needs the generators' columns only: no native
    product, no column of x and no Cayley table, at any order.  x is an
    element index or a descriptor (`_as_index`); an index outside
    0..|G|-1 raises ValueError.
    """
    return _walk(G._spanning_tree(), _as_index(G, x), G._spanning_steps)


def centralizer(G: FiniteGroup, x: int) -> list[int]:
    """All s with s*x == x*s, the s with s^-1 x s == x among `conjugates`;
    a subgroup containing the identity.  x is as for `conjugates`."""
    conj = conjugates(G, x)
    return [s for s, y in enumerate(conj) if y == conj[0]]     # conj[0] = x


def subgroup(G: FiniteGroup, members: Iterable[int], label=None):
    """Subgroup on a subset of element indices, plus its inclusion.

    The subset is verified to be a subgroup by `find_generators_on`, which
    raises NotASubgroupError, as does a member that is not an element
    index of G; descriptors of the subgroup are the ambient indices, listed
    in increasing order.

    Returns (S, incl).
    """
    idxs = sorted(set(members))
    for i in idxs[:1] + idxs[-1:]:         # the least and the greatest
        if not 0 <= i < G.order:
            raise NotASubgroupError(f"not a subgroup: no element {i} in {G.label}")
    gens = find_generators_on(G, idxs)

    def column(s):
        # the ambient column of idxs[s], read at idxs, as positions in idxs
        try:
            return _gather(S.index, _gather(G.column(idxs[s]), idxs))
        except KeyError:
            raise NotASubgroupError(
                f"not a subgroup: a product with {idxs[s]} escapes") from None

    S = FiniteGroup(label or f"<subgroup of {G.label}, order {len(idxs)}>",
                    idxs, G.mul, generators=[idxs[g] for g in gens],
                    _column_of=column)
    S._spanning = gens
    S._inverses = _gather(S.index, _gather(G._inverse_array(), idxs))
    incl = Homomorphism(S, G, images=idxs, label="inclusion")
    return S, incl


def find_generators_on(G: FiniteGroup, idxs: Sequence[int]) -> list[int]:
    """Greedy generating set of a subset of G, as positions in idxs: adjoin
    the least member outside the running closure until the closure is the
    whole subset.

    This is also the subgroup test.  The closure only multiplies members,
    so a product outside the subset proves it is not closed and raises
    NotASubgroupError; a run that ends has shown idxs = <gens>, a subgroup.
    The closure grows incrementally, in one queue of the elements closed so
    far: those queued before a new generator need only its edges, those
    queued after it every generator's.  Edges are read off the generators'
    columns.
    """
    members = set(idxs)
    if 0 not in members:
        raise NotASubgroupError("not a subgroup: missing identity")
    gens: list[int] = []
    gcols: list[tuple] = []
    closed = {0}
    queue = [0]
    for p, a in enumerate(idxs):
        if a in closed:
            continue
        gens.append(p)
        gcols.append((a, G.column(a)))
        old = len(queue)
        for i, x in enumerate(queue):
            for g, col in gcols[-1:] if i < old else gcols:
                y = col[x]
                if y not in closed:
                    if y not in members:
                        raise NotASubgroupError(
                            f"not a subgroup: product of {x} and {g} escapes")
                    closed.add(y)
                    queue.append(y)
        if len(queue) == len(members):
            break
    return gens


def direct_product(G: FiniteGroup, H: FiniteGroup, label=None):
    """Direct product with projections and inclusions.

    Elements are index pairs (i, j) in lexicographic order, so (i, j) has
    index i*|H| + j, and conjugacy classes are pairs of factor classes,
    likewise in lexicographic order.  Columns, inverses and the class of
    every element come from the factors' by that index arithmetic, with no
    product of pairs and no element classified twice.  P records its
    factors as ``P.factors = (G, H)``, which `classfun.external_product`
    checks.

    Returns (P, proj_G, proj_H, incl_G, incl_H).
    """
    nG, nH = G.order, H.order
    label = label or f"({G.label} x {H.label})"
    check_order_cap(label, nG * nH)
    elements = [(i, j) for i in range(nG) for j in range(nH)]

    def mul(a, b):
        return (G.mul(a[0], b[0]), H.mul(a[1], b[1]))

    def pairs(xs, ys, k=nH) -> list:
        # the index i*k + j of every pair (i, j), i in xs, j in ys
        return [i + j for i in map(k.__mul__, xs) for j in ys]

    def column(s):
        a, b = divmod(s, nH)
        return pairs(G.column(a), H.column(b))

    gens = [(g, 0) for g in G.generator_indices] + \
           [(0, h) for h in H.generator_indices]
    P = FiniteGroup(label, elements, mul, generators=gens, _column_of=column)
    P.factors = (G, H)
    P._spanning = [g * nH for g in G._spanning_generators()] + \
        H._spanning_generators()
    P._inverses = array("i", pairs(G._inverse_array(), H._inverse_array()))
    cG, cH = G.classes, H.classes
    kH = cH.num_classes
    P._classes = ConjugacyClasses(
        P, [sa * sb for sa in cG.sizes for sb in cH.sizes],
        lambda d: cG.class_of_index(d[0]) * kH + cH.class_of_index(d[1]),
        lambda: [(ra, rb) for ra in cG.reps for rb in cH.reps],
        lambda: array("i", pairs(cG.class_of, cH.class_of, kH)))
    proj_G = Homomorphism(P, G, [i for i in range(nG) for _ in range(nH)],
                          label="first projection")
    proj_H = Homomorphism(P, H, list(range(nH)) * nG,
                          label="second projection")
    incl_G = Homomorphism(G, P, range(0, nG * nH, nH),
                          label="first inclusion")
    incl_H = Homomorphism(H, P, range(nH), label="second inclusion")
    for f in (proj_G, proj_H, incl_G, incl_H):
        f.verify()
    return P, proj_G, proj_H, incl_G, incl_H


# ---------------------------------------------------------------------------
# homomorphisms


class Homomorphism:
    """Group homomorphism dom -> cod as the list of the images of dom's
    element indices.  `class_map` is the map on classes, made once.
    `verify()` proves multiplicativity on all pairs by checking the edges
    of the Cayley graph of a generating set of the domain.
    """

    def __init__(self, dom, cod, images, *, label=""):
        self.dom = dom
        self.cod = cod
        self.label = label
        self.images = list(images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def map_desc(self, desc):
        """Image of a dom descriptor as a cod descriptor."""
        return self.cod.elements[self.images[self.dom.index_of(desc)]]

    @functools.cached_property
    def class_map(self) -> tuple[int, ...]:
        """The class of cod holding the image of each dom class
        representative, in dom's class order: the map on classes that
        pullback, restriction and induction by fusion read."""
        cod_class = self.cod.classes.class_of_index
        return tuple(cod_class(self.images[r]) for r in self.dom.classes.reps)

    def verify(self) -> None:
        """Check f(x*y) == f(x)*f(y) for all x, y in the domain.

        Checks f(x*s) == f(x)*f(s) on every edge (x, x*s) of the Cayley
        graph of dom's generating set S (`_spanning_generators`).  A map
        with f(e) = e that agrees on every edge satisfies
        f(x*w) = f(x)*f(w) for every word w in S, by induction on the
        length of w, and every element is such a word.  For each s the
        edges are compared a whole column at a time: f read along the
        column of s in dom, against the column of f(s) in cod read along
        f.  2 * |dom| * |S| lookups, no product once those columns exist,
        and no Cayley table.  The error names the first failing edge.
        """
        dom, cod = self.dom, self.cod
        f = self.images
        if f[0] != 0:
            raise NotAHomomorphismError("not a homomorphism: identity moves")
        for s in dom._spanning_generators():
            lhs = _gather(f, dom.column(s))
            rhs = _gather(cod.column(f[s]), f)
            if lhs != rhs:
                x = next(x for x, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                raise NotAHomomorphismError(
                    f"not a homomorphism: fails at edge ({x}, {s})")

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.cod.order

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.dom.order

    def kernel(self) -> list[int]:
        return [i for i, fi in enumerate(self.images) if fi == 0]

    def __repr__(self) -> str:
        name = self.label or "hom"
        return f"<{name}: {self.dom.label} -> {self.cod.label}>"


def compose_homs(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    if inner.cod is not outer.dom:
        raise ValueError("composition mismatch")
    return Homomorphism(inner.dom, outer.cod,
                        _gather(outer.images, inner.images),
                        label=f"{outer.label} o {inner.label}")


def hom_from_generator_images(dom, gens, cod, images, label=""):
    """The homomorphism sending the given generators of dom to the given
    images.

    Images are assigned along the breadth-first spanning tree of the Cayley
    graph of gens (the kept `_spanning_tree` when gens are dom's spanning
    generators): f(e) = e and f(w*s) = f(w)*f(s) on each tree edge.  Only
    a homomorphism can be so assigned, so the map is then checked to send
    each generator to its image and proved multiplicative by
    `Homomorphism.verify`, the one edge check.  Raises
    NotAHomomorphismError if the images are inconsistent, ValueError if the
    counts differ or the generators do not generate dom.  Generators and
    images may be element indices or descriptors.
    """
    gidx = [_as_index(dom, g) for g in gens]
    himg = [_as_index(cod, h) for h in images]
    if len(gidx) != len(himg):
        raise ValueError("generator/image count mismatch")
    tree = dom._spanning_tree() if gidx == dom._spanning_generators() \
        else dom._generator_columns(gidx)
    if len(tree) < dom.order - 1:
        raise ValueError(
            f"generators do not generate {dom.label} "
            f"(reached {len(tree) + 1} of {dom.order})")
    img = _walk(tree, 0, [cod.column(h) for h in himg])
    if list(_gather(img, gidx)) != himg:
        raise NotAHomomorphismError(
            "not a homomorphism: inconsistent generator images")
    f = Homomorphism(dom, cod, images=img, label=label)
    f.verify()
    return f


def _as_index(G: FiniteGroup, x) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        if not 0 <= x < G.order:
            raise ValueError(f"index {x} out of range for {G.label}")
        return x
    return G.index_of(x)


# ---------------------------------------------------------------------------
# axiom checking (test-time toggle)


def check_group_axioms(G: FiniteGroup, *, exhaustive_limit: int = 300,
                       samples: int = 20_000, seed: int = 0) -> str:
    """Identity, inverses, and associativity.

    Identity and inverses are always exhaustive.  Associativity is cubic, so
    it is exhaustive only up to `exhaustive_limit` and seeded-random sampled
    above that.  Returns "exhaustive" or "sampled"; raises on any failure.

    Every product is a native one, never read from `cayley_table()`: that
    table is derived by assuming associativity, so it cannot test it.
    """
    n = G.order
    els, index, mul_desc = G.elements, G.index, G._mul_desc

    def mul(i, j):
        return index[mul_desc(els[i], els[j])]

    for i in range(n):
        if mul(0, i) != i or mul(i, 0) != i:
            raise ValueError(f"identity fails at {i}")
        if mul(i, G.inv(i)) != 0 or mul(G.inv(i), i) != 0:
            raise ValueError(f"inverse fails at {i}")
    if n <= exhaustive_limit:
        t = array("i", (index[mul_desc(a, b)] for a in els for b in els))
        rng = range(n)
        for i in rng:
            row_i = i * n
            for j in rng:
                ij = t[row_i + j] * n
                jn = j * n
                for k in rng:
                    if t[ij + k] != t[row_i + t[jn + k]]:
                        raise ValueError(f"associativity fails at ({i},{j},{k})")
        return "exhaustive"
    rng = random.Random(seed)
    for _ in range(samples):
        i, j, k = (rng.randrange(n) for _ in range(3))
        if mul(mul(i, j), k) != mul(i, mul(j, k)):
            raise ValueError(f"associativity fails at ({i},{j},{k})")
    return "sampled"
