"""Exact class-function algebra on finite groups.

A class function is a rational vector indexed by the conjugacy classes of a
group, with the class indicators as the working basis.  All arithmetic is
over `fractions.Fraction`; nothing here is numeric-approximate, and no
irreducible characters are ever computed.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from . import ratlinalg
from .groups import FiniteGroup, Homomorphism, conjugates

ZERO = Fraction(0)


def _frac(x) -> Fraction:
    """x as an exact Fraction: an int, a Fraction, or a string that
    `Fraction` parses.  A float or any other number raises ValueError, as
    it would enter only as its binary approximation."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise ValueError(f"{x!r} is not an exact rational: give an int, a "
                     f"Fraction or a string such as '1/10'")


class ClassFunction:
    """Rational-valued function, constant on conjugacy classes."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Iterable):
        self.group = group
        vals = tuple(values)
        for v in vals:
            if not isinstance(v, Fraction):  # convert only other numbers
                vals = tuple(map(_frac, vals))
                break
        if len(vals) != group.classes.num_classes:
            raise ValueError(
                f"{group.label} has {group.classes.num_classes} classes, "
                f"got {len(vals)} values")
        self.values = vals

    # -- evaluation -----------------------------------------------------

    def at_class(self, k: int) -> Fraction:
        return self.values[k]

    def at_index(self, i: int) -> Fraction:
        return self.values[self.group.classes.class_of_index(i)]

    def at_desc(self, desc) -> Fraction:
        return self.values[self.group.classes.class_of_desc(desc)]

    def support(self) -> list[int]:
        return [k for k, v in enumerate(self.values) if v != 0]

    # -- arithmetic -----------------------------------------------------

    def _same_group(self, other: "ClassFunction"):
        if self.group is not other.group:
            raise ValueError("class functions live on different groups")

    def __add__(self, other):
        self._same_group(other)
        return ClassFunction(self.group,
                             (a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._same_group(other)
        return ClassFunction(self.group,
                             (a - b for a, b in zip(self.values, other.values)))

    def __neg__(self):
        return ClassFunction(self.group, (-a for a in self.values))

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same_group(other)
            return ClassFunction(
                self.group, (a * b for a, b in zip(self.values, other.values)))
        return ClassFunction(self.group, (a * _frac(other) for a in self.values))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction)
                and self.group is other.group
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"ClassFunction({self.group.label}: [{vals}])"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"group": self.group.label,
                "values": [f"{v.numerator}/{v.denominator}"
                           for v in self.values]}

    @classmethod
    def from_json(cls, doc: dict, group: FiniteGroup) -> "ClassFunction":
        return cls(group, (Fraction(s) for s in doc["values"]))


def zero(G: FiniteGroup) -> ClassFunction:
    return ClassFunction(G, [ZERO] * G.classes.num_classes)


def one(G: FiniteGroup) -> ClassFunction:
    return ClassFunction(G, [1] * G.classes.num_classes)


def indicator(G: FiniteGroup, k: int) -> ClassFunction:
    vals = [ZERO] * G.classes.num_classes
    vals[k] = Fraction(1)
    return ClassFunction(G, vals)


def indicator_basis(G: FiniteGroup) -> list[ClassFunction]:
    return [indicator(G, k) for k in range(G.classes.num_classes)]


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """<f, g> = (1/|G|) sum_x f(x) g(x), summed class-by-class.

    Values are rational, so no conjugation enters.
    """
    f._same_group(g)
    sizes = f.group.classes.sizes
    total = sum((size * a * b
                 for size, a, b in zip(sizes, f.values, g.values)),
                Fraction(0))
    return total / f.group.order


def span_rank(funcs: Sequence[ClassFunction]):
    """Rank of a family of class functions and indices of a spanning
    subfamily (deterministic first-come selection)."""
    return ratlinalg.span_select([f.values for f in funcs])


# ---------------------------------------------------------------------------
# transport along homomorphisms


def pullback_along(f: ClassFunction, h: Homomorphism) -> ClassFunction:
    """f o h, a class function on the domain of h.

    Pulling back is a ring homomorphism for the pointwise product.
    """
    if f.group is not h.cod:
        raise ValueError("function lives on a different group than h lands in")
    return ClassFunction(h.dom, map(f.values.__getitem__, h.class_map))


def restrict(f: ClassFunction, incl: Homomorphism) -> ClassFunction:
    """Restriction along an injective homomorphism (subgroup inclusion)."""
    if not incl.is_injective():
        raise ValueError("restriction needs an injective homomorphism")
    return pullback_along(f, incl)


def _conjugate_sweep(G: FiniteGroup) -> tuple:
    """For every element x of G, the class a whose representative y's
    conjugates reach x, and the number of r in G with r^-1 y r = x: two
    `array("i")`s indexed by element, swept once per group and kept on G,
    like its `_spanning_steps`.

    The sweep is one walk of G's kept spanning tree per representative
    (`groups.conjugates`), at any order and with no native product or
    Cayley table, and reads no class map of G.  An element that no walk
    reaches, or that two reach, raises AssertionError: the class list
    misses a class or holds two conjugate representatives.
    """
    sweep = G.__dict__.get("_conjugate_sweep")
    if sweep is not None:
        return sweep
    rep_of = array("i", [-1]) * G.order
    times = array("i", bytes(4 * G.order))
    for a, y in enumerate(G.classes.reps):
        for x, c in Counter(conjugates(G, y)).items():
            if rep_of[x] != -1:
                raise AssertionError(
                    f"{G.label}: element {x} is conjugate to the "
                    f"representatives of classes {rep_of[x]} and {a}")
            rep_of[x], times[x] = a, c
    if -1 in rep_of:
        raise AssertionError(f"{G.label}: element {rep_of.index(-1)} is "
                             f"conjugate to no class representative")
    G._conjugate_sweep = rep_of, times
    return rep_of, times


def _conjugate_counts(incl: Homomorphism) -> list:
    """For an injective H -> G, per H-class j, the pairs (a, c), in
    increasing a, with c > 0 the number of r in G such that r^-1 y r lies
    in j, y the a-th class representative of G.  Tallied once per
    inclusion and kept on it, like its `class_map`; a map that is not
    injective raises on every call.

    The tally adds, over the images x of H's elements, the sweep's count
    for x (`_conjugate_sweep`) to the pair of x's H-class and G-class:
    O(|H|) per inclusion, as the sweep is made once per G.  Neither reads
    a class map of G.
    """
    counts = incl.__dict__.get("_conjugate_counts")
    if counts is not None:
        return counts
    if not incl.is_injective():
        raise ValueError("induction needs an injective homomorphism")
    H = incl.dom
    rep_of, times = _conjugate_sweep(incl.cod)
    tally = [{} for _ in range(H.classes.num_classes)]   # per H-class, a -> c
    for x, j in zip(incl.images, H.classes.class_of):
        a, t = rep_of[x], tally[j]
        t[a] = t.get(a, 0) + times[x]
    counts = [sorted(t.items()) for t in tally]
    incl._conjugate_counts = counts
    return counts


def induce(f: ClassFunction, incl: Homomorphism,
           strategy: str = "fusion") -> ClassFunction:
    """Frobenius induction of f along an injective homomorphism H -> G.

    (Ind f)(g) = (1/|H|) sum over r in G with r^-1 g r in H of f(r^-1 g r).

    Strategies, interchangeable and agreeing exactly:

    * ``"elements"``: the literal element sum above, the reference oracle.
      For each class representative y of G, one sweep over every r in G
      (a walk of G's kept spanning tree, `groups.conjugates`) counts, as
      integers, how many r give each conjugate r^-1 y r; the sweep
      depends on G alone, so it is made once per group and kept on it
      (`_conjugate_sweep`).  Each inclusion tallies those counts over its
      own elements, per H-class (`_conjugate_counts`), once, and keeps
      the tally.  Each call writes f's nonzero values as integers over
      one common denominator d, sums integer value times count per class
      of G, and makes one fraction, over d |H|, per nonzero class.
      Neither the sweep nor the tally reads a class map of G, so the
      route is independent of fusion.
    * ``"fusion"``: (Ind f)(g) = |C_G(g)| * sum over H-classes [h] fusing
      into [g] of f(h) / |C_H(h)|; needs only class data of G, never an
      element sweep, so it scales to large ambient groups.

    Both raise ValueError for a map that is not injective.
    """
    H, G = incl.dom, incl.cod
    if f.group is not H:
        raise ValueError("function lives on a different group than incl's domain")
    if strategy == "fusion":
        if not incl.is_injective():
            raise ValueError("induction needs an injective homomorphism")
        g_classes = G.classes
        acc = [Fraction(0)] * g_classes.num_classes
        for j, a in enumerate(incl.class_map):
            acc[a] += f.values[j] / H.classes.centralizer_order(j)
        vals = [G.order // g_classes.sizes[a] * acc[a]
                for a in range(g_classes.num_classes)]
        return ClassFunction(G, vals)
    if strategy == "elements":
        counts = _conjugate_counts(incl)
        d = math.lcm(*[v.denominator for v in f.values if v])
        acc = [0] * G.classes.num_classes
        for v, pairs in zip(f.values, counts):
            if v:
                x = v.numerator * (d // v.denominator)
                for a, c in pairs:
                    acc[a] += x * c
        d *= H.order
        return ClassFunction(G, [Fraction(x, d) if x else ZERO for x in acc])
    raise ValueError(f"unknown induction strategy: {strategy}")


def external_product(f: ClassFunction, g: ClassFunction,
                     P: FiniteGroup) -> ClassFunction:
    """f x g on the direct product of f's and g's groups, in that order,
    built by `direct_product`, whose classes are lexicographic pairs of
    factor classes.  Multiplies only where both factors are nonzero.

    ValueError unless P's recorded factors are f's and g's groups."""
    first, second = P.factors or (None, None)
    if first is not f.group or second is not g.group:
        raise ValueError(f"{P.label} is not the direct product "
                         f"{f.group.label} x {g.group.label}")
    zeros = [ZERO] * len(g.values)
    vals = []
    for a in f.values:
        vals += [a * b if b else ZERO for b in g.values] if a else zeros
    return ClassFunction(P, vals)
