"""The graded algebra F(G) = sum_n q^n Class(G wr S_n).

The product of class functions on G wr S_n and G wr S_m is their external
product on the side-by-side subgroup G_n x G_m of G wr S_{n+m}, Frobenius
induced up.  The default implementation works entirely in type space: a
pair of classes fuses to exactly one class, the entrywise sum of their
types, so

    (f * g)[t] = |C(t)| * sum over t1 + t2 = t of
                 f[t1] g[t2] / (|C(t1)| |C(t2)|).

As |C(t)| is the product over the entries (r, c, m) of t of
(r |C_G(g_c)|)^m m!, every factor of the ratio cancels but the m! of the
(r, c) that t1 and t2 share, so the rule is binomial:

    (f * g)[t] = sum over t1 + t2 = t of
                 f[t1] g[t2] prod over shared (r, c) of binom(m1 + m2, m1).

`_fuse` applies it to integer supports, the pairs (entries of t, d f[t])
over the types t where f is nonzero, d a common denominator of f's values:
a product visits only the pairs of types in the two supports, makes each
sum and its coefficient in one merge of sorted entry tuples
(`wreath.merge_entries`) with no `TypeMatrix` per sum, and makes one
fraction per value it lays out.  The literal element-sum induction is
kept as the ``"elements"`` oracle strategy; the two must agree exactly
wherever the ambient group is enumerable.

The distinguished generators are the indicators of single-n-cycle classes;
monomials in them, one per colored partition of n, form a basis of level n
(F(G) is a graded-symmetric algebra on the generators).  The
change-of-basis matrix is diagonal: the monomial of type mu is prod m_i!
times the indicator of mu, m_i the multiplicities of mu.  `monomial_value`
returns that closed form; `change_of_basis` multiplies the generators out
and is its oracle.  Under both strategies it makes one product per
distinct prefix of generators.  By fusion it reads each generator's
support off its type, the single entry (r, c, 1) at value 1, so it builds
no class function at all: it runs each chain on integer supports through
`_fuse` and keeps each row on its support, as a `ratlinalg.SparseRow`,
through to the determinant.  `delta` stays the generators' definition,
and the ``"elements"`` strategy multiplies its class functions out.

Everything here except the ``"elements"`` strategy is class-level work on
the types of each level, so it is bounded by the level (``--max-level``),
never by the element cap: levels come from `wreath._level`, which builds
class data only.  The Künneth identity is decided from class counts
(`pullback.n_cycle_classes_closed`), without building G x H or any of its
wreath levels, and without listing their types.  The graded dimension
(`graded_dimension_series`) is counted twice from the number of base
classes alone, by a recursion over the colored partitions memoized on
their size and by the product formula, so it lists no type either.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classfun import (ClassFunction, external_product, indicator, induce, one,
                       zero)
from .groups import FiniteGroup
from .pullback import n_cycle_classes_closed
from .ratlinalg import SparseRow
from .wreath import (TypeMatrix, WreathGroup, _level, _type_counts,
                     class_count_series, embed_product, merge_entries)

DEFAULT_MAX_LEVEL = 4
ZERO = Fraction(0)


def _wreath_of(f: ClassFunction) -> WreathGroup:
    if not isinstance(f.group, WreathGroup):
        raise ValueError("expected a class function on a wreath product")
    return f.group


def _support(f: ClassFunction) -> tuple[int, list]:
    """f's nonzero values as integers over one denominator d: (d, the
    pairs (entries of t, d * f[t]) over the types t where f is nonzero)."""
    support = [(t.entries, v) for t, v in zip(f.group.types, f.values) if v]
    d = math.lcm(*[v.denominator for _, v in support])
    return d, [(t, v.numerator * (d // v.denominator)) for t, v in support]


def _fuse(fs, gs: list) -> dict:
    """The fusion rule on integer supports, types given by their entry
    tuples: {t1 + t2: sum of a * b * binom} over the pairs (t1, a) of fs
    and (t2, b) of gs, binom the merge coefficient of t1 and t2
    (`merge_entries`).  fs is read once, gs once per pair of fs."""
    acc: dict = {}
    for t1, a in fs:
        for t2, b in gs:
            t, coeff = merge_entries(t1, t2)
            acc[t] = acc.get(t, 0) + a * b * coeff
    return acc


def _row(W: WreathGroup, values: dict, d: int) -> SparseRow:
    """The values on the classes of W of {entry tuple: integer}, over the
    denominator d, on their support.  Each tuple is looked up in the
    level's index, so a sum that is no type of W fails here."""
    index = W._type_index
    frac = Fraction if d == 1 else lambda x: Fraction(x, d)
    return SparseRow(W.classes.num_classes,
                     {index[t]: frac(x) for t, x in values.items() if x})


def fock_product(f: ClassFunction, g: ClassFunction,
                 strategy: str = "fusion") -> ClassFunction:
    """Graded product F(G) level n x level m -> level n+m.

    ``"fusion"`` never touches elements: it writes each factor's nonzero
    values as integers over one denominator, multiplies the two supports
    out with `_fuse`, and lays the fused values out once on the ambient
    level, over the product of the denominators.  ``"elements"`` builds the
    product group and the embedding and runs the literal induction sum (the
    oracle).
    """
    Gn, Gm = _wreath_of(f), _wreath_of(g)
    if Gn.base is not Gm.base:
        raise ValueError("factors live over different base groups")
    base = Gn.base
    amb = _level(base, Gn.n + Gm.n)
    if strategy == "fusion":
        (df, fs), (dg, gs) = _support(f), _support(g)
        return ClassFunction(amb, _row(amb, _fuse(fs, gs), df * dg))
    if strategy == "elements":
        emb = embed_product(base, Gn.n, Gm.n)
        return induce(external_product(f, g, emb.dom), emb, strategy="elements")
    raise ValueError(f"unknown strategy: {strategy}")


def delta(G: FiniteGroup, n: int, c: int) -> ClassFunction:
    """Generator at level n colored by base class c: the indicator of the
    class whose permutation part is one n-cycle with cycle product in c."""
    if n < 1 or not 0 <= c < G.classes.num_classes:
        raise ValueError(f"no {n}-cycle generator of class {c} in {G.label}")
    Gn = _level(G, n)
    return indicator(Gn, Gn.class_index_of_type(TypeMatrix.single(n, c)))


def monomial_value(G: FiniteGroup, mu: TypeMatrix) -> ClassFunction:
    """Product of generators with exponents given by mu: entry (r, c, m)
    contributes delta(G, r, c) to the m-th power.  Lands at level mu.n.

    In closed form: prod m! over the entries of mu, times the indicator of
    mu (the module docstring); `change_of_basis` multiplies it out.
    """
    W = _level(G, mu.n)
    vals = [ZERO] * W.classes.num_classes
    vals[W.class_index_of_type(mu)] = Fraction(
        math.prod(math.factorial(m) for _, _, m in mu.entries))
    return ClassFunction(W, vals)


def _generator_support(r: int, c: int) -> list:
    """The integer support, over the denominator 1, of generator (r, c),
    read off its type: `delta` is the indicator of the single entry
    (r, c, 1)."""
    return [(((r, c, 1),), 1)]


def _prefix_folds(types, start, step) -> list:
    """Per type, the left fold by `step` of its generators (r, c), in entry
    order, onto `start`.  The fold of a type is the fold of its generators
    but the last, stepped once more.  Types sharing a prefix of generators
    are consecutive in canonical order, so one stack of folds, cut back to
    the prefix a type shares with the one before, steps each distinct
    prefix once per call."""
    path, folds = [], [start]       # folds[i]: the fold of path[:i]
    out = []
    for t in types:
        gens = [(r, c) for r, c, m in t.entries for _ in range(m)]
        i = 0
        for have, want in zip(path, gens):
            if have != want:
                break
            i += 1
        del folds[i + 1:]
        for g in gens[i:]:
            folds.append(step(folds[-1], g))
        path = gens
        out.append(folds[-1])
    return out


def change_of_basis(G: FiniteGroup, n: int, strategy: str = "fusion"):
    """Square matrix of generator-monomial values on the classes of
    G wr S_n; rows and columns are both indexed by the colored partitions
    of n in their canonical order.  Invertibility says the monomials are a
    basis of level n.  Each row is a `ratlinalg.SparseRow`, held on its
    support and read as the dense row.

    Each row multiplies its generators out, in entry order, onto the unit,
    so this matrix and its exact determinant are the oracle for the closed
    forms of `monomial_value` and `fock basis`.  Under either strategy one
    walk (`_prefix_folds`) makes each distinct prefix of generators once
    per call: the row of a type is the product for its generators but the
    last, times that last one.  Under ``"fusion"`` a step is `_fuse` on
    integer supports, from the unit's {(): 1}, with each generator's
    support read off its type (`_generator_support`), so no class function
    is built; under ``"elements"`` it is a `fock_product` by induced class
    functions of `delta`.

    Returns (rows, types).
    """
    if strategy not in ("fusion", "elements"):
        raise ValueError(f"unknown strategy: {strategy}")
    W = _level(G, n)
    if strategy == "fusion":
        # indicators of types, so every support is over the denominator 1
        folds = _prefix_folds(W.types, {(): 1}, lambda fs, g: _fuse(
            fs.items(), _generator_support(*g)))
        return [_row(W, fs, 1) for fs in folds], W.types
    deltas = {(r, c): delta(G, r, c) for r in range(1, n + 1)
              for c in range(G.classes.num_classes)}
    unit = one(_level(G, 0))
    folds = _prefix_folds(W.types, unit, lambda f, g: fock_product(
        f, deltas[g], strategy="elements"))
    return [SparseRow.of(f.values) for f in folds], W.types


def module_action_over_sym(f: ClassFunction, x: ClassFunction) -> ClassFunction:
    """Class(S_n) acts on level n through the permutation-part quotient:
    f . x = (f o quotient) * x.

    f lives on S_n as the level trivial wr S_n (`_level`), whose classes
    are the partitions of n.  f o quotient at a type of level n is f at the
    partition of its cycle lengths, the type with its colours collapsed, so
    neither S_n nor the level lays out an element.
    """
    Gn, Sn = _wreath_of(x), _wreath_of(f)
    if Sn.base.order != 1 or Sn.n != Gn.n:
        raise ValueError(f"expected a class function on trivial wr S{Gn.n}")
    shape = Sn.class_index_of_type
    return ClassFunction(Gn, [
        f.values[shape(TypeMatrix([(r, 0, m) for r, _, m in t.entries]))]
        for t in Gn.types]) * x


# ---------------------------------------------------------------------------
# product bases


def kunneth_generator_identity(G: FiniteGroup, H: FiniteGroup, n: int,
                               c: int, d: int) -> bool:
    """Restricting delta_G(n,c) x delta_H(n,d) along the diagonal embedding
    (G x H) wr S_n -> (G wr S_n) x (H wr S_n) gives exactly
    delta_{G x H}(n, c x d).

    Both sides are class functions on (G x H) wr S_n, whose colors are the
    pairs c * kH + d: the left side is 1 on the types whose projections,
    each entry's color split into its G- and H-class, are the two single
    n-cycle types, the right side on the single n-cycle type colored
    c * kH + d, which has those projections.  So the identity holds iff
    that type is the only one over its projections: iff its class is
    closed, which `pullback.n_cycle_classes_closed` decides for every
    (c, d) from the class count of the level.  No group is built, and no
    type of (G x H) wr S_n but the single n-cycle ones.
    """
    kG, kH = G.classes.num_classes, H.classes.num_classes
    if n < 1 or not (0 <= c < kG and 0 <= d < kH):
        raise ValueError(f"no {n}-cycle generator pair ({c}, {d}) in "
                         f"{G.label} x {H.label}")
    return n_cycle_classes_closed(G, H, n)[c * kH + d][2]


def graded_dimension_series(G: FiniteGroup, N: int):
    """Class counts of G wr S_n for n <= N, twice, each in polynomial time
    and with no type listed: by `wreath._type_walk`'s recursion memoized on
    the budget (`wreath._type_counts`), and by expanding
    prod_{r>=1} (1-q^r)^(-k) as a power series (`class_count_series`).

    Returns (counts, series); the two must agree.  ValueError for N < 0.
    """
    k = G.classes.num_classes
    return _type_counts(k, N), class_count_series(k, N)


# ---------------------------------------------------------------------------
# graded elements


class FockElement:
    """A finitely supported graded family {n: class function on G wr S_n},
    truncated above ``max_level`` (products drop overflowing levels, i.e.
    we work modulo q^(max_level+1))."""

    def __init__(self, base: FiniteGroup, levels: dict, *,
                 max_level: int = DEFAULT_MAX_LEVEL):
        for n, f in levels.items():
            W = f.group
            if not (isinstance(W, WreathGroup) and W.base is base and W.n == n):
                raise ValueError(f"level {n} over {base.label} given a class "
                                 f"function on {W.label}")
        self.base = base
        self.max_level = max_level
        self.levels = {n: f for n, f in sorted(levels.items())
                       if n <= max_level and any(f.values)}

    @classmethod
    def unit(cls, G: FiniteGroup, *, max_level: int = DEFAULT_MAX_LEVEL):
        return cls(G, {0: one(_level(G, 0))}, max_level=max_level)

    @classmethod
    def generator(cls, G: FiniteGroup, n: int, c: int, *,
                  max_level: int = DEFAULT_MAX_LEVEL):
        return cls(G, {n: delta(G, n, c)}, max_level=max_level)

    def level(self, n: int) -> ClassFunction:
        f = self.levels.get(n)
        return zero(_level(self.base, n)) if f is None else f

    def _compatible(self, other: "FockElement"):
        if self.base is not other.base:
            raise ValueError("elements live over different base groups")

    def __add__(self, other: "FockElement") -> "FockElement":
        self._compatible(other)
        cap = min(self.max_level, other.max_level)
        out = dict(self.levels)
        for n, f in other.levels.items():
            out[n] = out[n] + f if n in out else f
        return FockElement(self.base, out, max_level=cap)

    def __mul__(self, other):
        if not isinstance(other, FockElement):
            return FockElement(self.base,
                               {n: f * other for n, f in self.levels.items()},
                               max_level=self.max_level)
        self._compatible(other)
        cap = min(self.max_level, other.max_level)
        out: dict = {}
        for n, f in self.levels.items():
            for m, g in other.levels.items():
                if n + m > cap:
                    continue
                fg = fock_product(f, g)
                out[n + m] = out[n + m] + fg if n + m in out else fg
        return FockElement(self.base, out, max_level=cap)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, FockElement) and self.base is other.base
                and self.levels == other.levels)

    def __repr__(self) -> str:
        inner = ", ".join(f"q^{n} {f!r}" for n, f in self.levels.items())
        return f"FockElement({inner or '0'})"

    def to_json(self) -> dict:
        return {"group": self.base.label,
                "max_level": self.max_level,
                "levels": {str(n): f.to_json()
                           for n, f in self.levels.items()}}
