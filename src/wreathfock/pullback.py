"""Pullback (fibered) groups and the decomposition of their class rings.

Given surjections alpha: G -> K and beta: H -> K, the pullback is the
subgroup Gamma = {(g, h) : alpha(g) = beta(h)} of G x H, of order
|G| |H| / |K|.  The main theorem realized here: when Gamma is
conjugacy-closed in G x H, restriction of class functions induces a ring
isomorphism  Class(G) (x)_{Class(K)} Class(H)  ->  Class(Gamma).

Every verdict is read off `hits`, the number of Gamma-classes over each
class pair of G x H.  `class_pair_splitting` counts them as double cosets
in K (orbits of `groups._orbit_partition`), from classes and centralizers
of G, H and K, so neither G x H nor Gamma is built; each centralizer image
in K is closed once, not once per class pair.  The witness of a pullback
that is not closed comes from one walk of conjugates in G and one in H
(`closedness_witness`).  The carrier (`build_pullback`) is the oracle: its
inclusion's class map gives the same counts (`_carrier_hits`), which
`is_conjugacy_closed`, `fusion_pattern` and
`verify_class_ring_decomposition` read, and `is_conjugacy_closed` the same
witness.  The tensor dimension, the rank
of the restriction map and conjugacy-closedness all have closed forms in
`hits` and the class maps of alpha and beta.  The relation and restriction
matrices stay available (`tensor_over_classk`, `restriction_map_matrix`) as
the exact-rank oracles the tests compare against.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

from . import ratlinalg
from .classfun import indicator, pullback_along
from .groups import (FiniteGroup, Homomorphism, _gather, _orbit_partition,
                     centralizer, compose_homs, conjugates, direct_product,
                     find_generators_on, subgroup)
from .wreath import (TypeMatrix, WreathElement, _check_level,
                     class_count_series, quotient_to_symmetric, wreath_group)


class PullbackGroup(NamedTuple):
    """Carrier and structure maps of a pullback G x_K H."""
    G: FiniteGroup
    H: FiniteGroup
    K: FiniteGroup
    alpha: Homomorphism
    beta: Homomorphism
    product: FiniteGroup
    carrier: FiniteGroup
    incl: Homomorphism        # carrier -> product
    proj_G: Homomorphism      # carrier -> G
    proj_H: Homomorphism      # carrier -> H

    @property
    def order(self) -> int:
        return self.carrier.order


def _check_structure_maps(alpha: Homomorphism, beta: Homomorphism) -> None:
    """Refuse maps that define no pullback: both must land in one group K
    and be onto it."""
    if alpha.cod is not beta.cod:
        raise ValueError("alpha and beta must land in the same group")
    if not alpha.is_surjective() or not beta.is_surjective():
        raise ValueError("pullback needs surjective structure maps")


def build_pullback(alpha: Homomorphism, beta: Homomorphism,
                   label: str | None = None) -> PullbackGroup:
    """Construct {(g, h) : alpha(g) = beta(h)} inside G x H.

    Both maps must land in the same group and be surjective; the carrier
    order is checked against |G| |H| / |K|.  The members are listed without
    scanning G x H: H is grouped by its image in K, and each g contributes
    the bucket of beta^-1(alpha(g)), so the pairs come in increasing index
    order at a cost of |Gamma| rather than |G| |H|.
    """
    _check_structure_maps(alpha, beta)
    G, H, K = alpha.dom, beta.dom, alpha.cod
    P, pG, pH, _, _ = direct_product(G, H)
    buckets: list[list[int]] = [[] for _ in range(K.order)]
    for y, k in enumerate(beta.images):
        buckets[k].append(y)
    nH = H.order
    members = [x * nH + y for x, k in enumerate(alpha.images)
               for y in buckets[k]]
    expected = G.order * H.order // K.order
    carrier, incl = subgroup(P, members,
                             label=label or f"({G.label} x_{K.label} {H.label})")
    if carrier.order != expected:
        raise AssertionError(
            f"pullback order {carrier.order} != |G||H|/|K| = {expected}")
    proj_G = compose_homs(pG, incl)
    proj_H = compose_homs(pH, incl)
    proj_G.verify()
    proj_H.verify()
    return PullbackGroup(G, H, K, alpha, beta, P, carrier, incl,
                         proj_G, proj_H)


# ---------------------------------------------------------------------------
# Gamma-classes over class pairs, by double cosets


def class_pair_splitting(alpha: Homomorphism, beta: Homomorphism) -> list[int]:
    """`hits`: the number of Gamma-classes lying over each class pair
    (rho, gam) of G x H, at index rho * kH + gam, where Gamma = G x_K H.

    Take g, the representative of rho, and k = alpha(g).  As Gamma maps
    onto G, each Gamma-class over (rho, gam) meets {g} x {y in gam :
    beta(y) = k}, and that set is empty unless rho and gam lie over one
    K-class.  Otherwise fix h in it.  The pairs (g, y) are the
    beta^-1(C_K(k))-conjugates of (g, h), and Gamma's stabilizer of g acts
    on them through beta^-1(alpha(C_G(g))), so their Gamma-classes are the
    double cosets alpha(C_G(g)) \\ C_K(k) / beta(C_H(h)).  Each is the orbit
    of an element of C_K(k) under x -> a^-1*x and x -> x*b, for generators
    a of alpha(C_G(g)) and b of beta(C_H(h)) (`_orbit_partition`).  Each
    centralizer image is closed once, by `find_generators_on` in K, into
    its steps: the left ones once per representative g, the right ones
    once per h looked up, and C_K(k) is made once per k.  Neither G x H
    nor Gamma is built; the class map of the carrier's inclusion is the
    oracle.
    """
    _check_structure_maps(alpha, beta)
    G, H, K = alpha.dom, beta.dom, alpha.cod
    inv = K._inverse_array()

    def columns(f, x):
        # the columns in K of generators of f(C(x)), closed once
        B = sorted({f(s) for s in centralizer(f.dom, x)})
        return [K.column(B[p]) for p in find_generators_on(K, B)]

    # a member y of each H-class over each element beta(y) of K
    over = {(gam, beta(y)): y for y, gam in enumerate(H.classes.class_of)}
    right = functools.cache(lambda h: columns(beta, h))
    mid = functools.cache(lambda k: centralizer(K, k))
    hits = []
    for g in G.classes.reps:
        k = alpha(g)
        # x -> a^-1*x = inv[inv[x]*a] for generators a of alpha(C_G(g))
        left = [_gather(inv, _gather(c, inv)) for c in columns(alpha, g)]
        for gam in range(H.classes.num_classes):
            h = over.get((gam, k))
            hits.append(0 if h is None else
                        len(_orbit_partition(mid(k), left + right(h))))
    return hits


def _carrier_hits(incl: Homomorphism) -> list[int]:
    """The number of subgroup classes inside each ambient class, read off
    the inclusion's class map: `hits` of a carrier's inclusion."""
    inside = Counter(incl.class_map)
    return [inside[a] for a in range(incl.cod.classes.num_classes)]


# ---------------------------------------------------------------------------
# conjugacy closedness


def is_conjugacy_closed(incl: Homomorphism):
    """Whether every subgroup class is the full intersection of its ambient
    class with the subgroup: [x]_sub == [x]_amb ∩ sub for all x.

    An ambient class meets the subgroup in a union of subgroup classes, so
    the subgroup is closed iff no two of its classes share an ambient class.

    Returns (True, None) or (False, (x, y)) with a witness pair of ambient
    descriptors: conjugate in the ambient group, both inside the subgroup,
    not conjugate there.  x represents the first subgroup class (in class
    order) whose ambient class holds another (`_carrier_hits`), y the next
    one in that ambient class.  On a pullback's carrier this is the oracle
    for `closedness_witness`, which the `pullback` commands run.
    """
    amb, hits = incl.class_map, _carrier_hits(incl)
    j = next((j for j, a in enumerate(amb) if hits[a] > 1), None)
    if j is None:
        return True, None
    reps = incl.dom.classes.rep_descs
    return False, (incl.map_desc(reps[j]),
                   incl.map_desc(reps[amb.index(amb[j], j + 1)]))


def closedness_witness(alpha: Homomorphism, beta: Homomorphism,
                       hits: list[int]) -> Optional[tuple]:
    """The witness of `is_conjugacy_closed` on the carrier's inclusion,
    from G, H and `hits` (`class_pair_splitting`) alone: neither G x H nor
    the carrier is built.  None when no class pair has two or more
    Gamma-classes.

    The carrier lists its pairs (g, h) in the order g * |H| + h, and its
    classes come by least member, each represented by it.  So x = (g0, h0)
    is the least pair whose class pair has hits > 1, and y the least pair
    of that class pair outside the Gamma-class of x.  A pair (g, h) is
    Gamma-conjugate to x iff r^-1 g0 r = g and s^-1 h0 s = h for some r, s
    with alpha(r) = beta(s): iff the images alpha(r) of the r that conjugate
    g0 to g meet the images beta(s) of the s that conjugate h0 to h.  One
    walk of `conjugates` in G and one in H give both sets.
    """
    if max(hits) < 2:
        return None
    cG, cH = alpha.dom.classes.class_of, beta.dom.classes.class_of
    kH = beta.dom.classes.num_classes
    rows = [hits[i:i + kH] for i in range(0, len(hits), kH)]
    g0 = next(g for g, rho in enumerate(cG) if max(rows[rho]) > 1)
    h0 = next(h for h, gam in enumerate(cH)
              if rows[cG[g0]][gam] > 1 and beta(h) == alpha(g0))

    def images_by_conjugate(f, x):
        # the images f(r) of the r with r^-1 x r = c, for each conjugate c,
        # in increasing order of c
        out = {}
        for r, c in enumerate(conjugates(f.dom, x)):
            out.setdefault(c, set()).add(f(r))
        return dict(sorted(out.items()))

    A, B = images_by_conjugate(alpha, g0), images_by_conjugate(beta, h0)
    y = next((g, h) for g in A for h in B
             if (g, h) > (g0, h0) and alpha(g) == beta(h) and not A[g] & B[h])
    return (g0, h0), y


def restriction_map_matrix(incl: Homomorphism):
    """0/1 matrix of class containment: entry (j, i) is 1 when subgroup
    class j lies inside ambient class i.  Every row sums to 1.

    The test oracle for `fusion_pattern`: its rank is the image rank."""
    namb = incl.cod.classes.num_classes
    return [[Fraction(int(i == a)) for i in range(namb)]
            for a in incl.class_map]


def fusion_pattern(incl: Homomorphism) -> dict[str, int]:
    """How subgroup classes sit inside ambient classes: `splitting_pattern`
    of the number of subgroup classes in each ambient class."""
    return splitting_pattern(_carrier_hits(incl))


def splitting_pattern(hits: list[int]) -> dict[str, int]:
    """The fusion pattern of a subgroup whose classes number hits[i] inside
    ambient class i: counts of ambient classes containing 0, 1, or >= 2
    subgroup classes, plus the rank of the restriction map
    Class(amb) -> Class(sub) in the indicator bases.

    Restriction sends each ambient indicator to the sum of the indicators
    of the subgroup classes inside it, and these sums have disjoint
    supports, so the rank is the number of ambient classes hit."""
    rank = len(hits) - hits.count(0)
    return {
        "ambient_classes": len(hits),
        "sub_classes": sum(hits),
        "empty": hits.count(0),
        "bijective": hits.count(1),
        "splitting": rank - hits.count(1),
        "max_split": max(hits, default=0),
        "image_rank": rank,
        "kernel_dim": hits.count(0),
        "surjective": rank == sum(hits),
    }


# ---------------------------------------------------------------------------
# the tensor presentation and the decomposition theorem


class TensorPresentation(NamedTuple):
    """Class(G) (x)_{Class(K)} Class(H) presented over the indicator basis
    pairs: the ambient space Class(G) (x) Class(H) modulo the relations
    alpha*(xi) rho (x) gamma - rho (x) beta*(xi) gamma."""
    dim_ambient: int
    relations: list
    relation_rank: int
    quotient_dim: int


def tensor_over_classk(pb: PullbackGroup) -> TensorPresentation:
    """The relation matrix of Class(G) (x)_{Class(K)} Class(H) and its exact
    rank.  The test oracle for the quotient dimension that
    `verify_class_ring_decomposition` reads off the class maps."""
    G, H, K = pb.G, pb.H, pb.K
    kG = G.classes.num_classes
    kH = H.classes.num_classes
    kK = K.classes.num_classes
    alpha_star = [pullback_along(indicator(K, x), pb.alpha).values
                  for x in range(kK)]
    beta_star = [pullback_along(indicator(K, x), pb.beta).values
                 for x in range(kK)]
    relations = []
    for x in range(kK):
        u, v = alpha_star[x], beta_star[x]
        for rho in range(kG):
            for gam in range(kH):
                # (alpha*(xi) * e_rho) (x) e_gam  -  e_rho (x) (beta*(xi) * e_gam)
                rel = [Fraction(0)] * (kG * kH)
                rel[rho * kH + gam] += u[rho]
                rel[rho * kH + gam] -= v[gam]
                relations.append(rel)
    rr = ratlinalg.rank(relations)
    return TensorPresentation(kG * kH, relations, rr, kG * kH - rr)


class DecompositionReport(NamedTuple):
    conj_closed: bool
    witness: Optional[tuple]
    quotient_dim: int
    map_rank: int
    carrier_classes: int
    is_isomorphism: bool

    def to_json(self) -> dict:
        return {"conj_closed": self.conj_closed,
                "witness": [repr(w) for w in self.witness] if self.witness else None,
                "quotient_dim": self.quotient_dim,
                "map_rank": self.map_rank,
                "carrier_classes": self.carrier_classes,
                "is_isomorphism": self.is_isomorphism}


def verify_class_ring_decomposition(pb: PullbackGroup) -> DecompositionReport:
    """Check whether restriction gives Class(G) (x)_{Class(K)} Class(H)
    ~ Class(Gamma), from the carrier: `decomposition_report` of the class
    map of the inclusion, with the witness of `is_conjugacy_closed`."""
    return decomposition_report(pb.alpha, pb.beta, _carrier_hits(pb.incl),
                                is_conjugacy_closed(pb.incl)[1])


def decomposition_report(alpha: Homomorphism, beta: Homomorphism,
                         hits: list[int],
                         witness: Optional[tuple]) -> DecompositionReport:
    """The decomposition verdict from the class maps of alpha and beta and
    `hits`, the number of Gamma-classes over each class pair of G x H
    (`class_pair_splitting`); `witness` is reported as given.  The
    `pullback verify-iso` command passes the counts of
    `class_pair_splitting` and the witness of `closedness_witness`, and
    `verify_class_ring_decomposition` those of the carrier.

    The relation for K-class x and the indicator pair (rho, gam) is
    ([alpha(rho) = x] - [beta(gam) = x]) e_rho (x) e_gam, so the relations
    span the pairs with alpha(rho) != beta(gam), and the quotient has
    dimension sum_x k_G(x) k_H(x), k_G(x) and k_H(x) counting the G- and
    H-classes over x.  Restriction sends e_rho (x) e_gam to the indicator of
    the Gamma-classes lying over (rho, gam); these have disjoint supports,
    so the map's rank is the number of pairs that Gamma-classes meet, and
    the relations die iff every met pair lies over one K-class.
    """
    over_K_G, over_K_H = alpha.class_map, beta.class_map
    count_G, count_H = Counter(over_K_G), Counter(over_K_H)
    quotient_dim = sum(count_G[x] * count_H[x] for x in count_G)
    # product classes are (G-class, H-class) pairs in lexicographic order
    met = [divmod(p, len(over_K_H)) for p, n in enumerate(hits) if n]
    if any(over_K_G[rho] != over_K_H[gam] for rho, gam in met):
        raise AssertionError("tensor relation does not vanish on the carrier")
    kC, map_rank = sum(hits), len(met)
    return DecompositionReport(max(hits) < 2, witness, quotient_dim, map_rank,
                               kC, map_rank == kC == quotient_dim)


# ---------------------------------------------------------------------------
# wreath specialization: (A x B) wr S_n as a pullback over S_n


def _wreath_split(A: FiniteGroup, B: FiniteGroup, n: int):
    """(W, A_n, B_n, split): the levels W = (A x B) wr S_n, A_n = A wr S_n
    and B_n = B wr S_n, and the map ((a, b), s) -> ((a, s), (b, s)) from
    the descriptors of W to the indices of A_n x B_n, by index arithmetic.

    A part a * |B| + b splits into the digits a and b, so (a, s) has index
    P(a) * n! + rank(s) in A_n (`wreath.WreathGroup`), likewise (b, s) in
    B_n, and the pair has index ia * |B_n| + ib (`direct_product`).
    """
    W = wreath_group(direct_product(A, B)[0], n)
    An, Bn = wreath_group(A, n), wreath_group(B, n)
    nA, nB = A.order, B.order
    rank = An._slot_rank
    f = len(rank)                           # n!

    def split(d: WreathElement) -> int:
        pa = pb = 0
        for p in d.parts:
            a, b = divmod(p, nB)
            pa, pb = pa * nA + a, pb * nB + b
        r = rank[d.perm.images]
        return (pa * f + r) * Bn.order + pb * f + r

    return W, An, Bn, split


def semidirect_product_iso(A: FiniteGroup, B: FiniteGroup, n: int):
    """(A x B) wr S_n ~ A_n x_{S_n} B_n via ((a, b), s) -> ((a, s), (b, s)).

    Builds the pullback of the two permutation-part quotients and the
    explicit map (`_wreath_split`), verifies it is a bijective
    homomorphism, and returns (pb, phi).
    """
    W, An, Bn, split = _wreath_split(A, B, n)
    pb = build_pullback(quotient_to_symmetric(An), quotient_to_symmetric(Bn))
    at = pb.carrier.index_of
    phi = Homomorphism(W, pb.carrier, [at(split(d)) for d in W.elements],
                       label="wreath split")
    phi.verify()
    if not phi.is_injective() or W.order != pb.carrier.order:
        raise AssertionError("wreath split map is not bijective")
    return pb, phi


def n_cycle_classes_closed(A: FiniteGroup, B: FiniteGroup, n: int):
    """For every class of (A x B) wr S_n whose permutation part is a single
    n-cycle, decide whether it is closed in A_n x B_n, from class counts.

    The class of a type over A x B, whose colors are the pairs c * kB + d,
    is closed iff no other type has the same pair of projections, the A-
    and B-types made by splitting each entry's color.  Projecting keeps
    every cycle length, so a type over the single n-cycle types colored c
    and d has one entry (n, e, 1), with e = c * kB + d: every such class is
    closed.  Each other type has an entry of length r < n, and entry tuples
    compare by their first triple, so in canonical order the k = kA * kB
    single n-cycle types come last, color e at class index P_k(n) - k + e,
    P_k(n) the class count of the level (`class_count_series`).  Neither
    A x B nor its wreath level is built, and no other type is made; the
    walk over every type and its projections is the test oracle.  Returns
    a list of (class_index, type, closed), one per class pair (c, d), in
    the order c * kB + d of the types' colors; [] at n = 0.
    """
    _check_level(n)
    if n == 0:
        return []
    k = A.classes.num_classes * B.classes.num_classes
    first = class_count_series(k, n)[n] - k
    return [(first + e, TypeMatrix.single(n, e), True) for e in range(k)]


def n_cycle_closed_brute(A: FiniteGroup, B: FiniteGroup, n: int):
    """Brute-force oracle for `n_cycle_classes_closed`: conjugate each
    embedded n-cycle representative by ambient generators to exhaust its
    A_n x B_n class (the orbit walk of `groups.conjugation_orbits`), then
    compare the members lying in (A x B) wr S_n against the type-defined
    class."""
    W, An, Bn, split = _wreath_split(A, B, n)
    amb = direct_product(An, Bn)[0]
    pair_index = {p: i for i, p in enumerate(W.base.elements)}

    def joint(desc: tuple) -> WreathElement | None:
        xa, xb = An.elements[desc[0]], Bn.elements[desc[1]]
        if xa.perm != xb.perm:
            return None
        parts = tuple(pair_index[(a, b)] for a, b in zip(xa.parts, xb.parts))
        return WreathElement(parts, xa.perm)

    steps = amb._spanning_steps
    out = []
    for idx, t in enumerate(W.types):
        if not (len(t.entries) == 1 and t.entries[0][0] == n
                and t.entries[0][2] == 1):
            continue
        closed = True
        for y in _orbit_partition([split(W.classes.rep_descs[idx])],
                                  steps)[0]:
            w = joint(amb.elements[y])
            if w is not None and W.classes.class_of_desc(w) != idx:
                closed = False
                break
        out.append((idx, t, closed))
    return out
