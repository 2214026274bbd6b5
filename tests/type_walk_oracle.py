"""The type walk as an oracle for the class-count routes.

`wreathfock.pullback.n_cycle_classes_closed` reads its verdicts off class
counts, and `wreathfock.wreath._type_counts` counts the types of a level
without listing them.  The routes here list every type of the level
instead, as a colored partition of n: `_type_count` counts them, and
`n_cycle_classes_closed_by_walk` projects the types over A x B to A and B
entry by entry; the tests compare each with its class-count route.
"""

from __future__ import annotations

from collections import Counter

from wreathfock.wreath import TypeMatrix, _type_walk


def _colored_partitions(k: int, n: int) -> list[TypeMatrix]:
    """The types of G wr S_n for a base with k classes, in canonical order
    (`wreath._type_walk`)."""
    return _type_walk(n, (1,) * k)[0]


def _type_count(k: int, n: int) -> int:
    """The number of types of G wr S_n for a base with k classes, by
    listing every one of them: the oracle for `wreath._type_counts`."""
    return len(_colored_partitions(k, n))


def split_type(t: TypeMatrix, kH: int) -> tuple[TypeMatrix, TypeMatrix]:
    """The G- and H-types of a type over G x H, whose base classes are the
    lexicographic pairs c * kH + d of a G-class c and an H-class d.

    A cycle of (G x H) wr S_n with cycle product (a, b) is a cycle of the
    same length in each factor, with cycle products a and b, so projecting
    each entry's color gives the types of both images under the diagonal
    map (G x H) wr S_n -> (G wr S_n) x (H wr S_n).
    """
    return (TypeMatrix([(r, c // kH, m) for r, c, m in t.entries]),
            TypeMatrix([(r, c % kH, m) for r, c, m in t.entries]))


def n_cycle_classes_closed_by_walk(kA: int, kB: int, n: int):
    """`n_cycle_classes_closed` for bases with kA and kB classes, by listing
    every type of (A x B) wr S_n: a class is closed iff no other class
    projects to the same pair of types (`split_type`)."""
    types = _colored_partitions(kA * kB, n)
    projections = [split_type(t, kB) for t in types]
    shared = Counter(projections)
    return [(idx, t, shared[projections[idx]] == 1)
            for idx, t in enumerate(types)
            if len(t.entries) == 1 and t.entries[0][0] == n
            and t.entries[0][2] == 1]

