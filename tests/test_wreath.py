import gc
import math
import re
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_fock import BASIS_TOPS
from test_groups import assert_class_map_reads_every_image, perm_groups
from type_walk_oracle import _type_count
from wreathfock.catalog import catalog_group
from wreathfock.classfun import ClassFunction
from wreathfock.fock import (FockElement, change_of_basis, delta, fock_product,
                             graded_dimension_series, monomial_value)
from wreathfock.groups import (ENV_MAX_ORDER, FiniteGroup, Permutation,
                               ResourceLimitError, check_group_axioms,
                               conjugation_orbits)
from wreathfock.pullback import n_cycle_classes_closed
from wreathfock.wreath import (TypeMatrix, WreathElement, WreathGroup,
                               _level, _type_counts, centralizer_order,
                               class_count_series, classes_by_type,
                               cycle_product, embed_product,
                               quotient_to_symmetric, type_of, wreath_group)

# ---------------------------------------------------------------------------
# type matrices


def test_type_matrix_normalizes():
    t = TypeMatrix({(2, 1): 1, (1, 0): 2})
    assert t.entries == ((1, 0, 2), (2, 1, 1))
    assert t.n == 4
    assert t.multiplicity(2, 1) == 1
    assert t.multiplicity(7, 7) == 0
    assert TypeMatrix([(2, 1, 1), (1, 0, 2)]) == t
    assert hash(TypeMatrix.single(3, 2)) == hash(TypeMatrix({(3, 2): 1}))


def test_type_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        TypeMatrix({(0, 1): 1})
    with pytest.raises(ValueError):
        TypeMatrix({(2, -1): 1})
    with pytest.raises(ValueError):
        TypeMatrix({(2, 1): -1})
    # zero multiplicities are dropped, not an error
    assert TypeMatrix({(2, 1): 0}) == TypeMatrix({})


@pytest.mark.parametrize("entries", [
    [(1, 0, 1), (-3, 0, 0)], [(0, 1, 0)], [(2, -1, 0), (2, 1, 1)],
    {(0, 4): 0}, [(1, 0, 1), (1, 0, -1)],
])
def test_type_matrix_checks_entries_of_multiplicity_zero(entries):
    with pytest.raises(ValueError, match="bad type entry"):
        TypeMatrix(entries)


def test_type_matrix_drops_zero_sums_after_checking():
    assert TypeMatrix([(1, 0, 1), (2, 1, 0), (2, 1, 0)]).entries == \
        ((1, 0, 1),)


def test_type_matrix_add_merges_multiplicities():
    a = TypeMatrix({(1, 0): 1, (2, 1): 1})
    b = TypeMatrix({(2, 1): 2})
    assert (a + b).entries == ((1, 0, 1), (2, 1, 3))
    assert (a + b).n == a.n + b.n


def test_type_matrix_merges_repeated_entries():
    t = TypeMatrix([(1, 0, 1), (2, 1, 1), (1, 0, 1)])
    assert t.entries == ((1, 0, 2), (2, 1, 1))
    assert t == TypeMatrix({(1, 0): 2, (2, 1): 1})
    assert hash(t) == hash(TypeMatrix([(1, 0, 2), (2, 1, 1)]))
    assert TypeMatrix([(2, 1, 1), (2, 1, 0), (2, 1, 3)]).entries == ((2, 1, 4),)
    # each entry is checked before it is summed
    with pytest.raises(ValueError, match=r"bad type entry \(1, 0, -1\)"):
        TypeMatrix([(1, 0, 2), (1, 0, -1)])


@pytest.mark.parametrize("entries,shown", [
    ([(1.9, 0, 2)], "(1.9, 0, 2)"),
    ([("3", 0, 1)], "('3', 0, 1)"),
    ({(2.0, 1): 1.5}, "(2.0, 1, 1.5)"),
    ([(1, 0, 1), (2, 0.0, 1)], "(2, 0.0, 1)"),
])
def test_type_matrix_refuses_entries_that_are_not_integers(entries, shown):
    with pytest.raises(ValueError, match=re.escape(f"bad type entry {shown}")):
        TypeMatrix(entries)


def test_type_matrix_json():
    t = TypeMatrix({(2, 2): 1, (3, 3): 1})
    doc = t.to_json()
    assert doc == {"n": 5, "entries": [[2, 2, 1], [3, 3, 1]]}
    assert TypeMatrix.from_json(doc) == t
    with pytest.raises(ValueError):
        TypeMatrix.from_json({"n": 4, "entries": [[2, 2, 1], [3, 3, 1]]})


entry = st.tuples(st.integers(1, 4), st.integers(0, 2))
typem = st.dictionaries(entry, st.integers(1, 3), min_size=0, max_size=3) \
          .map(TypeMatrix)


@given(typem, typem, typem)
def test_type_addition_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a + b).n == a.n + b.n


def sum_by_dict_and_sort(a: TypeMatrix, b: TypeMatrix) -> TypeMatrix:
    """t1 + t2 through a dict of multiplicities and a sort: the sum that
    `TypeMatrix.merge` replaced."""
    counts = {(r, c): m for r, c, m in a.entries}
    for r, c, m in b.entries:
        counts[(r, c)] = counts.get((r, c), 0) + m
    return TypeMatrix._unchecked(
        tuple(sorted((r, c, m) for (r, c), m in counts.items())))


def centralizer_by_class_lookups(G, t: TypeMatrix) -> int:
    """The centralizer product formula with one class lookup per entry:
    the per-type route that a level's walk replaced."""
    total = 1
    for r, c, m in t.entries:
        total *= (r * G.classes.centralizer_order(c)) ** m * math.factorial(m)
    return total


@given(typem, typem)
def test_merge_is_the_sorted_sum_and_the_centralizer_ratio(a, b):
    G = catalog_group("S3")     # three classes, as the entries' colors
    t, coeff = a.merge(b)
    assert t.entries == sum_by_dict_and_sort(a, b).entries == (a + b).entries
    assert TypeMatrix(t.entries) == t
    assert Fraction(coeff) == Fraction(
        centralizer_by_class_lookups(G, t),
        centralizer_by_class_lookups(G, a) * centralizer_by_class_lookups(G, b))


# ---------------------------------------------------------------------------
# cycle products and types


def test_c4_five_strand_example(C4):
    g = 1  # a generator of C4
    x = WreathElement((g, g, g, g, g),
                      Permutation.from_cycles(5, [(0, 1), (2, 3, 4)]))
    t = type_of(C4, x)
    g2 = C4.mul(g, g)
    g3 = C4.mul(g2, g)
    c2 = C4.classes.class_of_index(g2)
    c3 = C4.classes.class_of_index(g3)
    assert t == TypeMatrix({(2, c2): 1, (3, c3): 1})


def test_cycle_product_is_ordered(S3):
    # non-abelian base: the product walks the cycle backwards
    a = S3.index_of(Permutation.from_cycles(3, [(0, 1)]))
    b = S3.index_of(Permutation.from_cycles(3, [(1, 2)]))
    x = WreathElement((a, b), Permutation.from_cycles(2, [(0, 1)]))
    assert cycle_product(S3, x, (0, 1)) == S3.mul(b, a)


def test_type_is_conjugation_invariant():
    G = catalog_group("S3")
    W = wreath_group(G, 2)
    for x in W.elements:
        tx = type_of(G, x)
        for g in W.elements:
            y = W.elements[W.conj(W.index_of(g), W.index_of(x))]
            assert type_of(G, y) == tx


def type_by_checked_counts(G, x) -> TypeMatrix:
    """The type of x by the checked constructor, from the raw counts of
    (cycle length, base class of the cycle product)."""
    return TypeMatrix(Counter(
        (len(cyc), G.classes.class_of_index(cycle_product(G, x, cyc)))
        for cyc in x.perm.cycles()))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([("trivial", 4), ("C2", 3), ("C3", 3), ("S3", 3),
                        ("D8", 2), ("Dic3", 2)]), st.data())
def test_type_of_is_the_checked_type_of_its_counts(level, data):
    G = catalog_group(level[0])
    W = wreath_group(G, level[1])
    for i in data.draw(st.lists(st.integers(0, W.order - 1), min_size=1,
                                max_size=8)):
        x = W.elements[i]
        assert type_of(G, x) == type_by_checked_counts(G, x)


@pytest.mark.parametrize("name,n", [("C2", 3), ("C3", 2), ("S3", 2)])
def test_types_are_exactly_the_conjugacy_classes(name, n):
    # brute-force conjugation orbits vs the type invariant
    G = catalog_group(name)
    W = wreath_group(G, n)
    class_of, rep_descs, _ = conjugation_orbits(W)
    by_type = {}
    orbit_members = [set() for _ in rep_descs]
    for i, x in enumerate(W.elements):
        by_type.setdefault(type_of(G, x), set()).add(i)
        orbit_members[class_of[i]].add(i)
    orbits = {frozenset(v) for v in orbit_members}
    assert orbits == {frozenset(v) for v in by_type.values()}
    assert len(by_type) == len(classes_by_type(G, n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(perm_groups(max_degree=3), st.integers(0, 3))
def test_level_types_are_the_conjugation_orbits_on_random_bases(G, n):
    # the class data a level is built from, against the orbits of its
    # enumerated elements
    assume(G.order ** n * math.factorial(n) <= 150)
    W = WreathGroup(G, n)
    class_of, _, sizes = conjugation_orbits(W)
    orbit_to_type = {}
    for i, x in enumerate(W.elements):
        j = W.class_index_of_type(type_of(G, x))
        assert orbit_to_type.setdefault(class_of[i], j) == j
    assert sorted(orbit_to_type.values()) == list(range(len(W.types)))
    for k, j in orbit_to_type.items():
        assert sizes[k] == W.classes.sizes[j]
        assert W.classes.sizes[j] * centralizer_order(G, W.types[j]) == W.order


def test_wreath_group_structure(C3):
    W = wreath_group(C3, 2)
    assert W.order == 3 ** 2 * 2
    assert check_group_axioms(W) == "exhaustive"
    assert W.elements[0] == WreathElement((0, 0), Permutation.identity(2))


def test_wreath_group_is_cached(C3):
    assert wreath_group(C3, 2) is wreath_group(C3, 2)


@pytest.mark.parametrize("call", [
    lambda G: WreathGroup(G, -1),
    lambda G: _level(G, -1),
    lambda G: wreath_group(G, -1),
    lambda G: classes_by_type(G, -2),
    lambda G: change_of_basis(G, -1),
    lambda G: graded_dimension_series(G, -1),
    lambda G: class_count_series(2, -2),
    lambda G: n_cycle_classes_closed(G, G, -1),
], ids=["WreathGroup", "_level", "wreath_group", "classes_by_type",
        "change_of_basis", "graded_dimension_series", "class_count_series",
        "n_cycle_classes_closed"])
def test_negative_levels_are_refused(C2, call):
    with pytest.raises(ValueError, match=r"no level -[12]: the levels are n >= 0"):
        call(C2)
    assert all(n >= 0 for n in C2.__dict__.get("_wreath_levels", {}))


def assert_types_index_their_classes(W):
    for t in W.types:
        assert W.class_index_of_type(TypeMatrix(t.entries)) == W.types.index(t)


@pytest.mark.parametrize("name,top", sorted(BASIS_TOPS.items()))
def test_class_index_of_type_is_the_position_in_the_types(name, top):
    for n in range(top + 1):
        assert_types_index_their_classes(_level(catalog_group(name), n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(perm_groups(max_degree=4), st.integers(0, 4))
def test_class_index_of_type_is_the_position_on_random_bases(G, n):
    assert_types_index_their_classes(_level(G, n))


def test_class_index_of_type_refuses_a_type_of_another_level(C2):
    with pytest.raises(ValueError, match=re.escape(
            "TypeMatrix[1 x (1-cycle in class 3)] is not a type of C2 wr S1")):
        monomial_value(C2, TypeMatrix([(1, 3, 1)]))
    with pytest.raises(ValueError, match=re.escape(
            "TypeMatrix[1 x (1-cycle in class 0)] is not a type of C2 wr S2")):
        _level(C2, 2).class_index_of_type(TypeMatrix([(1, 0, 1)]))


def test_wreath_order_cap(S3, monkeypatch):
    monkeypatch.setenv("WREATHFOCK_MAX_ORDER", "10000")
    with pytest.raises(ResourceLimitError):
        wreath_group(S3, 4)


def test_class_equation_from_types():
    G = catalog_group("C4")
    n = 5
    order = G.order ** n * math.factorial(n)
    total = sum(order // centralizer_order(G, t)
                for t, _ in classes_by_type(G, n))
    assert total == order


def test_class_sizes_match_brute(C2):
    W = wreath_group(C2, 3)
    _, _, brute_sizes = conjugation_orbits(W)
    by_formula = Counter(W.order // centralizer_order(C2, t)
                         for t, _ in classes_by_type(C2, 3))
    assert Counter(brute_sizes) == by_formula


def assert_walk_orders_are_the_per_type_formula(G, n: int):
    W = _level(G, n)
    walked = [W.order // size for size in W.classes.sizes]
    assert walked == [centralizer_by_class_lookups(G, t) for t in W.types]
    assert walked == [centralizer_order(G, t) for t in W.types]


@pytest.mark.parametrize("name,top", [("trivial", 8), ("C2", 6), ("C3", 5),
                                      ("C4", 5), ("S3", 5), ("D8", 4),
                                      ("Dic3", 4)])
def test_level_centralizers_are_the_per_type_formula(name, top):
    for n in range(top + 1):
        assert_walk_orders_are_the_per_type_formula(catalog_group(name), n)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(perm_groups(max_degree=4), st.integers(0, 5))
def test_level_centralizers_are_the_per_type_formula_on_random_bases(G, n):
    assume(class_count_series(G.classes.num_classes, n)[n] <= 500)
    assert_walk_orders_are_the_per_type_formula(G, n)


def test_centralizer_order_refuses_a_class_outside_the_base(S3):
    with pytest.raises(ValueError, match=r"base class 5.*S3 has 3 classes"):
        centralizer_order(S3, TypeMatrix([(1, 5, 1)]))


def test_single_cycle_centralizer_formula(S3):
    # an n-cycle over class c has centralizer of order n * |C_G(g)|
    n = 3
    for c in range(S3.classes.num_classes):
        t = TypeMatrix.single(n, c)
        assert centralizer_order(S3, t) == n * S3.classes.centralizer_order(c)


def test_centralizer_matches_brute_scan(C3):
    W = wreath_group(C3, 2)
    for t, rep in classes_by_type(C3, 2):
        i = W.index_of(rep)
        brute = sum(1 for g in range(W.order)
                    if W.mul(g, i) == W.mul(i, g))
        assert brute == centralizer_order(C3, t)


def test_class_reps_have_their_type(C4):
    for t, rep in classes_by_type(C4, 5):
        assert type_of(C4, rep) == t


def test_class_reps_share_one_permutation_per_cycle_shape():
    G = catalog_group("Dic3")
    for n, partitions in [(4, 5), (5, 7), (6, 11)]:
        perms = {id(rep.perm) for _, rep in classes_by_type(G, n)}
        assert len(perms) == partitions


def test_level_representatives_are_made_on_first_read():
    G = catalog_group.__wrapped__("S3")     # fresh: no cached levels
    W = WreathGroup(G, 5)
    assert W.classes._rep_descs is None     # a level build makes none
    reps = W.classes.rep_descs
    assert len(reps) == len(W.types)
    assert W.classes.rep_descs is reps
    assert [type_of(G, rep) for rep in reps] == W.types
    assert classes_by_type(G, 5) == list(zip(W.types, reps))


def test_wreath_classes_property_agrees(C2):
    W = wreath_group(C2, 3)
    typed = classes_by_type(C2, 3)
    assert W.classes.num_classes == len(typed)
    for k, (t, rep) in enumerate(typed):
        assert W.classes.class_of_desc(rep) == k
        assert W.classes.sizes[k] == W.order // centralizer_order(C2, t)


# ---------------------------------------------------------------------------
# embeddings and quotients


def test_embed_product_is_a_homomorphism(C2):
    emb = embed_product(C2, 1, 2)
    emb.verify()
    assert emb.is_injective()
    assert emb.dom.order == 2 * 8
    assert emb.cod.order == wreath_group(C2, 3).order


def test_embedding_fuses_types(C2):
    emb = embed_product(C2, 2, 1)
    W2, W1 = wreath_group(C2, 2), wreath_group(C2, 1)
    # product elements are (index-in-W2, index-in-W1) pairs
    for i, x in enumerate(W2.elements):
        for j, y in enumerate(W1.elements):
            z = emb.map_desc((i, j))
            assert type_of(C2, z) == type_of(C2, x) + type_of(C2, y)


@pytest.mark.parametrize("name,n", [("C2", 3), ("S3", 2)])
def test_class_map_of_descriptor_maps(name, n):
    G = catalog_group.__wrapped__(name)   # fresh: no level or map cached
    for f in (quotient_to_symmetric(wreath_group(G, n)),
              embed_product(G, 1, n - 1)):
        assert len(f.class_map) == f.dom.classes.num_classes
        assert_class_map_reads_every_image(f)


def descriptor_embedding(G, n: int, m: int, i: int, j: int) -> WreathElement:
    """The image of (x, y) in G_n x G_m under the block embedding, built
    from the descriptors: parts side by side, y's permutation shifted past
    the first n letters (the oracle for `embed_product`'s index images)."""
    x, y = wreath_group(G, n).elements[i], wreath_group(G, m).elements[j]
    images = tuple(x.perm.images) + tuple(n + k for k in y.perm.images)
    return WreathElement(x.parts + y.parts, Permutation(images))


@pytest.mark.parametrize("name,n,m", [
    *(("C2", n, m) for n in range(5) for m in range(5 - n)),
    *(("S3", n, m) for n in range(4) for m in range(4 - n)),
    ("D8", 1, 1)])
def test_embed_product_images_are_the_descriptor_embedding(name, n, m):
    G = catalog_group(name)
    emb = embed_product(G, n, m)
    amb, Gm = emb.cod, wreath_group(G, m)
    assert len(emb.images) == emb.dom.order
    for x, img in enumerate(emb.images):
        i, j = divmod(x, Gm.order)
        assert img == amb.index_of(descriptor_embedding(G, n, m, i, j))


@pytest.mark.parametrize("name,n", [("C2", 1), ("C2", 3), ("C3", 2),
                                    ("S3", 2), ("D8", 2)])
def test_quotient_images_are_the_permutation_parts(name, n):
    W = wreath_group(catalog_group(name), n)
    q = quotient_to_symmetric(W)
    assert q.images == [q.cod.index_of(x.perm) for x in W.elements]


def test_embed_product_is_cached_per_base_and_levels():
    build = catalog_group.__wrapped__     # fresh groups, not the catalog's
    G, other = build("C2"), build("C2")
    emb = embed_product(G, 1, 2)
    assert embed_product(G, 1, 2) is emb
    assert embed_product(G, 2, 1) is not emb
    assert embed_product(other, 1, 2) is not emb
    # the cache lives on the base: dropping the base drops the embedding
    ref = weakref.ref(emb)
    del G, emb
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("cap", [10, 20])
def test_embed_product_cap_holds_on_cache_hits(monkeypatch, cap):
    # |C2 wr S1 x C2 wr S2| = 16 and |C2 wr S3| = 48: a cap of 10 refuses
    # the product, one of 20 only the ambient level
    G = catalog_group.__wrapped__("C2")
    monkeypatch.setenv(ENV_MAX_ORDER, str(cap))
    with pytest.raises(ResourceLimitError):
        embed_product(G, 1, 2)
    monkeypatch.delenv(ENV_MAX_ORDER)
    emb = embed_product(G, 1, 2)
    monkeypatch.setenv(ENV_MAX_ORDER, str(cap))
    with pytest.raises(ResourceLimitError):
        embed_product(G, 1, 2)
    monkeypatch.setenv(ENV_MAX_ORDER, "48")
    assert embed_product(G, 1, 2) is emb


def test_quotient_to_symmetric(C2):
    W = wreath_group(C2, 3)
    q = quotient_to_symmetric(W)
    q.verify()
    assert q.is_surjective()
    assert q.cod.order == 6
    assert len(q.kernel()) == C2.order ** 3


# ---------------------------------------------------------------------------
# counting


def test_class_count_series_values():
    assert class_count_series(1, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert class_count_series(2, 6) == [1, 2, 5, 10, 20, 36, 65]


@pytest.mark.parametrize("name,k", [("trivial", 1), ("C2", 2), ("S3", 3)])
def test_series_matches_enumeration(name, k):
    G = catalog_group(name)
    series = class_count_series(k, 5)
    counts = [len(classes_by_type(G, n)) for n in range(6)]
    assert counts == series


@pytest.mark.parametrize("k", range(1, 7))
def test_type_count_is_the_enumeration_and_the_series(k):
    counts = _type_counts(k, 10)
    assert counts == [_type_count(k, n) for n in range(11)]
    assert counts == class_count_series(k, 10)
    assert _type_counts(k, 60) == class_count_series(k, 60)


@pytest.mark.parametrize("count", [_type_counts, class_count_series],
                         ids=["_type_counts", "class_count_series"])
def test_class_counts_are_the_partition_numbers(count):
    # p(n), and the partitions of n into 2 and into 3 colors (OEIS A000712,
    # A000716), from tables neither route made
    p = count(1, 100)
    assert (p[50], p[100]) == (204226, 190569292)
    assert count(2, 10) == [1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481]
    assert count(3, 10) == [1, 3, 9, 22, 51, 108, 221, 429, 810, 1479, 2640]


@pytest.mark.parametrize("count", [_type_counts, class_count_series],
                         ids=["_type_counts", "class_count_series"])
@pytest.mark.parametrize("k", [0, -1])
def test_class_counts_need_a_base_class(count, k):
    with pytest.raises(ValueError,
                       match=rf"^num_base_classes must be at least 1, not {k}$"):
        count(k, 3)


def test_classes_sorted_canonically(C2):
    typed = classes_by_type(C2, 3)
    keys = [t.entries for t, _ in typed]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name,top", [("trivial", 9), ("C2", 7), ("C3", 6),
                                      ("C4", 5), ("S3", 5), ("D8", 4),
                                      ("Dic3", 4)])
def test_types_are_generated_in_canonical_order(name, top):
    # types and representatives are built unvalidated, with no final sort
    G = catalog_group(name)
    series = class_count_series(G.classes.num_classes, top)
    for n in range(top + 1):
        typed = classes_by_type(G, n)
        entries = [t.entries for t, _ in typed]
        assert entries == sorted(entries)
        assert len(set(entries)) == len(entries) == series[n]
        for t, rep in typed:
            assert TypeMatrix(t.entries) == t and t.n == n
            assert sorted(rep.perm.images) == list(range(n))
            assert type_of(G, rep) == t


# ---------------------------------------------------------------------------
# columns and inverses from the base group's


def assert_derived_arrays_are_native(W):
    """Every column of a fresh level equals the one made by native wreath
    products, element by element, and the inverse array gives the identity
    on either side under the native product (inverses are unique)."""
    els, index = W.elements, W.index
    for y in range(W.order):
        assert list(W.column(y)) == [index[W._mul_desc(x, els[y])] for x in els]
    inv, mul, e = W._inverse_array(), W._mul_desc, els[0]
    for x, d in enumerate(els):
        assert mul(d, els[inv[x]]) == e and mul(els[inv[x]], d) == e


@pytest.mark.parametrize("name", ["trivial", "C2", "C3", "C4", "S3", "D8"])
def test_wreath_columns_are_the_native_columns(name):
    G = catalog_group(name)
    for n in range(4):
        if G.order ** n * math.factorial(n) <= 200:
            assert_derived_arrays_are_native(WreathGroup(G, n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(perm_groups(max_degree=3), st.integers(0, 3))
def test_wreath_columns_on_random_bases(G, n):
    assume(G.order ** n * math.factorial(n) <= 150)
    assert_derived_arrays_are_native(WreathGroup(G, n))


def test_wreath_tables_and_orbits_make_no_wreath_product(C2):
    def refuse(*args):
        raise AssertionError("a native wreath product was made")

    W = WreathGroup(C2, 3)
    W._mul_desc = refuse
    class_of, _, sizes = conjugation_orbits(W)
    W.cayley_table()
    assert len(sizes) == len(W.types)
    fresh = WreathGroup(C2, 3)
    assert list(class_of) == list(conjugation_orbits(fresh)[0])


@pytest.mark.parametrize("parts", [(0, 0, 0), (0,), (-1, 0), (2, 0)],
                         ids=["longer", "shorter", "negative",
                              "past_the_base"])
def test_level_classifier_refuses_a_non_element_by_name(parts):
    W = WreathGroup(catalog_group("C2"), 2)
    d = WreathElement(parts, Permutation.identity(len(parts)))
    # a class function reads the same classifier
    chi = ClassFunction(W, [0] * W.classes.num_classes)
    shown = f"^{re.escape(repr(d))} is not an element of C2 wr S2$"
    for read in (W.classes.class_of_desc, chi.at_desc):
        with pytest.raises(ValueError, match=shown) as err:
            read(d)
        assert type(err.value) is ValueError


@pytest.mark.parametrize("name, n", [("trivial", 3), ("C2", 3), ("C4", 1),
                                     ("S3", 2), ("Dic3", 2)])
def test_level_index_of_is_the_enumerated_index(name, n, monkeypatch):
    G = catalog_group(name)
    enumerated = WreathGroup(G, n)
    els = enumerated.elements
    ident = Permutation.identity(n)
    bad = [((0,) * (n + 1), ident), ((0,) * (n - 1), ident),
           ((G.order,) + (0,) * (n - 1), ident),
           ((-1,) + (0,) * (n - 1), ident),
           ((0,) * n, Permutation.identity(n + 1)), ((0,) * n, ident.images),
           ((0,) * n, ident, 0), ((0,) * n,), None, 0]

    def refuse(self):
        raise AssertionError(f"{self.label} was enumerated")

    monkeypatch.setattr(WreathGroup, "_enumerate", refuse)
    W = WreathGroup(G, n)
    assert W.classes.reps == enumerated.classes.reps
    assert W.generator_indices == enumerated.generator_indices
    assert [W.index_of(d) for d in els] == [enumerated.index[d] for d in els]
    assert [W.index_of((d.parts, d.perm)) for d in els] == list(range(len(els)))
    for d in bad:
        with pytest.raises(ValueError, match="is not an element"):
            W.index_of(d)
        with pytest.raises(ValueError, match="is not an element"):
            FiniteGroup.index_of(enumerated, d)     # the element dict
    # unhashable descriptors: the element dict raises TypeError on them
    for d in ([(0,) * n, ident], ([0] * n, ident)):
        with pytest.raises(ValueError, match="is not an element"):
            W.index_of(d)


def test_level_index_of_is_refused_above_the_cap(monkeypatch):
    W = WreathGroup(catalog_group("S3"), 3)          # order 1296
    monkeypatch.setenv(ENV_MAX_ORDER, "1000")
    with pytest.raises(ResourceLimitError):
        W.index_of(W.classes.rep_descs[0])


def test_class_level_fock_work_enumerates_no_wreath_element(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self.label} was enumerated")

    monkeypatch.setattr(WreathGroup, "_enumerate", refuse)
    build = catalog_group.__wrapped__     # fresh groups, no cached levels
    for name, top in (("C2", 5), ("S3", 3)):
        G = build(name)
        for n in range(top + 1):
            W = wreath_group(G, n)
            for t, _ in classes_by_type(G, n):
                k = W.class_index_of_type(t)
                assert centralizer_order(G, t) * W.classes.sizes[k] == W.order
            if n:
                assert monomial_value(G, TypeMatrix({(1, 0): n})).support()
        d1, d2 = delta(G, 1, 1), delta(G, 2, 0)
        assert isinstance(fock_product(d1, d2), ClassFunction)
        x = FockElement.generator(G, 1, 0, max_level=top) + \
            FockElement.generator(G, 2, 1, max_level=top)
        assert (x * x).levels
        graded_dimension_series(G, top)
        change_of_basis(G, top)
