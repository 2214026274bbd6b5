import contextlib
import re
from array import array
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_groups import (assert_verify_iff_all_pairs, closure, native_table,
                         perm_groups)
from wreathfock import classfun, groups
from wreathfock.catalog import catalog_group
from wreathfock.classfun import (ClassFunction, external_product, indicator,
                                 indicator_basis, induce, inner_product, one,
                                 pullback_along, restrict, span_rank, zero)
from wreathfock.groups import (ConjugacyClasses, FiniteGroup, Homomorphism,
                               Permutation, _gather, compose_homs,
                               direct_product, hom_from_generator_images,
                               subgroup)
from wreathfock.wreath import embed_product


@pytest.fixture(scope="module")
def c3_in_s3(S3):
    rot = S3.index_of(Permutation.from_cycles(3, [(0, 1, 2)]))
    return subgroup(S3, [0, rot, S3.inv(rot)])


@pytest.fixture(scope="module")
def s2_in_s3(S3):
    t = S3.index_of(Permutation.from_cycles(3, [(0, 1)]))
    return subgroup(S3, [0, t])


def test_values_are_fractions(S3):
    f = ClassFunction(S3, [1, "2/3", Fraction(5, 7)])
    assert f.values == (Fraction(1), Fraction(2, 3), Fraction(5, 7))


def test_length_must_match_class_count(S3):
    with pytest.raises(ValueError):
        ClassFunction(S3, [1, 2])


def test_constant_on_classes(S3):
    f = indicator(S3, 2)
    for x in range(S3.order):
        for g in range(S3.order):
            assert f.at_index(S3.conj(g, x)) == f.at_index(x)


def test_ring_operations(S3):
    e0, e1, e2 = indicator_basis(S3)
    assert e0 + e1 + e2 == one(S3)
    assert e1 * e1 == e1          # indicators are idempotent
    assert e1 * e2 == zero(S3)    # with disjoint support
    assert 2 * e1 - e1 == e1
    assert -e1 + e1 == zero(S3)
    assert Fraction(1, 2) * (e1 + e1) == e1


def test_indicator_inner_products(S3):
    basis = indicator_basis(S3)
    sizes = S3.classes.sizes
    for i, f in enumerate(basis):
        for j, g in enumerate(basis):
            expect = Fraction(sizes[i], S3.order) if i == j else Fraction(0)
            assert inner_product(f, g) == expect


def test_inner_product_of_one_is_one(S3, D12):
    for G in (S3, D12):
        assert inner_product(one(G), one(G)) == 1


def test_span_rank(S3):
    basis = indicator_basis(S3)
    rank, picked = span_rank(basis)
    assert rank == 3 and list(picked) == [0, 1, 2]
    rank, picked = span_rank([basis[0], basis[0], basis[0] + basis[1]])
    assert rank == 2 and list(picked) == [0, 2]


def test_restrict_three_cycle_indicator(S3, c3_in_s3):
    H, incl = c3_in_s3
    f = restrict(indicator(S3, 2), incl)  # 3-cycle class
    assert f.values == (Fraction(0), Fraction(1), Fraction(1))


def test_restrict_requires_injective(S3, C2):
    sgn = hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0])
    with pytest.raises(ValueError):
        restrict(indicator(C2, 1), sgn)


def test_induce_from_cyclic_subgroup(S3, c3_in_s3):
    H, incl = c3_in_s3
    # one generator's worth of 3-cycles induces the whole 3-cycle class
    f = induce(indicator(H, 1), incl)
    assert f == indicator(S3, 2)


def test_induce_from_trivial_is_regular(S3):
    T, incl = subgroup(S3, [0])
    f = induce(one(T), incl)
    assert f.values == (Fraction(6), Fraction(0), Fraction(0))


def test_induce_strategies_agree(S3, D12, c3_in_s3, s2_in_s3):
    cases = [c3_in_s3, s2_in_s3]
    r = D12.index_of(Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)]))
    cases.append(subgroup(D12, [0, D12.mul(r, D12.mul(r, r))]))
    for H, incl in cases:
        for f in indicator_basis(H):
            assert induce(f, incl, strategy="fusion") == \
                induce(f, incl, strategy="elements")


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def random_injections(G, data):
    """A random subgroup's inclusion, and the inclusion conjugated by a
    random element of G."""
    table = native_table(G)
    picks = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    S, incl = subgroup(G, closure(table, picks))
    g = data.draw(st.integers(0, G.order - 1))
    conj = [table[table[g][a]][G.inv(g)] for a in S.elements]
    return S, [incl, Homomorphism(S, G, images=conj)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(perm_groups(), st.data())
def test_induce_by_elements_equals_fusion_on_random_subgroups(G, data):
    S, maps = random_injections(G, data)
    f = ClassFunction(S, data.draw(st.lists(
        fractions, min_size=S.classes.num_classes,
        max_size=S.classes.num_classes)))
    for incl in maps:
        assert induce(f, incl, strategy="elements") == \
            induce(f, incl, strategy="fusion")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perm_groups(), st.data())
def test_induce_by_elements_without_a_table_equals_fusion(G, data):
    S, maps = random_injections(G, data)
    f = ClassFunction(S, data.draw(st.lists(
        fractions, min_size=S.classes.num_classes,
        max_size=S.classes.num_classes)))
    for incl in maps:
        with mock.patch.object(G, "mul", wraps=G.mul) as mul, \
                mock.patch.object(classfun, "conjugates",
                                  wraps=classfun.conjugates) as walks:
            by_elements = induce(f, incl, strategy="elements")
            # one tree walk per G-class, and no product
            assert walks.call_count == G.classes.num_classes
            # and its counts are kept: a second f sweeps nothing
            assert induce(2 * f, incl, strategy="elements") == 2 * by_elements
            assert walks.call_count == G.classes.num_classes
        assert mul.call_count == 0
        assert G._table is None
        assert by_elements == induce(f, incl, strategy="fusion")


CLASS_MAPS = ("class_of", "class_of_index", "class_of_desc")


def refusing_class_maps(G):
    """ConjugacyClasses with the class maps of G's classes made to raise;
    every other group's still work."""
    def guard(name):
        real = ConjugacyClasses.__dict__[name]
        fn = real.fget if isinstance(real, property) else real

        def guarded(self, *args):
            if self.group is G:
                raise AssertionError(f"read the {name} of {G.label}")
            return fn(self, *args)
        return property(guarded) if isinstance(real, property) else guarded

    return [mock.patch.object(ConjugacyClasses, name, guard(name))
            for name in CLASS_MAPS]


def fresh_inclusions():
    """Inclusions between groups built here, in no cache: D8 into S4, and
    the embedding C2 wr S1 x C2 wr S1 -> C2 wr S2."""
    S4 = catalog_group.__wrapped__("S4")
    gens = [S4.index_of(Permutation.from_cycles(4, [c])) for c in
            [(0, 1), (0, 2, 1, 3)]]
    return [subgroup(S4, closure(native_table(S4), gens))[1],
            embed_product(catalog_group.__wrapped__("C2"), 1, 1)]


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("table_limit", [None, 0])
def test_induce_by_elements_reads_no_class_map_of_G(case, table_limit):
    # table_limit 0 refuses every Cayley table: the sweep needs none
    incl = fresh_inclusions()[case]
    H, G = incl.dom, incl.cod
    fs = [ClassFunction(H, [Fraction(j + 1, 2) - k for j in range(
        H.classes.num_classes)]) for k in range(2)]
    with pytest.MonkeyPatch.context() as mp, contextlib.ExitStack() as stack:
        if table_limit is not None:
            mp.setattr(groups, "TABLE_LIMIT", table_limit)
        for patch in refusing_class_maps(G):
            stack.enter_context(patch)
        with pytest.raises(AssertionError):
            G.classes.class_of_index(0)
        by_elements = [induce(f, incl, strategy="elements") for f in fs]
    assert by_elements == [induce(f, incl, strategy="fusion") for f in fs]


def test_induce_by_elements_along_one_inclusion_is_a_fresh_sweep():
    incl = fresh_inclusions()[0]
    H, G = incl.dom, incl.cod
    k = H.classes.num_classes
    for vals in ([1] * k, [Fraction(j, 3) - 1 for j in range(k)],
                 [0] * (k - 1) + [5]):
        f = ClassFunction(H, vals)
        fresh = Homomorphism(H, G, incl.images)
        assert induce(f, incl, strategy="elements") == \
            induce(f, fresh, strategy="elements") == \
            induce(f, incl, strategy="fusion")


def test_inclusions_into_one_group_keep_their_own_counts(C2):
    S4 = catalog_group("S4")
    t = S4.index_of(Permutation.from_cycles(4, [(0, 1)]))
    tt = S4.index_of(Permutation.from_cycles(4, [(0, 1), (2, 3)]))
    maps = [hom_from_generator_images(C2, C2.generator_indices, S4, [x])
            for x in (t, tt)]
    f = indicator(C2, 1)
    by_elements = [induce(f, h, strategy="elements") for h in maps]
    assert by_elements[0] != by_elements[1]
    assert by_elements == [induce(f, h, strategy="fusion") for h in maps]
    assert [induce(f, h, strategy="elements") for h in reversed(maps)] == \
        by_elements[::-1]


def test_induce_by_elements_rejects_a_map_that_is_not_injective(S3, C2):
    sgn = hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0])
    for _ in range(2):
        with pytest.raises(ValueError, match="injective"):
            induce(indicator(S3, 0), sgn, strategy="elements")


@pytest.mark.parametrize("strategy", ["fusion", "elements"])
def test_induce_rejects_a_map_that_is_not_injective(S3, C2, strategy):
    sgn = hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0])
    with pytest.raises(ValueError, match="injective"):
        induce(indicator(S3, 0), sgn, strategy=strategy)


def test_induce_is_linear(S3, s2_in_s3):
    H, incl = s2_in_s3
    e0, e1 = indicator_basis(H)
    lhs = induce(2 * e0 - 3 * e1, incl)
    assert lhs == 2 * induce(e0, incl) - 3 * induce(e1, incl)


def test_induction_in_stages(S3, c3_in_s3):
    H, incl = c3_in_s3
    T, t_in_h = subgroup(H, [0])
    through = compose_homs(incl, t_in_h)
    for f in indicator_basis(T):
        assert induce(induce(f, t_in_h), incl) == induce(f, through)


def test_frobenius_reciprocity_small(S3, c3_in_s3):
    H, incl = c3_in_s3
    for f in indicator_basis(H):
        for g in indicator_basis(S3):
            assert inner_product(induce(f, incl), g) == \
                inner_product(f, restrict(g, incl))


def test_pullback_is_a_ring_map(S3, C2):
    sgn = hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0])
    fs = indicator_basis(C2) + [one(C2), 3 * indicator(C2, 1)]
    for f in fs:
        for g in fs:
            assert pullback_along(f * g, sgn) == \
                pullback_along(f, sgn) * pullback_along(g, sgn)
            assert pullback_along(f + g, sgn) == \
                pullback_along(f, sgn) + pullback_along(g, sgn)
    assert pullback_along(one(C2), sgn) == one(S3)


def test_pullback_of_indicator_is_class_preimage(S3, C2):
    sgn = hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0])
    f = pullback_along(indicator(C2, 1), sgn)
    # transpositions are exactly the odd elements of S3
    assert f == indicator(S3, 1)


def test_external_product_is_kronecker(C2, C3):
    P, *_ = direct_product(C2, C3)
    for i, f in enumerate(indicator_basis(C2)):
        for j, g in enumerate(indicator_basis(C3)):
            assert external_product(f, g, P) == indicator(P, i * 3 + j)


def test_json_round_trip(S3):
    f = ClassFunction(S3, [Fraction(1, 3), Fraction(-2), Fraction(0)])
    doc = f.to_json()
    assert doc["values"] == ["1/3", "-2/1", "0/1"]
    assert ClassFunction.from_json(doc, S3) == f


rational = st.builds(Fraction, st.integers(-6, 6),
                     st.integers(1, 6))


@settings(max_examples=40)
@given(st.lists(rational, min_size=3, max_size=3),
       st.lists(rational, min_size=3, max_size=3), rational)
def test_inner_product_bilinear(a, b, c):
    S3 = catalog_group("S3")
    f, g = ClassFunction(S3, a), ClassFunction(S3, b)
    h = ClassFunction(S3, [1, 1, 0])
    assert inner_product(f + c * g, h) == \
        inner_product(f, h) + c * inner_product(g, h)
    assert inner_product(f, g) == inner_product(g, f)




# ---------------------------------------------------------------------------
# the element route on integers, and its retired sweeps as oracles


def same_inclusion(incl):
    """incl again, with no conjugate counts kept on it."""
    return Homomorphism(incl.dom, incl.cod, incl.images)


def table_conjugates(G):
    """y -> r^-1 y r for every r in G by two whole-row gathers of the
    Cayley table: row y is y*r for every r, and the table read at
    r^-1 * |G| + y*r is r^-1 y r."""
    t, n = G.cayley_table(), G.order
    inv_rows = [i * n for i in G._inverse_array()]     # the offset of row r^-1
    return lambda y: _gather(t, list(map(add, inv_rows, t[y * n:(y + 1) * n])))


def mul_conjugates(G):
    """y -> r^-1 y r for every r in G by 2|G| `G.mul`."""
    mul, inv = G.mul, G._inverse_array()
    return lambda y: [mul(mul(inv[r], y), r) for r in range(G.order)]


def sweep_counts(incl, conjugates_of):
    """`classfun._conjugate_counts` of incl with the conjugates of each
    class representative of G given by conjugates_of."""
    H, G = incl.dom, incl.cod
    h_class = [-1] * G.order
    for a, j in zip(incl.images, H.classes.class_of):
        h_class[a] = j
    counts = [[] for _ in range(H.classes.num_classes)]
    for a, y in enumerate(G.classes.reps):
        hits = Counter(_gather(h_class, conjugates_of(y)))
        hits.pop(-1, None)
        for j, c in hits.items():
            counts[j].append((a, c))
    return counts


def counts_by_every_sweep(maps):
    """The conjugate counts of each inclusion in maps, all into one G, by
    the tree sweep of `classfun._conjugate_counts` (on a fresh copy of the
    inclusion, so no kept counts are read), which builds no Cayley table,
    and then by the two retired sweeps: `G.mul`, and the table rows."""
    G = maps[0].cod
    by_tree = [classfun._conjugate_counts(same_inclusion(m)) for m in maps]
    assert G._table is None
    by_mul = [sweep_counts(m, mul_conjugates(G)) for m in maps]
    by_table = [sweep_counts(m, table_conjugates(G)) for m in maps]
    return by_tree, by_mul, by_table


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perm_groups(), st.data())
def test_table_sweep_counts_equal_the_mul_sweep_on_random_subgroups(G, data):
    S, maps = random_injections(G, data)
    by_tree, by_mul, by_table = counts_by_every_sweep(maps)
    assert by_tree == by_table == by_mul


# the (base, level) slots of the change of basis by elements in the
# benchmark's oracle workload
ORACLE_BASIS_SLOTS = [("trivial", 3), ("C2", 2), ("C2", 3), ("C3", 2),
                      ("C4", 2), ("S3", 2), ("D8", 2)]


@pytest.mark.parametrize("base,n", ORACLE_BASIS_SLOTS)
def test_table_sweep_counts_equal_the_mul_sweep_on_block_embeddings(base, n):
    """Every embedding G_a x G_(m-a) -> G_m, 0 <= a < m <= n, that the
    change of basis of level n induces along, on a fresh base group."""
    G = catalog_group.__wrapped__(base)
    for m in range(1, n + 1):
        by_tree, by_mul, by_table = counts_by_every_sweep(
            [embed_product(G, a, m - a) for a in range(m)])
        assert by_tree == by_table == by_mul


def induce_by_fraction_sums(f, incl):
    """Induction by elements summed in Fractions: each nonzero f_j times
    its counts, added per class of G, and each sum divided by |H|."""
    acc = [Fraction(0)] * incl.cod.classes.num_classes
    for v, pairs in zip(f.values, classfun._conjugate_counts(incl)):
        if v:
            for a, c in pairs:
                acc[a] += v * c
    return ClassFunction(incl.cod, [x / incl.dom.order for x in acc])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perm_groups(), st.data())
def test_induce_by_elements_on_integers_is_the_fraction_sum(G, data):
    S, maps = random_injections(G, data)
    k = S.classes.num_classes
    mixed = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(
        [1, 2, 3, 5, 7, 12, 35, 64]))
    f = ClassFunction(S, data.draw(st.lists(mixed, min_size=k, max_size=k)))
    for incl in maps:
        got = induce(f, incl, strategy="elements")
        assert got == induce_by_fraction_sums(f, incl)
        assert all(type(v) is Fraction for v in got.values)
        assert induce(zero(S), incl, strategy="elements") == \
            induce_by_fraction_sums(zero(S), incl) == zero(G)


def test_induce_by_elements_on_integers_over_mixed_denominators(S3, s2_in_s3):
    T, t_in_s3 = subgroup(S3, [0])
    for H, incl in (s2_in_s3, (T, t_in_s3)):
        for vals in ([Fraction(1, 7), Fraction(-5, 12)], [Fraction(3, 35), 0],
                     [0, 0]):
            f = ClassFunction(H, vals[:H.classes.num_classes])
            assert induce(f, incl, strategy="elements") == \
                induce_by_fraction_sums(f, incl) == \
                induce(f, incl, strategy="fusion")
    assert induce(ClassFunction(T, [Fraction(-5, 12)]), t_in_s3,
                  strategy="elements").values == (Fraction(-5, 2), 0, 0)


@pytest.mark.parametrize("case", [0, 1])
def test_table_sweep_makes_no_product_once_the_table_exists(case):
    # and the tree sweep makes none with or without it
    incl = fresh_inclusions()[case]
    H, G = incl.dom, incl.cod
    G.cayley_table()
    f = ClassFunction(H, [Fraction(j, 3) - 1 for j in range(
        H.classes.num_classes)])
    with mock.patch.object(G, "mul", side_effect=AssertionError("G.mul")), \
            mock.patch.object(G, "_mul_desc",
                              side_effect=AssertionError("native product")):
        by_table = sweep_counts(incl, table_conjugates(G))
        by_elements = induce(f, incl, strategy="elements")
    assert by_table == classfun._conjugate_counts(incl)
    assert by_elements == induce(f, incl, strategy="fusion")


def test_induce_by_elements_above_the_table_limit():
    """S6 < S7, of order 5040 > TABLE_LIMIT: one tree walk per class of
    S7, with no product of S7 and no Cayley table."""
    G = catalog_group.__wrapped__("S7")
    assert G.order > groups.TABLE_LIMIT
    H, incl = subgroup(G, [i for i, p in enumerate(G.elements) if p(6) == 6])
    f = ClassFunction(H, [Fraction(j, 5) - 1 for j in range(
        H.classes.num_classes)])
    by_fusion = induce(f, incl, strategy="fusion")
    with mock.patch.object(G, "mul", side_effect=AssertionError("G.mul")), \
            mock.patch.object(G, "_mul_desc",
                              side_effect=AssertionError("native product")), \
            mock.patch.object(FiniteGroup, "cayley_table",
                              side_effect=AssertionError("Cayley table")):
        assert induce(f, incl, strategy="elements") == by_fusion


def test_a_built_cayley_table_changes_no_answer():
    """With G's table built and then overwritten with wrong entries,
    `verify`, induction by elements, `column` and `mul` answer natively:
    no library code reads the table."""
    incl = fresh_inclusions()[0]
    H, G = incl.dom, incl.cod
    n, table = G.order, native_table(G)
    g, g_inv = 5, G.inv(5)
    inner = Homomorphism(G, G, [table[table[g_inv][x]][g] for x in range(n)])
    swapped = Homomorphism(G, G, [0, 2, 1, *range(3, n)])
    G.cayley_table()
    G._table = array("i", [(x + 1) % n for x in G._table])  # every entry wrong
    for f in (inner, swapped):
        assert_verify_iff_all_pairs(f, table, table)
    f = ClassFunction(H, [Fraction(j, 3) - 1 for j in range(
        H.classes.num_classes)])
    assert induce(f, incl, strategy="elements") == \
        induce(f, incl, strategy="fusion")
    uncached = [s for s in range(n) if s not in G._columns]
    assert uncached
    assert [list(G.column(s)) for s in uncached] == \
        [[row[s] for row in table] for s in uncached]
    assert [[G.mul(a, b) for b in range(n)] for a in range(n)] == table


# ---------------------------------------------------------------------------
# exact values only


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), complex(1, 0),
                                   Decimal("0.1"), None])
def test_inexact_values_are_refused(S3, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        ClassFunction(S3, [value, 1, 2])
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        one(S3) * value
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        value * one(S3)


def test_exact_values_are_taken(S3):
    f = ClassFunction(S3, [True, "0.1", "-3/4"])
    assert f.values == (Fraction(1), Fraction(1, 10), Fraction(-3, 4))
    assert one(S3) * "1/10" == ClassFunction(S3, ["1/10"] * 3)
    with pytest.raises(ValueError, match="abc"):
        ClassFunction(S3, ["abc", 1, 2])


# ---------------------------------------------------------------------------
# external products on their own factors


def test_external_product_refuses_swapped_factors(C2, C3):
    P = direct_product(C3, C2)[0]
    assert P.factors == (C3, C2)
    with pytest.raises(ValueError, match="not the direct product"):
        external_product(one(C2), one(C3), P)
    assert external_product(one(C3), one(C2), P) == one(P)


def test_external_product_compares_factors_by_identity(C2, C3, D12):
    # a product of another C2, and a group with C2 x C3's class count
    # that is no direct product
    for P in (direct_product(catalog_group.__wrapped__("C2"), C3)[0], D12):
        assert P.classes.num_classes == 6
        with pytest.raises(ValueError, match="not the direct product"):
            external_product(one(C2), one(C3), P)
