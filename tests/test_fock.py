import contextlib
import functools
import inspect
import io
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_groups import perm_groups
from type_walk_oracle import _colored_partitions, split_type
from wreathfock import catalog, fock, ratlinalg
from wreathfock.catalog import catalog_group
from wreathfock.cli import main
from wreathfock.classfun import (ClassFunction, indicator,
                                indicator_basis, one)
from wreathfock.fock import (FockElement, change_of_basis, delta,
                             fock_product, graded_dimension_series,
                             kunneth_generator_identity,
                             module_action_over_sym, monomial_value)
from wreathfock.groups import ENV_MAX_ORDER, ResourceLimitError, direct_product
from wreathfock.pullback import n_cycle_classes_closed
from wreathfock.wreath import (TypeMatrix, WreathElement, WreathGroup,
                               _level, centralizer_order, classes_by_type,
                               type_of, wreath_group)

# ---------------------------------------------------------------------------
# the fusion product


def test_unit_level_acts_trivially(C2):
    u = one(wreath_group(C2, 0))
    for f in indicator_basis(wreath_group(C2, 2)):
        assert fock_product(u, f) == f
        assert fock_product(f, u) == f


def test_product_is_commutative(C2):
    W1 = wreath_group(C2, 1)
    for f in indicator_basis(W1):
        for g in indicator_basis(W1):
            assert fock_product(f, g) == fock_product(g, f)


def test_product_is_associative(C3):
    a, b, c = delta(C3, 1, 0), delta(C3, 1, 1), delta(C3, 1, 2)
    assert fock_product(fock_product(a, b), c) == \
        fock_product(a, fock_product(b, c))


def test_product_is_bilinear(C2):
    W1 = wreath_group(C2, 1)
    e0, e1 = indicator_basis(W1)
    g = delta(C2, 1, 1)
    assert fock_product(2 * e0 + 3 * e1, g) == \
        2 * fock_product(e0, g) + 3 * fock_product(e1, g)


def test_disjoint_cycle_indicators_multiply_to_one(C2):
    # delta(1,0) * delta(1,1) is the indicator of the mixed-color class
    f = fock_product(delta(C2, 1, 0), delta(C2, 1, 1))
    W2 = wreath_group(C2, 2)
    mixed = W2.class_index_of_type(TypeMatrix({(1, 0): 1, (1, 1): 1}))
    assert f == indicator_basis(W2)[mixed]


@pytest.mark.parametrize("name,n,m", [("C2", 1, 1), ("C2", 1, 2),
                                      ("C3", 1, 1), ("S3", 1, 1)])
def test_fusion_agrees_with_element_sums(name, n, m):
    G = catalog_group(name)
    for f in indicator_basis(wreath_group(G, n)):
        for g in indicator_basis(wreath_group(G, m)):
            assert fock_product(f, g, strategy="fusion") == \
                fock_product(f, g, strategy="elements")


def test_unknown_strategy_rejected(C2):
    f = delta(C2, 1, 0)
    with pytest.raises(ValueError):
        fock_product(f, f, strategy="magic")


@pytest.mark.parametrize("bases, levels, shown", [
    (("S3", "S3"), (None, 1), "expected a class function on a wreath product"),
    (("S3", "S3"), (1, None), "expected a class function on a wreath product"),
    (("C2", "C3"), (1, 1), "factors live over different base groups"),
], ids=["first-off-a-level", "second-off-a-level", "two-bases"])
def test_fock_product_refuses_factors_off_one_base_by_name(bases, levels,
                                                           shown):
    f, g = (one(catalog_group(b) if n is None else _level(catalog_group(b), n))
            for b, n in zip(bases, levels))
    with pytest.raises(ValueError, match=f"^{shown}$") as err:
        fock_product(f, g)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("n", [0, 1, 2])
def test_change_of_basis_rejects_an_unknown_strategy_up_front(n):
    G = catalog_group.__wrapped__("C2")     # fresh: no level built yet
    with pytest.raises(ValueError, match="^unknown strategy: magic$"):
        change_of_basis(G, n, strategy="magic")
    assert "_wreath_levels" not in G.__dict__


# ---------------------------------------------------------------------------
# generators and monomial bases


@pytest.mark.parametrize("n,c", [(2, 2), (1, -1), (0, 0), (-1, 1)])
def test_delta_names_a_generator_outside_the_base(C2, n, c):
    message = f"^no {n}-cycle generator of class {c} in C2$"
    with pytest.raises(ValueError, match=message):
        delta(C2, n, c)
    with pytest.raises(ValueError, match=message):
        FockElement.generator(C2, n, c)


def test_delta_is_single_cycle_indicator(C4):
    f = delta(C4, 3, 2)
    W = wreath_group(C4, 3)
    assert f.group is W
    assert f.support() == [W.class_index_of_type(TypeMatrix.single(3, 2))]
    assert set(f.values) == {Fraction(0), Fraction(1)}


def test_trivial_base_change_of_basis():
    t = catalog_group("trivial")
    rows, types = change_of_basis(t, 2)
    assert [e.entries for e in types] == [((1, 0, 2),), ((2, 0, 1),)]
    assert rows == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_monomial_value_at_identity_type(C2):
    # the squared 1-cycle generator counts ordered decompositions
    mu = TypeMatrix({(1, 0): 2})
    f = monomial_value(C2, mu)
    W2 = wreath_group(C2, 2)
    k = W2.class_index_of_type(mu)
    assert f.at_class(k) == 2


def test_change_of_basis_c2_determinants(C2):
    dets = []
    for n in (1, 2, 3):
        rows, types = change_of_basis(C2, n)
        assert len(rows) == len(types) == len(classes_by_type(C2, n))
        dets.append(ratlinalg.det(rows))
    assert all(d != 0 for d in dets)
    assert dets[2] == 144


def test_change_of_basis_strategies_agree(C2):
    a, _ = change_of_basis(C2, 2, strategy="fusion")
    b, _ = change_of_basis(C2, 2, strategy="elements")
    assert a == b


# ---------------------------------------------------------------------------
# symmetric-group action and the Kunneth identity


def sym_level(n: int):
    """S_n as the level trivial wr S_n: its classes are the partitions of n."""
    return _level(catalog_group("trivial"), n)


def cycle_shape(t: TypeMatrix) -> list[int]:
    return sorted(r for r, _, m in t.entries for _ in range(m))


def test_module_action(C2):
    W = wreath_group(C2, 3)
    x = one(W)
    S3 = sym_level(3)
    f = one(S3)
    assert module_action_over_sym(f, x) == x
    e1 = indicator(S3, S3.class_index_of_type(TypeMatrix([(1, 0, 1),
                                                          (2, 0, 1)])))
    acted = module_action_over_sym(e1, x)
    # supported exactly on classes whose permutation part is a transposition
    q_types = [t for t, _ in classes_by_type(C2, 3)]
    for k, t in enumerate(q_types):
        expect = Fraction(1) if cycle_shape(t) == [1, 2] else Fraction(0)
        assert acted.at_class(k) == expect


def test_module_action_stays_class_level(monkeypatch):
    # C2 wr S4 has 384 elements: above the cap, and none may be laid out
    G = catalog_group.__wrapped__("C2")     # fresh: no level laid out yet
    monkeypatch.setenv(ENV_MAX_ORDER, "50")
    S4 = sym_level(4)
    W = _level(G, 4)
    shape = {k: cycle_shape(t) for k, t in enumerate(S4.types)}
    with no_wreath_elements():
        for k, e in enumerate(indicator_basis(S4)):
            acted = module_action_over_sym(e, one(W))
            for c, t in enumerate(W.types):
                assert acted.at_class(c) == int(cycle_shape(t) == shape[k])


def test_module_action_requires_symmetric_argument(C2):
    W = wreath_group(C2, 2)
    with pytest.raises(ValueError):
        module_action_over_sym(one(W), one(W))
    with pytest.raises(ValueError):
        module_action_over_sym(one(sym_level(3)), one(W))


def action_through_catalog_sym(g: ClassFunction, x: ClassFunction):
    """The oracle: g on catalog_group("S{n}"), read at the permutation of
    each class representative of x's level, times x."""
    W = x.group
    class_of = catalog_group(f"S{W.n}").classes.class_of_desc
    return ClassFunction(W, [g.values[class_of(r.perm)]
                             for r in W.classes.rep_descs]) * x


def by_cycle_shape(g: ClassFunction, n: int) -> ClassFunction:
    """g on catalog S_n carried to trivial wr S_n by cycle shape."""
    S = sym_level(n)
    class_of = g.group.classes.class_of_desc
    return ClassFunction(S, [g.values[class_of(r.perm)]
                             for r in S.classes.rep_descs])


def assert_action_is_the_catalog_route(G, n: int, x_values, g_values):
    W = _level(G, n)
    x = ClassFunction(W, x_values)
    g = ClassFunction(catalog_group(f"S{n}"), g_values)
    assert module_action_over_sym(by_cycle_shape(g, n), x) == \
        action_through_catalog_sym(g, x)


@pytest.mark.parametrize("name", ["trivial", "C2", "C3", "S3"])
@pytest.mark.parametrize("n", range(1, 6))
def test_module_action_is_the_catalog_sym_route(name, n):
    G = catalog_group(name)
    k = _level(G, n).classes.num_classes
    x_values = [i + 1 for i in range(k)]
    for e in indicator_basis(catalog_group(f"S{n}")):
        assert_action_is_the_catalog_route(G, n, x_values, e.values)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm_groups(max_degree=3), st.integers(1, 5), st.data())
def test_module_action_is_the_catalog_sym_route_on_random_bases(G, n, data):
    def values(k):
        return data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))

    assert_action_is_the_catalog_route(
        G, n, values(_level(G, n).classes.num_classes),
        values(catalog_group(f"S{n}").classes.num_classes))


def test_module_action_at_level_12_runs_under_a_cap_of_50(monkeypatch):
    monkeypatch.setenv(ENV_MAX_ORDER, "50")
    G = catalog_group.__wrapped__("C2")     # fresh: no level laid out yet
    S12, W = sym_level(12), _level(G, 12)
    cycle = S12.class_index_of_type(TypeMatrix.single(12, 0))
    with no_wreath_elements():
        acted = module_action_over_sym(indicator(S12, cycle), one(W))
    assert acted.support() == [W.class_index_of_type(TypeMatrix.single(12, c))
                               for c in (0, 1)]


def split_rep(P, side: int, x: WreathElement) -> WreathElement:
    """The G- (side 0) or H-coordinate (side 1) of an element of
    (G x H) wr S_n, P = G x H."""
    pairs = P.elements
    return WreathElement(tuple(pairs[p][side] for p in x.parts), x.perm)


def kunneth_sides_by_splitting(G, H, n: int, c: int, d: int):
    """Both sides of the Künneth generator identity as class functions on
    (G x H) wr S_n, the left one evaluated on class representatives split
    into their G- and H-coordinates: the element route that the type
    projection replaces."""
    P = direct_product(G, H)[0]
    Pn = wreath_group(P, n)
    dG, dH = delta(G, n, c), delta(H, n, d)
    lhs = [dG.at_desc(split_rep(P, 0, rep)) * dH.at_desc(split_rep(P, 1, rep))
           for rep in Pn.classes.rep_descs]
    return ClassFunction(Pn, lhs), delta(P, n, c * H.classes.num_classes + d)


@pytest.mark.parametrize("n", [1, 2])
def test_kunneth_generator_identity_holds(C2, C3, n):
    for c in range(2):
        for d in range(3):
            lhs, rhs = kunneth_sides_by_splitting(C2, C3, n, c, d)
            assert lhs == rhs
            assert kunneth_generator_identity(C2, C3, n, c, d) is True


def test_kunneth_rejects_a_class_outside_the_bases(C2, C3):
    with pytest.raises(ValueError):
        kunneth_generator_identity(C2, C3, 1, 2, 0)
    with pytest.raises(ValueError):
        kunneth_generator_identity(C2, C3, 1, 0, 3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(perm_groups(max_degree=3), perm_groups(max_degree=3), st.integers(1, 2))
def test_type_projection_is_the_split_of_representatives(G, H, n):
    # split_type on every class of (G x H) wr S_n against the types of the
    # split representatives, and the verdicts against the split route
    assume((G.order * H.order) ** n * math.factorial(n) <= 800)
    P = direct_product(G, H)[0]
    Pn = wreath_group(P, n)
    kH = H.classes.num_classes
    for t, rep in zip(Pn.types, Pn.classes.rep_descs):
        assert split_type(t, kH) == (type_of(G, split_rep(P, 0, rep)),
                                     type_of(H, split_rep(P, 1, rep)))
    for c in range(G.classes.num_classes):
        for d in range(kH):
            lhs, rhs = kunneth_sides_by_splitting(G, H, n, c, d)
            assert kunneth_generator_identity(G, H, n, c, d) == (lhs == rhs)


def test_graded_dimension_series(S3):
    counts, series = graded_dimension_series(S3, 6)
    assert counts == series == [1, 3, 9, 22, 51, 108, 221]


def test_graded_dimension_series_builds_no_type():
    def refuse(*args):
        raise AssertionError("a type was built")

    G = catalog_group("Dic3")
    G.classes.centralizer_orders        # the base's class data, made before
    tracemalloc.start()
    try:
        with mock.patch.object(TypeMatrix, "__init__", refuse), \
                mock.patch.object(TypeMatrix, "_unchecked", refuse):
            counts, series = graded_dimension_series(G, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == series == [1, 6, 27, 98, 315, 918, 2492, 6372, 15525,
                                36280, 81816, 178794, 380051]
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# graded elements


def test_fock_element_unit_and_generators(C2):
    u = FockElement.unit(C2)
    x = FockElement.generator(C2, 1, 0)
    assert u * x == x
    assert (x + x).level(1) == 2 * delta(C2, 1, 0)
    assert x * x == FockElement(C2, {2: fock_product(delta(C2, 1, 0),
                                                     delta(C2, 1, 0))})


def test_fock_element_truncation(C2):
    x = FockElement.generator(C2, 2, 1, max_level=3)
    assert (x * x).levels == {}  # level 4 exceeds the cap
    y = FockElement.generator(C2, 1, 0, max_level=3)
    assert set((x * y).levels) == {3}


def test_fock_element_scalar_and_zero(C2):
    x = FockElement.generator(C2, 1, 1)
    assert (0 * x).levels == {}
    assert (Fraction(1, 2) * x).level(1) == Fraction(1, 2) * delta(C2, 1, 1)


def test_fock_element_mixed_bases_rejected(C2, C3):
    with pytest.raises(ValueError):
        FockElement.unit(C2) + FockElement.unit(C3)


def test_fock_element_rejects_a_level_of_another_degree_or_base(C2, C3):
    with pytest.raises(ValueError, match="^level 1 over C2 given a class "
                                         "function on C2 wr S2$"):
        FockElement(C2, {1: delta(C2, 2, 0)})
    with pytest.raises(ValueError, match="^level 2 over C2 given a class "
                                         "function on C3 wr S2$"):
        FockElement(C2, {2: delta(C3, 2, 0)})
    with pytest.raises(ValueError, match="on S3$"):
        FockElement(C2, {0: one(catalog_group("S3"))})
    # a level above the truncation is checked before it is dropped
    with pytest.raises(ValueError):
        FockElement(C2, {5: delta(C2, 2, 0)}, max_level=3)
    assert FockElement(C2, {2: delta(C2, 2, 0)}).level(2) == delta(C2, 2, 0)


def test_fock_element_json(C2):
    x = FockElement.generator(C2, 1, 0) + FockElement.unit(C2)
    doc = x.to_json()
    assert doc["group"] == "C2"
    assert set(doc["levels"]) == {"0", "1"}


def test_fock_element_commutative_ring(C2):
    a = FockElement.generator(C2, 1, 0)
    b = FockElement.generator(C2, 1, 1)
    c = FockElement.generator(C2, 2, 0)
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# the fusion product against a dense loop and against element sums
#
# The fusion product visits only the supports of its factors; the oracles
# below visit every pair of classes, or every element of the ambient level.

# the highest ambient level used per base
TOPS = {"trivial": 7, "C2": 5, "C3": 4, "S3": 3}
# ambient levels whose element-sum induction takes well under a second
ELEMENT_TOPS = {"trivial": 4, "C2": 3, "C3": 2, "S3": 2}


def fused(t1: TypeMatrix, t2: TypeMatrix) -> TypeMatrix:
    """t1 + t2 by counting, independently of `TypeMatrix.__add__`."""
    counts = Counter()
    for t in (t1, t2):
        for r, c, m in t.entries:
            counts[(r, c)] += m
    return TypeMatrix(dict(counts))


def dense_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """The fusion product as a dense loop over every pair of classes."""
    Gn, Gm = f.group, g.group
    amb = wreath_group(Gn.base, Gn.n + Gm.n)
    acc = [Fraction(0)] * amb.classes.num_classes
    for j1, t1 in enumerate(Gn.types):
        c1 = Gn.order // Gn.classes.sizes[j1]
        for j2, t2 in enumerate(Gm.types):
            c2 = Gm.order // Gm.classes.sizes[j2]
            k = amb.class_index_of_type(fused(t1, t2))
            acc[k] += f.values[j1] * g.values[j2] / (c1 * c2)
    return ClassFunction(amb, [amb.order // size * x
                               for size, x in zip(amb.classes.sizes, acc)])


values = st.fractions(min_value=-5, max_value=5,
                      max_denominator=6).filter(bool)


def sparse_function(data, G, n: int) -> ClassFunction:
    """A class function on G wr S_n with a random nonempty support and
    random nonzero rational values on it."""
    W = wreath_group(G, n)
    k = W.classes.num_classes
    support = data.draw(st.sets(st.integers(0, k - 1), min_size=1,
                                max_size=min(k, 4)))
    vals = [Fraction(0)] * k
    for j in support:
        vals[j] = data.draw(values)
    return ClassFunction(W, vals)


def draw_factors(data, tops, lowest: int):
    """Factors at levels n and m with n, m >= lowest and n + m <= the top
    of a random base."""
    name = data.draw(st.sampled_from(sorted(tops)))
    G = catalog_group(name)
    total = data.draw(st.integers(2 * lowest, tops[name]))
    n = data.draw(st.integers(lowest, total - lowest))
    return sparse_function(data, G, n), sparse_function(data, G, total - n)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_fusion_equals_dense_loop(data):
    f, g = draw_factors(data, TOPS, 0)
    got = fock_product(f, g)
    assert got == dense_product(f, g)
    assert all(isinstance(v, Fraction) for v in got.values)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.data())
def test_fusion_equals_element_sums(data):
    f, g = draw_factors(data, ELEMENT_TOPS, 1)
    assert fock_product(f, g) == fock_product(f, g, strategy="elements")


def test_fusion_of_zero_is_zero():
    C2 = catalog_group("C2")
    W1, W2 = wreath_group(C2, 1), wreath_group(C2, 2)
    f = ClassFunction(W1, [0, 3])
    z = ClassFunction(W1, [0, 0])
    assert fock_product(f, z) == ClassFunction(W2, [0] * 5)


# ---------------------------------------------------------------------------
# the change of basis against its closed form


@pytest.mark.parametrize("name,top", [("C2", 6), ("S3", 4), ("D8", 4),
                                      ("Dic3", 3)])
def test_change_of_basis_is_diagonal_factorials(name, top):
    G = catalog_group(name)
    for n in range(top + 1):
        rows, types = change_of_basis(G, n)
        assert types == [t for t, _ in classes_by_type(G, n)]
        for i, t in enumerate(types):
            weight = math.prod(math.factorial(m) for _, _, m in t.entries)
            assert rows[i] == [weight if j == i else 0
                               for j in range(len(types))]


# ---------------------------------------------------------------------------
# the change of basis on weighted supports against the product chain

# the top levels of the fock-levels benchmark workload
BASIS_TOPS = {"trivial": 8, "C2": 6, "C3": 5, "C4": 5, "S3": 4, "D8": 4,
              "Dic3": 3}


def product_chain(G, n: int):
    """The change of basis as dense `fock_product` chains: each row is the
    unit times its generators in entry order, one class function per
    step.  Returns (rows, types)."""
    types = [t for t, _ in classes_by_type(G, n)]
    rows = []
    for t in types:
        f = one(wreath_group(G, 0))
        for r, c, m in t.entries:
            for _ in range(m):
                f = fock_product(f, delta(G, r, c))
        rows.append(list(f.values))
    return rows, types


@contextlib.contextmanager
def no_wreath_elements():
    """Make every element-level array of a wreath level raise: each one
    starts at `_enumerate` or `_slot_perms`."""
    def refuse(self):
        raise AssertionError(f"{self.label} laid out its elements")

    with mock.patch.object(WreathGroup, "_enumerate", refuse), \
            mock.patch.object(WreathGroup, "_slot_perms", property(refuse)):
        yield


def assert_basis_is_the_chain(G, n: int):
    rows, types = change_of_basis(G, n)
    assert (rows, types) == product_chain(G, n)
    assert rows == [list(monomial_value(G, t).values) for t in types]
    assert all(type(x) is Fraction for row in rows for x in row)


@pytest.mark.parametrize("name,top", sorted(BASIS_TOPS.items()))
def test_change_of_basis_rows_hold_one_column_each(name, top):
    rows, types = change_of_basis(catalog_group(name), top)
    assert all(isinstance(row, ratlinalg.SparseRow)
               and len(row) == len(types) for row in rows)
    assert [list(row.support) for row in rows] == [[i] for i in
                                                   range(len(types))]


@pytest.mark.parametrize("name,top", sorted(BASIS_TOPS.items()))
def test_change_of_basis_is_the_product_chain(name, top):
    G = catalog_group.__wrapped__(name)     # fresh: no level laid out yet
    with no_wreath_elements():
        for n in range(top + 1):
            assert_basis_is_the_chain(G, n)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm_groups(max_degree=4), st.integers(0, 4))
def test_change_of_basis_is_the_product_chain_on_random_bases(G, n):
    assume(len(classes_by_type(G, n)) <= 60)
    with no_wreath_elements():
        assert_basis_is_the_chain(G, n)


# ---------------------------------------------------------------------------
# the closed-form monomial against the product chain


@pytest.mark.parametrize("name,top", [("trivial", 6), ("C2", 5), ("C3", 4),
                                      ("S3", 4), ("D8", 3)])
def test_monomial_closed_form_is_the_product_chain(name, top):
    G = catalog_group(name)
    for n in range(top + 1):
        rows, types = change_of_basis(G, n)
        assert [list(monomial_value(G, t).values) for t in types] == rows
        if n in range(1, ELEMENT_TOPS.get(name, 2) + 1):
            oracle, _ = change_of_basis(G, n, strategy="elements")
            assert oracle == rows


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm_groups(max_degree=3), st.integers(0, 3))
def test_monomial_closed_form_on_random_bases(G, n):
    assume(len(classes_by_type(G, n)) <= 40)
    rows, types = change_of_basis(G, n)
    assert [list(monomial_value(G, t).values) for t in types] == rows
    if n and G.order ** n * math.factorial(n) <= 150:
        assert change_of_basis(G, n, strategy="elements")[0] == rows


@pytest.mark.parametrize("name,n", [("trivial", 3), ("C2", 3), ("D8", 2)])
def test_change_of_basis_by_elements_makes_one_product_per_prefix(name, n):
    G = catalog_group(name)
    types = [t for t, _ in classes_by_type(G, n)]
    prefixes = set()
    for t in types:
        gens = [(r, c) for r, c, m in t.entries for _ in range(m)]
        prefixes.update(tuple(gens[:i]) for i in range(1, len(gens) + 1))
    with mock.patch.object(fock, "fock_product", wraps=fock_product) as product:
        rows, got = change_of_basis(G, n, strategy="elements")
    assert got == types
    assert product.call_count == len(prefixes)
    assert all(call.kwargs == {"strategy": "elements"}
               for call in product.call_args_list)
    assert rows == change_of_basis(G, n)[0]


def prefix_folds_by_dict(types, start, step) -> list:
    """`fock._prefix_folds` through a dict of generator-tuple prefixes,
    which needs no order on the types: the walk the stack replaced."""
    folds = {(): start}
    out = []
    for t in types:
        gens = tuple((r, c) for r, c, m in t.entries for _ in range(m))
        i = len(gens)
        while gens[:i] not in folds:
            i -= 1
        acc = folds[gens[:i]]
        for i in range(i, len(gens)):
            acc = folds[gens[:i + 1]] = step(acc, gens[i])
        out.append(acc)
    return out


def distinct_prefixes(types) -> set:
    prefixes = set()
    for t in types:
        gens = [(r, c) for r, c, m in t.entries for _ in range(m)]
        prefixes.update(tuple(gens[:i]) for i in range(1, len(gens) + 1))
    return prefixes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 6))
def test_prefix_folds_on_a_stack_are_the_dict_walk(k, n):
    types = _colored_partitions(k, n)
    calls = {"stack": [], "dict": []}

    def stepper(log):
        def step(acc, g):
            log.append(acc + (g,))
            return acc + (g,)
        return step

    got = fock._prefix_folds(types, (), stepper(calls["stack"]))
    assert got == prefix_folds_by_dict(types, (), stepper(calls["dict"]))
    assert got == [tuple((r, c) for r, c, m in t.entries for _ in range(m))
                   for t in types]
    assert sorted(calls["stack"]) == sorted(calls["dict"])
    assert set(calls["stack"]) == distinct_prefixes(types)
    assert len(calls["stack"]) == len(distinct_prefixes(types))


def test_change_of_basis_by_fusion_fuses_once_per_prefix():
    total = 0
    for name, n in sorted(BASIS_TOPS.items()):
        G = catalog_group(name)
        types = [t for t, _ in classes_by_type(G, n)]
        with mock.patch.object(fock, "_fuse", wraps=fock._fuse) as fuse:
            rows, got = change_of_basis(G, n)
        assert got == types
        assert fuse.call_count == len(distinct_prefixes(types))
        total += fuse.call_count
    assert total == 1088


def test_change_of_basis_by_fusion_builds_no_class_function():
    def refuse(*args, **kwargs):
        raise AssertionError("a class function was built")

    for name, n in sorted(BASIS_TOPS.items()):
        monomials = [list(monomial_value(catalog_group(name), t).values)
                     for t, _ in classes_by_type(catalog_group(name), n)]
        G = catalog_group.__wrapped__(name)     # fresh: levels built below
        with mock.patch.object(fock, "delta", refuse), \
                mock.patch.object(fock, "one", refuse), \
                mock.patch.object(ClassFunction, "__init__", refuse):
            rows, types = change_of_basis(G, n)
        assert rows == monomials
        assert [t.entries for t in types] == \
            [t.entries for t, _ in classes_by_type(catalog_group(name), n)]


# catalog bases of one to six classes, abelian and not
SUPPORT_BASES = ["trivial", "C2", "C3", "C4", "S3", "D8", "D12", "Dic3", "S4"]


@pytest.mark.parametrize("name", SUPPORT_BASES)
def test_generator_supports_read_off_types_are_the_deltas(name):
    G = catalog_group(name)
    assert fock._support(one(wreath_group(G, 0))) == (1, [((), 1)])
    for r in range(1, 5):
        for c in range(G.classes.num_classes):
            assert fock._support(delta(G, r, c)) == \
                (1, fock._generator_support(r, c))


# ---------------------------------------------------------------------------
# class-level work above the element cap


def assert_elements_refused(W):
    with pytest.raises(ResourceLimitError):
        W.elements
    with pytest.raises(ResourceLimitError):
        W.column(1)
    with pytest.raises(ResourceLimitError):
        W._inverse_array()


def test_class_level_fock_work_runs_above_the_element_cap(monkeypatch):
    build = catalog_group.__wrapped__     # fresh groups, no cached levels
    other = build("C2")
    monkeypatch.setenv(ENV_MAX_ORDER, "50")
    for name, top in (("C2", 5), ("S3", 3)):
        G = build(name)
        for n in range(top + 1):
            rows, types = change_of_basis(G, n)
            assert [list(monomial_value(G, t).values) for t in types] == rows
            if n >= 2:
                f = fock_product(delta(G, 1, 1), delta(G, n - 1, 0))
                assert f.group.n == n and f.support()
            if n:
                for c in range(G.classes.num_classes):
                    assert kunneth_generator_identity(G, other, n, c, 1)
                assert all(closed for _, _, closed
                           in n_cycle_classes_closed(G, other, n))
            order = G.order ** n * math.factorial(n)
            if order > 50:
                refusal = f"|{name} wr S{n}| = {order} exceeds the element cap 50"
                with pytest.raises(ResourceLimitError, match=re.escape(refusal)):
                    wreath_group(G, n)
                assert_elements_refused(delta(G, n, 0).group)
                assert_elements_refused(WreathGroup(G, n))
        x = FockElement.generator(G, 1, 0, max_level=top) + \
            FockElement.generator(G, 2, 1, max_level=top)
        square = x * x
        assert set(square.levels) == {2, 3, 4} & set(range(top + 1))
        assert square.level(2) == fock_product(delta(G, 1, 0), delta(G, 1, 0))


def cli_output(*argv):
    """A CLI command as a class-level call: its stdout."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        return out.getvalue()
    return run


# Every public class-level function, and the CLI commands made of them.  A
# new class-level function joins this list.  Each entry looks its groups up
# when called, so under the patch below it reads a fresh catalog.
C = catalog_group
CLASS_LEVEL = {
    "monomial_value": lambda: monomial_value(
        C("C2"), TypeMatrix([(1, 0, 2), (2, 1, 2)])).values,
    "fock_product": lambda: fock_product(delta(C("S3"), 2, 1),
                                         delta(C("S3"), 3, 2)).values,
    "delta": lambda: delta(C("C3"), 5, 2).values,
    "change_of_basis": lambda: change_of_basis(C("C2"), 5),
    "classes_by_type": lambda: [(t, r.parts, r.perm)
                                for t, r in classes_by_type(C("C3"), 4)],
    "centralizer_order": lambda: [centralizer_order(C("S3"), t)
                                  for t in _level(C("S3"), 5).types],
    "n_cycle_classes_closed": lambda: n_cycle_classes_closed(
        C("S3"), C("C2"), 5),
    "kunneth_generator_identity": lambda: [
        kunneth_generator_identity(C("C2"), C("C3"), 5, c, d)
        for c in range(2) for d in range(3)],
    "graded_dimension_series": lambda: graded_dimension_series(C("S3"), 8),
    "module_action_over_sym": lambda: module_action_over_sym(
        indicator(sym_level(6), 3), one(_level(C("C2"), 6))).values,
    "wreath classes": cli_output("wreath", "classes", "C2", "6"),
    "fock basis": cli_output("fock", "basis", "C2", "--level", "6",
                             "--max-level", "6"),
    "fock product": cli_output("fock", "product", "S3", "--monomial",
                               "[[1,0,2],[2,1,1]]"),
    "fock kunneth": cli_output("fock", "kunneth", "C2", "C3",
                               "--max-level", "3"),
}


def test_class_level_inventory_lays_out_no_wreath_element(monkeypatch):
    public = {name for name, f in vars(fock).items()
              if inspect.isfunction(f) and f.__module__ == fock.__name__
              and not name.startswith("_")}
    assert public <= set(CLASS_LEVEL)
    expected = {name: run() for name, run in CLASS_LEVEL.items()}
    # a fresh catalog, so no level was laid out before the patch; every
    # level used is above the cap
    monkeypatch.setattr(catalog, "_build_catalog_group", functools.cache(
        catalog._build_catalog_group.__wrapped__))
    monkeypatch.setenv(ENV_MAX_ORDER, "50")
    with no_wreath_elements():
        for name, run in CLASS_LEVEL.items():
            assert run() == expected[name], name
