from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wreathfock import groups
from wreathfock.catalog import catalog_group
from wreathfock.groups import (FiniteGroup, Homomorphism,
                               NotAHomomorphismError, NotASubgroupError,
                               Permutation, ResourceLimitError, centralizer,
                               check_group_axioms, compose_homs,
                               conjugation_orbits, direct_product,
                               group_from_permutation_generators,
                               hom_from_generator_images, subgroup)
from wreathfock.wreath import WreathGroup, wreath_group

# ---------------------------------------------------------------------------
# permutations


def test_permutation_compose_and_invert():
    p = Permutation.from_cycles(4, [(0, 1, 2)])
    q = Permutation.from_cycles(4, [(2, 3)])
    # (p*q)(i) = p(q(i))
    assert (p * q)(2) == p(3)
    assert (p * p.inverse()).is_identity()
    assert p ** 3 == Permutation.identity(4)
    assert p ** -1 == p.inverse()


def test_permutation_cycles_and_sign():
    p = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert p.cycles() == ((0, 1), (2, 3, 4))
    assert p.sign() == -1  # transposition odd, 3-cycle even
    assert Permutation.from_cycles(3, [(0, 1)]).sign() == -1
    assert Permutation.identity(3).cycles() == ((0,), (1,), (2,))


def test_permute_moves_position_i_to_pi():
    p = Permutation.from_cycles(3, [(0, 1, 2)])
    assert p.permute(("a", "b", "c")) == ("c", "a", "b")


perms4 = st.permutations(range(4)).map(lambda im: Permutation(tuple(im)))


@given(perms4, perms4, perms4)
def test_permutation_group_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert (p * q).sign() == p.sign() * q.sign()


@given(perms4, st.lists(st.integers(0, 9), min_size=4, max_size=4))
def test_permute_is_an_action(p, seq):
    # permuting by p then q == permuting by q*p
    q = Permutation.from_cycles(4, [(0, 3)])
    assert q.permute(p.permute(seq)) == (q * p).permute(seq)


# ---------------------------------------------------------------------------
# enumerated groups


def test_identity_is_index_zero_everywhere(S3, D12, Dic3):
    for G in (S3, D12, Dic3):
        assert G.mul(0, 3) == 3
        assert G.mul(3, 0) == 3
        assert G.inv(0) == 0


def test_catalog_orders():
    for name, order in [("trivial", 1), ("C2", 2), ("C5", 5), ("S3", 6),
                        ("S4", 24), ("D8", 8), ("D12", 12), ("Dic3", 12)]:
        assert catalog_group(name).order == order


def test_s3_class_sizes_in_rep_order(S3):
    assert S3.classes.sizes == (1, 3, 2)
    assert S3.classes.centralizer_order(1) == 2


def test_d12_has_six_classes(D12):
    assert D12.classes.num_classes == 6
    assert sorted(D12.classes.sizes) == [1, 1, 2, 2, 3, 3]


def test_dic3_element_orders(Dic3):
    # dicyclic of order 12: a has order 6, b order 4, one central involution
    orders = sorted(Dic3.element_order(i) for i in range(Dic3.order))
    assert orders == [1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6]
    gens = [Dic3.element_order(i) for i in Dic3.generator_indices]
    assert gens == [4, 2, 3]


@pytest.mark.parametrize("name", ["C2", "C6", "S3", "S4", "D8", "D12", "Dic3"])
def test_group_axioms_exhaustive(name):
    G = catalog_group(name)
    assert check_group_axioms(G) == "exhaustive"
    if name != "Dic3":      # `with_generators` copies a permutation group
        # inverses read off the copy's tree, checked by native products
        for gens in (G.generator_indices, G.generator_indices[:1]):
            assert check_group_axioms(with_generators(G, gens)) == "exhaustive"


def broken_s3(S3, a, b, c):
    """S3's elements under S3's product, but with the one product a*b of
    indices made the descriptor c.  For c != a*b it is no group, as no row
    of a group's table repeats an entry, and no element of S3 is of
    another degree."""
    els = S3.elements

    def mul(x, y):
        return c if (x, y) == (els[a], els[b]) else x * y

    return FiniteGroup("broken S3", els, mul)


@pytest.mark.parametrize("axiom", ["closure", "identity", "inverse",
                                   "associativity"])
def test_check_group_axioms_names_the_broken_axiom(S3, axiom):
    flip = min(x for x in range(1, S3.order) if S3.inv(x) == x)
    turn = min(x for x in range(1, S3.order) if S3.inv(x) != x)
    t = S3.index_of(Permutation.from_cycles(3, [(0, 1)]))
    els = S3.elements
    a, b, c, shown = {
        # (0 1)*(0 1), the identity, made the identity on four points
        "closure": (t, t, Permutation.identity(4),
                    rf"closure fails at \({t},{t}\)"),
        "identity": (0, flip, els[turn], f"identity fails at {flip}"),
        # turn < turn^-1, so the pair (turn, turn^-1) is checked first
        "inverse": (turn, S3.inv(turn), els[turn], f"inverse fails at {turn}"),
        "associativity": (flip, turn, els[0],
                          r"associativity fails at \(\d+,\d+,\d+\)"),
    }[axiom]
    with pytest.raises(ValueError, match=f"^{shown}$") as err:
        check_group_axioms(broken_s3(S3, a, b, c))
    assert type(err.value) is ValueError


def test_check_group_axioms_names_an_axiom_for_every_wrong_product(S3):
    # each of S3's 36 products made each of its 5 wrong values; a tree
    # walked off the broken product could fail with a message naming none
    els = S3.elements
    cases = [(a, b, c) for a in range(6) for b in range(6) for c in els
             if c != els[a] * els[b]]
    assert len(cases) == 180
    for a, b, c in cases:
        with pytest.raises(ValueError, match=r"^(closure|identity|inverse|"
                           r"associativity) fails at ") as err:
            check_group_axioms(broken_s3(S3, a, b, c))
        assert type(err.value) is ValueError


def test_check_group_axioms_refuses_above_its_limit():
    S6 = catalog_group("S6")
    assert S6.order > groups.AXIOM_LIMIT
    with mock.patch.object(S6, "_mul_desc",
                           side_effect=AssertionError("native product")), \
            pytest.raises(ResourceLimitError,
                          match=rf"^no axiom check above order "
                                rf"{groups.AXIOM_LIMIT} \(\|S6\| = 720\)$"):
        check_group_axioms(S6)


def test_class_equation(S3, D12):
    for G in (S3, D12):
        assert sum(G.classes.sizes) == G.order


def test_classes_partition_elements(S3):
    seen = set()
    for k in range(S3.classes.num_classes):
        mem = S3.classes.members(k)
        assert len(mem) == S3.classes.sizes[k]
        seen.update(mem)
    assert seen == set(range(S3.order))


def test_conjugation_preserves_class(S3):
    cls = S3.classes
    for x in range(S3.order):
        for g in range(S3.order):
            assert cls.class_of_index(S3.conj(g, x)) == cls.class_of_index(x)


def test_orbit_stabilizer(S3):
    # |class| * |centralizer| = |G|
    for x in range(S3.order):
        Z = centralizer(S3, x)
        k = S3.classes.class_of_index(x)
        assert len(Z) * S3.classes.sizes[k] == S3.order


def test_element_order_divides_group_order(D12):
    for i in range(D12.order):
        assert D12.order % D12.element_order(i) == 0


def test_enumeration_is_deterministic():
    a = catalog_group("S4")
    b = group_from_permutation_generators(
        4, [Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(0, 1, 2, 3)])], label="again")
    assert a.elements == b.elements
    assert a.classes.rep_descs == b.classes.rep_descs


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("WREATHFOCK_MAX_ORDER", "100")
    with pytest.raises(ResourceLimitError):
        group_from_permutation_generators(
            5, [Permutation.from_cycles(5, [(0, 1)]),
                Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])


def test_cayley_table_agrees_with_native(S3):
    tbl = S3.cayley_table()
    n = S3.order
    for i in range(n):
        for j in range(n):
            assert tbl[i * n + j] == S3.mul(i, j)


# ---------------------------------------------------------------------------
# subgroups, products, homomorphisms


def test_subgroup_inclusion(S3):
    rot = S3.index_of(Permutation.from_cycles(3, [(0, 1, 2)]))
    H, incl = subgroup(S3, [0, rot, S3.inv(rot)])
    assert H.order == 3
    incl.verify()
    assert incl.is_injective() and not incl.is_surjective()


def test_subgroup_rejects_non_closed(S3):
    t = S3.index_of(Permutation.from_cycles(3, [(0, 1)]))
    u = S3.index_of(Permutation.from_cycles(3, [(1, 2)]))
    with pytest.raises(NotASubgroupError):
        subgroup(S3, [0, t, u])  # t*u is a 3-cycle, missing


def test_direct_product_structure(C2, C3):
    P, pG, pH, iG, iH = direct_product(C2, C3)
    assert P.order == 6
    assert P.classes.num_classes == 6
    assert check_group_axioms(P) == "exhaustive"
    for f in (pG, pH, iG, iH):
        f.verify()
    # projections undo inclusions
    for x in range(C2.order):
        assert pG(iG(x)) == x
        assert pH(iG(x)) == 0


def test_product_class_index_is_pair_structured(S3, C2):
    P, pG, pH, _, _ = direct_product(S3, C2)
    kH = C2.classes.num_classes
    for x in range(P.order):
        cG = S3.classes.class_of_index(pG(x))
        cH = C2.classes.class_of_index(pH(x))
        assert P.classes.class_of_index(x) == cG * kH + cH


def test_hom_from_generator_images_sign(S3, C2):
    sgn = hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0],
                                    label="sgn")
    assert sgn.is_surjective() and not sgn.is_injective()
    assert len(sgn.kernel()) == 3
    idC2 = hom_from_generator_images(C2, [1], C2, [1])
    two = compose_homs(idC2, sgn)
    assert two.dom is S3 and two.cod is C2
    assert [two(x) for x in range(S3.order)] == [sgn(x) for x in range(S3.order)]


def test_hom_rejects_inconsistent_images(S3, C3):
    # a transposition cannot map to an order-3 element
    with pytest.raises(NotAHomomorphismError):
        hom_from_generator_images(S3, S3.generator_indices, C3, [1, 0])


def test_hom_rejects_non_generating(S3, C2):
    rot = S3.index_of(Permutation.from_cycles(3, [(0, 1, 2)]))
    H, _ = subgroup(S3, [0, rot, S3.inv(rot)])
    with pytest.raises(ValueError):
        hom_from_generator_images(H, [0], C2, [0])


def test_compose_requires_matching_ends(S3, C2, C3):
    sgn = hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0])
    with pytest.raises(ValueError):
        compose_homs(sgn, sgn)


@settings(max_examples=25)
@given(st.integers(0, 11), st.integers(0, 11))
def test_hom_property_on_dic3(x, y):
    Dic3 = catalog_group("Dic3")
    C2 = catalog_group("C2")
    # quotient by <a>: b maps to the flip, a to nothing
    f = hom_from_generator_images(Dic3, Dic3.generator_indices, C2, [1, 0, 0])
    assert f(Dic3.mul(x, y)) == C2.mul(f(x), f(y))


# ---------------------------------------------------------------------------
# generator walks against all-pairs oracles on random permutation groups


def native_table(G):
    """All |G|^2 products, each a native descriptor product."""
    els, index = G.elements, G.index
    return [[index[a * b] for b in els] for a in els]


def all_pairs_failure(f, dom_table, cod_table):
    """First pair (x, y) with f(x*y) != f(x)*f(y), or None."""
    img = f.images
    if img[0] != 0:
        return (0, 0)
    for x, row in enumerate(dom_table):
        fx = cod_table[img[x]]
        for y, xy in enumerate(row):
            if img[xy] != fx[img[y]]:
                return (x, y)
    return None


def all_pairs_closed(table, subset):
    """Identity, inverses and every product inside the subset."""
    if 0 not in subset:
        return False
    for a in subset:
        if not any(table[a][b] == 0 for b in subset):
            return False
        if any(table[a][b] not in subset for b in subset):
            return False
    return True


def closure(table, gens):
    """The subgroup generated by gens, by right multiplication from 0."""
    closed, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in closed:
                    closed.add(y)
                    nxt.append(y)
        frontier = nxt
    return closed


def greedy_generators(table, idxs):
    """Least member outside the closure so far, from-scratch closures."""
    gens, closed = [], {0}
    for p, a in enumerate(idxs):
        if a in closed:
            continue
        gens.append(p)
        closed = closure(table, [idxs[g] for g in gens])
        if len(closed) == len(idxs):
            break
    return gens


@st.composite
def perm_groups(draw, max_degree=6):
    """Groups on <= max_degree (at most 6) points from 1-3 random
    generators, of order <= 120 so that the all-pairs oracles stay cheap
    (A6 and S6 are left out)."""
    degree = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    G = group_from_permutation_generators(degree, [Permutation(g) for g in gens])
    assume(G.order <= 120)
    return G


def with_generators(G, gens):
    """G again, uncached, storing the given generator indices (which need
    not generate G)."""
    return FiniteGroup(G.label, G.elements, Permutation.__mul__,
                       generators=[G.elements[g] for g in gens])


walk_settings = settings(max_examples=60, deadline=None, derandomize=True)


@walk_settings
@given(perm_groups(), st.booleans())
def test_generator_column_table_is_the_native_table(G, partial):
    H = with_generators(G, G.generator_indices[:1] if partial else
                        G.generator_indices)
    n = H.order
    assert [list(H.cayley_table()[i * n:(i + 1) * n])
            for i in range(n)] == native_table(G)


@walk_settings
@given(perm_groups(), st.booleans(), st.data())
def test_edge_walk_verify_agrees_with_all_pairs(G, partial, data):
    table = native_table(G)
    n = G.order
    dom = with_generators(G, G.generator_indices[:1] if partial else
                          G.generator_indices)
    g = data.draw(st.integers(0, n - 1))
    inner = [table[table[g][x]][G.inv(g)] for x in range(n)]
    changed = list(inner)
    x = data.draw(st.integers(0, n - 1))
    changed[x] = data.draw(st.integers(0, n - 1))
    noise = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    for images in (inner, changed, noise, [0] + noise[1:]):
        f = Homomorphism(dom, G, images=images)
        fails = all_pairs_failure(f, table, table) is not None
        if fails:
            with pytest.raises(NotAHomomorphismError):
                f.verify()
        else:
            f.verify()
    # extending from generator images: sound, and complete on true maps
    gens = G.generator_indices
    ext = hom_from_generator_images(G, gens, G, [inner[s] for s in gens])
    assert ext.images == inner
    guess = data.draw(st.lists(st.integers(0, n - 1), min_size=len(gens),
                               max_size=len(gens)))
    try:
        ext = hom_from_generator_images(G, gens, G, guess)
    except NotAHomomorphismError:
        pass
    else:
        assert all_pairs_failure(ext, table, table) is None


@walk_settings
@given(perm_groups(), st.data())
def test_subgroup_accepts_exactly_the_closed_subsets(G, data):
    table = native_table(G)
    n = G.order
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    true = closure(table, picks)
    flip = data.draw(st.integers(0, n - 1))
    noise = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    for subset in (true, true ^ {flip}, noise, noise | {0}):
        if all_pairs_closed(table, subset):
            S, incl = subgroup(G, subset)
            idxs = sorted(subset)
            assert S.order == len(subset)
            assert [S.elements[g] for g in S.generator_indices] == \
                [idxs[p] for p in greedy_generators(table, idxs)]
        else:
            with pytest.raises(NotASubgroupError):
                subgroup(G, subset)


def product_table(P, G, H):
    """All |P|^2 products of a direct product, pair by pair from the
    factors' native tables, located by descriptor."""
    tG, tH, index = native_table(G), native_table(H), P.index
    return [[index[(tG[i][a], tH[j][b])] for a, b in P.elements]
            for i, j in P.elements]


def subgroup_table(S, table):
    """All |S|^2 products of a subgroup, from the ambient native table."""
    idxs, index = S.elements, S.index
    return [[index[table[x][y]] for y in idxs] for x in idxs]


def columns_of(table):
    """The right-multiplication column of every element: x -> x*s."""
    return [[row[s] for row in table] for s in range(len(table))]


def assert_verify_iff_all_pairs(f, dom_table, cod_table):
    if all_pairs_failure(f, dom_table, cod_table) is None:
        f.verify()
    else:
        with pytest.raises(NotAHomomorphismError):
            f.verify()


def change_one(images, data, n):
    changed = list(images)
    x = data.draw(st.integers(0, len(images) - 1))
    changed[x] = data.draw(st.integers(0, n - 1))
    return changed


def small_subgroups(G, table, data):
    """The subgroup generated by up to 3 drawn elements, and the trivial
    one."""
    picks = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    return [subgroup(G, closure(table, picks))[0], subgroup(G, [0])[0]]


@walk_settings
@given(perm_groups(max_degree=4), perm_groups(max_degree=3), st.data())
def test_columns_are_the_native_columns(G, H, data):
    table = native_table(G)
    assert [list(G.column(s)) for s in range(G.order)] == columns_of(table)
    trivial = catalog_group("trivial")
    for A, B in ((G, H), (G, trivial), (trivial, H)):
        P = direct_product(A, B)[0]
        assert [list(P.column(s)) for s in range(P.order)] == \
            columns_of(product_table(P, A, B))
        assert [P.inv(x) for x in range(P.order)] == \
            [row.index(0) for row in product_table(P, A, B)]
    for S in small_subgroups(G, table, data):
        assert [list(S.column(s)) for s in range(S.order)] == \
            columns_of(subgroup_table(S, table))
    # once a Cayley table exists, columns are read off it
    T = with_generators(G, G.generator_indices)
    T.cayley_table()
    assert [list(T.column(s)) for s in range(T.order)] == columns_of(table)


def assert_class_map_reads_every_image(f):
    """class_map[k] is the class of f(x) for every x in class k of f.dom,
    and is made once."""
    dom_of, cod_of = f.dom.classes.class_of, f.cod.classes.class_of
    assert f.class_map is f.class_map
    assert len(f.class_map) == f.dom.classes.num_classes
    for x in range(f.dom.order):
        assert f.class_map[dom_of[x]] == cod_of[f(x)]


@walk_settings
@given(perm_groups(max_degree=4), perm_groups(max_degree=3), st.data())
def test_class_map_is_the_class_of_every_image(G, H, data):
    table = native_table(G)
    g = data.draw(st.integers(0, G.order - 1))
    inner = Homomorphism(G, G, [table[table[g][x]][G.inv(g)]
                                for x in range(G.order)], label="inner")
    sign = Homomorphism(G, catalog_group("C2"),
                        [int(p.sign() < 0) for p in G.elements], label="sign")
    picks = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    _, incl = subgroup(G, closure(table, picks))
    _, proj_G, proj_H, incl_G, incl_H = direct_product(G, H)
    for f in (inner, sign, incl, proj_G, proj_H, incl_G, incl_H,
              compose_homs(inner, incl), compose_homs(sign, proj_G),
              compose_homs(incl_G, inner), compose_homs(proj_H, incl_H),
              compose_homs(sign, compose_homs(proj_G, incl_G))):
        f.verify()
        assert_class_map_reads_every_image(f)


def test_subgroup_column_refuses_an_escaping_product(S3, monkeypatch):
    t = S3.index_of(Permutation.from_cycles(3, [(0, 1)]))
    u = S3.index_of(Permutation.from_cycles(3, [(1, 2)]))
    # skip the closure test, so the column itself meets t*u
    monkeypatch.setattr(groups, "find_generators_on", lambda G, idxs: [])
    S, _ = subgroup(S3, [0, t, u])
    with pytest.raises(NotASubgroupError):
        S.column(1)


@walk_settings
@given(perm_groups(max_degree=4), perm_groups(max_degree=3), st.data())
def test_verify_on_product_and_subgroup_maps_agrees_with_all_pairs(G, H, data):
    tG, tH = native_table(G), native_table(H)
    P, *maps = direct_product(G, H)
    tP = product_table(P, G, H)
    tables = {id(G): tG, id(H): tH, id(P): tP}
    for f in maps:
        dom_t, cod_t = tables[id(f.dom)], tables[id(f.cod)]
        assert all_pairs_failure(f, dom_t, cod_t) is None
        f.verify()
        changed = Homomorphism(f.dom, f.cod,
                               images=change_one(f.images, data, f.cod.order))
        assert_verify_iff_all_pairs(changed, dom_t, cod_t)
    n = G.order
    g = data.draw(st.integers(0, n - 1))
    for S in small_subgroups(G, tG, data):
        tS = subgroup_table(S, tG)
        inner = [tG[tG[g][a]][G.inv(g)] for a in S.elements]
        for images in (S.elements, inner, change_one(inner, data, n)):
            assert_verify_iff_all_pairs(Homomorphism(S, G, images=images),
                                        tS, tG)


@walk_settings
@given(perm_groups(max_degree=4), perm_groups(max_degree=3), st.data())
def test_spanning_sets_and_columns_recorded_by_construction_are_sound(G, H,
                                                                      data):
    tG = native_table(G)
    # the closure records the columns of its generators and nothing else
    assert set(G._columns) == set(G._spanning)
    built = [(G, tG)]
    built += [(S, subgroup_table(S, tG)) for S in small_subgroups(G, tG, data)]
    P = direct_product(G, H)[0]
    built.append((P, product_table(P, G, H)))
    for A, t in built:
        n = A.order
        assert closure(t, A._spanning) == set(range(n))
        cols = columns_of(t)
        assert all(list(col) == cols[s] for s, col in A._columns.items())
        inv = [row.index(0) for row in t]
        g = data.draw(st.integers(0, n - 1))
        inner = [t[t[g][x]][inv[g]] for x in range(n)]
        noise = data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                   max_size=n))
        for images in (list(range(n)), inner, change_one(inner, data, n),
                       [0] + noise[1:]):
            assert_verify_iff_all_pairs(Homomorphism(A, A, images=images),
                                        t, t)


def test_closure_group_work_makes_no_native_product(monkeypatch):
    G = group_from_permutation_generators(
        5, [Permutation.from_cycles(5, [(0, 1)]),
            Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])], label="S5")

    def refuse(*args):
        raise AssertionError("a native permutation product was made")

    monkeypatch.setattr(Permutation, "__mul__", refuse)
    monkeypatch.setattr(G, "_mul_desc", refuse)   # the product G was built with
    Homomorphism(G, G, range(G.order)).verify()
    assert sorted(G.classes.sizes) == [1, 10, 15, 20, 20, 24, 30]
    P = direct_product(G, G)[0]                   # verifies its four maps
    assert P.order == 120 ** 2


@walk_settings
@given(perm_groups(max_degree=4), perm_groups(max_degree=3))
def test_product_class_array_is_the_per_element_classifier(G, H):
    C2 = catalog_group("C2")
    for A, B in ((G, H), (wreath_group(C2, 2), wreath_group(C2, 1))):
        classes = direct_product(A, B)[0].classes
        each = [classes.class_of_desc(d) for d in classes.group.elements]
        assert classes._class_of is None      # not made by the loop above
        assert list(classes.class_of) == each


def conjugacy_partition(table):
    """Classes as frozensets, by conjugating with every element."""
    n = len(table)
    inv = [row.index(0) for row in table]
    return {frozenset(table[table[g][x]][inv[g]] for g in range(n))
            for x in range(n)}


@walk_settings
@given(perm_groups(), perm_groups(max_degree=3), st.data())
def test_conjugation_orbits_are_the_conjugacy_classes(G, H, data):
    table = native_table(G)
    groups_and_tables = [(G, table)]
    groups_and_tables += [(S, subgroup_table(S, table))
                          for S in small_subgroups(G, table, data)]
    if G.order * H.order <= 240:
        P = direct_product(G, H)[0]
        groups_and_tables.append((P, product_table(P, G, H)))
    for A, t in groups_and_tables:
        class_of, rep_descs, sizes = conjugation_orbits(A)
        orbits = [frozenset(x for x in range(A.order) if class_of[x] == k)
                  for k in range(len(sizes))]
        assert set(orbits) == conjugacy_partition(t)
        assert [len(o) for o in orbits] == sizes
        assert [A.index_of(d) for d in rep_descs] == [min(o) for o in orbits]
    # any generating set gives the same classes
    extra = data.draw(st.integers(0, G.order - 1))
    again = conjugation_orbits(G, list(G.generator_indices) + [extra])
    assert list(again[0]) == list(conjugation_orbits(G)[0])


def orbit_loop(G, gens):
    """Oracle for `conjugation_orbits`: the array-marked orbit loop.  Each
    element not yet marked seeds an orbit, walked breadth-first along
    x -> g^-1*x*g (native products) with a set of its own, and its members
    are marked with the next class index."""
    steps = [[G.mul(G.mul(G.inv(g), x), g) for x in range(G.order)]
             for g in gens]
    class_of = [-1] * G.order
    rep_descs, sizes = [], []
    for seed in range(G.order):
        if class_of[seed] >= 0:
            continue
        k = len(rep_descs)
        rep_descs.append(G.elements[seed])
        orbit, seen = [seed], {seed}
        for x in orbit:
            for step in steps:
                y = step[x]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        for y in orbit:
            class_of[y] = k
        sizes.append(len(orbit))
    return class_of, rep_descs, sizes


SMALL_LEVELS = [("trivial", 3), ("C2", 2), ("C2", 3), ("C3", 2), ("S3", 2),
                ("C4", 2)]


@walk_settings
@given(perm_groups(), st.sampled_from(SMALL_LEVELS), st.data())
def test_orbit_partition_is_the_array_marked_orbit_loop(G, level, data):
    table = native_table(G)
    groups_ = [G] + small_subgroups(G, table, data)
    groups_.append(WreathGroup(catalog_group(level[0]), level[1]))
    for A in groups_:
        gens = A._spanning_generators()
        class_of, rep_descs, sizes = conjugation_orbits(A)
        assert (list(class_of), rep_descs, sizes) == orbit_loop(A, gens)
    # a generating set with a repeat and an extra element
    extra = data.draw(st.integers(0, G.order - 1))
    gens = list(G.generator_indices) * 2 + [extra]
    class_of, rep_descs, sizes = conjugation_orbits(G, gens)
    assert (list(class_of), rep_descs, sizes) == orbit_loop(G, gens)


def test_closure_classes_hold_their_class_array(monkeypatch):
    G = group_from_permutation_generators(
        5, [Permutation.from_cycles(5, [(0, 1)]),
            Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])], label="S5")
    expected = list(conjugation_orbits(G)[0])
    classes = G.classes

    def refuse(desc):
        raise AssertionError("class_of_index looked up an element")

    monkeypatch.setattr(G, "index_of", refuse)
    assert [classes.class_of_index(i) for i in range(G.order)] == expected


@walk_settings
@given(perm_groups())
def test_classes_do_not_depend_on_the_stored_generators(G):
    # one stored generator need not generate G; the classes are G's anyway
    H = with_generators(G, G.generator_indices[:1])
    assert H.classes.sizes == G.classes.sizes
    assert list(H.classes.class_of) == list(G.classes.class_of)


def test_s3_stored_with_one_transposition_has_three_classes(S3):
    t = S3.index_of(Permutation.from_cycles(3, [(0, 1)]))
    H = with_generators(S3, [t])
    assert sorted(H.classes.sizes) == [1, 2, 3]
    # the Cayley table and verify walk the same generating set
    assert H._spanning_generators() == groups.find_generators(H)
    Homomorphism(H, S3, range(6)).verify()
    assert list(H.cayley_table()) == list(S3.cayley_table())


@walk_settings
@given(perm_groups(), st.data())
def test_centralizer_is_the_commuting_set(G, data):
    table = native_table(G)
    x = data.draw(st.integers(0, G.order - 1))
    assert centralizer(G, x) == [s for s in range(G.order)
                                 if table[s][x] == table[x][s]]


@walk_settings
@given(perm_groups(), st.data())
def test_centralizer_makes_no_product_and_no_column_of_x(G, data):
    # it walks the generators' columns, kept by the permutation closure
    x = data.draw(st.integers(0, G.order - 1))
    G._inverse_array()
    cached = set(G._columns)
    with mock.patch.object(G, "_mul_desc",
                           side_effect=AssertionError("native product")):
        got = centralizer(G, x)
    assert set(G._columns) == cached
    assert got == [s for s in range(G.order) if G.mul(s, x) == G.mul(x, s)]


@pytest.mark.parametrize("x", [-1, 6, 9])
def test_centralizer_refuses_an_index_outside_the_group(S3, x):
    with pytest.raises(ValueError, match=f"^index {x} out of range for S3$"):
        centralizer(S3, x)


def s3_descriptors():
    S3 = catalog_group("S3")
    return [S3.elements[g] for g in S3.generator_indices]


@pytest.mark.parametrize("call, error, shown", [
    (lambda: catalog_group("S7").cayley_table(), ResourceLimitError,
     r"no Cayley table above order 4096 \(\|S7\| = 5040\)"),
    (lambda: Permutation.identity(2) * Permutation.identity(3), ValueError,
     "degrees differ: 2 and 3"),
    (lambda: group_from_permutation_generators(3, [[1, 0]]), ValueError,
     "generator degree 2 != 3"),
    (lambda: groups.conjugates(catalog_group("S3"), s3_descriptors()[0]),
     ValueError, r"not an element index of S3: \(0 1\)"),
    (lambda: groups.conjugates(catalog_group("S3"), True), ValueError,
     "not an element index of S3: True"),
    (lambda: centralizer(catalog_group("S3"), 1.0), ValueError,
     r"not an element index of S3: 1\.0"),
    (lambda: hom_from_generator_images(catalog_group("S3"), s3_descriptors(),
                                       catalog_group("C2"), [1, 0]),
     ValueError, r"not an element index of S3: \(0 1\)"),
], ids=["table-above-limit", "product-across-degrees",
        "generator-of-another-degree", "conjugates-of-a-descriptor",
        "conjugates-of-a-bool", "centralizer-of-a-float",
        "hom-from-descriptors"])
def test_groups_refuses_bad_input_by_name(call, error, shown):
    with pytest.raises(error, match=f"^{shown}$") as err:
        call()
    assert type(err.value) is error


@pytest.mark.parametrize("members,bad", [([0, 7], 7), ([0, -1], -1),
                                         ([-2, 0, 1, 6], -2)])
def test_subgroup_refuses_an_index_outside_the_group(S3, members, bad):
    with pytest.raises(NotASubgroupError,
                       match=f"^not a subgroup: no element {bad} in S3$"):
        subgroup(S3, members)


# ---------------------------------------------------------------------------
# the kept spanning tree


@walk_settings
@given(perm_groups(max_degree=4), perm_groups(max_degree=3),
       st.sampled_from(SMALL_LEVELS), st.booleans())
def test_kept_tree_spans_and_each_child_is_parent_times_generator(G, H, level,
                                                                  partial):
    stored = with_generators(G, G.generator_indices[:1] if partial else
                             G.generator_indices)
    for A in (G, stored, direct_product(G, H)[0],
              WreathGroup(catalog_group(level[0]), level[1])):
        tree = A._spanning_tree()
        gens, els = A._spanning_generators(), A.elements
        assert A._spanning_tree() is tree
        assert sorted(w for w, _, _ in tree) == list(range(1, A.order))
        reached = {0}
        for w, parent, k in tree:
            assert parent in reached        # walk order: parents first
            assert A.index_of(A._mul_desc(els[parent], els[gens[k]])) == w
            reached.add(w)


def _fresh_group(name):
    S3, D12 = catalog_group("S3"), catalog_group("D12")
    t = S3.index_of(Permutation.from_cycles(3, [(0, 1)]))
    return {"closure": lambda: catalog_group.__wrapped__("S4"),
            "stored generators": lambda: catalog_group.__wrapped__("Dic3"),
            "wreath level": lambda: WreathGroup(S3, 2),
            "restored": lambda: with_generators(D12, D12.generator_indices),
            "not generating": lambda: with_generators(S3, [t])}[name]()


# "not generating": one walk tests the stored generators, one walks
# find_generators
@pytest.mark.parametrize("name,walks", [
    ("closure", 1), ("stored generators", 1), ("wreath level", 1),
    ("restored", 1), ("not generating", 2)])
def test_spanning_walk_is_made_once_per_group(name, walks):
    A = _fresh_group(name)
    made = []
    walk = FiniteGroup._generator_columns

    def counted(self, gens):
        if self is A:
            made.append(list(gens))
        return walk(self, gens)

    with mock.patch.object(FiniteGroup, "_generator_columns", counted):
        gens = A._spanning_generators()
        A.cayley_table()
        for r in A.classes.reps:
            centralizer(A, r)
        hom_from_generator_images(A, gens, A, gens)
        Homomorphism(A, A, range(A.order)).verify()
    assert len(made) == walks and made[-1] == gens


def test_hom_from_generator_images_keeps_its_error_types(S3, C2):
    t, c = S3.generator_indices
    # a repeated generator sent to two images
    with pytest.raises(NotAHomomorphismError, match="^not a homomorphism:"):
        hom_from_generator_images(S3, [t, c, t], C2, [1, 0, 0])
    # the identity, as a generator, sent off the identity
    with pytest.raises(NotAHomomorphismError, match="^not a homomorphism:"):
        hom_from_generator_images(S3, [t, c, 0], C2, [1, 0, 1])
    # consistent on the generators' tree, not multiplicative
    with pytest.raises(NotAHomomorphismError, match="^not a homomorphism:"):
        hom_from_generator_images(S3, [t, c], C2, [0, 1])
    for gens, images, match in (([t], [1], "do not generate S3"),
                                ([t, c], [1], "count mismatch")):
        with pytest.raises(ValueError, match=match) as err:
            hom_from_generator_images(S3, gens, C2, images)
        assert not isinstance(err.value, NotAHomomorphismError)


@walk_settings
@given(perm_groups(max_degree=4))
def test_inverses_without_an_inverse_rule_are_read_off_the_tree(G):
    A = FiniteGroup(G.label, G.elements, Permutation.__mul__,
                    generators=[G.elements[g] for g in G.generator_indices])
    assert [A.inv(x) for x in range(A.order)] == \
        [G.index_of(d.inverse()) for d in G.elements]
    assert A._table is None


def native_inverses(A):
    """The y with x*y the identity, for every x, by native products."""
    els, mul = A.elements, A._mul_desc
    return [next(y for y, b in enumerate(els) if mul(a, b) == els[0])
            for a in els]


@walk_settings
@given(perm_groups(max_degree=5), st.data())
def test_inverse_array_needs_no_inverse_rule_and_no_product(G, data):
    # a fresh closure, a copy whose stored generators do not span (the
    # find_generators fallback), and Dic3, whose columns are native products
    D12 = catalog_group("D12")
    stored = with_generators(D12, data.draw(st.sampled_from(
        [[g] for g in D12.generator_indices] + [[0]])))
    for A in (G, stored, catalog_group.__wrapped__("Dic3")):
        oracle = native_inverses(A)
        A._spanning_tree()              # the columns of the spanning set
        with mock.patch.object(Permutation, "inverse",
                               side_effect=AssertionError("inverse rule")), \
                mock.patch.object(A, "_mul_desc",
                                  side_effect=AssertionError("native product")):
            assert list(A._inverse_array()) == oracle
        assert A._table is None
    assert len(stored._spanning_generators()) > 1


def assert_columns_need_no_product(A):
    """Once A's spanning tree is walked, every column of every element is
    made with `_mul_desc` refusing, and equals the native column."""
    els, index, mul = A.elements, A.index, A._mul_desc
    oracle = [[index[mul(a, b)] for a in els] for b in els]
    A._spanning_tree()
    with mock.patch.object(A, "_mul_desc",
                           side_effect=AssertionError("native product")):
        assert [list(A.column(s)) for s in range(A.order)] == oracle


@walk_settings
@given(perm_groups(max_degree=5))
def test_columns_are_read_off_the_tree_without_a_product(G):
    assert_columns_need_no_product(G)


@pytest.mark.parametrize("name", ["trivial", "C2", "C3", "C4", "C6", "S3",
                                  "S4", "S5", "D8", "D12", "Dic3",
                                  "not spanning"])
def test_catalog_columns_are_read_off_the_tree_without_a_product(name):
    # Dic3's stored generators, and the find_generators candidates of a D12
    # stored with one generator, make their columns natively as the tree is
    # walked
    if name == "not spanning":
        D12 = catalog_group("D12")
        A = with_generators(D12, D12.generator_indices[:1])
    else:
        A = catalog_group.__wrapped__(name)
    assert_columns_need_no_product(A)


def test_classes_above_the_table_limit_need_no_inverse_rule():
    S7 = catalog_group.__wrapped__("S7")
    assert S7.order > groups.TABLE_LIMIT
    A = FiniteGroup("S7 again", S7.elements, Permutation.__mul__,
                    generators=list(S7._gen_descs))
    assert A.classes.num_classes == 15
    assert A._table is None


perms_upto6 = st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.permutations(range(d)), st.permutations(range(d))))


@given(perms_upto6)
def test_unchecked_products_equal_validated_ones(pair):
    p, q = (Permutation(x) for x in pair)
    prod = p * q
    assert prod == Permutation([p(q(i)) for i in range(p.degree)])
    assert Permutation(prod.images) == prod
    inv = p.inverse()
    assert Permutation(inv.images) == inv
    assert (p * inv).is_identity() and (inv * p).is_identity()
