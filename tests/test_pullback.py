import json
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_groups import SMALL_LEVELS, closure, native_table, perm_groups
from type_walk_oracle import n_cycle_classes_closed_by_walk
from wreathfock import pullback, ratlinalg
from wreathfock.catalog import catalog_group, hom_from_json
from wreathfock.classfun import indicator, pullback_along
from wreathfock.cli import _load_scenario_file, main
from wreathfock.groups import (ConjugacyClasses, Permutation, direct_product,
                               group_from_permutation_generators,
                               hom_from_generator_images, subgroup)
from wreathfock.pullback import (_wreath_split, build_pullback,
                                 class_pair_splitting, decomposition_report,
                                 fusion_pattern, is_conjugacy_closed,
                                 n_cycle_classes_closed, n_cycle_closed_brute,
                                 restriction_map_matrix,
                                 semidirect_product_iso, tensor_over_classk,
                                 verify_class_ring_decomposition)
from wreathfock.wreath import WreathElement, WreathGroup, class_count_series


def _sign(S3, C2):
    return hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0],
                                     label="sgn")


def _collapse(G, T):
    return hom_from_generator_images(G, G.generator_indices, T,
                                     [0] * len(G.generator_indices))


@pytest.fixture(scope="module")
def gamma(S3, C2):
    sgn = _sign(S3, C2)
    return build_pullback(sgn, sgn)


def test_sign_pullback_order_and_classes(gamma):
    assert gamma.order == 18
    assert gamma.carrier.classes.num_classes == 6
    assert gamma.product.classes.num_classes == 9


def test_pullback_membership(gamma, S3, C2):
    sgn = _sign(S3, C2)
    for i in range(gamma.order):
        g = gamma.proj_G(i)
        h = gamma.proj_H(i)
        assert sgn(g) == sgn(h)


# the carrier route and the class route refuse the same maps
ROUTES = (build_pullback, class_pair_splitting)


def test_pullback_needs_common_codomain(S3, C2, C3):
    sgn = _sign(S3, C2)
    to_c3 = _collapse(C3, catalog_group("trivial"))
    for route in ROUTES:
        with pytest.raises(ValueError, match="must land in the same group"):
            route(sgn, to_c3)


def test_pullback_needs_surjective_maps(S3, C2):
    sgn = _sign(S3, C2)
    non_onto = hom_from_generator_images(C2, [1], S3, [0])
    for route in ROUTES:
        with pytest.raises(ValueError, match="surjective structure maps"):
            route(hom_from_generator_images(S3, S3.generator_indices,
                                            S3, S3.generator_indices),
                  non_onto)


def test_sign_pullback_not_conjugacy_closed(gamma, S3):
    closed, witness = is_conjugacy_closed(gamma.incl)
    assert not closed
    x, y = witness
    # the failure lives on pairs of 3-cycles
    assert [S3.element_order(i) for i in x] == [3, 3]
    assert [S3.element_order(i) for i in y] == [3, 3]
    # same ambient class, different carrier class (carrier descriptors are
    # ambient element indices)
    amb, sub = gamma.product, gamma.carrier
    assert amb.classes.class_of_desc(x) == amb.classes.class_of_desc(y)
    assert sub.classes.class_of_desc(amb.index_of(x)) != \
        sub.classes.class_of_desc(amb.index_of(y))


def test_restriction_matrix_shape(gamma):
    m = restriction_map_matrix(gamma.incl)
    assert len(m) == 6 and all(len(row) == 9 for row in m)
    for row in m:
        assert sum(row) == 1
    assert ratlinalg.rank(m) == 5


def test_sign_pullback_fusion_pattern(gamma):
    assert fusion_pattern(gamma.incl) == {
        "ambient_classes": 9, "sub_classes": 6,
        "empty": 4, "bijective": 4, "splitting": 1, "max_split": 2,
        "image_rank": 5, "kernel_dim": 4, "surjective": False,
    }


def test_sign_pullback_tensor_presentation(gamma):
    pres = tensor_over_classk(gamma)
    assert pres.dim_ambient == 9
    assert pres.quotient_dim == 5
    assert pres.relation_rank == 4


def test_sign_pullback_is_not_tensor_decomposable(gamma):
    rep = verify_class_ring_decomposition(gamma)
    assert not rep.conj_closed
    assert rep.quotient_dim == 5
    assert rep.map_rank == 5
    assert rep.carrier_classes == 6
    assert not rep.is_isomorphism
    doc = rep.to_json()
    assert doc["is_isomorphism"] is False and doc["witness"] is not None


def test_decomposition_report_refuses_a_met_pair_over_two_k_classes(S3, C2):
    # no carrier class lies over such a pair; a hand-built count claims one
    sgn = _sign(S3, C2)
    over_K = sgn.class_map
    k = len(over_K)
    rho, gam = next((r, g) for r in range(k) for g in range(k)
                    if over_K[r] != over_K[g])
    hits = [1 if p == rho * k + gam else 0 for p in range(k * k)]
    with pytest.raises(AssertionError,
                       match="^tensor relation does not vanish on the "
                             "carrier$"):
        decomposition_report(sgn, sgn, hits, None)


def test_dihedral_dicyclic_decomposition(D12, Dic3, S3):
    r = D12.index_of(Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)]))
    s = D12.index_of(Permutation((0, 5, 4, 3, 2, 1)))
    r2 = D12.mul(r, r)
    r3 = D12.mul(r2, r)
    c123 = S3.index_of(Permutation((1, 2, 0)))
    t23 = S3.index_of(Permutation((0, 2, 1)))
    psi1 = hom_from_generator_images(D12, [s, r3, r2], S3, [t23, 0, c123])
    psi2 = hom_from_generator_images(Dic3, Dic3.generator_indices, S3,
                                     [t23, 0, c123])
    assert psi1.is_surjective() and psi2.is_surjective()
    pb = build_pullback(psi1, psi2)
    assert pb.order == 24
    closed, witness = is_conjugacy_closed(pb.incl)
    assert closed and witness is None
    rep = verify_class_ring_decomposition(pb)
    assert rep.is_isomorphism
    assert rep.quotient_dim == rep.map_rank == rep.carrier_classes == 12


def test_trivial_k_gives_direct_product(C2, C3, trivial):
    pb = build_pullback(_collapse(C2, trivial), _collapse(C3, trivial))
    assert pb.order == 6
    rep = verify_class_ring_decomposition(pb)
    assert rep.conj_closed and rep.is_isomorphism
    assert rep.quotient_dim == 6


def test_diagonal_is_closed_and_decomposes(S3):
    ident = hom_from_generator_images(S3, S3.generator_indices, S3,
                                      S3.generator_indices)
    pb = build_pullback(ident, ident)
    assert pb.order == 6  # the diagonal copy of S3
    closed, _ = is_conjugacy_closed(pb.incl)
    assert closed
    rep = verify_class_ring_decomposition(pb)
    assert rep.is_isomorphism and rep.quotient_dim == 3


@pytest.mark.parametrize("a,b,n", [("C2", "C2", 2), ("C2", "C3", 2)])
def test_wreath_of_product_splits_as_pullback(a, b, n):
    A, B = catalog_group(a), catalog_group(b)
    pb, phi = semidirect_product_iso(A, B, n)
    assert phi.dom.order == pb.order
    assert phi.is_injective() and phi.is_surjective()
    assert pb.order == (A.order * B.order) ** n * [1, 1, 2, 6][n]


@pytest.mark.parametrize("a,b,n", [("C2", "C3", 2), ("S3", "C2", 2),
                                   ("C2", "C2", 3), ("C3", "trivial", 1)])
def test_wreath_split_is_the_descriptor_split(a, b, n):
    # the oracle splits each part into its pair and looks both halves up
    A, B = catalog_group(a), catalog_group(b)
    W, An, Bn, split = _wreath_split(A, B, n)
    AB = direct_product(A, B)[0]
    assert (W.base.elements, W.n, An.base, An.n, Bn.base, Bn.n) == (
        AB.elements, n, A, n, B, n)
    amb = direct_product(An, Bn)[0]
    for d in W.elements:
        halves = [WreathElement(tuple(AB.elements[p][k] for p in d.parts),
                                d.perm) for k in (0, 1)]
        assert split(d) == amb.index_of((An.index_of(halves[0]),
                                         Bn.index_of(halves[1])))


WALK_BASES = ["trivial", "C2", "C3", "S3", "D8", "Dic3"]
# the walk lists every type of a level: each pair runs it up to the last
# level of at most this many types
WALK_TYPES = 3_000


@pytest.mark.parametrize("a,b", list(product(WALK_BASES, repeat=2)))
def test_n_cycle_classes_closed_is_the_type_walk(a, b):
    A, B = catalog_group(a), catalog_group(b)
    kA, kB = A.classes.num_classes, B.classes.num_classes
    series = class_count_series(kA * kB, 40)
    top = max(n for n, count in enumerate(series) if count <= WALK_TYPES)
    for n in range(top + 1):
        assert n_cycle_classes_closed(A, B, n) == \
            n_cycle_classes_closed_by_walk(kA, kB, n), (a, b, n)


def test_n_cycle_classes_closed_matches_brute():
    A, B = catalog_group("C2"), catalog_group("C3")
    fast = n_cycle_classes_closed(A, B, 2)
    brute = n_cycle_closed_brute(A, B, 2)
    assert fast == brute
    assert len(fast) == 6  # one n-cycle class per base class of C2 x C3
    assert all(closed for _, _, closed in fast)


def test_n_cycle_closed_brute_reports_a_misclassified_orbit_member(
        monkeypatch):
    # every member of an orbit but the class representative is classified
    # one class on, so no n-cycle class reads as closed
    A, B = catalog_group("C2"), catalog_group("C3")
    classify = ConjugacyClasses.class_of_desc

    def misread(self, d):
        return classify(self, d) + (d not in self.rep_descs)

    monkeypatch.setattr(ConjugacyClasses, "class_of_desc", misread)
    brute = n_cycle_closed_brute(A, B, 2)
    assert len(brute) == 6
    assert not any(closed for _, _, closed in brute)


# ---------------------------------------------------------------------------
# the closed forms against the exact-rank and element-scan oracles


def element_scan_closed(incl):
    """The element-scan closedness test: classify every subgroup element,
    then look for another subgroup class among the members of each ambient
    class, in ambient index order."""
    sub, amb = incl.dom, incl.cod
    in_sub = {incl(i): sub.classes.class_of_index(i) for i in range(sub.order)}
    for j, r in enumerate(sub.classes.reps):
        a = amb.classes.class_of_index(incl(r))
        for y in amb.classes.members(a):
            if in_sub.get(y, j) != j:
                return False, (amb.elements[incl(r)], amb.elements[y])
    return True, None


def _to_k(G, K):
    """The sign map onto C2, or the collapse onto the trivial group."""
    gens = G.generator_indices
    images = [1 if G.elements[g].sign() < 0 else 0 for g in gens] \
        if K.order == 2 else [0] * len(gens)
    return hom_from_generator_images(G, gens, K, images)


small_perm_groups = perm_groups().filter(lambda G: G.order <= 24)
# the sign map is onto C2 only on a group with an odd permutation
odd_perm_groups = small_perm_groups.filter(
    lambda G: any(x.sign() < 0 for x in G.elements))


def check_against_oracles(pb):
    """Every closed-form verdict on pb equals its exact-rank or element-scan
    oracle, every tensor relation vanishes on the restriction images, and
    the double-coset counts are the carrier classes in each ambient class."""
    G, H = pb.G, pb.H
    in_ambient = [0] * pb.product.classes.num_classes
    for a in pb.incl.class_map:
        in_ambient[a] += 1
    assert class_pair_splitting(pb.alpha, pb.beta) == in_ambient
    rep = verify_class_ring_decomposition(pb)
    pres = tensor_over_classk(pb)
    assert rep.quotient_dim == pres.quotient_dim

    images = []
    for rho in range(G.classes.num_classes):
        f = pullback_along(indicator(G, rho), pb.proj_G)
        for gam in range(H.classes.num_classes):
            images.append((f * pullback_along(indicator(H, gam),
                                              pb.proj_H)).values)
    for rel in pres.relations:
        assert not any(sum(c * row[t] for c, row in zip(rel, images) if c)
                       for t in range(rep.carrier_classes))
    assert rep.map_rank == ratlinalg.rank(images)

    pattern = fusion_pattern(pb.incl)
    assert pattern["image_rank"] == \
        ratlinalg.rank(restriction_map_matrix(pb.incl))
    scan = element_scan_closed(pb.incl)
    assert is_conjugacy_closed(pb.incl) == scan
    assert (rep.conj_closed, rep.witness) == scan


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["trivial", "C2"]), st.data())
def test_closed_forms_match_rank_oracles(k, data):
    groups = odd_perm_groups if k == "C2" else small_perm_groups
    G, H, K = data.draw(groups), data.draw(groups), catalog_group(k)
    check_against_oracles(build_pullback(_to_k(G, K), _to_k(H, K)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["trivial", "C2"]), st.data())
def test_carrier_members_are_the_scanned_pairs(k, data):
    groups = odd_perm_groups if k == "C2" else small_perm_groups
    G, H, K = data.draw(groups), data.draw(groups), catalog_group(k)
    pb = build_pullback(_to_k(G, K), _to_k(H, K))
    a, b = pb.alpha.images, pb.beta.images
    scan = [i for i, (x, y) in enumerate(pb.product.elements) if a[x] == b[y]]
    assert pb.carrier.elements == scan
    assert [pb.incl(i) for i in range(pb.order)] == scan


SCENARIO_MAPS = json.loads((Path(__file__).resolve().parent.parent / "demos"
                            / "scenarios" / "d12_dic3.json").read_text())
PAIRINGS = [frozenset(map(frozenset, p))
            for p in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))]


def _to_s3(G, S3):
    """S4 onto S3 by its action on the three pairings of {0, 1, 2, 3}; D12
    and Dic3 by the maps of the bundled scenario."""
    if G.label != "S4":
        key = "alpha" if G.label == SCENARIO_MAPS["G"] else "beta"
        return hom_from_json(SCENARIO_MAPS[key], dom=G, cod=S3)
    gens = G.generator_indices
    images = [Permutation(tuple(
        PAIRINGS.index(frozenset(frozenset(map(G.elements[g], pair))
                                 for pair in pairing))
        for pairing in PAIRINGS)) for g in gens]
    return hom_from_generator_images(G, gens, S3, map(S3.index_of, images))


# Sign pullbacks of catalog groups, where most are not closed, and two over
# the non-abelian S3: S4 x_S3 S4 is not closed, D12 x_S3 Dic3 is.
@pytest.mark.parametrize("g,h,k", [
    ("S3", "S3", "C2"), ("S3", "D8", "C2"), ("C4", "D12", "C2"),
    ("D8", "D12", "C2"), ("S4", "D8", "C2"), ("S4", "S4", "C2"),
    ("S4", "S4", "S3"), ("D12", "Dic3", "S3")],
    ids=["S3-S3", "S3-D8", "C4-D12", "D8-D12", "S4-D8", "S4-S4",
         "S4-S4-pairings", "D12-Dic3-scenario"])
def test_sign_pullbacks_match_rank_oracles(g, h, k):
    K = catalog_group(k)
    to_k = _to_k if k == "C2" else _to_s3
    G, H = catalog_group(g), catalog_group(h)
    pb = build_pullback(to_k(G, K), to_k(H, K))
    check_against_oracles(pb)
    if k == "S3":       # S4 x_S3 S4 is not closed, D12 x_S3 Dic3 is
        assert is_conjugacy_closed(pb.incl)[0] == (g == "D12")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_class_count_is_commuting_pairs_over_order(n):
    """k(Gamma) = |{commuting pairs of Gamma}| / |Gamma| for Gamma =
    S_n x_C2 S_n along the sign maps.  Two pairs (x, y), (x', y') of Gamma
    commute iff x, x' and y, y' do, so the pairs are counted from the
    commuting pairs of S_n with matching signs; no carrier is built."""
    C2, S = catalog_group("C2"), catalog_group(f"S{n}")
    sgn = _to_k(S, C2)
    by_sign = Counter((x.sign(), y.sign())
                      for x, y in product(S.elements, S.elements)
                      if x * y == y * x)
    commuting = sum(c * c for c in by_sign.values())
    gamma_order = S.order * S.order // 2
    assert commuting % gamma_order == 0
    assert sum(class_pair_splitting(sgn, sgn)) == commuting // gamma_order


def test_s6_sign_pullback_class_count():
    C2, S6 = catalog_group("C2"), catalog_group("S6")
    sgn = _to_k(S6, C2)
    hits = class_pair_splitting(sgn, sgn)
    assert (sum(hits), max(hits)) == (62, 2)


SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


@pytest.mark.parametrize("scenario,closures,k_centralizers", [
    ("S6-sign", 22, 2), ("s3xs3", 6, 2), ("d12_dic3", 16, 5)])
def test_class_route_closes_each_centralizer_image_once(
        scenario, closures, k_centralizers):
    # `find_generators_on` once per G-class representative plus once per
    # H-element looked up, and `centralizer` on K once per k; a closure of
    # both images per class pair made 122 and 11 on S6 x_C2 S6, 10 and 3
    # on S3 x_C2 S3, and 24 and 6 on D12 x_S3 Dic3
    if scenario == "S6-sign":
        alpha = beta = _to_k(catalog_group("S6"), catalog_group("C2"))
    else:
        alpha, beta = _load_scenario_file(SCENARIOS / f"{scenario}.json")
    with mock.patch.object(pullback, "find_generators_on",
                           wraps=pullback.find_generators_on) as closes, \
            mock.patch.object(pullback, "centralizer",
                              wraps=pullback.centralizer) as cent:
        class_pair_splitting(alpha, beta)
    assert closes.call_count == closures
    assert sum(c.args[0] is alpha.cod
               for c in cent.call_args_list) == k_centralizers


# Over C2 an ambient class holds at most two carrier classes.  These
# subgroups put three subgroup classes in one ambient class, or several
# ambient classes hold more than one, which is where the witness rule
# chooses between candidates.
@pytest.mark.parametrize("degree,sub_gens", [
    (4, [(1, 0, 3, 2), (2, 3, 0, 1)]),                     # V4 in S4
    (4, [(1, 2, 0, 3), (1, 0, 3, 2)]),                     # A4 in S4
    (5, [(1, 0, 2, 3, 4), (0, 1, 3, 2, 4)]),               # C2 x C2 in S5
    (6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
         (0, 1, 2, 3, 5, 4)]),                             # C2^3 in S6
])
def test_subgroup_closedness_matches_element_scan(degree, sub_gens):
    G = catalog_group(f"S{degree}") if degree < 6 else \
        group_from_permutation_generators(6, [Permutation((1, 2, 3, 4, 5, 0)),
                                              Permutation((1, 0, 2, 3, 4, 5))])
    S = group_from_permutation_generators(degree, map(Permutation, sub_gens))
    _, incl = subgroup(G, [G.index_of(x) for x in S.elements])
    assert is_conjugacy_closed(incl) == element_scan_closed(incl)
    assert fusion_pattern(incl)["image_rank"] == \
        ratlinalg.rank(restriction_map_matrix(incl))


def by_ambient_rule(incl):
    """Oracle for `is_conjugacy_closed`: group the subgroup classes by the
    ambient class they lie in; the group with the least first class among
    those of two or more gives the witness, its first two classes."""
    by_ambient: dict[int, list[int]] = {}
    for j, a in enumerate(incl.class_map):
        by_ambient.setdefault(a, []).append(j)
    shared = [js for js in by_ambient.values() if len(js) > 1]
    if not shared:
        return True, None
    j, other = min(shared)[:2]
    reps = incl.dom.classes.rep_descs
    return False, (incl.map_desc(reps[j]), incl.map_desc(reps[other]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(perm_groups(), st.sampled_from(SMALL_LEVELS), st.data())
def test_closedness_witness_is_the_by_ambient_rule(G, level, data):
    W = WreathGroup(catalog_group(level[0]), level[1])
    t = W.cayley_table()
    for A, table in ((G, native_table(G)),
                     (W, [t[i * W.order:(i + 1) * W.order]
                          for i in range(W.order)])):
        picks = data.draw(st.lists(st.integers(0, A.order - 1), min_size=1,
                                   max_size=2))
        incl = subgroup(A, closure(table, picks))[1]
        assert is_conjugacy_closed(incl) == by_ambient_rule(incl)


# generating sets of subgroups of S2, S3 and S4, the non-abelian ones
# first: S3, D8, A4, S4; S2, C3, C2, C4, V4
BLOCK_TOPS = [[(1, 0, 2), (1, 2, 0)], [(1, 2, 3, 0), (2, 1, 0, 3)],
              [(1, 2, 0, 3), (1, 0, 3, 2)], [(1, 0, 2, 3), (1, 2, 3, 0)],
              [(1, 0)], [(1, 2, 0)], [(1, 0, 2, 3)], [(1, 2, 3, 0)],
              [(1, 0, 3, 2), (2, 3, 0, 1)]]


@st.composite
def block_pullbacks(draw, max_order=96, max_carrier=288):
    """Structure maps (alpha, beta) onto a K <= S_k, k in 2..4, from G and H
    <= S_b wr S_k, acting on k blocks of b points, that share a block
    action.  The top permutations generate K (`BLOCK_TOPS`); G and H each
    lift them with parts of their own drawn from S_b, and may add one
    element fixing every block, so both map onto K by their action on the
    blocks."""
    tops = draw(st.sampled_from(BLOCK_TOPS))
    k = len(tops[0])
    b = draw(st.integers(1, 3 if k == 2 else 2))
    K = group_from_permutation_generators(k, map(Permutation, tops),
                                          label=f"K{k}")
    parts = st.lists(st.permutations(range(b)), min_size=k, max_size=k)

    def lift():
        # (p, top) moves point j*b + i of block j to top[j]*b + p[j][i]
        gens = [(draw(parts), top) for top in tops]
        gens += [(p, range(k)) for p in draw(st.lists(parts, max_size=1))]
        G = group_from_permutation_generators(b * k, [
            Permutation(top[j] * b + p[j][i] for j in range(k)
                        for i in range(b)) for p, top in gens])
        assume(G.order <= max_order)
        return hom_from_generator_images(G, G.generator_indices, K, [
            K.index_of(Permutation(top)) for _, top in gens])

    alpha, beta = lift(), lift()
    assume(alpha.dom.order * beta.dom.order // K.order <= max_carrier)
    return alpha, beta


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_pullbacks())
def test_block_pullbacks_match_oracles_and_the_witness_rule(maps):
    pb = build_pullback(*maps)
    check_against_oracles(pb)
    assert is_conjugacy_closed(pb.incl) == by_ambient_rule(pb.incl)


@pytest.mark.parametrize("base,n", [("C2", 3), ("C4", 2), ("S3", 2),
                                    ("D8", 2)])
def test_closedness_witness_on_every_two_generated_subgroup(base, n):
    W = WreathGroup(catalog_group.__wrapped__(base), n)
    t = W.cayley_table()
    table = [t[i * W.order:(i + 1) * W.order] for i in range(W.order)]
    subsets = {frozenset(closure(table, [a, b]))
               for a in range(W.order) for b in range(a, W.order)}
    choices = 0
    for members in subsets:
        incl = subgroup(W, members)[1]
        assert is_conjugacy_closed(incl) == by_ambient_rule(incl)
        counts = Counter(incl.class_map).values()
        choices += max(counts) > 2 or sum(v > 1 for v in counts) > 1
    assert choices >= 5     # the rule chose among several candidates


def test_production_verdicts_run_no_linear_algebra(monkeypatch, capsys,
                                                   gamma):
    def refuse(*args, **kwargs):
        raise AssertionError("a production verdict ran exact linear algebra")

    for name in ("rank", "rref", "det"):
        monkeypatch.setattr(ratlinalg, name, refuse)
    assert is_conjugacy_closed(gamma.incl)[0] is False
    assert fusion_pattern(gamma.incl)["image_rank"] == 5
    assert verify_class_ring_decomposition(gamma).map_rank == 5
    assert main(["fock", "basis", "S3", "--level", "3"]) == 0
    assert "determinant 13824" in capsys.readouterr().out


def test_building_a_pullback_reads_columns_not_native_products(monkeypatch):
    """With classes and structure maps in place, building S4 x_C2 D12 over
    the sign maps derives every product and subgroup column from factor
    columns: fewer native products than the |S4 x D12| = 288 elements."""
    native = Permutation.__mul__
    calls = []

    def counted(p, q):
        calls.append(1)
        return native(p, q)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    build = catalog_group.__wrapped__     # fresh groups, built counting
    C2 = build("C2")
    signs = []
    for G in (build("S4"), build("D12")):
        G.classes
        gens = G.generator_indices
        signs.append(hom_from_generator_images(
            G, gens, C2, [int(G.elements[g].sign() < 0) for g in gens]))
    before = len(calls)
    pb = build_pullback(*signs)
    assert pb.product.order == 288 and pb.order == 144
    assert len(calls) - before < pb.product.order
