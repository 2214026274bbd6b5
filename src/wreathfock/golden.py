"""One-shot reproduction of the library's worked examples.

Each check recomputes a documented example from scratch and reports a
(name, passed, detail) triple; `run_all` drives the whole ledger.  The CLI
exposes these under the ``golden`` subcommand.
"""

from __future__ import annotations

from fractions import Fraction

from . import ratlinalg
from .catalog import catalog_group
from .classfun import indicator, induce
from .fock import (change_of_basis, delta, fock_product,
                   graded_dimension_series, kunneth_generator_identity)
from .groups import Permutation, hom_from_generator_images, subgroup
from .pullback import (build_pullback, fusion_pattern, n_cycle_closed_brute,
                       semidirect_product_iso, verify_class_ring_decomposition)
from .wreath import WreathElement, type_of


def check_c4_type_table():
    """One element of C4 wr S5: five copies of the generator g under the
    permutation (0 1)(2 3 4) has one 2-cycle with product g^2 and one
    3-cycle with product g^3."""
    C4 = catalog_group("C4")
    x = WreathElement((1, 1, 1, 1, 1),
                      Permutation.from_cycles(5, [(0, 1), (2, 3, 4)]))
    t = type_of(C4, x)
    expected = ((2, 2, 1), (3, 3, 1))
    lines = ["type of ((g,g,g,g,g), (0 1)(2 3 4)) in C4 wr S5:"]
    for r, c, m in t.entries:
        lines.append(f"  m({r}-cycle, class of g^{c}) = {m}")
    return "c4-type-table", t.entries == expected, "\n".join(lines)


def _sign_hom():
    S3, C2 = catalog_group("S3"), catalog_group("C2")
    return hom_from_generator_images(S3, S3.generator_indices, C2, [1, 0],
                                     label="sign")


def check_s3xs3_pullback():
    """S3 x_{C2} S3 over the sign maps: order 18, six classes against nine
    ambient ones, not conjugacy-closed (two 3-cycle pairs witness it), and
    the restriction map has rank 5 with one ambient class splitting."""
    S3 = catalog_group("S3")
    sgn = _sign_hom()
    pb = build_pullback(sgn, sgn)
    pat = fusion_pattern(pb.incl)
    rep = verify_class_ring_decomposition(pb)
    wit_ok = False
    if rep.witness:
        orders = [S3.element_order(i) for pair in rep.witness for i in pair]
        wit_ok = orders == [3, 3, 3, 3]
    ok = (pb.order == 18 and pat["sub_classes"] == 6
          and pat["ambient_classes"] == 9
          and pat["bijective"] == 4 and pat["splitting"] == 1
          and pat["max_split"] == 2 and pat["empty"] == 4
          and pat["kernel_dim"] == 4
          and pat["image_rank"] == 5 and not pat["surjective"]
          and not rep.conj_closed and wit_ok
          and rep.quotient_dim == 5 and rep.map_rank == 5
          and not rep.is_isomorphism)
    detail = "\n".join([
        f"|Gamma| = {pb.order}; {pat['sub_classes']} classes vs "
        f"{pat['ambient_classes']} ambient",
        f"fusion pattern: {pat['bijective']} ambient classes contain one "
        f"Gamma-class, {pat['splitting']} splits into {pat['max_split']}, "
        f"{pat['empty']} contain none",
        f"restriction map: rank {pat['image_rank']}, kernel dim "
        f"{pat['kernel_dim']}, surjective = {pat['surjective']}",
        f"conjugacy-closed = {rep.conj_closed}; witness = {rep.witness}",
        f"tensor quotient dim {rep.quotient_dim}, map rank {rep.map_rank}, "
        f"isomorphism = {rep.is_isomorphism}",
    ])
    return "s3xs3-pullback", ok, detail


def check_d12_dic3_pullback():
    """D12 x_{S3} Dic3: generator triples of orders (2,2,3) and (4,2,3)
    mapping to ((2,3), id, (1,2,3)); the pullback has order 24, is
    conjugacy-closed, and its class ring decomposes as the tensor product."""
    S3 = catalog_group("S3")
    D12 = catalog_group("D12")
    Dic3 = catalog_group("Dic3")
    r, s = D12.generator_indices
    d1, d2, d3 = s, D12.mul(r, D12.mul(r, r)), D12.mul(r, r)
    t23 = S3.index_of(Permutation([0, 2, 1]))
    c123 = S3.index_of(Permutation([1, 2, 0]))
    psi1 = hom_from_generator_images(D12, [d1, d2, d3], S3,
                                     [t23, 0, c123], label="psi1")
    psi2 = hom_from_generator_images(Dic3, list(Dic3.generator_indices), S3,
                                     [t23, 0, c123], label="psi2")
    orders1 = [D12.element_order(x) for x in (d1, d2, d3)]
    orders2 = [Dic3.element_order(x) for x in Dic3.generator_indices]
    pb = build_pullback(psi1, psi2)
    rep = verify_class_ring_decomposition(pb)
    ok = (orders1 == [2, 2, 3] and orders2 == [4, 2, 3]
          and psi1.is_surjective() and psi2.is_surjective()
          and pb.order == 24 and rep.conj_closed and rep.is_isomorphism
          and rep.quotient_dim == 12 and rep.map_rank == 12
          and rep.carrier_classes == 12)
    detail = "\n".join([
        f"generator orders: D12 {orders1}, Dic3 {orders2}",
        f"|Gamma| = {pb.order}, {rep.carrier_classes} classes",
        f"conjugacy-closed = {rep.conj_closed}",
        f"tensor quotient dim {rep.quotient_dim}, map rank {rep.map_rank}, "
        f"isomorphism = {rep.is_isomorphism}",
    ])
    return "d12-dic3-pullback", ok, detail


def check_induction_examples():
    """Inducing the (1,2,3)-indicator from C3 up to S3 hits the whole
    3-cycle class; inducing 1 from the trivial subgroup gives the regular
    class function |G| at the identity."""
    S3 = catalog_group("S3")
    C3 = catalog_group("C3")
    three = S3.index_of(Permutation([1, 2, 0]))
    incl = hom_from_generator_images(C3, C3.generator_indices, S3, [three],
                                     label="C3 into S3")
    f = induce(indicator(C3, C3.classes.class_of_index(1)), incl)
    cyc_class = S3.classes.class_of_index(three)
    want = indicator(S3, cyc_class)
    triv_sub, triv_incl = subgroup(S3, [0])
    reg = induce(indicator(triv_sub, 0), triv_incl)
    reg_ok = reg.values[S3.classes.class_of_index(0)] == 6 and \
        sum(1 for v in reg.values if v) == 1
    ok = f == want and reg_ok
    detail = (f"Ind_C3^S3 [one 3-cycle] = {list(map(str, f.values))} "
              f"(indicator of the whole 3-cycle class); "
              f"Ind_1^S3 1 = {list(map(str, reg.values))}")
    return "induction-examples", ok, detail


def check_delta_basis():
    """Level-2 products over the trivial group ([[2,0],[0,1]]) and exact
    invertibility of the change-of-basis matrix for C2 up to level 3."""
    triv = catalog_group("trivial")
    rows, _ = change_of_basis(triv, 2)
    first = [[int(v) for v in row] for row in rows]
    dets = []
    for n in (1, 2, 3):
        m, _ = change_of_basis(catalog_group("C2"), n)
        dets.append(ratlinalg.det(m))
    ok = first == [[2, 0], [0, 1]] and all(d != 0 for d in dets)
    detail = (f"trivial-group level-2 matrix {first}; "
              f"C2 determinants at levels 1..3: {[str(d) for d in dets]}")
    return "delta-basis", ok, detail


def check_series():
    """Class counts of wreath levels against the product-formula series:
    partitions for the trivial group, two-colored partitions for C2."""
    triv_counts, triv_series = graded_dimension_series(
        catalog_group("trivial"), 6)
    c2_counts, c2_series = graded_dimension_series(catalog_group("C2"), 6)
    ok = (triv_counts == triv_series == [1, 1, 2, 3, 5, 7, 11]
          and c2_counts == c2_series == [1, 2, 5, 10, 20, 36, 65])
    detail = (f"trivial: {triv_counts}; C2: {c2_counts}")
    return "graded-series", ok, detail


def check_kunneth():
    """The generator identity over C2 x C3, levels 1 and 2, all colors: it
    holds by class counts and its n-cycle class is closed by elements
    (`n_cycle_closed_brute`)."""
    C2, C3 = catalog_group("C2"), catalog_group("C3")
    by_elements = {n: n_cycle_closed_brute(C2, C3, n) for n in (1, 2)}
    results = [kunneth_generator_identity(C2, C3, n, c, d)
               and by_elements[n][c * 3 + d][2]
               for n in (1, 2) for c in range(2) for d in range(3)]
    return ("kunneth-generators", all(results),
            f"{sum(results)}/{len(results)} color pairs agree at levels 1-2")


def check_semidirect():
    """(C2 x C3) wr S2 is the pullback of C2 wr S2 and C3 wr S2 over S2."""
    C2, C3 = catalog_group("C2"), catalog_group("C3")
    pb, phi = semidirect_product_iso(C2, C3, 2)
    ok = phi.is_injective() and phi.dom.order == pb.carrier.order == 72
    return ("semidirect-as-pullback", ok,
            f"split map is a bijective homomorphism onto the order-"
            f"{pb.carrier.order} carrier")


ALL_CHECKS = [
    check_c4_type_table,
    check_s3xs3_pullback,
    check_d12_dic3_pullback,
    check_induction_examples,
    check_delta_basis,
    check_series,
    check_kunneth,
    check_semidirect,
]


def run_all():
    return [fn() for fn in ALL_CHECKS]
