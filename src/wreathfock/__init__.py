"""Exact class-function algebra on finite groups and their wreath products.

Everything is computed over ``fractions.Fraction`` — no floats anywhere.
The main layers, bottom to top:

* :mod:`wreathfock.groups` — enumerated finite groups, conjugacy classes,
  homomorphisms, direct products, subgroups.
* :mod:`wreathfock.classfun` — class functions with restriction, induction
  (two independent strategies), and pullback.
* :mod:`wreathfock.wreath` — wreath products ``G wr S_n`` whose conjugacy
  theory is driven by cycle-type matrices, without enumerating elements.
* :mod:`wreathfock.pullback` — fibered products ``G x_K H`` and the tensor
  decomposition of their class rings.
* :mod:`wreathfock.fock` — the graded algebra whose level-``n`` piece is
  the class-function space of ``G wr S_n``, with its fusion product,
  generator basis, and Künneth-style product identity.
"""

from .classfun import (ClassFunction, external_product, indicator,
                       indicator_basis, induce, inner_product, one,
                       pullback_along, restrict, span_rank, zero)
from .catalog import catalog_group, resolve_group
from .fock import (FockElement, change_of_basis, delta, fock_product,
                   graded_dimension_series, kunneth_generator_identity,
                   module_action_over_sym, monomial_value)
from .groups import (FiniteGroup, Homomorphism, NotAHomomorphismError,
                     NotASubgroupError, Permutation, ResourceLimitError,
                     centralizer, check_group_axioms, compose_homs,
                     direct_product, group_from_permutation_generators,
                     hom_from_generator_images, subgroup)
from .pullback import (PullbackGroup, build_pullback, class_pair_splitting,
                       fusion_pattern, is_conjugacy_closed,
                       n_cycle_classes_closed, restriction_map_matrix,
                       semidirect_product_iso, tensor_over_classk,
                       verify_class_ring_decomposition)
from .wreath import (TypeMatrix, WreathElement, WreathGroup,
                     centralizer_order, class_count_series, classes_by_type,
                     cycle_product, embed_product, quotient_to_symmetric,
                     type_of, wreath_group)

__version__ = "0.1.0"

__all__ = [
    "ClassFunction", "FiniteGroup", "FockElement", "Homomorphism",
    "NotAHomomorphismError", "NotASubgroupError", "Permutation",
    "PullbackGroup", "ResourceLimitError", "TypeMatrix", "WreathElement",
    "WreathGroup", "build_pullback", "catalog_group", "centralizer",
    "centralizer_order", "change_of_basis", "check_group_axioms",
    "class_count_series", "class_pair_splitting", "classes_by_type",
    "compose_homs", "cycle_product", "delta", "direct_product",
    "embed_product", "external_product", "fock_product", "fusion_pattern",
    "graded_dimension_series", "group_from_permutation_generators",
    "hom_from_generator_images", "indicator", "indicator_basis", "induce",
    "inner_product", "is_conjugacy_closed", "kunneth_generator_identity",
    "module_action_over_sym", "monomial_value", "n_cycle_classes_closed",
    "one", "pullback_along", "quotient_to_symmetric", "resolve_group",
    "restrict", "restriction_map_matrix", "semidirect_product_iso",
    "span_rank", "subgroup", "tensor_over_classk", "type_of",
    "verify_class_ring_decomposition", "wreath_group", "zero",
]
