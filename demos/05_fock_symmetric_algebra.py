"""The graded algebra of wreath levels and its free generators.

Level n is the class-function space of G wr S_n; the product of a level-n
and a level-m function is induction of their external product along the
block embedding.  The single-cycle indicators (one per cycle length and
base class) generate freely: monomials in them hit a diagonal, invertible
change of basis against the class indicators.
"""

from wreathfock import (FockElement, TypeMatrix, catalog_group,
                        change_of_basis, delta, fock_product, indicator,
                        module_action_over_sym, one, ratlinalg, wreath_group)

C2 = catalog_group("C2")

d0, d1 = delta(C2, 1, 0), delta(C2, 1, 1)
print("product of the two color generators at level 1:")
prod = fock_product(d0, d1)
print(f"  values on C2 wr S2 classes: {[str(v) for v in prod.values]}")
print(f"  element-sum oracle agrees: "
      f"{prod == fock_product(d0, d1, strategy='elements')}")

for n in (1, 2, 3):
    rows, types = change_of_basis(C2, n)
    print(f"level {n}: {len(types)} monomials, "
          f"det = {ratlinalg.det(rows)}")

# the symmetric-group action through the permutation-part quotient, with
# S3 as the level trivial wr S3: its classes are the partitions of 3
S3 = wreath_group(catalog_group("trivial"), 3)
x = one(wreath_group(C2, 3))
e1 = indicator(S3, S3.class_index_of_type(TypeMatrix([(1, 0, 1), (2, 0, 1)])))
acted = module_action_over_sym(e1, x)
print(f"\ntransposition-indicator acting on 1 at level 3: "
      f"support {acted.support()}")

# graded elements collect levels; products truncate above max_level
u = FockElement.unit(C2, max_level=3)
a = FockElement.generator(C2, 1, 0, max_level=3)
b = FockElement.generator(C2, 2, 1, max_level=3)
z = (u + a) * (u + b)
print(f"\n(1 + D(1,0)) * (1 + D(2,1)) has levels {sorted(z.levels)}")
print(f"level-3 slice values: {[str(v) for v in z.level(3).values]}")
