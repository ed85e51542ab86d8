"""Exact root-system combinatorics and the closed-form index formulas.

Everything here runs in rational arithmetic: alcove geometry, charge
decompositions, Dynkin indices, the vanishing transverse index, and the
twisted Dirac index family with its jump structure.
"""

import random
from fractions import Fraction

from calorons import (
    adjoint_weights,
    alcove_margin,
    build_root_datum,
    decompose_charge,
    dynkin_index_adjoint,
    energy_formula,
    moduli_dimension,
    random_interior_omega,
    transverse_index,
    twisted_dirac_index,
)
from calorons.indexes import jump_loci

print("== root data for every simple series ==")
print(f"{'type':>5} {'|R+|':>5} {'dual Coxeter labels':>24} {'ind_Ad':>7}")
for label in ("A3", "B3", "C4", "D5", "E6", "F4", "G2"):
    d = build_root_datum(label[0], int(label[1]))
    print(f"{label:>5} {len(d.positive_roots):>5} {str(d.dual_coxeter_labels):>24} "
          f"{dynkin_index_adjoint(d):>7}")

print("\n== alcove and charges (SU(3)) ==")
d = build_root_datum("A", 2)
bc = d.alcove_barycenter()
print("  barycenter:", bc, " inside with margin 1/3:", alcove_margin(d, bc) >= Fraction(1, 3))
n = decompose_charge(d, (0, 0), 2)
print("  gamma_m = 0 with n0 = 2 decomposes as n =", n)
print("  moduli dimension 4 sum(n) =", moduli_dimension(n))
print("  energy at the barycenter:", energy_formula(d, bc, n))

print("\n== the transverse index vanishes exactly at every node ==")
rng = random.Random(1)
for label in ("A2", "C3", "F4", "G2"):
    d = build_root_datum(label[0], int(label[1]))
    for mu in range(d.rank + 1):
        om = random_interior_omega(d, rng)
        rep = transverse_index(d, mu, om)
        print(f"  {label} mu={mu}: chern {str(rep.chern_term):>9}  "
              f"boundary {str(rep.boundary_term):>9}  total {rep.total_index}")

print("\n== twisted Dirac index: piecewise constant in s ==")
d = build_root_datum("A", 2)
rep = adjoint_weights(d)
om = tuple(x / 5 for x in d.alcove_barycenter())
loci = jump_loci(d, rep, om)
print("  jump loci:", loci)
gamma, n0 = (1, 0), 1
s_values = [Fraction(1, 100)] + [s + Fraction(1, 1000) for s in loci]
for s in s_values:
    val = twisted_dirac_index(d, rep, om, gamma, n0, s)
    print(f"  index(s={s}) = {val}")
