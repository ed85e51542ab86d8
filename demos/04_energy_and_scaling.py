"""Yang-Mills energy and the collapse of the gluing error.

The two SU(2) fundamental calorons at omega' = 1/4 carry energy
2 omega' = 1/2 and 1 - 2 omega' = 1/2; the glued approximate caloron's
self-dual error shrinks like eps^4 |ln eps|^3 as the circle collapses.
"""

import math

import numpy as np

from calorons import (
    CaloronSpec,
    Constituent,
    FundamentalCaloron,
    approximate_caloron,
    build_root_datum,
    energy_and_tr_f_wedge_f,
    sd_error_l2,
)
from calorons.quadrature import desk_grid

su2 = build_root_datum("A", 1)
for mu, name, formula in ((1, "circle-invariant", "2 omega'"), (0, "rotated", "1 - 2 omega'")):
    print(f"== energy of the {name} fundamental caloron (mu = {mu}) ==")
    samp = FundamentalCaloron(su2, mu, (0.25, -0.25), epsilon=1.0)
    grid = desk_grid([np.zeros(3)], [1.0 / (2 * samp.v)], 1.0)
    e, q = energy_and_tr_f_wedge_f(samp, grid)  # tail from the caloron's charge
    print(f"  quadrature: {grid.total_points()} points, tail beyond r = {grid.r_max:.0f} added analytically")
    print(f"  energy = {e.raw:.6f} (ball) + {e.tail:.6f} (tail) = {e.value:.6f}   [{formula} = 0.5]")
    print(f"  -(1/8 pi^2) Tr(F ^ F) = {q:.6f}   [= energy: the field is a caloron]\n")

print("== self-dual error scaling under circle collapse ==")
rows = []
for eps in (0.1, 0.05, 0.025):
    spec = CaloronSpec(
        epsilon=eps, series="A", rank=1, omega=(0.25, -0.25),
        constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
    )
    glued = approximate_caloron(spec)
    err = sd_error_l2(glued)
    rows.append((eps, glued.R, err.total_sq))
    print(f"  eps = {eps:<6} R = {glued.R:.4f}  ||F+||^2 = {err.total_sq:.4e}")

xs = [math.log(e) for e, _, _ in rows]
ys = [math.log(v / abs(math.log(e)) ** 3) for e, _, v in rows]
slope = np.polyfit(xs, ys, 1)[0]
print(f"\n  |ln eps|^3-corrected log-log slope: {slope:.2f}  (the eps^4 law)")
