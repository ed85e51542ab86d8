"""The charge-1 BPS monopole and the rotation map.

Walks through the two SU(2) building blocks: the explicit Bogomolny
solution, its framing into an abelian gauge, and the t-dependent large
gauge transformation that produces the rotated monopole with opposite
magnetic charge and unit instanton number.
"""

import numpy as np

from calorons import (
    BPSCaloron,
    RotatedBPSCaloron,
    bps_fields,
    circle_holonomy,
    curvature_at,
    hedgehog_framing,
    rotation_gauge,
)
from calorons.su2 import bps_higgs_profile

rng = np.random.default_rng(0)

print("== the BPS monopole ==")
print("Phi and A vanish at the core:", [np.max(np.abs(f)) for f in bps_fields(np.zeros(3), v=1.0)])
for r in (0.5, 2.0, 5.0, 10.0):
    print(f"  |Phi|({r:4.1f}) = {bps_higgs_profile(1.0, r):.6f}   (mass v = 1 is the bound)")

print("\nthe Bogomolny equation makes the caloron anti-self-dual:")
samp = BPSCaloron(omega_prime=0.25, epsilon=1.0)
pts = rng.uniform(-2, 2, (20, 3))
curv = curvature_at(samp, pts, 0.0, step=1e-3)
print(f"  max |F+| over 20 random points: {np.sqrt(np.max(curv.sd_norm_sq())):.2e}")
print(f"  max |F-|:                       {np.sqrt(np.max(curv.asd_norm_sq())):.2e}")

print("\n== the hedgehog framing ==")
x = rng.normal(size=(5, 3))
f = hedgehog_framing(x)
finv = np.conjugate(np.swapaxes(f, -1, -2))
_, Phi = bps_fields(x, 1.0)
framed = finv @ Phi @ f
offdiag = np.max(np.abs(framed[..., 0, 1]))
print(f"  framed Higgs off-diagonal magnitude: {offdiag:.2e} (diagonalized)")

print("\n== the rotation map ==")
g = rotation_gauge(omega_prime=0.25, epsilon=1.0)
far = np.array([[0.0, 0.0, 5.0]])
print("  g(x, 0)      = id:", np.allclose(g(far, 0.0), np.eye(2)))
print("  g(x, 2 pi)   = -id outside the core:", np.allclose(g(far, 2 * np.pi), -np.eye(2)))
print("  clutching h  = id there:", np.allclose(g.clutching(far), np.eye(2)))

rot = RotatedBPSCaloron(omega_prime=0.25, epsilon=1.0)
xprobe = np.array([6.0, 2.0, 3.0])
r = np.linalg.norm(xprobe)
phases = circle_holonomy(rot, xprobe, n_steps=96)
model = 2 * np.pi * (0.25 + 1.0 / (2 * r))
print(f"\n  rotated-monopole holonomy phases at r={r:.2f}: {phases}")
print(f"  charge -1 abelian model:                    [{model:+.6f} {-model:+.6f}]")

c_rot = curvature_at(rot, pts, rng.uniform(0, 2 * np.pi, 20), step=2e-4)
c_ref = curvature_at(BPSCaloron(0.25, 1.0), pts, 0.0, step=2e-4)
print(f"\n  |F|^2 pointwise match with the mass-matched BPS caloron: "
      f"{np.max(np.abs(c_rot.norm_sq() - c_ref.norm_sq())):.2e} (gauge invariance)")
