"""Gluing an SU(3) caloron from three constituent monopoles.

Builds the singular abelian background, computes the gluing radius and the
local holonomy parameters, assembles the approximate caloron, and verifies
its footprint: the self-dual error lives only on the matching annuli, the
2-sphere flux recovers the magnetic charge, and the circle holonomy at
infinity matches the abelian model.
"""

import numpy as np

from calorons import (
    CaloronSpec,
    Constituent,
    approximate_caloron,
    curvature_at,
    magnetic_charge,
    sd_error_l2,
    sphere_averaged_holonomy,
)

spec = CaloronSpec(
    epsilon=0.02,
    series="A",
    rank=2,
    omega=(1 / 3, 0.0, -1 / 3),
    constituents=[
        Constituent(mu=0, position=(2.5, 0.0, 0.1), phase=0.4),
        Constituent(mu=1, position=(-1.4, 2.3, -0.2), phase=1.1),
        Constituent(mu=2, position=(-1.2, -2.4, 0.15), phase=0.0),
    ],
    gluing_c=0.15,
)
samp = approximate_caloron(spec)

print("== construction data ==")
print(f"  constituent counts (n0, n1, n2): {spec.counts()}")
print(f"  total magnetic charge coefficients: {spec.charge_coefficients()} (cancels)")
print(f"  gluing radius R = {samp.R:.4f}  (R/eps = {samp.R / spec.epsilon:.1f}, d_min = {spec.d_min:.2f})")
print("  local holonomy parameters (shift from omega is O(eps)):")
for k, om in enumerate(samp.omega_shifts):
    shift = np.linalg.norm(np.array(om) - np.array(spec.omega))
    print(f"    constituent {k}: |omega_k - omega| = {shift:.5f}")

print("\n== the self-dual error lives on the gluing annuli ==")
rng = np.random.default_rng(3)
for name, scale in (("core (r = 0.3 R)", 0.3), ("annulus (r = 0.75 R)", 0.75), ("exterior (r = 2 R)", 2.0)):
    pts = []
    for p in samp.positions:
        u = rng.normal(size=(6, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts.append(p + scale * samp.R * u)
    pts = np.concatenate(pts)
    ts = rng.uniform(0, 2 * np.pi, len(pts))
    curv = curvature_at(samp, pts, ts, step=spec.epsilon / 100)
    print(f"  max |F+| {name:>22}: {np.sqrt(np.max(curv.sd_norm_sq())):.3e}")

err = sd_error_l2(samp)
print(f"  ||F+||_L2 = {err.value:.4f}, fraction on annuli = {err.annulus_fraction:.6f}")

print("\n== charges and holonomy at infinity ==")
coeffs, resid = magnetic_charge(samp, radius=8.0)
print(f"  flux-recovered charge: {coeffs} (residual {resid:.1e})")
L = 10 * spec.d_max
phases = sphere_averaged_holonomy(samp, L)
model = np.sort(2 * np.pi * np.array(spec.omega))[::-1]  # gamma_m = 0 here
print(f"  holonomy Cartan element at |x| = {L:.0f}: {phases}")
print(f"  abelian model 2 pi w(omega):        {model}")
