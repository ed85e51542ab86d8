"""Verification suite for a constructed approximate caloron.

Runs every invariant that is checkable at desk scale for a given spec:
gluing feasibility, local alcove data, Bogomolny residuals at the cores,
localization and pointwise bound of the self-dual error, gauge-patch
consistency on the annuli, charge recovery, holonomy at infinity, and the
energy against its closed-form value.  Produces a FieldReport plus a
pass/fail ledger.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

import numpy as np

from .assembler import ApproximateCaloron, CaloronSpec, alcove_margin_report, approximate_caloron
from .fieldcalc import (
    CurvatureSample,
    FieldReport,
    _core_step,
    _far_step,
    _flux_radius,
    curvature_at,
    energy_and_tr_f_wedge_f,
    magnetic_charge,
    sd_error_l2,
    sphere_averaged_holonomy,
)
from .indexes import energy_formula
from .quadrature import desk_grid
from .rootsys import alcove_margin


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: {self.value:.6g} (tol {self.tolerance:.3g}){extra}"


def energy_formula_float(spec: CaloronSpec) -> float:
    """Closed-form Yang-Mills energy of the spec's charge data, evaluated
    exactly by `indexes.energy_formula` and rounded once to a float."""
    return float(energy_formula(spec.datum, spec.omega, spec.counts()))


def field_integrals(samp: ApproximateCaloron, grid="desk"):
    """(sd error, energy, trF^F, volume grid) of a glued caloron: its
    `sd_error_l2`, then its energy and trF^F over the desk (or "fine") grid
    about its constituents, at their core scales 1/(2v).  The sd error goes
    first: its shell stencil, the largest sampler call, sets the peak memory
    of a verify run, so no volume grid is held while it runs."""
    sd = sd_error_l2(samp)
    core_scales = [1.0 / (2.0 * f.v) for f in samp.locals]
    vol = desk_grid(list(samp.positions), core_scales, samp.spec.d_max_eff, fine=(grid == "fine"))
    energy, topo = energy_and_tr_f_wedge_f(samp, vol)
    return sd, energy, topo, vol


def _normal(rng, rows):
    """(rows, 3) standard normal probe coordinates."""
    return np.array([[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(rows)])


def _uniform(rng, lo, hi, n):
    return np.array([rng.uniform(lo, hi) for _ in range(n)])


def run_verification(spec: CaloronSpec, grid="desk", seed: int = 0):
    """Full invariant suite; returns (FieldReport, [Check])."""
    rng = random.Random(seed)
    checks: List[Check] = []
    eps = spec.epsilon
    samp = approximate_caloron(spec)
    R = samp.R
    datum = spec.datum
    fd_step = _core_step(eps)  # finite-difference probes only

    # 1. alcove membership of omega and of every local parameter
    margin = float(alcove_margin(datum, spec.omega))
    checks.append(Check("alcove-omega-margin", margin > 0, margin, 0.0))
    shifts = samp.omega_shifts
    shift_margin = min(float(alcove_margin(datum, om)) for om in shifts)
    checks.append(Check("alcove-local-parameters", shift_margin > 0, shift_margin, 0.0))

    # shift-size bound eps (n-1) max|coroot| / (2 d_min)
    if len(spec.constituents) > 1:
        max_norm = max(
            math.sqrt(float(datum.norm_sq(datum.node_coroot(c.mu))))
            for c in spec.constituents
        )
        bound = eps * (len(spec.constituents) - 1) * max_norm / (2.0 * spec.d_min)
        worst = max(
            float(np.linalg.norm(np.asarray(om) - np.asarray(spec.omega)))
            for om in shifts
        )
        checks.append(
            Check("holonomy-shift-bound", worst <= bound * 1.0000001, worst, bound)
        )

    # 2. gluing feasibility
    feas = R < spec.d_min / 2.0
    checks.append(Check("gluing-radius", feas, R, spec.d_min / 2.0, f"R/eps={R / eps:.2f}"))

    # 3. Bogomolny residual at the cores (self-dual error ~ FD noise)
    core_pts = []
    for p in spec.positions:
        u = _normal(rng, 8)
        u *= (0.3 * R / np.linalg.norm(u, axis=1))[:, None]
        core_pts.append(p + u)
    core_pts = np.concatenate(core_pts)
    ts = _uniform(rng, 0.0, 2.0 * np.pi, len(core_pts))
    curv = curvature_at(samp, core_pts, ts, step=fd_step)
    core_sd = float(np.sqrt(np.max(curv.sd_norm_sq())))
    checks.append(Check("core-self-dual-error", core_sd < 1e-3, core_sd, 1e-3))

    # 4. exterior region exactly abelian: FD self-dual error at far probes
    far_pts = _normal(rng, 24)
    far_pts /= np.linalg.norm(far_pts, axis=1)[:, None]
    far_pts *= (spec.d_max + 3.0 * R + 1.0) * _uniform(rng, 1.0, 2.0, 24)[:, None]
    curv = curvature_at(samp, far_pts, 0.0, step=_far_step(eps))
    far_sd = float(np.sqrt(np.max(curv.sd_norm_sq())))
    checks.append(Check("far-self-dual-error", far_sd < 1e-6, far_sd, 1e-6))

    # 5. annulus pointwise bound: |F+| <= C [(1/r) max(|b|,|s|) + max(|b|^2,|s|^2)]
    #    with C from the cutoff profile (sup|r chi'| <= 15/4, plus the
    #    quadratic mixing term), on the closed-form curvature; the same
    #    points cross-check that closed form against finite differences and
    #    check that its gauge-invariant densities are the same at t + pi,
    #    which the one-slice integrals assume
    per = max(200 // max(len(spec.constituents), 1), 10)
    probes = []
    for k, p in enumerate(spec.positions):
        u = _normal(rng, per)
        u /= np.linalg.norm(u, axis=1)[:, None]
        radii = _uniform(rng, 0.5 * R, R, per)
        pts = p + radii[:, None] * u
        tk = _uniform(rng, 0.0, 2.0 * np.pi, per)
        bound = np.empty(per)
        for patch, sel in (("N", pts[:, 2] >= p[2]), ("S", pts[:, 2] < p[2])):
            if np.any(sel):
                parts = samp.annulus_parts(k, patch, pts[sel], tk[sel])
                (zA, bP), (sA, sP) = parts["b"], parts["s"]  # |i diag(d)| = |d|; z enters twice
                b_norm = np.sqrt(2.0 * np.sum(np.abs(zA) ** 2, axis=-1) + np.sum(bP**2, axis=-1))
                mx = np.maximum(b_norm, np.sqrt(np.sum(sA**2, axis=(-2, -1)) + np.sum(sP**2, axis=-1)))
                bound[sel] = mx / parts["r"] + mx**2
        probes.append((pts, tk, bound))
    pts, tk, bound = (np.concatenate(a) for a in zip(*probes))
    curv = CurvatureSample(*samp.exact_curvature(pts, tk))
    shifted = CurvatureSample(*samp.exact_curvature(pts, tk + np.pi))
    fd = curvature_at(samp, pts, tk, step=fd_step)
    worst_ratio = float(np.max(np.sqrt(curv.sd_norm_sq()) / np.maximum(bound, 1e-300)))
    worst_fd = max(np.max(np.abs(fd.E - curv.E)), np.max(np.abs(fd.B - curv.B)))
    max_f = max(np.max(np.abs(curv.E)), np.max(np.abs(curv.B)))
    worst_dt = max(float(np.max(np.abs(density(curv) - density(shifted))))
                   for density in (CurvatureSample.norm_sq, CurvatureSample.sd_norm_sq,
                                   CurvatureSample.topological_density))
    max_f2 = float(np.max(curv.norm_sq()))
    c_profile = 15.0 / 4.0 * 2.0 + 2.0
    checks.append(
        Check("annulus-fplus-bound", worst_ratio <= c_profile, worst_ratio, c_profile)
    )
    fd_gap = float(worst_fd / max(max_f, 1e-300))
    checks.append(
        Check("annulus-closed-form-vs-fd", fd_gap < 1e-5, fd_gap, 1e-5, f"max|F| = {max_f:.4g}")
    )
    dt_gap = worst_dt / max(max_f2, 1e-300)
    checks.append(Check("density-t-invariance", dt_gap < 1e-12, dt_gap, 1e-12))

    # 6. gauge patch consistency on the annuli: the north and south
    #    presentations differ by the recorded abelian transition
    worst_gauge = 0.0
    for k, cst in enumerate(spec.constituents):
        p = spec.positions[k]
        u = _normal(rng, 12)
        u /= np.linalg.norm(u, axis=1)[:, None]
        u[:, 2] *= 0.2  # stay near the equator, away from both strings
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = p + _uniform(rng, 0.55 * R, 0.95 * R, 12)[:, None] * u
        tk = _uniform(rng, 0.0, 2.0 * np.pi, 12)
        aN, pN = samp._annulus_eval(k, "N", pts, tk)
        aS, pS = samp._annulus_eval(k, "S", pts, tk)
        rel = pts - p
        # the transition u = exp(-i phi gamma_k) is diagonal: u^-1 X u = conj(u_i) X_il u_l
        gamma = samp.singular.coroots[k]
        u = np.exp(-1j * np.outer(np.arctan2(rel[:, 1], rel[:, 0]), gamma))
        conj = np.conjugate(u)[:, :, None] * u[:, None, :]
        # grad(phi) = (-y, x, 0)/rho^2
        rho2 = rel[:, 0] ** 2 + rel[:, 1] ** 2
        dphi = np.stack([-rel[:, 1] / rho2, rel[:, 0] / rho2, np.zeros(len(pts))], axis=-1)
        pred_A = conj[:, None] * aN - dphi[..., :, None, None] * (1j * np.diag(gamma))
        pred_P = conj * pN
        err = max(float(np.max(np.abs(aS - pred_A))), float(np.max(np.abs(pS - pred_P))))
        worst_gauge = max(worst_gauge, err)
    checks.append(Check("gauge-patch-consistency", worst_gauge < 1e-10, worst_gauge, 1e-10))

    # 7. alcove containment of the abelian Higgs field with a global margin
    rep1 = alcove_margin_report(samp, refine=1)
    rep2 = alcove_margin_report(samp, refine=2)
    sigma = rep2["sigma"]
    stable = abs(rep2["sigma"] - rep1["sigma"]) <= 0.1 * abs(rep1["sigma"])
    checks.append(
        Check(
            "alcove-containment-sigma",
            sigma > 0 and stable,
            sigma,
            0.0,
            f"refinement drift {abs(rep2['sigma'] - rep1['sigma']):.2e}",
        )
    )

    # 8. magnetic charge recovery
    coeffs, resid = magnetic_charge(samp, _flux_radius(spec.d_max))
    expected = spec.charge_coefficients()
    ok = coeffs == expected and resid < 0.05
    checks.append(
        Check("magnetic-charge", ok, resid, 0.05, f"recovered {coeffs}, expected {expected}")
    )

    # 9. holonomy at infinity vs the abelian model
    L = 10.0 * spec.d_max_eff
    phases = sphere_averaged_holonomy(samp, L)
    gamma_vec = spec.charge_vector()
    model = 2.0 * np.pi * (np.asarray(spec.omega) - eps * gamma_vec / (2.0 * L))
    model = np.sort(model)[::-1]
    hol_err = float(np.max(np.abs(phases - model)))
    checks.append(Check("holonomy-infinity", hol_err < 1e-4, hol_err, 1e-4))

    # 10. self-dual error: localization on the annuli
    sd, energy, topo, vol = field_integrals(samp, grid)
    checks.append(
        Check(
            "sd-error-localization",
            sd.annulus_fraction >= 0.95,
            sd.annulus_fraction,
            0.95,
            f"||F+||_L2 = {sd.value:.4g}",
        )
    )

    # 11. energy against the closed-form value
    formula = energy_formula_float(spec)
    rel_err = abs(energy.value - formula) / max(abs(formula), 1e-12)
    checks.append(
        Check("energy-vs-formula", rel_err < 0.02, energy.value, 0.02, f"formula {formula:.6g}")
    )

    report = FieldReport(
        ym_energy=energy.value,
        ym_energy_raw=energy.raw,
        energy_formula=formula,
        sd_error_l2=sd.value,
        sd_annulus_fraction=sd.annulus_fraction,
        recovered_charge=coeffs,
        charge_residual=resid,
        holonomy_eigenphases=tuple(float(p) for p in phases),
        holonomy_model_phases=tuple(float(p) for p in model),
        tr_f_wedge_f=topo,
        grid={
            "preset": vol.meta.get("preset"),
            "points": vol.total_points(),
            "r_max": vol.r_max,
            "nt": vol.nt,
            "fd_step": fd_step,
            "seed": seed,
            "gluing_radius": R,
            "alcove_sigma": sigma,
            "annulus_gauge": "two-patch abelian; spectator constant 1-forms subtracted at the centre",
        },
    )
    return report, checks
