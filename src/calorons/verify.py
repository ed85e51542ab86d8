"""Verification suite for a constructed approximate caloron.

Runs every invariant that is checkable at desk scale for a given spec:
gluing feasibility, local alcove data, Bogomolny residuals at the cores,
localization and pointwise bound of the self-dual error, gauge-patch
consistency on the annuli, charge recovery, holonomy at infinity, and the
energy against its closed-form value.  Produces a FieldReport plus a
ledger of `Check`s, one per compared quantity, each printed as the
comparison `value op bound` that decides it.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

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

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One ledger line: it passes when `value op bound` holds."""

    name: str
    value: float
    bound: float
    op: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return _OPS[self.op](self.value, self.bound)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: {self.value:.6g} {self.op} {self.bound:.6g}{extra}"


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


def _unit(u):
    return u / np.linalg.norm(u, axis=1)[:, None]


# The checks: each takes the shared context (spec, glued caloron, the probe
# generator, drawn from in check order, and the volume grid preset) and
# returns (its Checks, the FieldReport values it computed).

def _construction(spec, samp, rng, grid):
    """omega and every local parameter omega_k in the open alcove, the shift
    bound |omega_k - omega| <= eps (N - 1) max|coroot| / (2 d_min) for N
    constituents, and gluing feasibility."""
    datum, shifts = spec.datum, samp.omega_shifts
    checks = [
        Check("alcove-omega-margin", float(alcove_margin(datum, spec.omega)), 0.0, ">"),
        Check("alcove-local-parameters", min(float(alcove_margin(datum, om)) for om in shifts), 0.0, ">"),
    ]
    if len(spec.constituents) > 1:
        max_norm = max(math.sqrt(float(datum.norm_sq(datum.node_coroot(c.mu)))) for c in spec.constituents)
        bound = spec.epsilon * (len(spec.constituents) - 1) * max_norm / (2.0 * spec.d_min)
        worst = max(float(np.linalg.norm(np.asarray(om) - np.asarray(spec.omega))) for om in shifts)
        checks.append(Check("holonomy-shift-bound", worst, bound * 1.0000001, "<="))
    checks.append(Check("gluing-radius", samp.R, spec.d_min / 2.0, "<", f"R/eps={samp.R / spec.epsilon:.2f}"))
    return checks, {}


def _bogomolny(spec, samp, rng, grid):
    """FD self-dual error at the cores (FD noise: the Bogomolny residual) and
    at far probes (the exterior is exactly abelian)."""
    core_pts = []
    for p in spec.positions:
        u = _normal(rng, 8)
        core_pts.append(p + (0.3 * samp.R / np.linalg.norm(u, axis=1))[:, None] * u)
    core_pts = np.concatenate(core_pts)
    ts = _uniform(rng, 0.0, 2.0 * np.pi, len(core_pts))
    core = curvature_at(samp, core_pts, ts, step=_core_step(spec.epsilon))
    far_pts = _unit(_normal(rng, 24))
    far_pts *= (spec.d_max + 3.0 * samp.R + 1.0) * _uniform(rng, 1.0, 2.0, 24)[:, None]
    far = curvature_at(samp, far_pts, 0.0, step=_far_step(spec.epsilon))
    return [
        Check("core-self-dual-error", float(np.sqrt(np.max(core.sd_norm_sq()))), 1e-3, "<"),
        Check("far-self-dual-error", float(np.sqrt(np.max(far.sd_norm_sq()))), 1e-6, "<"),
    ], {}


def _annulus(spec, samp, rng, grid):
    """Annulus pointwise bound |F+| <= C [(1/r) max(|b|,|s|) + max(|b|^2,|s|^2)]
    on the closed-form curvature, with C from the cutoff profile
    (sup|r chi'| <= 15/4, plus the quadratic mixing term).  The same points
    cross-check that closed form against finite differences and check that
    its gauge-invariant densities are the same at t + pi, which the
    one-slice integrals assume."""
    per = max(200 // max(len(spec.constituents), 1), 10)
    probes = []
    for k, p in enumerate(spec.positions):
        u = _unit(_normal(rng, per))
        pts = p + _uniform(rng, 0.5 * samp.R, samp.R, per)[:, None] * u
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
    fd = curvature_at(samp, pts, tk, step=_core_step(spec.epsilon))
    worst_ratio = float(np.max(np.sqrt(curv.sd_norm_sq()) / np.maximum(bound, 1e-300)))
    worst_fd = max(np.max(np.abs(fd.E - curv.E)), np.max(np.abs(fd.B - curv.B)))
    max_f = max(np.max(np.abs(curv.E)), np.max(np.abs(curv.B)))
    worst_dt = max(float(np.max(np.abs(density(curv) - density(shifted))))
                   for density in (CurvatureSample.norm_sq, CurvatureSample.sd_norm_sq,
                                   CurvatureSample.topological_density))
    return [
        Check("annulus-fplus-bound", worst_ratio, 15.0 / 4.0 * 2.0 + 2.0, "<="),
        Check("annulus-closed-form-vs-fd", float(worst_fd / max(max_f, 1e-300)), 1e-5, "<",
              f"max|F| = {max_f:.4g}"),
        Check("density-t-invariance", worst_dt / max(float(np.max(curv.norm_sq())), 1e-300), 1e-12, "<"),
    ], {}


def _gauge_patches(spec, samp, rng, grid):
    """On each annulus the north and south presentations differ by the
    recorded abelian transition u = exp(-i phi gamma_k)."""
    worst = 0.0
    for k, p in enumerate(spec.positions):
        u = _unit(_normal(rng, 12))
        u[:, 2] *= 0.2  # stay near the equator, away from both strings
        pts = p + _uniform(rng, 0.55 * samp.R, 0.95 * samp.R, 12)[:, None] * _unit(u)
        tk = _uniform(rng, 0.0, 2.0 * np.pi, 12)
        (aN, pN), (aS, pS) = (samp.annulus_fields(k, patch, pts, tk) for patch in "NS")
        rel = pts - p
        # u is diagonal: u^-1 X u = conj(u_i) X_il u_l
        gamma = samp.singular.coroots[k]
        u = np.exp(-1j * np.outer(np.arctan2(rel[:, 1], rel[:, 0]), gamma))
        conj = np.conjugate(u)[:, :, None] * u[:, None, :]
        # grad(phi) = (-y, x, 0)/rho^2
        rho2 = rel[:, 0] ** 2 + rel[:, 1] ** 2
        dphi = np.stack([-rel[:, 1] / rho2, rel[:, 0] / rho2, np.zeros(len(pts))], axis=-1)
        pred_A = conj[:, None] * aN - dphi[..., :, None, None] * (1j * np.diag(gamma))
        worst = max(worst, float(np.max(np.abs(aS - pred_A))), float(np.max(np.abs(pS - conj * pN))))
    return [Check("gauge-patch-consistency", worst, 1e-10, "<")], {}


def _alcove_containment(spec, samp, rng, grid):
    """The abelian Higgs field keeps a global alcove margin sigma, stable
    under refinement of the scan."""
    sigma1 = alcove_margin_report(samp, refine=1)["sigma"]
    sigma = alcove_margin_report(samp, refine=2)["sigma"]
    drift = abs(sigma - sigma1)
    return [
        Check("alcove-containment-sigma", sigma, 0.0, ">"),
        Check("alcove-sigma-refinement-drift", drift / max(abs(sigma1), 1e-300), 0.1, "<=",
              f"refinement drift {drift:.2e}"),
    ], {"alcove_sigma": sigma}


def _charge_and_holonomy(spec, samp, rng, grid):
    """The magnetic charge recovered from the flux, and the holonomy
    eigenphases on a large sphere against the abelian model."""
    coeffs, resid = magnetic_charge(samp, _flux_radius(spec.d_max, samp.R))
    expected = spec.charge_coefficients()
    L = 10.0 * spec.d_max_eff
    phases = sphere_averaged_holonomy(samp, L)
    model = np.sort(2.0 * np.pi * (np.asarray(spec.omega) - spec.epsilon * spec.charge_vector() / (2.0 * L)))[::-1]
    return [
        Check("magnetic-charge", max(abs(c - e) for c, e in zip(coeffs, expected)), 0, "<=",
              f"recovered {coeffs}, expected {expected}"),
        Check("magnetic-charge-residual", resid, 0.05, "<"),
        Check("holonomy-infinity", float(np.max(np.abs(phases - model))), 1e-4, "<"),
    ], {
        "recovered_charge": coeffs, "charge_residual": resid,
        "holonomy_eigenphases": tuple(float(p) for p in phases),
        "holonomy_model_phases": tuple(float(p) for p in model),
    }


def _integrals(spec, samp, rng, grid):
    """The self-dual error lives on the annuli, and the energy matches its
    closed-form value."""
    sd, energy, topo, vol = field_integrals(samp, grid)
    formula = energy_formula_float(spec)
    rel_err = abs(energy.value - formula) / max(abs(formula), 1e-12)
    return [
        Check("sd-error-localization", sd.annulus_fraction, 0.95, ">=", f"||F+||_L2 = {sd.value:.4g}"),
        Check("energy-vs-formula", rel_err, 0.02, "<", f"energy {energy.value:.6g}, formula {formula:.6g}"),
    ], {
        "ym_energy": energy.value, "ym_energy_raw": energy.raw, "energy_formula": formula,
        "sd_error_l2": sd.value, "sd_annulus_fraction": sd.annulus_fraction, "tr_f_wedge_f": topo,
        "volume_grid": vol,
    }


# The ledger in print order, which is also the order of the probe draws; the
# integrals go last, so that no volume grid is held while the probes run.
CHECKS = (_construction, _bogomolny, _annulus, _gauge_patches, _alcove_containment,
          _charge_and_holonomy, _integrals)


def run_verification(spec: CaloronSpec, grid="desk", seed: int = 0):
    """Full invariant suite; returns (FieldReport, [Check])."""
    samp, rng = approximate_caloron(spec), random.Random(seed)
    checks, values = [], {}
    for run in CHECKS:
        found, more = run(spec, samp, rng, grid)
        checks += found
        values.update(more)
    vol, sigma = values.pop("volume_grid"), values.pop("alcove_sigma")
    report = FieldReport(**values, grid={
        "preset": vol.meta.get("preset"),
        "points": vol.total_points(),
        "r_max": vol.r_max,
        "nt": vol.nt,
        "fd_step": _core_step(spec.epsilon),
        "seed": seed,
        "gluing_radius": samp.R,
        "alcove_sigma": sigma,
        "annulus_gauge": "two-patch abelian; spectator constant 1-forms subtracted at the centre",
    })
    return report, checks
