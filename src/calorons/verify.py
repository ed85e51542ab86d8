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
    _STENCIL,
    _core_step,
    _far_step,
    _flux_radius,
    curvature_at,
    energy_and_tr_f_wedge_f,
    magnetic_charge,
    sd_error_l2,
    sphere_averaged_holonomy,
)
from .quadrature import blockwise, desk_grid
from .rootsys import alcove_margin
from .samplers import Field

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


def field_integrals(samp: ApproximateCaloron, grid="desk"):
    """(sd error, energy, trF^F, volume grid) of a glued caloron: its
    `sd_error_l2`, then its energy and trF^F over the desk (or "fine") grid
    about its constituents, at their core scales 1/(2v)."""
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
        worst = max(math.dist(om, spec.omega) for om in shifts)
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
    core = blockwise(lambda s: curvature_at(samp, core_pts[s], ts[s], step=_core_step(spec.epsilon)).sd_norm_sq(),
                     len(core_pts), per=_STENCIL)
    far_pts = _unit(_normal(rng, 24))
    far_pts *= (spec.d_max + 3.0 * samp.R + 1.0) * _uniform(rng, 1.0, 2.0, 24)[:, None]
    far = curvature_at(samp, far_pts, 0.0, step=_far_step(spec.epsilon))
    return [
        Check("core-self-dual-error", float(np.sqrt(samp.killing_scale * np.max(core))), 1e-3, "<"),
        Check("far-self-dual-error", float(np.sqrt(samp.killing_scale * np.max(far.sd_norm_sq()))), 1e-6, "<"),
    ], {}


def _annulus(spec, samp, rng, grid):
    """Annulus pointwise bound |F+| <= C [(1/r) max(|b|,|s|) + max(|b|^2,|s|^2)]
    on the closed-form curvature, with C from the cutoff profile
    (sup|r chi'| <= 15/4, plus the quadratic mixing term).  The same points
    cross-check that closed form against finite differences and check that
    its gauge-invariant densities are the same at t + pi, which the
    one-slice integrals assume.  The probes run in blocks that keep per-point maxima;
    the norms are invariant ones (`samp.killing_scale`)."""
    per, unit = max(200 // max(len(spec.constituents), 1), 10), math.sqrt(samp.killing_scale)
    probes = []
    for k, p in enumerate(spec.positions):
        u = _unit(_normal(rng, per))
        pts = p + _uniform(rng, 0.5 * samp.R, samp.R, per)[:, None] * u
        tk = _uniform(rng, 0.0, 2.0 * np.pi, per)
        bound = np.empty(per)
        for patch, sel in (("N", pts[:, 2] >= p[2]), ("S", pts[:, 2] < p[2])):
            if np.any(sel):
                r, (zA, hP), (sA, sP), _ = samp.annulus_parts(k, patch, pts[sel], tk[sel])
                bP = hP[..., None] * samp.locals[k].coroot  # z enters twice (`lie_inner`)
                b_norm = np.sqrt(2.0 * np.sum(np.abs(zA) ** 2, axis=-1) + np.sum(bP**2, axis=-1))
                mx = unit * np.maximum(b_norm, np.sqrt(np.sum(sA**2, axis=(-2, -1)) + np.sum(sP**2, axis=-1)))
                bound[sel] = mx / r + mx**2
        probes.append((pts, tk, bound))
    pts, tk, bound = (np.concatenate(a) for a in zip(*probes))

    def maxima(s):  # per point: |F+| / bound, the FD gap, max |F|, the t + pi density gap, |F|^2
        curv, shifted = (CurvatureSample(*samp.exact_curvature(pts[s], ts)) for ts in (tk[s], tk[s] + np.pi))
        fd = curvature_at(samp, pts[s], tk[s], step=_core_step(spec.epsilon))
        dt = [np.abs(d(curv) - d(shifted)) for d in (CurvatureSample.norm_sq, CurvatureSample.sd_norm_sq,
                                                     CurvatureSample.topological_density)]
        return np.stack([unit * np.sqrt(curv.sd_norm_sq()) / np.maximum(bound[s], 1e-300),
                         np.maximum(_max_entry(fd.E - curv.E), _max_entry(fd.B - curv.B)),
                         np.maximum(_max_entry(curv.E), _max_entry(curv.B)),
                         np.max(dt, axis=0), curv.norm_sq()], axis=-1)
    worst_ratio, worst_fd, max_f, worst_dt, max_norm = np.max(blockwise(maxima, len(pts), per=_STENCIL + 2), axis=0)
    return [
        Check("annulus-fplus-bound", float(worst_ratio), 15.0 / 4.0 * 2.0 + 2.0, "<="),
        Check("annulus-closed-form-vs-fd", float(worst_fd / max(max_f, 1e-300)), 1e-5, "<",
              f"max|F| = {max_f:.4g}"),
        Check("density-t-invariance", float(worst_dt) / max(float(max_norm), 1e-300), 1e-12, "<"),
    ], {}


def _max_entry(f):
    """The largest coordinate |d_i| or |z| of a Field's components at each point."""
    return np.maximum(np.max(np.abs(f.diag), axis=(-2, -1)), np.max(np.abs(f.off), axis=-1))


def _gauge_patches(spec, samp, rng, grid):
    """On each annulus the north and south presentations differ by the
    recorded abelian transition u = exp(-i phi gamma_k): the Cartan part of
    A_S is that of A_N less d(phi) gamma_k, and every g_alpha coordinate z_S
    is exp(i phi alpha(gamma_k)) z_N."""
    worst = 0.0
    for k, p in enumerate(spec.positions):
        u = _unit(_normal(rng, 12))
        u[:, 2] *= 0.2  # stay near the equator, away from both strings
        pts = p + _uniform(rng, 0.55 * samp.R, 0.95 * samp.R, 12)[:, None] * _unit(u)
        tk = _uniform(rng, 0.0, 2.0 * np.pi, 12)
        (aN, pN), (aS, pS) = (samp.annulus_fields(k, patch, pts, tk) for patch in "NS")
        rel = pts - p
        gamma = samp.singular.coroots[k]
        phase = np.exp(1j * float(np.sum(samp.locals[k].root * gamma)) * np.arctan2(rel[:, 1], rel[:, 0]))
        # grad(phi) = (-y, x, 0)/rho^2
        rho2 = rel[:, 0] ** 2 + rel[:, 1] ** 2
        dphi = np.stack([-rel[:, 1] / rho2, rel[:, 0] / rho2, np.zeros(len(pts))], axis=-1)
        pred_A = Field(aN.diag - dphi[..., None] * gamma, phase[:, None] * aN.off)
        pred_P = Field(pN.diag, phase * pN.off)
        for f in (aS - pred_A, pS - pred_P):
            worst = max(worst, float(np.max(np.abs(f.diag))), float(np.max(np.abs(f.off))))
    return [Check("gauge-patch-consistency", worst, 1e-10, "<")], {}


def _alcove_containment(spec, samp, rng, grid):
    """The abelian Higgs field keeps an alcove margin sigma on the exclusion
    spheres, stable under refinement; the detail gives its certified bound."""
    sigma1 = alcove_margin_report(samp, refine=1)["sigma"]
    report = alcove_margin_report(samp, refine=2)
    sigma, certified = report["sigma"], report["sigma_certified"]
    drift = abs(sigma - sigma1)
    detail = "uncertified: two centres within r0" if certified is None else f"certified sigma >= {certified:.6g}"
    return [
        Check("alcove-containment-sigma", sigma, 0.0, ">", detail),
        Check("alcove-sigma-refinement-drift", drift / max(abs(sigma1), 1e-300), 0.1, "<=",
              f"refinement drift {drift:.2e}"),
    ], {"alcove_sigma": sigma}


def _charge_and_holonomy(spec, samp, rng, grid):
    """The magnetic charge recovered from the flux, and the holonomy on a
    large sphere against the abelian model."""
    coeffs, resid = magnetic_charge(samp, _flux_radius(spec.d_max, samp.R))
    expected = spec.charge_coefficients()
    L = 10.0 * spec.d_max_eff
    phases = sphere_averaged_holonomy(samp, L)
    model = 2.0 * np.pi * (np.asarray(spec.omega) - spec.epsilon * samp.charge / (2.0 * L))
    # e^{i alpha(H)} over the positive roots: the holonomy up to the centre, with no
    # wrapping of ambient coordinates, which can sit at +-pi
    gap = np.angle(np.exp(1j * np.einsum("ri,i->r", np.array(spec.datum.positive_roots, dtype=float), phases - model)))
    return [
        Check("magnetic-charge", max(abs(c - e) for c, e in zip(coeffs, expected)), 0, "<=",
              f"recovered {coeffs}, expected {expected}"),
        Check("magnetic-charge-residual", resid, 0.05, "<"),
        Check("holonomy-infinity", float(np.max(np.abs(gap))), 1e-4, "<"),
    ], {
        "recovered_charge": coeffs, "charge_residual": resid,
        "holonomy_cartan": tuple(float(p) for p in phases),
        "holonomy_model_cartan": tuple(float(p) for p in model),
    }


def _integrals(spec, samp, rng, grid):
    """The self-dual error lives on the annuli, and the energy matches its
    closed-form value."""
    sd, energy, topo, vol = field_integrals(samp, grid)
    formula = spec.energy_formula()
    rel_err = abs(energy.value - formula) / max(abs(formula), 1e-12)
    return [
        Check("sd-error-localization", sd.annulus_fraction, 0.95, ">=", f"||F+||_L2 = {sd.value:.4g}"),
        Check("energy-vs-formula", rel_err, 0.02, "<", f"energy {energy.value:.6g}, formula {formula:.6g}"),
    ], {
        "ym_energy": energy.value, "ym_energy_raw": energy.raw, "energy_formula": formula,
        "sd_error_l2": sd.value, "sd_annulus_fraction": sd.annulus_fraction, "tr_f_wedge_f": topo,
        "volume_grid": vol,
    }


# The ledger in print order, which is also the order of the probe draws.
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
