"""Differential-geometric numerics on R^3 x S^1 with the metric
g_eps = g_R3 + eps^2 dt^2 and volume form eps dt ^ dv_R3.

Conventions
-----------
A connection is sampled as (A_1, A_2, A_3, Phi) with 1-form
A_i dx^i + eps Phi dt.  In the orthonormal coframe (dx^i, eps dt) the
curvature has "electric" components E_i = F(e_i, e_t)/eps and "magnetic"
components B_a = (F_23, F_31, F_12).  The basis convention for the
self-dual/anti-self-dual split is fixed so that the explicit monopole
calorons of this package (which satisfy E = B, the Bogomolny equation)
have vanishing *self-dual* error:

    sd_a  = (E_a - B_a)/2,      asd_a = (E_a + B_a)/2.

Lie-algebra norms use <X, Y> = -Tr(XY) on anti-Hermitian matrices, under
which simple coroots of su(n) have squared norm 2.  The topological density
used by tr_f_wedge_f is 2 sum_a <E_a, B_a>, normalized so that both
fundamental SU(2) calorons have positive values (2 omega' and 1 - 2 omega').
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import FluxAmbiguityError
from .quadrature import VolumeGrid, block_sum, gauss_legendre, graded_radii, sphere_rule
from .samplers import ConnectionSampler, dagger


@dataclass(frozen=True)
class MetricParams:
    epsilon: float


def commutator(a, b):
    return a @ b - b @ a


def lie_norm_sq(x):
    """<X, X> = -Tr(X X) = Frobenius^2 for anti-Hermitian X."""
    return np.sum(np.abs(x) ** 2, axis=(-2, -1))


def lie_inner(x, y):
    """<X, Y> = -Tr(X Y) for anti-Hermitian X, Y."""
    return -np.einsum("...ij,...ji->...", x, y).real


def expm_antiherm(m):
    """exp of anti-Hermitian matrices (batched) via eigh."""
    h = (m / 1j + dagger(m / 1j)) / 2.0
    w, v = np.linalg.eigh(h)
    phases = np.exp(1j * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phases, np.conjugate(v))


@dataclass
class CurvatureSample:
    """Curvature components at a batch of points.

    E has shape (..., 3, n, n): E_i = F_{it}/eps in the orthonormal frame;
    B has the same shape with B_a = (F_23, F_31, F_12).
    """

    E: np.ndarray
    B: np.ndarray
    epsilon: float

    @property
    def sd_part(self):
        return 0.5 * (self.E - self.B)

    @property
    def asd_part(self):
        return 0.5 * (self.E + self.B)

    @property
    def f_mixed(self):
        """F_{it} components (i = 1..3)."""
        return self.epsilon * self.E

    @property
    def f_spatial(self):
        """(F_23, F_31, F_12)."""
        return self.B

    def norm_sq(self):
        return np.sum(lie_norm_sq(self.E) + lie_norm_sq(self.B), axis=-1)

    def sd_norm_sq(self):
        """|F^+|^2 pointwise (the basis 2-forms have norm sqrt(2))."""
        return 2.0 * np.sum(lie_norm_sq(self.sd_part), axis=-1)

    def asd_norm_sq(self):
        return 2.0 * np.sum(lie_norm_sq(self.asd_part), axis=-1)

    def topological_density(self):
        """2 sum_a <E_a, B_a>, the density of tr_f_wedge_f."""
        return 2.0 * np.sum(lie_inner(self.E, self.B), axis=-1)

    def inner_sd_asd(self):
        """<F^+, F^-> pointwise; vanishes identically (projector property)."""
        return self.norm_sq() - self.sd_norm_sq() - self.asd_norm_sq()


def sd_split(curv: CurvatureSample):
    """Projection onto the +-1 eigenspaces of the Hodge star of g_eps."""
    return curv.sd_part, curv.asd_part


_FD4 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def curvature_at(sampler: ConnectionSampler, x, t=0.0, step=1e-3) -> CurvatureSample:
    """Curvature by 4th-order central differences plus exact commutators.

    All stencil evaluations use the chart of the base point, so multi-chart
    samplers stay in a single smooth gauge per stencil.  The t-step is
    step/eps, the same proper length as the spatial step under g_eps;
    t-derivatives respect the 2 pi periodicity automatically (samplers are
    periodic).  This is the independent check of the samplers' closed forms
    (`exact_curvature`), which every curvature integral uses.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    batch = x.shape[:-1]
    t = np.broadcast_to(np.asarray(t, dtype=float), batch).copy()

    chart = sampler.chart(x, t)
    eps = sampler.epsilon
    dt = step / eps

    # evaluation 0 is the base point, then 4 shifts along each axis of x,
    # then 4 shifts in t
    shifts = [(np.eye(3)[axis] * mult * step, 0.0) for axis in range(3) for mult, _ in _FD4]
    shifts += [(np.zeros(3), mult * dt) for mult, _ in _FD4]
    all_x = np.stack([x] + [x + sx for sx, _ in shifts])
    all_t = np.stack([t] + [t + st for _, st in shifts])
    all_chart = None
    if chart is not None:
        all_chart = np.broadcast_to(np.asarray(chart), all_x.shape[:-1])

    A_all, Phi_all = sampler(all_x, all_t, all_chart)
    A0, Phi0 = A_all[0], Phi_all[0]

    def fd(values, h):
        acc = 0.0
        for (_, wgt), v in zip(_FD4, values):
            acc = acc + wgt * v
        return acc / (12.0 * h)

    dA = np.stack([fd(A_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)], axis=-4)  # [deriv, comp]
    dPhi = np.stack([fd(Phi_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)], axis=-3)
    dAdt = fd(A_all[13:], dt)

    comm_AP = np.einsum("...aij,...jk->...aik", A0, Phi0) - np.einsum(
        "...ij,...ajk->...aik", Phi0, A0
    )
    E = dPhi - dAdt / eps + comm_AP

    def f_ij(i, j):
        return (
            dA[..., i, j, :, :]
            - dA[..., j, i, :, :]
            + commutator(A0[..., i, :, :], A0[..., j, :, :])
        )

    B = np.stack([f_ij(1, 2), f_ij(2, 0), f_ij(0, 1)], axis=-3)

    if single:
        E, B = E[0], B[0]
    return CurvatureSample(E=E, B=B, epsilon=eps)


def _closed_form(sampler, x, t) -> CurvatureSample:
    E, B = sampler.exact_curvature(x, t)
    return CurvatureSample(E=E, B=B, epsilon=sampler.epsilon)


# Every sampler here is, chart by chart, gauge-equivalent to a t-independent
# connection (the mu = 0 pieces by g(x, t) or the diagonal g_inf(t)), so the
# gauge-invariant densities |F|^2, <E, B> and |F+|^2 do not depend on t: the
# integrals take the one slice t = pi with weight 2 pi eps.
_T_SLICE = np.pi


def _integrate(sampler, metric, grid: VolumeGrid):
    """Energy and topological density integrals over the grid, from one
    curvature evaluation per grid point."""
    t_weight = metric.epsilon * 2.0 * np.pi
    energy, topological = [], []
    for region in grid.regions:
        curv = _closed_form(sampler, region.points, _T_SLICE)
        energy.append(block_sum(curv.norm_sq(), region.weights) * t_weight)
        topological.append(block_sum(curv.topological_density(), region.weights) * t_weight)
    return math.fsum(energy), math.fsum(topological)


@dataclass
class EnergyEstimate:
    raw: float
    tail: float

    @property
    def value(self):
        return self.raw + self.tail

    def __float__(self):
        return self.value


def energy_and_tr_f_wedge_f(sampler, metric: MetricParams, grid: VolumeGrid, charge_matrix=None):
    """(integrate_energy, tr_f_wedge_f) of one sampler over one grid, with a
    single curvature pass per grid point."""
    energy, topological = _integrate(sampler, metric, grid)
    raw = energy / (8.0 * np.pi**2)
    if not np.isfinite(raw):
        raise ArithmeticError("non-finite energy integrand")
    if charge_matrix is None:
        charge_matrix = getattr(sampler, "charge_matrix", None)
    tail = 0.0
    if charge_matrix is not None:
        tail = metric.epsilon * float(lie_norm_sq(np.asarray(charge_matrix))) / (2.0 * grid.r_max)
    return EnergyEstimate(raw=raw, tail=tail), topological / (8.0 * np.pi**2) + tail


def integrate_energy(sampler, metric: MetricParams, grid: VolumeGrid, charge_matrix=None) -> EnergyEstimate:
    """(1/8 pi^2) ||F||^2_{L^2} over the ball of radius grid.r_max, plus the
    analytic abelian tail eps |gamma|^2 / (2 r_max) beyond it."""
    return energy_and_tr_f_wedge_f(sampler, metric, grid, charge_matrix)[0]


def tr_f_wedge_f(sampler, metric: MetricParams, grid: VolumeGrid, charge_matrix=None) -> float:
    """-(1/8 pi^2) Integral Trace(F ^ F), oriented so the circle-invariant
    BPS caloron returns +2 omega', plus the same abelian tail as
    integrate_energy.  Equals +-energy for E = +-B."""
    return energy_and_tr_f_wedge_f(sampler, metric, grid, charge_matrix)[1]


@dataclass
class SdErrorEstimate:
    """||F^+||_{L^2} with its split-domain bookkeeping."""

    annulus_sq: float
    background_sq: float

    @property
    def total_sq(self):
        return self.annulus_sq + self.background_sq

    @property
    def value(self):
        return math.sqrt(max(self.total_sq, 0.0))

    @property
    def annulus_fraction(self):
        if self.total_sq <= 0:
            return 1.0
        return self.annulus_sq / self.total_sq

    def __float__(self):
        return self.value


def sd_error_l2(sampler, metric: MetricParams, spec) -> SdErrorEstimate:
    """L^2 norm of the self-dual error of a glued approximate caloron on the
    slice t = pi: 14 Gauss-Legendre radii x an 8 x 12 sphere rule on each
    gluing annulus R/2 <= r <= R, from the closed-form curvature, plus
    sparse shells over the cores and the exterior.  The closed form has
    E = B on those shells by construction, so they take finite differences
    at step eps/100 and measure the self-dual leakage off the annuli."""
    R = spec.gluing_radius()
    eps = metric.epsilon
    t_w = eps * 2.0 * np.pi
    dirs, wdir = sphere_rule(8, 12)

    annulus_terms = []
    for cst in spec.constituents:
        c = np.asarray(cst.position, dtype=float)
        radii, rw = gauss_legendre(0.5 * R, R, 14)
        pts = (c[None, None, :] + radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        w = ((radii**2 * rw)[:, None] * wdir[None, :]).reshape(-1)
        curv = _closed_form(sampler, pts, _T_SLICE)
        annulus_terms.append(block_sum(curv.sd_norm_sq(), w) * t_w)
    annulus_sq = math.fsum(annulus_terms)

    shells = []
    for cst in spec.constituents:
        c = np.asarray(cst.position, dtype=float)
        shells.append((c, graded_radii(max(eps / 8.0, 1e-4 * R), 0.45 * R, 4, 2)))
    # exterior shells on the abelian region
    d_max = max(float(np.linalg.norm(np.asarray(c.position, float))) for c in spec.constituents)
    shells.append((np.zeros(3), graded_radii(d_max + 1.5 * R, 8.0 * max(d_max, 1.0), 4, 2)))
    background_terms = []
    for c, (radii, rw) in shells:
        pts = (c[None, None, :] + radii[:, None, None] * dirs[None, ::4, :]).reshape(-1, 3)
        w = ((radii**2 * rw)[:, None] * wdir[None, ::4] * 4.0).reshape(-1)
        curv = curvature_at(sampler, pts, _T_SLICE, step=eps / 100.0)
        background_terms.append(block_sum(curv.sd_norm_sq(), w) * t_w)
    background_sq = math.fsum(background_terms)

    return SdErrorEstimate(annulus_sq=annulus_sq, background_sq=background_sq)


# ---------------------------------------------------------------------------
# holonomy and flux

def circle_holonomy(sampler, x, metric: MetricParams, n_steps=64):
    """Eigenphases (sorted descending) of the holonomy of the t-circle at x,
    computed as the path-ordered exponential of eps Phi dt via a 4th-order
    Magnus / Gauss two-point product (exact for a constant Phi)."""
    x = np.asarray(x, dtype=float)
    eps = metric.epsilon
    chart = sampler.chart(x[None, :], np.zeros(1))
    h = 2.0 * np.pi / n_steps
    offs = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    t0 = np.arange(n_steps) * h
    t_nodes = np.concatenate([t0 + offs[0] * h, t0 + offs[1] * h])
    pts = np.broadcast_to(x, (t_nodes.size, 3))
    charts = None
    if chart is not None:
        charts = np.broadcast_to(np.asarray(chart), (t_nodes.size,))
    _, Phi = sampler(pts, t_nodes, charts)
    M = eps * Phi
    M1, M2 = M[:n_steps], M[n_steps:]
    omega = 0.5 * h * (M1 + M2) + (math.sqrt(3.0) / 12.0) * h**2 * (
        M2 @ M1 - M1 @ M2
    )
    steps = expm_antiherm(omega)
    U = np.eye(sampler.n, dtype=complex)
    for k in range(n_steps):
        U = steps[k] @ U
    phases = np.angle(np.linalg.eigvals(U))
    return np.sort(phases)[::-1]


def sphere_averaged_holonomy(sampler, radius, metric: MetricParams, n_theta=6, n_phi=8, n_steps=64):
    """Holonomy eigenphases averaged over a sphere of the given radius.

    Averaging kills the multipole corrections of well-separated constituent
    fields (the mean of 1/|x-p| over the sphere is exactly 1/radius),
    leaving the single-centre abelian model."""
    dirs, w = sphere_rule(n_theta, n_phi)
    pts = radius * dirs
    acc = None
    for p, wi in zip(pts, w):
        ph = circle_holonomy(sampler, p, metric, n_steps)
        acc = wi * ph if acc is None else acc + wi * ph
    return acc / (4.0 * np.pi)


def magnetic_charge(sampler, radius, quadrature=(16, 32)):
    """Recover the total magnetic charge as the 2-sphere flux
    (1/2 pi) Integral dA about the origin, projected on the simple coroots
    of sampler.datum and rounded.  The flux is taken from the connection by
    finite differences, independently of any closed-form curvature.

    Returns (integer coefficient tuple, residual).  A residual above 0.1
    raises FluxAmbiguityError rather than silently misrounding.
    """
    datum = getattr(sampler, "datum", None)
    if datum is None:
        raise ValueError("magnetic_charge needs a sampler with a root datum")
    n_theta, n_phi = quadrature
    dirs, w = sphere_rule(n_theta, n_phi)
    pts = radius * dirs
    curv = curvature_at(sampler, pts, 0.0, step=min(0.02 * radius, 0.5))
    B_rad = np.einsum("...a,...aij->...ij", dirs, curv.B)
    flux_mat = np.einsum("p,pij->ij", w, B_rad) * radius**2 / (2.0 * np.pi)

    offdiag = flux_mat - np.diag(np.diag(flux_mat))
    junk = float(np.max(np.abs(offdiag))) if flux_mat.shape[0] > 1 else 0.0
    v = np.diag(flux_mat).imag
    junk = max(junk, float(np.max(np.abs(np.diag(flux_mat).real))))

    basis = np.array(
        [[float(c) for c in av] for av in datum.simple_coroots], dtype=float
    ).T  # ambient x rank
    coeffs, *_ = np.linalg.lstsq(basis, v, rcond=None)
    recon = basis @ coeffs
    junk = max(junk, float(np.max(np.abs(recon - v))))
    rounded = np.rint(coeffs).astype(int)
    residual = max(float(np.max(np.abs(coeffs - rounded))), junk)
    if residual > 0.1:
        raise FluxAmbiguityError(
            f"flux residual {residual:.3g} too large to round to the coroot lattice"
        )
    return tuple(int(c) for c in rounded), residual


# ---------------------------------------------------------------------------

@dataclass
class FieldReport:
    """Integrated diagnostics of a constructed caloron."""

    ym_energy: float
    ym_energy_raw: float
    energy_formula: float
    sd_error_l2: float
    sd_annulus_fraction: float
    recovered_charge: Tuple[int, ...]
    charge_residual: float
    holonomy_eigenphases: Tuple[float, ...]
    holonomy_model_phases: Tuple[float, ...]
    tr_f_wedge_f: Optional[float] = None
    grid: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
