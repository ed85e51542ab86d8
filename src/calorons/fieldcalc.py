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
of energy_and_tr_f_wedge_f is 2 sum_a <E_a, B_a>, normalized so that both
fundamental SU(2) calorons have positive values (2 omega' and 1 - 2 omega').

Every diagnostic reads eps from `sampler.epsilon`, and the energy functions
read the asymptotic abelian charge from `sampler.charge_matrix`, which every
integrated sampler declares.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import FluxAmbiguityError
from .quadrature import VolumeGrid, block_sum, gauss_legendre, graded_radii, sphere_rule
from .samplers import ConnectionSampler, _mul, dagger


def commutator(a, b):
    return _mul(a, b) - _mul(b, a)


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
    return _mul(v * np.exp(1j * w)[..., None, :], dagger(v))


@dataclass
class CurvatureSample:
    """Curvature components at a batch of points.

    E has shape (..., 3, n, n): E_i = F_{it}/eps in the orthonormal frame;
    B has the same shape with B_a = (F_23, F_31, F_12).
    """

    E: np.ndarray
    B: np.ndarray

    @property
    def sd_part(self):
        """Projection onto the +1 eigenspace of the Hodge star of g_eps."""
        return 0.5 * (self.E - self.B)

    @property
    def asd_part(self):
        return 0.5 * (self.E + self.B)

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


_FD4 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))


def _fd(values, h):
    acc = 0.0
    for (_, wgt), v in zip(_FD4, values):
        acc = acc + wgt * v
    return acc / (12.0 * h)


def _stencil(sampler, x, t, step, dt=None):
    """The 4th-order stencil about each point of the batch x, every
    evaluation in the chart of its base point: the base point and 4 shifts
    along each axis of x, plus 4 shifts in t when dt is given, in one sampler
    call.  Returns (A0, Phi0, dPhi, B, dA/dt), with dA/dt None without dt."""
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1]).copy()
    chart = sampler.chart(x, t)
    shifts = [(np.eye(3)[axis] * mult * step, 0.0) for axis in range(3) for mult, _ in _FD4]
    if dt is not None:
        shifts += [(np.zeros(3), mult * dt) for mult, _ in _FD4]
    all_x = np.stack([x] + [x + sx for sx, _ in shifts])
    all_t = np.stack([t] + [t + st for _, st in shifts])
    all_chart = None
    if chart is not None:
        all_chart = np.broadcast_to(np.asarray(chart), all_x.shape[:-1])

    A_all, Phi_all = sampler(all_x, all_t, all_chart)
    A0, Phi0 = A_all[0], Phi_all[0]
    dA = np.stack([_fd(A_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)], axis=-4)  # [deriv, comp]
    dPhi = np.stack([_fd(Phi_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)], axis=-3)

    def f_ij(i, j):
        return (
            dA[..., i, j, :, :]
            - dA[..., j, i, :, :]
            + commutator(A0[..., i, :, :], A0[..., j, :, :])
        )

    B = np.stack([f_ij(1, 2), f_ij(2, 0), f_ij(0, 1)], axis=-3)
    return A0, Phi0, dPhi, B, None if dt is None else _fd(A_all[13:], dt)


# The finite-difference step policy of the diagnostics, which verify, the CLI
# and the spec's position bound all read from here: step eps/100 at the
# cores, min(eps/10, 0.05) at verify's probes of the abelian exterior, and
# the flux sphere about the origin of radius max(2(d + 1), d + 2R), d the
# largest constituent distance, so that it stays a distance 2R off every
# constituent, outside the gluing balls, with step min(0.02 radius, 0.5).

def _core_step(epsilon):
    return epsilon / 100.0


def _far_step(epsilon):
    return min(epsilon / 10.0, 0.05)


def _flux_radius(d_max, R):
    return max(2.0 * (d_max + 1.0), d_max + 2.0 * R)


def _flux_step(radius):
    return min(0.02 * radius, 0.5)


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
    eps = sampler.epsilon
    A0, Phi0, dPhi, B, dAdt = _stencil(sampler, x, t, step, dt=step / eps)
    E = dPhi - dAdt / eps + commutator(A0, Phi0[..., None, :, :])
    if single:
        E, B = E[0], B[0]
    return CurvatureSample(E=E, B=B)


def _closed_form(sampler, x, t) -> CurvatureSample:
    return CurvatureSample(*sampler.exact_curvature(x, t))


# Every sampler here is, chart by chart, gauge-equivalent to a t-independent
# connection (the mu = 0 pieces by g(x, t) or the diagonal g_inf(t)), so the
# gauge-invariant densities |F|^2, <E, B> and |F+|^2 do not depend on t: the
# integrals take the one slice t = pi with weight 2 pi eps.
_T_SLICE = np.pi


def _integrate(sampler, grid: VolumeGrid):
    """Energy and topological density integrals over the grid, from one
    curvature evaluation per grid point."""
    t_weight = sampler.epsilon * 2.0 * np.pi
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


def energy_and_tr_f_wedge_f(sampler, grid: VolumeGrid):
    """(energy, trF^F) of one sampler over one grid, from a single curvature
    pass per grid point.

    The energy is (1/8 pi^2) ||F||^2_{L^2} over the ball of radius
    grid.r_max plus the analytic abelian tail eps |gamma|^2 / (2 r_max)
    beyond it, with gamma = sampler.charge_matrix.  trF^F is
    -(1/8 pi^2) Integral Trace(F ^ F), oriented so the circle-invariant BPS
    caloron returns +2 omega', plus the same tail; it equals +-energy for
    E = +-B."""
    energy, topological = _integrate(sampler, grid)
    raw = energy / (8.0 * np.pi**2)
    if not np.isfinite(raw):
        raise ArithmeticError("non-finite energy integrand")
    tail = sampler.epsilon * float(lie_norm_sq(np.asarray(sampler.charge_matrix))) / (2.0 * grid.r_max)
    return EnergyEstimate(raw=raw, tail=tail), topological / (8.0 * np.pi**2) + tail


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


def sd_error_l2(samp) -> SdErrorEstimate:
    """L^2 norm of the self-dual error of a glued approximate caloron
    (`assembler.ApproximateCaloron`) on the slice t = pi: 14 Gauss-Legendre
    radii x an 8 x 12 sphere rule on each gluing annulus R/2 <= r <= R,
    from the closed-form curvature, plus sparse shells over the cores and
    the exterior.  The closed form has E = B on those shells by
    construction, so they take finite differences at step eps/100 and
    measure the self-dual leakage off the annuli."""
    eps, R, spec = samp.epsilon, samp.R, samp.spec
    t_w = eps * 2.0 * np.pi
    dirs, wdir = sphere_rule(8, 12)

    # sparse shells about the cores and over the exterior, every stencil in
    # one sampler call.  They go before the annuli, so that no annulus
    # curvature is still held while that call, the largest of a verify run,
    # sets the run's peak memory.
    core_radii = graded_radii(max(eps / 8.0, 1e-4 * R), 0.45 * R, 4, 2)
    shells = [(c, core_radii) for c in samp.positions]
    shells.append((np.zeros(3), graded_radii(spec.d_max + 1.5 * R, 8.0 * spec.d_max_eff, 4, 2)))
    pts = [(c + radii[:, None, None] * dirs[None, ::4, :]).reshape(-1, 3) for c, (radii, _) in shells]
    sd = curvature_at(samp, np.concatenate(pts), _T_SLICE, step=_core_step(eps)).sd_norm_sq()
    background_terms = []
    for d, (_, (radii, rw)) in zip(np.split(sd, np.cumsum([len(p) for p in pts])[:-1]), shells):
        w = ((radii**2 * rw)[:, None] * wdir[None, ::4] * 4.0).reshape(-1)
        background_terms.append(block_sum(d, w) * t_w)
    background_sq = math.fsum(background_terms)

    radii, rw = gauss_legendre(0.5 * R, R, 14)
    w = ((radii**2 * rw)[:, None] * wdir[None, :]).reshape(-1)
    annulus_terms = []
    for c in samp.positions:
        curv = _closed_form(samp, (c + radii[:, None, None] * dirs).reshape(-1, 3), _T_SLICE)
        annulus_terms.append(block_sum(curv.sd_norm_sq(), w) * t_w)
    annulus_sq = math.fsum(annulus_terms)

    return SdErrorEstimate(annulus_sq=annulus_sq, background_sq=background_sq)


# ---------------------------------------------------------------------------
# holonomy and flux

def circle_holonomy(sampler, x, n_steps=64):
    """Eigenphases (sorted descending) of the holonomy of the t-circle at x,
    computed as the path-ordered exponential of eps Phi dt via a 4th-order
    Magnus / Gauss two-point product (exact for a constant Phi).  x is one
    point (3,) or a batch (..., 3); each point keeps its own t = 0 chart, and
    every circle of the batch is evaluated in one sampler call."""
    x = np.asarray(x, dtype=float)
    eps = sampler.epsilon
    chart = sampler.chart(x, np.zeros(x.shape[:-1]))
    h = 2.0 * np.pi / n_steps
    offs = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    t0 = np.arange(n_steps) * h
    t_nodes = np.concatenate([t0 + offs[0] * h, t0 + offs[1] * h])
    shape = x.shape[:-1] + t_nodes.shape
    if chart is not None:
        chart = np.broadcast_to(np.asarray(chart)[..., None], shape)
    _, Phi = sampler(np.broadcast_to(x[..., None, :], shape + (3,)), t_nodes, chart)
    M = eps * Phi
    M1, M2 = M[..., :n_steps, :, :], M[..., n_steps:, :, :]
    omega = 0.5 * h * (M1 + M2) + (math.sqrt(3.0) / 12.0) * h**2 * commutator(M2, M1)
    steps = expm_antiherm(omega)
    U = steps[..., 0, :, :]
    for k in range(1, n_steps):
        U = _mul(steps[..., k, :, :], U)
    phases = np.angle(np.linalg.eigvals(U))
    return np.sort(phases, axis=-1)[..., ::-1]


def sphere_averaged_holonomy(sampler, radius):
    """Holonomy eigenphases averaged over a 6 x 8 sphere rule of the given
    radius, each circle in 64 Magnus steps.

    Averaging kills the multipole corrections of well-separated constituent
    fields (the mean of 1/|x-p| over the sphere is exactly 1/radius),
    leaving the single-centre abelian model."""
    dirs, w = sphere_rule(6, 8)
    acc = None
    for ph, wi in zip(circle_holonomy(sampler, radius * dirs), w):
        acc = wi * ph if acc is None else acc + wi * ph
    return acc / (4.0 * np.pi)


def magnetic_charge(sampler, radius):
    """Recover the total magnetic charge as the 2-sphere flux
    (1/2 pi) Integral dA about the origin over a 12 x 24 sphere rule,
    projected on the simple coroots of sampler.datum and rounded.  The flux
    is taken from the connection by the spatial finite-difference stencil at
    t = 0, independently of any closed-form curvature.

    Returns (integer coefficient tuple, residual).  A residual above 0.1
    raises FluxAmbiguityError rather than silently misrounding.
    """
    datum = getattr(sampler, "datum", None)
    if datum is None:
        raise ValueError("magnetic_charge needs a sampler with a root datum")
    dirs, w = sphere_rule(12, 24)
    B = _stencil(sampler, radius * dirs, 0.0, _flux_step(radius))[3]
    B_rad = np.einsum("...a,...aij->...ij", dirs, B)
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
