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

Lie-algebra norms on `samplers.Field`s in root coordinates are the ambient
dot product d.e + 2 Re(z conj w); the invariant norm, under which long
coroots have squared norm 2 (-Tr(XY) on su(n)), is `sampler.killing_scale`
times it, and every reported norm, integral and bound applies that factor.
The topological density of energy_and_tr_f_wedge_f is 2 sum_a <E_a, B_a>,
normalized so that both fundamental SU(2) calorons have positive values
(2 omega' and 1 - 2 omega').

Every diagnostic reads eps from `sampler.epsilon`, and the energy functions
read the asymptotic abelian charge, a coroot vector, from `sampler.charge`,
which every integrated sampler declares.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import FluxAmbiguityError
from .quadrature import VolumeGrid, ball_points, block_sum, blockwise, gauss_legendre, graded_radii, sphere_rule
from .samplers import ConnectionSampler, Field, bracket


def lie_norm_sq(x: Field):
    """<X, X> = |d|^2 + 2 |z|^2 in the ambient metric: z is the coordinate
    of both g_alpha and g_-alpha."""
    return np.sum(x.diag**2, axis=-1) + 2.0 * (x.off.real**2 + x.off.imag**2)


def lie_inner(x: Field, y: Field):
    """<X, Y> = d.e + 2 Re(z conj w) in the ambient metric."""
    return np.sum(x.diag * y.diag, axis=-1) + 2.0 * (x.off * np.conjugate(y.off)).real


@dataclass
class CurvatureSample:
    """Curvature components at a batch of points, `Field`s with components
    (..., 3): E_i = F_{it}/eps in the orthonormal frame, B_a = (F_23, F_31, F_12)."""

    E: Field
    B: Field

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
_STENCIL = 1 + 4 * len(_FD4)  # curvature_at's evaluations per point: it, 4 shifts per axis and in t


def _fd(values, h):
    """The 4th-order difference of the Fields values[0..3] at the _FD4 shifts."""
    return sum((_FD4[i][1] * values[i] for i in range(1, 4)), _FD4[0][1] * values[0]) / (12.0 * h)


def _stencil(sampler, x, t, step, dt=None):
    """The 4th-order stencil about each point of the batch x, every
    evaluation in the chart of its base point: the base point and 4 shifts
    along each axis of x, plus 4 shifts in t when dt is given, in one sampler
    call.  Returns (A0, Phi0, dPhi, B, dA/dt, alpha), with dA/dt None without
    dt and alpha the roots of the base points' charts."""
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1]).copy()
    chart = sampler.chart(x, t)
    shifts = [(np.eye(3)[axis] * mult * step, 0.0) for axis in range(3) for mult, _ in _FD4]
    if dt is not None:
        shifts += [(np.zeros(3), mult * dt) for mult, _ in _FD4]
    all_x = np.stack([x] + [x + sx for sx, _ in shifts])
    all_t = np.stack([t] + [t + st for _, st in shifts])
    all_chart = None if chart is None else np.broadcast_to(np.asarray(chart), all_x.shape[:-1])

    A_all, Phi_all = sampler(all_x, all_t, all_chart)
    alpha = np.asarray(sampler.block(chart))
    A0, Phi0 = A_all[0], Phi_all[0]
    dA = [_fd(A_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)]  # dA[deriv][..., comp]
    dPhi = _components([_fd(Phi_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)])
    B = _components([dA[i][..., j] - dA[j][..., i] + bracket(A0[..., i], A0[..., j], alpha)
                     for i, j in ((1, 2), (2, 0), (0, 1))])
    return A0, Phi0, dPhi, B, None if dt is None else _fd(A_all[13:], dt), alpha


def _components(fields):
    """Fields stacked along a new last component axis."""
    return Field(np.stack([f.diag for f in fields], axis=-2), np.stack([f.off for f in fields], axis=-1))


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


def _core_shell(epsilon, R):
    """sd_error_l2's core shell radii, which the glued caloron needs nonempty."""
    return max(epsilon / 8.0, 1e-4 * R), 0.45 * R


def curvature_at(sampler: ConnectionSampler, x, t=0.0, step=1e-3) -> CurvatureSample:
    """Curvature by 4th-order central differences plus exact commutators.

    All stencil evaluations use the chart of the base point, so multi-chart
    samplers stay in a single smooth gauge per stencil.  The t-step is
    step/eps, the same proper length as the spatial step under g_eps;
    t-derivatives respect the 2 pi periodicity automatically (samplers are
    periodic).  This is the independent check of the samplers' closed forms
    (`exact_curvature`), which every curvature integral uses.
    """
    eps = sampler.epsilon
    A0, Phi0, dPhi, B, dAdt, alpha = _stencil(sampler, np.asarray(x, dtype=float), t, step, dt=step / eps)
    return CurvatureSample(E=dPhi - dAdt / eps + bracket(A0, Phi0[..., None], alpha[..., None, :]), B=B)


def _closed_form_densities(sampler, x, t, *densities):
    """The CurvatureSample densities of the closed-form curvature, stacked (`curvature_densities`)."""
    return sampler.curvature_densities(x, t, lambda *EB: np.stack([d(CurvatureSample(*EB)) for d in densities], -1))


# Every sampler here is, chart by chart, gauge-equivalent to a t-independent
# connection (the mu = 0 pieces by g(x, t) or the diagonal g_inf(t)), so the
# gauge-invariant densities |F|^2, <E, B> and |F+|^2 do not depend on t: the
# integrals take the one slice t = pi with weight 2 pi eps.
_T_SLICE = np.pi


def _integrate(sampler, regions, density, per=1):
    """The k integrals over a list of `quadrature.Region`s and the t-circle
    of density(x), the per-point values (n, k) at points x (n, 3) of the
    slice t = pi, which makes `per` sampler evaluations per point: one
    `block_sum` per region and column, times 2 pi eps, combined in fixed
    order by math.fsum."""
    t_weight = sampler.epsilon * 2.0 * np.pi
    terms = []
    for points, weights in regions:
        dens = blockwise(lambda s, x=points: density(x[s]), len(points), per)
        terms.append([block_sum(d, weights) * t_weight for d in dens.T])
    return tuple(math.fsum(column) for column in zip(*terms))


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
    grid.r_max plus the analytic abelian tail eps k |gamma|^2 / (2 r_max)
    beyond it, with gamma = sampler.charge and k = sampler.killing_scale,
    which also scales both integrals to the invariant norm.  trF^F is
    -(1/8 pi^2) Integral Trace(F ^ F), oriented so the circle-invariant BPS
    caloron returns +2 omega', plus the same tail; it equals +-energy for
    E = +-B."""
    k = sampler.killing_scale
    energy, topological = _integrate(sampler, grid.regions, lambda x: _closed_form_densities(
        sampler, x, _T_SLICE, CurvatureSample.norm_sq, CurvatureSample.topological_density))
    raw = k * energy / (8.0 * np.pi**2)
    if not np.isfinite(raw):
        raise ArithmeticError("non-finite energy integrand")
    tail = sampler.epsilon * (k * float(np.sum(np.square(sampler.charge)))) / (2.0 * grid.r_max)
    return EnergyEstimate(raw=raw, tail=tail), k * topological / (8.0 * np.pi**2) + tail


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
        """0 when the total is not positive: there is no error to localize."""
        if self.total_sq <= 0:
            return 0.0
        return self.annulus_sq / self.total_sq


def sd_error_l2(samp) -> SdErrorEstimate:
    """L^2 norm of the self-dual error of a glued approximate caloron
    (`assembler.ApproximateCaloron`) on the slice t = pi, as two `_integrate`
    sums over `quadrature.Region`s: on each gluing annulus R/2 <= r <= R,
    14 Gauss-Legendre radii x an 8 x 12 sphere rule, from the closed-form
    curvature; and sparse shells (every fourth direction, weight x 4) over
    the cores and the exterior r >= d_max + 1.5 R.  The closed form has
    E = B on those shells by construction, so they take finite differences
    at step eps/100 and measure the self-dual leakage off the annuli."""
    eps, R, spec, k = samp.epsilon, samp.R, samp.spec, samp.killing_scale
    dirs, wdir = sphere_rule(8, 12)

    sparse = (dirs[::4], 4.0 * wdir[::4])
    core = graded_radii(*_core_shell(eps, R), 4, 2)
    r_ext = spec.d_max + 1.5 * R  # outside every gluing ball, however large R is
    exterior = graded_radii(r_ext, max(8.0 * spec.d_max_eff, 2.0 * r_ext), 4, 2)
    shells = [ball_points(c, *core, *sparse) for c in samp.positions] + [ball_points(np.zeros(3), *exterior, *sparse)]
    (background_sq,) = _integrate(samp, shells, lambda x: curvature_at(
        samp, x, _T_SLICE, step=_core_step(eps)).sd_norm_sq()[:, None], per=_STENCIL)

    radii, rw = gauss_legendre(0.5 * R, R, 14)
    annuli = [ball_points(c, radii, rw, dirs, wdir) for c in samp.positions]
    (annulus_sq,) = _integrate(samp, annuli, lambda x: _closed_form_densities(
        samp, x, _T_SLICE, CurvatureSample.sd_norm_sq))

    return SdErrorEstimate(annulus_sq=k * annulus_sq, background_sq=k * background_sq)


# ---------------------------------------------------------------------------
# holonomy and flux

def _magnus_exponents(sampler, x, n_steps):
    """Magnus exponents (Fields (..., n_steps)) of each point's t-circle in its t = 0 chart, and its root alpha."""
    x = np.asarray(x, dtype=float)
    chart = sampler.chart(x, np.zeros(x.shape[:-1]))
    alpha = np.asarray(sampler.block(chart))[..., None, :]  # shared by the circle's nodes
    h = 2.0 * np.pi / n_steps
    offs = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    t0 = np.arange(n_steps) * h
    t_nodes = np.concatenate([t0 + offs[0] * h, t0 + offs[1] * h])
    shape = x.shape[:-1] + t_nodes.shape
    if chart is not None:
        chart = np.broadcast_to(np.asarray(chart)[..., None], shape)
    M = sampler.epsilon * sampler.higgs(np.broadcast_to(x[..., None, :], shape + (3,)), t_nodes, chart)
    M1, M2 = M[..., :n_steps], M[..., n_steps:]
    return 0.5 * h * (M1 + M2) + (math.sqrt(3.0) / 12.0) * h**2 * bracket(M2, M1, alpha), alpha


def circle_holonomy(sampler, x, n_steps=64):
    """The holonomy of the t-circle at x as an unwrapped Cartan element H
    (ambient coordinates), conjugate to the path-ordered exponential of
    eps Phi dt, from a 4th-order Magnus / Gauss two-point product (exact for
    a constant Phi).  x is one point (3,) or a batch (..., 3); each point
    keeps its own t = 0 chart, and every circle of the batch is evaluated in
    one sampler call.

    The holonomy lies in T x SU(2) of the chart's root alpha: a step's
    Cartan part d = phi + delta alpha^vee splits into phi, alpha(phi) = 0,
    and delta = alpha(d)/2; with the su(2) coordinate u = z |alpha|/sqrt(2)
    of z (`samplers.su2_field`) and th = sqrt(delta^2 + |u|^2) the SU(2)
    factor is (a, b) = (cos th + i delta sinc th, u sinc th).  The phases phi
    add, the SU(2) factors multiply as (a, b) pairs, and
    H = sum(phi) + vartheta alpha^vee, vartheta = atan2(sqrt(Im^2 a + |b|^2), Re a)."""
    omega, alpha = _magnus_exponents(sampler, x, n_steps)
    d, z = omega.diag, omega.off
    alpha_sq = np.sum(alpha * alpha, axis=-1)
    coroot = alpha * (2.0 / np.maximum(alpha_sq, 1e-300))[..., None]  # 0 where the chart has no su(2)
    delta = 0.5 * np.sum(d * alpha, axis=-1)
    phi = d - delta[..., None] * coroot
    u = z * np.sqrt(0.5 * alpha_sq)
    theta = np.hypot(delta, np.abs(u))
    sinc = np.sinc(theta / np.pi)
    a_step, b_step = np.cos(theta) + 1j * delta * sinc, u * sinc
    a, b, total = a_step[..., 0], b_step[..., 0], phi[..., 0, :]
    for k in range(1, n_steps):
        a, b = (a_step[..., k] * a - b_step[..., k] * np.conjugate(b),
                a_step[..., k] * b + b_step[..., k] * np.conjugate(a))
        total = total + phi[..., k, :]
    vartheta = np.arctan2(np.hypot(a.imag, np.abs(b)), a.real)
    return total + vartheta[..., None] * coroot[..., 0, :]


def sphere_averaged_holonomy(sampler, radius):
    """The holonomy's Cartan element (`circle_holonomy`) averaged over a
    6 x 8 sphere rule of the given radius, each circle in 64 Magnus steps of
    two Gauss nodes.

    Averaging kills the multipole corrections of well-separated constituent
    fields (the mean of 1/|x-p| over the sphere is exactly 1/radius),
    leaving the single-centre abelian model."""
    dirs, w = sphere_rule(6, 8)
    phases = blockwise(lambda s: circle_holonomy(sampler, radius * dirs[s], 64), len(dirs), per=2 * 64)
    return sum(wi * ph for ph, wi in zip(phases, w)) / (4.0 * np.pi)


def magnetic_charge(sampler, radius):
    """Recover the total magnetic charge as the 2-sphere flux
    (1/2 pi) Integral dA about the origin over a 12 x 24 sphere rule,
    projected on the simple coroots of sampler.datum by their dual basis
    (`coroot_fit`) and rounded.  The flux is taken from the connection by
    the spatial finite-difference stencil at t = 0, independently of any
    closed-form curvature.

    Returns (integer coefficient tuple, residual): the largest of the
    distance to the coroot lattice, the flux off their span and the
    root-space flux, the last two 0 for an abelian exterior.  A residual
    above 0.1 raises FluxAmbiguityError rather than silently misrounding.
    """
    datum = getattr(sampler, "datum", None)
    if datum is None:
        raise ValueError("magnetic_charge needs a sampler with a root datum")
    dirs, w = sphere_rule(12, 24)
    _, _, _, B, _, alpha = _stencil(sampler, radius * dirs, 0.0, _flux_step(radius))
    scale = radius**2 / (2.0 * np.pi)
    v = np.einsum("p,pi->i", w, np.einsum("pa,pai->pi", dirs, B.diag)) * scale
    alpha = np.broadcast_to(alpha, B.diag.shape[:1] + alpha.shape[-1:])  # the g_alpha flux, along each point's root
    junk = float(np.max(np.abs(np.einsum("p,pi->i", w * np.einsum("pa,pa->p", dirs, B.off), alpha) * scale)))

    coeffs, recon = coroot_fit(datum, v)
    junk = max(junk, float(np.max(np.abs(recon - v))))
    rounded = np.rint(coeffs).astype(int)
    residual = max(float(np.max(np.abs(coeffs - rounded))), junk)
    if residual > 0.1:
        raise FluxAmbiguityError(
            f"flux residual {residual:.3g} too large to round to the coroot lattice"
        )
    return tuple(int(c) for c in rounded), residual


def coroot_fit(datum, v):
    """(c, sum_i c_i alpha_i^vee), c_i = lambda_i(v) for the dual basis lambda_i = (|alpha_i|^2/2) varpi_i^vee
    of the simple coroots within their span: the orthogonal projection of v on that span."""
    roots, coweights = (np.array(a, dtype=float) for a in (datum.simple_roots, datum.fundamental_coweights()))
    coeffs = np.einsum("ij,j->i", coweights * (0.5 * np.sum(roots**2, axis=-1))[:, None], v)
    return coeffs, np.einsum("i,ij->j", coeffs, np.array(datum.simple_coroots, dtype=float))


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
    holonomy_cartan: Tuple[float, ...]
    holonomy_model_cartan: Tuple[float, ...]
    tr_f_wedge_f: Optional[float] = None
    grid: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
