"""Curvature, self-dual split, integration, holonomy and flux numerics."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from calorons.assembler import (
    ApproximateCaloron,
    CaloronSpec,
    Constituent,
    FundamentalCaloron,
    SingularCaloron,
    approximate_caloron,
)
from calorons.errors import FluxAmbiguityError
from calorons.fieldcalc import (
    CurvatureSample,
    circle_holonomy,
    coroot_fit,
    curvature_at,
    energy_and_tr_f_wedge_f,
    lie_inner,
    magnetic_charge,
    sd_error_l2,
    sphere_averaged_holonomy,
)
from calorons.quadrature import _leggauss, block_sum, desk_grid, graded_radii, sphere_rule
from calorons.rootsys import all_simple_types, build_root_datum
from calorons.samplers import ConnectionSampler, Field, bracket, su2_field
from oracles import (
    PulledBackSampler,
    RotationMap,
    compact,
    dense,
    dense_circle_holonomy,
    dense_exact_curvature,
    dense_norm_sq,
    dirac_potential,
    gauge_transform,
    inner_sd_asd,
    lstsq_coroot_fit,
    max_entry,
    node_su2,
    su2_caloron,
)

ITAU = [
    1j * np.array([[0, 1], [1, 0]], dtype=complex),
    1j * np.array([[0, -1j], [1j, 0]], dtype=complex),
    1j * np.array([[1, 0], [0, -1]], dtype=complex),
]


class ConstantAbelianSampler(ConnectionSampler):
    """Flat connection omega dt: A = 0, Phi = omega_matrix / eps; no charge."""

    def __init__(self, omega_matrix, epsilon):
        self.omega_matrix = np.asarray(omega_matrix, dtype=complex)
        self.n = self.omega_matrix.shape[0]
        self.epsilon = float(epsilon)
        self.charge = np.zeros(self.n)

    def evaluate(self, x, t, chart=None):
        shape = x.shape[:-1]
        A = np.zeros(shape + (3, self.n, self.n), dtype=complex)
        Phi = np.broadcast_to(self.omega_matrix / self.epsilon, shape + (self.n, self.n)).copy()
        return compact(A), compact(Phi)

    def exact_curvature(self, x, t):
        E = compact(np.zeros(np.shape(x)[:-1] + (3, self.n, self.n), dtype=complex))
        return E, E


# -- curvature ------------------------------------------------------------------

def test_constant_pure_gauge_curvature_vanishes():
    samp = ConstantAbelianSampler(0.3 * ITAU[2], epsilon=0.7)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    curv = curvature_at(samp, pts, 0.0, step=1e-3)
    assert max_entry(curv.E) < 1e-10
    assert max_entry(curv.B) < 1e-10


def test_bps_curvature_is_anti_self_dual():
    samp = su2_caloron(0.25, 1.0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, (30, 3))
    curv = curvature_at(samp, pts, 0.0, step=1e-3)
    assert np.sqrt(np.max(curv.sd_norm_sq())) < 1e-9
    assert np.sqrt(np.min(curv.asd_norm_sq())) > 1e-4


def test_sd_asd_projector_properties():
    rng = np.random.default_rng(2)
    E = rng.normal(size=(10, 3, 2, 2)) + 1j * rng.normal(size=(10, 3, 2, 2))
    E = 0.5 * (E - np.conjugate(np.swapaxes(E, -1, -2)))
    B = rng.normal(size=(10, 3, 2, 2)) + 1j * rng.normal(size=(10, 3, 2, 2))
    B = 0.5 * (B - np.conjugate(np.swapaxes(B, -1, -2)))
    curv = CurvatureSample(E=compact(E), B=compact(B))
    sd, asd = curv.sd_part, curv.asd_part
    assert np.allclose(dense(sd + asd), E)
    assert np.allclose(dense(asd - sd), B)
    # norm additivity <=> orthogonality of the two projections
    assert np.max(np.abs(inner_sd_asd(curv))) < 1e-10
    # a purely self-dual input has vanishing asd part
    pure = CurvatureSample(E=compact(E), B=compact(-E))
    assert max_entry(pure.asd_part) < 1e-14


def test_abelian_bianchi_third_order():
    """Numerical dF = 0 for the Dirac caloron, O(step^3) via second
    differences of the curvature."""
    spec = CaloronSpec(
        epsilon=0.3, series="A", rank=1, omega=(0.2, -0.2),
        constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
    )
    sing = SingularCaloron(spec)
    x0 = np.array([1.1, 0.7, 0.9])

    def divB(h):
        acc = 0.0
        for i in range(3):
            xp = x0.copy(); xp[i] += h
            xm = x0.copy(); xm[i] -= h
            Ep, Bp = dense_exact_curvature(sing, xp[None, :], 0.0)
            Em, Bm = dense_exact_curvature(sing, xm[None, :], 0.0)
            acc = acc + (Bp[0, i] - Bm[0, i]) / (2 * h)
        return float(np.max(np.abs(acc)))

    # the defect is pure FD truncation: small and at least 2nd order in step
    assert divB(1e-3) < 20 * (1e-3) ** 2
    assert divB(1e-3) / divB(5e-4) > 3.5


# -- gauge invariance ----------------------------------------------------------

class _SmoothPeriodicGauge:
    """g = exp(sin(t) u(x) i tau_2) exp(w(x) i tau_3), periodic in t."""

    def _factors(self, x, t):
        x = np.asarray(x, float)
        t = np.broadcast_to(np.asarray(t, float), x.shape[:-1])
        u = 0.3 * np.exp(-0.2 * np.sum(x**2, axis=-1))
        w = 0.4 * np.tanh(x[..., 0])
        return u, w, t

    def __call__(self, x, t):
        u, w, t = self._factors(x, t)
        a = np.sin(t) * u
        g1 = np.cos(a)[..., None, None] * np.eye(2) + np.sin(a)[..., None, None] * ITAU[1]
        g2 = np.zeros(w.shape + (2, 2), dtype=complex)
        g2[..., 0, 0] = np.exp(1j * w)
        g2[..., 1, 1] = np.exp(-1j * w)
        return g1 @ g2

    def spatial_derivative(self, x, t, h=1e-5):
        x = np.asarray(x, float)
        out = np.zeros(x.shape[:-1] + (3, 2, 2), dtype=complex)
        for i in range(3):
            xp = x.copy(); xp[..., i] += h
            xm = x.copy(); xm[..., i] -= h
            out[..., i, :, :] = (self(xp, t) - self(xm, t)) / (2 * h)
        return out

    def time_derivative(self, x, t, h=1e-6):
        return (self(x, np.asarray(t) + h) - self(x, np.asarray(t) - h)) / (2 * h)


def test_gauge_invariance_of_curvature_norm():
    base = su2_caloron(0.3, 0.8)
    gauged = PulledBackSampler(base, _SmoothPeriodicGauge())
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(15, 3)) * 2
    ts = rng.uniform(0, 2 * np.pi, 15)
    c0 = curvature_at(base, pts, ts, step=2e-4)
    c1 = curvature_at(gauged, pts, ts, step=2e-4)
    assert np.max(np.abs(c0.norm_sq() - c1.norm_sq())) < 1e-6
    assert np.max(np.abs(c0.sd_norm_sq() - c1.sd_norm_sq())) < 1e-6


def test_gauge_invariance_of_energy():
    base = su2_caloron(0.3, 0.8)
    gauged = PulledBackSampler(base, _SmoothPeriodicGauge())
    grid = desk_grid([np.zeros(3)], [1.0 / (2 * base.v)], 0.5)
    e0 = energy_and_tr_f_wedge_f(base, grid)[0]
    e1 = energy_and_tr_f_wedge_f(gauged, grid)[0]
    assert abs(e0.value - e1.value) / e0.value < 1e-3


def test_pulled_back_exact_curvature_matches_fd():
    base = su2_caloron(0.3, 0.8)
    gauged = PulledBackSampler(base, _SmoothPeriodicGauge())
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(15, 3)) * 2
    ts = rng.uniform(0, 2 * np.pi, 15)
    E, B = gauged.exact_curvature(pts, ts)
    # the test gauge's own derivatives are finite differences: a wider
    # stencil keeps their round-off small
    curv = curvature_at(gauged, pts, ts, step=3e-3)
    assert max_entry(curv.E - E) < 1e-6
    assert max_entry(curv.B - B) < 1e-6
    # a flat base stays flat under the pullback
    flat = PulledBackSampler(ConstantAbelianSampler(0.3 * ITAU[2], 0.8), _SmoothPeriodicGauge())
    E, B = flat.exact_curvature(pts, ts)
    assert max_entry(E) == 0.0 and max_entry(B) == 0.0
    # a base without a closed form has no pullback closed form either
    no_closed_form = PulledBackSampler(ConnectionSampler(), _SmoothPeriodicGauge())
    with pytest.raises(NotImplementedError):
        no_closed_form.exact_curvature(pts, ts)


@settings(max_examples=40, deadline=None)
@given(
    core=st.floats(0.2, 2.0),
    omega_prime=st.floats(0.05, 0.45),
    eps=st.floats(0.3, 1.0),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: math.hypot(*u) > 0.1),
    r_over_core=st.floats(0.05, 3.0),
    t=st.floats(0.0, 2.0 * np.pi),
)
def test_curvature_is_gauge_covariant_under_gauge_maps(core, omega_prime, eps, direction, r_over_core, t):
    """The finite-difference curvature of the pullback by a random RotationMap
    is g^-1 F g of its base's, inside and outside the map's interpolation
    core.  The step follows the scale min(r, core) on which the hedgehog
    and the interpolation vary.  Measured worst gap over 1 000 random draws:
    1.1e-8 of max(|F|, 1).  The map is only C^2 on the sphere r = core (the
    quintic's third derivative jumps there), so a stencil that straddles it
    is first order: at r = core the gap is 0.8 step.  Those points are left
    out."""
    assume(abs(r_over_core - 1.0) > 3e-3)  # the stencil reaches 2 steps <= 2e-3 core
    base = su2_caloron(omega_prime, eps)
    gauge = RotationMap(core)
    x = (r_over_core * core / math.hypot(*direction) * np.asarray(direction))[None]
    step = 1e-3 * core * min(r_over_core, 1.0)
    F = curvature_at(PulledBackSampler(base, gauge), x, t, step=step)
    F0 = curvature_at(base, x, t, step=step)
    ref, _ = gauge_transform(gauge(x, t), np.concatenate([dense(F0.E), dense(F0.B)], axis=-3))
    gap = np.max(np.abs(np.concatenate([dense(F.E), dense(F.B)], axis=-3) - ref))
    assert gap <= 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_circle_holonomy_flat_connection():
    omega = 0.31 * ITAU[2]
    samp = ConstantAbelianSampler(omega, epsilon=0.5)
    phases = circle_holonomy(samp, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(phases, [2 * np.pi * 0.31, -2 * np.pi * 0.31], atol=1e-12)


def test_circle_holonomy_batch_equals_single_points(data_dir):
    """A batch of points in four charts of the su3_triple caloron (the
    rotated core, both annulus patches, the far region) gives exactly the
    phases of four single-point calls."""
    spec = CaloronSpec.from_json((data_dir / "su3_triple.json").read_text())
    samp = approximate_caloron(spec)
    p, R = samp.positions, samp.R
    pts = np.array([
        p[0] + [0.1 * R, 0.0, 0.2 * R],
        p[1] + [0.5 * R, 0.0, 0.5 * R],
        p[2] + [0.0, -0.5 * R, -0.5 * R],
        [6.0, 5.0, -4.0],
    ])
    codes = samp.chart(pts)
    assert list(codes[:3] % 4) == [1, 2, 3] and codes[3] < 0  # core, annulus N, annulus S, far
    batch = circle_holonomy(samp, pts)
    assert batch.shape == (4, 3)
    assert np.array_equal(batch, np.stack([circle_holonomy(samp, x) for x in pts]))


def test_circle_holonomy_matches_the_dense_route_on_every_chart_kind(data_dir):
    """120 circles of the su3_triple caloron, over the cores, both annulus
    patches of every constituent and the far region's patch combinations:
    the T x SU(2) product gives the eigenphases of the n x n matrix route to
    1e-12."""
    samp = approximate_caloron(CaloronSpec.from_json((data_dir / "su3_triple.json").read_text()))
    rng = np.random.default_rng(3)

    def shell(center, r_min, r_max, count):
        u = rng.normal(size=(count, 3))
        return center + (rng.uniform(r_min, r_max, count) / np.linalg.norm(u, axis=1))[:, None] * u

    R = samp.R
    pts = np.concatenate([shell(c, lo * R, hi * R, 12) for c in samp.positions for lo, hi in ((0.02, 0.5), (0.5, 1.0))]
                         + [shell(np.zeros(3), 0.5, 8.0, 48)])
    codes = samp.chart(pts)
    assert set(codes[codes > 0].tolist()) == {4 * k + kind for k in range(3) for kind in (1, 2, 3)}
    assert len(set(codes[codes < 0].tolist())) >= 4
    ours, ref = circle_holonomy(samp, pts), dense_circle_holonomy(samp, pts)
    ours = np.sort(np.angle(np.exp(1j * ours)), axis=-1)[..., ::-1]  # the eigenphases of exp(i H)
    assert ours.shape == ref.shape == (120, 3)
    assert np.max(np.abs(ours - ref)) <= 1e-12


def test_circle_holonomy_exact_for_a_constant_phi_in_the_block():
    """A constant Phi = i diag(d) + z at (1, 2) of the block (1, 2) of su(3):
    the holonomy is exp(2 pi eps Phi), whose Cartan element is
    2 pi eps (d_0, c + theta, c - theta) with c = (d_1 + d_2)/2 and
    theta^2 = delta^2 + |z|^2, delta = (d_1 - d_2)/2, unwrapped: d_0 stays
    past pi."""
    d, z, eps = np.array([1.5, 0.2, -0.6]), 0.3 + 0.4j, 0.4

    class ConstantBlock(ConnectionSampler):
        n, epsilon, root = 3, eps, np.array([0.0, 1.0, -1.0])

        def evaluate(self, x, t, chart=None):
            shape = x.shape[:-1]
            A = Field(np.zeros(shape + (3, 3)), np.zeros(shape + (3,), dtype=complex))
            return A, Field(np.broadcast_to(d, shape + (3,)).copy(), np.full(shape, z))

    c, delta = 0.5 * (d[1] + d[2]), 0.5 * (d[1] - d[2])
    theta = math.sqrt(delta**2 + abs(z) ** 2)
    expect = 2.0 * np.pi * eps * np.array([d[0], c + theta, c - theta])
    assert expect[0] > np.pi
    phases = circle_holonomy(ConstantBlock(), np.array([[0.3, -1.0, 2.0], [4.0, 0.0, 0.0]]))
    assert np.max(np.abs(phases - expect)) <= 1e-13


def test_circle_holonomy_abelian_model_shift():
    """Phases of the charge-gamma abelian model shift by -2 pi eps w(gamma)/2r."""
    eps = 0.2
    spec = CaloronSpec(
        epsilon=eps, series="A", rank=1, omega=(0.15, -0.15),
        constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
    )
    sing = SingularCaloron(spec)
    x = np.array([2.0, 1.0, -1.5])
    r = np.linalg.norm(x)
    phases = circle_holonomy(sing, x)
    expect = 2 * np.pi * (0.15 - eps / (2 * r))
    assert abs(phases[0] - expect) < 1e-10


def test_circle_holonomy_fourth_order_convergence():
    class Wobble(ConnectionSampler):
        n, epsilon = 2, 1.0

        def evaluate(self, x, t, chart=None):
            A = np.zeros(x.shape[:-1] + (3, 2, 2), dtype=complex)
            Phi = (
                0.3 * np.cos(t)[..., None, None] * ITAU[0]
                + 0.2 * ITAU[2]
                + 0.1 * np.sin(2 * t)[..., None, None] * ITAU[2]
            )
            return compact(A), compact(Phi)

    w = Wobble()
    x = np.array([1.0, 0.0, 0.0])
    ref = circle_holonomy(w, x, n_steps=2048)
    errs = [np.max(np.abs(circle_holonomy(w, x, n_steps=n) - ref)) for n in (16, 32, 64)]
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


# -- flux ------------------------------------------------------------------------

def test_magnetic_charge_zero_for_flat():
    d = build_root_datum("A", 1)
    samp = ConstantAbelianSampler(0.2 * ITAU[2], epsilon=0.5)
    samp.datum = d
    coeffs, resid = magnetic_charge(samp, 3.0)
    assert coeffs == (0,)
    assert resid < 1e-12


def test_magnetic_charge_su2_mixed_constituents():
    """n1 = 2 monopoles and n0 = 1 rotated monopole: k = 2 - 1 = 1."""
    eps = 0.04
    spec = CaloronSpec(
        epsilon=eps, series="A", rank=1, omega=(0.25, -0.25),
        constituents=[
            Constituent(1, (2.0, 0.0, 0.0), 0.0),
            Constituent(1, (-2.0, 0.1, 0.2), 0.0),
            Constituent(0, (0.1, 2.2, -0.3), 0.0),
        ],
        gluing_c=0.3,
    )
    samp = approximate_caloron(spec)
    coeffs, resid = magnetic_charge(samp, 7.0)
    assert coeffs == (1,)
    assert resid < 0.05


def test_magnetic_charge_su3_cancellation():
    spec = CaloronSpec(
        epsilon=0.02, series="A", rank=2, omega=(1 / 3, 0.0, -1 / 3),
        constituents=[
            Constituent(0, (2.5, 0.0, 0.1), 0.0),
            Constituent(1, (-1.4, 2.3, -0.2), 0.0),
            Constituent(2, (-1.2, -2.4, 0.15), 0.0),
        ],
        gluing_c=0.15,
    )
    samp = approximate_caloron(spec)
    coeffs, resid = magnetic_charge(samp, 8.0)
    assert coeffs == (0, 0)
    assert resid < 1e-6


def test_magnetic_charge_ambiguity_raises():
    class Junk(ConnectionSampler):
        n, epsilon = 2, 1.0

        def evaluate(self, x, t, chart=None):
            # a non-quantized radial "flux" field: B_rad ~ 0.4 xhat/2r^2
            r = np.linalg.norm(x, axis=-1)[..., None]
            A = np.zeros(x.shape[:-1] + (3, 2, 2), dtype=complex)
            coeff = 0.4 * x / (2 * np.maximum(r, 1e-12) ** 3)
            B = coeff[..., :, None, None] * ITAU[2]
            self._fake = B
            return compact(A), compact(0.0 * B[..., 0, :, :])

        def exact_curvature(self, x, t):
            r = np.linalg.norm(x, axis=-1)[..., None]
            coeff = 0.4 * x / (2 * np.maximum(r, 1e-12) ** 3)
            B = compact(coeff[..., :, None, None] * ITAU[2])
            return B, B

    d = build_root_datum("A", 1)

    class FakeFlux(ConnectionSampler):
        n, epsilon = 2, 1.0
        datum = d

        def evaluate(self, x, t, chart=None):
            # potential of a 0.4-charge Dirac monopole: flux is not integral
            A = 0.4 * dirac_potential(x, "N")[..., :, None, None] * ITAU[2]
            r = np.linalg.norm(x, axis=-1)
            Phi = -0.4 * ITAU[2] / (2 * r)[..., None, None]
            return compact(A), compact(Phi)

    with pytest.raises(FluxAmbiguityError):
        magnetic_charge(FakeFlux(), 3.0)


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_coroot_fit_by_the_dual_basis_matches_least_squares(series, rank):
    """The flux fit's coefficients lambda_i(v) over the simple coroots and its
    reconstruction residual equal np.linalg.lstsq's to 1e-12, on vectors in
    the span of the coroots (whose coefficients they recover) and off it."""
    datum = build_root_datum(series, rank)
    rng = np.random.default_rng(rank)
    coroots = np.array(datum.simple_coroots, dtype=float)
    drawn = rng.normal(size=(4, rank))
    in_span = np.einsum("vi,ij->vj", drawn, coroots)
    off_span = in_span + rng.normal(size=(4, datum.ambient_dim))
    for v, exact in zip(np.concatenate([in_span, off_span]), list(drawn) + [None] * 4):
        (coeffs, recon), (ref_coeffs, ref_recon) = coroot_fit(datum, v), lstsq_coroot_fit(datum, v)
        assert np.max(np.abs(coeffs - ref_coeffs)) <= 1e-12
        assert abs(np.max(np.abs(recon - v)) - np.max(np.abs(ref_recon - v))) <= 1e-12
        if exact is not None:
            assert np.max(np.abs(coeffs - exact)) <= 1e-12 and np.max(np.abs(recon - v)) <= 1e-12


# -- energy -----------------------------------------------------------------------

def test_energy_zero_field():
    samp = ConstantAbelianSampler(np.zeros((2, 2)), epsilon=1.0)
    grid = desk_grid([np.zeros(3)], [0.5], 0.5)
    e = energy_and_tr_f_wedge_f(samp, grid)[0]
    assert abs(e.value) < 1e-12


def test_energy_bps_and_rotated_quarter():
    """The two fundamental SU(2) calorons at omega' = 1/4, eps = 1 both
    carry energy 1/2 (= 2 omega' and 1 - 2 omega')."""
    bps = su2_caloron(0.25, 1.0)
    grid = desk_grid([np.zeros(3)], [1.0 / (2 * bps.v)], 1.0)
    e_bps, q = energy_and_tr_f_wedge_f(bps, grid)
    assert abs(e_bps.value - 0.5) < 0.005
    assert abs(q - 0.5) < 0.005


def test_energy_and_tr_f_wedge_f_one_slice_matches_four_slices():
    """The fused pass's one t-slice matches a 4-slice reference loop (the
    fsum of per-slice block sums, none at t = pi) of the t-dependent rotated
    caloron, energy and trF^F each."""
    d = build_root_datum("A", 1)
    eps = 0.2
    samp = FundamentalCaloron(d, 0, (0.15, -0.15), eps)
    grid = desk_grid([np.zeros(3)], [1.0 / (2 * samp.v)], 0.5)
    energy, topo = energy_and_tr_f_wedge_f(samp, grid)

    nt = 4
    ts = 2.0 * np.pi * (np.arange(nt) + 0.5) / nt
    t_w = eps * 2.0 * np.pi / nt
    dens = {"energy": [], "topo": []}
    for region in grid.regions:
        for t in ts:
            E, B = samp.exact_curvature(region.points, t)
            curv = CurvatureSample(E=E, B=B)
            dens["energy"].append(block_sum(curv.norm_sq(), region.weights) * t_w)
            top = 2.0 * np.sum(lie_inner(curv.E, curv.B), axis=-1)
            dens["topo"].append(block_sum(top, region.weights) * t_w)
    tail = eps * float(dense_norm_sq(1j * np.diag(samp.charge))) / (2.0 * grid.r_max)
    assert energy.tail == tail
    ref_energy = math.fsum(dens["energy"]) / (8.0 * np.pi**2)
    ref_topo = math.fsum(dens["topo"]) / (8.0 * np.pi**2) + tail
    assert abs(energy.raw - ref_energy) <= 1e-14 * abs(ref_energy)
    assert abs(topo - ref_topo) <= 1e-14 * abs(ref_topo)


def test_rotated_energy_equals_circle_invariant():
    """The rotated caloron is a gauge transform of the circle-invariant one
    with the same mass at omega' = 1/4: closed-form curvature gives it the
    same energy and trF^F on the same grid."""
    bps, rot = su2_caloron(0.25, 1.0), su2_caloron(0.25, 1.0, rotated=True)
    assert bps.v == rot.v
    grid = desk_grid([np.zeros(3)], [1.0 / (2 * bps.v)], 1.0)
    e_bps, q_bps = energy_and_tr_f_wedge_f(bps, grid)
    e_rot, q_rot = energy_and_tr_f_wedge_f(rot, grid)
    assert abs(e_rot.value - e_bps.value) <= 1e-12
    assert abs(q_rot - q_bps) <= 1e-12


def test_tr_f_wedge_f_abelian_tail_consistency():
    """For a shell around a single Dirac monopole the topological density
    equals the energy density (E = B), and both match the analytic
    1/(2 r^4) tail integral."""
    eps = 0.5
    spec = CaloronSpec(
        epsilon=eps, series="A", rank=1, omega=(0.2, -0.2),
        constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
    )
    sing = SingularCaloron(spec)
    r_in, r_out = 2.0, 9.0
    radii, rw = graded_radii(r_in, r_out, 10, 4)
    dirs, wdir = sphere_rule(8, 12)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    w = ((radii**2 * rw)[:, None] * wdir[None, :]).reshape(-1)
    E, B = sing.exact_curvature(pts, 0.0)
    dens_e = np.sum(lie_inner(E, E) + lie_inner(B, B), axis=-1)
    dens_q = 2.0 * np.sum(lie_inner(E, B), axis=-1)
    val_e = block_sum(dens_e, w) * (2 * np.pi * eps) / (8 * np.pi**2)
    val_q = block_sum(dens_q, w) * (2 * np.pi * eps) / (8 * np.pi**2)
    # analytic: (1/8 pi^2)(2 pi eps) |gamma|^2 2 pi (1/r_in - 1/r_out)
    expected = eps * 2.0 * (1 / r_in - 1 / r_out) / 2.0
    assert abs(val_e - expected) < 1e-6
    assert abs(val_q - expected) < 1e-6


def test_sphere_averaged_holonomy_kills_dipole():
    """The sphere average reproduces the single-centre model even when the
    monopole sits off-centre."""
    eps = 0.1
    spec = CaloronSpec(
        epsilon=eps, series="A", rank=1, omega=(0.2, -0.2),
        constituents=[Constituent(1, (1.1, -0.7, 0.4), 0.0)], gluing_c=0.3,
    )
    sing = SingularCaloron(spec)
    L = 12.0
    phases = sphere_averaged_holonomy(sing, L)
    model = 2 * np.pi * (0.2 - eps / (2 * L))
    assert abs(phases[0] - model) < 1e-9


def test_sd_error_of_exact_caloron_is_fd_floor():
    """Feeding an exact caloron (no gluing) through the L^2 error pipeline
    returns the finite-difference floor: E = B on the annuli in closed form
    and on the background shells up to the stencil's error.  The exact
    caloron is the glued one's own fundamental caloron, on its geometry."""
    class Exact(ApproximateCaloron):
        def block(self, chart):
            return self.locals[0].root

        def evaluate(self, x, t, chart=None):
            return self.locals[0].evaluate(x, t)

        def curvature_densities(self, x, t, densities):
            return self.locals[0].curvature_densities(x, t, densities)

    spec = CaloronSpec(
        epsilon=0.05, series="A", rank=1, omega=(0.25, -0.25),
        constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
    )
    est = sd_error_l2(Exact(spec))
    est_glued = sd_error_l2(approximate_caloron(spec))
    assert est.value < 1e-6
    assert est_glued.value > 1e-2  # the glue error is real by comparison


def test_sd_error_localization_sees_leakage_off_the_annuli():
    """The background shells take finite differences of the connection, so
    a self-dual error off the annuli shows even where the closed form is
    exact: a Cartan Higgs gradient E_1 = gamma on the cores and the exterior
    leaves exact_curvature untouched but pulls the annulus fraction down."""
    class Leaky(ApproximateCaloron):
        def evaluate(self, x, t, chart=None):
            if chart is None:
                chart = self.chart(x)
            A, Phi = super().evaluate(x, t, chart)
            code = np.asarray(chart)
            off_annuli = (code < 0) | ((code - 1) % 4 == 0)
            return A, Phi + (off_annuli * x[..., 0]) * Field(self.charge, np.zeros((), dtype=complex))

    spec = CaloronSpec(
        epsilon=0.05, series="A", rank=1, omega=(0.25, -0.25),
        constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
    )
    glued, leaky = approximate_caloron(spec), Leaky(spec)
    x = np.array([[0.1, 0.0, 0.05], [3.0, 1.0, -2.0]])
    E_glued, E_leaky = glued.exact_curvature(x, 1.0)[0], leaky.exact_curvature(x, 1.0)[0]
    assert np.array_equal(E_glued.diag, E_leaky.diag) and np.array_equal(E_glued.off, E_leaky.off)
    assert sd_error_l2(glued).annulus_fraction > 0.999
    assert sd_error_l2(leaky).annulus_fraction < 0.95


def test_holonomy_phases_continuous_and_converge():
    """Eigenphases vary continuously in |x| and tend to 2 pi w(omega)."""
    eps = 0.1
    spec = CaloronSpec(
        epsilon=eps, series="A", rank=1, omega=(0.2, -0.2),
        constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
    )
    sing = SingularCaloron(spec)
    dirn = np.array([1.0, 2.0, 2.0]) / 3.0
    radii = np.geomspace(2.0, 500.0, 12)
    tops = [circle_holonomy(sing, r * dirn)[0] for r in radii]
    target = 2 * np.pi * 0.2
    devs = np.abs(np.array(tops) - target)
    assert np.all(np.diff(tops) > 0)  # monotone approach from below (charge +1)
    assert np.all(np.diff(devs) < 0)
    # the residual is the abelian 1/r tail: 2 pi eps/(2r)
    assert abs(devs[-1] - 2 * np.pi * eps / (2 * 500.0)) < 1e-9


def test_block_sum_deterministic_and_accurate():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=20001)
    w = rng.uniform(0.5, 1.5, size=20001)
    s1 = block_sum(vals, w)
    s2 = block_sum(vals, w)
    assert s1 == s2
    assert abs(s1 - math.fsum(vals * w)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 14, 16, 24, 32])
def test_gauss_legendre_nodes_match_numpy(n):
    """The Newton iteration on the Legendre recurrence gives numpy's nodes
    and weights for every order the grids use (3, 4, 6, 8, 12, 14, 24)."""
    x, w = _leggauss(n)
    x_np, w_np = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - x_np)) < 1e-14
    assert np.max(np.abs(w - w_np)) < 1e-14


def test_lie_inner_norm_is_the_sum_of_squares_at_every_length():
    """lie_inner(X, X) is |d|^2 + 2 (Re z^2 + Im z^2) to the bit at every
    batch length, including those where numpy's SIMD loop for a complex
    product may fuse an FMA."""
    rng = np.random.default_rng(3)
    for n in (1, 7, 100, 4097):
        X = Field(rng.normal(size=(n, 3, 4)), (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) * 1e3)
        want = np.sum(X.diag**2, axis=-1) + 2.0 * (X.off.real**2 + X.off.imag**2)
        assert np.array_equal(lie_inner(X, X), want)


_VECTORS = st.tuples(*[st.floats(-10.0, 10.0)] * 3).map(np.array)


@settings(max_examples=60, deadline=None)
@given(group=st.sampled_from(all_simple_types()), node=st.integers(0, 8), V=_VECTORS, W=_VECTORS)
@example(group=("C", 3), node=0, V=np.array([0.0, 0.0, 9.0]), W=np.array([0.0, 7.0, 0.0]))
def test_embedded_su2_norm_and_bracket_in_root_coordinates(group, node, V, W):
    """For every simple type of rank <= 8 and every node mu, the su(2) of the
    root alpha of `node_su2`: killing_scale times lie_inner(X, X) of X =
    su2_field(V, alpha) is |V|^2 times the exact norm_sq(alpha^vee), and the
    bracket of two embedded fields is the embedded su(2) commutator
    [V.i tau, W.i tau] = -2 (V x W).i tau, to 1e-14 of the largest sum
    |V_j||W_k| + |V_k||W_j| that a component of V x W is formed from (the
    orthogonal V, W of the example miss 1e-14 by one ulp of 89.1)."""
    d = build_root_datum(*group)
    root, coroot = node_su2(d, node % (d.rank + 1))
    alpha = np.array(root, dtype=float)
    X = su2_field(V, alpha)
    norm = float(d.killing_scale) * lie_inner(X, X)
    assert math.isclose(norm, float(V @ V) * float(d.norm_sq(coroot)), rel_tol=1e-13, abs_tol=1e-300)
    got, want = bracket(su2_field(V, alpha), su2_field(W, alpha), alpha), su2_field(-2.0 * np.cross(V, W), alpha)
    aV, aW = np.abs(V), np.abs(W)
    scale = 1.0 + max(aV[j] * aW[k] + aV[k] * aW[j] for j, k in ((1, 2), (2, 0), (0, 1)))
    assert np.max(np.abs(got.diag - want.diag)) <= 1e-14 * scale and abs(got.off - want.off) <= 1e-14 * scale
