"""SU(2) building blocks: BPS pair, framing, Dirac monopoles, rotation map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calorons.assembler import FundamentalCaloron
from calorons.errors import ChartDomainError, HolonomyParameterError, SingularPointError
from calorons.fieldcalc import circle_holonomy, curvature_at
from calorons.quadrature import sphere_rule
from calorons.rootsys import build_root_datum
from calorons.su2 import bps_higgs_profile, dirac_potential, string_gauge_fields
from oracles import (
    ITAU,
    bps_curvature_fields,
    _mul,
    bps_fields,
    bps_remainder,
    compact,
    dense,
    dense_exact_curvature,
    dense_fields,
    dense_norm_sq,
    dirac_monopole,
    embed_reference,
    gauge_transform,
    hedgehog_framing,
    hedgehog_framing_derivative,
    itau,
    max_entry,
    rotated_pullback,
    rotated_remainder,
    rotation_gauge,
    string_gauge_matrices,
    su2_caloron,
    xhat_itau,
)

ITAU3 = 1j * np.diag([1.0, -1.0])


# -- BPS pair ------------------------------------------------------------------

def test_bps_higgs_profile_closed_form():
    # oracle: direct scalar evaluation, v=1, r=5
    val = bps_higgs_profile(1.0, 5.0)
    assert abs(val - (1.0 / math.tanh(10.0) - 0.1)) < 1e-12
    assert abs(val - 0.9000000041223074) < 1e-12


def test_bps_core_is_smooth_zero():
    A, Phi = bps_fields(np.zeros(3), 1.0)
    assert np.allclose(A, 0) and np.allclose(Phi, 0)
    # series region: no NaN, linear growth (2 v^2/3) r
    for r in (1e-7, 1e-6, 1e-5):
        val = bps_higgs_profile(1.0, r)
        assert np.isfinite(val)
        assert abs(val - 2.0 * r / 3.0) < 1e-12


def test_bps_higgs_bounded_and_increasing():
    v = 0.7
    rs = np.linspace(1e-4, 30, 400)
    phi = bps_higgs_profile(v, rs)
    assert np.all(np.diff(phi) > 0)
    assert np.all(phi < v)
    assert phi[-1] > v - 1.0 / (2 * rs[-1]) - 1e-6


def test_bps_bogomolny_residual_second_order():
    """Central-difference Bogomolny residual F_A - *dPhi is O(h^2)."""
    rng = np.random.default_rng(42)
    pts = rng.uniform(-2.5, 2.5, size=(100, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.05]

    def residual(h):
        worst = 0.0
        A0, Phi0 = bps_fields(pts, 1.0)
        dA = np.zeros(pts.shape[:-1] + (3, 3, 2, 2), dtype=complex)
        dPhi = np.zeros(pts.shape[:-1] + (3, 2, 2), dtype=complex)
        for i in range(3):
            dp = pts.copy(); dp[:, i] += h
            dm = pts.copy(); dm[:, i] -= h
            Ap, Pp = bps_fields(dp, 1.0)
            Am, Pm = bps_fields(dm, 1.0)
            dA[:, i] = (Ap - Am) / (2 * h)
            dPhi[:, i] = (Pp - Pm) / (2 * h)
        dAPhi = dPhi + np.einsum("...aij,...jk->...aik", A0, Phi0) - np.einsum(
            "...ij,...ajk->...aik", Phi0, A0
        )
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            Fij = dA[:, i, j] - dA[:, j, i] + A0[:, i] @ A0[:, j] - A0[:, j] @ A0[:, i]
            worst = max(worst, float(np.max(np.abs(Fij - dAPhi[:, k]))))
        return worst

    r2 = residual(1e-2)
    r3 = residual(1e-3)
    assert r2 < 10 * (1e-2) ** 2
    assert r3 < 10 * (1e-3) ** 2
    assert r2 / r3 >= 50.0


def test_bps_caloron_time_independent_and_mass():
    samp = su2_caloron(0.25, 1.0)
    assert samp.v == 0.25
    x = np.array([[1.0, 2.0, -0.5]])
    A0, P0 = dense_fields(samp, x, 0.0)
    A1, P1 = dense_fields(samp, x, np.pi)
    assert np.array_equal(A0, A1) and np.array_equal(P0, P1)
    # |Phi| tends to v at large r
    far = np.array([[80.0, 0.0, 0.0]])
    _, Pf = dense_fields(samp, far, 0.0)
    assert abs(np.max(np.abs(Pf)) - 0.25) < 1e-2


def test_bps_caloron_core_radius_scales_with_epsilon():
    # half-max level set of |Phi|: phi(r*) = v/2; r* scales like 1/v
    from scipy.optimize import brentq

    def rstar(eps):
        samp = su2_caloron(0.25, eps)
        return brentq(lambda r: bps_higgs_profile(samp.v, r) - samp.v / 2, 1e-6, 1e3)

    assert abs(rstar(0.1) / rstar(1.0) - 0.1) < 1e-6


def test_bps_holonomy_parameter_validation():
    with pytest.raises(HolonomyParameterError):
        su2_caloron(0.6, 1.0)
    with pytest.raises(HolonomyParameterError):
        su2_caloron(-0.1, 1.0, rotated=True)


def test_bps_curvature_closed_form_vs_fd():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, size=(40, 3))
    samp = su2_caloron(0.3, 1.0)
    curv = curvature_at(samp, pts, 0.0, step=1e-3)
    exact = bps_curvature_fields(pts, 0.3)
    assert np.max(np.abs(dense(curv.E) - exact)) < 5e-11
    assert np.max(np.abs(dense(curv.B) - exact)) < 5e-11


def test_rotated_closed_form_curvature_vs_fd():
    """g^-1 F_BPS g against the finite-difference stencil, outside the
    rotation-gauge core where the stencil resolves g."""
    samp = su2_caloron(0.3, 1.0, rotated=True)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(40, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pts = u * rng.uniform(0.6 / samp.v, 4.0, 40)[:, None]
    ts = rng.uniform(0.0, 2.0 * np.pi, 40)
    E, B = samp.exact_curvature(pts, ts)
    assert np.array_equal(E.diag, B.diag) and np.array_equal(E.off, B.off)
    curv = curvature_at(samp, pts, ts, step=1e-3)
    assert max_entry(curv.E - E) < 1e-11
    assert max_entry(curv.B - B) < 1e-11


def test_rotated_fd_curvature_matches_closed_form_inside_rotation_core():
    """Inside the interpolation core the stencil differentiates the closed-form
    fields, which carry g^-1 dg, so curvature_at resolves g^-1 F_BPS g there
    as well."""
    samp = su2_caloron(0.3, 0.02, rotated=True)
    rc = 1.0 / (2.0 * samp.v)
    rng = np.random.default_rng(12)
    u = rng.normal(size=(40, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pts = u * (rc * rng.uniform(0.05, 0.9, 40))[:, None]
    ts = rng.uniform(0.0, 2.0 * np.pi, 40)
    _, B = samp.exact_curvature(pts, ts)
    curv = curvature_at(samp, pts, ts, step=1e-5)
    assert max_entry(curv.B - B) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    omega_prime=st.floats(0.05, 0.45),
    log_eps=st.floats(math.log(1e-3), math.log(3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotated_closed_form_matches_the_pullback(omega_prime, log_eps, seed):
    """The closed-form rotated monopole, alone and embedded as the mu = 0
    FundamentalCaloron of SU(3) (with a non-zero Cartan shift), equals the
    oracle pullback of the BPS caloron by its rotation map, as 2 x 2
    products, to 1e-12 of the largest field and of the largest curvature:
    at the origin, on the sphere r = r_c where the interpolation ends, and
    inside and outside the core up to 3 r_c, at random t."""
    eps = math.exp(log_eps)
    rot, ref = su2_caloron(omega_prime, eps, rotated=True), rotated_pullback(omega_prime, eps)
    rc = 1.0 / (2.0 * rot.v)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(24, 3))
    x = u / np.linalg.norm(u, axis=1)[:, None] * (rc * np.concatenate([[0.0, 1.0], rng.uniform(0.0, 3.0, 22)]))[:, None]
    t = rng.uniform(0.0, 2.0 * np.pi, 24)
    # the su(2) parameter 1/2 (omega_1 - omega_3) of node 0 is omega', up to rounding
    datum = build_root_datum("A", 2)
    center = np.array([0.3, -0.2, 0.5])
    fund = FundamentalCaloron(datum, 0, (7 * omega_prime / 6, -omega_prime / 3, -5 * omega_prime / 6), eps, center)
    assert np.any(fund.omega_prime) and math.isclose(fund.su2_parameter, omega_prime)

    def gap(got, want):
        return max(np.max(np.abs(g - w)) for g, w in zip(got, want)) / max(np.max(np.abs(w)) for w in want)

    A, Phi = dense_fields(ref, x, t)
    assert gap(dense_fields(rot, x, t), (A, Phi)) <= 1e-12
    assert gap(dense_exact_curvature(rot, x, t), dense_exact_curvature(ref, x, t)) <= 1e-12
    xc = center + x
    ref = rotated_pullback(fund.su2_parameter, eps)
    A, Phi = dense_fields(ref, xc - center, t)
    shift = 1j * np.diag(fund.omega_prime / eps)
    assert gap(dense_fields(fund, xc, t), (embed_reference(datum, 0, A), embed_reference(datum, 0, Phi) + shift)) <= 1e-12
    E = embed_reference(datum, 0, dense_exact_curvature(ref, xc - center, t)[0])
    assert gap(dense_exact_curvature(fund, xc, t), (E, E)) <= 1e-12


def test_profiles_form_no_inf():
    """No branch forms an inf, under np.errstate(all="raise"): at the origin
    the closed branch is evaluated at r = 1, and past 2vr = 350 the terms
    that decay like exp(-2vr) are 0 (at 2vr = 1 000 and 2 000 sinh and expm1
    would overflow).  There the fields are the abelian hedgehog's."""
    bps, rot = su2_caloron(0.25, 0.01), su2_caloron(0.25, 0.01, rotated=True)
    v = bps.v
    n = np.array([0.6, 0.0, 0.8])
    with np.errstate(all="raise"):
        E, B = dense_exact_curvature(bps, np.zeros((1, 3)), 0.0)
        assert np.allclose(E[0], 2.0 * v**2 / 3.0 * ITAU, rtol=1e-15, atol=0.0)
        for u in (0.0, 1e-5, 1e-4, 1.0, 349.0, 351.0, 1e3, 2e3):
            x = (u / (2.0 * v) * n)[None]
            for samp in (bps, rot):
                samp(x, 1.0)
                samp.exact_curvature(x, 1.0)
        x = (1e3 / (2.0 * v) * n)[None]
        r = 1e3 / (2.0 * v)
        A, Phi = dense_fields(bps, x, 0.0)
        assert np.allclose(Phi[0], (v - 0.5 / r) * itau(n), rtol=1e-15, atol=0.0)
        assert np.allclose(A[0], 0.5 / r * itau(np.cross(n, np.eye(3))), rtol=1e-15, atol=0.0)
        for patch in ("N", "S"):
            x = (2e3 / (2.0 * v) * n)[None]
            zA, hP, hF, zF = string_gauge_fields(x, v, patch, np.array([1.0]), 0.3)
            assert not np.any(zA) and not np.any(hP) and not np.any(zF)
            r = np.linalg.norm(x)
            assert np.allclose(hF, -x / (2.0 * r**3), rtol=1e-15, atol=0.0)


# -- hedgehog framing -------------------------------------------------------------

def test_framing_north_pole_identity():
    f = hedgehog_framing(np.array([[0.0, 0.0, 2.0]]))
    assert np.allclose(f[0], np.eye(2), atol=1e-14)


def test_framing_x_axis_value():
    # f = cos(pi/4) id - i sin(pi/4) tau_2 on the +x axis
    f = hedgehog_framing(np.array([[3.0, 0.0, 0.0]]))[0]
    tau2 = np.array([[0, -1j], [1j, 0]])
    expected = math.cos(math.pi / 4) * np.eye(2) - 1j * math.sin(math.pi / 4) * tau2
    assert np.allclose(f, expected, atol=1e-14)


def test_framing_diagonalizes_hedgehog():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 3))
    for patch in ("N", "S"):
        f = hedgehog_framing(x, patch)
        finv = np.conjugate(np.swapaxes(f, -1, -2))
        conj = finv @ xhat_itau(x) @ f
        assert np.max(np.abs(conj - ITAU3)) < 1e-12
        assert np.max(np.abs(f @ finv - np.eye(2))) < 1e-12


def test_framing_string_raises():
    with pytest.raises(ChartDomainError):
        hedgehog_framing(np.array([[0.0, 0.0, -1.0]]), "N")
    with pytest.raises(ChartDomainError):
        hedgehog_framing(np.array([[0.0, 0.0, 1.0]]), "S")


def test_framing_derivative_vs_fd():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 3)) * 1.5
    h = 1e-5
    for patch in ("N", "S"):
        df = hedgehog_framing_derivative(x, patch)
        for i in range(3):
            xp = x.copy(); xp[:, i] += h
            xm = x.copy(); xm[:, i] -= h
            fd = (hedgehog_framing(xp, patch) - hedgehog_framing(xm, patch)) / (2 * h)
            assert np.max(np.abs(fd - df[:, i])) < 1e-8


def test_framed_higgs_exponential_decay():
    """Deviation of the framed Higgs from (v - 1/2r) i tau_3 decays at
    rate ~ 4v (the stated asymptotics of a Dirac monopole)."""
    v = 1.0
    rs = np.linspace(2.0 / v, 6.0 / v, 17)
    dirn = np.array([1.0, 2.0, 2.0]) / 3.0
    dev = []
    for r in rs:
        x = (r * dirn)[None, :]
        f = hedgehog_framing(x)
        finv = np.conjugate(np.swapaxes(f, -1, -2))
        _, Phi = bps_fields(x, v)
        framed = (finv @ Phi @ f)[0]
        model = (v - 1.0 / (2 * r)) * ITAU3
        dev.append(np.max(np.abs(framed - model)))
    rate = -np.polyfit(rs, np.log(dev), 1)[0]
    assert rate >= 3.5 * v


# -- Dirac monopole ----------------------------------------------------------------

def test_dirac_higgs_coefficient():
    mono = dirac_monopole((0.0, 0.0, 0.0), 1)
    phi = mono.higgs(np.array([[1.0, 0.0, 0.0]]))[0]
    assert np.allclose(phi, -0.5 * ITAU3)


def test_dirac_singular_point():
    mono = dirac_monopole((1.0, 0.0, 0.0), 1)
    with pytest.raises(SingularPointError):
        mono.higgs(np.array([[1.0, 0.0, 0.0]]))


def test_dirac_bogomolny_fd():
    """dA = *dPhi away from the singular point, by finite differences."""
    mono = dirac_monopole((0.0, 0.0, 0.0), 2)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(40, 3)) * 2.0
    pts = pts[(pts[:, 2] > 0.2) | (np.abs(pts[:, 0]) > 0.2)]  # keep off the string
    h = 1e-4
    for patch in ("N",):
        dA = np.zeros(pts.shape[:-1] + (3, 3, 2, 2), dtype=complex)
        dPhi = np.zeros(pts.shape[:-1] + (3, 2, 2), dtype=complex)
        for i in range(3):
            xp = pts.copy(); xp[:, i] += h
            xm = pts.copy(); xm[:, i] -= h
            dA[:, i] = (mono.potential(xp, patch) - mono.potential(xm, patch)) / (2 * h)
            dPhi[:, i] = (mono.higgs(xp) - mono.higgs(xm)) / (2 * h)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            Fij = dA[:, i, j] - dA[:, j, i]
            assert np.max(np.abs(Fij - dPhi[:, k])) < 1e-6


def test_dirac_flux_quantization():
    """(1/2 pi) surface integral of dA equals the charge at any radius."""
    mono = dirac_monopole((0.0, 0.0, 0.0), 3)
    for radius in (0.5, 2.0):
        dirs, w = sphere_rule(16, 32)
        B = mono.field_strength(radius * dirs)
        B_rad = np.einsum("pa,paij->pij", dirs, B)
        flux = np.einsum("p,pij->ij", w, B_rad) * radius**2 / (2 * np.pi)
        assert np.allclose(flux, 3 * ITAU3, atol=1e-10)


def test_dirac_patch_transition_is_dphi_gauge():
    """A_N - A_S = gamma * dphi on the equator (and everywhere off the axis)."""
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(50, 3))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.3]
    aN = dirac_potential(pts, "N")
    aS = dirac_potential(pts, "S")
    rho2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    dphi = np.stack([-pts[:, 1] / rho2, pts[:, 0] / rho2, np.zeros(len(pts))], axis=-1)
    assert np.max(np.abs(aN - aS - dphi)) < 1e-12


def test_dirac_closed_form_curvature_vs_fd():
    """closed-form F_ij = (1/2) gamma eps_ijk xhat_k / r^2 against the
    finite-difference curvature of the potential (O(step^4))."""
    from calorons.samplers import ConnectionSampler

    class DiracSampler(ConnectionSampler):
        epsilon = 1.0
        n = 2

        def __init__(self, mono):
            self.mono = mono

        def evaluate(self, x, t, chart=None):
            return compact(self.mono.potential(x, "N")), compact(self.mono.higgs(x))

    mono = dirac_monopole((0.0, 0.0, 0.0), 1)
    samp = DiracSampler(mono)
    pts = np.array([[1.2, 0.3, 0.8], [-0.5, 0.9, 1.1], [2.0, -1.0, 0.5]])
    curv = curvature_at(samp, pts, 0.0, step=1e-3)
    assert np.max(np.abs(dense(curv.B) - mono.field_strength(pts))) < 1e-9
    # E = B for the abelian caloron (Bogomolny closed form)
    assert max_entry(curv.E - curv.B) < 1e-9


# -- rotation map ----------------------------------------------------------------

def test_rotation_gauge_identity_at_t0():
    g = rotation_gauge(0.25, 1.0)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30, 3)) * 3
    assert np.max(np.abs(g(x, 0.0) - np.eye(2))) < 1e-14


def test_rotation_gauge_clutching_trivial_outside_core():
    g = rotation_gauge(0.25, 1.0)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 3))
    x *= (g.core_radius * rng.uniform(1.0, 4.0, 40) / np.linalg.norm(x, axis=1))[:, None]
    h = g.clutching(x)
    assert np.max(np.abs(h - np.eye(2))) < 1e-12
    # at exactly 2 pi the map is -id along the unit-hedgehog region
    g2pi = g(x, 2 * np.pi)
    assert np.max(np.abs(g2pi + np.eye(2))) < 1e-12


def test_rotation_gauge_unitary_everywhere():
    g = rotation_gauge(0.3, 0.5)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1000, 3)) * 2.0
    t = rng.uniform(0, 2 * np.pi, 1000)
    gv = g(x, t)
    err = np.max(np.abs(gv @ np.conjugate(np.swapaxes(gv, -1, -2)) - np.eye(2)))
    assert err < 1e-12


def test_rotation_gauge_spatial_derivative_vs_fd():
    g = rotation_gauge(0.25, 1.0)
    rng = np.random.default_rng(9)
    # probe inside and outside the interpolation core, the origin and r = r_c
    x = np.concatenate([
        rng.normal(size=(10, 3)) * 0.3 * g.core_radius,
        rng.normal(size=(10, 3)) * 3.0 * g.core_radius,
        np.zeros((1, 3)),
        [[0.6 * g.core_radius, 0.0, 0.8 * g.core_radius]],
    ])
    t = rng.uniform(0, 2 * np.pi, len(x))
    dg = g.spatial_derivative(x, t)
    assert not np.any(dg[20])  # q vanishes to third order at the origin
    h = 1e-5
    for i in range(3):
        xp = x.copy(); xp[:, i] += h
        xm = x.copy(); xm[:, i] -= h
        fd = (g(xp, t) - g(xm, t)) / (2 * h)
        assert np.max(np.abs(fd - dg[:, i])) < 1e-7


def test_rotated_bps_asd_preserved():
    rot = su2_caloron(0.3, 0.5, rotated=True)
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(20, 3)) * 2.0
    pts = pts[np.linalg.norm(pts, axis=1) > 0.6 / rot.v]
    ts = rng.uniform(0, 2 * np.pi, len(pts))
    curv = curvature_at(rot, pts, ts, step=3e-4)
    assert np.sqrt(np.max(curv.sd_norm_sq())) < 1e-7


def test_rotated_bps_curvature_norm_matches_bps():
    """|F| is pointwise gauge invariant: the rotated monopole matches the
    plain BPS caloron of the same mass everywhere, including in the
    interpolation core."""
    eps, op = 0.5, 0.3
    rot = su2_caloron(op, eps, rotated=True)
    ref = su2_caloron(0.5 - op, eps)
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(25, 3)) * 1.5
    ts = rng.uniform(0, 2 * np.pi, 25)
    c1 = curvature_at(rot, pts, ts, step=2e-4)
    c2 = curvature_at(ref, pts, ts, step=2e-4)
    assert np.max(np.abs(c1.norm_sq() - c2.norm_sq())) < 1e-7


def test_rotated_bps_is_genuinely_t_dependent():
    rot = su2_caloron(0.3, 0.5, rotated=True)
    x = np.array([[0.8, 0.2, -0.4]])
    A0, P0 = rot(x, 0.0)
    A1, P1 = rot(x, 2.0)
    assert max_entry(A0 - A1) > 1e-3


def test_rotated_holonomy_matches_charge_minus_one_model():
    eps, op = 0.25, 0.3
    rot = su2_caloron(op, eps, rotated=True)
    r = 12.0
    x = np.array([3.0, -4.0, np.sqrt(r * r - 25.0)])
    phases = circle_holonomy(rot, x, n_steps=96)
    model = 2 * np.pi * (op + eps / (2 * r))
    assert abs(phases[0] - model) < 2e-4
    assert abs(phases[1] + model) < 2e-4


def test_remainders_decay():
    """a+ decays like exp(-2 v r); the rotated remainder has the same norm."""
    v = 1.2
    rs = np.linspace(2.0, 5.0, 8)
    x = np.stack([rs / np.sqrt(3)] * 3, axis=-1)
    aA, aP = bps_remainder(x, v)
    amp = np.sqrt(np.sum(dense_norm_sq(aA), axis=-1) + dense_norm_sq(aP))
    rate = -np.polyfit(rs, np.log(amp), 1)[0]
    assert abs(rate - 2 * v) < 0.05 * v
    rA, rP = rotated_remainder(x, 1.3, v)
    amp_rot = np.sqrt(np.sum(dense_norm_sq(rA), axis=-1) + dense_norm_sq(rP))
    assert np.allclose(amp_rot, amp, atol=1e-12)


def test_remainder_makes_framed_field():
    """model + a+ reconstructs the framed BPS caloron exactly."""
    v = 0.8
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 3)) * 2.0
    x = x[2.0 * np.linalg.norm(x, axis=1) * (np.linalg.norm(x, axis=1) + x[:, 2]) > 0.1]
    aA, aP = bps_remainder(x, v)
    r = np.linalg.norm(x, axis=-1)
    model_A = dirac_potential(x, "N")[..., :, None, None] * ITAU3
    model_P = (v - 1.0 / (2 * r))[..., None, None] * ITAU3
    f = hedgehog_framing(x, "N")
    finv = np.conjugate(np.swapaxes(f, -1, -2))
    df = hedgehog_framing_derivative(x, "N")
    A, Phi = bps_fields(x, v)
    framed_A = np.einsum("...ij,...ajk,...kl->...ail", finv, A, f) + np.einsum(
        "...ij,...ajk->...aik", finv, df
    )
    framed_P = finv @ Phi @ f
    assert np.max(np.abs(model_A + aA - framed_A)) < 1e-12
    assert np.max(np.abs(model_P + aP - framed_P)) < 1e-12


def _su2_matrix(h, z):
    """h i tau_3 + [[0, z], [-conj z, 0]]."""
    out = np.empty(np.broadcast_shapes(np.shape(h), np.shape(z)) + (2, 2), dtype=complex)
    out[..., 0, 0] = 1j * h
    out[..., 1, 1] = -1j * h
    out[..., 0, 1] = z
    out[..., 1, 0] = -np.conjugate(z)
    return out


@settings(max_examples=80, deadline=None)
@given(
    patch=st.sampled_from(["N", "S"]),
    rotated=st.booleans(),
    near_axis=st.booleans(),
    v=st.floats(0.2, 30.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    t=st.floats(0.0, 2.0 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_string_gauge_fields_match_matrix_route(patch, rotated, near_axis, v, phase, t, seed):
    """The closed-form framed remainder and curvature equal the matrix route
    of tests/oracles.py (framing, its derivative, g_inf(t) and psi as 2 x 2
    products) to 1e-12 of the framed fields' size, v + 1/r for (b_A, b_Phi)
    and its square for F: on both patches, for mu = 0 (t given) and mu >= 1,
    at radii from the series branch (2vr < 1e-4) to 2vr = 10, near the
    patch's own axis or anywhere at least 25 degrees from its string."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(1e-5), np.log(5.0), 24)) / v
    cos_theta = rng.uniform(1.0 - 1e-6, 1.0, 24) if near_axis else rng.uniform(-0.9, 1.0, 24)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    phi = rng.uniform(0.0, 2.0 * np.pi, 24)
    sign = 1.0 if patch == "N" else -1.0
    x = r[:, None] * np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), sign * cos_theta], -1)
    ts = rng.uniform(0.0, 2.0 * np.pi, 24) + t if rotated else None
    zA, hP, hF, zF = string_gauge_fields(x, v, patch, ts, phase)
    bA, bP, F = string_gauge_matrices(x, v, patch, ts, phase)
    scale = v + 1.0 / r
    gap = lambda a, b: np.max(np.abs(a - b), axis=tuple(range(1, a.ndim)))  # noqa: E731
    assert np.all(gap(_su2_matrix(0.0, zA), bA) <= 1e-12 * scale)
    assert np.all(gap(_su2_matrix(hP, 0.0), bP) <= 1e-12 * scale)
    assert np.all(gap(_su2_matrix(hF, zF), F) <= 1e-12 * scale**2)


def test_string_gauge_fields_raise_on_their_string():
    with pytest.raises(ChartDomainError):
        string_gauge_fields(np.array([[0.0, 0.0, -1.0]]), 1.0, "N")
    with pytest.raises(ChartDomainError):
        string_gauge_fields(np.array([[0.0, 0.0, 1.0]]), 1.0, "S")


# -- gauge conjugation ---------------------------------------------------------

def _random_su2(rng, shape):
    q = rng.normal(size=shape + (4,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    g = np.empty(shape + (2, 2), dtype=complex)
    g[..., 0, 0] = q[..., 0] + 1j * q[..., 3]
    g[..., 0, 1] = q[..., 2] + 1j * q[..., 1]
    g[..., 1, 0] = -q[..., 2] + 1j * q[..., 1]
    g[..., 1, 1] = q[..., 0] - 1j * q[..., 3]
    return g


def test_gauge_transform_matches_einsum_conjugation():
    rng = np.random.default_rng(11)
    shape = (5, 40)
    g = _random_su2(rng, shape)
    A = rng.normal(size=shape + (3, 2, 2)) + 1j * rng.normal(size=shape + (3, 2, 2))
    Phi = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    dg = rng.normal(size=shape + (3, 2, 2)) + 1j * rng.normal(size=shape + (3, 2, 2))
    ginv = np.conjugate(np.swapaxes(g, -1, -2))
    conj_A = np.einsum("...ij,...ajk,...kl->...ail", ginv, A, g)
    ref_A = conj_A + np.einsum("...ij,...ajk->...aik", ginv, dg)
    ref_Phi = ginv @ Phi @ g
    A_new, Phi_new = gauge_transform(g, A, Phi, dg)
    assert np.max(np.abs(A_new - ref_A)) <= 1e-13
    assert np.max(np.abs(Phi_new - ref_Phi)) <= 1e-13
    A_con, Phi_con = gauge_transform(g, A, Phi)
    assert np.max(np.abs(A_con - conj_A)) <= 1e-13
    assert np.max(np.abs(Phi_con - ref_Phi)) <= 1e-13


# -- small-matrix kernels -------------------------------------------------------

def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3, 4]),
    batch=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    layout=st.sampled_from(["3x1", "1x3", "3xconst", "constx3"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_matches_matmul(n, batch, layout, seed):
    """_mul is a @ b under broadcasting, to 1e-14 of sum_j |a_ij| |b_jk|;
    for n = 2 it equals the entry-by-entry 2 x 2 formula exactly."""
    rng = np.random.default_rng(seed)
    shapes = {
        "3x1": (batch + (3, n, n), batch + (1, n, n)),
        "1x3": (batch + (1, n, n), batch + (3, n, n)),
        "3xconst": (batch + (3, n, n), (n, n)),
        "constx3": ((n, n), batch + (3, n, n)),
    }[layout]
    a, b = (_complex_normal(rng, shape) for shape in shapes)
    out = _mul(a, b)
    assert out.shape == np.broadcast_shapes(a.shape, b.shape)
    scale = np.abs(a) @ np.abs(b)
    assert np.all(np.abs(out - a @ b) <= 1e-14 * scale)
    if n == 2:
        ref = np.empty_like(out)
        ref[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
        ref[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
        ref[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
        ref[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
        assert np.array_equal(out, ref)


def test_itau_matches_einsum():
    rng = np.random.default_rng(12)
    for shape in [(3,), (7, 3), (4, 5, 3)]:
        v = rng.normal(size=shape)
        assert np.array_equal(itau(v), np.einsum("...j,jab->...ab", v, ITAU))
