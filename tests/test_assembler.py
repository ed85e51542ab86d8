"""Gluing machinery: radius, holonomy shifts, singular background, fundamental
calorons, and the assembled approximate caloron."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import lambertw

from calorons.assembler import (
    CaloronSpec,
    Constituent,
    FundamentalCaloron,
    GluingProfile,
    SingularCaloron,
    alcove_margin_report,
    approximate_caloron,
    gluing_radius,
    holonomy_shifts,
)
from calorons.errors import (
    GluingInfeasibleError,
    HolonomyParameterError,
    InputError,
    SingularPointError,
    UnsupportedRepresentationError,
)
from calorons.fieldcalc import (
    CurvatureSample,
    circle_holonomy,
    curvature_at,
    energy_and_tr_f_wedge_f,
)
from calorons.samplers import dagger
from calorons.quadrature import desk_grid
from calorons.rootsys import build_root_datum, random_interior_omega
from calorons.verify import energy_formula_float
from oracles import annulus_fields_dense, dirac_monopole


def _su2_spec(eps=0.05, w=0.25, c=0.3, constituents=None):
    if constituents is None:
        constituents = [Constituent(1, (0.0, 0.0, 0.0), 0.0)]
    return CaloronSpec(
        epsilon=eps, series="A", rank=1, omega=(w, -w),
        constituents=constituents, gluing_c=c,
    )


# -- gluing radius -----------------------------------------------------------------

def test_gluing_radius_lambert_oracle():
    # R = (eps/c) W(c / eps^2); frozen from the Lambert-W oracle
    R = gluing_radius(0.1, 1.0)
    assert abs(R - 0.338563014029005) < 1e-12
    assert abs(R - (0.1 * lambertw(100.0).real)) < 1e-12


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_gluing_radius_residual(eps):
    for c in (0.3, 1.0, 2.0):
        R = gluing_radius(eps, c)
        assert abs(R - math.exp(-c * R / eps) / eps) < 1e-12


@settings(max_examples=300, deadline=None)
@given(log_eps=st.floats(math.log(1e-8), math.log(30.0)), log_c=st.floats(math.log(1e-3), math.log(1e3)))
def test_gluing_radius_relative_residual_over_a_log_uniform_range(log_eps, log_c):
    """R solves R = eps^-1 exp(-c R/eps) to 1e-13 relative for every eps in
    [1e-8, 30] and c in [1e-3, 1e3] (measured worst 1.7e-14 over 200 000
    draws), also where R is far below 1.  `gluing_radius` raises after 20
    Newton steps, so this also bounds the iteration (measured at most 6)."""
    eps, c = math.exp(log_eps), math.exp(log_c)
    R = gluing_radius(eps, c)
    assert abs(R - math.exp(-c * R / eps) / eps) <= 1e-13 * R


def test_gluing_radius_asymptotics():
    """R ~ (eps |ln eps|) up to the constant: taking logs of the defining
    equation gives c R/eps = |ln eps| - ln R, so R/(eps |ln eps|) tends to
    2/c (monotonically over a decade sweep), i.e. R is eps|ln eps| scaled."""
    c = 1.0
    ratios = [gluing_radius(eps, c) / (eps * abs(math.log(eps))) for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    diffs = [abs(r - 2.0 / c) for r in ratios]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 0.35
    # exact Lambert-W cross-check of the trend
    for eps in (1e-3, 1e-6):
        assert abs(gluing_radius(eps, c) - eps * lambertw(c / eps**2).real / c) < 1e-12


def test_gluing_radius_infeasible():
    with pytest.raises(GluingInfeasibleError):
        gluing_radius(0.5, 0.5, d_min=0.5)


@pytest.mark.parametrize("eps,c", [(1e-30, 1e300), (1e-300, 1e100)])
def test_gluing_radius_outside_the_float_range_is_input_error(eps, c):
    """R = (eps/c) W(c/eps^2) is below 1e-308 here: the error names the
    float range instead of ending in a math domain error."""
    with pytest.raises(InputError, match="float range"):
        gluing_radius(eps, c)


def test_gluing_profile_plateaus():
    prof = GluingProfile(1.0)
    rs = np.linspace(0, 2, 401)
    chi = prof.chi(rs)
    assert np.all(chi[rs <= 0.5] == 1.0)
    assert np.all(chi[rs >= 1.0] == 0.0)
    assert np.all(np.diff(chi) <= 1e-15)
    # C^2: second difference bounded across the joins
    h = rs[1] - rs[0]
    second = np.abs(np.diff(chi, 2)) / h**2
    assert np.max(second) < 35.0


# -- spec validation -----------------------------------------------------------------

def test_spec_rejects_bad_omega():
    with pytest.raises(HolonomyParameterError):
        _su2_spec(w=0.6)
    with pytest.raises(InputError):
        CaloronSpec(epsilon=0.1, series="A", rank=1, omega=(0.25,),
                    constituents=[Constituent(1, (0, 0, 0))])


def test_spec_rejects_duplicate_positions():
    with pytest.raises(InputError):
        _su2_spec(constituents=[Constituent(1, (0, 0, 0)), Constituent(1, (0, 0, 0))])


_SU2_PAYLOAD = {
    "epsilon": 0.05,
    "group": {"series": "A", "rank": 1},
    "omega": [0.25, -0.25],
    "constituents": [{"mu": 1, "position": [0.0, 0.0, 0.0], "phase": 0.0}],
    "gluing": {"c": 0.3},
}


def _tampered(path, value):
    payload = json.loads(json.dumps(_SU2_PAYLOAD))
    *keys, last = path
    node = payload
    for k in keys:
        node = node[k]
    node[last] = value
    return payload


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(("epsilon",), math.nan, id="epsilon-nan"),
        pytest.param(("epsilon",), math.inf, id="epsilon-inf"),
        pytest.param(("gluing", "c"), math.nan, id="c-nan"),
        pytest.param(("gluing", "c"), math.inf, id="c-inf"),
        pytest.param(("omega", 0), math.nan, id="omega-nan"),
        pytest.param(("group", "rank"), 1.5, id="rank-fractional"),
        pytest.param(("constituents", 0, "mu"), 1.7, id="mu-fractional"),
        pytest.param(("constituents", 0, "mu"), True, id="mu-bool"),
        pytest.param(("constituents", 0, "position"), [0.0, math.nan, 0.0], id="position-nan"),
        pytest.param(("constituents", 0, "position"), [0.0, 1.0], id="position-2d"),
        pytest.param(("constituents", 0, "position"), [0.0, 1.0, 2.0, 3.0], id="position-4d"),
        pytest.param(("constituents", 0, "position"), ["a", 0.0, 0.0], id="position-text"),
        pytest.param(("constituents", 0, "position"), 1.0, id="position-scalar"),
        pytest.param(("constituents", 0, "phase"), math.inf, id="phase-inf"),
    ],
)
def test_spec_rejects_non_finite_misshapen_and_non_integral_fields(path, value):
    with pytest.raises(InputError):
        CaloronSpec.from_dict(_tampered(path, value))


def test_spec_accepts_integral_float_mu_and_rank():
    spec = CaloronSpec.from_dict(
        _tampered(("constituents", 0, "mu"), 1.0) | {"group": {"series": "A", "rank": 1.0}}
    )
    assert spec.constituents[0].mu == 1 and isinstance(spec.constituents[0].mu, int)
    assert spec.rank == 1 and isinstance(spec.rank, int)


def test_spec_json_roundtrip(data_dir):
    text = (data_dir / "su3_triple.json").read_text()
    spec = CaloronSpec.from_json(text)
    spec2 = CaloronSpec.from_json(spec.to_json())
    assert spec2.to_dict() == spec.to_dict()
    assert spec.counts() == (1, 1, 1)
    assert spec.charge_coefficients() == (0, 0)


def test_spec_malformed_json():
    with pytest.raises(InputError):
        CaloronSpec.from_json("{not json")
    with pytest.raises(InputError):
        CaloronSpec.from_json(json.dumps({"epsilon": 0.1}))


# -- holonomy shifts -----------------------------------------------------------------

def test_shift_single_constituent_is_identity():
    spec = _su2_spec()
    (om,) = holonomy_shifts(spec)
    assert np.allclose(om, spec.omega)


def test_shift_two_points_formula():
    """Two charge-+1 points at distance 2: the second point's parameter
    shifts by -(eps/4) alpha_1^vee."""
    eps = 0.1
    spec = _su2_spec(
        eps=eps,
        constituents=[
            Constituent(1, (0.0, 0.0, 0.0), 0.0),
            Constituent(1, (2.0, 0.0, 0.0), 0.0),
        ],
    )
    om1 = holonomy_shifts(spec)[1]
    coroot = np.asarray(spec.datum.simple_coroots[0], dtype=float)
    expected = np.array(spec.omega) - (eps / 4.0) * coroot
    assert np.allclose(om1, expected, atol=1e-15)


def test_shift_magnitude_bound():
    rng = np.random.default_rng(6)
    datum = build_root_datum("A", 2)
    for _ in range(50):
        n_pts = rng.integers(2, 5)
        pos = rng.uniform(-3, 3, size=(n_pts, 3))
        if min(
            np.linalg.norm(pos[i] - pos[j])
            for i in range(n_pts)
            for j in range(i + 1, n_pts)
        ) < 0.8:
            continue
        spec = CaloronSpec(
            epsilon=0.02, series="A", rank=2, omega=(1 / 3, 0, -1 / 3),
            constituents=[
                Constituent(int(rng.integers(0, 3)), tuple(p), 0.0) for p in pos
            ],
            gluing_c=0.15,
        )
        max_norm = max(
            math.sqrt(float(datum.norm_sq(datum.node_coroot(c.mu))))
            for c in spec.constituents
        )
        bound = spec.epsilon * (n_pts - 1) * max_norm / (2 * spec.d_min)
        for om in holonomy_shifts(spec):
            assert np.linalg.norm(np.array(om) - np.array(spec.omega)) <= bound + 1e-14


# -- singular caloron -----------------------------------------------------------------

def test_singular_single_reduces_to_dirac_plus_flat():
    eps = 0.2
    spec = _su2_spec(eps=eps, w=0.2)
    sing = SingularCaloron(spec)
    x = np.array([[0.7, -0.4, 1.1]])
    A, Phi = sing(x, 0.0)
    mono = dirac_monopole((0, 0, 0), 1)
    assert np.allclose(A, mono.potential(x, "N"), atol=1e-14)
    expected_phi = mono.higgs(x) + 1j * np.diag([0.2, -0.2]) / eps
    assert np.allclose(Phi, expected_phi, atol=1e-14)


def test_singular_su2_superposition_example():
    """n1 charge-1 and n0 charge-(-1) Dirac monopoles superposed on the
    flat background."""
    eps = 0.1
    spec = _su2_spec(
        eps=eps,
        constituents=[
            Constituent(1, (1.0, 0.0, 0.0), 0.0),
            Constituent(1, (-1.0, 0.0, 0.0), 0.0),
            Constituent(0, (0.0, 1.5, 0.0), 0.0),
        ],
    )
    sing = SingularCaloron(spec)
    x = np.array([[0.3, -0.9, 0.8]])
    _, Phi = sing(x, 0.0)
    acc = 1j * np.diag([0.25, -0.25]) / eps
    for p, q in [((1.0, 0, 0), 1), ((-1.0, 0, 0), 1), ((0, 1.5, 0), -1)]:
        r = np.linalg.norm(x[0] - np.array(p))
        acc = acc - q * 1j * np.diag([1.0, -1.0]) / (2 * r)
    assert np.allclose(Phi[0], acc, atol=1e-14)


def test_singular_flux_recovers_total_charge():
    from calorons.fieldcalc import magnetic_charge

    spec = CaloronSpec(
        epsilon=0.05, series="A", rank=2, omega=(1 / 3, 0, -1 / 3),
        constituents=[
            Constituent(1, (1.0, 0.2, -0.1), 0.0),
            Constituent(1, (-1.0, 0.4, 0.3), 0.0),
            Constituent(2, (0.2, -1.2, 0.6), 0.0),
        ],
        gluing_c=0.15,
    )
    sing = SingularCaloron(spec)
    coeffs, resid = magnetic_charge(sing, 6.0)
    assert coeffs == (2, 1)
    assert resid < 1e-6


@settings(max_examples=20, deadline=None)
@given(rank=st.integers(1, 3), count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_singular_caloron_diagonals_match_dense_reference(rank, count, seed):
    """The singular caloron accumulates its fields as real Cartan diagonals;
    the dense reference sums n x n Dirac monopoles (`oracles.AbelianPair`), each
    in the patch of the point's chart, plus i diag(omega) / eps."""
    rng = np.random.default_rng(seed)
    datum = build_root_datum("A", rank)
    omega = np.asarray(random_interior_omega(datum, random.Random(seed)), dtype=float)
    mus = rng.integers(0, rank + 1, count)
    positions = rng.uniform(-2.0, 2.0, (count, 3))
    spec = CaloronSpec(
        epsilon=0.05, series="A", rank=rank, omega=tuple(omega),
        constituents=[Constituent(int(mu), tuple(p), 0.0) for mu, p in zip(mus, positions)],
    )
    sing = SingularCaloron(spec)
    x = rng.normal(size=(30, 3)) * 2.0
    chart = sing.chart(x)
    A, Phi = sing(x, 0.7, chart)
    E, B = sing.exact_curvature(x, 0.7)
    A_ref = np.zeros_like(A)
    Phi_ref = np.broadcast_to(1j * np.diag(omega) / spec.epsilon, Phi.shape).astype(complex)
    E_ref = np.zeros_like(E)
    for k, (mu, p) in enumerate(zip(mus, positions)):
        pair = dirac_monopole(p, np.asarray(datum.node_coroot(int(mu)), dtype=float))
        south = ((chart >> k) & 1).astype(bool)[:, None, None, None]
        A_ref += np.where(south, pair.potential(x, "S"), pair.potential(x, "N"))
        Phi_ref = Phi_ref + pair.higgs(x)
        E_ref += pair.field_strength(x)
    for got, ref in ((A, A_ref), (Phi, Phi_ref), (E, E_ref), (B, E_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_singular_point_error():
    spec = _su2_spec()
    sing = SingularCaloron(spec)
    with pytest.raises(SingularPointError):
        sing(np.array([[0.0, 0.0, 0.0]]), 0.0)


# -- fundamental calorons ---------------------------------------------------------------

def test_fundamental_su2_is_bps():
    d = build_root_datum("A", 1)
    f = FundamentalCaloron(d, 1, (0.25, -0.25), 0.1)
    from calorons.su2 import BPSCaloron

    ref = BPSCaloron(0.25, 0.1)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10, 3))
    A1, P1 = f(x, 0.0)
    A2, P2 = ref(x, 0.0)
    assert np.allclose(A1, A2, atol=1e-14)
    assert np.allclose(P1, P2, atol=1e-14)


def test_fundamental_higgs_traces_alcove_line():
    """The alcove representative of the su(3) Higgs field (eigenvalues
    sorted into the dominant chamber) runs along the straight segment from
    omega towards the facet with normal alpha_mu^vee.  For mu >= 1 the
    exact core value sits on the facet {alpha_mu = 0}; for mu = 0 the
    smooth interior interpolation cuts the segment off at the core radius,
    before the {alpha_0 = -1} facet, but the approach is monotone."""
    d = build_root_datum("A", 2)
    eps = 0.05
    omega = np.array([1 / 3, 0.0, -1 / 3])
    for mu in (0, 1, 2):
        f = FundamentalCaloron(d, mu, omega, eps)
        node = np.asarray(d.node_root(mu), dtype=float)
        r_min = 1e-9 if mu else 1.0 / (2 * f.v)  # mu=0: start at the core radius
        zs = np.array([[0.0, 0.0, z] for z in np.geomspace(max(r_min, 1e-9), 60.0, 12)])
        _, Phi = f(zs, 0.0)
        eig = np.linalg.eigvalsh(-1j * eps * Phi)
        hvals = np.sort(eig, axis=-1)[:, ::-1]
        direction = hvals[0] - omega
        for h in hvals:
            dev = h - omega
            cross = np.linalg.norm(np.outer(dev, direction) - np.outer(direction, dev))
            assert cross < 1e-7
        pairings = hvals @ node
        if mu == 0:
            # alpha_0 decreases from alpha_0(omega) towards -1, never below
            assert np.all(np.diff(pairings) > -1e-12)
            assert np.all(pairings > -1.0)
            assert pairings[0] < node @ omega - 0.1
        else:
            assert abs(pairings[0]) < 1e-7
        assert np.allclose(hvals[-1], omega, atol=2e-2)


def test_fundamental_holonomy_matches_model():
    """Holonomy eigenphases at r = 30 eps match the abelian model
    exp(2 pi (omega - eps coroot/2r)) to 1e-4."""
    d = build_root_datum("A", 2)
    eps = 0.05
    omega = np.array([0.35, -0.02, -0.33])
    for mu in (0, 1, 2):
        f = FundamentalCaloron(d, mu, omega, eps)
        r = 30 * eps
        x = np.array([0.0, 0.0, r])  # on-axis: clean diagonal comparison
        phases = circle_holonomy(f, x, n_steps=64)
        coroot = np.asarray(d.node_coroot(mu), dtype=float)
        model = np.sort(2 * np.pi * (omega - eps * coroot / (2 * r)))[::-1]
        assert np.max(np.abs(phases - model)) < 1e-4


@pytest.mark.parametrize("mu", [0, 1])
def test_fundamental_closed_form_curvature_vs_fd(mu):
    """The embedded su(2) closed form against the finite-difference
    stencil, outside the rotation-gauge core of the mu = 0 caloron."""
    datum = build_root_datum("A", 2)
    center = np.array([0.3, -0.2, 0.1])
    samp = FundamentalCaloron(datum, mu, (1 / 3, 0.0, -1 / 3), 0.5, center=center)
    rng = np.random.default_rng(6)
    u = rng.normal(size=(40, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pts = center + u * rng.uniform(1.2 / (2.0 * samp.v), 3.0, 40)[:, None]
    ts = rng.uniform(0.0, 2.0 * np.pi, 40)
    E, B = samp.exact_curvature(pts, ts)
    curv = curvature_at(samp, pts, ts, step=1e-3)
    assert np.max(np.abs(curv.E - E)) < 1e-9
    assert np.max(np.abs(curv.B - B)) < 1e-9


def test_fundamental_matrix_requires_type_a():
    d = build_root_datum("B", 2)
    with pytest.raises(UnsupportedRepresentationError):
        FundamentalCaloron(d, 1, (0.3, 0.2), 0.1)


def test_fundamental_rejects_boundary_omega():
    d = build_root_datum("A", 1)
    with pytest.raises(HolonomyParameterError):
        FundamentalCaloron(d, 1, (0.0, 0.0), 0.1)


# -- approximate caloron ---------------------------------------------------------------

def test_approximate_center_value():
    spec = _su2_spec()
    samp = approximate_caloron(spec)
    A, Phi = samp(np.array([[0.0, 0.0, 0.0]]), 0.0)
    assert np.allclose(A, 0.0, atol=1e-14)
    assert np.allclose(Phi, 0.0, atol=1e-14)  # omega'_mu = 0 for SU(2)


def test_approximate_overlapping_balls_rejected():
    eps = 0.45
    with pytest.raises(GluingInfeasibleError):
        spec = _su2_spec(
            eps=eps, c=0.3,
            constituents=[
                Constituent(1, (0.0, 0.0, 0.0), 0.0),
                Constituent(1, (1.0, 0.0, 0.0), 0.0),
            ],
        )
        approximate_caloron(spec)


def test_approximate_sd_error_support():
    """F+ vanishes (to FD tolerance) off the annuli, at random t."""
    spec = CaloronSpec(
        epsilon=0.04, series="A", rank=1, omega=(0.25, -0.25),
        constituents=[
            Constituent(1, (1.5, 0.0, 0.0), 0.2),
            Constituent(0, (-1.5, 0.0, 0.1), 1.0),
        ],
        gluing_c=0.3,
    )
    samp = approximate_caloron(spec)
    R = samp.R
    rng = np.random.default_rng(8)
    ts = rng.uniform(0, 2 * np.pi, 16)
    for k, p in enumerate(samp.positions):
        u = rng.normal(size=(16, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        inner = p + 0.35 * R * u
        outer = p + 1.4 * R * u
        ci = curvature_at(samp, inner, ts, step=spec.epsilon / 100)
        co = curvature_at(samp, outer, ts, step=spec.epsilon / 100)
        assert np.sqrt(np.max(ci.sd_norm_sq())) < 1e-3
        assert np.sqrt(np.max(co.sd_norm_sq())) < 1e-6
        mid = p + 0.75 * R * u
        cm = curvature_at(samp, mid, ts, step=spec.epsilon / 100)
        assert np.sqrt(np.max(cm.sd_norm_sq())) > 1e-2


def test_approximate_chart_gauges_agree():
    """|F| computed in the core chart and in the annulus chart coincide
    where both formulas are valid gauges of the connection."""
    spec = _su2_spec()
    samp = approximate_caloron(spec)
    R = samp.R
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(10, 3))
    pts *= (0.49 * R / np.linalg.norm(pts, axis=1))[:, None]

    class ForcedChart:
        n, epsilon = samp.n, samp.epsilon

        def __init__(self, codes):
            self.codes = np.asarray(codes)

        def chart(self, x, t=None):
            return np.broadcast_to(self.codes, np.asarray(x, float).shape[:-1])

        def __call__(self, x, t, chart=None):
            x = np.asarray(x, float)
            t = np.broadcast_to(np.asarray(t, float), x.shape[:-1])
            return samp.evaluate(x, t, chart if chart is not None else self.chart(x))

    codes_ann = np.where(pts[:, 2] >= 0, 2, 3)  # annulus N/S for constituent 0
    c_core = curvature_at(samp, pts, 0.0, step=1e-4)
    c_ann = curvature_at(ForcedChart(codes_ann), pts, 0.0, step=1e-4)
    assert np.max(np.abs(c_core.norm_sq() - c_ann.norm_sq())) < 1e-8


def _su3_pair_spec(eps=0.05, mu=0, phases=(0.4, 1.1)):
    """A rotated (mu = 0) or simple-coroot constituent beside a mu = 1 one."""
    return CaloronSpec(
        epsilon=eps, series="A", rank=2, omega=(1 / 3, 0.0, -1 / 3),
        constituents=[
            Constituent(mu, (1.5, 0.0, 0.1), phases[0]),
            Constituent(1, (-1.0, 1.2, -0.2), phases[1]),
        ],
        gluing_c=0.3,
    )


def test_approximate_exact_curvature_vs_fd_on_cores_and_far():
    """Closed form on the cores (rotated mu = 0 and mu = 1) and on the
    abelian exterior agrees with the stencil."""
    spec = _su3_pair_spec()
    samp = approximate_caloron(spec)
    R = samp.R
    rng = np.random.default_rng(11)
    u = rng.normal(size=(20, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    ts = rng.uniform(0.0, 2.0 * np.pi, 20)
    core = np.concatenate([
        p + u[:10] * rng.uniform(1.2 / (2.0 * f.v), 0.45 * R, 10)[:, None]
        for p, f in zip(spec.positions, samp.locals)
    ])
    far = u * rng.uniform(3.0, 6.0, 20)[:, None]
    assert np.all((samp.chart(core) - 1) % 4 == 0) and np.all(samp.chart(far) < 0)
    for pts, step, tol in ((core, spec.epsilon / 100, 1e-7), (far, 0.01, 1e-8)):
        E, B = samp.exact_curvature(pts, ts)
        curv = curvature_at(samp, pts, ts, step=step)
        assert np.max(np.abs(curv.E - E)) < tol
        assert np.max(np.abs(curv.B - B)) < tol


@settings(max_examples=25, deadline=None)
@given(
    mu=st.sampled_from([0, 1, 2]),
    phases=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    eps=st.floats(0.01, 0.08),
    seed=st.integers(0, 2**32 - 1),
)
def test_annulus_closed_form_matches_dense_matrix_route(mu, phases, eps, seed):
    """The annulus connection and curvature, built from Cartan diagonals,
    su(2)-block entries and closed-form brackets, equal the all-matrix route
    of tests/oracles.py to 1e-12 of their size, on both patches."""
    samp = approximate_caloron(_su3_pair_spec(eps, mu, phases))
    rng = np.random.default_rng(seed)
    for k, p in enumerate(samp.positions):
        u = rng.normal(size=(30, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = p + rng.uniform(0.5, 1.0, 30)[:, None] * samp.R * u
        ts = rng.uniform(0.0, 2.0 * np.pi, 30)
        for patch, sel in (("N", u[:, 2] > -0.5), ("S", u[:, 2] < 0.5)):
            got = samp.annulus_fields(k, patch, pts[sel], ts[sel]) + samp._annulus_curvature(k, patch, pts[sel], ts[sel])
            for g, ref in zip(got, annulus_fields_dense(samp, k, patch, pts[sel], ts[sel])):
                assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("eps", [0.05, 0.02])
def test_approximate_exact_curvature_vs_fd_on_annuli(eps):
    """The interpolation formula on the gluing annuli (rotated mu = 0 and
    mu = 1, both patches) agrees with the stencil at step eps/400.  Radii
    stay three steps inside (R/2, R): the third derivative of chi jumps at
    both ends, and a stencil across a jump misses by up to 1e-5 at step
    eps/100."""
    samp = approximate_caloron(_su3_pair_spec(eps))
    R, step = samp.R, eps / 400
    rng = np.random.default_rng(14)
    for p in samp.positions:
        u = rng.normal(size=(200, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = p + u * rng.uniform(0.5 * R + 3 * step, R - 3 * step, 200)[:, None]
        ts = rng.uniform(0.0, 2.0 * np.pi, 200)
        kinds = (samp.chart(pts) - 1) % 4
        assert set(kinds) == {1, 2}  # both annulus patches
        E, B = samp.exact_curvature(pts, ts)
        curv = curvature_at(samp, pts, ts, step=step)
        assert np.max(np.abs(curv.E - E)) < 1e-9
        assert np.max(np.abs(curv.B - B)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    mu=st.sampled_from([0, 1]),
    phases=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
    eps=st.floats(0.01, 0.08),
    seed=st.integers(0, 2**32 - 1),
)
def test_annulus_closed_form_patches_related_by_abelian_transition(mu, phases, eps, seed):
    """On the equatorial annulus both patches are valid: the closed-form
    south curvature is u^-1 F_N u with the abelian transition
    u = exp(-phi gamma_k) (verify's gauge-patch-consistency check)."""
    samp = approximate_caloron(_su3_pair_spec(eps, mu, phases))
    rng = np.random.default_rng(seed)
    for k, p in enumerate(samp.positions):
        u = rng.normal(size=(12, 3))
        u[:, 2] *= 0.2
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = p + rng.uniform(0.55 * samp.R, 0.95 * samp.R, 12)[:, None] * u
        ts = rng.uniform(0.0, 2.0 * np.pi, 12)
        phi = np.arctan2(u[:, 1], u[:, 0])
        d = np.exp(-1j * np.outer(phi, np.diag(samp.locals[k].charge_matrix).imag))
        transition = np.conjugate(d)[:, None, :, None] * d[:, None, None, :]
        EN, BN = samp._annulus_curvature(k, "N", pts, ts)
        ES, BS = samp._annulus_curvature(k, "S", pts, ts)
        assert np.max(np.abs(ES - transition * EN)) < 1e-10
        assert np.max(np.abs(BS - transition * BN)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(
    rank=st.integers(1, 3),
    n0=st.integers(0, 2),
    n_other=st.integers(0, 2),
    eps=st.floats(0.02, 0.06),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_densities_do_not_depend_on_t(rank, n0, n_other, eps, seed):
    """|F|^2, |F+|^2 and <E, B> of the glued caloron agree at 6 values of t
    on the cores, the annuli and the exterior: every chart is a gauge
    transform of a t-independent connection, which the one-slice integrals
    rely on."""
    rng = np.random.default_rng(seed)
    datum = build_root_datum("A", rank)
    mus = [0] * n0 + list(rng.integers(1, rank + 1, n_other)) or [1]
    angles = 2.0 * np.pi * np.arange(len(mus)) / len(mus) + rng.uniform(0.0, 2.0 * np.pi)
    z = rng.uniform(-0.2, 0.2, len(mus))
    positions = np.stack([1.6 * np.cos(angles), 1.6 * np.sin(angles), z], -1)
    omega = np.asarray(random_interior_omega(datum, random.Random(seed)), dtype=float)
    spec = CaloronSpec(
        epsilon=eps, series="A", rank=rank, omega=tuple(omega),
        constituents=[
            Constituent(int(mu), tuple(p), float(rng.uniform(0.0, 2.0 * np.pi)))
            for mu, p in zip(mus, positions)
        ],
        gluing_c=0.3,
    )
    try:
        samp = approximate_caloron(spec)
    except GluingInfeasibleError:  # a random omega near a wall: some omega_k leaves the alcove
        assume(False)
    R = samp.R
    u = rng.normal(size=(20, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    ts = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(6) / 6
    for lo, hi in ((0.02, 0.45), (0.5, 1.0)):
        pts = np.concatenate([p + u * R * rng.uniform(lo, hi, 20)[:, None] for p in samp.positions])
        _assert_densities_agree_over_t(samp, pts, ts)
    far = u * (spec.d_max + 1.5 * R) * rng.uniform(1.0, 3.0, 20)[:, None]
    _assert_densities_agree_over_t(samp, far, ts)


def _assert_densities_agree_over_t(samp, pts, ts):
    dens = []
    for t in ts:
        curv = CurvatureSample(*samp.exact_curvature(pts, t))
        dens.append(np.stack([curv.norm_sq(), curv.sd_norm_sq(), curv.topological_density()]))
    dens = np.asarray(dens)
    assert np.max(np.abs(dens - dens[0])) <= 1e-12 * np.max(dens[0, 0])


def test_annulus_phase_framing_matches_matrix_conjugation():
    """Conjugating the su(2) remainder by diag(e^{i phase/2}, e^{-i phase/2})
    before embedding equals conjugating the embedded remainder by the n x n
    psi = exp(phase/2 embed(i tau_3))."""
    for mu, phase in ((0, 0.8), (1, 5.3)):
        spec = CaloronSpec(
            epsilon=0.05, series="A", rank=2, omega=(1 / 3, 0.0, -1 / 3),
            constituents=[
                Constituent(mu, (1.5, 0.0, 0.1), phase),
                Constituent(2, (-1.0, 1.2, -0.2), 0.0),
            ],
            gluing_c=0.3,
        )
        plain = approximate_caloron(CaloronSpec(
            epsilon=spec.epsilon, series="A", rank=2, omega=spec.omega,
            constituents=[Constituent(mu, (1.5, 0.0, 0.1), 0.0), spec.constituents[1]],
            gluing_c=0.3,
        ))
        samp = approximate_caloron(spec)
        m3 = 1j * np.diag(samp.locals[0].tau3)  # the image of i tau_3
        w, v = np.linalg.eigh(m3 / 1j)
        psi = v @ np.diag(np.exp(0.5j * phase * w)) @ dagger(v)
        rng = np.random.default_rng(12)
        u = rng.normal(size=(10, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = spec.positions[0] + 0.75 * samp.R * u
        ts = rng.uniform(0.0, 2.0 * np.pi, 10)
        block = samp.locals[0].block
        for patch in ("N", "S"):
            bA, bP = _b_matrices(samp.annulus_parts(0, patch, pts, ts), block)
            bA0, bP0 = _b_matrices(plain.annulus_parts(0, patch, pts, ts), block)
            assert np.max(np.abs(bA - dagger(psi) @ bA0 @ psi)) < 1e-15
            assert np.max(np.abs(bP - dagger(psi) @ bP0 @ psi)) < 1e-15


def _b_matrices(parts, block):
    """The framed remainder b of `annulus_parts` as n x n matrices."""
    zA, diag = parts["b"]
    a, b = block
    bA = np.zeros(zA.shape + diag.shape[-1:] * 2, dtype=complex)
    bA[..., a, b] = zA
    bA[..., b, a] = -np.conjugate(zA)
    return bA, 1j * np.einsum("...i,ij->...ij", diag, np.eye(diag.shape[-1]))


def test_energy_additivity_two_constituents():
    """Two well-separated monopoles: energy within 2% of the sum of the
    closed-form values (d_min >= 4, eps <= 0.05)."""
    eps = 0.05
    spec = _su2_spec(
        eps=eps,
        constituents=[
            Constituent(1, (2.2, 0.0, 0.0), 0.0),
            Constituent(1, (-2.2, 0.0, 0.0), 0.0),
        ],
    )
    samp = approximate_caloron(spec)
    grid = desk_grid(list(spec.positions), [1.0 / (2 * f.v) for f in samp.locals], spec.d_max_eff)
    e = energy_and_tr_f_wedge_f(samp, grid)[0]
    formula = energy_formula_float(spec)
    assert abs(formula - 1.0) < 1e-12  # 2 * (1/2)|coroot|^2 alpha(omega) = 4 w
    assert abs(e.value - formula) / formula < 0.02


def test_alcove_margin_report_positive_and_stable():
    spec = CaloronSpec(
        epsilon=0.02, series="A", rank=2, omega=(1 / 3, 0, -1 / 3),
        constituents=[
            Constituent(0, (2.5, 0.0, 0.1), 0.0),
            Constituent(1, (-1.4, 2.3, -0.2), 0.0),
            Constituent(2, (-1.2, -2.4, 0.15), 0.0),
        ],
        gluing_c=0.15,
    )
    samp = approximate_caloron(spec)
    r1 = alcove_margin_report(samp, refine=1)
    r2 = alcove_margin_report(samp, refine=2)
    assert r1["sigma"] > 0
    assert abs(r2["sigma"] - r1["sigma"]) <= 0.1 * r1["sigma"]


def test_phase_only_changes_gauge_not_curvature():
    """The U(1) gluing phase psi acts by constant torus conjugation: |F|
    and the self-dual error are unchanged, the connection itself is not."""
    base = _su2_spec()
    phased = _su2_spec(constituents=[Constituent(1, (0.0, 0.0, 0.0), 1.3)])
    s0 = approximate_caloron(base)
    s1 = approximate_caloron(phased)
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(12, 3))
    pts *= (0.7 * s0.R / np.linalg.norm(pts, axis=1))[:, None]
    c0 = curvature_at(s0, pts, 0.0, step=5e-4)
    c1 = curvature_at(s1, pts, 0.0, step=5e-4)
    assert np.max(np.abs(c0.norm_sq() - c1.norm_sq())) < 1e-8
    assert np.max(np.abs(c0.sd_norm_sq() - c1.sd_norm_sq())) < 1e-8
    A0, _ = s0(pts, 0.0)
    A1, _ = s1(pts, 0.0)
    assert np.max(np.abs(A0 - A1)) > 1e-4
