"""Independent reference routes for code the library computes another way.

Root systems and indexes: the ambient-coordinate `Fraction` formulas (and a
general rational solver) that the library replaced by integer sums in
simple-root coordinates; every quantity is recomputed from the stored
ambient root and coroot vectors.  The eager root datum builds every ambient
root and coroot up front from the reflection closure of all roots, and pairs
each positive root with each row of the extended Cartan matrix, where the
library generates the positive roots height by height with their pairings
and builds ambient vectors on first use; `dot_fraction` sums one normalized
`Fraction` per term.

The SU(2) fields as 2 x 2 matrices: `itau` writes a coefficient vector V as
V.(i tau), `bps_fields` the BPS monopole of `su2.core_fields`, and
`su2_caloron` names the A1 `FundamentalCaloron` at omega = (omega', -omega')
that the tests sample the BPS caloron (mu = 1) and the rotated monopole
(mu = 0) with.

The rotated monopole: the gauge pullback as 2 x 2 matrix products that
`su2.core_fields` and `su2.core_curvature` replaced by closed-form su(2)
coefficient vectors.  `PulledBackSampler` transforms any SU(2) sampler by
a gauge map with `spatial_derivative` and `time_derivative` (the
gauge-covariance tests use it with their own maps), `RotationMap` is the
rotation map g with those derivatives in closed form, and
`rotated_pullback` is the rotated monopole by its definition.

Framed SU(2) fields: the matrix route to the string gauge that
`su2.string_gauge_fields` replaced by closed forms.  The BPS caloron is
conjugated by the hedgehog framing, with its analytic derivative, and by
g_inf(t) for the rotated monopole, as 2 x 2 matrix products.

The dense field route: `samplers.Field` values of su(n) as n x n matrices
of the defining representation (`_cartan_matrix`, `dense`, and `compact`
back), and the curvature stencil, commutators and Lie-algebra norms on
those matrices, the route that the library's root coordinates replaced
(`dense_curvature_at`); the batched
matrix product `_mul`, and the circle holonomy as a product of n x n
matrix exponentials (`dense_circle_holonomy`), which the library replaced
by phases times SU(2) pairs.

Per-constituent loops: the singular caloron's chart, fields, Phi and
curvature, the annulus spectators and the local holonomy parameters summed
one constituent at a time (`LoopSingularCaloron`, `loop_spectators`,
`loop_holonomy_shifts`, and `LoopCaloron`, the glued caloron built from
them), where the library sums over an array axis of constituents.

The flux fit: the coefficients of an ambient vector over the simple coroots
by least squares (`lstsq_coroot_fit`), where the library pairs the vector
with the dual basis of fundamental weights.

Test-only references that the library does not call: the alcove vertices by
rational elimination, Weyl-closed weight lists, the adjoint special case of
the twisted Dirac index, n x n Dirac monopoles (`AbelianPair`), the BPS
curvature as 2 x 2 matrices (`bps_curvature_fields`) and the F+/F- inner
product of a curvature sample.
"""

from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from calorons.assembler import ApproximateCaloron, FundamentalCaloron, SingularCaloron, _patch_mask
from calorons.errors import ChartDomainError, ResonanceError, SingularPointError
from calorons.indexes import WeightList, _rep_dynkin_index
from calorons.rootsys import (
    _exact_ratio,
    _int_comb,
    _int_dot,
    _scaled_simple_roots,
    build_root_datum,
    charge_vector,
    dynkin_index_adjoint,
    pairing,
)
from calorons.quadrature import _smoothstep, _smoothstep_prime
from calorons.fieldcalc import _FD4, _magnus_exponents
from calorons.samplers import _SU2_ROOT, ConnectionSampler, Field
from calorons.su2 import _TINY, _r_of, core_curvature, core_fields

ITAU = np.array([[[0, 1j], [1j, 0]], [[0, 1], [-1, 0]], [[1j, 0], [0, -1j]]])  # i tau_a, (3, 2, 2)


def dagger(m):
    return np.conjugate(np.swapaxes(m, -1, -2))


def itau(v):
    """v . (i tau) for real v (..., 3), written entry by entry."""
    out = np.empty(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = 1j * v[..., 2]
    out[..., 0, 1] = v[..., 1] + 1j * v[..., 0]
    out[..., 1, 0] = -v[..., 1] + 1j * v[..., 0]
    out[..., 1, 1] = -1j * v[..., 2]
    return out


def xhat_itau(x):
    """Hedgehog direction xhat . (i tau), zero-safe at the origin."""
    x = np.asarray(x, dtype=float)
    return itau(x / np.maximum(_r_of(x), _TINY)[..., None])


def bps_fields(x, v):
    """(A, Phi) of the mass-v BPS monopole centred at the origin (`su2.core_fields`) as 2 x 2 matrices."""
    A, Phi = core_fields(x, v)
    return itau(A), itau(Phi)


def bps_curvature_fields(x, v):
    """Closed-form E = B of the BPS caloron (`su2.core_curvature`) as 2 x 2 matrices."""
    return itau(core_curvature(x, v))


def su2_caloron(omega_prime, epsilon, rotated=False):
    """The SU(2) fundamental caloron at omega = (omega', -omega'), which has no
    Cartan shift: the BPS caloron of mass omega'/eps (mu = 1) or, if rotated,
    the rotated monopole of mass (1/2 - omega')/eps (mu = 0)."""
    return FundamentalCaloron(build_root_datum("A", 1), 0 if rotated else 1, (omega_prime, -omega_prime), epsilon)


def rational_solve(A, b):
    """Solve a square rational linear system by Gaussian elimination."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular rational system")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


# -- eager root data and the term-by-term Fraction dot -----------------------------

def dot_fraction(a, b):
    """sum of Fraction(x) * Fraction(y), one normalized Fraction per term."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def vscale(c, a):
    """c times the vector a, in Fractions."""
    return tuple(Fraction(c) * Fraction(x) for x in a)


def coroot_of(a):
    """The coroot 2 a / |a|^2 of the ambient root a, in Fractions."""
    return vscale(Fraction(2) / dot_fraction(a, a), a)


def lincomb(coeffs, vectors, dim):
    """Exact sum of c * v over paired coefficients and vectors, in Fractions."""
    acc = (Fraction(0),) * dim
    for c, v in zip(coeffs, vectors):
        acc = tuple(x + Fraction(c) * Fraction(y) for x, y in zip(acc, v))
    return acc


def _closure_by_redotting(gram):
    """All roots' simple-root coefficients: the closure of the unit vectors
    under s_i, which lowers c_i by sum_j c_j A_ji, recomputed for every root
    and every i."""
    rank = len(gram)
    A = [[_exact_ratio(2 * gram[i][j], gram[j][j], "Cartan matrix") for j in range(rank)]
         for i in range(rank)]
    frontier = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(frontier)
    while frontier:
        new = []
        for c in frontier:
            for i in range(rank):
                shift = sum(c[j] * A[j][i] for j in range(rank))
                refl = c[:i] + (c[i] - shift,) + c[i + 1:]
                if refl not in roots:
                    roots.add(refl)
                    new.append(refl)
        frontier = new
    return sorted(roots)


def eager_root_datum(series, rank):
    """Every ambient root x / D and coroot 2 D x / |x|^2 made up front from the
    scaled integer vector x, and the pairing table alpha(alpha_mu^vee) as an
    integer dot of each positive root's coefficients with row mu of the
    extended Cartan matrix."""
    denom, simple = _scaled_simple_roots(series, rank)
    gram = [[_int_dot(a, b) for b in simple] for a in simple]
    coeffs = _closure_by_redotting(gram)
    scaled = {c: _int_comb(c, simple) for c in coeffs}
    ambient = {c: tuple(Fraction(n, denom) for n in x) for c, x in scaled.items()}
    coroots = {
        ambient[c]: tuple(Fraction(2 * denom * n, _int_dot(x, x)) for n in x)
        for c, x in scaled.items()
    }
    positive = [c for _, _, c in sorted((sum(c), scaled[c], c) for c in coeffs if min(c) >= 0)]
    marks = positive[-1]
    nodes = [tuple(-x for x in scaled[marks])] + simple
    extended = tuple(
        tuple(_exact_ratio(2 * _int_dot(x_nu, x_mu), _int_dot(x_mu, x_mu), "entry") for x_nu in nodes)
        for x_mu in nodes
    )
    pairings = tuple(tuple(_int_dot(c, row[1:]) for c in positive) for row in extended)
    highest, lowest = ambient[marks], ambient[tuple(-m for m in marks)]
    return SimpleNamespace(
        positive_roots=tuple(ambient[c] for c in positive),
        coroots=coroots,
        simple_coroots=tuple(coroots[ambient[tuple(int(i == j) for j in range(rank))]] for i in range(rank)),
        highest_root=highest,
        highest_coroot=coroots[highest],
        lowest_root=lowest,
        lowest_coroot=coroots[lowest],
        extended_cartan=extended,
        coroot_pairings=pairings,
        rho=tuple(_exact_ratio(sum(p), 2, "rho") for p in pairings),
    )


# -- ambient-coordinate formulas -------------------------------------------------

def rho_ambient(datum):
    """The Weyl vector as an ambient vector: half the sum of the positive roots."""
    half = [Fraction(1, 2)] * len(datum.positive_roots)
    return lincomb(half, datum.positive_roots, datum.ambient_dim)


def rho_pairing_ambient(datum, mu):
    """rho(alpha_mu^vee) as an ambient dot product."""
    return pairing(rho_ambient(datum), datum.node_coroot(mu))


def dynkin_index_su2_ambient(datum, mu):
    """(1/2) sum over roots alpha != +-(node root) of alpha(coroot)^2, each
    pairing an ambient dot product."""
    coroot = datum.node_coroot(mu)
    total = sum((pairing(a, coroot) ** 2 for a in datum.positive_roots), Fraction(0))
    return total - pairing(datum.node_root(mu), coroot) ** 2


def dynkin_index_adjoint_ambient(datum):
    """2(1 - rho(alpha_0^vee)) with rho and the pairing in ambient coordinates."""
    return 2 * (1 - rho_pairing_ambient(datum, 0))


def transverse_terms_ambient(datum, mu, omega):
    """(chern, boundary) of the transverse index from the ambient formulas."""
    omega = tuple(Fraction(c) for c in omega)
    sign = -1 if mu == 0 else 1
    n0 = 1 if mu == 0 else 0
    a_omega = pairing(datum.node_root(mu), omega)
    chern = dynkin_index_su2_ambient(datum, mu) * (n0 + a_omega)
    ind_ad = dynkin_index_adjoint_ambient(datum)
    boundary = 2 * (rho_pairing_ambient(datum, mu) - sign) - (
        Fraction(ind_ad, 2) * datum.norm_sq(datum.node_coroot(mu)) - 4
    ) * a_omega
    return chern, boundary


def energy_formula_ambient(datum, omega, n):
    """The energy formula with (1/2)|alpha_mu^vee|^2 as a Killing norm of the
    ambient coroot, where the library reads marks_mu / labels_mu."""
    total = n[0] * (1 + pairing(datum.lowest_root, omega))
    for mu in range(1, datum.rank + 1):
        coroot = datum.simple_coroots[mu - 1]
        total += Fraction(1, 2) * datum.norm_sq(coroot) * n[mu] * pairing(datum.simple_roots[mu - 1], omega)
    return total


# -- identities checked against the library's closed forms --------------------------

def dynkin_index_adjoint_bruteforce(datum):
    """Sum of alpha(theta^vee)^2 over positive roots for the coroot
    theta^vee of a long root."""
    thetav = coroot_of(datum.highest_root)
    val = sum((pairing(a, thetav) ** 2 for a in datum.positive_roots), Fraction(0))
    assert val.denominator == 1, "brute-force adjoint index not integral"
    return int(val)


def dynkin_index_su2_via_adjoint(datum, mu):
    """The su(2)-embedding index through the adjoint-index identity
    (1/2) ind_Ad |coroot|^2 - 4."""
    coroot = datum.node_coroot(mu)
    return Fraction(dynkin_index_adjoint(datum), 2) * datum.norm_sq(coroot) - 4


def positive_root_charge_sum(datum, gamma_coeffs, n0):
    """Both sides of the identity sum_{alpha in R+} alpha(gamma_m)
    = 2 sum_mu (n_mu - n0 m_mu)."""
    gamma = charge_vector(datum, gamma_coeffs)
    lhs = sum((pairing(a, gamma) for a in datum.positive_roots), Fraction(0))
    n = [n0] + [c + n0 * m for c, m in zip(gamma_coeffs, datum.dual_coxeter_labels)]
    rhs = 2 * sum(n[mu] - n0 * m for mu, m in zip(range(1, datum.rank + 1), datum.dual_coxeter_labels))
    return lhs, rhs



# -- the dense field route -----------------------------------------------------------

def _cartan_matrix(diag, off=None, root=None):
    """i diag(d) for real Cartan vectors d (..., n) of su(n) as (..., n, n),
    plus off and -conj(off) at (a, b) and (b, a) of the block of the root
    e_a - e_b (its own coroot, the image of i tau_3), shared or per point."""
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[-1]
    out = np.zeros(diag.shape[:-1] + (n, n), dtype=complex)
    out.reshape(diag.shape[:-1] + (n * n,))[..., :: n + 1] = 1j * diag
    if off is not None:
        e_ab = np.maximum(root, 0.0)[..., :, None] * np.maximum(-root, 0.0)[..., None, :]
        out += off[..., None, None] * e_ab - np.conjugate(off)[..., None, None] * np.swapaxes(e_ab, -1, -2)
    return out


def dense(field, root=_SU2_ROOT):
    """The n x n matrices of a Field of su(n), the defining representation, in
    the block of the root e_a - e_b, shared or per point (the SU(2) block by
    default)."""
    return _cartan_matrix(field.diag, field.off, np.asarray(root, dtype=float))


def compact(m, root=_SU2_ROOT):
    """The Field of anti-Hermitian matrices m (..., n, n) in t + su(2)_alpha,
    one root e_a - e_b shared by the batch: the imaginary diagonal and the
    (a, b) entry."""
    a, b = int(np.argmax(root)), int(np.argmin(root))
    return Field(np.diagonal(m, axis1=-2, axis2=-1).imag.copy(), m[..., a, b].copy())


def max_entry(field):
    """The largest |entry| of a Field's n x n matrices: |d_i| or |z|."""
    return max(float(np.max(np.abs(field.diag))), float(np.max(np.abs(field.off))))


def dense_fields(sampler, x, t, chart=None):
    """sampler(x, t, chart) as n x n matrices (A, Phi), each point in the
    block of its chart."""
    A, Phi = sampler(x, t, chart)
    root = _point_root(sampler, x, chart)
    return dense(A, root[..., None, :]), dense(Phi, root)


def dense_exact_curvature(sampler, x, t):
    """sampler.exact_curvature(x, t) as n x n matrices (E, B)."""
    root = _point_root(sampler, x, None)[..., None, :]
    return tuple(dense(f, root) for f in sampler.exact_curvature(x, t))


def _point_root(sampler, x, chart):
    if chart is None:
        chart = sampler.chart(np.asarray(x, dtype=float))
    return np.asarray(sampler.block(chart), dtype=float)


def _mul(a, b):
    """Batched small-matrix product a @ b as the explicit sum over j of
    a[..., :, j] b[..., j, :], accumulated in j order: every operation runs
    over the whole batch, and each point's product is independent of the
    batch it sits in."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def commutator(a, b):
    return _mul(a, b) - _mul(b, a)


def expm_antiherm(m):
    """exp of anti-Hermitian matrices (batched) via eigh."""
    h = (m / 1j + dagger(m / 1j)) / 2.0
    w, v = np.linalg.eigh(h)
    return _mul(v * np.exp(1j * w)[..., None, :], dagger(v))


def dense_circle_holonomy(sampler, x, n_steps=64):
    """`fieldcalc.circle_holonomy` by the matrix route: the same Magnus
    exponents made n x n matrices, each step exponentiated by eigh, the
    steps multiplied as matrices and the eigenphases read by eigvals,
    sorted descending."""
    omega, root = _magnus_exponents(sampler, x, n_steps)
    steps = expm_antiherm(_cartan_matrix(omega.diag, omega.off, root))
    U = steps[..., 0, :, :]
    for k in range(1, n_steps):
        U = _mul(steps[..., k, :, :], U)
    return np.sort(np.angle(np.linalg.eigvals(U)), axis=-1)[..., ::-1]


def dense_norm_sq(x):
    """<X, X> = -Tr(X X) = Frobenius^2 for anti-Hermitian X."""
    return np.sum(np.abs(x) ** 2, axis=(-2, -1))


def dense_inner(x, y):
    """<X, Y> = -Tr(X Y) for anti-Hermitian X, Y."""
    return -np.einsum("...ij,...ji->...", x, y).real


def dense_curvature_at(sampler, x, t=0.0, step=1e-3):
    """(E, B) as (..., 3, n, n) by the matrix route of `fieldcalc.curvature_at`:
    the 17 stencil evaluations in the base point's chart made n x n
    matrices, 4th-order differences of the matrices, and commutators as
    matrix products."""
    x = np.asarray(x, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1]).copy()
    eps, dt = sampler.epsilon, step / sampler.epsilon
    chart = sampler.chart(x, t)
    root = np.asarray(sampler.block(chart), dtype=float)
    shifts = [(np.eye(3)[axis] * mult * step, 0.0) for axis in range(3) for mult, _ in _FD4]
    shifts += [(np.zeros(3), mult * dt) for mult, _ in _FD4]
    all_x = np.stack([x] + [x + sx for sx, _ in shifts])
    all_t = np.stack([t] + [t + st for _, st in shifts])
    all_chart = None if chart is None else np.broadcast_to(np.asarray(chart), all_x.shape[:-1])
    A_all, Phi_all = sampler(all_x, all_t, all_chart)
    A_all, Phi_all = dense(A_all, root[..., None, :]), dense(Phi_all, root)

    def fd(values, h):
        return sum(wgt * values[i] for i, (_, wgt) in enumerate(_FD4)) / (12.0 * h)

    A0, Phi0 = A_all[0], Phi_all[0]
    dA = np.stack([fd(A_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)], axis=-4)  # [deriv, comp]
    dPhi = np.stack([fd(Phi_all[1 + 4 * a : 5 + 4 * a], step) for a in range(3)], axis=-3)
    B = np.stack([dA[..., i, j, :, :] - dA[..., j, i, :, :] + commutator(A0[..., i, :, :], A0[..., j, :, :])
                  for i, j in ((1, 2), (2, 0), (0, 1))], axis=-3)
    E = dPhi - fd(A_all[13:], dt) / eps + commutator(A0, Phi0[..., None, :, :])
    return E, B


# -- the gauge pullback as 2 x 2 matrix products ------------------------------------

def gauge_transform(g, A, Phi=None, dg=None):
    """(g^-1 A_a g + g^-1 d_a g, g^-1 Phi g) for SU(2)-valued g, so g^-1 = g^dagger.

    g (..., 2, 2), A and dg (..., 3, 2, 2), Phi (..., 2, 2); dg=None drops the
    inhomogeneous term (a constant or purely t-dependent conjugation, or
    curvature components passed as A).  Phi=None returns None in its place.
    """
    ginv = dagger(g)
    ginv_a = ginv[..., None, :, :]
    A_new = _mul(ginv_a, _mul(A, g[..., None, :, :]))
    if dg is not None:
        A_new += _mul(ginv_a, dg)
    return A_new, None if Phi is None else _mul(ginv, _mul(Phi, g))


class RotationMap:
    """The family g(x,t) = exp(-t Phihat(x)/2) of large gauge transformations,
    with its generator and derivatives as 2 x 2 matrices.

    Phihat is the unit hedgehog xhat.(i tau) for r >= core_radius and a
    quintic radial interpolation q(r) xhat.(i tau) inside, so g is smooth on
    all of R^3 x R.  The clutching descriptor h(x) = -g(x, 2pi)^{-1} equals
    the identity wherever q = 1.
    """

    def __init__(self, core_radius):
        self.core_radius = float(core_radius)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, float), x.shape[:-1])
        ang = 0.5 * t * _smoothstep(_r_of(x) / self.core_radius)
        return np.cos(ang)[..., None, None] * np.eye(2, dtype=complex) - np.sin(ang)[..., None, None] * xhat_itau(x)

    def clutching(self, x):
        """h(x) = -g(x, 2 pi)^{-1}."""
        return -dagger(self(x, 2.0 * np.pi))

    def _theta_dir(self, x):
        x = np.asarray(x, dtype=float)
        r = _r_of(x)
        q = _smoothstep(r / self.core_radius)
        return r, q, xhat_itau(x)

    def phi_hat(self, x):
        r, q, n_itau = self._theta_dir(np.asarray(x, float))
        return q[..., None, None] * n_itau

    def time_derivative(self, x, t):
        g = self(x, t)
        return -0.5 * self.phi_hat(x) @ g

    def spatial_derivative(self, x, t):
        """d_i g in closed form on all of R^3: with a = t q(r)/2,

            d_i g = (t q'(r) xhat_i / 2)(-sin a - cos a xhat.itau)
                    - sin a (delta_ia - xhat_i xhat_a) i tau_a / r,

        zero at the origin, where q vanishes to third order."""
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, float), x.shape[:-1])
        r, q, n_itau = self._theta_dir(x)
        rs = np.maximum(r, _TINY)
        xh = x / rs[..., None]
        dq = _smoothstep_prime(r / self.core_radius) / self.core_radius
        ang = 0.5 * t * q
        s, c = np.sin(ang), np.cos(ang)
        dg_da = -s[..., None, None] * np.eye(2) - c[..., None, None] * n_itau
        radial = (0.5 * t * dq)[..., None, None, None] * xh[..., :, None, None] * dg_da[..., None, :, :]
        proj = (np.eye(3) - xh[..., :, None] * xh[..., None, :]) * (s / rs)[..., None, None]
        return radial - itau(proj)


class PulledBackSampler(ConnectionSampler):
    """Gauge transform of an SU(2) sampler by an SU(2) gauge map with
    `spatial_derivative` and `time_derivative`: A -> g^-1 A g + g^-1 dg, as
    2 x 2 products of the base's fields made matrices, returned as Fields."""

    def __init__(self, base, gauge_map):
        self.base = base
        self.gauge = gauge_map
        self.n = base.n
        self.epsilon = base.epsilon

    @property
    def charge(self):
        """The base's charge: a gauge transform leaves |gamma| unchanged."""
        return self.base.charge

    def chart(self, x, t=None):
        return self.base.chart(x, t)

    def evaluate(self, x, t, chart=None):
        A, Phi = dense_fields(self.base, x, t, chart)
        g = self.gauge(x, t)
        A_new, Phi_new = gauge_transform(g, A, Phi, self.gauge.spatial_derivative(x, t))
        return compact(A_new), compact(Phi_new + _mul(dagger(g), self.gauge.time_derivative(x, t)) / self.epsilon)

    def exact_curvature(self, x, t):
        """g^-1 F_base g: curvature transforms covariantly, so no derivative
        of g enters."""
        EB, _ = gauge_transform(self.gauge(x, t), np.concatenate(dense_exact_curvature(self.base, x, t), axis=-3))
        return compact(EB[..., :3, :, :]), compact(EB[..., 3:, :, :])


def rotation_gauge(omega_prime, epsilon):
    """Rotation map for the mass v = (1/2 - omega')/eps monopole, with
    interpolation core 1/(2v)."""
    return RotationMap(1.0 / (2.0 * ((0.5 - omega_prime) / epsilon)))


def rotated_pullback(mass, epsilon):
    """The rotated monopole by its definition: the BPS caloron of mass
    v = mass/eps pulled back by the rotation map of core 1/(2v), as 2 x 2
    products.  For an embedded one, mass is its own eps v: rebuilt from its
    su(2) parameter 1/2 - mass, the mass can land an ulp or two away."""
    return PulledBackSampler(su2_caloron(mass, epsilon), RotationMap(1.0 / (2.0 * (mass / epsilon))))


# -- framed SU(2) fields as matrix products ---------------------------------------

def hedgehog_framing(x, patch="N"):
    """Frame f with f^-1 (xhat . i tau) f = i tau_3.

    North patch: f = cos(theta/2) id - i sin(theta/2) (-sin phi, cos phi, 0).tau,
    written in the string-free rational form

        f_N = [[u/(2r), (-x+iy)/u], [(x+iy)/u, u/(2r)]],   u = sqrt(2r(r+z)),

    regular away from the south string (theta = pi).  The south patch is
    f_S = f_N exp(-i phi tau_3), regular away from the north string.
    """
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    out = np.zeros(x.shape[:-1] + (2, 2), dtype=complex)
    if patch == "N":
        usq = 2.0 * r * (r + x3)
        if np.any(usq <= 0):
            raise ChartDomainError("north framing evaluated on the south string")
        u = np.sqrt(usq)
        out[..., 0, 0] = out[..., 1, 1] = u / (2.0 * r)
        out[..., 0, 1] = (-x1 + 1j * x2) / u
        out[..., 1, 0] = (x1 + 1j * x2) / u
    elif patch == "S":
        wsq = 2.0 * r * (r - x3)
        if np.any(wsq <= 0):
            raise ChartDomainError("south framing evaluated on the north string")
        w = np.sqrt(wsq)
        out[..., 0, 0] = (x1 - 1j * x2) / w
        out[..., 1, 1] = (x1 + 1j * x2) / w
        out[..., 0, 1] = -w / (2.0 * r)
        out[..., 1, 0] = w / (2.0 * r)
    else:
        raise ValueError("patch must be 'N' or 'S'")
    return out


def hedgehog_framing_derivative(x, patch="N"):
    """Analytic spatial derivative d_i f, shape (..., 3, 2, 2)."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    rh = x / r[..., None]
    e3 = np.zeros_like(x)
    e3[..., 2] = 1.0
    shape = x.shape[:-1]
    df = np.zeros(shape + (3, 2, 2), dtype=complex)
    if patch == "N":
        u = np.sqrt(2.0 * r * (r + x3))
        # du_i = (rhat_i (2r + z) + r delta_{i3}) / u
        du = (rh * (2.0 * r + x3)[..., None] + r[..., None] * e3) / u[..., None]
        # diag = u/(2r): d = du/(2r) - u rhat /(2 r^2)
        ddiag = du / (2.0 * r[..., None]) - (u / (2.0 * r**2))[..., None] * rh
        df[..., 0, 0] = ddiag
        df[..., 1, 1] = ddiag
        # offdiag(0,1) = (-x + iy)/u
        num01 = (-x1 + 1j * x2)[..., None]
        dnum01 = np.zeros(shape + (3,), dtype=complex)
        dnum01[..., 0] = -1.0
        dnum01[..., 1] = 1j
        df[..., 0, 1] = dnum01 / u[..., None] - num01 * du / (u**2)[..., None]
        num10 = (x1 + 1j * x2)[..., None]
        dnum10 = np.zeros(shape + (3,), dtype=complex)
        dnum10[..., 0] = 1.0
        dnum10[..., 1] = 1j
        df[..., 1, 0] = dnum10 / u[..., None] - num10 * du / (u**2)[..., None]
    elif patch == "S":
        w = np.sqrt(2.0 * r * (r - x3))
        dw = (rh * (2.0 * r - x3)[..., None] - r[..., None] * e3) / w[..., None]
        num00 = (x1 - 1j * x2)[..., None]
        dnum00 = np.zeros(shape + (3,), dtype=complex)
        dnum00[..., 0] = 1.0
        dnum00[..., 1] = -1j
        df[..., 0, 0] = dnum00 / w[..., None] - num00 * dw / (w**2)[..., None]
        num11 = (x1 + 1j * x2)[..., None]
        dnum11 = np.zeros(shape + (3,), dtype=complex)
        dnum11[..., 0] = 1.0
        dnum11[..., 1] = 1j
        df[..., 1, 1] = dnum11 / w[..., None] - num11 * dw / (w**2)[..., None]
        doff = dw / (2.0 * r[..., None]) - (w / (2.0 * r**2))[..., None] * rh
        df[..., 0, 1] = -doff
        df[..., 1, 0] = doff
    else:
        raise ValueError("patch must be 'N' or 'S'")
    return df


def bps_remainder(x, v, patch="N"):
    """a+_BPS at the su(2) level: the framed BPS caloron minus the abelian
    model (v - 1/(2r)) i tau_3.  Returns (A-part, Phi-part); both decay like
    exp(-2 v r)."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    A, Phi = bps_fields(x, v)
    A_framed, Phi_framed = gauge_transform(
        hedgehog_framing(x, patch), A, Phi, hedgehog_framing_derivative(x, patch)
    )
    a_model = dirac_potential(x, patch)[..., :, None, None] * ITAU[2]
    phi_model = (v - 1.0 / (2.0 * r))[..., None, None] * ITAU[2]
    return A_framed - a_model, Phi_framed - phi_model


def _g_infinity(t):
    """Weyl-flip framing factor exp(-i t tau_3 / 2) (i tau_2)."""
    t = np.asarray(t, dtype=float)
    phase = np.exp(-0.5j * t)
    g = np.zeros(t.shape + (2, 2), dtype=complex)
    # exp(-i t tau3/2) = diag(e^{-it/2}, e^{it/2}); times i tau_2 = [[0,1],[-1,0]]
    g[..., 0, 1] = phase
    g[..., 1, 0] = -np.conjugate(phase)
    return g


def rotated_remainder(x, t, v, patch="N"):
    """a-_BPS: the framed rotated monopole minus the abelian model of charge
    -1.  Equals the t-dependent conjugation g_inf(t)^-1 a+_BPS(x) g_inf(t)."""
    aA, aPhi = bps_remainder(x, v, patch)
    t = np.broadcast_to(np.asarray(t, float), np.asarray(x, float).shape[:-1])
    return gauge_transform(_g_infinity(t), aA, aPhi)


def string_gauge_matrices(x, v, patch="N", t=None, phase=0.0):
    """(b_A, b_Phi, F) of `su2.string_gauge_fields` as 2 x 2 matrices: the
    remainders conjugated by psi = diag(e^{i phase/2}, e^{-i phase/2}), and
    the BPS curvature conjugated by the whole frame framing (g_inf(t)) psi."""
    x = np.asarray(x, dtype=float)
    frame = hedgehog_framing(x, patch)
    if t is None:
        bA, bP = bps_remainder(x, v, patch)
    else:
        t = np.broadcast_to(np.asarray(t, float), x.shape[:-1])
        bA, bP = rotated_remainder(x, t, v, patch)
        frame = frame @ _g_infinity(t)
    psi = np.diag([np.exp(0.5j * phase), np.exp(-0.5j * phase)])
    bA, bP = gauge_transform(psi, bA, bP)
    F, _ = gauge_transform(frame @ psi, bps_curvature_fields(x, v))
    return bA, bP, F


def node_su2(datum, mu):
    """Node mu's su(2) as its exact (root, coroot), read apart from
    `RootDatum.node_root`: alpha_mu, or the highest root theta at mu = 0, and
    its coroot 2 root / |root|^2."""
    root = datum.highest_root if mu == 0 else datum.simple_roots[mu - 1]
    return root, coroot_of(root)


def su2_matrices(datum, mu):
    """The images of i tau_1, i tau_2, i tau_3 under node mu's su(2) in the
    defining representation of su(n), entry by entry: i(E_ab + E_ba),
    E_ab - E_ba and i(E_aa - E_bb) for the root e_a - e_b."""
    root = node_su2(datum, mu)[0]
    a, b = root.index(1), root.index(-1)
    m = np.zeros((3, datum.ambient_dim, datum.ambient_dim), dtype=complex)
    m[0, a, b] = m[0, b, a] = 1j
    m[1, a, b], m[1, b, a] = 1.0, -1.0
    m[2, a, a], m[2, b, b] = 1j, -1j
    return m


def embed_reference(datum, mu, x):
    """Node mu's su(2) image of 2 x 2 matrices x by Pauli coefficients:
    sum_a c_a su2_matrices[a] with c_a = -Re Tr(x i tau_a) / 2, the orthogonal
    projection of x onto su(2) first."""
    coeff = np.stack([-0.5 * np.trace(x @ t, axis1=-2, axis2=-1).real for t in ITAU], axis=-1)
    return np.einsum("...a,aij->...ij", coeff, su2_matrices(datum, mu))


def annulus_fields_dense(samp, k, patch, xs, ts):
    """(A, Phi, E, B) of an `ApproximateCaloron` on annulus k with every
    piece an n x n matrix: the abelian model and spectator terms summed as
    matrices, the framed remainder and curvature from `string_gauge_matrices`
    embedded, and c ^ c as matrix commutators."""
    fund, cst = samp.locals[k], samp.spec.constituents[k]
    gamma = [1j * np.diag(c) for c in samp.singular.coroots]
    rel = xs - samp.positions[k]
    r = np.linalg.norm(rel, axis=-1)
    chi = samp.profile.chi(r)
    model_A = dirac_potential(rel, patch)[..., :, None, None] * gamma[k]
    model_P = 1j * np.diag(samp.omega_shifts[k]) / samp.epsilon - gamma[k] / (2.0 * r)[..., None, None]
    bA2, bP2, F2 = string_gauge_matrices(rel, fund.v, patch, ts if cst.mu == 0 else None, cst.phase)
    bA, bP, F_fund = (embed_reference(samp.datum, fund.mu, m) for m in (bA2, bP2, F2))
    sA, sP = np.zeros_like(bA), np.zeros_like(bP)
    F_sing = np.zeros_like(bA)
    for l, p in enumerate(samp.positions):
        rl = np.linalg.norm(xs - p, axis=-1)
        F_sing += ((xs - p) / (2.0 * rl**3)[:, None])[..., None, None] * gamma[l]
        if l == k:
            continue
        patch_l = "S" if samp._spect_patch[k, l] else "N"
        coeff = dirac_potential(xs - p, patch_l) - dirac_potential(samp.positions[k] - p, patch_l)
        sA += coeff[..., :, None, None] * gamma[l]
        d_kl = np.linalg.norm(samp.positions[k] - p)
        sP += (1.0 / (2.0 * d_kl) - 1.0 / (2.0 * rl))[..., None, None] * gamma[l]
    A = model_A + chi[:, None, None, None] * bA + (1.0 - chi)[:, None, None, None] * sA
    Phi = model_P + chi[:, None, None] * bP + (1.0 - chi)[:, None, None] * sP
    F = (1.0 - chi)[:, None, None, None] * F_sing + chi[:, None, None, None] * F_fund
    cA, cP = bA - sA, (bP - sP)[:, None]
    dchi = (samp.profile.chi_prime(r) / r)[:, None, None, None] * rel[:, :, None, None]
    mix = (chi * (1.0 - chi))[:, None, None, None]
    E = F + dchi * cP - mix * (_mul(cA, cP) - _mul(cP, cA))
    a, b = cA[:, [1, 2, 0]], cA[:, [2, 0, 1]]
    B = F + dchi[:, [1, 2, 0]] * b - dchi[:, [2, 0, 1]] * a - mix * (_mul(a, b) - _mul(b, a))
    return A, Phi, E, B


# -- per-constituent loops -------------------------------------------------------------

class LoopSingularCaloron(SingularCaloron):
    """`SingularCaloron` with every constituent sum a loop over k."""

    def chart(self, x, t=None):
        """The number of monopoles in their south patch, counted one at a time."""
        x = np.asarray(x, dtype=float)
        code = np.zeros(x.shape[:-1], dtype=np.int64)
        for k in range(len(self.positions)):
            code += _patch_mask(x[..., 2] - self.positions[k][2])
        return code

    def evaluate(self, x, t, chart=None):
        """Monopole k takes its south patch where the chart counts at least
        as many monopoles as lie at or above it."""
        x = np.asarray(x, dtype=float)
        Phi = self.higgs(x, t)
        chart = np.asarray(self.chart(x) if chart is None else chart)
        A = np.zeros(x.shape[:-1] + (3, self.n))
        z = self.positions[:, 2]
        for k, p in enumerate(self.positions):
            south = chart >= np.count_nonzero(z >= p[2])
            A += dirac_potential(x - p, south)[..., :, None] * self.coroots[k]
        return Field(A, np.zeros(A.shape[:-1], dtype=complex)), Phi

    def higgs(self, x, t, chart=None):
        x = np.asarray(x, dtype=float)
        Phi = np.broadcast_to(self.omega / self.epsilon, x.shape[:-1] + (self.n,)).copy()
        for k, p in enumerate(self.positions):
            r = np.linalg.norm(x - p, axis=-1)
            if np.any(r == 0.0):
                raise SingularPointError("evaluation at a constituent position")
            Phi -= self.coroots[k] / (2.0 * r)[..., None]
        return Field(Phi, np.zeros(Phi.shape[:-1], dtype=complex))

    def field_strength_diagonal(self, x):
        x = np.asarray(x, dtype=float)
        B = np.zeros(x.shape[:-1] + (3, self.n))
        for k, p in enumerate(self.positions):
            rel = x - p
            r = np.linalg.norm(rel, axis=-1)
            B += (rel / (2.0 * r**3)[..., None])[..., :, None] * self.coroots[k]
        return B


def loop_spectators(samp, k, xs):
    """The abelian remainder s = (A (..., 3, n), Phi (..., n)) of the
    spectator monopoles on annulus k, one spectator l at a time, each in the
    patch `samp._spect_patch[k, l]` and less its value at p_k."""
    coroots, pk = samp.singular.coroots, samp.positions[k]
    sA = np.zeros(xs.shape[:-1] + (3, samp.n))
    sP = np.zeros(xs.shape[:-1] + (samp.n,))
    for l, pl in enumerate(samp.positions):
        if l == k:
            continue
        d_kl = float(np.linalg.norm(pk - pl))
        south = samp._spect_patch[k, l]
        coeff = dirac_potential(xs - pl, south) - dirac_potential(pk - pl, south)
        sA += coeff[..., :, None] * coroots[l]
        rl = np.linalg.norm(xs - pl, axis=-1)
        sP += (1.0 / (2.0 * d_kl) - 1.0 / (2.0 * rl))[..., None] * coroots[l]
    return sA, sP


def loop_holonomy_shifts(spec):
    """omega_k = omega - sum over l != k of eps gamma_l / (2 |p_l - p_k|), term by term."""
    pos, out = spec.positions, []
    for k in range(len(spec.constituents)):
        om = np.array(spec.omega, dtype=float)
        for l, cl in enumerate(spec.constituents):
            if l != k:
                d = float(np.linalg.norm(pos[l] - pos[k]))
                om = om - spec.epsilon * np.asarray(spec.datum.node_coroot(cl.mu), dtype=float) / (2.0 * d)
        out.append(om)
    return out


class LoopCaloron(ApproximateCaloron):
    """`ApproximateCaloron` on the loops: `LoopSingularCaloron` outside,
    `loop_spectators` on the annuli and local calorons at
    `loop_holonomy_shifts`."""

    def __init__(self, spec):
        super().__init__(spec)
        self.singular = LoopSingularCaloron(spec)
        self.omega_shifts = loop_holonomy_shifts(spec)
        self.locals = [FundamentalCaloron(self.datum, c.mu, om, self.epsilon, c.position)
                       for c, om in zip(spec.constituents, self.omega_shifts)]

    def annulus_parts(self, k, patch, xs, ts):
        r, b, _, F = super().annulus_parts(k, patch, xs, ts)
        return r, b, loop_spectators(self, k, xs), F


# -- the flux fit by least squares ---------------------------------------------------

def lstsq_coroot_fit(datum, v):
    """(coefficients, reconstruction) of the ambient vector v over the simple
    coroots by np.linalg.lstsq, the route `fieldcalc.coroot_fit` replaced."""
    basis = np.array(datum.simple_coroots, dtype=float).T  # ambient x rank
    coeffs, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return coeffs, basis @ coeffs


# -- exact references: alcove vertices, weights, the adjoint twisted index -----------

def alcove_vertices(datum):
    """The rank + 1 vertices of the fundamental alcove: 0, and for each node j
    the point of the coroot span where alpha_i vanishes for i != j and
    alpha_j = 1/m_j, by rational elimination on the pairing matrix."""
    pairings = [[pairing(a, av) for av in datum.simple_coroots] for a in datum.simple_roots]
    verts = [(Fraction(0),) * datum.ambient_dim]
    for j, m in enumerate(datum.marks):
        c = rational_solve(pairings, [Fraction(int(i == j), m) for i in range(datum.rank)])
        verts.append(lincomb(c, datum.simple_coroots, datum.ambient_dim))
    return verts


def weyl_closed(datum, weights):
    """Sanity check: the weight multiset is stable under the simple
    reflections."""
    bag = Counter(tuple(Fraction(c) for c in w) for w in weights)
    for a, av in zip(datum.simple_roots, datum.simple_coroots):
        refl = Counter()
        for w, k in bag.items():
            img = tuple(wc - pairing(w, av) * ac for wc, ac in zip(w, a))
            refl[img] += k
        if refl != bag:
            return False
    return True


def weight_list(datum, weights):
    """Wrap externally supplied weights (e.g. from a file) with the closure
    sanity check."""
    ws = tuple(tuple(Fraction(c) for c in w) for w in weights)
    if not weyl_closed(datum, ws):
        raise ValueError("weight multiset is not closed under the Weyl group")
    return WeightList(ws, _rep_dynkin_index(datum, ws))


def twisted_dirac_index_adjoint(datum, omega, gamma_coeffs, n0, s):
    """Adjoint special case evaluated independently:

        2 sum_mu n_mu + sum_{alpha in R+} (delta_{s > s_alpha^+} - delta_{s > s_alpha^-}) alpha(gamma_m)

    with s_alpha^+ = 1 - alpha(omega), s_alpha^- = alpha(omega).
    """
    omega = tuple(Fraction(c) for c in omega)
    s = Fraction(s)
    gamma = charge_vector(datum, gamma_coeffs)
    n = [n0] + [
        c + n0 * m for c, m in zip(gamma_coeffs, datum.dual_coxeter_labels)
    ]
    total = Fraction(2 * sum(n))
    for a in datum.positive_roots:
        a_omega = pairing(a, omega)
        s_plus = 1 - a_omega
        s_minus = a_omega
        if s in (s_plus, s_minus):
            raise ResonanceError(s, a)
        delta = (1 if s > s_plus else 0) - (1 if s > s_minus else 0)
        total += delta * pairing(a, gamma)
    return _exact_ratio(total.numerator, total.denominator, "adjoint twisted index")


# -- Dirac monopoles as n x n matrices, and the F+/F- inner product --------------------

def dirac_potential(x, patch="N"):
    """Unit-charge Dirac potential coefficients a, A = a_i dx^i gamma, written
    out apart from `su2.dirac_sum`: a = (-y, x, 0) / (2 r (z + r)) in the north
    patch, (-y, x, 0) / (2 r (z - r)) in the south, with curvature
    (1/2) xhat / r^2 in both.  `patch` is "N", "S" or booleans broadcast
    against x[..., 0], True for south."""
    x = np.asarray(x, dtype=float)
    south = np.asarray(patch == "S" if isinstance(patch, str) else patch, dtype=bool)
    r = np.linalg.norm(x, axis=-1)
    den = 2.0 * r * np.where(south, x[..., 2] - r, x[..., 2] + r)
    return np.stack([-x[..., 1] / den, x[..., 0] / den, np.zeros_like(den)], axis=-1)


class AbelianPair:
    """Dirac monopole (A^gamma_p, Phi^gamma_p): Phi = -gamma/(2|x-p|), with
    the vector potential given in two patches and curvature (1/2) gamma dv_S2."""

    def __init__(self, center, charge_matrix):
        self.center = np.asarray(center, dtype=float)
        self.charge_matrix = np.asarray(charge_matrix, dtype=complex)
        self.n = self.charge_matrix.shape[0]

    def _rel(self, x):
        rel = np.asarray(x, float) - self.center
        r = _r_of(rel)
        if np.any(r == 0):
            raise SingularPointError("evaluation at the monopole singularity")
        return rel, r

    def higgs(self, x):
        _, r = self._rel(x)
        return -self.charge_matrix / (2.0 * r)[..., None, None]

    def potential(self, x, patch="N"):
        rel, _ = self._rel(x)
        a = dirac_potential(rel, patch)
        return a[..., :, None, None] * self.charge_matrix

    def field_strength(self, x):
        """Closed form B_a = (1/2) gamma xhat_a / r^2 (E follows from the
        Bogomolny equation: E = B)."""
        rel, r = self._rel(x)
        coeff = rel / (2.0 * r**3)[..., None]
        return coeff[..., :, None, None] * self.charge_matrix


def dirac_monopole(center, charge):
    """charge may be an integer/float (times i tau_3) or an n x n matrix."""
    charge_arr = np.asarray(charge)
    if charge_arr.ndim == 0:
        charge_matrix = complex(charge_arr) * ITAU[2]
    elif charge_arr.ndim == 1:
        charge_matrix = 1j * np.diag(charge_arr.astype(float))
    else:
        charge_matrix = charge_arr.astype(complex)
    return AbelianPair(center, charge_matrix)


def inner_sd_asd(curv):
    """<F^+, F^-> pointwise of a `CurvatureSample`; vanishes identically
    (projector property)."""
    return curv.norm_sq() - curv.sd_norm_sq() - curv.asd_norm_sq()
