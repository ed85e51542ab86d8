"""Closed-form SU(2) building blocks.

The charge-1 BPS monopole of mass v,

    Phi = (v coth(2vr) - 1/(2r)) xhat.(i tau),
    A_i = -(1/2) (1 - 2vr/sinh(2vr)) eps_{ija} xhat^j (i tau^a) / r,

its lift to a circle-invariant caloron A + eps Phi dt, the hedgehog framing
that diagonalizes the asymptotic Higgs field, the Dirac monopole potential in the
two-patch gauge, and the t-dependent "rotation" gauge transformation
g(x,t) = exp(-t Phihat(x)/2) whose pullback produces the rotated monopole.
Both monopoles are su(2) coefficient vectors V of V.(i tau) in closed form
(`core_fields`, `core_curvature`), the pullback by g worked out.  The framed
caloron is also written down in the abelian ("string") gauge of each patch
in closed form (`string_gauge_fields`), for the gluing annuli.

Radial profiles switch to 5th-order Taylor series for 2vr < 1e-4 so the
removable singularity at the core never produces NaN; their closed branch is
evaluated at 2vr = r = 1 there, and the terms that decay like exp(-2vr) are
0 past 2vr = 350, so that no branch forms an inf.
"""

from __future__ import annotations

import numpy as np

from .errors import ChartDomainError, HolonomyParameterError
from .quadrature import _smoothstep, _smoothstep_prime
from .samplers import ConnectionSampler, dagger

_SERIES_CUT = 1e-4
_DECAY_CUT = 350.0  # exp(-2 * 350) < 1e-304: the decaying terms are 0 next to O(1) ones
_TINY = 1e-300

ITAU = np.array([[[0, 1j], [1j, 0]], [[0, 1], [-1, 0]], [[1j, 0], [0, -1j]]])  # i tau_a, (3, 2, 2)


def _r_of(x):
    return np.sqrt(np.sum(np.asarray(x, float) ** 2, axis=-1))


def _itau(v):
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
    r = _r_of(x)[..., None]
    return _itau(x / np.maximum(r, _TINY))


def _branches(v, r):
    """The series mask 2vr < 1e-4, u = 2vr where the series applies, and the
    closed branch's (u, r), each 1 where the series applies."""
    r = np.asarray(r, dtype=float)
    u = 2.0 * v * r
    small = u < _SERIES_CUT
    return small, np.where(small, u, 1.0), np.where(small, 1.0, u), np.where(small, 1.0, r)


def _sinh_capped(u):
    """sinh(u) with u capped at 350, and the mask u > 350 past which the
    terms that decay like 1/sinh(u) are 0."""
    decayed = u > _DECAY_CUT
    return np.sinh(np.where(decayed, _DECAY_CUT, u)), decayed


def bps_higgs_profile(v, r):
    """phi(r) = v coth(2vr) - 1/(2r), with series fallback near r = 0."""
    small, us, ub, rb = _branches(v, r)
    series = v * (us / 3.0 - us**3 / 45.0 + 2.0 * us**5 / 945.0)
    closed = v / np.tanh(ub) - 1.0 / (2.0 * rb)
    return np.where(small, series, closed)


def bps_gauge_profile(v, r):
    """k(r) = (1 - 2vr/sinh(2vr)) / (2r); A_i = -k eps_{ija} xhat^j i tau^a."""
    small, us, ub, rb = _branches(v, r)
    # (1 - u/sinh u)/(2r) = v (u/6 - 7 u^3/360 + 31 u^5 / 15120)
    series = v * (us / 6.0 - 7.0 * us**3 / 360.0 + 31.0 * us**5 / 15120.0)
    sh, decayed = _sinh_capped(ub)
    closed = (1.0 - np.where(decayed, 0.0, ub / sh)) / (2.0 * rb)
    return np.where(small, series, closed)


def _radial_profiles(v, r):
    """phi'(r), w(r) = 2vr/sinh(2vr) and phi w / r, each with its series for
    2vr < 1e-4; phi w / r -> 2v^2/3 at the core."""
    small, us, ub, rb = _branches(v, r)
    sh, decayed = _sinh_capped(ub)
    # phi'(r) = 1/(2 r^2) - 2 v^2 / sinh^2(2 v r); series: 2v^2/3 - 8 v^4 r^2 / 15
    dphi_closed = 1.0 / (2.0 * rb**2) - np.where(decayed, 0.0, 2.0 * v**2 / sh**2)
    dphi_series = 2.0 * v**2 / 3.0 - 2.0 * v**2 * us**2 / 15.0 + 4.0 * v**2 * us**4 / 189.0
    dphi = np.where(small, dphi_series, dphi_closed)
    w = np.where(small, 1.0 - us**2 / 6.0 + 7.0 * us**4 / 360.0, np.where(decayed, 0.0, ub / sh))
    phw = np.where(small, v**2 * (2.0 / 3.0 - 2.0 * us**2 / 9.0), bps_higgs_profile(v, rb) * w / rb)
    return dphi, w, phw


def _frame(x, v, rotated):
    """r, xhat and the frame vectors (..., 3, 3) [i, a] R_i = xhat_i xhat,
    P_i = e_i - xhat_i xhat and X_i = xhat x e_i; for the rotated monopole
    also (q, q') of the rotation map's quintic on its core radius 1/(2v)
    (see `rotation_gauge`), else (None, None)."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    n = x / np.maximum(r, _TINY)[..., None]
    R = n[..., :, None] * n[..., None, :]
    X = np.cross(n[..., None, :], np.eye(3))
    q = dq = None
    if rotated:
        core = 1.0 / (2.0 * v)
        q, dq = _smoothstep(r / core), _smoothstep_prime(r / core) / core
    return r, n, R, np.eye(3) - R, X, q, dq


def core_fields(x, v, t=None, epsilon=None):
    """(A, Phi) of the mass-v BPS monopole centred at the origin as su(2)
    coefficient vectors, A (..., 3, 3) [i, a] and Phi (..., 3): with
    n = xhat, X_i = n x e_i and the profiles k, phi,

        A_i = k X_i,   Phi = phi n.

    Given t, the rotated monopole of the caloron with this epsilon: the
    pullback by g = exp(-a n.(i tau)), a = t q(r)/2 (see `_frame`), which
    turns the vectors normal to n by -2a and adds g^-1 dg and
    g^-1 d_t g / eps, so with P_i = e_i - n_i n

        A_i = (k cos 2a + sin^2 a / r) X_i + (k - 1/2r) sin 2a P_i - (t q'/2) n_i n,
        Phi = (phi - q / (2 eps)) n,

    smooth at the origin, where q vanishes to third order."""
    r, n, R, P, X, q, dq = _frame(x, v, t is not None)
    k = bps_gauge_profile(v, r)
    phi = bps_higgs_profile(v, r)
    if q is None:
        return k[..., None, None] * X, phi[..., None] * n
    t = np.asarray(t, dtype=float)
    a = 0.5 * t * q
    rs = np.maximum(r, _TINY)
    A = ((k * np.cos(2.0 * a) + np.sin(a) ** 2 / rs)[..., None, None] * X
         + ((k - 0.5 / rs) * np.sin(2.0 * a))[..., None, None] * P
         - (0.5 * t * dq)[..., None, None] * R)
    return A, (phi - q / (2.0 * epsilon))[..., None] * n


def core_curvature(x, v, t=None):
    """E = B of `core_fields` as coefficient vectors (..., 3, 3) [i, a]:

        E_i = phi' n_i n + (phi w / r) P_i,

    w = 2vr/sinh(2vr); given t, g turns the normal part by -2a:

        E_i = phi' n_i n + (phi w / r)(cos 2a P_i - sin 2a X_i).

    No derivative of g enters: curvature transforms covariantly."""
    r, n, R, P, X, q, _ = _frame(x, v, t is not None)
    dphi, _, phw = _radial_profiles(v, r)
    if q is not None:
        a = np.asarray(t, dtype=float) * q  # 2a
        P = np.cos(a)[..., None, None] * P - np.sin(a)[..., None, None] * X
    return dphi[..., None, None] * R + phw[..., None, None] * P


def bps_fields(x, v):
    """(A, Phi) of the mass-v BPS monopole centred at the origin."""
    A, Phi = core_fields(x, v)
    return _itau(A), _itau(Phi)


def bps_curvature_fields(x, v):
    """Closed-form E = B of the BPS caloron (`core_curvature`)."""
    return _itau(core_curvature(x, v))


class BPSCaloron(ConnectionSampler):
    """Circle-invariant caloron A_BPS + eps Phi_BPS dt with v = omega'/eps,
    centred at the origin."""

    charge_matrix = ITAU[2]  # the asymptotic charge, in the abelian gauge
    rotated = False

    def __init__(self, omega_prime, epsilon):
        if not 0.0 < omega_prime < 0.5:
            raise HolonomyParameterError(f"holonomy parameter {omega_prime} outside (0, 1/2)")
        self.omega_prime = float(omega_prime)
        self.epsilon = float(epsilon)
        self.v = self.omega_prime / self.epsilon
        self.n = 2

    def evaluate(self, x, t, chart=None):
        A, Phi = core_fields(x, self.v, t if self.rotated else None, self.epsilon)
        return _itau(A), _itau(Phi)

    def exact_curvature(self, x, t):
        E = _itau(core_curvature(x, self.v, t if self.rotated else None))
        return E, E.copy()


# ---------------------------------------------------------------------------
# hedgehog framing, two patches

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
        out[..., 0, 0] = u / (2.0 * r)
        out[..., 1, 1] = u / (2.0 * r)
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


# ---------------------------------------------------------------------------
# Dirac monopoles (abelian, two patches)

def dirac_potential(x, patch="N"):
    """Unit-charge Dirac vector potential coefficients: A = a_i dx^i * gamma
    with a = (-y, x, 0) / (2 r (r +- z)) for the north/south patch.  `patch`
    is "N", "S" or booleans broadcast against x[..., 0], True for south."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    if isinstance(patch, str):
        if patch not in ("N", "S"):
            raise ValueError("patch must be 'N' or 'S'")
        patch = patch == "S"
    sign = np.where(patch, -1.0, 1.0)
    denom = sign * (2.0 * r * (r + sign * x3))
    if np.any(denom == 0):
        raise ChartDomainError("Dirac potential evaluated on its string")
    a = np.zeros_like(x)
    a[..., 0] = -x2 / denom
    a[..., 1] = x1 / denom
    return a


# ---------------------------------------------------------------------------
# rotation map

class GaugeMap:
    """The family g(x,t) = exp(-t Phihat(x)/2) of large gauge transformations.

    Phihat is the unit hedgehog xhat.(i tau) for r >= core_radius and a
    quintic radial interpolation q(r) xhat.(i tau) inside, so g is smooth on
    all of R^3 x R.  The clutching descriptor h(x) = -g(x, 2pi)^{-1} equals
    the identity wherever q = 1.  The pullback by g is worked out in closed
    form in `core_fields`.
    """

    def __init__(self, core_radius):
        self.core_radius = float(core_radius)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, float), x.shape[:-1])
        ang = 0.5 * t * _smoothstep(_r_of(x) / self.core_radius)
        c = np.cos(ang)[..., None, None]
        s = np.sin(ang)[..., None, None]
        return c * np.eye(2, dtype=complex) - s * xhat_itau(x)

    def clutching(self, x):
        """h(x) = -g(x, 2 pi)^{-1}."""
        return -dagger(self(x, 2.0 * np.pi))


def rotation_gauge(omega_prime, epsilon) -> GaugeMap:
    """Rotation map for the mass v = (1/2 - omega')/eps monopole, with
    interpolation core 1/(2v)."""
    if not 0.0 < omega_prime < 0.5:
        raise HolonomyParameterError(f"holonomy parameter {omega_prime} outside (0, 1/2)")
    v = (0.5 - omega_prime) / epsilon
    return GaugeMap(1.0 / (2.0 * v))


class RotatedBPSCaloron(BPSCaloron):
    """g^* (A_BPS + eps Phi_BPS dt) with mass v = (1/2 - omega')/eps and g the
    rotation map `gauge`: the second fundamental SU(2) caloron, genuinely
    t-dependent (`core_fields` given t)."""

    rotated = True

    def __init__(self, omega_prime, epsilon):
        self.gauge = rotation_gauge(omega_prime, epsilon)  # rejects omega' itself, not 1/2 - omega'
        super().__init__(0.5 - omega_prime, epsilon)


# ---------------------------------------------------------------------------
# the framed BPS caloron in the string gauge

def string_gauge_fields(x, v, patch="N", t=None, phase=0.0):
    """The BPS caloron conjugated by the hedgehog frame of `patch`, in closed
    form: the abelian model (v - 1/(2r)) i tau_3 with the Dirac potential,
    plus a remainder b that decays like exp(-2vr), and the framed curvature
    F = E = B.  With zeta = x1 + i x2 and the patch direction vectors

        u_N = (1, -i, 0) - conj(zeta) (x1, x2, r + x3) / (r (r + x3)),
        u_S = -(1, i, 0) + zeta (x1, x2, x3 - r) / (r (r - x3)),

    rational and regular off the patch's string, every piece is diagonal or
    off-diagonal in su(2):

        b_A,i  = [[0, z_i], [-conj z_i, 0]],  z_i = -(w / 2r) u_i,
        b_Phi  = v (coth(2vr) - 1) i tau_3,
        F_i    = phi'(r) xhat_i i tau_3 + [[0, z_i], [-conj z_i, 0]],  z_i = i (phi w / r) u_i.

    For the rotated monopole (t given) the frame ends in g_inf(t) =
    exp(-i t tau_3 / 2) i tau_2, which flips the diagonal and takes z to
    e^{-it} conj z; then psi = diag(e^{i phase/2}, e^{-i phase/2}) takes z
    to e^{-i phase} z.

    Returns (z_A, h_Phi, h_F, z_F): the (0, 1) entries z (..., 3) and the
    i tau_3 coefficients h of b_A, b_Phi and F."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    if patch == "N":
        den, lead, last, zeta = r * (r + x3), (1.0, -1j), r + x3, -(x1 - 1j * x2)
    elif patch == "S":
        den, lead, last, zeta = r * (r - x3), (-1.0, -1j), x3 - r, x1 + 1j * x2
    else:
        raise ValueError("patch must be 'N' or 'S'")
    if np.any(den == 0):
        raise ChartDomainError(f"{patch} string gauge evaluated on its string")
    q = zeta / den
    u = np.empty(x.shape, dtype=complex)
    u[..., 0] = lead[0] + q * x1
    u[..., 1] = lead[1] + q * x2
    u[..., 2] = q * last
    dphi, w, phw = _radial_profiles(v, r)
    z_A = (-0.5 * w / r)[..., None] * u
    z_F = (1j * phw)[..., None] * u
    uc = np.minimum(2.0 * v * r, _DECAY_CUT)
    h_Phi = np.where(uc < _DECAY_CUT, 2.0 * v / np.expm1(2.0 * uc), 0.0)  # v (coth 2vr - 1) without cancellation
    h_F = (dphi / r)[..., None] * x
    if t is not None:
        rot = np.exp(-1j * np.asarray(t, dtype=float))[..., None]
        z_A, z_F = rot * np.conjugate(z_A), rot * np.conjugate(z_F)
        h_Phi, h_F = -h_Phi, -h_F
    if phase:
        rot = np.exp(-1j * phase)
        z_A, z_F = rot * z_A, rot * z_F
    return z_A, h_Phi, h_F, z_F
