"""Closed-form SU(2) building blocks.

The charge-1 BPS monopole of mass v,

    Phi = (v coth(2vr) - 1/(2r)) xhat.(i tau),
    A_i = -(1/2) (1 - 2vr/sinh(2vr)) eps_{ija} xhat^j (i tau^a) / r,

its lift to a circle-invariant caloron A + eps Phi dt, the hedgehog framing
that diagonalizes the asymptotic Higgs field, the Dirac monopole potential in the
two-patch gauge, and the t-dependent "rotation" gauge transformation
g(x,t) = exp(-t Phihat(x)/2) whose pullback produces the rotated monopole.
The framed caloron is also written down in the abelian ("string") gauge of
each patch, in closed form (`string_gauge_fields`): the gluing annuli take
it with no frame, derivative or conjugation computed as a matrix product.

Radial profiles switch to 5th-order Taylor series for 2vr < 1e-4 so the
removable singularity at the core never produces NaN.
"""

from __future__ import annotations

import numpy as np

from .errors import ChartDomainError, HolonomyParameterError
from .quadrature import _smoothstep, _smoothstep_prime
from .samplers import ConnectionSampler, PulledBackSampler, dagger

_SERIES_CUT = 1e-4
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


def bps_higgs_profile(v, r):
    """phi(r) = v coth(2vr) - 1/(2r), with series fallback near r = 0."""
    r = np.asarray(r, dtype=float)
    u = 2.0 * v * r
    small = u < _SERIES_CUT
    us = np.where(small, u, 1.0)
    series = v * (us / 3.0 - us**3 / 45.0 + 2.0 * us**5 / 945.0)
    ub = np.where(small, 1.0, u)
    closed = v / np.tanh(ub) - 1.0 / (2.0 * np.maximum(r, _TINY))
    return np.where(small, series, closed)


def bps_gauge_profile(v, r):
    """k(r) = (1 - 2vr/sinh(2vr)) / (2r); A_i = -k eps_{ija} xhat^j i tau^a."""
    r = np.asarray(r, dtype=float)
    u = 2.0 * v * r
    small = u < _SERIES_CUT
    us = np.where(small, u, 1.0)
    # (1 - u/sinh u)/(2r) = v (u/6 - 7 u^3/360 + 31 u^5 / 15120)
    series = v * (us / 6.0 - 7.0 * us**3 / 360.0 + 31.0 * us**5 / 15120.0)
    ub = np.where(small, 1.0, u)
    closed = (1.0 - ub / np.sinh(ub)) / (2.0 * np.maximum(r, _TINY))
    return np.where(small, series, closed)


def bps_fields(x, v):
    """(A, Phi) of the mass-v BPS monopole centred at the origin."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    xh = x / np.maximum(r, _TINY)[..., None]
    phi = bps_higgs_profile(v, r)
    k = bps_gauge_profile(v, r)
    Phi = phi[..., None, None] * _itau(xh)
    # eps_ija xhat_j = (e_i x xhat)_a, contracted with i tau_a
    A = -k[..., None, None, None] * _itau(np.cross(np.eye(3), xh[..., None, :]))
    return A, Phi


def _radial_profiles(v, r):
    """phi'(r), w(r) = 2vr/sinh(2vr) and phi w / r, each with its series for
    2vr < 1e-4; phi w / r -> 2v^2/3 at the core."""
    u = 2.0 * v * r
    small = u < _SERIES_CUT
    ub = np.where(small, 1.0, u)
    us = np.where(small, u, 1.0)
    # phi'(r) = 1/(2 r^2) - 2 v^2 / sinh^2(2 v r); series: 2v^2/3 - 8 v^4 r^2 / 15
    dphi_closed = 1.0 / (2.0 * np.maximum(r, _TINY) ** 2) - 2.0 * v**2 / np.sinh(ub) ** 2
    dphi_series = 2.0 * v**2 / 3.0 - 2.0 * v**2 * us**2 / 15.0 + 4.0 * v**2 * us**4 / 189.0
    dphi = np.where(small, dphi_series, dphi_closed)
    w = np.where(small, 1.0 - us**2 / 6.0 + 7.0 * us**4 / 360.0, ub / np.sinh(ub))
    phw = np.where(
        small,
        v**2 * (2.0 / 3.0 - 2.0 * us**2 / 9.0),
        bps_higgs_profile(v, r) * w / np.maximum(r, _TINY),
    )
    return dphi, w, phw


def bps_curvature_fields(x, v):
    """Closed-form E = B of the BPS caloron (independent of any finite
    difference):

        E_i = phi'(r) xhat_i xhat_a (i tau_a) + (phi w / r)(delta_ia - xhat_i xhat_a)(i tau_a)

    with w(r) = 2vr/sinh(2vr)."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    xh = x / np.maximum(r, _TINY)[..., None]
    dphi, _, phw = _radial_profiles(v, r)
    rad = xh[..., :, None, None] * _itau(xh)[..., None, :, :]
    tan = ITAU - rad
    return dphi[..., None, None, None] * rad + phw[..., None, None, None] * tan


class BPSCaloron(ConnectionSampler):
    """Circle-invariant caloron A_BPS + eps Phi_BPS dt with v = omega'/eps,
    centred at the origin."""

    charge_matrix = ITAU[2]  # the asymptotic charge, in the abelian gauge

    def __init__(self, omega_prime, epsilon):
        if not 0.0 < omega_prime < 0.5:
            raise HolonomyParameterError(
                f"holonomy parameter {omega_prime} outside (0, 1/2)"
            )
        self.omega_prime = float(omega_prime)
        self.epsilon = float(epsilon)
        self.v = self.omega_prime / self.epsilon
        self.n = 2

    def evaluate(self, x, t, chart=None):
        return bps_fields(x, self.v)

    def exact_curvature(self, x, t):
        E = bps_curvature_fields(x, self.v)
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
    the identity wherever q = 1.
    """

    def __init__(self, core_radius):
        self.core_radius = float(core_radius)

    def _theta_dir(self, x):
        x = np.asarray(x, dtype=float)
        r = _r_of(x)
        q = _smoothstep(r / self.core_radius)
        return r, q, xhat_itau(x)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, float), x.shape[:-1])
        r, q, n_itau = self._theta_dir(x)
        ang = 0.5 * t * q
        c = np.cos(ang)[..., None, None]
        s = np.sin(ang)[..., None, None]
        eye = np.eye(2, dtype=complex)
        return c * eye - s * n_itau

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
        return radial - _itau(proj)

    def clutching(self, x):
        """h(x) = -g(x, 2 pi)^{-1}."""
        g2pi = self(x, 2.0 * np.pi)
        return -dagger(g2pi)


def rotation_gauge(omega_prime, epsilon) -> GaugeMap:
    """Rotation map for the mass v = (1/2 - omega')/eps monopole, with
    interpolation core 1/(2v)."""
    if not 0.0 < omega_prime < 0.5:
        raise HolonomyParameterError(f"holonomy parameter {omega_prime} outside (0, 1/2)")
    v = (0.5 - omega_prime) / epsilon
    return GaugeMap(1.0 / (2.0 * v))


class RotatedBPSCaloron(PulledBackSampler):
    """g^* (A_BPS + eps Phi_BPS dt) with mass v = (1/2 - omega')/eps: the
    second fundamental SU(2) caloron, genuinely t-dependent.  g commutes
    with Phihat, so the time component gains g^-1 d_t g / eps = -Phihat/(2 eps)."""

    def __init__(self, omega_prime, epsilon):
        gauge = rotation_gauge(omega_prime, epsilon)  # rejects omega' itself, not 1/2 - omega'
        super().__init__(BPSCaloron(0.5 - omega_prime, epsilon), gauge)
        self.v = self.base.v


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
    h_Phi = 2.0 * v / np.expm1(4.0 * v * r)  # v (coth 2vr - 1) without cancellation
    h_F = (dphi / r)[..., None] * x
    if t is not None:
        rot = np.exp(-1j * np.asarray(t, dtype=float))[..., None]
        z_A, z_F = rot * np.conjugate(z_A), rot * np.conjugate(z_F)
        h_Phi, h_F = -h_Phi, -h_F
    if phase:
        rot = np.exp(-1j * phase)
        z_A, z_F = rot * z_A, rot * z_F
    return z_A, h_Phi, h_F, z_F
