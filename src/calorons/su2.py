"""Closed-form SU(2) building blocks.

The charge-1 BPS monopole of mass v,

    Phi = (v coth(2vr) - 1/(2r)) xhat.(i tau),
    A_i = -(1/2) (1 - 2vr/sinh(2vr)) eps_{ija} xhat^j (i tau^a) / r,

lifted to the circle-invariant caloron A + eps Phi dt, and the rotated
monopole, its pullback by the t-dependent gauge transformation
g(x,t) = exp(-t q(r) xhat.(i tau)/2) with q a quintic on the core radius
1/(2v): both as su(2) coefficient vectors V of V.(i tau) in closed form
(`core_fields`, `core_curvature`), the pullback by g worked out.  The
Dirac monopole potential in the two-patch gauge, and the framed caloron
in the abelian ("string") gauge of each patch in closed form
(`string_gauge_fields`), serve the gluing annuli.

Radial profiles switch to 5th-order Taylor series for 2vr < 1e-4 so the
removable singularity at the core never produces NaN; their closed branch is
evaluated at 2vr = r = 1 there, and the terms that decay like exp(-2vr) are
0 past 2vr = 350, so that no branch forms an inf.
"""

from __future__ import annotations

import numpy as np

from .errors import ChartDomainError
from .quadrature import _smoothstep, _smoothstep_prime
from .samplers import charge_sum

_SERIES_CUT = 1e-4
_DECAY_CUT = 350.0  # exp(-2 * 350) < 1e-304: the decaying terms are 0 next to O(1) ones
_TINY = 1e-300


def _r_of(x):
    """|x| over the last axis, summed in np.linalg.norm's order without its reduction."""
    x = np.asarray(x, float)
    return np.sqrt((x[..., 0] ** 2 + x[..., 1] ** 2) + x[..., 2] ** 2)


def _relative(x, centres, i, out):
    """x_i - p_i (..., N) into out; numpy buffers one broadcast operand, not two."""
    np.copyto(out, x[..., i, None])
    return np.subtract(out, centres[:, i], out=out)


def _distances(x, centres):
    """|x - p_k| (..., N), summed in `_r_of`'s order one coordinate at a time."""
    sq = np.zeros(x.shape[:-1] + centres.shape[:1])
    d = np.empty_like(sq)
    for i in range(3):
        sq += np.multiply(_relative(x, centres, i, d), d, out=d)
    return np.sqrt(sq, out=sq)


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
    """r and n = xhat; for the rotated monopole also (q, q') of the rotation
    map's quintic on its core radius 1/(2v), else (None, None)."""
    x = np.asarray(x, dtype=float)
    r = _r_of(x)
    n = x / np.maximum(r, _TINY)[..., None]
    q = dq = None
    if rotated:
        core = 1.0 / (2.0 * v)
        q, dq = _smoothstep(r / core), _smoothstep_prime(r / core) / core
    return r, n, q, dq


def _frame_sum(n, P=None, X=None, scale=None, R=None):
    """(P P_i + X X_i) scale + R R_i (..., 3, 3) [i, a] for per-point coefficients
    (None: absent), in place from n = xhat: R_i = n_i n, P_i = e_i - R_i and
    X_i = n x e_i, antisymmetric with X[i, a] = n_b for (i, a, b) cyclic."""
    V = np.zeros(n.shape + (3,))
    if P is not None:
        for i in range(3):
            np.subtract(np.eye(3)[i], n[..., i, None] * n, out=V[..., i, :])
        V *= P[..., None, None]
    if X is not None:
        for i, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            xn = X * n[..., b]
            V[..., i, a] += xn
            V[..., a, i] -= xn
    if scale is not None:
        V *= scale[..., None, None]
    if R is not None:
        for i in range(3):
            V[..., i, :] += R[..., None] * (n[..., i, None] * n)
    return V


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
    r, n, q, dq = _frame(x, v, t is not None)
    k = bps_gauge_profile(v, r)
    phi = bps_higgs_profile(v, r)
    if q is None:
        return _frame_sum(n, X=k), phi[..., None] * n
    t = np.asarray(t, dtype=float)
    a = 0.5 * t * q
    rs = np.maximum(r, _TINY)
    return (_frame_sum(n, P=(k - 0.5 / rs) * np.sin(2.0 * a), X=k * np.cos(2.0 * a) + np.sin(a) ** 2 / rs,
                       R=-(0.5 * t * dq)), (phi - q / (2.0 * epsilon))[..., None] * n)


def core_curvature(x, v, t=None):
    """E = B of `core_fields` as coefficient vectors (..., 3, 3) [i, a]:

        E_i = phi' n_i n + (phi w / r) P_i,

    w = 2vr/sinh(2vr); given t, g turns the normal part by -2a:

        E_i = phi' n_i n + (phi w / r)(cos 2a P_i - sin 2a X_i).

    No derivative of g enters: curvature transforms covariantly."""
    r, n, q, _ = _frame(x, v, t is not None)
    dphi, _, phw = _radial_profiles(v, r)
    if q is None:
        return _frame_sum(n, P=phw, R=dphi)
    a = np.asarray(t, dtype=float) * q  # 2a
    return _frame_sum(n, P=np.cos(a), X=-np.sin(a), scale=phw, R=dphi)


# ---------------------------------------------------------------------------
# Dirac monopoles (abelian, two patches)

def dirac_potential(x, patch="N"):
    """Unit-charge Dirac vector potential coefficients: A = a_i dx^i * gamma
    with a = (-y, x, 0) / (2 r (r +- z)) for the north/south patch.  `patch`
    is "N", "S" or booleans broadcast against x[..., 0], True for south."""
    x = np.asarray(x, dtype=float)
    if isinstance(patch, str) and patch not in ("N", "S"):
        raise ValueError("patch must be 'N' or 'S'")
    south = np.asarray(patch == "S" if isinstance(patch, str) else patch, dtype=bool)[..., None]
    return dirac_sum(x, np.zeros((1, 3)), np.ones((1, 1)), south, _r_of(x)[..., None])[..., 0]


def dirac_sum(x, centres, charges, south, r):
    """sum_k a(x - p_k) gamma_k (..., 3, n) of `dirac_potential`, charges gamma_k (N, n) at p_k (N, 3) in
    patches south[..., k], r = |x - p_k| (..., N); a has no z part: a_1, then a_2, sums over (..., N) arrays."""
    out = np.zeros(r.shape[:-1] + (3, charges.shape[-1]))
    den, a = _relative(x, centres, 2, np.empty_like(r)), np.empty_like(r)
    np.add(den, r, out=den, where=~south)
    np.subtract(den, r, out=den, where=south)
    den *= r
    den *= 2.0  # 2 r (z +- r) = +-2 r (r +- z)
    if np.any(den == 0):
        raise ChartDomainError("Dirac potential evaluated on its string")
    charge_sum(np.negative(np.divide(_relative(x, centres, 1, a), den, out=a), out=a), charges, out=out[..., 0, :])
    charge_sum(np.divide(_relative(x, centres, 0, a), den, out=a), charges, out=out[..., 1, :])
    return out


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
    dphi, w, phw = _radial_profiles(v, r)
    q = zeta / den
    u = np.empty(x.shape, dtype=complex)
    u[..., 0] = lead[0] + q * x1
    u[..., 1] = lead[1] + q * x2
    u[..., 2] = q * last
    z_A = (-0.5 * w / r)[..., None] * u
    z_F = np.multiply((1j * phw)[..., None], u, out=u)
    uc = np.minimum(2.0 * v * r, _DECAY_CUT)
    h_Phi = np.where(uc < _DECAY_CUT, 2.0 * v / np.expm1(2.0 * uc), 0.0)  # v (coth 2vr - 1) without cancellation
    h_F = (dphi / r)[..., None] * x
    if t is not None:
        rot = np.exp(-1j * np.asarray(t, dtype=float))[..., None]
        for z in (z_A, z_F):
            np.multiply(rot, np.conjugate(z, out=z), out=z)
        h_Phi, h_F = -h_Phi, -h_F
    if phase:
        rot = np.exp(-1j * phase)
        for z in (z_A, z_F):
            np.multiply(rot, z, out=z)
    return z_A, h_Phi, h_F, z_F
