"""Independent reference routes for the exact root-system and index code.

These are the ambient-coordinate `Fraction` formulas (and a general
rational solver) that the library replaced by integer sums in simple-root
coordinates.  They stay here, outside the package, as oracles: every
quantity is recomputed from the stored ambient root and coroot vectors.
"""

from fractions import Fraction

from calorons.rootsys import (
    charge_vector,
    dynkin_index_adjoint,
    lincomb,
    pairing,
)


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


# -- identities checked against the library's closed forms --------------------------

def dynkin_index_adjoint_bruteforce(datum):
    """Sum of alpha(theta^vee)^2 over positive roots for the coroot
    theta^vee of a long root."""
    thetav = datum.coroots[datum.highest_root]
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

