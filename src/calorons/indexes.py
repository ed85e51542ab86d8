"""Closed-form index, energy and dimension formulas, in exact arithmetic.

All holonomy parameters entering these evaluators are rational Cartan
vectors; integrality is checked exactly, never to a floating tolerance, and
by an explicit raise that `python -O` keeps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import InputError, ResonanceError
from .rootsys import (
    RootDatum,
    Vector,
    _exact_ratio,
    _frac,
    charge_vector,
    pairing,
)


def energy_formula(datum: RootDatum, omega: Sequence, n: Sequence[int]):
    """Yang-Mills energy of a caloron with constituent counts (n_0,..,n_rk):

        sum_mu (1/2)|alpha_mu^vee|^2 n_mu f_mu(omega),   f_mu = delta_mu0 + alpha_mu

    (`RootDatum.facet`), with (1/2)|alpha_mu^vee|^2 = marks_mu / labels_mu
    (1 at node 0, `RootDatum.index_constants`).  Exact when omega has
    rational coordinates.
    """
    weights = zip((1,) + datum.marks, (1,) + datum.dual_coxeter_labels, n)
    return sum(Fraction(m, l) * n_mu * datum.facet(mu, omega) for mu, (m, l, n_mu) in enumerate(weights))


def moduli_dimension(n: Sequence[int]) -> int:
    """Expected moduli dimension 4 * sum(n_mu)."""
    if any(int(x) < 0 for x in n):
        warnings.warn(
            "negative constituent count: the moduli space is expected to be empty",
            stacklevel=2,
        )
    return 4 * sum(int(x) for x in n)


def dynkin_index_su2(datum: RootDatum, mu: int) -> int:
    """Dynkin index of the su(2) embedding at node mu acting on the
    complexified complement: (1/2) sum over roots alpha != +-(node root) of
    alpha(coroot)^2, an integer sum over the positive roots that the datum
    keeps per node."""
    return datum.index_constants[mu][0]


@dataclass(frozen=True)
class IndexReport:
    series: str
    rank: int
    mu: int
    omega: Vector
    chern_term: Fraction
    boundary_term: Fraction

    @property
    def total_index(self) -> int:
        total = self.chern_term + self.boundary_term
        return _exact_ratio(total.numerator, total.denominator, "transverse index")

    def to_dict(self):
        return {
            "series": self.series,
            "rank": self.rank,
            "mu": self.mu,
            "omega": [str(c) for c in self.omega],
            "chern_term": str(self.chern_term),
            "boundary_term": str(self.boundary_term),
            "total_index": self.total_index,
        }


def transverse_index(datum: RootDatum, mu: int, omega: Sequence) -> IndexReport:
    """Index of the deformation operator of the node-mu building block acting
    transversally to its stabilizer, split into Chern and boundary terms.

    Vanishes identically (exactly) for every simple type and every node.
    """
    if len(omega) != datum.ambient_dim:
        raise InputError(f"omega must have {datum.ambient_dim} ambient coordinates, got {len(omega)}")
    omega = tuple(map(_frac, omega))
    sign = -1 if mu == 0 else 1
    n0 = 1 if mu == 0 else 0

    f = datum.facet(mu, omega)  # refuses a mu off the extended diagram
    dynkin, slope = datum.index_constants[mu]  # slope = (ind_ad / 2)|alpha_mu^vee|^2 - 4
    chern = dynkin * f
    boundary = 2 * (datum.rho_pairing(mu) - sign) - slope * (f - n0)
    return IndexReport(datum.series, datum.rank, mu, omega, chern, boundary)


# --------------------------------------------------------------------------
# twisted Dirac index for a family of representation twists


@dataclass(frozen=True)
class WeightList:
    """Weights of a representation as covectors on the Cartan, plus the
    representation's Dynkin index."""

    weights: Tuple[Vector, ...]
    dynkin_index_rho: Fraction

    def __len__(self):
        return len(self.weights)


def _rep_dynkin_index(datum: RootDatum, weights) -> Fraction:
    """(1/2) sum_w w(theta^vee)^2; theta^vee = -alpha_0^vee, whose sign the square drops."""
    return sum((pairing(w, datum.lowest_coroot) ** 2 for w in weights), Fraction(0)) / 2


def adjoint_weights(datum: RootDatum) -> WeightList:
    """Weights of the adjoint representation: all roots plus rank zeros."""
    ws: List[Vector] = []
    for a in datum.positive_roots:
        ws.append(a)
        ws.append(tuple(-x for x in a))
    for _ in range(datum.rank):
        ws.append((Fraction(0),) * datum.ambient_dim)
    return WeightList(tuple(ws), _rep_dynkin_index(datum, ws))


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def twisted_dirac_index(
    datum: RootDatum,
    rep: WeightList,
    omega: Sequence,
    gamma_coeffs: Sequence[int],
    n0: int,
    s,
) -> int:
    """Index of the twisted Dirac family at spectral parameter s in (0,1):

        sum_w floor(w(omega)) w(gamma_m) + n0 ind(rho) + sum_{w : s_w < s} w(gamma_m)

    with s_w = 1 - frac(w(omega)).  s must be generic (!= every s_w).
    """
    omega = tuple(Fraction(c) for c in omega)
    s = Fraction(s)
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    gamma = charge_vector(datum, gamma_coeffs)

    total = Fraction(n0) * rep.dynkin_index_rho
    for w in rep.weights:
        w_omega = pairing(w, omega)
        w_gamma = pairing(w, gamma)
        fl = _floor_frac(w_omega)
        s_w = 1 - (w_omega - fl)
        if s == s_w:
            raise ResonanceError(s, w)
        total += fl * w_gamma
        if s_w < s:
            total += w_gamma
    return _exact_ratio(total.numerator, total.denominator, "twisted index")


def jump_loci(datum: RootDatum, rep: WeightList, omega: Sequence):
    """Sorted distinct values s_w in (0,1) where the twisted index jumps."""
    omega = tuple(Fraction(c) for c in omega)
    out = set()
    for w in rep.weights:
        w_omega = pairing(w, omega)
        s_w = 1 - (w_omega - _floor_frac(w_omega))
        if s_w < 1:
            out.add(s_w)
    return sorted(out)
