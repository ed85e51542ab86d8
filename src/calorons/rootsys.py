"""Exact combinatorics of simple root systems.

The positive roots are generated and paired in integer simple-root
coordinates, height by height along root strings: each carries its pairings
alpha(alpha_i^vee) with the simple coroots and D times its ambient vector,
and the pairing table over the extended diagram is read from them.
`fractions.Fraction` appears only at the ambient boundary: root and coroot
vectors (the full lists built on first use), coweights and alcove points
(integer numerators over one common denominator), `to_json`, and index terms
at a rational holonomy, where `dot` sums over one common denominator.
The ambient models are the standard orthogonal ones: A_n in the sum-zero
hyperplane of R^{n+1}, B/C/D/F in R^n / R^4, G_2 in the sum-zero hyperplane
of R^3, E_6/7/8 inside the Bourbaki R^8 model.  The simple roots times the
series denominator D (2 for E and F, else 1) are integer vectors x, so roots
are x / D and coroots 2 D x / |x|^2.  Killing norms rescale the ambient dot
product so that long roots have squared norm 2.  The classical series stop
at rank 64.  The module is exact and imports no numpy: the su(2) embedding
of a node is its root and coroot, which the field layers read in the same
ambient coordinates (`samplers.su2_field`), for every simple type.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Dict, List, Sequence, Tuple

from .errors import InvalidGroupError

Vector = Tuple[Fraction, ...]
Coeffs = Tuple[int, ...]

_POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_RANK_RANGES = {
    "A": (1, 64),
    "B": (2, 64),
    "C": (3, 64),
    "D": (4, 64),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def all_simple_types() -> List[Tuple[str, int]]:
    """The classical types A-D of rank <= 8, series by series, then the five
    exceptional types: the order of `caloron index --sweep-all`."""
    classical = [(s, r) for s in "ABCD" for r in range(_RANK_RANGES[s][0], 9)]
    return classical + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def dot(a: Sequence, b: Sequence) -> Fraction:
    """Exact sum of x * y over ints, Fractions or binary floats, accumulated
    over one running common denominator and normalized once."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    num, den = 0, 1
    for x, y in zip(a, b):
        x = x if isinstance(x, (int, Fraction)) else Fraction(x)
        y = y if isinstance(y, (int, Fraction)) else Fraction(y)
        d = x.denominator * y.denominator
        lcm = den // math.gcd(den, d) * d
        num = num * (lcm // den) + x.numerator * y.numerator * (lcm // d)
        den = lcm
    return Fraction(num, den)


def pairing(alpha: Sequence, xi: Sequence) -> Fraction:
    """Evaluate the root/weight functional alpha on the Cartan vector xi."""
    return dot(alpha, xi)


def _int_comb(coeffs: Sequence[int], vectors: Sequence[Sequence[int]]) -> Coeffs:
    """Integer sum of c * v over paired coefficients and integer vectors."""
    return tuple(sum(map(mul, coeffs, column)) for column in zip(*vectors))


def _int_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _ambient(denom: int, x: Sequence[int]) -> Vector:
    """The ambient vector x / D of a scaled integer vector x."""
    return tuple(Fraction(n, denom) for n in x)


def _coroot(denom: int, x: Sequence[int]) -> Vector:
    """The coroot 2 D x / |x|^2 of the root x / D."""
    x_sq = _int_dot(x, x)
    return tuple(Fraction(2 * denom * n, x_sq) for n in x)


def _exact_ratio(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; AssertionError naming `what` if not."""
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{what} not integral")
    return q


def _inverse(matrix: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """Exact inverse of a Cartan matrix as integer rows over one denominator,
    inverse = rows / den: one fraction-free Gauss-Jordan elimination of
    [matrix | I]."""
    n = len(matrix)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(matrix)]
    for col in range(n):  # a Cartan matrix's leading minors are positive: no pivoting
        p = rows[col]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                new = [p[col] * x - f * y for x, y in zip(rows[r], p)]
                g = math.gcd(*new)
                rows[r] = [x // g for x in new]
    den = math.lcm(*(r[i] for i, r in enumerate(rows)))
    return [[x * den // r[i] for x in r[n:]] for i, r in enumerate(rows)], den


def _unit_diffs(dim: int, count: int, scale: int = 1) -> List[Coeffs]:
    """scale * (e_i - e_{i+1}) for i < count."""
    return [tuple(scale * ((j == i) - (j == i + 1)) for j in range(dim)) for i in range(count)]


def _scaled_simple_roots(series: str, rank: int) -> Tuple[int, List[Coeffs]]:
    """The series denominator D and the simple roots times D, as integer
    ambient vectors."""
    if series == "A":
        return 1, _unit_diffs(rank + 1, rank)
    if series in "BCD":
        last = {"B": {rank - 1: 1}, "C": {rank - 1: 2}, "D": {rank - 2: 1, rank - 1: 1}}[series]
        return 1, _unit_diffs(rank, rank - 1) + [tuple(last.get(j, 0) for j in range(rank))]
    if series == "E":
        # Bourbaki: alpha1 = (e1+e8)/2 - (e2+...+e7)/2, alpha2 = e1+e2,
        # alpha_k = e_{k-1} - e_{k-2} for k=3..8.
        roots = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
        return 2, (roots + _unit_diffs(8, 6, -2))[:rank]
    if series == "F":
        return 2, _unit_diffs(4, 3, 2)[1:] + [(0, 0, 0, 2), (1, -1, -1, -1)]
    if series == "G":
        return 1, [(1, -1, 0), (-2, 1, 1)]
    raise InvalidGroupError(f"unknown series {series!r}")


def _positive_roots(A: List[Coeffs], simple: List[Coeffs]) -> List[Tuple[Coeffs, ...]]:
    """Every positive root as (D times its ambient vector v, its simple-root
    coefficients c, its pairings p_j = alpha(alpha_j^vee)) in (height, v)
    order, made height by height from the simple roots: the alpha_i-string
    through beta runs from beta - r_i alpha_i to beta + (r_i - p_i) alpha_i,
    so beta + alpha_i is a root exactly when r_i > p_i, and it has v + D
    alpha_i, p + A_i (A_ij = alpha_i(alpha_j^vee)) and r_i one above beta's."""
    rank = len(A)
    level = {tuple(int(i == j) for j in range(rank)): (simple[i], A[i], [0] * rank) for i in range(rank)}
    roots = []
    while level:
        roots += sorted((v, c, p) for c, (v, p, _) in level.items())
        higher = {}
        for c, (v, p, r) in level.items():
            for i, (r_i, p_i) in enumerate(zip(r, p)):
                if r_i > p_i:
                    up = c[:i] + (c[i] + 1,) + c[i + 1 :]
                    if up not in higher:
                        higher[up] = (tuple(map(add, v, simple[i])), tuple(map(add, p, A[i])), [0] * rank)
                    higher[up][2][i] = r_i + 1
        level = higher
    return roots


@dataclass(frozen=True)
class EmbeddingData:
    """su(2) embedding attached to a node of the extended Dynkin diagram.

    `root` is the positive root used (alpha_mu for mu >= 1, the highest root
    for mu = 0); `coroot` is its coroot, the image of i*tau_3; `p_dim` is
    dim g - rank - 2.
    """

    mu: int
    root: Vector
    coroot: Vector
    p_dim: int


@dataclass(frozen=True)
class RootDatum:
    """A simple Lie type's root-system data in an orthogonal coordinate model.

    `extended_cartan[mu][nu]` is alpha_nu(alpha_mu^vee) over the nodes of the
    extended diagram (0 is the lowest root).  Each positive root, in
    `positive_roots` order, has D times its ambient vector, its integer
    simple-root coefficients and its pairings (alpha(alpha_1^vee), ..,
    alpha(alpha_rk^vee)); the ambient roots and coroots are made on first use.
    """

    series: str
    rank: int
    ambient_dim: int
    denominator: int
    scaled_simple_roots: Tuple[Coeffs, ...]
    simple_roots: Tuple[Vector, ...]
    highest_root: Vector
    lowest_root: Vector
    lowest_coroot: Vector
    dual_coxeter_labels: Tuple[int, ...]
    marks: Tuple[int, ...]
    extended_cartan: Tuple[Tuple[int, ...], ...]
    killing_scale: Fraction
    positive_root_vectors: Tuple[Coeffs, ...] = field(hash=False, compare=False)
    positive_root_coeffs: Tuple[Coeffs, ...] = field(hash=False, compare=False)
    positive_root_pairings: Tuple[Coeffs, ...] = field(hash=False, compare=False)

    # -- basic linear algebra over the model --------------------------------

    def norm_sq(self, a: Sequence) -> Fraction:
        return self.killing_scale * dot(a, a)

    # Derived data is computed once per datum: functools.cached_property
    # stores into the instance __dict__, which a frozen dataclass allows.
    @functools.cached_property
    def positive_roots(self) -> Tuple[Vector, ...]:
        return tuple(_ambient(self.denominator, x) for x in self.positive_root_vectors)

    @functools.cached_property
    def coroots(self) -> Dict[Vector, Vector]:
        """The coroot of every root, positive and negative, in the order of
        their integer vectors x (the order of the roots x / D)."""
        scaled = self.positive_root_vectors + tuple(tuple(-n for n in x) for x in self.positive_root_vectors)
        return {_ambient(self.denominator, x): _coroot(self.denominator, x) for x in sorted(scaled)}

    @functools.cached_property
    def simple_coroots(self) -> Tuple[Vector, ...]:
        return tuple(_coroot(self.denominator, x) for x in self.scaled_simple_roots)

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * len(self.positive_root_coeffs)

    def node_root(self, mu: int) -> Vector:
        """Root attached to node mu of the extended diagram: alpha_mu, or the
        lowest root for mu = 0."""
        if mu == 0:
            return self.lowest_root
        return self.simple_roots[mu - 1]

    def node_coroot(self, mu: int) -> Vector:
        if mu == 0:
            return self.lowest_coroot
        return self.simple_coroots[mu - 1]

    # -- integer pairings with the node coroots ------------------------------

    def coroot_pairings(self, mu: int) -> Coeffs:
        """alpha(alpha_mu^vee) for every positive root alpha, in
        `positive_roots` order."""
        return self._coroot_pairings[mu]

    @functools.cached_property
    def _coroot_pairings(self) -> Tuple[Coeffs, ...]:
        # rows 1..rk transpose the pairing vectors; alpha_0^vee = -sum_i labels_i alpha_i^vee
        pairings = self.positive_root_pairings
        row0 = tuple(-_int_dot(self.dual_coxeter_labels, p) for p in pairings)
        return (row0,) + tuple(zip(*pairings))

    def rho_pairing(self, mu: int) -> int:
        """rho(alpha_mu^vee) for the Weyl vector rho, half the sum of the
        positive roots."""
        return self._rho[mu]

    @functools.cached_property
    def _rho(self) -> Coeffs:
        return tuple(
            _exact_ratio(sum(p), 2, "rho on a coroot") for p in self._coroot_pairings
        )

    @functools.cached_property
    def index_constants(self) -> Tuple[Coeffs, ...]:
        """Per node mu: the Dynkin index sum_{alpha > 0} alpha(alpha_mu^vee)^2 - 4
        of its su(2) on the complement of its triple (the +-alpha_mu pair
        pairs to +-2), and the transverse index's boundary slope
        (ind_ad / 2)|alpha_mu^vee|^2 - 4 with |alpha_mu^vee|^2 = 2 |theta|^2 /
        |alpha_mu|^2 = 2 marks_mu / labels_mu (2 at node 0)."""
        return tuple((_int_dot(p, p) - 4, dynkin_index_adjoint(self) * m // l - 4) for p, m, l in
                     zip(self._coroot_pairings, (1,) + self.marks, (1,) + self.dual_coxeter_labels))

    # -- alcove geometry -----------------------------------------------------

    def fundamental_coweights(self) -> List[Vector]:
        """Vectors varpi_mu with alpha_nu(varpi_mu) = delta_{nu mu}."""
        L, coweights = self._coweight_numerators
        return [tuple(Fraction(n, L) for n in w) for w in coweights]

    @functools.cached_property
    def _coweight_numerators(self) -> Tuple[int, List[Coeffs]]:
        # varpi_mu = sum_j B_mu_j alpha_j^vee needs sum_j B_mu_j alpha_nu(alpha_j^vee)
        # = delta_mu_nu: B = rows / den is the inverse of the Cartan block of
        # extended_cartan; (L den, rows): the coweights are the integer rows / (L den)
        rows, den = _inverse([row[1:] for row in self.extended_cartan[1:]])
        L, coroots = self._coroot_numerators
        return L * den, [_int_comb(b, coroots) for b in rows]

    @functools.cached_property
    def _coroot_numerators(self) -> Tuple[int, List[Coeffs]]:
        # (L, rows): the simple coroots 2 D x / |x|^2 are the integer rows / L
        simple = self.scaled_simple_roots
        L = math.lcm(*map(_int_dot, simple, simple))
        return L, [tuple(2 * self.denominator * L // _int_dot(x, x) * n for n in x) for x in simple]

    def alcove_point(self, weights: Sequence[int]) -> Vector:
        """sum_v w_v v / sum_v w_v over the alcove vertices v, for
        nonnegative integer weights w_v, not all zero."""
        L, verts = self._alcove_numerators
        total = L * sum(weights)
        return tuple(Fraction(n, total) for n in _int_comb(weights[1:], verts))

    @functools.cached_property
    def _alcove_numerators(self) -> Tuple[int, List[Coeffs]]:
        # the vertices varpi_mu / a_mu over one denominator L A (0 is the other vertex)
        L, coweights = self._coweight_numerators
        A = math.lcm(*self.marks)
        return L * A, [tuple(n * (A // a) for n in w) for w, a in zip(coweights, self.marks)]

    def alcove_barycenter(self) -> Vector:
        return self.alcove_point([1] * (self.rank + 1))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        def vec(v):
            return list(map(str, v))

        payload = {
            "series": self.series,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "killing_scale": str(self.killing_scale),
            "simple_roots": list(map(vec, self.simple_roots)),
            "positive_roots": list(map(vec, self.positive_roots)),
            "coroots": [{"root": vec(a), "coroot": vec(av)} for a, av in self.coroots.items()],
            "highest_root": vec(self.highest_root),
            "lowest_root": vec(self.lowest_root),
            "lowest_coroot": vec(self.lowest_coroot),
            "dual_coxeter_labels": self.dual_coxeter_labels,
            "marks": self.marks,
            "extended_cartan": self.extended_cartan,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def parse_group_label(label: str) -> Tuple[str, int]:
    """Parse labels like "A2" or "G2" into (series, rank)."""
    label = label.strip()
    if len(label) < 2 or label[0].upper() not in _RANK_RANGES:
        raise InvalidGroupError(f"bad group label {label!r}")
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise InvalidGroupError(f"bad group label {label!r}") from exc
    return label[0].upper(), rank


def _checked_type(series: str, rank: int) -> str:
    series = series.upper()
    if series not in _RANK_RANGES:
        raise InvalidGroupError(f"unknown series {series!r}")
    lo, hi = _RANK_RANGES[series]
    if not isinstance(rank, int) or not lo <= rank <= hi:
        raise InvalidGroupError(f"rank {rank} invalid for series {series} (ranks {lo}..{hi})")
    return series


def ambient_dim(series: str, rank: int) -> int:
    """Dimension of the ambient model of a simple type, read off without
    building its root datum."""
    return {"A": rank + 1, "E": 8, "F": 4, "G": 3}.get(_checked_type(series, rank), rank)


def build_root_datum(series: str, rank: int) -> RootDatum:
    """Construct the full root datum for a simple type.

    The positive roots are generated height by height along root strings, as
    integer simple-root coefficient vectors with their pairings with the
    simple coroots and their scaled ambient vectors, and cross-checked
    against the catalogued count for the series.  The marks are the highest
    root's coefficients; the dual Coxeter labels and the extended Cartan
    matrix are read off the integer Cartan matrix, the highest root's
    pairings and the marks.  Ambient roots and coroots are made from integer
    vectors x as x / D and 2 D x / |x|^2: the simple, highest and lowest
    ones here, the rest on first use.
    """
    series = _checked_type(series, rank)
    denom, simple = _scaled_simple_roots(series, rank)
    sq = list(map(_int_dot, simple, simple))
    A = [tuple(_exact_ratio(2 * _int_dot(a, b), s, "Cartan matrix") for b, s in zip(simple, sq))
         for a in simple]
    vectors, coeffs, pairings = zip(*_positive_roots(A, simple))
    expected = _POSITIVE_ROOT_COUNTS[series](rank)
    if len(coeffs) != expected:
        raise AssertionError(f"root generation produced {len(coeffs)} positive roots, expected {expected}")

    # dual Coxeter labels: -alpha_0^vee = theta^vee = sum m_mu alpha_mu^vee
    # with m_mu = marks_mu |alpha_mu|^2 / |theta|^2
    theta, marks, theta_pairings = vectors[-1], coeffs[-1], pairings[-1]
    theta_sq = _int_dot(theta, theta)
    labels = tuple(_exact_ratio(mk * s, theta_sq, "dual Coxeter label") for mk, s in zip(marks, sq))
    if any(m <= 0 for m in marks + labels):
        raise AssertionError("marks or dual Coxeter labels not positive")

    # extended[mu][nu] = alpha_nu(alpha_mu^vee): alpha_0 = -theta pairs as
    # -theta's pairings, and alpha_0^vee = -sum_i labels_i alpha_i^vee
    lowest = tuple(-x for x in theta)
    extended = ((2,) + tuple(-_int_dot(labels, a) for a in A),) + tuple(
        (-t,) + column for t, column in zip(theta_pairings, zip(*A))
    )

    return RootDatum(
        series=series,
        rank=rank,
        ambient_dim=len(simple[0]),
        denominator=denom,
        scaled_simple_roots=tuple(simple),
        simple_roots=tuple(_ambient(denom, x) for x in simple),
        highest_root=_ambient(denom, theta),
        lowest_root=_ambient(denom, lowest),
        lowest_coroot=_coroot(denom, lowest),
        dual_coxeter_labels=labels,
        marks=marks,
        extended_cartan=extended,
        # normalize Killing so coroots of long roots (theta is one) have squared norm 2
        killing_scale=Fraction(theta_sq, 2 * denom * denom),
        positive_root_vectors=vectors,
        positive_root_coeffs=coeffs,
        positive_root_pairings=pairings,
    )


def alcove_margin(datum: RootDatum, xi: Sequence):
    """Smallest facet margin of xi: min(alpha_mu(xi), 1 + alpha_0(xi))."""
    vals = [pairing(a, xi) for a in datum.simple_roots]
    vals.append(1 + pairing(datum.lowest_root, xi))
    return min(vals)


def decompose_charge(datum: RootDatum, coroot_coeffs: Sequence[int], n0: int) -> Tuple[int, ...]:
    """Constituent counts (n_0, .., n_rk) of a magnetic charge.

    `coroot_coeffs` are the integer coefficients of gamma_m over the simple
    coroots; n_mu = coeff_mu + n0 * m_mu for mu >= 1 and n_0 = n0.
    """
    if len(coroot_coeffs) != datum.rank:
        raise ValueError("coefficient tuple length must equal the rank")
    n = [int(n0)]
    for c, m in zip(coroot_coeffs, datum.dual_coxeter_labels):
        n.append(int(c) + int(n0) * m)
    return tuple(n)


def reassemble_charge(datum: RootDatum, n: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Inverse of decompose_charge: (coroot_coeffs, n0) from (n_0,..,n_rk)."""
    n0 = int(n[0])
    coeffs = tuple(int(nm) - n0 * m for nm, m in zip(n[1:], datum.dual_coxeter_labels))
    return coeffs, n0


def charge_vector(datum: RootDatum, coroot_coeffs: Sequence[int]) -> Vector:
    """gamma_m = sum_i c_i alpha_i^vee, over the simple coroots' common denominator."""
    L, coroots = datum._coroot_numerators
    return tuple(Fraction(n, L) for n in _int_comb(coroot_coeffs, coroots))


def dynkin_index_adjoint(datum: RootDatum) -> int:
    """Dynkin index of the adjoint representation, 2(1 - rho(alpha_0^vee))."""
    return 2 * (1 - datum.rho_pairing(0))


def su2_embedding(datum: RootDatum, mu: int) -> EmbeddingData:
    """su(2) triple for node mu: along alpha_mu (mu >= 1) or the highest
    root -alpha_0 (mu = 0).  The image of i*tau_3 is the corresponding
    coroot (so -alpha_0^vee when mu = 0)."""
    if not 0 <= mu <= datum.rank:
        raise ValueError(f"mu={mu} out of range 0..{datum.rank}")
    root = datum.highest_root if mu == 0 else datum.simple_roots[mu - 1]
    coroot = _coroot(datum.denominator, datum.positive_root_vectors[-1]) if mu == 0 else datum.simple_coroots[mu - 1]
    return EmbeddingData(mu, root, coroot, datum.dim_g - datum.rank - 2)


def random_interior_omega(datum: RootDatum, rng: random.Random, max_num: int = 12) -> Vector:
    """Random rational point in the open alcove: a strictly positive rational
    convex combination of the alcove vertices."""
    return datum.alcove_point([rng.randint(1, max_num) for _ in range(datum.rank + 1)])
