"""Exact combinatorics of simple root systems.

Everything here is computed in rational arithmetic (`fractions.Fraction`)
over the standard orthogonal coordinate models: A_n lives in the sum-zero
hyperplane of R^{n+1}, B/C/D/F in R^n / R^4, G_2 in the sum-zero hyperplane
of R^3, E_6/7/8 inside the Bourbaki R^8 model.  Cartan vectors are tuples of
ambient coordinates; the pairing alpha(xi) is the plain dot product of the
realization.  The inner product used for Killing norms is the ambient dot
product rescaled per series so that the coroot of a long root has squared
norm 2 (equivalently, long roots have squared norm 2).  Floating point only
enters when a caller converts to numpy at the field-evaluation boundary.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import InvalidGroupError, UnsupportedRepresentationError

Vector = Tuple[Fraction, ...]

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
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(*coords) -> Vector:
    return tuple(_frac(c) for c in coords)


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return sum((_frac(x) * _frac(y) for x, y in zip(a, b)), Fraction(0))


def vadd(a: Sequence, b: Sequence) -> Vector:
    return tuple(_frac(x) + _frac(y) for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> Vector:
    return tuple(_frac(x) - _frac(y) for x, y in zip(a, b))


def vscale(c, a: Sequence) -> Vector:
    c = _frac(c)
    return tuple(c * _frac(x) for x in a)


def vzero(dim: int) -> Vector:
    return (Fraction(0),) * dim


def pairing(alpha: Sequence, xi: Sequence) -> Fraction:
    """Evaluate the root/weight functional alpha on the Cartan vector xi."""
    return dot(alpha, xi)


def lincomb(coeffs: Sequence, vectors: Sequence[Sequence], dim: int) -> Vector:
    """Exact sum of c * v over paired coefficients and vectors; zero
    coefficients are skipped."""
    acc = vzero(dim)
    for c, v in zip(coeffs, vectors):
        if c:
            acc = vadd(acc, vscale(c, v))
    return acc


def rational_solve(A: List[List[Fraction]], b: List[Fraction]) -> List[Fraction]:
    """Solve a square rational linear system by Gaussian elimination."""
    n = len(A)
    M = [[_frac(x) for x in row] + [_frac(b[i])] for i, row in enumerate(A)]
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


def _simple_roots(series: str, rank: int) -> List[Vector]:
    e = lambda i, dim: tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))
    if series == "A":
        dim = rank + 1
        return [vsub(e(i, dim), e(i + 1, dim)) for i in range(rank)]
    if series == "B":
        roots = [vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        roots.append(e(rank - 1, rank))
        return roots
    if series == "C":
        roots = [vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        roots.append(vscale(2, e(rank - 1, rank)))
        return roots
    if series == "D":
        roots = [vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        roots.append(vadd(e(rank - 2, rank), e(rank - 1, rank)))
        return roots
    if series == "E":
        dim = 8
        half = Fraction(1, 2)
        a1 = tuple([half, -half, -half, -half, -half, -half, -half, half][j] for j in range(8))
        # Bourbaki: alpha1 = (e1+e8)/2 - (e2+...+e7)/2, alpha2 = e1+e2,
        # alpha_k = e_{k-1} - e_{k-2} for k=3..8.
        roots = [a1, vadd(e(0, dim), e(1, dim))]
        for k in range(3, 9):
            roots.append(vsub(e(k - 2, dim), e(k - 3, dim)))
        return roots[:rank]
    if series == "F":
        dim = 4
        half = Fraction(1, 2)
        return [
            vsub(e(1, dim), e(2, dim)),
            vsub(e(2, dim), e(3, dim)),
            e(3, dim),
            (half, -half, -half, -half),
        ]
    if series == "G":
        return [
            vec(1, -1, 0),
            vec(-2, 1, 1),
        ]
    raise InvalidGroupError(f"unknown series {series!r}")


def _reflection_closure(simple: List[Vector]) -> List[Tuple[int, ...]]:
    """All roots as integer coefficient vectors c over the simple roots: the
    closure of the unit vectors under the simple reflections, where s_i
    changes only c_i, by -sum_j c_j A_ji with A_ij = <alpha_i, alpha_j^vee>."""
    cartan = [[2 * dot(a, b) / dot(b, b) for b in simple] for a in simple]
    if any(x.denominator != 1 for row in cartan for x in row):
        raise AssertionError("Cartan matrix not integral")
    A = [[int(x) for x in row] for row in cartan]
    rank = len(simple)
    frontier = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(frontier)
    while frontier:
        new = []
        for c in frontier:
            for i in range(rank):
                shift = sum(c[j] * A[j][i] for j in range(rank))
                refl = c[:i] + (c[i] - shift,) + c[i + 1 :]
                if refl not in roots:
                    roots.add(refl)
                    new.append(refl)
        frontier = new
    return sorted(roots)


class EmbeddingData:
    """su(2) embedding attached to a node of the extended Dynkin diagram.

    `root` is the positive root used (alpha_mu for mu >= 1, the highest root
    for mu = 0); `coroot` is its coroot, which is the image of i*tau_3.  For
    type A the image is the (a, b) block with root = e_a - e_b: `block` holds
    (a, b) and `matrices` the defining-representation images of i*tau_1..3.
    """

    def __init__(self, mu, root, coroot, p_dim, matrices=None, block=None):
        self.mu = mu
        self.root = root
        self.coroot = coroot
        self.p_dim = p_dim
        self.matrices = matrices
        self.block = block

    def embed(self, x):
        """Map a 2x2 anti-Hermitian traceless matrix (batched ok) into su(n).

        Any 2x2 input is first projected orthogonally onto su(2): the
        off-diagonal entry becomes (x01 - conj(x10))/2 and the diagonal
        +-i(Im x00 - Im x11)/2, then scattered into the (a, b) block.
        """
        if self.block is None:
            raise UnsupportedRepresentationError(
                "matrix embedding only available for type A"
            )
        x = np.asarray(x, dtype=complex)
        a, b = self.block
        n = len(self.root)
        off = 0.5 * (x[..., 0, 1] - np.conjugate(x[..., 1, 0]))
        diag = 0.5j * (x[..., 0, 0].imag - x[..., 1, 1].imag)
        out = np.zeros(x.shape[:-2] + (n, n), dtype=complex)
        out[..., a, b] = off
        out[..., b, a] = -np.conjugate(off)
        out[..., a, a] = diag
        out[..., b, b] = -diag
        return out


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


@dataclass(frozen=True)
class RootDatum:
    """A simple Lie type's root-system data in an orthogonal coordinate model."""

    series: str
    rank: int
    ambient_dim: int
    simple_roots: Tuple[Vector, ...]
    positive_roots: Tuple[Vector, ...]
    coroots: Dict[Vector, Vector] = field(hash=False)
    highest_root: Vector
    lowest_root: Vector
    lowest_coroot: Vector
    dual_coxeter_labels: Tuple[int, ...]
    marks: Tuple[int, ...]
    extended_cartan: Tuple[Tuple[int, ...], ...]
    killing_scale: Fraction

    # -- basic linear algebra over the model --------------------------------

    def coroot(self, alpha: Vector) -> Vector:
        return vscale(Fraction(2) / dot(alpha, alpha), alpha)

    def killing(self, a: Sequence, b: Sequence) -> Fraction:
        return self.killing_scale * dot(a, b)

    def norm_sq(self, a: Sequence) -> Fraction:
        return self.killing(a, a)

    # Derived data is computed once per datum: functools.cached_property
    # stores into the instance __dict__, which a frozen dataclass allows.
    @functools.cached_property
    def simple_coroots(self) -> Tuple[Vector, ...]:
        return tuple(self.coroots[a] for a in self.simple_roots)

    @property
    def dim_g(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

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

    def rho(self) -> Vector:
        return self._rho

    @functools.cached_property
    def _rho(self) -> Vector:
        half = [Fraction(1, 2)] * len(self.positive_roots)
        return lincomb(half, self.positive_roots, self.ambient_dim)

    # -- alcove geometry -----------------------------------------------------

    def fundamental_coweights(self) -> List[Vector]:
        """Vectors varpi_mu with alpha_nu(varpi_mu) = delta_{nu mu}."""
        return list(self._fundamental_coweights)

    @functools.cached_property
    def _fundamental_coweights(self) -> Tuple[Vector, ...]:
        cartan = [
            [dot(a, av) for av in self.simple_coroots] for a in self.simple_roots
        ]
        out = []
        for mu in range(self.rank):
            rhs = [Fraction(1) if nu == mu else Fraction(0) for nu in range(self.rank)]
            coeffs = rational_solve(cartan, rhs)
            out.append(lincomb(coeffs, self.simple_coroots, self.ambient_dim))
        return tuple(out)

    def alcove_vertices(self) -> List[Vector]:
        return list(self._alcove_vertices)

    @functools.cached_property
    def _alcove_vertices(self) -> Tuple[Vector, ...]:
        verts = [vzero(self.ambient_dim)]
        for w, a in zip(self.fundamental_coweights(), self.marks):
            verts.append(vscale(Fraction(1, a), w))
        return tuple(verts)

    def alcove_barycenter(self) -> Vector:
        verts = self.alcove_vertices()
        return lincomb([Fraction(1, len(verts))] * len(verts), verts, self.ambient_dim)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        def ser_vec(v):
            return [str(c) for c in v]

        payload = {
            "series": self.series,
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "killing_scale": str(self.killing_scale),
            "simple_roots": [ser_vec(a) for a in self.simple_roots],
            "positive_roots": [ser_vec(a) for a in self.positive_roots],
            "coroots": [
                {"root": ser_vec(a), "coroot": ser_vec(av)}
                for a, av in sorted(self.coroots.items())
            ],
            "highest_root": ser_vec(self.highest_root),
            "lowest_root": ser_vec(self.lowest_root),
            "lowest_coroot": ser_vec(self.lowest_coroot),
            "dual_coxeter_labels": list(self.dual_coxeter_labels),
            "marks": list(self.marks),
            "extended_cartan": [list(row) for row in self.extended_cartan],
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


def build_root_datum(series: str, rank: int) -> RootDatum:
    """Construct the full root datum for a simple type.

    Roots are generated as integer simple-root coefficient vectors by
    reflection closure and cross-checked against the catalogued count for
    the series; positivity, height, the marks and the dual Coxeter labels
    are read off those vectors.
    """
    series = series.upper()
    if series not in _RANK_RANGES:
        raise InvalidGroupError(f"unknown series {series!r}")
    lo, hi = _RANK_RANGES[series]
    if not isinstance(rank, int) or rank < lo or (hi is not None and rank > hi):
        raise InvalidGroupError(f"rank {rank} invalid for series {series}")

    simple = _simple_roots(series, rank)
    dim = len(simple[0])
    coeffs = _reflection_closure(simple)
    expected = 2 * _POSITIVE_ROOT_COUNTS[series](rank)
    if len(coeffs) != expected:
        raise AssertionError(
            f"reflection closure produced {len(coeffs)} roots, expected {expected}"
        )
    ambient = {c: lincomb(c, simple, dim) for c in coeffs}

    # positive roots have nonnegative coefficients; sort by (height, vector)
    positive = sorted((sum(c), ambient[c], c) for c in coeffs if min(c) >= 0)
    positive_roots = tuple(beta for _, beta, _ in positive)
    if len(positive_roots) != len(coeffs) // 2:
        raise AssertionError("positivity split failed")

    _, highest, marks = positive[-1]
    if any(m <= 0 for m in marks):
        raise AssertionError("marks not positive integers")
    lowest = vscale(-1, highest)

    coroots = {a: vscale(Fraction(2) / dot(a, a), a) for a in ambient.values()}
    lowest_coroot = coroots[lowest]
    simple_cor = [coroots[a] for a in simple]

    # dual Coxeter labels: -alpha_0^vee = theta^vee = sum m_mu alpha_mu^vee
    # with m_mu = marks_mu |alpha_mu|^2 / |theta|^2
    theta_sq = dot(highest, highest)
    m = [mk * dot(a, a) / theta_sq for mk, a in zip(marks, simple)]
    if any(c.denominator != 1 or c <= 0 for c in m):
        raise AssertionError("dual Coxeter labels not positive integers")
    labels = tuple(int(c) for c in m)

    node_roots = [lowest] + list(simple)
    node_coroots = [lowest_coroot] + simple_cor
    ext = []
    for mu in range(rank + 1):
        row = []
        for nu in range(rank + 1):
            val = dot(node_roots[nu], node_coroots[mu])
            if val.denominator != 1:
                raise AssertionError("extended Cartan matrix entry not integral")
            row.append(int(val))
        ext.append(tuple(row))
    extended = tuple(ext)

    # normalize Killing so coroots of long roots (theta is one) have squared norm 2
    killing_scale = theta_sq / 2

    return RootDatum(
        series=series,
        rank=rank,
        ambient_dim=dim,
        simple_roots=tuple(simple),
        positive_roots=positive_roots,
        coroots=coroots,
        highest_root=highest,
        lowest_root=lowest,
        lowest_coroot=lowest_coroot,
        dual_coxeter_labels=labels,
        marks=marks,
        extended_cartan=extended,
        killing_scale=killing_scale,
    )


def alcove_check(datum: RootDatum, xi: Sequence, margin=0) -> bool:
    """Membership of xi in the fundamental alcove with a safety margin.

    True iff alpha_mu(xi) >= margin for all simple roots and
    alpha_0(xi) >= -1 + margin.  margin=0 is the closed alcove; margin > 0
    tests containment in a compact subset of the interior.
    """
    margin = _frac(margin) if not isinstance(margin, float) else margin
    for a in datum.simple_roots:
        if pairing(a, xi) < margin:
            return False
    return pairing(datum.lowest_root, xi) >= -1 + margin


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
    return lincomb(coroot_coeffs, datum.simple_coroots, datum.ambient_dim)


def dynkin_index_adjoint(datum: RootDatum) -> int:
    """Dynkin index of the adjoint representation, 2(1 - rho(alpha_0^vee))."""
    val = 2 * (1 - pairing(datum.rho(), datum.lowest_coroot))
    if val.denominator != 1:
        raise AssertionError("adjoint index not integral")
    return int(val)


def dynkin_index_adjoint_bruteforce(datum: RootDatum) -> int:
    """Independent route: sum of alpha(theta^vee)^2 over positive roots for
    the coroot theta^vee of a long root."""
    thetav = datum.coroots[datum.highest_root]
    val = sum((pairing(a, thetav) ** 2 for a in datum.positive_roots), Fraction(0))
    if val.denominator != 1:
        raise AssertionError("brute-force adjoint index not integral")
    return int(val)


def su2_embedding(datum: RootDatum, mu: int) -> EmbeddingData:
    """su(2) triple for node mu: along alpha_mu (mu >= 1) or the highest
    root -alpha_0 (mu = 0).

    The image of i*tau_3 is the corresponding coroot (so -alpha_0^vee when
    mu = 0).  Type A additionally carries the three n x n matrices in the
    defining representation.
    """
    if not 0 <= mu <= datum.rank:
        raise ValueError(f"mu={mu} out of range 0..{datum.rank}")
    root = vscale(-1, datum.lowest_root) if mu == 0 else datum.simple_roots[mu - 1]
    coroot = datum.coroots[root]
    p_dim = datum.dim_g - datum.rank - 2

    matrices = block = None
    if datum.series == "A":
        n = datum.ambient_dim
        a = next(i for i, c in enumerate(root) if c == 1)
        b = next(i for i, c in enumerate(root) if c == -1)
        m1 = np.zeros((n, n), dtype=complex)
        m1[a, b] = 1j
        m1[b, a] = 1j
        m2 = np.zeros((n, n), dtype=complex)
        m2[a, b] = 1.0
        m2[b, a] = -1.0
        m3 = np.zeros((n, n), dtype=complex)
        m3[a, a] = 1j
        m3[b, b] = -1j
        matrices = np.stack([m1, m2, m3])
        block = (a, b)
    return EmbeddingData(mu, root, coroot, p_dim, matrices, block)


def random_interior_omega(datum: RootDatum, rng: random.Random, max_num: int = 12) -> Vector:
    """Random rational point in the open alcove: a strictly positive rational
    convex combination of the alcove vertices."""
    verts = datum.alcove_vertices()
    weights = [Fraction(rng.randint(1, max_num)) for _ in verts]
    total = sum(weights)
    return lincomb([w / total for w in weights], verts, datum.ambient_dim)


def as_float(xi: Sequence) -> np.ndarray:
    return np.asarray([float(c) for c in xi], dtype=float)
