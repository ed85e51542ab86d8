"""Assembly of approximate calorons from constituent monopoles.

The construction glues fundamental calorons (embedded BPS monopoles for the
simple coroots, an embedded rotated monopole for the lowest coroot) into the
singular abelian background

    A_sing = sum_k A^{gamma_k}_{p_k},   Phi_sing = omega/eps - sum_k gamma_k / (2 |x - p_k|),

replacing each singularity inside a ball of gluing radius R(eps) solving
R = eps^-1 exp(-c R / eps).  On the matching annulus R/2 <= r <= R the
connection interpolates, via a quintic cutoff, between the framed
fundamental caloron and the abelian field written around the local holonomy
parameter omega_k (the constant term of the multipole expansion of Phi_sing
at p_k).

Local gauges ("charts"): the core ball uses the smooth hedgehog gauge of the
fundamental caloron; the annulus uses the two-patch abelian gauge centred at
p_k; the exterior uses the global abelian gauge with a per-monopole
north/south patch choice.  Chart transitions are abelian (constant
conjugation, d(phi)-type and exact d(lambda) terms), so curvature computed
within any single chart is the curvature of the glued connection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import (
    CaloronError,
    GluingInfeasibleError,
    HolonomyParameterError,
    InputError,
    SingularPointError,
    UnsupportedRepresentationError,
)
from .fieldcalc import _core_step, _flux_radius, _flux_step
from .quadrature import _smoothstep, _smoothstep_prime, sphere_rule
from .rootsys import RootDatum, alcove_margin, ambient_dim, build_root_datum, su2_embedding
from .samplers import ConnectionSampler
from .su2 import core_curvature, core_fields, dirac_potential, string_gauge_fields


# ---------------------------------------------------------------------------
# spec objects

@dataclass(frozen=True)
class Constituent:
    mu: int
    position: Tuple[float, float, float]
    phase: float = 0.0


def _finite(value, what) -> float:
    """value as a finite float, else InputError."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise InputError(f"{what} must be finite, got {value!r}")
    return out


def _integer(value, what) -> int:
    """value as an int when it is integral (2 or 2.0), else InputError."""
    out = _finite(value, what)
    if isinstance(value, bool) or not out.is_integer():
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(out)


def _checked_constituent(c) -> Constituent:
    if not isinstance(c, Constituent):
        c = Constituent(**c)
    try:
        position = tuple(_finite(v, "constituent position") for v in c.position)
    except TypeError as exc:
        raise InputError(f"constituent position must be a list of 3 numbers, got {c.position!r}") from exc
    if len(position) != 3:
        raise InputError(f"constituent position must have 3 components, got {len(position)}")
    return Constituent(
        mu=_integer(c.mu, "constituent type mu"),
        position=position,
        phase=_finite(c.phase, "constituent phase"),
    )


@dataclass
class CaloronSpec:
    """Full input of the gluing construction."""

    epsilon: float
    series: str
    rank: int
    omega: Tuple[float, ...]
    constituents: Tuple[Constituent, ...]
    gluing_c: float = 1.0

    def __post_init__(self):
        self.series = self.series.upper()
        self.rank = _integer(self.rank, "rank")
        self.epsilon = _finite(self.epsilon, "epsilon")
        self.gluing_c = _finite(self.gluing_c, "gluing constant c")
        self.omega = tuple(_finite(c, "omega coordinate") for c in self.omega)
        self.constituents = tuple(_checked_constituent(c) for c in self.constituents)
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if self.gluing_c <= 0:
            raise InputError("gluing constant c must be positive")
        if not self.constituents:
            raise InputError("a caloron spec needs at least one constituent")
        dim = ambient_dim(self.series, self.rank)  # before the datum, whose size follows the rank
        if len(self.omega) != dim:
            raise InputError(f"omega must have {dim} ambient coordinates for {self.series}{self.rank}")
        datum = self.datum
        if abs(sum(self.omega)) > 1e-9 and self.series == "A":
            raise InputError("omega coordinates must sum to zero for type A")
        margin = float(alcove_margin(datum, self.omega))
        if margin <= 0:
            raise HolonomyParameterError(
                f"omega lies outside the open fundamental alcove (margin {margin:.3g})"
            )
        for c in self.constituents:
            if not 0 <= c.mu <= self.rank:
                raise InputError(f"constituent type mu={c.mu} out of range 0..{self.rank}")
        pos = [c.position for c in self.constituents]
        if any(math.dist(p, q) == 0.0 for i, p in enumerate(pos) for q in pos[i + 1 :]):
            raise InputError("constituent positions must be distinct")
        # verify's FD steps at the cores and on the flux sphere must be resolved
        # to 1e-6 at that sphere's radius, taken for d_max >= 1 (this bounds r^3 too)
        R = gluing_radius(self.epsilon, self.gluing_c)
        radius = _flux_radius(max(max(math.hypot(*p) for p in pos), 1.0), R)
        step = min(_core_step(self.epsilon), _flux_step(radius))
        if not math.ulp(radius) <= 1e-6 * step:
            raise InputError(f"constituent positions too large: the float spacing at |x| = {radius:.3g} "
                             f"does not resolve the finite-difference step {step:.3g} to 1e-6")

    @property
    def datum(self) -> RootDatum:
        if not hasattr(self, "_datum"):
            self._datum = build_root_datum(self.series, self.rank)
        return self._datum

    @property
    def positions(self):
        return np.array([c.position for c in self.constituents], dtype=float)

    @property
    def d_min(self):
        pos = self.positions
        if len(pos) < 2:
            return math.inf
        return min(
            float(np.linalg.norm(pos[i] - pos[j]))
            for i in range(len(pos))
            for j in range(i + 1, len(pos))
        )

    @property
    def d_max(self):
        pos = self.positions
        if len(pos) == 0:
            return 0.0
        return float(np.max(np.linalg.norm(pos, axis=1)))

    @property
    def d_max_eff(self):
        return max(self.d_max, 1.0)

    def counts(self) -> Tuple[int, ...]:
        """(n_0, .., n_rk): number of constituents of each type."""
        n = [0] * (self.rank + 1)
        for c in self.constituents:
            n[c.mu] += 1
        return tuple(n)

    def charge_coefficients(self) -> Tuple[int, ...]:
        """gamma_m coefficients over the simple coroots."""
        n = self.counts()
        return tuple(n[mu] - n[0] * m for mu, m in zip(range(1, self.rank + 1), self.datum.dual_coxeter_labels))

    def charge_vector(self):
        gam = np.zeros(self.datum.ambient_dim)
        for c in self.constituents:
            gam += np.asarray(self.datum.node_coroot(c.mu), dtype=float)
        return gam

    # -- JSON schema ---------------------------------------------------------

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "group": {"series": self.series, "rank": self.rank},
            "omega": list(self.omega),
            "constituents": [
                {"mu": c.mu, "position": list(c.position), "phase": c.phase}
                for c in self.constituents
            ],
            "gluing": {"c": self.gluing_c},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload):
        try:
            group = payload["group"]
            if not isinstance(payload["constituents"], list):
                raise InputError("constituents must be a list of constituent objects")
            constituents = tuple(
                Constituent(mu=c["mu"], position=c["position"], phase=c.get("phase", 0.0))
                for c in payload["constituents"]
            )
            return cls(
                epsilon=payload["epsilon"],
                series=str(group["series"]),
                rank=group["rank"],
                omega=tuple(payload["omega"]),
                constituents=constituents,
                gluing_c=payload.get("gluing", {}).get("c", 1.0),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed caloron spec: missing/bad field {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
            raise InputError(f"malformed JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class GluingProfile:
    """Cutoff profile: chi = 1 on [0, R/2], 0 on [R, inf), quintic between."""

    R: float

    def chi(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 - _smoothstep(2.0 * r / self.R - 1.0)

    def chi_prime(self, r):
        r = np.asarray(r, dtype=float)
        return -2.0 / self.R * _smoothstep_prime(2.0 * r / self.R - 1.0)


# ---------------------------------------------------------------------------
# gluing radius

def gluing_radius(epsilon, c, d_min=None) -> float:
    """Unique R > 0 with R = eps^-1 exp(-c R/eps), i.e. R = (eps/c) W(c/eps^2).
    Newton in u = ln R on the convex, increasing u + ln eps + c e^u/eps, from
    above the root: (eps/c) ln(1 + x) for x = c/eps^2 >= 1, as W(x) <= ln(1 + x),
    else 1/eps.  Near the root the step is taken in R; a step of at most
    4 ulp ends it.  R ~ eps |ln eps| / c for small eps."""
    if epsilon <= 0 or c <= 0:
        raise InputError("epsilon and c must be positive")
    log_eps = math.log(epsilon)
    lx = math.log(c) - 2.0 * log_eps
    R = math.exp(-log_eps if lx < 0 else log_eps - math.log(c) + math.log(lx + math.log1p(math.exp(-lx))))
    if not 1e-300 < R < 1e300:  # the start lies within a factor 2 above the root
        raise InputError(f"gluing radius for eps={epsilon!r}, c={c!r} lies outside the float range "
                         "(1e-300, 1e300)")
    for _ in range(20):
        cR, p = c * R / epsilon, R * epsilon  # ln(R eps) avoids cancelling ln R + ln eps
        du = ((math.log(p) if p > 1e-300 else math.log(R) + log_eps) + cR) / (1.0 + cR)
        R, R_old = (R * math.exp(-du) if abs(du) > 1e-3 else R - R * du), R
        if abs(R - R_old) <= 4.0 * math.ulp(R_old):
            break
    else:
        raise CaloronError(f"gluing radius: no convergence in 20 Newton steps for eps={epsilon!r}, c={c!r}")
    if d_min is not None and R >= d_min / 2.0:
        raise GluingInfeasibleError(
            f"gluing radius R={R:.4g} >= d_min/2={d_min / 2.0:.4g}: decrease epsilon "
            f"below ~{epsilon * d_min / (2.0 * R):.3g} or separate the constituents"
        )
    return R


# ---------------------------------------------------------------------------
# local holonomy parameters

def holonomy_shifts(spec: CaloronSpec):
    """omega_k for every constituent: omega minus the monopole-sum constants
    eps * gamma_l / (2 |p_l - p_k|) of all other constituents."""
    datum = spec.datum
    pos = spec.positions
    out = []
    for k in range(len(spec.constituents)):
        om = np.array(spec.omega, dtype=float)
        for l, cl in enumerate(spec.constituents):
            if l == k:
                continue
            d = float(np.linalg.norm(pos[l] - pos[k]))
            om = om - spec.epsilon * np.asarray(datum.node_coroot(cl.mu), dtype=float) / (2.0 * d)
        out.append(om)
    return out


# ---------------------------------------------------------------------------
# the defining representation of su(n)
#
# Fields are n x n matrices whose ambient Cartan coordinates are the weights
# e_1, .., e_n of the defining representation: a Cartan vector d acts as
# i diag(d), and the su(2) of a node sits in the (a, b) block with
# i tau_3 -> i diag(e_a - e_b).  This holds for type A only; the other
# series would plug their defining representations in here.

def _su2_block(datum: RootDatum, mu: int) -> Tuple[int, int]:
    """The block (a, b) of node mu's su(2), read off its Cartan diagonal
    tau3 = e_a - e_b, the image of i tau_3."""
    if datum.series != "A":
        raise UnsupportedRepresentationError(
            "field evaluation requires the defining representation of su(n)"
        )
    tau3 = su2_embedding(datum, mu).coroot
    return tau3.index(1), tau3.index(-1)


def _cartan_matrix(diag, block=None, off=None):
    """i diag(d) for real Cartan diagonals d (..., n) as (..., n, n), plus the
    su(2) entries off and -conj(off) at (a, b) and (b, a) of block = (a, b)."""
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[-1]
    out = np.zeros(diag.shape[:-1] + (n, n), dtype=complex)
    out.reshape(diag.shape[:-1] + (n * n,))[..., :: n + 1] = 1j * diag
    if off is not None:
        a, b = block
        out[..., a, b] = off
        out[..., b, a] = -np.conjugate(off)
    return out


def _embed(V, tau3, block, shift=None):
    """An su(2) coefficient vector V (..., 3) of V.(i tau) (batched ok) in
    su(n), with the su(2) block and Cartan diagonal tau3 of a node: the
    Cartan part V_3 tau3 plus the real Cartan diagonal shift, and the (a, b)
    entry V_2 + i V_1."""
    diag = V[..., 2, None] * tau3
    if shift is not None:
        diag = diag + shift
    return _cartan_matrix(diag, block, V[..., 1] + 1j * V[..., 0])


# ---------------------------------------------------------------------------
# fundamental calorons

class FundamentalCaloron(ConnectionSampler):
    """Embedded fundamental caloron of type alpha_mu^vee with holonomy
    parameter omega: rho_mu(BPS caloron + omega'_mu dt) for mu >= 1, the
    embedded rotated monopole for mu = 0, both scattered from the su(2)
    coefficient vectors of `su2.core_fields`."""

    def __init__(self, datum: RootDatum, mu: int, omega, epsilon, center=(0.0, 0.0, 0.0)):
        self.block = _su2_block(datum, mu)
        omega = np.asarray([float(c) for c in omega], dtype=float)
        if float(alcove_margin(datum, omega)) <= 0:
            raise HolonomyParameterError("omega must lie in the open alcove interior")
        self.datum = datum
        self.mu = int(mu)
        self.epsilon = float(epsilon)
        self.center = np.asarray(center, dtype=float)
        self.tau3 = np.asarray(su2_embedding(datum, mu).coroot, dtype=float)  # the image of i tau_3
        node = np.asarray(datum.node_root(mu), dtype=float)
        coroot = np.asarray(datum.node_coroot(mu), dtype=float)
        a_omega = float(node @ omega)
        self.omega = omega
        self.omega_prime = omega - 0.5 * a_omega * coroot
        self.su2_parameter = (-0.5 if mu == 0 else 0.5) * a_omega
        if not 0.0 < self.su2_parameter < 0.5:
            raise HolonomyParameterError(
                f"su(2) holonomy parameter {self.su2_parameter} outside (0, 1/2)"
            )
        self.v = (0.5 - self.su2_parameter if mu == 0 else self.su2_parameter) / self.epsilon
        self.n = datum.ambient_dim
        self.charge_matrix = _cartan_matrix(coroot)

    def evaluate(self, x, t, chart=None):
        A, Phi = core_fields(x - self.center, self.v, t if self.mu == 0 else None, self.epsilon)
        return _embed(A, self.tau3, self.block), _embed(Phi, self.tau3, self.block, self.omega_prime / self.epsilon)

    def exact_curvature(self, x, t):
        """The embedded su(2) curvature; the constant Cartan part of Phi
        commutes with the embedded su(2) and adds nothing."""
        E = _embed(core_curvature(np.asarray(x, float) - self.center, self.v, t if self.mu == 0 else None),
                   self.tau3, self.block)
        return E, E.copy()


# ---------------------------------------------------------------------------
# singular abelian caloron

def _patch_mask(rel_z):
    """Patch choice per monopole: north where the point is not below it."""
    return rel_z < 0.0


class SingularCaloron(ConnectionSampler):
    """Cartan-valued caloron: superposition of Dirac monopoles at the
    constituent positions plus the constant omega/eps.  Its fields are
    accumulated as real Cartan diagonals and written as matrices once."""

    def __init__(self, spec: CaloronSpec):
        _su2_block(spec.datum, 0)  # its Cartan diagonals are weights of the defining representation
        self.spec = spec
        self.datum = spec.datum
        self.epsilon = float(spec.epsilon)
        self.n = self.datum.ambient_dim
        self.positions = spec.positions
        self.coroots = np.array([self.datum.node_coroot(c.mu) for c in spec.constituents], dtype=float)
        self.omega = np.asarray(spec.omega, dtype=float)
        self.charge_matrix = _cartan_matrix(spec.charge_vector())

    def chart(self, x, t=None):
        x = np.asarray(x, dtype=float)
        code = np.zeros(x.shape[:-1], dtype=np.int64)
        for k in range(len(self.positions)):
            south = _patch_mask(x[..., 2] - self.positions[k][2])
            code |= south.astype(np.int64) << k
        return code

    def evaluate(self, x, t, chart=None):
        x = np.asarray(x, dtype=float)
        if chart is None:
            chart = self.chart(x)
        chart = np.asarray(chart)
        shape = x.shape[:-1]
        A = np.zeros(shape + (3, self.n))
        Phi = np.broadcast_to(self.omega / self.epsilon, shape + (self.n,)).copy()
        for k, p in enumerate(self.positions):
            rel = x - p
            r = np.linalg.norm(rel, axis=-1)
            if np.any(r == 0.0):
                raise SingularPointError("evaluation at a constituent position")
            south = ((chart >> k) & 1).astype(bool)
            A += dirac_potential(rel, south)[..., :, None] * self.coroots[k]
            Phi -= self.coroots[k] / (2.0 * r)[..., None]
        return _cartan_matrix(A), _cartan_matrix(Phi)

    def field_strength_diagonal(self, x):
        """Cartan diagonal (..., 3, n) of B = sum_k gamma_k (x-p_k) / (2 |x-p_k|^3)."""
        x = np.asarray(x, dtype=float)
        B = np.zeros(x.shape[:-1] + (3, self.n))
        for k, p in enumerate(self.positions):
            rel = x - p
            r = np.linalg.norm(rel, axis=-1)
            B += (rel / (2.0 * r**3)[..., None])[..., :, None] * self.coroots[k]
        return B

    def exact_curvature(self, x, t):
        """Closed-form E = B, the Dirac field strengths."""
        E = _cartan_matrix(self.field_strength_diagonal(x))
        return E, E.copy()


# ---------------------------------------------------------------------------
# the glued approximate caloron

_REGION_CORE = 0
_REGION_ANN_N = 1
_REGION_ANN_S = 2
_PATCH = {_REGION_CORE: None, _REGION_ANN_N: "N", _REGION_ANN_S: "S"}


class ApproximateCaloron(ConnectionSampler):
    """The glued connection: fundamental calorons inside r_k <= R/2, the
    chi-interpolation on the annuli, the singular abelian caloron outside.

    It owns everything the construction derives from its spec: the gluing
    radius R, the local holonomy parameters omega_shifts, the singular
    background and the fundamental calorons (`locals`, whose masses v set
    the core scales 1/(2v)); the diagnostics read them from here."""

    def __init__(self, spec: CaloronSpec):
        self.spec = spec
        self.datum = spec.datum
        self.epsilon = float(spec.epsilon)
        self.n = self.datum.ambient_dim
        self.R = gluing_radius(spec.epsilon, spec.gluing_c, d_min=spec.d_min)
        self.profile = GluingProfile(self.R)
        self.positions = spec.positions
        self.singular = SingularCaloron(spec)
        self.charge_matrix = self.singular.charge_matrix
        self.omega_shifts = holonomy_shifts(spec)

        self.locals: List[FundamentalCaloron] = []
        for k, c in enumerate(spec.constituents):
            om_k = self.omega_shifts[k]
            if float(alcove_margin(self.datum, om_k)) <= 0:
                raise GluingInfeasibleError(
                    f"local holonomy parameter of constituent {k} left the alcove; "
                    "decrease epsilon or increase the separations"
                )
            self.locals.append(
                FundamentalCaloron(self.datum, c.mu, om_k, self.epsilon, c.position)
            )

        # per-(k,l) patch for the spectator monopole l seen from annulus k
        z = self.positions[:, 2]
        self._spect_patch = _patch_mask(z[:, None] - z[None, :])

    # -- charts --------------------------------------------------------------

    def _radii(self, x):
        x = np.asarray(x, dtype=float)
        rel = x[..., None, :] - self.positions
        return np.linalg.norm(rel, axis=-1)

    def chart(self, x, t=None):
        x = np.asarray(x, dtype=float)
        r = self._radii(x)
        kmin = np.argmin(r, axis=-1)
        rmin = np.take_along_axis(r, kmin[..., None], axis=-1)[..., 0]
        code = np.empty(x.shape[:-1], dtype=np.int64)
        far = rmin > self.R
        code[far] = -(self.singular.chart(x)[far] + 1)
        core = rmin <= 0.5 * self.R
        code[core] = kmin[core] * 4 + _REGION_CORE + 1
        ann = (~far) & (~core)
        if np.any(ann):
            zrel_all = x[..., 2, None] - self.positions[:, 2]
            zrel = np.take_along_axis(zrel_all, kmin[..., None], axis=-1)[..., 0]
            kind = np.where(_patch_mask(zrel), _REGION_ANN_S, _REGION_ANN_N)
            code[ann] = kmin[ann] * 4 + kind[ann] + 1
        return code

    def _by_chart(self, chart):
        """Decode a batch of chart codes: (mask, k, patch) per code present.
        Off every gluing ball k is None and patch the singular caloron's
        chart code; on core k patch is None, on annulus k "N" or "S"."""
        codes = np.sort(chart, axis=None)  # np.unique would import numpy.ma (13 ms)
        for code in np.concatenate([codes[:1], codes[1:][codes[1:] != codes[:-1]]]):
            if code < 0:
                yield chart == code, None, int(-code - 1)
            else:
                k, kind = divmod(int(code) - 1, 4)
                yield chart == code, k, _PATCH[kind]

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x, t, chart=None):
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
        if chart is None:
            chart = self.chart(x)
        chart = np.broadcast_to(np.asarray(chart), x.shape[:-1])
        A = np.zeros(x.shape[:-1] + (3, self.n, self.n), dtype=complex)
        Phi = np.zeros(x.shape[:-1] + (self.n, self.n), dtype=complex)
        for sel, k, patch in self._by_chart(chart):
            xs, ts = x[sel], t[sel]
            if k is None:
                A[sel], Phi[sel] = self.singular.evaluate(xs, ts, np.full(len(xs), patch))
            elif patch is None:
                A[sel], Phi[sel] = self.locals[k].evaluate(xs, ts)
            else:
                A[sel], Phi[sel] = self.annulus_fields(k, patch, xs, ts)
        return A, Phi

    def annulus_parts(self, k, patch, xs, ts):
        """Constituents of the annulus gauge at points xs, none of them an
        n x n matrix: the abelian model and the abelian remainder s of the
        spectator monopoles as real Cartan diagonals, (A (..., 3, n), Phi
        (..., n)); the framed fundamental remainder b as (the (a, b) entries
        (..., 3) of b_A in the su(2) block, the diagonal of b_Phi); the framed
        fundamental curvature F as (diagonal, (a, b) entries).  The su(2)
        pieces are `string_gauge_fields`, with the phase frame
        psi = exp(phase/2 embed(i tau_3))."""
        spec = self.spec
        cst = spec.constituents[k]
        fund = self.locals[k]
        coroots = self.singular.coroots
        rel = xs - self.positions[k]
        r = np.linalg.norm(rel, axis=-1)

        model_A = dirac_potential(rel, patch)[..., :, None] * coroots[k]
        model_P = self.omega_shifts[k] / self.epsilon - coroots[k] / (2.0 * r)[..., None]
        zA, hP, hF, zF = string_gauge_fields(
            rel, fund.v, patch, ts if cst.mu == 0 else None, cst.phase
        )

        sA = np.zeros_like(model_A)
        sP = np.zeros_like(model_P)
        for l in range(len(spec.constituents)):
            if l == k:
                continue
            pl = self.positions[l]
            d_kl = float(np.linalg.norm(self.positions[k] - pl))
            south = self._spect_patch[k, l]
            coeff = dirac_potential(xs - pl, south) - dirac_potential(self.positions[k] - pl, south)
            sA += coeff[..., :, None] * coroots[l]
            rl = np.linalg.norm(xs - pl, axis=-1)
            sP += (1.0 / (2.0 * d_kl) - 1.0 / (2.0 * rl))[..., None] * coroots[l]

        return {
            "r": r,
            "chi": self.profile.chi(r),
            "model": (model_A, model_P),
            "b": (zA, hP[..., None] * fund.tau3),
            "s": (sA, sP),
            "F": (hF[..., None] * fund.tau3, zF),
        }

    def annulus_fields(self, k, patch, xs, ts):
        """(A, Phi) on annulus k in its patch "N" or "S": model + chi b + (1 - chi) s."""
        parts = self.annulus_parts(k, patch, xs, ts)
        chi = parts["chi"][..., None]
        (model_A, model_P), (zA, bP), (sA, sP) = parts["model"], parts["b"], parts["s"]
        A = _cartan_matrix(model_A + (1.0 - chi)[..., None] * sA, self.locals[k].block, chi * zA)
        return A, _cartan_matrix(model_P + chi * bP + (1.0 - chi) * sP)

    def _annulus_curvature(self, k, patch, xs, ts):
        """Closed form on annulus k.  With c = b - s the connection is
        (M + s) + chi c, where M + s has the singular curvature and M + b is
        the framed fundamental caloron, so

            F = (1 - chi) F_sing + chi F_fund + dchi ^ c - chi (1 - chi) c ^ c,

        with F_fund from `annulus_parts`, (c ^ c)_{mu nu} = [c_mu, c_nu] and
        c_t = eps c_Phi.  Every piece is a Cartan diagonal plus an (a, b)
        entry z of the su(2) block, so with Delta(d) = d_b - d_a the
        brackets are [z, d] = i z Delta(d) and [z_j, z_k] = -2 Im(z_j conj z_k) i tau_3."""
        fund = self.locals[k]
        a, b = fund.block
        parts = self.annulus_parts(k, patch, xs, ts)
        rel, r, chi = xs - self.positions[k], parts["r"], parts["chi"]
        mix = (chi * (1.0 - chi))[:, None]
        (z, bP), (sA, sP) = parts["b"], parts["s"]
        cA, cP = -sA, bP - sP  # c = b - s: diagonals, and z the (a, b) entries of c_A
        fdiag, foff = parts["F"]
        Fd = (1.0 - chi)[:, None, None] * self.singular.field_strength_diagonal(xs) + chi[:, None, None] * fdiag
        Fz = chi[:, None] * foff
        dchi = (self.profile.chi_prime(r) / r)[:, None] * rel
        E = _cartan_matrix(Fd + dchi[..., None] * cP[:, None], (a, b), Fz - 1j * mix * z * (cP[:, b] - cP[:, a])[:, None])
        j, k = [1, 2, 0], [2, 0, 1]  # B_i = F_jk, (i, j, k) cyclic
        dA = cA[..., b] - cA[..., a]
        zz = (2.0 * mix * (z[:, j] * np.conjugate(z[:, k])).imag)[..., None] * fund.tau3
        B = _cartan_matrix(
            Fd + dchi[:, j, None] * cA[:, k] - dchi[:, k, None] * cA[:, j] + zz,
            (a, b),
            Fz + dchi[:, j] * z[:, k] - dchi[:, k] * z[:, j] - 1j * mix * (z[:, j] * dA[:, k] - z[:, k] * dA[:, j]),
        )
        return E, B

    def exact_curvature(self, x, t):
        """Closed-form curvature per chart: the fundamental caloron on the
        cores (r_k <= R/2), the interpolation formula on the gluing annuli,
        the abelian superposition where every r_k > R."""
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
        E = np.zeros(x.shape[:-1] + (3, self.n, self.n), dtype=complex)
        B = np.zeros_like(E)
        for sel, k, patch in self._by_chart(self.chart(x)):
            xs, ts = x[sel], t[sel]
            if k is None:
                E[sel], B[sel] = self.singular.exact_curvature(xs, ts)
            elif patch is None:
                E[sel], B[sel] = self.locals[k].exact_curvature(xs, ts)
            else:
                E[sel], B[sel] = self._annulus_curvature(k, patch, xs, ts)
        return E, B


def approximate_caloron(spec: CaloronSpec) -> ApproximateCaloron:
    return ApproximateCaloron(spec)


# ---------------------------------------------------------------------------
# alcove containment certificate

def alcove_exclusion_constant(spec: CaloronSpec) -> float:
    """Constant c with the property that outside the balls of radius c*eps
    the abelian Higgs field stays in a compact subset of the alcove: chosen
    so each single-monopole term eats at most half the asymptotic margin."""
    datum = spec.datum
    sigma_inf = float(alcove_margin(datum, spec.omega))
    pairings = []
    for mu in range(datum.rank + 1):
        for nu in range(datum.rank + 1):
            pairings.append(abs(datum.extended_cartan[mu][nu]))
    return max(pairings) / sigma_inf


def alcove_margin_report(samp: ApproximateCaloron, refine=1):
    """Scan the abelian Higgs field eps*Phi_sing of the glued caloron's
    singular background outside the exclusion balls r_k >= c_excl * eps and
    report the worst facet margin sigma."""
    spec, datum, eps = samp.spec, samp.datum, samp.epsilon
    c_excl = alcove_exclusion_constant(spec)
    r0 = c_excl * eps

    # shells of 8 radii about every constituent, then a coarse background
    # lattice out to the far zone, all in one sampler call
    dirs, _ = sphere_rule(6 * refine, 10 * refine)
    radii_factors = np.array([1.0, 1.25, 1.6, 2.2, 3.5, 6.0, 12.0, 30.0])
    shells = (spec.positions[:, None, None, :] + (r0 * radii_factors)[:, None, None] * dirs).reshape(-1, 3)
    grid = np.linspace(-spec.d_max_eff * 3.0, spec.d_max_eff * 3.0, 7 * refine)
    lattice = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    ok = [np.all(np.linalg.norm(pts[:, None, :] - spec.positions, axis=-1) >= r_min, axis=-1)
          for pts, r_min in ((shells, r0 * 0.999999), (lattice, r0))]
    _, Phi = samp.singular(np.concatenate([shells[ok[0]], lattice[ok[1]]]), 0.0)
    h = np.diagonal(eps * Phi, axis1=-2, axis2=-1).imag
    margins = [h @ np.asarray(a, dtype=float) for a in datum.simple_roots]
    margins.append(1.0 + h @ np.asarray(datum.lowest_root, dtype=float))
    worst = float(np.min(np.stack(margins, axis=-1)))
    return {"sigma": worst, "c_exclusion": c_excl, "r_exclusion": r0}
