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

Every value is a `samplers.Field` in root coordinates: core and annulus k
carry the su(2) of the root s `node_root(mu_k)` (s = -1 at mu_k = 0: the
highest root), the exterior none, so one code path serves every simple type.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    CaloronError,
    GluingInfeasibleError,
    HolonomyParameterError,
    InputError,
    SingularPointError,
)
from .fieldcalc import _core_shell, _core_step, _flux_radius, _flux_step, coroot_fit
from .indexes import energy_formula
from .quadrature import _smoothstep, _smoothstep_prime, blockwise, sphere_rule
from .rootsys import RootDatum, alcove_margin, ambient_dim, build_root_datum, reassemble_charge
from .samplers import ConnectionSampler, Field, charge_sum, su2_field
from .su2 import _distances, _r_of, _relative, core_curvature, core_fields, dirac_sum, string_gauge_fields


# ---------------------------------------------------------------------------
# spec objects

@dataclass(frozen=True)
class Constituent:
    mu: int
    position: Tuple[float, float, float]
    phase: float = 0.0


def _finite(value, what) -> float:
    """A real number (not a bool, not a string) as a finite float, else InputError."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:
        raise InputError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise InputError(f"{what} must be finite, got {value!r}")
    return out


def _integer(value, what) -> int:
    """value as an int when it is integral (2 or 2.0), else InputError."""
    out = _finite(value, what)
    if not out.is_integer():
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


def mass_parameter(datum: RootDatum, mu: int, omega) -> float:
    """omega' = eps v of a node-mu constituent at holonomy omega, whose framed
    remainder decays like exp(-2 omega' r / eps): f_mu(omega)/2 for the facet
    value f_mu = delta_mu0 + alpha_mu (`RootDatum.facet`), rounded once."""
    return float(datum.facet(mu, omega)) / 2


@dataclass
class CaloronSpec:
    """Full input of the gluing construction; the gluing constant c
    defaults to the least omega'_k of the constituents (`masses`)."""

    epsilon: float
    series: str
    rank: int
    omega: Tuple[float, ...]
    constituents: Tuple[Constituent, ...]
    gluing_c: Optional[float] = None

    def __post_init__(self):
        self.series = self.series.upper()
        self.rank = _integer(self.rank, "rank")
        self.epsilon = _finite(self.epsilon, "epsilon")
        if self.gluing_c is not None:
            self.gluing_c = _finite(self.gluing_c, "gluing constant c")
        self.omega = tuple(_finite(c, "omega coordinate") for c in self.omega)
        self.constituents = tuple(_checked_constituent(c) for c in self.constituents)
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if self.gluing_c is not None and self.gluing_c <= 0:
            raise InputError("gluing constant c must be positive")
        if not self.constituents:
            raise InputError("a caloron spec needs at least one constituent")
        dim = ambient_dim(self.series, self.rank)  # before the datum, whose size follows the rank
        if len(self.omega) != dim:
            raise InputError(f"omega must have {dim} ambient coordinates for {self.series}{self.rank}")
        datum = self.datum
        # omega is its orthogonal projection on the span of the simple roots (type A: sum zero)
        omega = np.asarray(self.omega)
        off_span = float(np.max(np.abs(omega - coroot_fit(datum, omega)[1])))
        if off_span > 1e-9:
            raise InputError(f"omega must lie in the span of the simple roots (off by {off_span:.3g})")
        margin = alcove_margin(datum, self.omega)  # exact: far off the alcove its float overflows
        if margin <= 0:
            shown = f"{float(margin):.3g}" if margin > -1e300 else "below -1e300"
            raise HolonomyParameterError(f"omega lies outside the open fundamental alcove (margin {shown})")
        for c in self.constituents:
            if not 0 <= c.mu <= self.rank:
                raise InputError(f"constituent type mu={c.mu} out of range 0..{self.rank}")
        if self.gluing_c is None:
            self.gluing_c = min(self.masses())
        if self.d_min == 0.0:
            raise InputError("constituent positions must be distinct")
        # verify's FD steps at the cores and on the flux sphere must be resolved
        # to 1e-6 at that sphere's radius, taken for d_max >= 1 (this bounds r^3 too)
        R = gluing_radius(self.epsilon, self.gluing_c)
        radius = _flux_radius(max(max(math.hypot(*c.position) for c in self.constituents), 1.0), R)
        step = min(_core_step(self.epsilon), _flux_step(radius))
        if not math.ulp(radius) <= 1e-6 * step:
            raise InputError(f"constituent positions too large: the float spacing at |x| = {radius:.3g} "
                             f"does not resolve the finite-difference step {step:.3g} to 1e-6")

    @property
    def datum(self) -> RootDatum:
        return build_root_datum(self.series, self.rank)

    @property
    def positions(self):
        return np.array([c.position for c in self.constituents], dtype=float)

    @property
    def d_min(self):
        pos = [c.position for c in self.constituents]
        return min((math.dist(p, q) for i, p in enumerate(pos) for q in pos[i + 1 :]), default=math.inf)

    @property
    def d_max(self):
        return float(np.max(np.linalg.norm(self.positions, axis=1)))  # __post_init__ ensures a constituent

    @property
    def d_max_eff(self):
        return max(self.d_max, 1.0)

    def masses(self):
        """omega'_k of each constituent at omega (`mass_parameter`)."""
        return [mass_parameter(self.datum, c.mu, self.omega) for c in self.constituents]

    def counts(self) -> Tuple[int, ...]:
        """(n_0, .., n_rk): number of constituents of each type."""
        n = [0] * (self.rank + 1)
        for c in self.constituents:
            n[c.mu] += 1
        return tuple(n)

    def charge_coefficients(self) -> Tuple[int, ...]:
        """gamma_m coefficients over the simple coroots."""
        return reassemble_charge(self.datum, self.counts())[0]

    def energy_formula(self) -> float:
        """Closed-form Yang-Mills energy of the charge data, evaluated exactly
        by `indexes.energy_formula` and rounded once to a float."""
        return float(energy_formula(self.datum, self.omega, self.counts()))

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
                gluing_c=payload.get("gluing", {}).get("c"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed caloron spec: missing/bad field {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError, too many digits, or too deep
            raise InputError(f"malformed JSON: {exc}") from exc
        return cls.from_dict(payload)


@dataclass(frozen=True)
class GluingProfile:
    """Cutoff profile: chi = 1 on [0, R/2], 0 on [R, inf), quintic between."""

    R: float

    def chi(self, r):
        return 1.0 - _smoothstep(2.0 * np.asarray(r, dtype=float) / self.R - 1.0)

    def chi_prime(self, r):
        return -2.0 / self.R * _smoothstep_prime(2.0 * np.asarray(r, dtype=float) / self.R - 1.0)


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
    """omega_k for every constituent, the rows (N, n): omega minus the
    monopole-sum constants eps * gamma_l / (2 |p_l - p_k|) of all other
    constituents."""
    d = _distances(spec.positions, spec.positions)
    np.fill_diagonal(d, np.inf)
    coroots = np.array([spec.datum.node_coroot(c.mu) for c in spec.constituents], dtype=float)
    return np.asarray(spec.omega, dtype=float) - spec.epsilon * charge_sum(0.5 / d, coroots)


# ---------------------------------------------------------------------------
# fundamental calorons

class FundamentalCaloron(ConnectionSampler):
    """Embedded fundamental caloron of type alpha_mu^vee with holonomy
    parameter omega: rho_mu(BPS caloron + omega'_mu dt) for mu >= 1, the
    embedded rotated monopole for mu = 0, both scattered from the su(2)
    coefficient vectors of `su2.core_fields` into the su(2) of the root
    `root` = s alpha_mu, whose i tau_3 is `coroot` = s alpha_mu^vee (s = -1
    at mu = 0: the highest root theta = -alpha_0).  One pass over the facet
    values f_nu(omega) (`RootDatum.facet`, exact for an exact omega) checks
    that omega lies in the open alcove and gives omega' = f_mu/2
    (`mass_parameter`), hence v = omega'/eps and the holonomy parameter
    lambda = root(omega)/2 (omega', or 1/2 - omega' at mu = 0); `omega_prime`
    = omega - lambda coroot is the Cartan part that root annihilates."""

    def __init__(self, datum: RootDatum, mu: int, omega, epsilon, center=(0.0, 0.0, 0.0)):
        node_root, node_coroot = datum.node_root(mu), datum.node_coroot(mu)
        s = -1 if mu == 0 else 1  # exact, so no -0.0 enters the float vectors
        self.root, self.coroot = (np.array([s * c for c in v], dtype=float) for v in (node_root, node_coroot))
        facets = [datum.facet(nu, omega) for nu in range(datum.rank + 1)]
        if min(facets) <= 0:
            raise HolonomyParameterError("omega must lie in the open alcove interior")
        self.datum = datum
        self.mu = int(mu)
        self.epsilon = float(epsilon)
        self.center = np.asarray(center, dtype=float)
        self.omega = np.asarray([float(c) for c in omega], dtype=float)
        mass = float(facets[mu]) / 2
        self.su2_parameter = 0.5 - mass if mu == 0 else mass
        if not 0.0 < self.su2_parameter < 0.5:
            raise HolonomyParameterError(
                f"su(2) holonomy parameter {self.su2_parameter} outside (0, 1/2)"
            )
        self.omega_prime = self.omega - self.su2_parameter * self.coroot
        self.v = mass / self.epsilon
        self.n = datum.ambient_dim
        self.killing_scale, self.charge = float(datum.killing_scale), np.asarray(node_coroot, dtype=float)

    def evaluate(self, x, t, chart=None):
        A, Phi = core_fields(x - self.center, self.v, t if self.mu == 0 else None, self.epsilon)
        return su2_field(A, self.root), su2_field(Phi, self.root, self.omega_prime / self.epsilon)

    def exact_curvature(self, x, t):
        """The embedded su(2) curvature; the constant Cartan part of Phi
        commutes with the embedded su(2) and adds nothing."""
        E = su2_field(core_curvature(np.asarray(x, float) - self.center, self.v, t if self.mu == 0 else None),
                      self.root)
        return E, E


# ---------------------------------------------------------------------------
# singular abelian caloron

def _patch_mask(rel_z):
    """Patch choice per monopole: north where the point is not below it."""
    return rel_z < 0.0


class SingularCaloron(ConnectionSampler):
    """Cartan-valued caloron: superposition of Dirac monopoles at the
    constituent positions plus the constant omega/eps, as real Cartan
    diagonals with no su(2) entry, summed over an axis of constituents."""

    def __init__(self, spec: CaloronSpec):
        self.spec = spec
        self.datum = spec.datum
        self.epsilon = float(spec.epsilon)
        self.n = self.datum.ambient_dim
        self.positions = spec.positions
        self.coroots = np.array([self.datum.node_coroot(c.mu) for c in spec.constituents], dtype=float)
        self.omega = np.asarray(spec.omega, dtype=float)
        self.killing_scale, self.charge = float(self.datum.killing_scale), np.sum(self.coroots, axis=0)
        self.root = np.zeros(self.n)  # no su(2)
        self._z = np.array(sorted(self.positions[:, 2]) + [np.inf])  # ascending, then a sentinel

    def chart(self, x, t=None):
        """The number c of monopoles above the point, which take their south patch
        (`_patch_mask`): those with z_k at or above the c-th highest."""
        return len(self.positions) - np.searchsorted(self._z, np.asarray(x, dtype=float)[..., 2], side="right")

    def evaluate(self, x, t, chart=None):
        x = np.asarray(x, dtype=float)
        r = _distances(x, self.positions)
        Phi = self.higgs(x, t, r=r)  # first: it rejects the constituent positions
        above = np.asarray(self.chart(x) if chart is None else chart)
        south = self.positions[:, 2] >= self._z[len(self.positions) - above][..., None]
        A = dirac_sum(x, self.positions, self.coroots, south, r)
        return Field(A, np.zeros(A.shape[:-1], dtype=complex)), Phi

    def higgs(self, x, t, chart=None, r=None):
        """Phi, from the distances r = |x - p_k| (..., N) when given."""
        r = _distances(np.asarray(x, dtype=float), self.positions) if r is None else r
        if np.any(r == 0.0):
            raise SingularPointError("evaluation at a constituent position")
        Phi = self.omega / self.epsilon - charge_sum(0.5 / r, self.coroots)
        return Field(Phi, np.zeros(Phi.shape[:-1], dtype=complex))

    def field_strength_diagonal(self, x):
        """Cartan diagonal (..., 3, n) of B = sum_k gamma_k (x-p_k) / (2 |x-p_k|^3), by coordinates."""
        x = np.asarray(x, dtype=float)
        den = 2.0 * _distances(x, self.positions) ** 3
        B, rel = np.empty(x.shape[:-1] + (3, self.n)), np.empty_like(den)
        for i in range(3):
            charge_sum(np.divide(_relative(x, self.positions, i, rel), den, out=rel), self.coroots, out=B[..., i, :])
        return B

    def exact_curvature(self, x, t):
        """Closed-form E = B, the Dirac field strengths."""
        E = Field(self.field_strength_diagonal(x), np.zeros(np.shape(x)[:-1] + (3,), dtype=complex))
        return E, E


# ---------------------------------------------------------------------------
# the glued approximate caloron

_PATCH = (None, "N", "S")  # by region kind: core, north and south annulus


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
        r_min, r_max = _core_shell(self.epsilon, self.R)
        if not r_min < r_max:
            raise GluingInfeasibleError(f"gluing radius R={self.R:.4g} leaves the self-dual error's core shells "
                                        f"[{r_min:.4g}, {r_max:.4g}] empty: decrease epsilon or the gluing constant c")
        masses = spec.masses()  # c <= 2 omega'_k: no framed remainder outlasts the glue error
        k = int(np.argmin(masses))
        if spec.gluing_c > 2.0 * masses[k]:
            raise GluingInfeasibleError(f"gluing constant c={spec.gluing_c:.6g} exceeds 2 omega' = {2.0 * masses[k]:.6g} "
                                        f"of constituent {k} (mu={spec.constituents[k].mu}): take c <= {2.0 * masses[k]:.6g}")
        self.profile = GluingProfile(self.R)
        self.positions = spec.positions
        self.singular = SingularCaloron(spec)
        self.killing_scale, self.charge = self.singular.killing_scale, self.singular.charge
        self.omega_shifts = holonomy_shifts(spec)

        self.locals: List[FundamentalCaloron] = []
        for k, c in enumerate(spec.constituents):
            try:
                self.locals.append(FundamentalCaloron(self.datum, c.mu, self.omega_shifts[k], self.epsilon, c.position))
            except HolonomyParameterError as exc:
                raise GluingInfeasibleError(f"local holonomy parameter of constituent {k} left the alcove; "
                                            "decrease epsilon or increase the separations") from exc

        self._roots = np.stack([f.root for f in self.locals] + [self.singular.root])  # by chart (`block`)
        self._spect_patch = _patch_mask(self.positions[:, 2, None] - self.positions[:, 2])  # [k, l]: l seen from k
        self._spectators = []  # per k: the others' p_l, gamma_l, patches and their terms at p_k
        for k, pk in enumerate(self.positions):
            spect = np.arange(len(self.positions)) != k
            pl, gl, south = self.positions[spect], self.singular.coroots[spect], self._spect_patch[k][spect]
            rk = _distances(pk, pl)
            self._spectators.append((pl, gl, south, dirac_sum(pk, pl, gl, south, rk), 0.5 / rk))

    # -- charts --------------------------------------------------------------

    def chart(self, x, t=None):
        """4 k + kind + 1 on core or annulus k (`_PATCH`), -(singular chart + 1) off every gluing ball."""
        x = np.asarray(x, dtype=float)
        r = _distances(x, self.positions)
        kmin = np.argmin(r, axis=-1)
        rmin = np.take_along_axis(r, kmin[..., None], axis=-1)[..., 0]
        kind = np.where(rmin <= 0.5 * self.R, 0, np.where(_patch_mask(x[..., 2] - self.positions[kmin, 2]), 2, 1))
        return np.where(rmin > self.R, -(self.singular.chart(x) + 1), 4 * kmin + kind + 1)

    def block(self, chart):
        """Constituent k's root on core and annulus k, 0 off the gluing balls."""
        chart = np.asarray(chart)
        return self._roots[np.where(chart < 0, -1, (chart - 1) // 4)]

    # -- evaluation ----------------------------------------------------------

    def _gather(self, x, t, chart, fields):
        """fields(xs, ts, k, patch), a tuple of Fields or per-point arrays, of each
        chart's points, gathered over the batch: off every gluing ball k is None
        and patch the singular caloron's chart codes, on core k patch is None,
        on annulus k "N" or "S".  A group that covers the batch is the result;
        any other is written into its rows as soon as it is computed."""
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1]
        t = np.broadcast_to(np.asarray(t, dtype=float), shape)
        chart = np.broadcast_to(np.asarray(self.chart(x) if chart is None else chart), shape)
        # ascending; no np.unique (it imports numpy.ma, 13 ms) nor np.sort (0.44 MB of SIMD sort code)
        codes = (np.flatnonzero(np.bincount(np.maximum(chart, -1).ravel() + 1)) - 1).tolist() or [-1]  # empty: one group
        out = None
        for code in codes:
            sel = ... if len(codes) == 1 else (chart < 0 if code < 0 else chart == code)
            k, kind = divmod(code - 1, 4)
            got = fields(x[sel], t[sel], *((None, -chart[sel] - 1) if code < 0 else (k, _PATCH[kind])))
            if sel is Ellipsis:
                return got
            if out is None:  # the batch's shape, filled with this group's first row until each group writes its own
                out = tuple(g[np.zeros(shape, dtype=int)] for g in got)
            for o, g in zip(out, got):
                o[sel] = g
            del got, g  # before the next group is computed
        return out

    def _chart_fields(self, xs, ts, k, patch):
        if k is None:
            return self.singular.evaluate(xs, ts, patch)
        if patch is None:
            return self.locals[k].evaluate(xs, ts)
        return self.annulus_fields(k, patch, xs, ts)

    def evaluate(self, x, t, chart=None):
        return self._gather(x, t, chart, self._chart_fields)

    def higgs(self, x, t, chart=None):
        """Phi alone; off the gluing balls no A is evaluated."""
        def phi(xs, ts, k, patch):
            return [self.singular.higgs(xs, ts) if k is None else self._chart_fields(xs, ts, k, patch)[1]]
        return self._gather(x, t, chart, phi)[0]

    def annulus_parts(self, k, patch, xs, ts):
        """The annulus gauge beyond its abelian model at points xs: (r, b, s, F),
        r = |xs - p_k|, the framed fundamental remainder b = (g_alpha
        coordinates (..., 3) of b_A, i tau_3 coefficient of b_Phi), the
        spectators' abelian remainder s = (A (..., 3, n), Phi (..., n)) as real
        Cartan vectors, the framed fundamental curvature F = (i tau_3
        coefficients, g_alpha coordinates) (..., 3), for constituent k's root
        alpha and coordinates scaled as in `su2_field`.  The su(2) pieces are
        `string_gauge_fields` in the phase frame psi = exp(phase/2 embed(i tau_3))."""
        cst, rel = self.spec.constituents[k], xs - self.positions[k]
        zA, hP, hF, zF = string_gauge_fields(rel, self.locals[k].v, patch, ts if cst.mu == 0 else None, cst.phase)
        for z in (zA, zF):  # the g_alpha coordinates of `su2_field`, in place
            z *= math.sqrt(2.0 / float(np.sum(self.locals[k].root ** 2)))
        # the spectators l != k, each in its patch seen from p_k, on an axis
        pl, gl, south, a_k, h_k = self._spectators[k]
        r = _distances(xs, pl)
        sA = dirac_sum(xs, pl, gl, south, r) - a_k
        sP = charge_sum(h_k - 0.5 / r, gl)
        return _r_of(rel), (zA, hP), (sA, sP), (hF, zF)

    def annulus_fields(self, k, patch, xs, ts):
        """(A, Phi) on annulus k in its patch "N" or "S": model + chi b + (1 - chi) s,
        the abelian model being the Dirac potential and omega_k/eps - gamma_k/2r."""
        gamma, coroot = self.singular.coroots[k], self.locals[k].coroot
        r, (zA, hP), (sA, sP), _ = self.annulus_parts(k, patch, xs, ts)
        chi = self.profile.chi(r)
        sA *= (1.0 - chi)[..., None, None]
        sA += dirac_sum(xs, self.positions[k, None], gamma[None], np.full(r.shape + (1,), patch == "S"), r[..., None])
        zA *= chi[..., None]
        Phi = (self.omega_shifts[k] / self.epsilon - gamma / (2.0 * r)[..., None] + (chi * hP)[..., None] * coroot
               + (1.0 - chi)[..., None] * sP)
        return Field(sA, zA), Field(Phi, np.zeros(r.shape, dtype=complex))

    def _annulus_curvature(self, k, patch, xs, ts):
        """Closed form on annulus k.  With c = b - s the connection is
        (M + s) + chi c, where M + s has the singular curvature and M + b is
        the framed fundamental caloron, so

            F = (1 - chi) F_sing + chi F_fund + dchi ^ c - chi (1 - chi) c ^ c,

        with F_fund from `annulus_parts`, (c ^ c)_{mu nu} = [c_mu, c_nu]
        (`samplers.bracket`, written out for c_A = (-s_A, z) and the Cartan
        c_Phi, in constituent k's root alpha) and c_t = eps c_Phi, built in place."""
        root, coroot = self.locals[k].root, self.locals[k].coroot
        r, (z, hP), (sA, sP), (hF, zF) = self.annulus_parts(k, patch, xs, ts)
        chi = self.profile.chi(r)
        mix = (chi * (1.0 - chi))[..., None]
        dchi = (xs - self.positions[k]) * (self.profile.chi_prime(r) / r)[..., None]
        B = self.singular.field_strength_diagonal(xs)  # F: B's diagonal, zF its su(2) entries
        B *= (1.0 - chi)[..., None, None]
        B += (chi[..., None] * hF)[..., None] * coroot
        zF *= chi[..., None]
        cP = hP[..., None] * coroot - sP
        delta_P = -np.sum(cP * root, axis=-1)[..., None]  # Delta(c_Phi), Delta(d) = -alpha(d)
        E = Field(B + dchi[..., None] * cP[..., None, :], zF - mix * (1j * (z * delta_P)))
        j, k = [1, 2, 0], [2, 0, 1]  # B_i = F_jk, (i, j, k) cyclic
        delta = np.sum(sA * root, axis=-1)  # -Delta(c_A,i)
        for i in range(3):
            B[..., i, :] -= dchi[..., j[i], None] * sA[..., k[i], :]
            B[..., i, :] += dchi[..., k[i], None] * sA[..., j[i], :]
        B -= (-2.0 * mix * (z[..., j] * np.conjugate(z[..., k])).imag)[..., None] * root
        zF += dchi[..., j] * z[..., k]
        zF -= dchi[..., k] * z[..., j]
        zF -= mix * (1j * (z[..., j] * delta[..., k] - z[..., k] * delta[..., j]))
        return E, Field(B, zF)

    def _chart_curvature(self, xs, ts, k, patch):
        if k is None:
            return self.singular.exact_curvature(xs, ts)
        if patch is None:
            return self.locals[k].exact_curvature(xs, ts)
        return self._annulus_curvature(k, patch, xs, ts)

    def exact_curvature(self, x, t):
        """Closed-form curvature per chart: the fundamental caloron on the
        cores (r_k <= R/2), the interpolation formula on the gluing annuli,
        the abelian superposition where every r_k > R."""
        return self._gather(x, t, None, self._chart_curvature)

    def curvature_densities(self, x, t, densities):
        """densities(E, B) chart by chart: no E, B of the whole batch exist."""
        return self._gather(x, t, None, lambda *group: (densities(*self._chart_curvature(*group)),))[0]


def approximate_caloron(spec: CaloronSpec) -> ApproximateCaloron:
    return ApproximateCaloron(spec)


# ---------------------------------------------------------------------------
# alcove containment certificate

def alcove_exclusion_constant(spec: CaloronSpec) -> float:
    """Constant c with the property that outside the balls of radius c*eps
    the abelian Higgs field stays in a compact subset of the alcove: chosen
    so each single-monopole term eats at most half the asymptotic margin."""
    sigma_inf = float(alcove_margin(spec.datum, spec.omega))
    return max(abs(a) for row in spec.datum.extended_cartan for a in row) / sigma_inf


def alcove_margin_report(samp: ApproximateCaloron, refine=1):
    """sigma, the least facet margin of eps*Phi_sing outside the exclusion balls
    |x - p_k| < r0 = c_excl * eps: superharmonic there, it is least on their spheres
    or at infinity.  sigma_certified <= sigma takes h L_k (covering arc times the
    spectators' Lipschitz constant) off sphere k's node minimum; None if two centres lie within r0."""
    spec, datum, eps, positions = samp.spec, samp.datum, samp.epsilon, samp.positions
    c_excl, n_phi = alcove_exclusion_constant(spec), 10 * refine
    r0 = c_excl * eps
    dirs, _ = sphere_rule(6 * refine, n_phi)
    pts = (positions[:, None, :] + r0 * dirs).reshape(-1, 3)
    nodes = range(datum.rank + 1)  # the facets f_mu(h) = f_mu(0) + alpha_mu(h) (`RootDatum.facet`)
    roots = np.array([datum.node_root(mu) for mu in nodes], dtype=float)
    offsets = np.array([datum.facet(mu, (0,) * datum.ambient_dim) for mu in nodes], dtype=float)

    def margins(s):  # per node: its margin, and that margin or, inside another ball, +inf
        r = _distances(pts[s], positions)
        m = np.min(np.einsum("pi,ji->pj", eps * samp.singular.higgs(pts[s], 0.0, r=r).diag, roots) + offsets, axis=-1)
        return np.stack([m, np.where(np.all(r >= r0 * 0.999999, axis=-1), m, np.inf)], axis=-1)
    node = blockwise(margins, len(pts)).reshape(len(positions), -1, 2)
    sigma_inf = float(alcove_margin(datum, spec.omega))
    report = {"sigma": min(float(np.min(node[..., 1])), sigma_inf), "c_exclusion": c_excl, "sigma_certified": None}
    gap = _distances(positions, positions) - r0
    np.fill_diagonal(gap, np.inf)  # a constituent's own term is constant on its sphere
    if np.all(gap > 0.0):
        theta = np.arccos(dirs[::n_phi, 2])
        h = r0 * (max(np.pi - theta[0], theta[-1], float(np.max(np.abs(np.diff(theta)))) / 2.0) + np.pi / n_phi)
        # |alpha_j(gamma_l)|: the integer row mu_l of the extended Cartan matrix
        pull = np.abs(np.array([datum.extended_cartan[c.mu] for c in spec.constituents], dtype=float).T)
        lipschitz = eps * np.max(np.einsum("kl,jl->kj", 0.5 / gap**2, pull), axis=-1)
        report["sigma_certified"] = min(float(np.min(np.min(node[..., 0], axis=-1) - h * lipschitz)), sigma_inf)
    return report
