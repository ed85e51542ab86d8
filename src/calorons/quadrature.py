"""Deterministic quadrature grids for fields on R^3 x S^1.

Product rules: Gauss-Legendre in the radius and in cos(theta), uniform in
phi; the circle coordinate takes one slice (see `fieldcalc._T_SLICE`).
A `Region` is one rule (points and weights); `ball_points` makes the
product of a radial rule about a centre and a direction rule, and every
volume integral is `fieldcalc._integrate` over a list of Regions.
Radial meshes are graded geometrically so that epsilon-size cores and 1/r
tails are both resolved at desk scale.  Accumulation is fixed-order (block
sums combined by math.fsum), and the diagnostics evaluate their points in
bounded blocks (`blockwise`) of per-point values that no blocking changes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, List, NamedTuple

import numpy as np

from .errors import CaloronError

_BLOCK = 4096
_EVAL_BLOCK = _BLOCK  # the most sampler evaluations a diagnostic makes in one call


def block_sum(values, weights=None):
    """Deterministic fixed-order accumulation of weights * values."""
    values = np.asarray(values, dtype=float)
    if weights is not None:
        values = values * np.asarray(weights, dtype=float)
    flat = values.ravel()
    partials = [float(np.sum(flat[i : i + _BLOCK])) for i in range(0, flat.size, _BLOCK)]
    return math.fsum(partials)


def blockwise(f, n, per=1):
    """f(s) over consecutive slices s of range(n), concatenated: f makes per
    sampler evaluations at each point of its slice, at most _EVAL_BLOCK in
    all (one point when per exceeds it), and returns per-point values."""
    step = max(_EVAL_BLOCK // per, 1)
    return np.concatenate([f(slice(i, i + step)) for i in range(0, n, step)])


@functools.cache
def _leggauss(n):
    """GL nodes (ascending) and weights on [-1, 1], computed once per order,
    read-only: Newton's method on P_n, by the three-term recurrence, from
    the guesses cos(pi (k - 1/4) / (n + 1/2)); w = 2 / ((1 - x^2) P_n'(x)^2);
    both made exactly symmetric about 0."""
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = (0.5 * (x - x[::-1]), 0.5 * (w + w[::-1]))
    for a in nodes:
        a.flags.writeable = False
    return nodes


def gauss_legendre(a, b, n):
    """GL nodes and weights on [a, b]."""
    xs, ws = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * xs, half * ws


def graded_radii(r_min, r_max, n_seg, n_per_seg=4):
    """Geometric segmentation of [r_min, r_max] with GL nodes per segment;
    0 < r_min < r_max, else the weights would turn negative."""
    if not 0.0 < r_min < r_max:
        raise CaloronError(f"graded radii need 0 < r_min < r_max, got [{r_min!r}, {r_max!r}]")
    ratio = (r_max / r_min) ** (1.0 / n_seg)
    edges = [r_min * ratio**k for k in range(n_seg + 1)]
    edges[-1] = r_max
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs, ws = gauss_legendre(a, b, n_per_seg)
        nodes.append(xs)
        weights.append(ws)
    return np.concatenate(nodes), np.concatenate(weights)


def sphere_rule(n_theta, n_phi):
    """Quadrature on the unit sphere: GL in cos(theta) x uniform in phi.

    Returns unit vectors (N, 3) and weights summing to 4 pi.
    """
    mu, wmu = _leggauss(n_theta)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi
    st = np.sqrt(1.0 - mu**2)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi)),
            np.outer(st, np.sin(phi)),
            np.outer(mu, np.ones_like(phi)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    w = np.outer(wmu, np.full(n_phi, wphi)).reshape(-1)
    return dirs, w


class Region(NamedTuple):
    """A quadrature rule in R^3: points (n, 3) and weights (n,) that include
    the volume element."""

    points: np.ndarray
    weights: np.ndarray


@dataclass
class VolumeGrid:
    """Product quadrature for volume integrals over a ball of radius r_max,
    on one t-slice."""

    nt: ClassVar[int] = 1
    regions: List[Region]
    r_max: float
    meta: dict = field(default_factory=dict)

    def total_points(self):
        return sum(r.points.shape[0] for r in self.regions)


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (6.0 * u**2 - 15.0 * u + 10.0)


def _smoothstep_prime(u):
    """Derivative of _smoothstep: 30 u^2 (1 - u)^2 on [0, 1], 0 outside."""
    u = np.clip(u, 0.0, 1.0)
    return 30.0 * u**2 * (1.0 - u) ** 2


def _plateau_weight(r, r_half, r_full):
    """1 inside r_half, 0 outside r_full, quintic in between."""
    return 1.0 - _smoothstep((r - r_half) / max(r_full - r_half, 1e-300))


def ball_points(center, radii, rweights, dirs, wdir):
    """The Region of the product of a radial rule (radii, rweights) about
    center and a direction rule (dirs, wdir) on the unit sphere."""
    pts = center[None, None, :] + radii[:, None, None] * dirs[None, :, :]
    w = (radii**2 * rweights)[:, None] * wdir[None, :]
    return Region(pts.reshape(-1, 3), w.reshape(-1))


def desk_grid(centers, core_scales, d_max_eff, fine=False):
    """Partition-of-unity grid over the ball of radius 12 d_max_eff: a
    graded spherical patch around each centre plus a global far-field shell
    rule, with smooth localizing weights.  'fine' doubles
    the angular and radial resolution of the 'desk' default.  The grid
    holds no finite-difference step: the integrals take every sampler's
    closed-form curvature.

    The patch around each centre has plateau radius local_radius/2 and
    support local_radius; the far region carries weight 1 - sum(patches).
    """
    f = 2 if fine else 1
    local_rule, far_rule = sphere_rule(6 * f, 12 * f), sphere_rule(max(6 * f, 8), max(12 * f, 16))
    r_max = 12.0 * d_max_eff
    centers = [np.asarray(c, float) for c in centers]
    separations = [math.dist(a, b) for i, a in enumerate(centers) for b in centers[i + 1 :]]
    local_radius = 0.45 * min(separations) if separations else 0.35 * r_max
    regions = []
    for c, scale in zip(centers, core_scales):
        r_min = max(scale / 12.0, 1e-6 * local_radius)
        radii, rw = graded_radii(r_min, local_radius, 10 * f, 4)
        # innermost ball [0, r_min]: single GL segment
        r0, w0 = gauss_legendre(0.0, r_min, 3)
        radii = np.concatenate([r0, radii])
        rw = np.concatenate([w0, rw])
        pts, w = ball_points(c, radii, rw, *local_rule)
        rr = np.linalg.norm(pts - c[None, :], axis=-1)
        w = w * _plateau_weight(rr, 0.5 * local_radius, local_radius)
        keep = w > 0
        regions.append(Region(pts[keep], w[keep]))

    # global far-field rule over the whole ball; weight 1 - sum of patches
    far_min = min(float(s) for s in core_scales) / 4.0
    radii, rw = graded_radii(max(far_min, 1e-3 * r_max), r_max, 12 * f, 4)
    pts, w = ball_points(np.zeros(3), radii, rw, *far_rule)
    wloc = np.zeros(pts.shape[0])
    for c in centers:
        rr = np.linalg.norm(pts - c[None, :], axis=-1)
        wloc += _plateau_weight(rr, 0.5 * local_radius, local_radius)
    w = w * np.clip(1.0 - wloc, 0.0, 1.0)
    keep = w > 1e-14 * np.max(w)
    regions.append(Region(pts[keep], w[keep]))

    return VolumeGrid(
        regions=regions,
        r_max=float(r_max),
        meta={"preset": "fine" if fine else "desk"},
    )
