"""Connection samplers: the universal field representation.

A sampler is a pure evaluator (x, t) -> (A, Phi) where A has shape
(..., 3, n, n) and Phi (..., n, n), both anti-Hermitian, for x (..., 3) and
t scalar or (...).  The connection 1-form is A_i dx^i + eps * Phi dt.

Samplers may be defined through several overlapping local gauges ("charts").
Finite-difference stencils must evaluate every stencil point in the chart of
the base point; `chart(x, t)` returns a per-point chart code (None when the
sampler is single-chart) and `__call__` accepts it back.

A sampler whose energy is integrated declares its asymptotic abelian charge
as `charge_matrix`, the gamma of the energy tail eps |gamma|^2 / (2 r_max).
"""

from __future__ import annotations

import numpy as np


def _broadcast_t(x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.shape != x.shape[:-1]:
        t = np.broadcast_to(t, x.shape[:-1]).copy()
    return x, t


class ConnectionSampler:
    """Base class; subclasses implement evaluate()."""

    n = 2
    epsilon = 1.0

    def chart(self, x, t=None):
        return None

    def __call__(self, x, t, chart=None):
        x, t = _broadcast_t(x, t)
        return self.evaluate(x, t, chart)

    def evaluate(self, x, t, chart=None):
        raise NotImplementedError

    def exact_curvature(self, x, t):
        """Curvature components (E, B) at x in closed form; every sampler
        whose curvature is integrated implements it.  Finite differences
        (`fieldcalc.curvature_at`) are the independent check."""
        raise NotImplementedError


class PulledBackSampler(ConnectionSampler):
    """Gauge transform of an SU(2) sampler by an SU(2) gauge map:
    A -> g^-1 A g + g^-1 dg."""

    def __init__(self, base, gauge_map):
        self.base = base
        self.gauge = gauge_map
        self.n = base.n
        self.epsilon = base.epsilon

    @property
    def charge_matrix(self):
        """The base's charge: a gauge transform leaves |gamma| unchanged."""
        return self.base.charge_matrix

    def chart(self, x, t=None):
        return self.base.chart(x, t)

    def evaluate(self, x, t, chart=None):
        A, Phi = self.base(x, t, chart)
        g = self.gauge(x, t)
        A_new, Phi_new = gauge_transform(g, A, Phi, self.gauge.spatial_derivative(x, t))
        return A_new, Phi_new + _mul(dagger(g), self.gauge.time_derivative(x, t)) / self.epsilon

    def exact_curvature(self, x, t):
        """g^-1 F_base g: curvature transforms covariantly, so no derivative
        of g enters."""
        F = self.base.exact_curvature(x, t)
        x, t = _broadcast_t(x, t)
        EB, _ = gauge_transform(self.gauge(x, t), np.concatenate(F, axis=-3))
        return EB[..., :3, :, :], EB[..., 3:, :, :]


def _mul(a, b):
    """Batched small-matrix product a @ b as the explicit sum over j of
    a[..., :, j] b[..., j, :], accumulated in j order: every operation runs
    over the whole batch, and each point's product is independent of the
    batch it sits in."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def gauge_transform(g, A, Phi=None, dg=None):
    """(g^-1 A_a g + g^-1 d_a g, g^-1 Phi g) for SU(2)-valued g, so g^-1 = g^dagger.

    g (..., 2, 2), A and dg (..., 3, 2, 2), Phi (..., 2, 2); dg=None drops the
    inhomogeneous term (a constant or purely t-dependent conjugation, or
    curvature components passed as A).  Phi=None returns None in its place.
    """
    ginv = dagger(g)
    ginv_a = ginv[..., None, :, :]
    A_new = _mul(ginv_a, _mul(A, g[..., None, :, :]))
    if dg is not None:
        A_new += _mul(ginv_a, dg)
    return A_new, None if Phi is None else _mul(ginv, _mul(Phi, g))


def dagger(m):
    return np.conjugate(np.swapaxes(m, -1, -2))
