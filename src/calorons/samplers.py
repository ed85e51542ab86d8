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


class ConnectionSampler:
    """Base class; subclasses implement evaluate()."""

    n = 2
    epsilon = 1.0

    def chart(self, x, t=None):
        return None

    def __call__(self, x, t, chart=None):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        if t.shape != x.shape[:-1]:
            t = np.broadcast_to(t, x.shape[:-1]).copy()
        return self.evaluate(x, t, chart)

    def evaluate(self, x, t, chart=None):
        raise NotImplementedError

    def exact_curvature(self, x, t):
        """Curvature components (E, B) at x in closed form; every sampler
        whose curvature is integrated implements it.  Finite differences
        (`fieldcalc.curvature_at`) are the independent check."""
        raise NotImplementedError


def _mul(a, b):
    """Batched small-matrix product a @ b as the explicit sum over j of
    a[..., :, j] b[..., j, :], accumulated in j order: every operation runs
    over the whole batch, and each point's product is independent of the
    batch it sits in."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def dagger(m):
    return np.conjugate(np.swapaxes(m, -1, -2))
