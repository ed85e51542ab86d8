"""Connection samplers and their field format.

A sampler is a pure evaluator (x, t) -> (A, Phi), x (..., 3) and t scalar
or (...), of the 1-form A_i dx^i + eps * Phi dt.  Each chart sees one
constituent over the abelian Cartan background, so every value is a
`Field` in t + su(2)_alpha, in root coordinates that serve every simple
type: a real Cartan vector d in the ambient coordinates of the root datum,
plus the coordinate z of g_alpha + g_-alpha for the root alpha that names
the su(2) the point's chart fixes (`block(chart)`; alpha = 0 where there is
none).  No sampler builds an n x n matrix.

Samplers may be defined through several overlapping local gauges ("charts").
Finite-difference stencils must evaluate every stencil point in the chart of
the base point; `chart(x, t)` returns a per-point chart code (None when the
sampler is single-chart) and `__call__` accepts it back.

A sampler whose energy is integrated declares its asymptotic abelian charge
as `charge`, the coroot vector gamma of the energy tail
eps k |gamma|^2 / (2 r_max), and k as `killing_scale`.
"""

from __future__ import annotations

import math

import numpy as np

_SU2_ROOT = np.array([1.0, -1.0])  # the root e_0 - e_1 of SU(2), its own coroot


class Field:
    """Values in t + su(2)_alpha: diag (..., n) real, off (...) complex; indexing
    and arithmetic act on the batch axes, a coefficient array point by point."""

    __slots__ = ("diag", "off")
    __array_ufunc__ = None  # ndarray * Field defers to Field.__rmul__

    def __init__(self, diag, off):
        self.diag, self.off = diag, off

    def __getitem__(self, sel):
        sel = sel if isinstance(sel, tuple) else (sel,)
        return Field(self.diag[sel + (slice(None),)], self.off[sel])

    def __setitem__(self, sel, value):
        sel = sel if isinstance(sel, tuple) else (sel,)
        self.diag[sel + (slice(None),)], self.off[sel] = value.diag, value.off

    def __add__(self, other):
        return Field(self.diag + other.diag, self.off + other.off)

    def __sub__(self, other):
        return Field(self.diag - other.diag, self.off - other.off)

    def __mul__(self, c):
        c = np.asarray(c)
        return Field(c[..., None] * self.diag, c * self.off)

    __rmul__ = __mul__

    def __truediv__(self, c):
        c = np.asarray(c)
        return Field(self.diag / c[..., None], self.off / c)


def su2_field(V, alpha, shift=None):
    """The su(2) coefficient vectors V (..., 3) of V.(i tau) as a Field of the
    su(2) of the root alpha: V_3 alpha^vee plus the real Cartan vector shift,
    and the g_alpha coordinate (V_2 + i V_1) sqrt((alpha^vee, alpha^vee)/2),
    each written in place; that factor, 1 where (alpha, alpha) = 2, makes the
    brackets read alpha alone (`bracket`)."""
    alpha_sq = float(np.sum(alpha * alpha))
    diag = V[..., 2, None] * (2.0 / alpha_sq * alpha)
    if shift is not None:
        diag += shift
    off = V[..., 1].astype(complex)
    off.imag = V[..., 0]
    if alpha_sq != 2.0:
        off *= math.sqrt(2.0 / alpha_sq)
    return Field(diag, off)


def charge_sum(w, charges, out=None):
    """sum_k w[..., k] gamma_k (..., n) for gamma (N, n) in numpy's loops (no BLAS), contiguous in k."""
    return np.einsum("...k,ik->...i", w, np.ascontiguousarray(np.transpose(charges)), out=out)


def bracket(x, y, alpha):
    """[X, Y] of Fields in the su(2) of the root alpha, shared or per point
    (0: none).  In the coordinates of `su2_field`, [z, d] = -i alpha(d) z
    and [z_j, z_k] = -2 Im(z_j conj z_k) alpha."""
    delta_x, delta_y = (-np.sum(f.diag * alpha, axis=-1) for f in (x, y))
    return Field(-2.0 * (x.off * np.conjugate(y.off)).imag[..., None] * alpha,
                 1j * (x.off * delta_y - y.off * delta_x))


class ConnectionSampler:
    """Base class; subclasses implement evaluate()."""

    n = 2
    epsilon = 1.0
    root = _SU2_ROOT  # the su(2) of a single-chart sampler
    killing_scale = 1.0  # the invariant norm over the ambient dot product (`RootDatum.killing_scale`)

    def chart(self, x, t=None):
        return None

    def block(self, chart):
        """The root alpha (..., n) whose su(2) each chart fixes."""
        return self.root

    def __call__(self, x, t, chart=None):
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        if t.shape != x.shape[:-1]:
            t = np.broadcast_to(t, x.shape[:-1]).copy()
        return self.evaluate(x, t, chart)

    def evaluate(self, x, t, chart=None):
        raise NotImplementedError

    def higgs(self, x, t, chart=None):
        """Phi alone, for the diagnostics that read no A."""
        return self(x, t, chart)[1]

    def exact_curvature(self, x, t):
        """Curvature components (E, B) at x in closed form; every sampler
        whose curvature is integrated implements it.  Finite differences
        (`fieldcalc.curvature_at`) are the independent check."""
        raise NotImplementedError

    def curvature_densities(self, x, t, densities):
        """densities(E, B) of `exact_curvature`, per-point values."""
        return densities(*self.exact_curvature(x, t))
