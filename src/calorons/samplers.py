"""Connection samplers and their field format.

A sampler is a pure evaluator (x, t) -> (A, Phi), x (..., 3) and t scalar
or (...), of the 1-form A_i dx^i + eps * Phi dt.  Each chart sees one
constituent over the abelian Cartan background, so every value is a
`Field` in t + su(2)_alpha: a real Cartan diagonal d, acting as i diag(d),
plus one entry z at (a, b) of the su(2) block the point's chart fixes, named
by its image tau3 = e_a - e_b of i tau_3 (`block(chart)`).  n x n matrices
(`_cartan_matrix`) are built only for verify's gauge-patch transition and
`charge_matrix`; `fieldcalc.circle_holonomy` stays in T x SU(2) of the block.

Samplers may be defined through several overlapping local gauges ("charts").
Finite-difference stencils must evaluate every stencil point in the chart of
the base point; `chart(x, t)` returns a per-point chart code (None when the
sampler is single-chart) and `__call__` accepts it back.

A sampler whose energy is integrated declares its asymptotic abelian charge
as `charge_matrix`, the gamma of the energy tail eps |gamma|^2 / (2 r_max).
"""

from __future__ import annotations

import numpy as np

_SU2_TAU3 = np.array([1.0, -1.0])  # i tau_3 = i diag(1, -1): the block (0, 1) of SU(2)


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


def su2_field(V, tau3, shift=None):
    """The su(2) coefficient vectors V (..., 3) of V.(i tau) as a Field of
    the block with image tau3 of i tau_3: the diagonal V_3 tau3 plus the real
    Cartan diagonal shift, and the entry V_2 + i V_1, each written in place."""
    diag = V[..., 2, None] * tau3
    if shift is not None:
        diag += shift
    off = V[..., 1].astype(complex)
    off.imag = V[..., 0]
    return Field(diag, off)


def bracket(x, y, tau3):
    """[X, Y] of Fields in the block with image tau3 = e_a - e_b of i tau_3.
    With Delta(d) = d_b - d_a = -d.tau3, [z, d] = i z Delta(d) and
    [z_j, z_k] = -2 Im(z_j conj z_k) i tau_3."""
    delta_x, delta_y = (-np.sum(f.diag * tau3, axis=-1) for f in (x, y))
    return Field(-2.0 * (x.off * np.conjugate(y.off)).imag[..., None] * tau3,
                 1j * (x.off * delta_y - y.off * delta_x))


def _cartan_matrix(diag, off=None, tau3=None):
    """i diag(d) for real Cartan diagonals d (..., n) as (..., n, n), plus
    off and -conj(off) at (a, b) and (b, a) of the block with image
    tau3 = e_a - e_b of i tau_3, shared or per point."""
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[-1]
    out = np.zeros(diag.shape[:-1] + (n, n), dtype=complex)
    out.reshape(diag.shape[:-1] + (n * n,))[..., :: n + 1] = 1j * diag
    if off is not None:
        e_ab = np.maximum(tau3, 0.0)[..., :, None] * np.maximum(-tau3, 0.0)[..., None, :]
        out += off[..., None, None] * e_ab - np.conjugate(off)[..., None, None] * np.swapaxes(e_ab, -1, -2)
    return out


class ConnectionSampler:
    """Base class; subclasses implement evaluate()."""

    n = 2
    epsilon = 1.0
    tau3 = _SU2_TAU3  # the one su(2) block of a single-block sampler

    def chart(self, x, t=None):
        return None

    def block(self, chart):
        """The image tau3 (..., n) of i tau_3 of the su(2) block each chart fixes."""
        return self.tau3

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


def dagger(m):
    return np.conjugate(np.swapaxes(m, -1, -2))
