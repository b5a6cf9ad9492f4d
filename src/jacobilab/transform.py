"""Quadrature grids, the Jacobi transform pair, and the heat semigroup.

Every grid is a composite Gauss-Legendre rule given by its panel breakpoints
and nodes_per_panel; each panel is an affine image of one reference panel,
which carries the barycentric weights and the differentiation matrix used to
interpolate and differentiate samples on any panel.  Functions cross module
boundaries as samples on explicit grids, never as closures; the dense
phi_lambda(t) matrix for a (radial, spectral) grid pair is built once per
parameter set and cached on the radial grid, so it is freed with the grid;
the key is the spectral grid's content, so equal spectral grids share it.

phi_lambda(t) is real for real lambda, so samples stay float64 when their
values are real, and a transform is one real GEMV, or one real GEMM on a
block of functions (one per column of the samples).  Complex samples go
through the same real product as the columns [Re | Im]; phi is never copied
to complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import composite_gauss_legendre, graded_breakpoints
from .core import JacobiParameters, phi_matrix, plancherel_density, weight_density
from .errors import DecayError, DomainError, GridError

__all__ = [
    "RadialGrid",
    "SpectralGrid",
    "SampledRadialFunction",
    "SampledSpectralFunction",
    "default_grids",
    "plancherel_constant",
    "jacobi_transform",
    "inverse_transform",
    "plancherel_defect",
    "heat_kernel",
    "apply_laplacian",
]

_DECAY_FRACTION = 1e-10


class _PanelGrid:
    """A composite Gauss-Legendre grid on its breakpoints.

    Every panel is the affine image of one reference panel, the
    nodes_per_panel-point Gauss-Legendre rule on [-1, 1].  The barycentric
    weights of the mapped nodes differ from the reference ones by a factor
    that cancels (Berrut & Trefethen, SIAM Rev. 46, 2004), and the reference
    differentiation matrix needs only a rescaling by 2 / panel width, so both
    are computed once per grid.
    """

    def __init__(self, breakpoints, nodes_per_panel):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.nodes_per_panel = int(nodes_per_panel)
        self.nodes, self.base_weights = composite_gauss_legendre(self.breakpoints, nodes_per_panel)
        x, _ = composite_gauss_legendre([-1.0, 1.0], nodes_per_panel)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        self._bary = 1.0 / np.prod(diff, axis=1)
        d = (self._bary[None, :] / self._bary[:, None]) / diff
        np.fill_diagonal(d, 0.0)
        np.fill_diagonal(d, -np.sum(d, axis=1))
        self._diff_matrix = d

    def interpolate(self, values, z):
        """Panel-wise barycentric interpolation of sampled values at points z."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if np.any(z < self.breakpoints[0]) or np.any(z > self.breakpoints[-1] * (1 + 1e-12)):
            raise DomainError("interpolation point outside the grid range")
        n_panels = len(self.breakpoints) - 1
        panel = np.clip(np.searchsorted(self.breakpoints, z, side="right") - 1, 0, n_panels - 1)
        nodes = self.nodes.reshape(n_panels, self.nodes_per_panel)
        values = np.asarray(values, dtype=complex).reshape(n_panels, self.nodes_per_panel)
        num = np.zeros(z.shape, dtype=complex)
        den = np.zeros(z.shape)
        hits = []
        # Barycentric sums over the reference nodes j, each pass on arrays the
        # size of z; a point on a node takes that node's sample exactly.
        with np.errstate(divide="ignore", invalid="ignore"):
            for j, w in enumerate(self._bary):
                q = z - nodes[:, j][panel]
                hit = np.flatnonzero(q == 0.0)
                np.divide(w, q, out=q)
                den += q
                v = values[:, j][panel]
                if hit.size:
                    hits.append((hit, v[hit]))
                v *= q
                num += v
            out = num / den
        for hit, v in hits:
            out[hit] = v
        return out

    def derivatives(self, values):
        """(f', f'') at every node by per-panel polynomial differentiation."""
        scale = (2.0 / np.diff(self.breakpoints))[:, None]
        panels = np.asarray(values).reshape(len(scale), self.nodes_per_panel)
        d1 = scale * (panels @ self._diff_matrix.T)
        d2 = scale * (d1 @ self._diff_matrix.T)
        return d1.ravel(), d2.ravel()


class RadialGrid(_PanelGrid):
    """Graded composite-GL grid on (0, T_max] with dmu quadrature weights."""

    def __init__(self, params: JacobiParameters, breakpoints, nodes_per_panel):
        super().__init__(breakpoints, nodes_per_panel)
        self.params = params
        self.t_max = float(self.breakpoints[-1])
        self.mu_weights = self.base_weights * weight_density(params, self.nodes)
        self._phi_cache = {}

    @classmethod
    def graded(cls, params, t_max=20.0, n_panels=400, nodes_per_panel=8, exponent=2.0):
        return cls(params, graded_breakpoints(t_max, n_panels, exponent), nodes_per_panel)


def plancherel_constant(params) -> float:
    """Constant C with dnu = C |c(lambda)|^(-2) dlambda.

    Chosen so that the transform pair f_hat = integral f phi dmu,
    f = integral f_hat phi dnu is exactly unitary L2(dmu) -> L2(dnu), which
    holds for C = 1/(2 pi).
    """
    return 1.0 / (2.0 * math.pi)


class SpectralGrid(_PanelGrid):
    """Composite-GL grid on (0, Lambda_max] with dnu quadrature weights."""

    def __init__(self, params: JacobiParameters, breakpoints, nodes_per_panel):
        super().__init__(breakpoints, nodes_per_panel)
        self.params = params
        self.lam_max = float(self.breakpoints[-1])
        self.density = plancherel_density(params, self.nodes)
        self.nu_weights = self.base_weights * self.density * plancherel_constant(params)

    @classmethod
    def build(cls, params, lam_max=50.0, n_panels=300, nodes_per_panel=4):
        return cls(params, np.linspace(0.0, lam_max, n_panels + 1), nodes_per_panel)


def _sample_values(grid, values):
    """Samples as float64 when every value is real, else as complex128.

    values has the grid's node shape, or that shape plus a trailing axis
    holding one function per column.  Complex input with an all-zero
    imaginary part is stored as float64.
    """
    values = np.asarray(values)
    if values.shape[:1] != grid.nodes.shape or values.ndim > 2:
        raise GridError("value array does not match the grid")
    if np.iscomplexobj(values):
        values = values.astype(complex, copy=False)
        if not np.any(values.imag):
            values = np.ascontiguousarray(values.real)
    else:
        values = values.astype(float, copy=False)
    if not np.all(np.isfinite(values)):
        raise DomainError("non-finite sample values")
    return values


@dataclass
class SampledRadialFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _sample_values(self.grid, self.values)

    def norm(self, p):
        return _lp_norm(self.values, self.grid.mu_weights, p)

    def at(self, z):
        if self.values.ndim != 1:
            raise GridError("at() interpolates one function, not a block")
        return self.grid.interpolate(self.values, z)


@dataclass
class SampledSpectralFunction:
    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = _sample_values(self.grid, self.values)

    def norm(self, p):
        return _lp_norm(self.values, self.grid.nu_weights, p)


def _lp_norm(values, weights, p):
    """L^p norm over the node axis: a float, or one norm per column."""
    if p == math.inf:
        out = np.max(np.abs(values), axis=0)
    elif p < 1:
        raise DomainError("p must be >= 1")
    else:
        weights = weights.reshape(weights.shape + (1,) * (values.ndim - 1))
        out = np.sum(weights * np.abs(values) ** p, axis=0) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


def default_grids(params, t_max=20.0, radial_panels=400, lam_max=50.0, spectral_panels=300):
    return (
        RadialGrid.graded(params, t_max, radial_panels),
        SpectralGrid.build(params, lam_max, spectral_panels),
    )


def phi_matrix_for(params, rgrid: RadialGrid, sgrid: SpectralGrid):
    key = (params, sgrid.breakpoints.tobytes(), sgrid.nodes_per_panel)
    if key not in rgrid._phi_cache:
        rgrid._phi_cache[key] = phi_matrix(params, rgrid.nodes, sgrid.nodes)
    return rgrid._phi_cache[key]


def _check_decay(values, tail_count, what, fraction=_DECAY_FRACTION):
    """Raise DecayError naming the first column whose last tail_count samples
    are not below fraction times its peak; a zero column passes."""
    peak = np.atleast_1d(np.max(np.abs(values), axis=0))
    tail = np.atleast_1d(np.max(np.abs(values[-tail_count:]), axis=0))
    bad = np.flatnonzero((peak > 0.0) & (tail >= fraction * peak))
    if bad.size:
        j = bad[0]
        where = f" (column {j})" if values.ndim > 1 else ""
        raise DecayError(
            f"{what}{where} has not decayed at the end of its grid "
            f"(tail {tail[j]:.3e} vs {peak[j]:.3e} peak)"
        )


def _weighted_product(phi, weights, values):
    """phi @ (weights * values) in real arithmetic.

    Complex values go through as one real GEMM on the columns [Re | Im],
    recombined afterwards: numpy would otherwise copy the real phi to
    complex for every product.
    """
    cols = values if values.ndim == 2 else values[:, None]
    k = cols.shape[1]
    if np.iscomplexobj(cols):
        cols = np.concatenate([cols.real, cols.imag], axis=1)
    out = phi @ (cols * weights[:, None])
    if out.shape[1] > k:
        out = out[:, :k] + 1j * out[:, k:]
    return out.reshape(phi.shape[:1] + values.shape[1:])


def jacobi_transform(params, f: SampledRadialFunction, sgrid: SpectralGrid, decay_fraction=_DECAY_FRACTION) -> SampledSpectralFunction:
    """Forward transform: f_hat(lambda) = integral f phi dmu, per column.

    The tail gate requires the last samples below decay_fraction times the
    peak; decay_fraction=None skips it.
    """
    if decay_fraction is not None:
        _check_decay(f.values, _tail_count(f.grid), "radial function", decay_fraction)
    phi = phi_matrix_for(params, f.grid, sgrid)
    return SampledSpectralFunction(sgrid, _weighted_product(phi.T, f.grid.mu_weights, f.values))


def inverse_transform(params, g: SampledSpectralFunction, rgrid: RadialGrid, decay_fraction=_DECAY_FRACTION) -> SampledRadialFunction:
    """Inverse transform: f(t) = integral g(lambda) phi_lambda(t) dnu(lambda), per column.

    The tail gate is as in jacobi_transform.  decay_fraction=None skips it; used
    internally on spectra that are re-computed from already-validated radial
    samples, whose tails sit at the quadrature noise floor rather than at true
    spectral content.
    """
    if decay_fraction is not None:
        _check_decay(g.values, _tail_count(g.grid), "spectral function", decay_fraction)
    phi = phi_matrix_for(params, rgrid, g.grid)
    return SampledRadialFunction(rgrid, _weighted_product(phi, g.grid.nu_weights, g.values))


def _tail_count(grid):
    return max(grid.nodes_per_panel, 4)


def plancherel_defect(params, f: SampledRadialFunction, sgrid: SpectralGrid) -> float:
    """| ||f||_L2(dmu) - ||f_hat||_L2(dnu) | / ||f||_L2(dmu)."""
    n_f = f.norm(2)
    if np.any(n_f == 0.0):
        raise DomainError("plancherel_defect of the zero function")
    n_hat = jacobi_transform(params, f, sgrid).norm(2)
    return abs(n_f - n_hat) / n_f


def heat_kernel(params, s, rgrid: RadialGrid, sgrid: SpectralGrid) -> SampledRadialFunction:
    """h_s = inverse transform of lambda -> exp(-s (lambda^2 + rho^2))."""
    if not s > 0.0:
        raise DomainError("heat_kernel requires s > 0")
    with np.errstate(under="ignore"):
        spectral = np.exp(-s * (sgrid.nodes**2 + params.rho**2))
    return inverse_transform(params, SampledSpectralFunction(sgrid, spectral), rgrid)


def apply_laplacian(params, f: SampledRadialFunction) -> SampledRadialFunction:
    """Jacobi Laplacian f'' + ((2a+1) coth t + (2b+1) tanh t) f' on the grid."""
    if len(f.grid.nodes) < 16:
        raise GridError("apply_laplacian needs at least 16 nodes")
    if f.values.ndim != 1:
        raise GridError("apply_laplacian takes one function, not a block")
    t = f.grid.nodes
    d1, d2 = f.grid.derivatives(f.values)
    drift = (2.0 * params.alpha + 1.0) / np.tanh(t) + (2.0 * params.beta + 1.0) * np.tanh(t)
    return SampledRadialFunction(f.grid, d2 + drift * d1)
