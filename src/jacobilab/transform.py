"""Quadrature grids, the Jacobi transform pair, and the heat semigroup.

Every grid is a composite Gauss-Legendre rule given by its panel breakpoints
and nodes_per_panel (8 on the radial and 4 on the spectral grids that the
builders make; the constructors take any count); each panel is an affine
image of one reference panel, which carries the barycentric weights and the
differentiation matrix used to interpolate and differentiate samples on any
panel.  Functions cross module boundaries as samples on explicit grids,
never as closures.  A grid carries the parameters it was built for, and
every transform raises GridError when they differ from the ones it is given.
The dense phi_lambda(t) matrix for a (radial, spectral) grid pair is built
once and cached on the radial grid, so it is freed with the grid; the key is
the spectral grid's content, so equal spectral grids share it.

phi_lambda(t) is real for real lambda, so samples stay float64 when their
values are real, and a transform is one real GEMV, or one real GEMM on a
block of functions (one per column of the samples).  Complex samples go
through the same real product as the columns [Re | Im]; phi is never copied
to complex.  Before the product each weighted column is scaled by the power
of two that puts its largest magnitude in [0.5, 1), and its entries still
below 2^-1022 are set to zero, so no subnormal operand reaches BLAS.  As
|phi| <= 1 on real grids, an output then differs from the unflushed product
by at most N 2^-1021 times its column's largest weighted entry (in practice
not at all), and a column that lies wholly in the subnormal range keeps its
digits instead of underflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _MAX_COUNT, complex_array, composite_gauss_legendre, exponent, gauss_legendre, graded_breakpoints, is_count, real_array, real_number
from .core import _RHO_T_MAX, JacobiParameters, phi_matrix, plancherel_density, weight_density
from .errors import DecayError, DomainError, GridError, OverflowLimitError

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
_SMALLEST_NORMAL = np.finfo(float).tiny  # 2^-1022


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
        self.breakpoints = bp = real_array(type(self).__name__, "breakpoints", breakpoints, error=GridError)
        if not (bp.ndim == 1 and bp.size >= 2 and np.all(np.diff(bp) > 0.0) and bp[0] >= 0.0):
            raise GridError("breakpoints must start at 0 or above and strictly increase")
        if not is_count(nodes_per_panel):
            raise GridError(f"nodes_per_panel must be an integer from 1 to {_MAX_COUNT}, not {nodes_per_panel!r}")
        self.nodes_per_panel = int(nodes_per_panel)
        self.nodes, self.base_weights = composite_gauss_legendre(self.breakpoints, nodes_per_panel)
        x, _ = gauss_legendre(self.nodes_per_panel)
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


def _check_extent(kind, upper_name, upper, n_panels):
    """upper as a float, or GridError naming a builder argument that admits no grid."""
    upper = real_number(f"{kind} grid", upper_name, upper, positive=True, error=GridError)
    if not is_count(n_panels):
        raise GridError(f"{kind} grid: n_panels must be an integer from 1 to {_MAX_COUNT}, not {n_panels!r}")
    return upper


class RadialGrid(_PanelGrid):
    """Graded composite-GL grid on (0, T_max] with dmu quadrature weights."""

    def __init__(self, params: JacobiParameters, breakpoints, nodes_per_panel):
        super().__init__(breakpoints, nodes_per_panel)
        self.params = params
        self.t_max = float(self.breakpoints[-1])
        self.mu_weights = self.base_weights * weight_density(params, self.nodes)
        self._phi_cache = {}

    @classmethod
    def graded(cls, params, t_max=20.0, n_panels=400):
        """Graded panels on (0, t_max], 8 nodes each."""
        return cls(params, graded_breakpoints(_check_extent("radial", "t_max", t_max, n_panels), n_panels), 8)


def plancherel_constant() -> float:
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
        self.nu_weights = self.base_weights * self.density * plancherel_constant()

    @classmethod
    def build(cls, params, lam_max=50.0, n_panels=300):
        """Equal panels on (0, lam_max], 4 nodes each."""
        return cls(params, np.linspace(0.0, _check_extent("spectral", "lam_max", lam_max, n_panels), n_panels + 1), 4)


def _require_grid(what, name, grid, kind):
    """GridError naming the argument unless grid is a kind (RadialGrid or SpectralGrid)."""
    if not isinstance(grid, kind):
        raise GridError(f"{what} requires a {kind.__name__} {name}, got {type(grid).__name__}")


def _sample_values(grid, values):
    """Samples as float64 when every value is real, else as complex128.

    values has the grid's node shape, or that shape plus a trailing axis
    holding one function per column.  Complex input with an all-zero
    imaginary part is stored as float64.
    """
    values = np.asarray(values)
    if values.shape[:1] != grid.nodes.shape or values.ndim > 2:
        raise GridError("value array does not match the grid")
    if not np.iscomplexobj(values):
        return real_array("a sampled function", "values", values)
    values = complex_array("a sampled function", "values", values)
    return values if np.any(values.imag) else np.ascontiguousarray(values.real)


@dataclass
class SampledRadialFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        _require_grid("SampledRadialFunction", "grid", self.grid, RadialGrid)
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
        _require_grid("SampledSpectralFunction", "grid", self.grid, SpectralGrid)
        self.values = _sample_values(self.grid, self.values)

    def norm(self, p):
        return _lp_norm(self.values, self.grid.nu_weights, p)


def _lp_norm(values, weights, p):
    """L^p norm over the node axis: a float, or one norm per column.  Columns
    are scaled by exact powers of two, so no p overflows and p = 2 keeps its bits."""
    size = np.abs(values)
    if exponent("norm", "p", p) == math.inf:
        out = np.max(size, axis=0)
    else:
        _, scale = np.frexp(np.max(size, axis=0))
        np.ldexp(size, -scale, out=size)
        size **= p
        size *= weights.reshape(weights.shape + (1,) * (values.ndim - 1))
        out = np.ldexp(np.sum(size, axis=0) ** (1.0 / p), scale)
    return float(out) if out.ndim == 0 else out


def default_grids(params, t_max=20.0, radial_panels=400, lam_max=50.0, spectral_panels=300):
    return (
        RadialGrid.graded(params, t_max, radial_panels),
        SpectralGrid.build(params, lam_max, spectral_panels),
    )


def _check_params(params, *grids):
    """GridError unless every grid was built for params."""
    for grid in grids:
        if grid.params != params:
            raise GridError(f"grid built for {grid.params} used with {params}")


def phi_matrix_for(params, rgrid: RadialGrid, sgrid: SpectralGrid):
    _require_grid("a transform", "rgrid", rgrid, RadialGrid)
    _require_grid("a transform", "sgrid", sgrid, SpectralGrid)
    _check_params(params, rgrid, sgrid)
    key = (sgrid.breakpoints.tobytes(), sgrid.nodes_per_panel)
    if key not in rgrid._phi_cache:
        rgrid._phi_cache[key] = phi_matrix(params, rgrid.nodes, sgrid.nodes)
    return rgrid._phi_cache[key]


def _check_decay(values, grid, what, fraction=_DECAY_FRACTION):
    """Raise DecayError naming the first column whose last max(nodes per
    panel of grid, 4) samples are not below fraction times its peak; a zero
    column passes.  what names the values, or lists one name per column.  The
    test is on tail / peak, which does not underflow for a subnormal peak."""
    peak = np.atleast_1d(np.max(np.abs(values), axis=0))
    tail = np.atleast_1d(np.max(np.abs(values[-max(grid.nodes_per_panel, 4):]), axis=0))
    with np.errstate(invalid="ignore"):
        bad = np.flatnonzero((peak > 0.0) & (tail / peak >= fraction))
    if bad.size:
        j = bad[0]
        if not isinstance(what, str):
            what = what[j]
        elif values.ndim > 1:
            what = f"{what} (column {j})"
        raise DecayError(
            f"{what} has not decayed at the end of its grid "
            f"(tail {tail[j]:.3e} vs {peak[j]:.3e} peak)"
        )


def _weighted_product(phi, weights, values):
    """phi @ (weights * values) in real arithmetic.

    Complex values go through as one real GEMM on the columns [Re | Im],
    recombined afterwards: numpy would otherwise copy the real phi to
    complex for every product.  Subnormal operands take the CPU's slow path,
    so each weighted column is scaled by an exact power of two, its entries
    still below 2^-1022 are set to zero, and the scale is undone on the
    output (see the module docstring for the bound).
    """
    cols = values if values.ndim == 2 else values[:, None]
    k = cols.shape[1]
    if np.iscomplexobj(cols):
        cols = np.concatenate([cols.real, cols.imag], axis=1)
    cols = cols * weights[:, None]
    _, scale = np.frexp(np.abs(cols).max(axis=0))
    np.ldexp(cols, -scale, out=cols)
    cols[np.abs(cols) < _SMALLEST_NORMAL] = 0.0
    out = np.ldexp(phi @ cols, scale)
    if out.shape[1] > k:
        out = out[:, :k] + 1j * out[:, k:]
    return out.reshape(phi.shape[:1] + values.shape[1:])


def jacobi_transform(params, f: SampledRadialFunction, sgrid: SpectralGrid, decay_fraction=_DECAY_FRACTION) -> SampledSpectralFunction:
    """Forward transform: f_hat(lambda) = integral f phi dmu, per column.

    The tail gate requires the last samples below decay_fraction times the
    peak; decay_fraction=None skips it.
    """
    if decay_fraction is not None:
        _check_decay(f.values, f.grid, "radial function", real_number("jacobi_transform", "decay_fraction", decay_fraction))
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
        _check_decay(g.values, g.grid, "spectral function", real_number("inverse_transform", "decay_fraction", decay_fraction))
    phi = phi_matrix_for(params, rgrid, g.grid)
    return SampledRadialFunction(rgrid, _weighted_product(phi, g.grid.nu_weights, g.values))


def plancherel_defect(params, f: SampledRadialFunction, sgrid: SpectralGrid) -> float:
    """| ||f||_L2(dmu) - ||f_hat||_L2(dnu) | / ||f||_L2(dmu)."""
    n_f = f.norm(2)
    if np.any(n_f == 0.0):
        raise DomainError("plancherel_defect of the zero function")
    n_hat = jacobi_transform(params, f, sgrid).norm(2)
    return abs(n_f - n_hat) / n_f


def heat_kernel(params, s, rgrid: RadialGrid, sgrid: SpectralGrid) -> SampledRadialFunction:
    """h_s = inverse transform of lambda -> exp(-s (lambda^2 + rho^2)).

    DomainError for s <= 0, and OverflowLimitError naming s where
    s rho^2 > 708, since every spectral sample then underflows, or where no
    sample of h_s is a normal double.
    """
    _require_grid("heat_kernel", "sgrid", sgrid, SpectralGrid)
    s = real_number("heat_kernel", "s", s)
    if not s > 0.0:
        raise DomainError("heat_kernel requires s > 0")
    if s * params.rho**2 > _RHO_T_MAX:
        raise OverflowLimitError(
            f"heat_kernel: s rho^2 = {s * params.rho**2:.6g} exceeds {_RHO_T_MAX:g} at s = {s:g}; "
            "every sample e^(-s (lambda^2 + rho^2)) underflows"
        )
    with np.errstate(under="ignore"):
        spectral = np.exp(-s * (sgrid.nodes**2 + params.rho**2))
    h = inverse_transform(params, SampledSpectralFunction(sgrid, spectral), rgrid)
    peak = np.max(np.abs(h.values))
    if not peak >= _SMALLEST_NORMAL:
        raise OverflowLimitError(f"heat_kernel: no sample of h_s is a normal double at s = {s:g}; its largest is {peak:.3g}")
    return h


def apply_laplacian(params, f: SampledRadialFunction) -> SampledRadialFunction:
    """Jacobi Laplacian f'' + ((2a+1) coth t + (2b+1) tanh t) f' on the grid."""
    if len(f.grid.nodes) < 16:
        raise GridError("apply_laplacian needs at least 16 nodes")
    if f.values.ndim != 1:
        raise GridError("apply_laplacian takes one function, not a block")
    _check_params(params, f.grid)
    t = f.grid.nodes
    d1, d2 = f.grid.derivatives(f.values)
    drift = (2.0 * params.alpha + 1.0) / np.tanh(t) + (2.0 * params.beta + 1.0) * np.tanh(t)
    return SampledRadialFunction(f.grid, d2 + drift * d1)
