"""Generalized translation kernel K(s,t,u), translation, and convolution.

The transform turns convolution into a product, so `convolve` is the inverse
transform of f-hat * g-hat, gated for decay on both inputs and the product,
on one fixed spectral grid.  A process builds that spectral grid, the radial
`convolution_grid` that the CLI samples its inputs on, and the pair's phi
matrix once per parameter pair (`_convolution_grids`).
The kernel is evaluated through its hypergeometric closed form; translation
is a quadrature over its compact support interval (|x-y|, x+y), and
`convolve_direct`, the O(N^2) reference, integrates f against the translates
under a node budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import composite_gauss_legendre, exponent, real_array, real_number, smoothstep_quintic
from .core import JacobiParameters, weight_density
from .errors import CostBudgetError, DomainError, GridError, OverflowLimitError
from .specfun import _TINY, _gamma_alpha_plus_one, hyp2f1_real_arg
from .transform import RadialGrid, SampledRadialFunction, SampledSpectralFunction, SpectralGrid
from .transform import _check_params, inverse_transform, jacobi_transform

__all__ = [
    "KernelEvaluation",
    "kernel_K",
    "kernel_values",
    "translate",
    "convolve",
    "convolve_direct",
    "young_check",
    "convolution_grid",
]

_NODE_BUDGET = 400
_SUPPORT_PANELS = 32
_NODES_PER_PANEL = 4


@dataclass(frozen=True)
class KernelEvaluation:
    s: float
    t: float
    u: float
    value: float
    in_support: bool


def _kernel_prefactor(params):
    # This constant gives the kernel unit mass against dmu only at rho = 5/2;
    # elsewhere the mass is 2^(5 - 2 rho), so the product formula fails there.
    a = params.alpha
    return 2.0 ** (5.0 - 4.0 * params.rho) * _gamma_alpha_plus_one(a) / (math.sqrt(math.pi) * math.gamma(a + 0.5))


def kernel_values(params, s, t, u):
    """Vectorized kernel K(s,t,u); s, t, u broadcast against each other.

    Returns 0 outside the support |s-t| < u < s+t.  Raises DomainError for
    a negative argument, and OverflowLimitError naming
    (s, t, u) where cosh s cosh t cosh u, or the size of K, leaves the normal
    doubles; the size is K without the factors (1 - B^2)^(alpha - 1/2) and
    2F1, which vanish at the edges of the support.
    """
    s, t, u = np.broadcast_arrays(*(real_array("kernel_values", name, x) for name, x in (("s", s), ("t", t), ("u", u))))
    if (np.minimum(np.minimum(s, t), u) < 0.0).any():
        raise DomainError("kernel_values requires s, t, u >= 0")
    out = np.zeros(s.shape)
    mask = (u > np.abs(s - t)) & (u < s + t) & (s > 0.0) & (t > 0.0) & (u > 0.0)
    if not mask.any():
        return out
    sm, tm, um = s[mask], t[mask], u[mask]
    a, b = params.alpha, params.beta
    prefactor = _kernel_prefactor(params)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        chs, cht, chu = np.cosh(sm), np.cosh(tm), np.cosh(um)
        ch = chs * cht * chu
        # B = (ch^2 s + ch^2 t + ch^2 u - 1) / (2 ch s ch t ch u), and 1 - B in
        # its factored form, which does not cancel near 0 or at the support edges;
        # the s and t factors pair first, so K(s, t, u) = K(t, s, u) bit for bit
        half = 0.5 * (sm + tm + um)
        one_minus_b = 2.0 * np.sinh(half) * np.sinh(half - um) * (np.sinh(half - sm) * np.sinh(half - tm))
        one_minus_b = np.clip(one_minus_b / ch, 0.0, None)
        size = prefactor * ch ** (a - b - 1.0) / (np.sinh(sm) * np.sinh(tm) * np.sinh(um)) ** (2.0 * a)
    for what, ok in (
        ("cosh s cosh t cosh u", (ch < math.inf) & np.isfinite(one_minus_b)),
        ("K(s, t, u)", (size >= _TINY) & (size < math.inf)),
    ):
        if not ok.all():
            i = np.argmin(ok)
            raise OverflowLimitError(
                f"kernel_values: {what} leaves the normal doubles at (s, t, u) = ({sm[i]:.6g}, {tm[i]:.6g}, {um[i]:.6g})"
            )
    one_minus_b2 = one_minus_b * (2.0 - one_minus_b)
    w = np.minimum(0.5 * one_minus_b, 0.5 - 1e-16)
    f21 = hyp2f1_real_arg(a + b, a - b, a + 0.5, w).real
    out[mask] = size * one_minus_b2 ** (a - 0.5) * f21
    return out


def kernel_K(params, s, t, u) -> KernelEvaluation:
    """Scalar kernel evaluation with explicit support flag.

    DomainError for an argument that is not a positive finite real number.
    """
    s, t, u = (real_number("kernel_K", name, x, positive=True) for name, x in (("s", s), ("t", t), ("u", u)))
    in_support = abs(s - t) < u < s + t
    value = float(kernel_values(params, s, t, u)) if in_support else 0.0
    return KernelEvaluation(s, t, u, value, in_support)


def convolution_grid(params) -> RadialGrid:
    """A new radial grid of 320 nodes on (0, 10], within the node budget of `convolve_direct`."""
    return RadialGrid.graded(params, 10.0, 40)


def _support_rule(x, y, z_max, n_panels=_SUPPORT_PANELS):
    """Quadrature nodes/weights on (|x-y|, x+y) truncated to (0, z_max].

    x and y broadcast against each other; returns arrays of their broadcast
    shape plus a trailing axis of n_panels * _NODES_PER_PANEL nodes.
    """
    r, w = composite_gauss_legendre(np.linspace(0.0, 1.0, n_panels + 1), _NODES_PER_PANEL)
    # The kernel has algebraic endpoint singularities (1-B^2)^(alpha-1/2) at
    # both support edges; a quintic smoothstep change of variables flattens
    # them and restores high-order quadrature convergence.
    ref_nodes = smoothstep_quintic(r)
    ref_weights = w * 30.0 * r**2 * (1.0 - r) ** 2
    lo = np.abs(x - y)
    length = np.clip(np.minimum(x + y, z_max) - lo, 0.0, None)
    z = lo[..., None] + length[..., None] * ref_nodes
    wz = length[..., None] * ref_weights
    return z, wz


def translate(params, f: SampledRadialFunction, x) -> SampledRadialFunction:
    """Generalized translation (tau_x f)(y) = integral f(z) K(x,y,z) dmu(z), x > 0."""
    x = real_number("translate", "x", x, positive=True)
    return SampledRadialFunction(f.grid, _translate(params, f, x, f.grid.nodes))


def _translate(params, f, x, y):
    """(tau_x f)(y) at the points y, by the support rule; complex values."""
    _check_params(params, f.grid)
    z, wz = _support_rule(x, y, f.grid.t_max)
    kern = kernel_values(params, x, y[:, None], z)
    fz = f.at(z.ravel()).reshape(z.shape)
    dens = weight_density(params, z)
    return np.sum(fz * kern * dens * wz, axis=1)


def convolve(params, f: SampledRadialFunction, g: SampledRadialFunction) -> SampledRadialFunction:
    """Hypergroup convolution f*g as the inverse transform of f-hat * g-hat.

    f-hat = integral f phi dmu and g-hat come from one transform of the block
    [f | g] on `SpectralGrid.build(params)`, built once per parameter pair
    (`_convolution_grids`).  An input that has not decayed by the end of its
    grid, or a product that has not decayed by lambda_max, raises DecayError.
    """
    if f.grid is not g.grid or f.values.shape != g.values.shape:
        raise GridError("convolve requires f and g of one shape on the same grid")
    sgrid = _convolution_grids(params)[1]
    block = SampledRadialFunction(f.grid, np.column_stack((f.values, g.values)))
    f_hat, g_hat = np.hsplit(jacobi_transform(params, block, sgrid).values, 2)
    product = (f_hat * g_hat).reshape(sgrid.nodes.shape + f.values.shape[1:])
    return inverse_transform(params, SampledSpectralFunction(sgrid, product), f.grid)


@functools.lru_cache(maxsize=8)
def _convolution_grids(params):
    """(`convolution_grid(params)`, `SpectralGrid.build(params)`), kept for the
    last 8 parameter pairs.

    `convolve` takes its spectral grid from here and the CLI its radial grid,
    so the pair's phi matrix, which `phi_matrix_for` keeps on the radial grid,
    is built once per pair: with it an entry holds about 3.1 MB (320 x 1200
    doubles).
    """
    return convolution_grid(params), SpectralGrid.build(params)


def convolve_direct(params, f: SampledRadialFunction, g: SampledRadialFunction) -> SampledRadialFunction:
    """Reference convolution (f*g)(x) = integral f(y) (tau_x g)(y) dmu(y).

    One translate per node, so O(N^2) kernel quadratures of the support rule,
    of which the half with y >= x are computed; the node budget refuses grids
    much larger than `convolution_grid`.
    """
    if f.grid is not g.grid:
        raise GridError("convolve requires f and g on the same grid")
    n = len(f.grid.nodes)
    if n > _NODE_BUDGET:
        raise CostBudgetError(
            f"convolution budget is {_NODE_BUDGET} nodes, grid has {n}; "
            "use convolution_grid()"
        )
    # K and the support rule are symmetric in (x, y), so tau_x g(y) = tau_y g(x)
    # bit for bit: row i is computed from the diagonal on and mirrored below it
    nodes = f.grid.nodes
    tau = np.empty((n, n), dtype=complex)
    for i, x in enumerate(nodes):
        tau[i, i:] = _translate(params, g, x, nodes[i:])
        tau[i + 1 :, i] = tau[i, i + 1 :]
    tau = SampledRadialFunction(g.grid, tau).values
    return SampledRadialFunction(f.grid, tau @ (f.values * f.grid.mu_weights))


def young_check(params, f, g, p, q):
    """Ratio ||f*g||_r / (||f||_p ||g||_q) with 1/r = 1/p + 1/q - 1."""
    p, q = (exponent("young_check", name, x) for name, x in (("p", p), ("q", q)))
    inv_r = (1.0 / p if p != math.inf else 0.0) + (1.0 / q if q != math.inf else 0.0) - 1.0
    if not -1e-12 <= inv_r <= 1.0 + 1e-12:
        raise DomainError("no exponent r with 1/p + 1/q - 1 = 1/r in [1, inf]")
    r = math.inf if inv_r <= 1e-12 else 1.0 / inv_r
    conv = convolve(params, f, g)
    lhs = conv.norm(r)
    rhs = f.norm(p) * g.norm(q)
    return {
        "p": p,
        "q": q,
        "r": r,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else math.inf,
    }
