"""Multiplier-side objects: omega, M = m c(-.)^(-1), cutoffs, boundary traces,
kernel splitting, the Delta expansion, global Harish-Chandra pieces, and the
contour-shift verification.

Conventions: the strip is {|Im lambda| < rho}; boundary traces live on the
upper edge {x + i rho}.  All spectral integrals over the real line carry the
same normalization as the library's inverse Jacobi transform, so that series
reconstructions can be compared directly against kernels produced by
kernel_from_multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    composite_gauss_legendre,
    dyadic_differences,
    neville_zero,
    smoothstep_quintic,
)
from .core import JacobiParameters, c_function, gamma_coefficient_table, weight_density
from .errors import (
    ConvergenceError,
    DecayError,
    DomainError,
    GridError,
    ParameterError,
)
from .transform import (
    RadialGrid,
    SampledRadialFunction,
    SampledSpectralFunction,
    SpectralGrid,
    inverse_transform,
    plancherel_constant,
)

__all__ = [
    "MultiplierSpec",
    "BoundaryTrace",
    "CutoffPair",
    "omega",
    "modified_multiplier",
    "c_inverse_reflected",
    "boundary_trace",
    "w_function",
    "hormander_check",
    "p_s_function",
    "kernel_from_multiplier",
    "heat_regularize",
    "split_kernel",
    "delta_expansion",
    "hc_global_pieces",
    "contour_shift_check",
]

_EPS_LADDER = (1e-2, 1e-3, 1e-4)
_TRACE_TOL = 1e-4


@dataclass(frozen=True)
class MultiplierSpec:
    """An even multiplier defined (at least) on the open strip |Im lambda| < rho."""

    evaluate: object  # callable complex -> complex, vectorized over arrays
    even: bool
    decay_class: str  # "rapidly-decreasing" | "bounded"
    label: str

    def __post_init__(self):
        if not self.even:
            raise ParameterError(f"multiplier '{self.label}' must be even")
        if self.decay_class not in ("rapidly-decreasing", "bounded"):
            raise ParameterError(f"unknown decay class '{self.decay_class}'")

    def __call__(self, lam):
        return np.asarray(self.evaluate(np.asarray(lam)))

    def evenness_defect(self, grid=None) -> float:
        lam = np.linspace(0.25, 40.0, 160) if grid is None else np.asarray(grid)
        return float(np.max(np.abs(self(lam) - self(-lam))))


@dataclass(frozen=True)
class BoundaryTrace:
    height: float
    nodes: np.ndarray
    samples: np.ndarray
    approach_parameters: tuple


@dataclass(frozen=True)
class CutoffPair:
    """The radial cutoff psi and spectral cutoff phi of the kernel splitting.

    psi == 1 on [-sqrt(R0), sqrt(R0)], == 0 off [-R0, R0];
    phi == 1 on [-1/R0, 1/R0], == 0 off [-2/R0, 2/R0].
    """

    R0: float = 1.1

    def __post_init__(self):
        if not 1.0 < self.R0 < math.sqrt(math.pi / 2.0):
            raise ParameterError("R0 must lie in (1, sqrt(pi/2))")

    def psi(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        lo = math.sqrt(self.R0)
        return 1.0 - smoothstep_quintic((t - lo) / (self.R0 - lo))

    def phi(self, lam):
        lam = np.abs(np.asarray(lam, dtype=float))
        lo = 1.0 / self.R0
        return 1.0 - smoothstep_quintic((lam - lo) / lo)


def omega(params, lam):
    """omega(lambda) = (lambda^2 + 4 rho^2)^(alpha + 1/4), principal branch."""
    lam = np.asarray(lam, dtype=complex)
    base = lam**2 + 4.0 * params.rho**2
    on_cut = (base.real <= 0.0) & (np.abs(base.imag) < 1e-300)
    if np.any(on_cut):
        raise DomainError("omega branch point: lambda^2 + 4 rho^2 on the cut")
    out = base ** (params.alpha + 0.25)
    if out.ndim == 0:
        return complex(out)
    return out


def c_inverse_reflected(params, lam):
    """c(-lambda)^(-1) = 1 / c_function(params, -lambda), vectorized.

    Exactly zero at the poles of Gamma(-i lambda), where -i lambda is a
    nonpositive integer (notably lambda = 0).  Raises OverflowLimitError where
    c_function does, past |lambda| of about 450 on the real line.
    """
    lam = np.asarray(lam, dtype=complex)
    z = -1j * lam
    pole = (np.abs(z - np.round(z.real)) <= 1e-13) & (np.round(z.real) <= 0)
    out = np.where(pole, 0.0, 1.0 / c_function(params, np.where(pole, 1.0, -lam)))
    return complex(out) if out.ndim == 0 else out


def modified_multiplier(params, m: MultiplierSpec, lam):
    """M(lambda) = m(lambda) c(-lambda)^(-1).

    Points where m has already underflowed to zero are never pushed through
    c(-lambda)^(-1), so far out on shifted contours they stay 0.  Where m is
    nonzero past |lambda| of about 450, c_function raises OverflowLimitError.
    """
    lam_arr = np.asarray(lam, dtype=complex)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    mvals = np.atleast_1d(np.asarray(m(lam_arr), dtype=complex))
    out = np.zeros(lam_arr.shape, dtype=complex)
    live = mvals != 0.0
    if np.any(live):
        out[live] = mvals[live] * c_inverse_reflected(params, lam_arr[live])
    if scalar:
        return complex(out[0])
    return out


def boundary_trace(g, height, nodes, eps_ladder=_EPS_LADDER) -> BoundaryTrace:
    """Vertical-approach limit of g at the horizontal line Im lambda = height.

    Samples g at x + i(height - eps) for the decreasing eps ladder and
    extrapolates to eps = 0 by Neville's scheme; raises ConvergenceError if
    dropping the coarsest rung moves the answer by more than 1e-6.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    eps = tuple(float(e) for e in eps_ladder)
    if len(eps) < 3 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ParameterError("eps ladder must be strictly decreasing, length >= 3")
    if height == 0.0:
        vals = np.asarray(g(nodes.astype(complex)))
        return BoundaryTrace(0.0, nodes, vals, eps)
    rows = [np.asarray(g(nodes + 1j * (height - e))) for e in eps]
    full = neville_zero(eps, rows)
    tail = neville_zero(eps[1:], rows[1:])
    scale = max(np.max(np.abs(full)), 1.0)
    defect = np.max(np.abs(full - tail)) / scale
    if defect > _TRACE_TOL:
        raise ConvergenceError(
            f"boundary trace did not converge (ladder defect {defect:.3e})"
        )
    return BoundaryTrace(float(height), nodes, full, eps)


def w_function(params, lam):
    """w(lambda) = omega(lambda)^(-1) c(lambda)^(-1)."""
    lam = np.asarray(lam, dtype=complex)
    return 1.0 / (omega(params, lam) * c_function(params, lam))


def hormander_check(g, lam_max=400.0, order=2, points_per_octave=16, fd_step=1e-5):
    """Finite-difference Mihlin/Hormander diagnostics of g on [1, lam_max].

    Returns sup|g|, sup|lambda g'|, and (order 2) sup|lambda^2 g''| over a
    dyadic grid.  fd_step is relative; values below 1e-7 trigger a noise flag.
    """
    if lam_max <= 1.0:
        raise DomainError("hormander_check requires lam_max > 1")
    lam, g0, gp, gpp = dyadic_differences(g, 1.0, lam_max, points_per_octave, fd_step)
    report = {
        "sup_g": float(np.max(np.abs(g0))),
        "sup_lam_gp": float(np.max(np.abs(lam * gp))),
        "lam_max": float(lam_max),
        "noise_warning": fd_step < 1e-7,
    }
    if order >= 2:
        report["sup_lam2_gpp"] = float(np.max(np.abs(lam**2 * gpp)))
    return report


def p_s_function(params, s, lam, cutoffs: CutoffPair = CutoffPair()):
    """P_s(lambda) = (1 - phi(lambda)) |lambda|^(-s) c(lambda)^(-1) for real lambda."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape, dtype=complex)
    live = (1.0 - cutoffs.phi(lam)) > 0.0
    if np.any(live):
        lam_live = lam[live]
        out[live] = (
            (1.0 - cutoffs.phi(lam_live))
            * np.abs(lam_live) ** (-s)
            / c_function(params, lam_live.astype(complex))
        )
    return out


def kernel_from_multiplier(params, m: MultiplierSpec, rgrid: RadialGrid, sgrid: SpectralGrid) -> SampledRadialFunction:
    """k = inverse Jacobi transform of m, sampled on rgrid."""
    if m.decay_class != "rapidly-decreasing":
        raise DecayError(
            f"multiplier '{m.label}' is not rapidly decreasing; "
            "apply heat_regularize first"
        )
    spectral = SampledSpectralFunction(sgrid, m(sgrid.nodes))
    return inverse_transform(params, spectral, rgrid)


def heat_regularize(m: MultiplierSpec, s, params) -> MultiplierSpec:
    """m_s(lambda) = m(lambda) exp(-s (lambda^2 + rho^2)); rapidly decreasing."""
    if not s > 0.0:
        raise DomainError("heat_regularize requires s > 0")
    rho2 = params.rho**2
    base = m.evaluate

    def regularized(lam):
        lam = np.asarray(lam)
        with np.errstate(under="ignore"):
            return np.asarray(base(lam)) * np.exp(-s * (lam**2 + rho2))

    return MultiplierSpec(
        evaluate=regularized,
        even=m.even,
        decay_class="rapidly-decreasing",
        label=f"{m.label}*heat({s:g})",
    )


def split_kernel(params, k: SampledRadialFunction, cutoffs: CutoffPair = CutoffPair()):
    """(psi*k, (1-psi)*k): local part supported in [0,R0], global off [0,sqrt(R0)]."""
    if k.grid.t_max <= cutoffs.R0 + 0.5:
        raise GridError("kernel grid must extend past R0 with margin")
    psi = cutoffs.psi(k.grid.nodes)
    local = SampledRadialFunction(k.grid, psi * k.values)
    tail = SampledRadialFunction(k.grid, (1.0 - psi) * k.values)
    return local, tail


def _bracket_parts(x):
    """Integer and decimal part of 2x + 1 as used by the Delta expansion."""
    v = 2.0 * x + 1.0
    n = int(math.floor(v + 1e-12))
    return n, v - n


def delta_expansion(params, t, J=None):
    """Expansion Delta(t) = e^(2 rho t) sum_j c_j delta(t) e^(-2jt).

    The c_j are the coefficients of (1-X)^[[alpha]] (1+X)^[[beta]] with
    X = e^(-2t), where [[x]] is the integer part of 2x+1, and
    delta(t) = (1-X)^<alpha> (1+X)^<beta> collects the decimal parts.
    Returns (coefficients, delta_factor, reconstruction).
    """
    na, fa = _bracket_parts(params.alpha)
    nb, fb = _bracket_parts(params.beta)
    if J is not None and J != na + nb:
        raise ParameterError(f"J must equal {na + nb} for these parameters")
    poly_a = np.poly1d([1.0])
    for _ in range(na):
        poly_a = poly_a * np.poly1d([-1.0, 1.0])
    for _ in range(nb):
        poly_a = poly_a * np.poly1d([1.0, 1.0])
    coeffs = poly_a.coefficients[::-1].copy()  # c_0 ... c_J, ascending in X
    t = np.asarray(t, dtype=float)
    x = np.exp(-2.0 * t)
    delta = (1.0 - x) ** fa * (1.0 + x) ** fb
    powers = x[..., None] ** np.arange(len(coeffs))
    recon = np.exp(2.0 * params.rho * t) * delta * (powers @ coeffs)
    return coeffs, delta, recon


def _spectral_line_rule(lam_max=50.0, n_panels=400, nodes_per_panel=4):
    """Quadrature on [-lam_max, lam_max] for integrals over the full line."""
    bp = np.linspace(-lam_max, lam_max, n_panels + 1)
    return composite_gauss_legendre(bp, nodes_per_panel)


def hc_global_pieces(
    params,
    m: MultiplierSpec,
    ell_max,
    t_nodes,
    cutoffs: CutoffPair = CutoffPair(),
    lam_max=50.0,
    tolerance=1e-4,
):
    """The a_l^+/-, b_j^+/-, K_{l,j} decomposition of K = (1-psi) k Delta.

    t_nodes must sit in [sqrt(R0), infinity); for such t only the a^+ branch
    contributes.  Returns a dict with all pieces, the reconstruction
    sum_{l<=ell_max} sum_j c_j K_{l,j}, the direct target (1-psi) k Delta, and
    the maximum relative error.
    """
    t = np.atleast_1d(np.asarray(t_nodes, dtype=float))
    if np.any(t < math.sqrt(cutoffs.R0)):
        raise DomainError("t_nodes must lie at or beyond sqrt(R0)")
    if m.decay_class != "rapidly-decreasing":
        raise DecayError("hc_global_pieces requires a rapidly decreasing multiplier")

    lam, wlam = _spectral_line_rule(lam_max)
    mvals = modified_multiplier(params, m, lam.astype(complex))
    j_max = ell_max  # b_j needed for j = ell - j' down to 0
    gamma_table = gamma_coefficient_table(params, lam.astype(complex), j_max)
    # the inverse-transform normalization, folded over lambda -> -lambda
    const = plancherel_constant(params)

    # b_j^{+/-}(t): oscillatory line integrals, shape (j, t)
    phase_plus = np.exp(1j * np.outer(lam, t))  # e^{i lambda t}
    e_rho = np.exp(params.rho * t)
    integ = mvals[:, None] * gamma_table.T  # (lam, j)
    b_plus = const * e_rho[None, :] * ((integ.T * wlam[None, :]) @ phase_plus)
    b_minus = const * np.exp(-params.rho * t)[None, :] * (
        (integ.T * wlam[None, :]) @ np.conj(phase_plus)
    )

    coeffs, delta, _ = delta_expansion(params, t)
    one_minus_psi = 1.0 - cutoffs.psi(t)
    ells = np.arange(ell_max + 1)
    a_plus = one_minus_psi[None, :] * np.exp(-2.0 * np.outer(ells, t)) * delta[None, :]
    a_minus = np.zeros_like(a_plus)  # 1_(-inf,0] kills the minus branch for t > 0

    recon = np.zeros(len(t), dtype=complex)
    k_lj = {}
    for ell in ells:
        for j in range(len(coeffs)):
            idx = ell - j
            if idx < 0:
                piece = np.zeros(len(t), dtype=complex)
            else:
                piece = a_minus[ell] * b_minus[idx] + a_plus[ell] * b_plus[idx]
            k_lj[(ell, j)] = piece
            recon = recon + coeffs[j] * piece

    # direct target: (1 - psi) k Delta with k from the inverse transform sum
    decay = np.exp(-2.0 * np.outer(t, np.arange(j_max + 1)))
    hc_sum = decay @ gamma_table  # gamma_table shape (k, lam) -> (t, lam)
    target_k = const * np.exp(-params.rho * t) * (
        (mvals[None, :] * hc_sum * np.exp(1j * np.outer(t, lam))) @ wlam
    )
    target = one_minus_psi * target_k * weight_density(params, t)

    scale = np.max(np.abs(target))
    rel_error = float(np.max(np.abs(recon - target)) / scale) if scale > 0 else 0.0
    return {
        "t_nodes": t,
        "coefficients": coeffs,
        "a_plus": a_plus,
        "a_minus": a_minus,
        "b_plus": b_plus,
        "b_minus": b_minus,
        "K_lj": k_lj,
        "reconstruction": recon,
        "target": target,
        "rel_error": rel_error,
        "converged": rel_error <= tolerance,
    }


def contour_shift_check(params, m: MultiplierSpec, k, t, r_values=(10.0, 100.0, 1000.0), lam_max=50.0):
    """Cauchy-theorem verification of the b^+ integral under the contour shift.

    direct  = integral over the real line of M(lambda) Gamma_k e^((i lambda + rho)t)
    shifted = same integrand over the rectangle top Im lambda = rho(1 - 1/R)
              plus the two vertical edges, for the largest R.
    Returns a dict with both values, the defect, and the edge magnitudes.
    """
    if t <= 0.0:
        raise DomainError("contour_shift_check requires t > 0")
    if m.decay_class != "rapidly-decreasing":
        raise DecayError("contour shift requires a rapidly decreasing multiplier")

    def integrand(lam_c):
        lam_c = np.asarray(lam_c, dtype=complex)
        gam = gamma_coefficient_table(params, lam_c, k)[k]
        return (
            modified_multiplier(params, m, lam_c)
            * gam
            * np.exp((1j * lam_c + params.rho) * t)
        )

    lam, wlam = _spectral_line_rule(lam_max)
    direct = complex(np.sum(integrand(lam) * wlam))

    edges = []
    shifted_values = []
    for r in r_values:
        h = params.rho * (1.0 - 1.0 / r)
        if r > lam_max:
            # dense panels where the integrand lives, sparse on the dead tails
            bp = np.concatenate(
                [
                    np.linspace(-r, -lam_max, 41),
                    np.linspace(-lam_max, lam_max, 401)[1:],
                    np.linspace(lam_max, r, 41)[1:],
                ]
            )
            xs, wx = composite_gauss_legendre(bp, 4)
        else:
            xs, wx = _spectral_line_rule(r, 240)
        with np.errstate(under="ignore"):
            top = complex(np.sum(integrand(xs + 1j * h) * wx))
            s_nodes, s_w = composite_gauss_legendre(np.linspace(0.0, h, 33), 4)
            right = complex(np.sum(integrand(r + 1j * s_nodes) * s_w) * 1j)
            left = complex(np.sum(integrand(-r + 1j * s_nodes) * s_w) * 1j)
        edge_size = abs(right) + abs(left)
        edges.append(edge_size)
        # Cauchy: bottom segment = top segment - right edge + left edge
        shifted_values.append(top - right + left)
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            raise DomainError(
                "vertical-edge integrals grow with R; integrand not decaying"
            )
    shifted = shifted_values[-1]
    return {
        "direct": direct,
        "shifted": shifted,
        "defect": abs(direct - shifted),
        "edge_magnitudes": edges,
        "r_values": tuple(r_values),
    }
