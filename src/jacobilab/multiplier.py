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
from dataclasses import dataclass

import numpy as np

from ._util import complex_array, complex_number, composite_gauss_legendre, dyadic_differences, is_count, real_array, real_number, smoothstep_quintic
from .core import _R0, JacobiParameters, _require_rho_t, c_function, gamma_coefficient_table, weight_density
from .errors import (
    ConvergenceError,
    DecayError,
    DomainError,
    GridError,
    OverflowLimitError,
    ParameterError,
    PoleError,
)
from .transform import (
    RadialGrid,
    SampledRadialFunction,
    SampledSpectralFunction,
    SpectralGrid,
    _require_grid,
    inverse_transform,
    plancherel_constant,
)

__all__ = [
    "MultiplierSpec",
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
_HC_TOL = 1e-4  # the relative error at which hc_global_pieces reports converged
_LINE_LAM_MAX = 50.0  # |lambda| cut of the real-line integrals
_HORMANDER_LAM_MAX = 400.0  # hormander_check's window is [1, 400]
_CONTOUR_RADII = (10.0, 100.0, 1000.0)  # the rectangles of contour_shift_check


@dataclass(frozen=True)
class MultiplierSpec:
    """A multiplier defined (at least) on the open strip |Im lambda| < rho.

    The theorem is about even multipliers; `evenness_defect` measures how far
    one is from even, and the probe flags a member where it is not.  Calling
    it returns evaluate's values as an array; values that are not numbers
    (strings, objects) raise DomainError naming the label.
    """

    evaluate: object  # callable complex -> complex, vectorized over arrays
    decay_class: str  # "rapidly-decreasing" | "bounded"
    label: str

    def __post_init__(self):
        if not callable(self.evaluate):
            raise ParameterError(f"MultiplierSpec requires a callable evaluate, got evaluate = {self.evaluate!r}")
        if not isinstance(self.label, str):
            raise ParameterError(f"MultiplierSpec requires a string label, got label = {self.label!r}")
        if self.decay_class not in ("rapidly-decreasing", "bounded"):
            raise ParameterError(f"unknown decay class '{self.decay_class}'")

    def __call__(self, lam):
        values = np.asarray(self.evaluate(np.asarray(lam)))
        if values.dtype.kind not in "biufc":
            raise DomainError(f"multiplier '{self.label}' returns {values.dtype} values, not numbers")
        return values

    def evenness_defect(self) -> float:
        lam = np.linspace(0.25, 40.0, 160)
        return float(np.max(np.abs(self(lam) - self(-lam))))


def _cutoff_psi(t):
    """The radial cutoff psi of the kernel splitting at R0 = core._R0:
    1 on [-sqrt(R0), sqrt(R0)], 0 off [-R0, R0]."""
    t = np.abs(np.asarray(t, dtype=float))
    lo = math.sqrt(_R0)
    return 1.0 - smoothstep_quintic((t - lo) / (_R0 - lo))


def _cutoff_phi(lam):
    """The spectral cutoff phi of the kernel splitting at R0 = core._R0:
    1 on [-1/R0, 1/R0], 0 off [-2/R0, 2/R0]."""
    lam = np.abs(np.asarray(lam, dtype=float))
    lo = 1.0 / _R0
    return 1.0 - smoothstep_quintic((lam - lo) / lo)


def omega(params, lam):
    """omega(lambda) = (lambda^2 + 4 rho^2)^(alpha + 1/4), principal branch;
    OverflowLimitError where it leaves the doubles."""
    lam = complex_array("omega", "lambda", lam)
    with np.errstate(over="ignore", invalid="ignore"):
        base = lam**2 + 4.0 * params.rho**2
        out = base ** (params.alpha + 0.25)
    on_cut = (base.real <= 0.0) & (np.abs(base.imag) < 1e-300)
    if np.any(on_cut):
        raise DomainError("omega branch point: lambda^2 + 4 rho^2 on the cut")
    if not np.isfinite(out).all():
        overflow = ~np.isfinite(out)
        raise OverflowLimitError(f"omega leaves the doubles at lambda = {complex(lam[overflow].flat[0]):.6g}")
    return complex(out) if out.ndim == 0 else out


def c_inverse_reflected(params, lam):
    """c(-lambda)^(-1) = 1 / c_function(params, -lambda), vectorized.

    Exactly zero at the poles of Gamma(-i lambda), where -i lambda is a
    nonpositive integer (notably lambda = 0).  Raises PoleError where c(-lambda)
    vanishes, at lambda = -i(alpha - beta + 1 + 2n) and -i(rho + 2n), and
    OverflowLimitError where c_function does.
    """
    lam = complex_array("c_inverse_reflected", "lambda", lam)
    z = -1j * lam
    pole = (np.abs(z - np.round(z.real)) <= 1e-13) & (np.round(z.real) <= 0)
    c = c_function(params, np.where(pole, 1.0, -lam))
    if np.any(c == 0.0):
        raise PoleError(f"c(-lambda)^(-1) has a pole at lambda = {complex(lam[c == 0.0].flat[0]):.6g}")
    out = np.where(pole, 0.0, 1.0 / c)
    return complex(out) if out.ndim == 0 else out


def modified_multiplier(params, m: MultiplierSpec, lam):
    """M(lambda) = m(lambda) c(-lambda)^(-1).

    Points where m has already underflowed to zero are never pushed through
    c(-lambda)^(-1), so far out on shifted contours they stay 0.  Where m is
    nonzero, c_inverse_reflected's PoleError and OverflowLimitError apply.
    """
    lam_arr = complex_array("modified_multiplier", "lambda", lam)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    mvals = np.atleast_1d(np.asarray(m(lam_arr), dtype=complex))
    out = np.zeros(lam_arr.shape, dtype=complex)
    live = mvals != 0.0
    if np.any(live):
        out[live] = mvals[live] * c_inverse_reflected(params, lam_arr[live])
    return complex(out[0]) if scalar else out


def boundary_trace(g, height, nodes):
    """Vertical-approach limit of g at the horizontal line Im lambda = height,
    as a complex array of samples at x + i height, one per node x.

    Samples g at x + i(height - eps) for the fixed eps ladder (1e-2, 1e-3,
    1e-4) and extrapolates to eps = 0 by Neville's tableau, on the real and
    imaginary parts separately; raises ConvergenceError naming the first
    node where a rung's sample is not finite (a pole of g on a rung), or if
    dropping the coarsest rung moves the answer by more than 1e-4 of its
    scale.
    """
    height = real_number("boundary_trace", "height", height)
    nodes = np.atleast_1d(real_array("boundary_trace", "nodes", nodes))
    if height == 0.0:
        return np.asarray(g(nodes.astype(complex)), dtype=complex)
    x0, x1, x2 = _EPS_LADDER
    with np.errstate(all="ignore"):  # a pole on a rung is the ConvergenceError below, not a warning
        # float views interleave Re and Im, so each part runs the tableau in real arithmetic
        r0, r1, r2 = (np.ascontiguousarray(g(nodes + 1j * (height - e)), dtype=complex).view(float) for e in _EPS_LADDER)
        p01 = r1 + (r1 - r0) * x1 / (x0 - x1)
        tail = r2 + (r2 - r1) * x2 / (x1 - x2)  # the two finest rungs
        full = (tail + (tail - p01) * x2 / (x0 - x2)).view(complex)
        scale = np.max(np.abs(full), initial=1.0)
        defect = np.max(np.abs(full - tail.view(complex)), initial=0.0) / scale
    # a non-finite rung sample makes its node's extrapolation inf or NaN
    bad = np.flatnonzero(~np.isfinite(full))
    if bad.size:
        raise ConvergenceError(f"boundary trace is not finite at node x = {nodes[bad[0]]:.6g}")
    if defect > _TRACE_TOL:
        raise ConvergenceError(
            f"boundary trace did not converge (ladder defect {defect:.3e})"
        )
    return full


def w_function(params, lam):
    """w(lambda) = omega(lambda)^(-1) c(lambda)^(-1)."""
    lam = complex_array("w_function", "lambda", lam)
    return 1.0 / (omega(params, lam) * c_function(params, lam))


def hormander_check(g):
    """Finite-difference Mihlin/Hormander diagnostics of g on [1, 400].

    Returns sup|g|, sup|lambda g'| and sup|lambda^2 g''| over a dyadic grid,
    and the window's upper end as lam_max.
    """
    lam, g0, gp, gpp = dyadic_differences(g, 1.0, _HORMANDER_LAM_MAX)
    return {
        "sup_g": float(np.max(np.abs(g0))),
        "sup_lam_gp": float(np.max(np.abs(lam * gp))),
        "sup_lam2_gpp": float(np.max(np.abs(lam**2 * gpp))),
        "lam_max": _HORMANDER_LAM_MAX,
    }


def p_s_function(params, s, lam):
    """P_s(lambda) = (1 - phi(lambda)) |lambda|^(-s) c(lambda)^(-1) for real lambda,
    with phi the spectral cutoff, 1 on |lambda| <= 1/R0 and 0 past 2/R0.
    s is one finite number, complex allowed."""
    s = complex_number("p_s_function", "s", s)
    lam = real_array("p_s_function", "lambda", lam)
    out = np.zeros(lam.shape, dtype=complex)
    off = 1.0 - _cutoff_phi(lam)
    live = off > 0.0
    if np.any(live):
        lam_live = lam[live]
        # a real s keeps the real power
        out[live] = off[live] * np.abs(lam_live) ** (-s if s.imag else -s.real) / c_function(params, lam_live.astype(complex))
    return out


def _require_rapid_decay(m: MultiplierSpec):
    if m.decay_class != "rapidly-decreasing":
        raise DecayError(f"multiplier '{m.label}' is not rapidly decreasing; apply heat_regularize first")


def kernel_from_multiplier(params, m: MultiplierSpec, rgrid: RadialGrid, sgrid: SpectralGrid) -> SampledRadialFunction:
    """k = inverse Jacobi transform of m, sampled on rgrid."""
    _require_grid("kernel_from_multiplier", "sgrid", sgrid, SpectralGrid)
    _require_rapid_decay(m)
    spectral = SampledSpectralFunction(sgrid, m(sgrid.nodes))
    return inverse_transform(params, spectral, rgrid)


def heat_regularize(m: MultiplierSpec, s, params) -> MultiplierSpec:
    """m_s(lambda) = m(lambda) exp(-s (lambda^2 + rho^2)), s > 0; rapidly decreasing."""
    s = real_number("heat_regularize", "s", s, positive=True)
    rho2 = params.rho**2

    def regularized(lam):
        lam = np.asarray(lam)
        with np.errstate(under="ignore"):
            return m(lam) * np.exp(-s * (lam**2 + rho2))

    return MultiplierSpec(
        evaluate=regularized,
        decay_class="rapidly-decreasing",
        label=f"{m.label}*heat({s:g})",
    )


def split_kernel(k: SampledRadialFunction):
    """(psi*k, (1-psi)*k): local part supported in [0,R0], global off [0,sqrt(R0)],
    with psi the radial cutoff, 1 on [0, sqrt(R0)] and 0 past R0."""
    if k.grid.t_max <= _R0 + 0.5:
        raise GridError("kernel grid must extend past R0 with margin")
    psi = _cutoff_psi(k.grid.nodes)
    local = SampledRadialFunction(k.grid, psi * k.values)
    tail = SampledRadialFunction(k.grid, (1.0 - psi) * k.values)
    return local, tail


def _bracket_parts(x):
    """Integer and decimal part of 2x + 1 as used by the Delta expansion."""
    v = 2.0 * x + 1.0
    n = int(math.floor(v + 1e-12))
    return n, v - n


def delta_expansion(params, t):
    """Expansion Delta(t) = e^(2 rho t) sum_j c_j delta(t) e^(-2jt).

    The c_j are the coefficients of (1-X)^[[alpha]] (1+X)^[[beta]] with
    X = e^(-2t), where [[x]] is the integer part of 2x+1, and
    delta(t) = (1-X)^<alpha> (1+X)^<beta> collects the decimal parts.
    Returns (coefficients, delta_factor, reconstruction); DomainError for
    t < 0, where (1-X)^<alpha> has no real value, and OverflowLimitError
    naming rho t where e^(2 rho t) leaves the doubles (rho t > 354).
    """
    t = real_array("delta_expansion", "t", t)
    na, fa = _bracket_parts(params.alpha)
    nb, fb = _bracket_parts(params.beta)
    poly_a = np.poly1d([1.0])
    for _ in range(na):
        poly_a = poly_a * np.poly1d([-1.0, 1.0])
    for _ in range(nb):
        poly_a = poly_a * np.poly1d([1.0, 1.0])
    coeffs = poly_a.coefficients[::-1].copy()  # c_0 ... c_J, ascending in X
    if np.any(t < 0.0):
        raise DomainError("delta_expansion requires t >= 0")
    _require_rho_t(params, t, "delta_expansion", power=2)
    x = np.exp(-2.0 * t)
    delta = (1.0 - x) ** fa * (1.0 + x) ** fb
    powers = x[..., None] ** np.arange(len(coeffs))
    recon = np.exp(2.0 * params.rho * t) * delta * (powers @ coeffs)
    return coeffs, delta, recon


def _line_rule(r=_LINE_LAM_MAX):
    """Four-point composite Gauss-Legendre rule on [-r, r]: 400 panels on
    |lambda| <= min(r, 50), where the integrands live, and 40 on each tail
    beyond, where they have died out."""
    core = min(r, _LINE_LAM_MAX)
    tail = np.linspace(core, r, 41)[1:] if r > core else np.empty(0)
    breaks = np.concatenate([-tail[::-1], np.linspace(-core, core, 401), tail])
    return composite_gauss_legendre(breaks, 4)


def _line_integrals(params, m: MultiplierSpec, lam, weights, t, j_max):
    """sum_n w_n M(lambda_n) Gamma_j(lambda_n) e^(i lambda_n t), shape (j_max + 1, t.size).

    The Harish-Chandra line integrals of the multiplier side, for
    j = 0..j_max and each t, over a path rule (lambda_n, w_n) whose weights
    include d lambda; t is finite, j_max an integer >= 0.  Raises DecayError
    unless m is rapidly decreasing.
    """
    _require_rapid_decay(m)
    t = np.atleast_1d(t)
    lam = np.asarray(lam, dtype=complex)
    with np.errstate(under="ignore"):
        terms = weights * modified_multiplier(params, m, lam) * gamma_coefficient_table(params, lam, j_max)
        return terms @ np.exp(1j * np.outer(lam, t))


def hc_global_pieces(params, m: MultiplierSpec, ell_max, t_nodes):
    """The a_l^+, b_j^+, K_{l,j} decomposition of K = (1-psi) k Delta, with
    psi the radial cutoff and the lambda integrals truncated to |lambda| <= 50.

    t_nodes must sit in [sqrt(R0), infinity).  For t > 0 the indicator of
    (-inf, 0] makes every a_l^- zero, so only the + branch is formed, and the
    reconstruction is sum_{l<=ell_max} sum_{j<=l} c_j a_l^+ b_(l-j)^+.  The
    b_j^+ are `_line_integrals` at t; the direct target (1-psi) k Delta keeps
    its own lambda sum, as the check on them.  Returns a dict with the
    pieces (K_lj maps (l, j), j <= l, to a_l^+ b_(l-j)^+), the
    reconstruction, the direct target, the maximum relative error, and
    whether it is at most 1e-4.  Raises OverflowLimitError naming rho t where
    Delta's e^(2 rho t) leaves the doubles (rho t > 354).
    """
    if not is_count(ell_max, 0):
        raise ParameterError(f"hc_global_pieces requires an integer ell_max >= 0, got {ell_max!r}")
    t = np.atleast_1d(real_array("hc_global_pieces", "t_nodes", t_nodes))
    if not t.size or np.any(t < math.sqrt(_R0)):
        raise DomainError("t_nodes must be non-empty and lie at or beyond sqrt(R0)")
    _require_rho_t(params, t, "hc_global_pieces", power=2)
    lam, wlam = _line_rule()
    # the inverse-transform normalization, folded over lambda -> -lambda
    const = plancherel_constant()
    # b_j^+(t) for j = 0..ell_max, shape (j, t)
    b_plus = const * np.exp(params.rho * t) * _line_integrals(params, m, lam, wlam, t, ell_max)

    coeffs, delta, _ = delta_expansion(params, t)
    one_minus_psi = 1.0 - _cutoff_psi(t)
    ells = np.arange(ell_max + 1)
    a_plus = one_minus_psi * np.exp(-2.0 * np.outer(ells, t)) * delta
    k_lj = {(ell, j): a_plus[ell] * b_plus[ell - j] for ell in ells for j in range(min(ell + 1, len(coeffs)))}
    recon = sum(coeffs[j] * piece for (_, j), piece in k_lj.items())

    # the direct target: k by its own inverse-transform sum, the check on the b_j
    mvals = modified_multiplier(params, m, lam)
    hc_sum = np.exp(-2.0 * np.outer(t, ells)) @ gamma_coefficient_table(params, lam, ell_max)
    target_k = const * np.exp(-params.rho * t) * ((mvals * hc_sum * np.exp(1j * np.outer(t, lam))) @ wlam)
    target = one_minus_psi * target_k * weight_density(params, t)

    scale = np.max(np.abs(target))
    rel_error = float(np.max(np.abs(recon - target)) / scale) if scale > 0 else 0.0
    return {
        "t_nodes": t,
        "coefficients": coeffs,
        "a_plus": a_plus,
        "b_plus": b_plus,
        "K_lj": k_lj,
        "reconstruction": recon,
        "target": target,
        "rel_error": rel_error,
        "converged": rel_error <= _HC_TOL,
    }


def contour_shift_check(params, m: MultiplierSpec, k, t):
    """Cauchy-theorem verification of the b^+ integral under the contour shift.

    direct  = integral over |lambda| <= 50 of M(lambda) Gamma_k e^((i lambda + rho)t)
    shifted = same integrand over the rectangle top Im lambda = rho(1 - 1/R)
              plus the two vertical edges, for the largest R.
    The radii R are 10, 100 and 1000, and each segment is one
    `_line_integrals` call.  Returns a dict with both values, the defect,
    and the edge magnitudes, one per R.  Raises DomainError where the edge
    magnitudes grow with R, and OverflowLimitError naming rho t where the
    common factor e^(rho t) leaves the doubles (rho t > 708).
    """
    if not is_count(k, 0):
        raise ParameterError(f"contour_shift_check requires an integer k >= 0, got {k!r}")
    t = real_number("contour_shift_check", "t", t, positive=True)
    _require_rho_t(params, t, "contour_shift_check")

    lam, wlam = _line_rule()
    direct = _line_integrals(params, m, lam, wlam, t, k)[k, 0]
    edges = []
    for r in _CONTOUR_RADII:
        h = params.rho * (1.0 - 1.0 / r)
        s_nodes, s_w = composite_gauss_legendre(np.linspace(0.0, h, 33), 4)
        right = _line_integrals(params, m, r + 1j * s_nodes, 1j * s_w, t, k)[k, 0]
        left = _line_integrals(params, m, -r + 1j * s_nodes, 1j * s_w, t, k)[k, 0]
        edges.append(abs(right) + abs(left))
    if np.any(np.diff(edges) > 0.0):
        raise DomainError("vertical-edge integrals grow with R; integrand not decaying")
    # Cauchy at the largest R, the loop's last r and h:
    # bottom segment = top segment - right edge + left edge
    xs, wx = _line_rule(r)
    shifted = _line_integrals(params, m, xs + 1j * h, wx, t, k)[k, 0] - right + left
    lift = math.exp(params.rho * t)  # e^(rho t), common to every segment
    return {
        "direct": complex(lift * direct),
        "shifted": complex(lift * shifted),
        "defect": lift * abs(direct - shifted),
        "edge_magnitudes": [lift * e for e in edges],
    }
