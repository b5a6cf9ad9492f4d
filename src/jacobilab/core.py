"""Jacobi functions, the weight density, the c-function, and expansions.

The Jacobi function phi_lambda is evaluated through two independent routes:

* the hypergeometric route, 2F1 with argument -sinh^2 t (Pfaff-transformed
  for t > 0), which is numerically sound while |lambda| * t stays moderate;
* the Harish-Chandra route, c(lambda) e^((i lambda - rho) t) sum Gamma_k
  e^(-2kt) plus the lambda -> -lambda term, which is sound for t bounded
  away from 0.

One route rule (`_hypergeometric_route`) picks between them for the scalar
entry point `jacobi_phi`, the dense `phi_matrix` and `laplacian_residual`.
Both entry points sum the 2F1 series through `specfun.hyp2f1_real_arg` and
the Harish-Chandra series through `_harish_chandra`.  The hypergeometric route
stays exposed as `jacobi_phi_hypergeometric` so tests can cross-check the two
paths against each other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._util import loglog_slope
from .errors import DomainError, OverflowLimitError, ParameterError, PoleError
from .specfun import (
    DEFAULT_PRECISION,
    PrecisionConfig,
    bessel_script_J,
    gamma_complex,
    hyp2f1,
    hyp2f1_real_arg,
)

__all__ = [
    "JacobiParameters",
    "HarishChandraSeries",
    "weight_density",
    "jacobi_phi",
    "jacobi_phi_hypergeometric",
    "phi_matrix",
    "laplacian_residual",
    "c_function",
    "plancherel_density",
    "c_asymptotics_report",
    "harish_chandra_coefficients",
    "gangolli_fit",
    "bessel_local_expansion",
]

# Dispatch thresholds for phi evaluation: the hypergeometric series is used
# when t <= _T_SWITCH and |lambda| * t <= _LAMT_SWITCH, the Harish-Chandra
# series otherwise.  Beyond these limits the 2F1 series loses too many digits
# to oscillatory cancellation or plain convergence failure.
_T_SWITCH = 2.0
_LAMT_SWITCH = 12.0
_LAMBDA_FLOOR = 1e-6  # HC route regularization near the c-function pole at 0
_GAMMA_CAP = 1e100
_HC_MAX_TERMS = 800
# e^(-rho t) falls below the smallest normal double (2.2e-308) beyond this.
_RHO_T_MAX = 708.0


def _hypergeometric_route(lam, t):
    """True where phi_lambda(t) takes the 2F1 route; even in lambda, broadcasts."""
    return (t <= _T_SWITCH) & (np.abs(lam) * t <= _LAMT_SWITCH)


@dataclass(frozen=True)
class JacobiParameters:
    """The parameter triple (alpha, beta, rho = alpha + beta + 1).

    Requires alpha > 1/2 and alpha > beta > -1/2.  The boundary value
    alpha = 1/2 (used by the closed-form test preset) is accepted only with
    relaxed=True and emits a warning.
    """

    alpha: float
    beta: float
    relaxed: bool = False
    rho: float = field(init=False)

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if math.isnan(a) or math.isnan(b):
            raise ParameterError("NaN Jacobi parameter")
        if self.relaxed:
            if a < 0.5:
                raise ParameterError("relaxed mode still requires alpha >= 1/2")
            if a == 0.5:
                warnings.warn(
                    "alpha = 1/2 is outside the standing hypothesis alpha > 1/2; "
                    "proceeding in relaxed mode",
                    stacklevel=2,
                )
        elif a <= 0.5:
            raise ParameterError("alpha must exceed 1/2 (or pass relaxed=True for alpha = 1/2)")
        beta_ok = a > b >= -0.5 if self.relaxed else a > b > -0.5
        if not beta_ok:
            raise ParameterError("parameters must satisfy alpha > beta > -1/2")
        rho = a + b + 1.0
        if rho <= 0:
            raise ParameterError("rho = alpha + beta + 1 must be positive")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class HarishChandraSeries:
    """Truncated coefficient sequence Gamma_0..Gamma_K at a fixed lambda.

    gangolli_C and gangolli_d are the fitted envelope constants with
    |Gamma_k| <= C (1+k)^d for every computed coefficient.
    """

    lam: complex
    coefficients: tuple
    truncation_K: int
    gangolli_C: float
    gangolli_d: float


def weight_density(params: JacobiParameters, t):
    """Weight Delta(t) = (2 sinh t)^(2a+1) (2 cosh t)^(2b+1), t > 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(np.isnan(t_arr)):
        raise DomainError("weight_density requires t > 0")
    out = (2.0 * np.sinh(t_arr)) ** (2.0 * params.alpha + 1.0) * (
        2.0 * np.cosh(t_arr)
    ) ** (2.0 * params.beta + 1.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _phi_params(params, lam):
    a = 0.5 * (params.rho - 1j * lam)
    b = 0.5 * (params.rho + 1j * lam)
    return a, b, params.alpha + 1.0


def jacobi_phi_hypergeometric(params, lam, t, precision: PrecisionConfig = DEFAULT_PRECISION):
    """phi_lambda(t) via the defining 2F1 with z = -sinh^2 t (Pfaff path).

    Accurate only while |lambda| t is moderate and t not too large; use
    `jacobi_phi` for the adaptively dispatched production value.
    """
    if t < 0.0 or math.isnan(t):
        raise DomainError("jacobi_phi requires t >= 0")
    a, b, c = _phi_params(params, lam)
    if abs(a) <= 1e-15 or abs(b) <= 1e-15:
        return 1.0 + 0.0j  # the series terminates at its constant term
    if t == 0.0:
        return 1.0 + 0.0j
    return hyp2f1(a, b, c, -math.sinh(t) ** 2, precision)


def gamma_coefficient_table(params, lam, k_max):
    """Gamma_k(lambda) for k = 0..k_max, vectorized over a lambda array.

    Recurrence (from substituting the Harish-Chandra ansatz into the
    eigen-equation and expanding coth/tanh in e^{-2t}):
        Gamma_k = -(1 / (4k(k - i lambda))) sum_{m=1}^{k} b_m s_{k-m} Gamma_{k-m}
    with s_j = i lambda - rho - 2j and b_m the coefficients of the drift term,
    (2a+1) coth t + (2b+1) tanh t = 2 rho + sum_{m>=1} b_m e^{-2mt},
    b_m = 2[(2a+1) + (-1)^m (2b+1)].
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    m = np.arange(k_max + 1)
    bw = 2.0 * ((2.0 * params.alpha + 1.0) + (-1.0) ** m * (2.0 * params.beta + 1.0))
    il = 1j * lam
    # s_j Gamma_j, filled in as the recurrence proceeds
    weighted = np.zeros((k_max + 1, lam.size), dtype=complex)
    table = np.zeros((k_max + 1, lam.size), dtype=complex)
    table[0] = 1.0
    weighted[0] = il - params.rho
    for k in range(1, k_max + 1):
        gap = k - il
        if np.any(np.abs(gap) < 1e-10):
            raise DomainError(
                "lambda lies in the exceptional set of the Harish-Chandra recurrence"
            )
        table[k] = -(bw[k:0:-1] @ weighted[:k]) / (4.0 * k * gap)
        if np.any(np.abs(table[k]) > _GAMMA_CAP):
            raise OverflowLimitError("|Gamma_k| exceeded 1e100")
        weighted[k] = (il - params.rho - 2.0 * k) * table[k]
    return table


def harish_chandra_coefficients(params, lam, k_max) -> HarishChandraSeries:
    """Gamma_0..Gamma_{k_max} at a single lambda, with fitted Gangolli envelope."""
    table = gamma_coefficient_table(params, complex(lam), k_max)[:, 0]
    mags = np.abs(table[1:])
    k = np.arange(1, k_max + 1)
    if np.all(mags < 1e-300):
        d_fit = 0.0
    else:
        d_fit, _ = loglog_slope(1.0 + k, np.maximum(mags, 1e-300))
        d_fit = max(d_fit, 0.0)
    env = np.abs(table) / (1.0 + np.arange(k_max + 1)) ** d_fit
    return HarishChandraSeries(
        lam=complex(lam),
        coefficients=tuple(table),
        truncation_K=k_max,
        gangolli_C=float(np.max(env)),
        gangolli_d=float(d_fit),
    )


def gangolli_fit(params, k_max, lambda_set):
    """Envelope constants (C, d) with |Gamma_k(lambda)| <= C (1+k)^d.

    d is the least-squares log-log slope of max_lambda |Gamma_k| against 1+k,
    C the smallest constant making the bound hold on every computed sample.
    """
    if k_max < 16:
        raise ParameterError("gangolli_fit requires k_max >= 16")
    table = gamma_coefficient_table(params, np.asarray(lambda_set, dtype=complex), k_max)
    mags = np.abs(table)
    k = np.arange(k_max + 1)
    peak = np.maximum(mags.max(axis=1), 1e-300)
    d_fit, _ = loglog_slope(1.0 + k[1:], peak[1:])
    d_fit = max(d_fit, 0.0)
    env = mags / ((1.0 + k) ** d_fit)[:, None]
    return float(np.max(env)), float(d_fit)


def _harish_chandra(params, t, lam, k_max=None):
    """Harish-Chandra terms c(lambda) e^((i lambda - rho) t) sum_k Gamma_k(lambda) e^(-2kt).

    t: 1-D array of positive nodes, lam: 1-D array; returns the complex
    (t, lambda) matrix.  phi_lambda(t) is the sum of the terms at lambda and
    -lambda, or 2 Re of the term at real lambda.  k_max defaults to the
    truncation max(12, ceil(27 / min t)), and may not exceed 800.
    """
    t = np.asarray(t, dtype=float)
    lam = np.asarray(lam, dtype=complex)
    if k_max is None:
        k_max = max(12, int(math.ceil(27.0 / float(np.min(t)))))
    if k_max > _HC_MAX_TERMS:
        raise DomainError(
            f"Harish-Chandra truncation would exceed {_HC_MAX_TERMS} terms (t = {np.min(t):.3g})"
        )
    table = gamma_coefficient_table(params, lam, k_max)
    with np.errstate(under="ignore"):
        terms = np.exp(np.outer(-2.0 * t, np.arange(k_max + 1))) @ table
        terms *= np.exp((1j * lam[None, :] - params.rho) * t[:, None])
    terms *= c_function(params, lam)
    return terms


def jacobi_phi(params, lam, t, precision: PrecisionConfig = DEFAULT_PRECISION, force: Optional[str] = None):
    """The Jacobi function phi_lambda(t), dispatching between evaluation routes.

    force: None (automatic), "hypergeometric", or "harish-chandra"; forcing a
    route keeps finite-difference stencils on a single branch.  Raises
    OverflowLimitError where rho t > 708, since phi then underflows.
    """
    if t < 0.0 or math.isnan(t):
        raise DomainError("jacobi_phi requires t >= 0")
    if params.rho * t > _RHO_T_MAX:
        raise OverflowLimitError(
            f"jacobi_phi: rho t = {params.rho * t:.6g} exceeds {_RHO_T_MAX:g}; "
            "e^(-rho t) underflows the smallest normal double (2.2e-308)"
        )
    lam = complex(lam)
    a, b, _ = _phi_params(params, lam)
    if t == 0.0 or abs(a) <= 1e-15 or abs(b) <= 1e-15:
        return 1.0 + 0.0j  # phi_lambda(0) = 1; at lambda = +-i rho the series is 1
    if force is None:
        force = "hypergeometric" if _hypergeometric_route(lam, t) else "harish-chandra"
    if force == "hypergeometric":
        return jacobi_phi_hypergeometric(params, lam, t, precision)
    if force == "harish-chandra":
        if abs(lam) < _LAMBDA_FLOOR:
            lam = complex(_LAMBDA_FLOOR, lam.imag)
        return complex(np.sum(_harish_chandra(params, [t], [lam, -lam])))
    raise ValueError(f"unknown route {force!r}")


def phi_matrix(params, t_nodes, lam_nodes, precision: PrecisionConfig = DEFAULT_PRECISION):
    """Dense matrix phi_lambda(t) over real grids (t_nodes x lam_nodes).

    phi is even in lambda, so every cell is evaluated at |lambda|.  Rows with
    a cell off the hypergeometric route get 2 Re of the Harish-Chandra term as
    one matrix product; then every cell on the hypergeometric route is
    overwritten from one vectorized 2F1 call.  Returns a real-valued matrix.
    """
    t_nodes = np.asarray(t_nodes, dtype=float)
    lam = np.abs(np.asarray(lam_nodes, dtype=float))
    if np.any(t_nodes <= 0.0):
        raise DomainError("phi_matrix requires t > 0")
    direct = _hypergeometric_route(lam[None, :], t_nodes[:, None])
    out = np.empty(direct.shape, dtype=float)

    hc_rows = ~np.all(direct, axis=1)
    if np.any(hc_rows):
        lam_hc = np.maximum(lam, _LAMBDA_FLOOR)
        out[hc_rows] = 2.0 * _harish_chandra(params, t_nodes[hc_rows], lam_hc).real

    rows, cols = np.nonzero(direct)
    if rows.size:
        # Pfaff form: (cosh t)^(i lam - rho) * 2F1(a, c-b; c; tanh^2 t)
        t, lam_d = t_nodes[rows], lam[cols]
        a, b, c = _phi_params(params, lam_d)
        series = hyp2f1_real_arg(a, c - b, c, np.tanh(t) ** 2, precision)
        pref = np.exp((1j * lam_d - params.rho) * np.log(np.cosh(t)))
        out[rows, cols] = np.real(pref * series)
    return out


def laplacian_residual(params, lam, t, h=1e-4):
    """Residual of the eigen-equation at (lambda, t) by central differences.

    |phi'' + ((2a+1) coth t + (2b+1) tanh t) phi' + (lambda^2 + rho^2) phi|,
    with both derivatives taken on a single evaluation route so branch
    switching cannot pollute the stencil.
    """
    if not t > 2.0 * h > 0.0:
        raise DomainError("laplacian_residual requires t > 2h > 0")
    lam = complex(lam)
    route = "hypergeometric" if _hypergeometric_route(lam, t) else "harish-chandra"
    f = lambda s: jacobi_phi(params, lam, s, force=route)
    fm, f0, fp = f(t - h), f(t), f(t + h)
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    drift = (2.0 * params.alpha + 1.0) / math.tanh(t) + (
        2.0 * params.beta + 1.0
    ) * math.tanh(t)
    return abs(d2 + drift * d1 + (lam * lam + params.rho**2) * f0)


def c_function(params, lam):
    """Harish-Chandra c-function, vectorized over complex lambda.

    c(lambda) = 2^(rho - i lambda) Gamma(i lambda) Gamma(alpha + 1)
                / [Gamma((rho + i lambda)/2) Gamma((rho + i lambda)/2 - beta)].

    Raises OverflowLimitError where the numerator or the denominator leaves
    the normal double range, so that the quotient is not finite or has lost
    digits: for real lambda the Gammas underflow past |lambda| of about 450.
    """
    lam_arr = np.asarray(lam, dtype=complex)
    il = 1j * lam_arr
    with np.errstate(all="ignore"):
        num = 2.0 ** (params.rho - il) * gamma_complex(il) * gamma_complex(params.alpha + 1.0)
        den = gamma_complex(0.5 * (params.rho + il)) * gamma_complex(
            0.5 * (params.rho + il) - params.beta
        )
        out = num / den
    # c has no zeros or poles off the Gamma poles, so a numerator or
    # denominator outside the normal doubles means the quotient lost its digits
    normal = np.finfo(float).tiny
    bad = ~(np.isfinite(num) & np.isfinite(den) & (np.abs(num) >= normal) & (np.abs(den) >= normal))
    if np.any(bad):
        raise OverflowLimitError(
            f"c_function: the Gamma quotient leaves double range at lambda = "
            f"{complex(lam_arr[bad].flat[0]):.6g} (for real lambda, past |lambda| of about 450)"
        )
    if lam_arr.ndim == 0:
        return complex(out)
    return out


def plancherel_density(params, lam):
    """d(lambda) = |c(lambda)|^(-2) for real lambda != 0."""
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(lam_arr == 0.0):
        raise PoleError("plancherel density undefined at lambda = 0")
    c = c_function(params, lam_arr.astype(complex))
    out = 1.0 / np.abs(c) ** 2
    if lam_arr.ndim == 0:
        return float(out)
    return out


def c_asymptotics_report(params, lambda_list):
    """Asymptotic diagnostics of the c-function along an increasing real grid.

    Per lambda: d(lambda)/lambda^(2a+1) (converges), a scaled finite-difference
    derivative d'(lambda) (1+lambda)^(2a) normalization (stays bounded), and
    |c'(lambda)/c(lambda)| * lambda (stays bounded).
    """
    lams = np.asarray(lambda_list, dtype=float)
    if np.any(np.diff(lams) <= 0) or lams[0] < 1.0:
        raise DomainError("lambda_list must be increasing with min >= 1")
    rows = []
    expo = 2.0 * params.alpha + 1.0
    for lam in lams:
        h = 1e-5 * lam
        d0 = plancherel_density(params, lam)
        dp = (plancherel_density(params, lam + h) - plancherel_density(params, lam - h)) / (2 * h)
        cp = (c_function(params, lam + h) - c_function(params, lam - h)) / (2 * h)
        rows.append(
            {
                "lambda": float(lam),
                "d_ratio": float(d0 / lam**expo),
                "d_prime_scaled": float(dp / (1.0 + lam) ** (2.0 * params.alpha)),
                "logderiv_scaled": float(abs(cp / c_function(params, lam)) * lam),
            }
        )
    return rows


def _local_expansion_prefactor(params):
    # Normalization fixing truncation -> 1 as t -> 0 at lambda = 0.
    return 2.0 ** (params.rho + params.alpha) * float(
        gamma_complex(params.alpha + 1.0).real
    )


def _match_a1(params, precision=DEFAULT_PRECISION):
    """First correction coefficient a_1 by two-sided Taylor matching at t -> 0.

    Richardson-extrapolated ratio of the leading defect of the one-term
    truncation against its t^2 Bessel correction, at a fixed probe lambda.
    """
    lam = 1.0
    c_a = _local_expansion_prefactor(params)

    def ratio(t):
        phi = jacobi_phi_hypergeometric(params, lam, t, precision).real
        base = c_a * t ** (params.alpha + 0.5) / math.sqrt(weight_density(params, t))
        lead = base * bessel_script_J(params.alpha, lam * t, precision)
        corr = base * t * t * bessel_script_J(params.alpha + 1.0, lam * t, precision)
        return (phi - lead) / corr

    r1, r2, r3 = ratio(0.08), ratio(0.04), ratio(0.02)
    # two Richardson levels in t^2
    s1 = (4.0 * r2 - r1) / 3.0
    s2 = (4.0 * r3 - r2) / 3.0
    return (16.0 * s2 - s1) / 15.0


_A1_CACHE: dict = {}


def local_expansion_a1(params):
    key = (params.alpha, params.beta)
    if key not in _A1_CACHE:
        _A1_CACHE[key] = _match_a1(params)
    return _A1_CACHE[key]


def bessel_local_expansion(params, lam, t, M, r0=1.1, precision=DEFAULT_PRECISION):
    """M-term Bessel-series truncation of phi_lambda near t = 0, with residual.

    M counts the kept terms (1 or 2); the residual for M = 2 is the analogue
    of the quartic-order error term of the two-term expansion.  Returns
    (truncation value, residual phi - truncation).
    """
    if not 0.0 < t <= r0:
        raise DomainError(f"bessel_local_expansion requires 0 < t <= R0 = {r0}")
    if M not in (1, 2):
        raise ParameterError("M must be 1 or 2")
    lam = float(lam)
    c_a = _local_expansion_prefactor(params)
    base = c_a * t ** (params.alpha + 0.5) / math.sqrt(weight_density(params, t))
    value = base * bessel_script_J(params.alpha, abs(lam) * t, precision)
    if M == 2:
        value += (
            base
            * local_expansion_a1(params)
            * t
            * t
            * bessel_script_J(params.alpha + 1.0, abs(lam) * t, precision)
        )
    phi = jacobi_phi(params, lam, t, precision).real
    return value, phi - value
