"""Jacobi functions, the weight density, the c-function, and expansions.

The Jacobi function phi_lambda is evaluated through two independent routes:

* the hypergeometric route, 2F1 with argument -sinh^2 t (Pfaff-transformed
  for t > 0), which is numerically sound while |lambda| * t stays moderate;
* the Harish-Chandra route, c(lambda) e^((i lambda - rho) t) sum Gamma_k
  e^(-2kt) plus the lambda -> -lambda term, which is sound for t bounded
  away from 0.

Every phi value comes from one evaluator, `_phi`, over a grid of t x lambda
cells.  One route rule (`_hypergeometric_route`) picks each cell's route; the
rows that hold 2F1 cells go through one `specfun.hyp2f1_real_arg` call with
a and c - b per lambda column and w = tanh^2 t per cell (0 off the route), so
the series forms one term ratio per column and tests for convergence on every
8th term.  One Harish-Chandra evaluator, `_harish_chandra`, serves real and
complex lambda: each row keeps its own number of series terms,
max(12, ceil(27 / t)), and rows that share it share one real matrix product
per block of at most `specfun._BLOCK_SIZE` cells.  Real lambda takes 2 Re of
the term at lambda; complex lambda sums the terms at lambda and -lambda.  The
scalar `jacobi_phi`, the dense `phi_matrix`, `laplacian_residual` and the
local expansion all call `_phi`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import loglog_slope
from .errors import DomainError, OverflowLimitError, ParameterError, PoleError
from .specfun import _BLOCK_SIZE, bessel_script_J, gamma_complex, hyp2f1_real_arg

__all__ = [
    "JacobiParameters",
    "weight_density",
    "jacobi_phi",
    "phi_matrix",
    "laplacian_residual",
    "c_function",
    "plancherel_density",
    "c_asymptotics_report",
    "gangolli_fit",
    "bessel_local_expansion",
]

# Dispatch thresholds for phi evaluation: the hypergeometric series is used
# when t <= _T_SWITCH and |lambda| * t <= _LAMT_SWITCH, the Harish-Chandra
# series otherwise.  Beyond these limits the 2F1 series loses too many digits
# to oscillatory cancellation or plain convergence failure.
_T_SWITCH = 2.0
_LAMT_SWITCH = 12.0
_LAMBDA_FLOOR = 1e-12  # HC route regularization near the c-function pole at 0
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
    il = 1j * lam
    gaps = np.arange(1, k_max + 1)[:, None] - il
    if np.any(np.abs(gaps) < 1e-10):
        raise DomainError(
            "lambda lies in the exceptional set of the Harish-Chandra recurrence"
        )
    # b_m alternates between two values, so sum_{m=1}^{k} b_m w_{k-m} is
    # 2(2a+1) P_k + 2(2b+1) Q_k with P_k = sum_{j<k} w_j, Q_k = sum_{j<k} (-1)^(k-j) w_j
    ca = 2.0 * (2.0 * params.alpha + 1.0)
    cb = 2.0 * (2.0 * params.beta + 1.0)
    table = np.empty((k_max + 1, lam.size), dtype=complex)
    table[0] = 1.0
    weighted = il - params.rho  # w_k = s_k Gamma_k
    p_sum = q_sum = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            p_sum = p_sum + weighted
            q_sum = -q_sum - weighted
            table[k] = -(ca * p_sum + cb * q_sum) / (4.0 * k * gaps[k - 1])
            weighted = (il - params.rho - 2.0 * k) * table[k]
    if not np.all(np.abs(table) <= _GAMMA_CAP):
        raise OverflowLimitError("|Gamma_k| exceeded 1e100")
    return table


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


def _hc_terms(t):
    """Harish-Chandra truncation per node, max(12, ceil(27 / t)), at most 800."""
    k = np.maximum(12, np.ceil(27.0 / t)).astype(int)
    if k.max() > _HC_MAX_TERMS:
        raise DomainError(
            f"Harish-Chandra truncation would exceed {_HC_MAX_TERMS} terms (t = {np.min(t):.3g})"
        )
    return k


def _harish_chandra(params, t, lam, out, rows):
    """Write the Harish-Chandra sum for phi_lambda(t) into out[rows].

    Row i keeps its own truncation K = max(12, ceil(27 / t_i)).  The table
    c(lambda) Gamma_k(lambda) is built once, at the largest K, and held as
    real columns [Re | Im]; the rows that share a K take S = E [Re | Im] as one
    real product per block of at most _BLOCK_SIZE cells, E[i, k] = e^(-2k t_i).
    Real lam > 0 gives phi = 2 e^(-rho t) (cos(lambda t) Re S - sin(lambda t) Im S);
    complex lam takes the table at [lam, -lam] and sums e^((+-i lambda - rho) t) S.
    """
    real = not np.iscomplexobj(lam)
    lam_pm = lam if real else np.concatenate([lam, -lam])
    k_row = _hc_terms(t)
    table = gamma_coefficient_table(params, lam_pm, int(k_row.max())) * c_function(params, lam_pm)
    table = np.concatenate([table.real, table.imag], axis=1)
    n = lam_pm.size
    block_rows = max(1, _BLOCK_SIZE // n)
    with np.errstate(under="ignore"):
        for k in np.unique(k_row):
            same_k = np.flatnonzero(k_row == k)
            for lo in range(0, same_k.size, block_rows):
                block = same_k[lo : lo + block_rows]
                tb = t[block]
                s = np.exp(np.outer(-2.0 * tb, np.arange(k + 1))) @ table[: k + 1]
                re, im = s[:, :n], s[:, n:]
                if real:
                    phase = np.outer(tb, lam)
                    re *= np.cos(phase)
                    im *= np.sin(phase, out=phase)
                    re -= im
                    re *= 2.0 * np.exp(-params.rho * tb)[:, None]
                    out[rows[block]] = re
                else:
                    terms = (re + 1j * im) * np.exp((1j * lam_pm - params.rho) * tb[:, None])
                    out[rows[block]] = terms[:, : lam.size] + terms[:, lam.size :]


def _require_finite(name, x):
    if not np.all(np.isfinite(x)):
        raise DomainError(f"phi requires finite {name}")


def _phi(params, t, lam, hypergeometric=None):
    """phi_lambda(t) on the grid of 1-D arrays t > 0 (rows) x lambda (columns).

    Each cell takes the route `_hypergeometric_route` picks, or the one that
    hypergeometric=True/False forces, which keeps finite-difference stencils
    on a single branch.  Real lambda (complex lambda with zero imaginary part
    included) gives a real matrix, evaluated at |lambda| with 2 Re of the
    Harish-Chandra term; complex lambda sums the terms at lambda and -lambda.
    Raises OverflowLimitError where rho t > 708, since phi then underflows.
    """
    _require_finite("t", t)
    _require_finite("lambda", lam)
    rho_t = params.rho * np.max(t, initial=0.0)
    if rho_t > _RHO_T_MAX:
        raise OverflowLimitError(
            f"phi_lambda(t): rho t = {rho_t:.6g} exceeds {_RHO_T_MAX:g}; "
            "e^(-rho t) underflows the smallest normal double (2.2e-308)"
        )
    real = not np.any(np.imag(lam))
    if real:
        lam = np.abs(np.real(lam))
    if hypergeometric is None:
        direct = _hypergeometric_route(lam[None, :], t[:, None])
    else:
        direct = np.full((t.size, lam.size), hypergeometric)
    out = np.empty(direct.shape, dtype=float if real else complex)

    hc_rows = np.flatnonzero(~np.all(direct, axis=1))
    if hc_rows.size:
        # c(lambda) has a pole at 0, where the two terms cancel: below the
        # floor, Re lambda moves to the floor and Im lambda stays
        lam_hc = np.where(np.abs(lam) < _LAMBDA_FLOOR, lam - lam.real + _LAMBDA_FLOOR, lam)
        _harish_chandra(params, t[hc_rows], lam_hc, out, hc_rows)

    rows = np.flatnonzero(np.any(direct, axis=1))
    if rows.size:
        # Pfaff form: (cosh t)^(i lam - rho) * 2F1(a, c-b; c; tanh^2 t), with
        # a and c-b per column; cells off the route get w = 0, which sums no term
        on = direct[rows]
        a, b, c = _phi_params(params, lam)
        series = hyp2f1_real_arg(a, c - b, c, np.where(on, np.tanh(t[rows, None]) ** 2, 0.0))[on]
        exponent = np.multiply.outer(np.log(np.cosh(t[rows])), 1j * lam - params.rho)
        series = series * np.exp(exponent[on])  # out of place, as in specfun._sum_series
        block = out[rows]
        block[on] = series.real if real else series
        out[rows] = block
    return out


def jacobi_phi(params, lam, t):
    """The Jacobi function phi_lambda(t) at one complex lambda and t >= 0.

    Raises OverflowLimitError where rho t > 708, since phi then underflows.
    """
    lam = complex(lam)
    _require_finite("lambda", lam)
    _require_finite("t", t)
    if t < 0.0:
        raise DomainError("jacobi_phi requires t >= 0")
    a, b, _ = _phi_params(params, lam)
    if t == 0.0 or abs(a) <= 1e-15 or abs(b) <= 1e-15:
        return 1.0 + 0.0j  # phi_lambda(0) = 1; at lambda = +-i rho the series is 1
    return complex(_phi(params, np.array([float(t)]), np.array([lam]))[0, 0])


def phi_matrix(params, t_nodes, lam_nodes):
    """Dense real matrix phi_lambda(t) over real grids (t_nodes x lam_nodes)."""
    t_nodes = np.asarray(t_nodes, dtype=float)
    if np.any(t_nodes <= 0.0):
        raise DomainError("phi_matrix requires t > 0")
    return _phi(params, t_nodes, np.asarray(lam_nodes, dtype=float))


def laplacian_residual(params, lam, t, h=1e-3):
    """Residual of the eigen-equation at (lambda, t) by central differences.

    |phi'' + ((2a+1) coth t + (2b+1) tanh t) phi' + (lambda^2 + rho^2) phi|,
    with the fourth-order five-point stencil t - 2h, ..., t + 2h evaluated on
    the route of its centre, so branch switching cannot pollute it.  Its
    truncation error is O(h^4), so at h = 1e-3 the residual sits near the
    rounding floor of phi'' (about 1e-16 / h^2) rather than above it.
    """
    if not t > 2.0 * h > 0.0:
        raise DomainError("laplacian_residual requires t > 2h > 0")
    lam = complex(lam)
    route = bool(_hypergeometric_route(lam, t))
    nodes = t + h * np.arange(-2.0, 3.0)
    fm2, fm1, f0, fp1, fp2 = _phi(params, nodes, np.array([lam]), route)[:, 0]
    d1 = (fm2 - fp2 + 8.0 * (fp1 - fm1)) / (12.0 * h)
    d2 = (16.0 * (fp1 + fm1) - (fp2 + fm2) - 30.0 * f0) / (12.0 * h * h)
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
    digits: at every lambda once Gamma(alpha + 1) 2^rho overflows (alpha past
    about 150), and for real lambda where the Gammas underflow, past |lambda|
    of about 450.
    """
    lam_arr = np.asarray(lam, dtype=complex)
    il = 1j * lam_arr
    # the lambda-free factor 2^rho Gamma(alpha + 1) of the numerator
    if math.lgamma(params.alpha + 1.0) + params.rho * math.log(2.0) >= math.log(np.finfo(float).max):
        raise OverflowLimitError(
            f"c_function: Gamma(alpha + 1) 2^rho leaves double range at alpha = {params.alpha:g}"
        )
    gamma_a1 = math.gamma(params.alpha + 1.0)
    with np.errstate(all="ignore"):
        num = 2.0 ** (params.rho - il) * gamma_complex(il) * gamma_a1
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
    expo = 2.0 * params.alpha + 1.0
    h = 1e-5 * lams
    stack = np.stack([lams, lams + h, lams - h])
    d0, d_plus, d_minus = plancherel_density(params, stack)
    c0, c_plus, c_minus = c_function(params, stack)
    dp = (d_plus - d_minus) / (2 * h)
    cp = (c_plus - c_minus) / (2 * h)
    return [
        {
            "lambda": float(lam),
            "d_ratio": float(d0[i] / lam**expo),
            "d_prime_scaled": float(dp[i] / (1.0 + lam) ** (2.0 * params.alpha)),
            "logderiv_scaled": float(abs(cp[i] / c0[i]) * lam),
        }
        for i, lam in enumerate(lams)
    ]


def _local_expansion_prefactor(params):
    # Normalization fixing truncation -> 1 as t -> 0 at lambda = 0.
    return 2.0 ** (params.rho + params.alpha) * math.gamma(params.alpha + 1.0)


def _match_a1(params):
    """First correction coefficient a_1 by two-sided Taylor matching at t -> 0.

    Richardson-extrapolated ratio of the leading defect of the one-term
    truncation against its t^2 Bessel correction, at a fixed probe lambda.
    """
    lam = 1.0
    c_a = _local_expansion_prefactor(params)
    ts = (0.08, 0.04, 0.02)
    phis = _phi(params, np.array(ts), np.array([lam]), hypergeometric=True)[:, 0]

    def ratio(t, phi):
        base = c_a * t ** (params.alpha + 0.5) / math.sqrt(weight_density(params, t))
        lead = base * bessel_script_J(params.alpha, lam * t)
        corr = base * t * t * bessel_script_J(params.alpha + 1.0, lam * t)
        return (phi - lead) / corr

    r1, r2, r3 = (ratio(t, phi) for t, phi in zip(ts, phis))
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


def bessel_local_expansion(params, lam, t, M, r0=1.1):
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
    value = base * bessel_script_J(params.alpha, abs(lam) * t)
    if M == 2:
        value += (
            base
            * local_expansion_a1(params)
            * t
            * t
            * bessel_script_J(params.alpha + 1.0, abs(lam) * t)
        )
    phi = jacobi_phi(params, lam, t).real
    return value, phi - value
