"""Jacobi functions, the weight density, the c-function, and expansions.

The Jacobi function phi_lambda is evaluated through two independent routes:

* the hypergeometric route, 2F1 with argument -sinh^2 t (Pfaff-transformed
  for t > 0), which is numerically sound while |lambda| * t stays moderate;
* the Harish-Chandra route, c(lambda) e^((i lambda - rho) t) sum Gamma_k
  e^(-2kt) plus the lambda -> -lambda term, which is sound for t bounded
  away from 0.

Every phi value comes from one evaluator, `_phi`, over a grid of t x lambda
cells, each on the route that one rule (`_hypergeometric_route`) picks: 2F1
where t <= t_s and |lambda| <= 12 / t, Harish-Chandra elsewhere.  On rows in
ascending t and columns in ascending |lambda| (input in another order is
permuted, and the permutation undone), the 2F1 cells of a row are the
columns left of one split column, which does not grow with t.  On either
route a cell is a power series in one row variable times a table over
lambda: x = e^(-2t) with c(lambda) Gamma_k(lambda), or w = tanh^2 t with the
2F1 coefficients C_k(lambda) of the Pfaff form.  Each row keeps its own
number of terms, a multiple of 8, so the rows that share it are a few runs,
and a block of at most `_BLOCK_SIZE` cells of a run is one real matrix
product written to a contiguous slice of the output.  Real lambda takes
2 Re of the Harish-Chandra term at lambda; complex lambda sums the terms at
lambda and -lambda.  The scalar `jacobi_phi`, the dense `phi_matrix`,
`laplacian_residual` and the local expansion all call `_phi`.

The 2F1 term count is the envelope rule `specfun._series_terms`.  The
Harish-Chandra side has two rules, both from one envelope
E_k >= max over real lambda of |Gamma_k(lambda)|, computed (about 2 ms) the
first time a process needs it for a parameter pair and shared by every equal
`JacobiParameters` (`_HarishChandraRules`):
* a row at t sums K terms, K the first multiple of 8 where
  E_K e^(-2Kt) < 2^-53 (at least max(12, ceil(27 / t)), rounded up, for
  complex lambda), so K grows with alpha: at t = 0.5 it is 48 at the generic
  preset and 128 at (15, 5);
* the switch t_s(alpha, beta) is the least t >= 1 at which no term
  E_k e^(-2kt) exceeds 2, at most 2, so the Harish-Chandra sum cancels
  little from t_s on: 1 at the generic, damek-ricci-like, h3 and h5
  presets and at (3, 1) and (4, 2), about 1.45 at (6, 2) and 2 at (15, 5).
Neither depends on the grid, so a cell's route and term count do not depend
on its batch.

Width one: where the lambda side is one column (`jacobi_phi` at real
lambda, a 1 x 1 `phi_matrix`, `laplacian_residual`), the Gamma_k recurrence
runs on Python complex numbers (`_gamma_recurrence`), the same step
`_gamma_step` as the numpy rows of a wider table, at a few microseconds a
term less.  Its table may differ from the same column of a wider one in the
last bits (up to 2.7e-15 relative in a scan of five (alpha, beta), lambda
<= 60 and k <= 64), as Python's complex products round apart from numpy's;
`jacobi_phi` still equals a 1 x 1 `phi_matrix`, as both are width one, and
every wider path keeps its bits.

For real lambda both routes need e^(i lambda theta), at theta = t and at
theta = log cosh t.  A spectral grid repeats one gap pattern, every node a
panel-group start plus a shared offset, so `_PhaseTable` takes these phases
from per-row tables of the starts and the offsets, carrying the rounding
residual to first order, and a row costs 2 (starts + offsets) sines and
cosines instead of 2 per cell.  A lambda array without such a pattern (a
scalar, a short or an irregular array) takes the direct cos and sin.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import complex_array, complex_number, is_count, loglog_slope, real_array, real_number, to_double
from .errors import DomainError, OverflowLimitError, ParameterError, PoleError
from .specfun import _TINY, _gamma_alpha_plus_one, _series_terms, _term_ratio, bessel_script_J, gamma_ratio, hyp2f1_real_arg

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
# when t <= t_s(alpha, beta) and |lambda| <= _LAMT_SWITCH / t, the
# Harish-Chandra series otherwise.  Beyond |lambda| t = 12 the 2F1 series
# loses too many digits to oscillatory cancellation; t_s is where the
# Harish-Chandra terms stop cancelling (see `_HarishChandraRules`), at most
# _T_CAP and at least _T_FLOOR, set where a scalar Harish-Chandra cell below
# it cost more than a 2F1 one (on the pointwise benchmark); since the
# width-one Gamma_k recurrence the two cost about the same.
_T_FLOOR = 1.0
_T_CAP = 2.0
_LAMT_SWITCH = 12.0
_LAMBDA_FLOOR = 1e-12  # HC route regularization near the c-function pole at 0
_GAMMA_CAP = 1e100
_HC_MAX_TERMS = 800
# Gamma_k(lambda) is tabulated to _ENVELOPE_TERMS at these lambda (its
# maximum over the real line sits at lambda = 0 in every case measured), and
# continued past that by the power law of its growth
_ENVELOPE_TERMS = 128
_ENVELOPE_LAMBDA = np.array([0.0, 0.25, 1.0, 4.0, 16.0, 64.0])
_BLOCK_SIZE = 16384  # cells of one block of a phi matrix, so that its working arrays stay in cache
# e^(-rho t) falls below the smallest normal double (2.2e-308) beyond this.
_RHO_T_MAX = 708.0
# The splitting radius: the local expansion holds on (0, R0], and the cutoffs
# of the kernel splitting switch over on [sqrt(R0), R0] and [1/R0, 2/R0].
_R0 = 1.1
_RESIDUAL_STEP = 1e-3  # the step h of laplacian_residual's five-point stencil
# the numerator shifts of the two Gamma ratios of c(lambda), Gamma(z)/Gamma(z + rho/2)
# and Gamma(z + 1/2)/Gamma(z + (alpha - beta + 1)/2)
_C_NUMERATOR_SHIFTS = np.array([[0.0], [0.5]])
_EXCEPTIONAL = "lambda lies in the exceptional set of the Harish-Chandra recurrence"


def _hypergeometric_route(params, lam, t):
    """True where phi_lambda(t) takes the 2F1 route; even in lambda, broadcasts."""
    return (t <= params._hc_rules.t_switch) & (np.abs(lam) <= _LAMT_SWITCH / t)


@dataclass(frozen=True)
class JacobiParameters:
    """The parameter triple (alpha, beta, rho = alpha + beta + 1).

    Requires alpha > 1/2 and alpha > beta > -1/2.  The boundary value
    alpha = 1/2 (used by the closed-form test preset) is accepted only with
    relaxed=True and emits a warning.  alpha and beta are stored as floats;
    one that is not a finite real number raises ParameterError naming it.
    """

    alpha: float
    beta: float
    relaxed: bool = False
    rho: float = field(init=False)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            x = getattr(self, name)
            if not isinstance(x, numbers.Real):
                raise ParameterError(f"JacobiParameters requires a real {name}, got {name} = {x!r}")
            x = to_double("JacobiParameters", name, x, ParameterError)
            if math.isnan(x):
                raise ParameterError(f"NaN Jacobi parameter {name}")
            if math.isinf(x):
                raise ParameterError(f"JacobiParameters requires a finite {name}, got {name} = {x}")
            object.__setattr__(self, name, x)
        a, b = self.alpha, self.beta
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
        object.__setattr__(self, "rho", a + b + 1.0)

    @cached_property
    def _hc_rules(self):
        """The route switch and the Harish-Chandra term counts of this pair,
        built on first use and shared by every equal JacobiParameters."""
        return _shared_rules(self)


def weight_density(params: JacobiParameters, t):
    """Weight Delta(t) = (2 sinh t)^(2a+1) (2 cosh t)^(2b+1), t > 0.

    Raises OverflowLimitError naming alpha, beta and the least t given where
    Delta(t) exceeds the largest double (about 2 rho t > 709).
    """
    t_arr = real_array("weight_density", "t", t)
    if np.any(t_arr <= 0.0):
        raise DomainError("weight_density requires t > 0")
    with np.errstate(over="ignore"):
        out = (2.0 * np.sinh(t_arr)) ** (2.0 * params.alpha + 1.0) * (
            2.0 * np.cosh(t_arr)
        ) ** (2.0 * params.beta + 1.0)
    if not np.all(np.isfinite(out)):
        raise OverflowLimitError(
            f"weight_density: Delta(t) overflows a double at t = {np.min(t_arr[~np.isfinite(out)]):.6g} "
            f"(alpha = {params.alpha:g}, beta = {params.beta:g})"
        )
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
    b_m = 2[(2a+1) + (-1)^m (2b+1)].  k_max may also be a non-decreasing
    array, one depth per lambda: column j is formed to k = k_max[j], with the
    bits a full column would have, and is zero past it.
    """
    table = _gamma_recurrence(params, np.atleast_1d(np.asarray(lam, dtype=complex)), k_max)
    if not (np.abs(table) <= _GAMMA_CAP).all():
        raise OverflowLimitError("|Gamma_k| exceeded 1e100")
    return table


def _gamma_recurrence(params, lam, k_max):
    """`gamma_coefficient_table` on a 1-D complex lambda array, without its 1e100 cap.

    One lambda runs `_gamma_step` on Python complex numbers, many run it on
    numpy rows; the two may differ in the last bits, as numpy's complex
    products round differently from Python's.
    """
    # b_m alternates between two values, so sum_{m=1}^{k} b_m w_{k-m} is
    # 2(2a+1) P_k + 2(2b+1) Q_k with P_k = sum_{j<k} w_j, Q_k = sum_{j<k} (-1)^(k-j) w_j
    ca = 2.0 * (2.0 * params.alpha + 1.0)
    cb = 2.0 * (2.0 * params.beta + 1.0)
    if lam.size == 1:
        il = 1j * complex(lam[0])
        slope = il - params.rho
        value, p_sum, q_sum = 1.0 + 0.0j, 0.0j, 0.0j
        column = [value]
        for k in range(1, int(np.max(k_max)) + 1):
            gap = k - il
            if abs(gap) < 1e-10:
                raise DomainError(_EXCEPTIONAL)
            value, p_sum, q_sum = _gamma_step(ca, cb, slope, k, value, p_sum, q_sum, gap * (-4.0 * k))
            column.append(value)
        return np.array(column)[:, None]
    depth = np.broadcast_to(k_max, lam.shape)
    top = int(depth.max(initial=0))
    il = 1j * lam
    gaps = np.arange(1, top + 1)[:, None] - il
    if np.any(np.abs(gaps) < 1e-10):
        raise DomainError(_EXCEPTIONAL)
    table = np.zeros((top + 1, lam.size), dtype=complex)
    table[0] = 1.0
    gaps *= -4.0 * np.arange(1, top + 1)[:, None]  # now the denominators -4k(k - i lambda)
    slope = il - params.rho  # s_0; w_k = s_k Gamma_k
    p_sum = q_sum = np.zeros(lam.size, dtype=complex)
    start = np.searchsorted(depth, np.arange(top + 1)).tolist()  # the columns formed to k are those from start[k] on
    rows = table
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, top + 1):
            if start[k] > start[k - 1]:
                cut = start[k] - start[k - 1]
                slope, p_sum, q_sum, gaps, rows = (x[..., cut:] for x in (slope, p_sum, q_sum, gaps, rows))
            rows[k], p_sum, q_sum = _gamma_step(ca, cb, slope, k, rows[k - 1], p_sum, q_sum, gaps[k - 1])
    return table


def _gamma_step(ca, cb, slope, k, previous, p_sum, q_sum, gap):
    """(Gamma_k, P_k, Q_k) from Gamma_(k-1), P_(k-1) and Q_(k-1), gap = -4k(k - i lambda)."""
    weighted = (slope - 2.0 * (k - 1)) * previous
    p_sum = p_sum + weighted
    q_sum = -q_sum - weighted
    return (ca * p_sum + cb * q_sum) / gap, p_sum, q_sum


class _HarishChandraRules:
    """The Harish-Chandra term counts and the route switch t_s of one (alpha, beta).

    Both come from one envelope E_k >= max over real lambda of |Gamma_k(lambda)|:
    the maximum of |Gamma_k| over `_ENVELOPE_LAMBDA` up to k = _ENVELOPE_TERMS
    (or the last k below _GAMMA_CAP), and past it E_k grows as (1 + k)^d,
    d = max(2 alpha - 1, the log-log slope of its last octave).  Gamma_k grows
    as k^(2 alpha - 1), the order of the singularity of the Harish-Chandra
    series at t = 0 (Gangolli's bound C (1 + k)^d); the slope reaches
    2 alpha - 1 from below for large alpha and from above near alpha = 1/2, so
    d does not fall short of it past the table.

    * A row at t takes K = the first multiple of 8 where E_K e^(-2Kt) < 2^-53;
      the envelope E_k e^(-2kt) rises to one peak and falls, so K is past the
      peak.  `ladder[m - 1]` is the least t at which the multiples 8m, 8m + 8,
      ... up to _HC_MAX_TERMS all pass, non-increasing in m.
    * t_s is the least t >= _T_FLOOR with max_k E_k e^(-2kt) <= 2, at most
      _T_CAP: from t_s on no Harish-Chandra term exceeds twice the leading one,
      so the sum cancels little.  Here the k = 1 term decides it,
      Gamma_1(0) = (alpha - beta) rho: t_s is _T_FLOOR at the generic,
      damek-ricci-like, h3 and h5 presets and at (3, 1) and (4, 2)
      (1/2 log 5 = 0.80 and 1/2 log 7 = 0.97), 1/2 log 18 = 1.45 at (6, 2)
      and _T_CAP at (15, 5).
    """

    def __init__(self, params):
        with np.errstate(divide="ignore"):
            table = np.log(np.abs(_gamma_recurrence(params, _ENVELOPE_LAMBDA.astype(complex), _ENVELOPE_TERMS)))
        log_env = table.max(axis=1)
        top = np.argmin(np.r_[log_env <= math.log(_GAMMA_CAP), False]) - 1  # the last k of the table kept
        log_env = log_env[: top + 1]
        slope = 2.0 * params.alpha - 1.0
        if top >= 2:
            slope = max(slope, (log_env[top] - log_env[top // 2]) / math.log((1.0 + top) / (1.0 + top // 2)))
        k = np.arange(1, _HC_MAX_TERMS + 1)
        self.log_envelope = np.r_[log_env, log_env[top] + slope * np.log((1.0 + k[top:]) / (1.0 + top))]
        need = (self.log_envelope[1:] - math.log(2.0)) / (2.0 * k)
        self.t_switch = float(min(max(_T_FLOOR, need.max()), _T_CAP))
        ladder = (self.log_envelope[8::8] + 53.0 * math.log(2.0)) / (2.0 * k[7::8])
        self.ladder = np.maximum.accumulate(ladder[::-1])[::-1]


@functools.lru_cache(maxsize=256)
def _shared_rules(params):
    """The `_HarishChandraRules` of params, one object per parameter pair among
    the last 256 a process used (about 7 kB each)."""
    return _HarishChandraRules(params)


def gangolli_fit(params, k_max, lambda_set):
    """Envelope constants (C, d) with |Gamma_k(lambda)| <= C (1+k)^d.

    d is the least-squares log-log slope of max_lambda |Gamma_k| against 1+k,
    C the smallest constant making the bound hold on every computed sample.
    k_max is at most 800, the most terms any phi row sums.
    """
    if not (is_count(k_max, 16) and k_max <= _HC_MAX_TERMS):
        raise ParameterError(f"gangolli_fit requires an integer k_max >= 16 and k_max <= {_HC_MAX_TERMS}, not {k_max!r}")
    lams = complex_array("gangolli_fit", "lambda_set", lambda_set)
    if not lams.size:
        raise DomainError("gangolli_fit requires a non-empty lambda_set")
    table = gamma_coefficient_table(params, lams, k_max)
    mags = np.abs(table)
    k = np.arange(k_max + 1)
    peak = np.maximum(mags.max(axis=1), 1e-300)
    d_fit, _ = loglog_slope(1.0 + k[1:], peak[1:])
    d_fit = max(d_fit, 0.0)
    env = mags / ((1.0 + k) ** d_fit)[:, None]
    return float(np.max(env)), float(d_fit)


def _hc_terms(params, t, real):
    """Harish-Chandra terms K per node from the envelope rule of `_HarishChandraRules`, at most 800.

    Complex lambda takes at least max(12, ceil(27 / t)) rounded up to a
    multiple of 8, since the envelope bounds Gamma_k on the real line only.
    """
    ladder = params._hc_rules.ladder
    k = 8 * (1 + (-ladder).searchsorted(-t, side="right"))
    if not real:
        k = np.maximum(k, -(-np.maximum(12, np.ceil(27.0 / t)).astype(int) // 8) * 8)
    if k.max() > _HC_MAX_TERMS:
        raise DomainError(
            f"Harish-Chandra truncation would exceed {_HC_MAX_TERMS} terms (t = {np.min(t):.3g})"
        )
    return k


class _PhaseTable:
    """e^(i lambda_j theta_i) over rows theta and columns lambda.

    A lambda array that repeats one gap pattern is the sum of Q offsets and
    S = size / Q starts, lambda[p Q + q] = sigma_p + xi_q + r_pq with
    xi_q = lambda[q], sigma_p = lambda[p Q] - lambda[0] and a residual r_pq of
    rounding size.  Of the divisors Q of the size, the one with the fewest
    table entries S + Q (then the fewest starts) whose residual keeps
    |r| theta_max <= 2^-26 is taken, and only where S + Q is at most a quarter
    of the size.  A row then takes 2 (S + Q) sines and cosines, and each cell
    two products, by e^(i xi_q theta) and by e^(i sigma_p theta), and the
    residual to first order, e^(i r theta) = 1 + i r theta: the dropped term
    is below 2^-53.  Any other lambda array (irregular or short) takes the
    direct cos and sin of the (rows x columns) phase.
    """

    def __init__(self, lam, theta_max):
        self.lam = lam
        self.q = None
        n = lam.size
        for q in sorted((q for q in range(1, n + 1) if n % q == 0), key=lambda q: (n // q + q, n // q)):
            if 4 * (n // q + q) > n:
                break
            grid = lam.reshape(-1, q)
            start = grid[:, 0] - lam[0]
            resid = grid - start[:, None] - lam[:q]
            if np.max(np.abs(resid)) * theta_max <= 2.0**-26:
                self.q, self.start, self.resid = q, start, resid.ravel()
                break

    def real_part(self, s, theta, c0):
        """Re(s e^(i lambda theta)) over the columns c0, c0 + 1, ... of s, overwriting s.

        s is complex (theta x columns); with a pattern, c0 and the number of
        columns are multiples of Q.
        """
        theta = theta[:, None]
        cols = slice(c0, c0 + s.shape[1])
        if self.q is None:
            s *= _cis(theta * self.lam[cols])
            return s.real
        q = self.q
        by_start = s.reshape(s.shape[0], -1, q)
        by_start *= _cis(theta * self.lam[:q])[:, None, :]
        by_start *= _cis(theta * self.start[c0 // q : cols.stop // q])[:, :, None]
        value = theta * self.resid[cols]
        value *= s.imag
        return np.subtract(s.real, value, out=value)


def _cis(phase):
    """cos(phase) + i sin(phase)."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _row_blocks(k_row, width):
    """Blocks [r0, r1) of consecutive rows that share a K, of at most _BLOCK_SIZE cells.

    Row i spans width[i] columns, monotone in i, so a run of rows is as wide
    as its first or its last row.
    """
    edges = [0, *(np.flatnonzero(k_row[1:] != k_row[:-1]) + 1).tolist(), k_row.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        step = max(1, _BLOCK_SIZE // int(max(width[lo], width[hi - 1])))
        for r0 in range(lo, hi, step):
            yield r0, min(r0 + step, hi)


def _product(powers, table):
    """powers @ table, a lone row taken as a block of two.

    BLAS sums a one-row product (a matrix-vector product) in another order
    than a block's, so a row alone would not match its row of a matrix to
    the bit.
    """
    if powers.shape[0] > 1:
        return powers @ table
    return (np.repeat(powers, 2, axis=0) @ table)[:1]


def _harish_chandra(params, t, lam, split, out):
    """Write the Harish-Chandra sum for phi_lambda(t) into row i of out from column split[i] on.

    The table c(lambda) Gamma_k(lambda) holds real columns (Re and Im of
    lambda, and of -lambda for complex lambda, side by side).  Row i sums
    the columns from first[i], its split aligned down to the phase period, on;
    first and K fall with t, so column j is summed by the last rows, and only
    to the K of the first of them, which grows with j: the table is formed
    that far, a staircase.  A block writes out[r0:r1, c0:],
    c0 its least first, as S = [x^0 ... x^K] @ table, then
    2 e^(-rho t) Re(e^(i lambda t) S) for real lambda and the sum of
    e^((+-i lambda - rho) t) S for complex lambda; the 2F1 route overwrites
    the cells left of the split.
    """
    real = not np.iscomplexobj(lam)
    lam_pm = lam if real else np.stack([lam, -lam], axis=-1).ravel()
    n, m = lam.size, lam_pm.size // lam.size  # m values of lambda per column
    k_row = _hc_terms(params, t, real)
    phase = _PhaseTable(lam, t[-1]) if real else None
    q = (phase.q or 1) if real else 1  # the blocks start at multiples of the period
    first = split // q * q
    k_col = np.concatenate([k_row, [0]])[(-first).searchsorted(-np.arange(n))]  # the K of the first row to sum column j
    table = gamma_coefficient_table(params, lam_pm, k_col if m == 1 else np.repeat(k_col, m))
    table *= c_function(params, lam_pm)
    table = table.view(float)
    with np.errstate(under="ignore"):
        for r0, r1 in _row_blocks(k_row, n - first):
            tb, c0, k = t[r0:r1], first[r1 - 1], k_row[r0]
            powers = np.exp((-2.0 * tb)[:, None] * np.arange(k + 1))
            s = _product(powers, table[: k + 1, 2 * m * c0 :]).view(complex)
            if real:
                np.multiply(phase.real_part(s, tb, c0), 2.0 * np.exp(-params.rho * tb)[:, None], out=out[r0:r1, c0:])
            else:
                s *= np.exp((1j * lam_pm[2 * c0 :] - params.rho) * tb[:, None])
                np.add(s[:, 0::2], s[:, 1::2], out=out[r0:r1, c0:])


def _coefficients(a, cb, c, k_tab):
    """C_k(lambda) = prod_(j<k) r_j(lambda) for k <= k_tab[j] in column j, zero below.

    k_tab is non-increasing, so the columns that reach a depth are a prefix.
    """
    table = np.zeros((k_tab[0] + 1, k_tab.size), dtype=complex)
    table[0] = 1.0
    edges = np.unique(k_tab)
    for lo, hi in zip(np.r_[0, edges[:-1]], edges):
        m = np.count_nonzero(k_tab >= hi)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = _term_ratio(a[:m], cb[:m], c, np.arange(lo, hi)[:, None])
            table[lo + 1 : hi + 1, :m] = np.cumprod(ratio, axis=0) * table[lo, :m]
    return table


def _hypergeometric(params, t, lam, split, out):
    """Write (cosh t)^(i lambda - rho) 2F1(a, c - b; c; tanh^2 t) into row i of out left of column split[i].

    Row i takes K_i terms by `specfun._series_terms` on its top column
    split[i] - 1, where |C_k(lambda)| is largest on the real line.  Column j
    is summed by the first rows, and its C_k(lambda) are formed only to the
    largest K of them (a reverse running maximum, which does not grow with
    j): one staircase table, as on the Harish-Chandra side.  A block is one
    product over the columns left of its largest split, written where each
    row routes.  A column whose C_k leave the doubles (|lambda| past about
    1e6, at t below about 1e-5) takes `specfun.hyp2f1_real_arg`; there |C_k|
    rises through every K, and a non-finite C_k stays non-finite down its
    column, so the column's deepest formed entry tells.
    """
    a, b, c = _phi_params(params, lam)
    n = lam.size
    w = np.tanh(t) ** 2
    k_row = _series_terms(a[split - 1], (c - b)[split - 1], c, 2.0 * np.log(np.tanh(t)))
    routed = np.searchsorted(-split, -np.arange(n))  # the rows routed to column j are the first routed[j]
    k_col = np.r_[0, np.maximum.accumulate(k_row)][routed]  # the largest K of those rows
    theta = np.log(np.cosh(t))
    phase = _PhaseTable(lam, theta[-1]) if np.isrealobj(lam) else None
    q = (phase.q or 1) if phase is not None else 1  # the blocks end at multiples of the period
    table = _coefficients(a, c - b, c, k_col)
    fallback = ~np.isfinite(table[k_col, np.arange(n)])
    table[:, fallback] = 0.0
    table = table.view(float)
    end = np.minimum(-(-split // q) * q, n)

    for r0, r1 in _row_blocks(k_row, end):
        k, c1, tb = k_row[r0], end[r0], theta[r0:r1]
        # w^k to an ulp; e^(k log w) would round k log w, an error that the
        # cancelling terms at large lambda t amplify
        powers = w[r0:r1, None] ** np.arange(k + 1)
        s = _product(powers, table[: k + 1, : 2 * c1]).view(complex)
        if phase is not None:
            value = phase.real_part(s, tb, 0)
            value *= np.exp(-params.rho * tb)[:, None]
        else:
            value = s * np.exp(np.multiply.outer(tb, 1j * lam[:c1] - params.rho))
        np.copyto(out[r0:r1, :c1], value, where=(np.arange(c1) < split[r0:r1, None]) & ~fallback[:c1])
    for col in np.flatnonzero(fallback):
        rows = routed[col]
        value = hyp2f1_real_arg(a[col], (c - b)[col], c, w[:rows]) * np.exp((1j * lam[col] - params.rho) * theta[:rows])
        out[:rows, col] = value.real if phase is not None else value


def _require_rho_t(params, t, what, power=1):
    """OverflowLimitError naming rho t where e^(power rho |t|) passes e^708,
    so that it or its reciprocal leaves the normal doubles, for a finite t.
    Call it before forming the exponential."""
    rho_t = params.rho * float(np.abs(t).max(initial=0.0))
    if power * rho_t > _RHO_T_MAX:
        factor = "" if power == 1 else f"{power:g} "
        raise OverflowLimitError(
            f"{what}: rho t = {rho_t:.6g} exceeds {_RHO_T_MAX / power:g}; "
            f"e^({factor}rho t) leaves the normal doubles past e^{_RHO_T_MAX:g}"
        )


def _route_split(params, t, mag):
    """Per row of ascending t, how many columns of ascending |lambda| take the 2F1 route.

    Cell for cell as `_hypergeometric_route`, which compares |lambda| with the
    same rounded 12 / t that the search does.
    """
    split = np.searchsorted(mag, _LAMT_SWITCH / t, side="right")
    split[t > params._hc_rules.t_switch] = 0
    return split


def _phi(params, t, lam, hypergeometric=None):
    """phi_lambda(t) on the grid of 1-D arrays t > 0 (rows) x lambda (columns).

    Each cell takes the route `_hypergeometric_route` picks, or the one that
    hypergeometric=True/False forces, which keeps finite-difference stencils
    on a single branch.  Real lambda (complex lambda with zero imaginary part
    included) gives a real matrix, evaluated at |lambda| with 2 Re of the
    Harish-Chandra term; complex lambda sums the terms at lambda and -lambda.
    Raises OverflowLimitError where rho t > 708, since phi then underflows.
    """
    _require_rho_t(params, t, "phi_lambda(t)")
    real = not (np.iscomplexobj(lam) and lam.imag.any())
    lam = np.abs(np.real(lam)) if real else lam
    out = np.empty((t.size, lam.size), dtype=float if real else complex)
    if not out.size:
        return out
    mag = lam if real else np.abs(lam)
    # a stable ascending order of t and of |lambda|, or None where they are sorted already
    rows, cols = (None if (x[:-1] <= x[1:]).all() else np.argsort(x, kind="stable") for x in (t, mag))
    t = t if rows is None else t[rows]
    lam, mag = (lam, mag) if cols is None else (lam[cols], mag[cols])
    if hypergeometric is None:
        split = _route_split(params, t, mag)
    else:
        split = np.full(t.size, lam.size if hypergeometric else 0)

    hc = np.count_nonzero(split == lam.size)  # the split does not grow, so the first Harish-Chandra row
    if hc < t.size:
        # c(lambda) has a pole at 0, where the two terms cancel: below the
        # floor, Re lambda moves to the floor and Im lambda stays
        lam_hc = lam if mag[0] >= _LAMBDA_FLOOR else np.where(mag < _LAMBDA_FLOOR, lam - lam.real + _LAMBDA_FLOOR, lam)
        _harish_chandra(params, t[hc:], lam_hc, split[hc:], out[hc:])
    top = np.count_nonzero(split)  # past the last 2F1 row
    if top:
        _hypergeometric(params, t[:top], lam, split[:top], out[:top])

    if rows is not None:
        out[rows] = out.copy()
    if cols is not None:
        out[:, cols] = out.copy()
    return out


def jacobi_phi(params, lam, t):
    """The Jacobi function phi_lambda(t) at one complex lambda and real t >= 0.

    Raises OverflowLimitError where rho t > 708, since phi then underflows.
    """
    lam = complex_number("jacobi_phi", "lambda", lam)
    t = real_number("jacobi_phi", "t", t)
    if t < 0.0:
        raise DomainError("jacobi_phi requires t >= 0")
    a, b, _ = _phi_params(params, lam)
    if t == 0.0 or abs(a) <= 1e-15 or abs(b) <= 1e-15:
        return 1.0 + 0.0j  # phi_lambda(0) = 1; at lambda = +-i rho the series is 1
    return complex(_phi(params, np.array([t]), np.array([lam]))[0, 0])


def phi_matrix(params, t_nodes, lam_nodes):
    """Dense matrix phi_lambda(t) over 1-D grids t_nodes x lam_nodes.

    Real lambda gives a real matrix; complex lambda nodes (as for phi on a
    shifted contour) give a complex one.
    """
    t_nodes = real_array("phi_matrix", "t", t_nodes)
    lam_nodes = complex_array("phi_matrix", "lambda", lam_nodes)
    for name, nodes in (("t_nodes", t_nodes), ("lam_nodes", lam_nodes)):
        if nodes.ndim != 1:
            raise DomainError(f"phi_matrix requires 1-D {name}, got {nodes.ndim}-D")
    if np.any(t_nodes <= 0.0):
        raise DomainError("phi_matrix requires t > 0")
    return _phi(params, t_nodes, lam_nodes)


def laplacian_residual(params, lam, t):
    """Residual of the eigen-equation at (lambda, t) by central differences.

    |phi'' + ((2a+1) coth t + (2b+1) tanh t) phi' + (lambda^2 + rho^2) phi|,
    with the fourth-order five-point stencil t - 2h, ..., t + 2h at the step
    h = 1e-3, evaluated on the route of its centre, so branch switching
    cannot pollute it.  Its truncation error is O(h^4), so the residual sits
    near the rounding floor of phi'' (about 1e-16 / h^2) rather than above it.
    """
    h = _RESIDUAL_STEP
    t = real_number("laplacian_residual", "t", t)
    if not t > 2.0 * h:
        raise DomainError("laplacian_residual requires t > 2h > 0")
    lam = complex_number("laplacian_residual", "lambda", lam)
    route = bool(_hypergeometric_route(params, lam, t))
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

    By the duplication formula for Gamma(i lambda) (DLMF 5.5.5), with
    z = i lambda / 2 this is 2^(rho - 1) pi^(-1/2) Gamma(alpha + 1) times the
    ratios Gamma(z)/Gamma(z + rho/2) and Gamma(z + 1/2)/Gamma(z + (alpha - beta + 1)/2),
    both taken from one `specfun.gamma_ratio` call as e^L F, so the Gammas never leave
    log space.  c is exactly 0 at the poles of its denominator.  Raises
    OverflowLimitError where a nonzero c leaves the normal doubles (alpha past
    about 500, or |lambda| past about 1e150).
    """
    lam_arr = complex_array("c_function", "lambda", lam)
    z = 0.5j * lam_arr.reshape(-1)
    shifts = np.array([[0.5 * params.rho], [0.5 * (params.alpha - params.beta + 1.0)]])
    (l1, l2), (f1, f2) = gamma_ratio(z, _C_NUMERATOR_SHIFTS, shifts)
    log_const = math.lgamma(params.alpha + 1.0) + (params.rho - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
    zero = (f1 == 0.0) | (f2 == 0.0)
    with np.errstate(all="ignore"):
        out = np.where(zero, 0.0, np.exp(log_const + l1 + l2) * f1 * f2)
        bad = ~(zero | (np.abs(out) >= _TINY) & np.isfinite(out))
    if bad.any():
        raise OverflowLimitError(
            f"c_function: c(lambda) leaves the normal doubles at lambda = "
            f"{complex(lam_arr.reshape(-1)[bad][0]):.6g}, alpha = {params.alpha:g}"
        )
    return complex(out[0]) if lam_arr.ndim == 0 else out.reshape(lam_arr.shape)


def plancherel_density(params, lam):
    """d(lambda) = |c(lambda)|^(-2) for real lambda != 0."""
    lam_arr = real_array("plancherel_density", "lambda", lam)
    if np.any(lam_arr == 0.0):
        raise PoleError("plancherel density undefined at lambda = 0")
    out = 1.0 / np.abs(c_function(params, lam_arr.astype(complex))) ** 2
    return float(out) if lam_arr.ndim == 0 else out


def c_asymptotics_report(params, lambda_list):
    """Asymptotic diagnostics of the c-function along an increasing real grid.

    Per lambda: d(lambda)/lambda^(2a+1) (converges), a scaled finite-difference
    derivative d'(lambda) (1+lambda)^(2a) normalization (stays bounded), and
    |c'(lambda)/c(lambda)| * lambda (stays bounded).
    """
    lams = real_array("c_asymptotics_report", "lambda_list", lambda_list)
    if not (lams.size and np.all(np.diff(lams) > 0) and lams[0] >= 1.0):
        raise DomainError("lambda_list must be non-empty and increasing with min >= 1")
    expo = 2.0 * params.alpha + 1.0
    h = 1e-5 * lams
    c = c_function(params, np.stack([lams, lams + h, lams - h]))
    d = 1.0 / np.abs(c) ** 2
    dp = (d[1] - d[2]) / (2 * h)
    cp = (c[1] - c[2]) / (2 * h)
    return [
        {
            "lambda": float(lam),
            "d_ratio": float(d[0, i] / lam**expo),
            "d_prime_scaled": float(dp[i] / (1.0 + lam) ** (2.0 * params.alpha)),
            "logderiv_scaled": float(abs(cp[i] / c[0, i]) * lam),
        }
        for i, lam in enumerate(lams)
    ]


def _local_expansion_prefactor(params):
    # Normalization fixing truncation -> 1 as t -> 0 at lambda = 0.
    return 2.0 ** (params.rho + params.alpha) * _gamma_alpha_plus_one(params.alpha)


def bessel_local_expansion(params, lam, t, M):
    """M-term Bessel-series truncation of phi_lambda near t = 0, with residual.

    M counts the kept terms (1 or 2); the residual for M = 2 is the analogue
    of the quartic-order error term of the two-term expansion.  Returns
    (truncation value, residual phi - truncation).
    """
    lam = real_number("bessel_local_expansion", "lambda", lam)
    t = real_number("bessel_local_expansion", "t", t)
    if not 0.0 < t <= _R0:
        raise DomainError(f"bessel_local_expansion requires 0 < t <= R0 = {_R0:g}")
    if not (is_count(M) and M <= 2):
        raise ParameterError(f"M must be 1 or 2, not {M!r}")
    c_a = _local_expansion_prefactor(params)
    base = c_a * t ** (params.alpha + 0.5) / math.sqrt(weight_density(params, t))
    value = base * bessel_script_J(params.alpha, abs(lam) * t)
    if M == 2:
        # a_1 in closed form: u = sqrt(Delta) phi solves
        # u'' + (lambda^2 - (alpha^2 - 1/4)/sinh^2 t + (beta^2 - 1/4)/cosh^2 t) u = 0,
        # and e_l = t^(alpha + 1/2 + 2l) bessel_script_J(alpha + l, lambda t)
        # solves e_l'' + (lambda^2 - (alpha^2 - 1/4)/t^2) e_l = 2l e_(l-1), so
        # matching e_0 against the rest of the potential at t = 0 gives a_1
        a1 = -(params.alpha**2 - 0.25) / 6.0 - (params.beta**2 - 0.25) / 2.0
        value += base * a1 * t * t * bessel_script_J(params.alpha + 1.0, abs(lam) * t)
    phi = jacobi_phi(params, lam, t).real
    return value, phi - value
