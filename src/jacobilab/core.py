"""Jacobi functions, the weight density, the c-function, and expansions.

The Jacobi function phi_lambda is evaluated through two independent routes:

* the hypergeometric route, 2F1 with argument -sinh^2 t (Pfaff-transformed
  for t > 0), which is numerically sound while |lambda| * t stays moderate;
* the Harish-Chandra route, c(lambda) e^((i lambda - rho) t) sum Gamma_k
  e^(-2kt) plus the lambda -> -lambda term, which is sound for t bounded
  away from 0.

Every phi value comes from one evaluator, `_phi`, over a grid of t x lambda
cells, each on the route that one rule (`_hypergeometric_route`) picks.  On
either route a cell is a power series in one row variable times a table over
lambda: x = e^(-2t) with c(lambda) Gamma_k(lambda), or w = tanh^2 t with the
2F1 coefficients C_k(lambda) of the Pfaff form.  One helper, `_power_sums`,
sums both: each row keeps its own number of terms (max(12, ceil(27 / t)) for
Harish-Chandra, the envelope rule `specfun._series_terms` for 2F1), and rows
that share it share one real matrix product per block of at most
`_BLOCK_SIZE` cells, over the columns that some row of the block routes
there.  Real lambda takes 2 Re of the Harish-Chandra term at lambda; complex
lambda sums the terms at lambda and -lambda.  The scalar `jacobi_phi`, the
dense `phi_matrix`, `laplacian_residual` and the local expansion all call
`_phi`.

For real lambda both routes need e^(i lambda theta), at theta = t and at
theta = log cosh t.  A spectral grid repeats one gap pattern, every node a
panel-group start plus a shared offset, so `_PhaseTable` takes these phases
from per-row tables of the starts and the offsets, carrying the rounding
residual to first order, and a row costs 2 (starts + offsets) sines and
cosines instead of 2 per cell.  A lambda array without such a pattern (a
scalar, a short, unsorted or irregular array) takes the direct cos and sin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import loglog_slope
from .errors import DomainError, OverflowLimitError, ParameterError, PoleError
from .specfun import _gamma_alpha_plus_one, _series_terms, _term_ratio, bessel_script_J, gamma_ratio, hyp2f1_real_arg

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
_BLOCK_SIZE = 16384  # cells of one block of a phi matrix, so that its working arrays stay in cache
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
        object.__setattr__(self, "rho", a + b + 1.0)


def weight_density(params: JacobiParameters, t):
    """Weight Delta(t) = (2 sinh t)^(2a+1) (2 cosh t)^(2b+1), t > 0.

    Raises OverflowLimitError naming alpha, beta and the least t given where
    Delta(t) exceeds the largest double (about 2 rho t > 709).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0.0) or np.any(np.isnan(t_arr)):
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


class _PhaseTable:
    """e^(i lambda_j theta_i) over rows theta and columns lambda.

    A lambda array that repeats one gap pattern is the sum of Q offsets and
    S = size / Q starts, lambda[p Q + q] = sigma_p + xi_q + r_pq with
    xi_q = lambda[q], sigma_p = lambda[p Q] - lambda[0] and a residual r_pq of
    rounding size.  Of the divisors Q of the size, the one with the fewest
    table entries S + Q (then the fewest starts) whose residual keeps
    |r| theta_max <= 2^-26 is taken, and only where S + Q is at most a quarter
    of the size.  A row then takes 2 (S + Q) sines and cosines, and each cell
    one product e^(i sigma_p theta) e^(i xi_q theta) and the residual to first
    order, e^(i r theta) = 1 + i r theta: the dropped term is below 2^-53.
    Any other lambda array (unsorted, irregular, or short) takes the direct
    cos and sin of the (rows x columns) phase.
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

    def __call__(self, theta, cols=slice(None)):
        """Complex (theta x lambda[cols]) array e^(i lambda theta); cols is a slice."""
        theta = theta[:, None]
        if self.q is None:
            return _cis(theta * self.lam[cols])
        q = self.q
        lo, hi, _ = cols.indices(self.lam.size)
        first = lo // q
        starts = _cis(theta * self.start[first : -(-hi // q)])
        offsets = _cis(theta * self.lam[:q])
        out = (starts[:, :, None] * offsets[:, None, :]).reshape(theta.size, -1)
        out = out[:, lo - first * q : hi - first * q]
        first_order = np.empty(out.shape, dtype=complex)  # e^(i r theta) to first order
        first_order.real = 1.0
        np.multiply(theta, self.resid[cols], out=first_order.imag)
        # out of place: a value does not depend on how many cells the call holds
        return out * first_order


def _cis(phase):
    """cos(phase) + i sin(phase)."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _column_span(mask):
    """The slice from the first to past the last column that holds a True."""
    used = mask.any(axis=0)
    return slice(int(used.argmax()), used.size - int(used[::-1].argmax()))


def _power_sums(powers, k_row, table, route):
    """Yield (block, cols, S) with S[i, j] = sum_(k <= K_i) table[k, j] x_i^k, read as complex.

    k_row is K per row (-1 leaves a row out), powers(block, k) the basis
    [x_i^0 ... x_i^k] of a block's rows, and table real, with a fixed number
    of real columns per column of the (rows x columns) mask route.  Rows that
    share a K take S as one real product per block of at most _BLOCK_SIZE
    cells, over the span of the columns some row of the block routes here.
    """
    for k in np.unique(k_row[k_row >= 0]):
        width = table.shape[1] // route.shape[1]  # real columns per column
        block_rows = max(1, _BLOCK_SIZE // (table.shape[1] // 2))
        same_k = np.flatnonzero(k_row == k)
        for lo in range(0, same_k.size, block_rows):
            block = same_k[lo : lo + block_rows]
            cols = _column_span(route[block])
            yield block, cols, (powers(block, k) @ table[: k + 1, width * cols.start : width * cols.stop]).view(complex)


def _harish_chandra(params, t, lam, out, rows, hc):
    """Write the Harish-Chandra sum for phi_lambda(t) into out[rows], where hc.

    Row i keeps its own truncation K = max(12, ceil(27 / t_i)).  The table
    c(lambda) Gamma_k(lambda) is built once, at the largest K, and held as
    real columns, Re and Im of each lambda side by side (complex lambda takes
    lambda and -lambda, side by side), and summed in x = e^(-2t) by
    `_power_sums`.  Real lambda gives phi = 2 e^(-rho t) Re(e^(i lambda t) S)
    with the phases from a `_PhaseTable`; complex lambda sums
    e^((+-i lambda - rho) t) S.
    """
    real = not np.iscomplexobj(lam)
    lam_pm = lam if real else np.stack([lam, -lam], axis=-1).ravel()
    k_row = _hc_terms(t)
    table = gamma_coefficient_table(params, lam_pm, int(k_row.max())) * c_function(params, lam_pm)
    phase = _PhaseTable(lam, t.max()) if real else None

    def powers(block, k):
        return np.exp(np.outer(-2.0 * t[block], np.arange(k + 1)))

    with np.errstate(under="ignore"):
        for block, cols, s in _power_sums(powers, k_row, table.view(float), hc):
            tb = t[block]
            if real:
                s *= phase(tb, cols)
                out[rows[block], cols] = 2.0 * np.exp(-params.rho * tb)[:, None] * s.real
            else:
                s *= np.exp((1j * lam_pm[2 * cols.start : 2 * cols.stop] - params.rho) * tb[:, None])
                out[rows[block], cols] = s[:, 0::2] + s[:, 1::2]


def _hypergeometric(params, t, lam, out, rows, on):
    """Write (cosh t)^(i lambda - rho) 2F1(a, c - b; c; tanh^2 t) into out[rows], where on.

    Row i takes K_i terms by `specfun._series_terms` on its routed column of
    largest |lambda|, where |C_k(lambda)| is largest on the real line.  Each
    column's C_k(lambda) = prod_(j<k) r_j(lambda) is formed only up to the
    largest K of its rows, in a short table over all columns and a tall one
    over the deeper columns (the split of least size), and summed in w by
    `_power_sums`.  A column whose C_k still leave the doubles (|lambda| past
    about 1e6, at t below about 1e-5) takes `specfun.hyp2f1_real_arg`.
    """
    a, b, c = _phi_params(params, lam)
    w = np.tanh(t) ** 2
    by_lam = np.argsort(-np.abs(lam), kind="stable")
    top = by_lam[on[:, by_lam].argmax(axis=1)]
    k_row = _series_terms(a[top], (c - b)[top], c, 2.0 * np.log(np.tanh(t)))
    row_order = np.argsort(-k_row, kind="stable")  # a column's K is that of its first routed row here
    k_col = np.where(on.any(axis=0), k_row[row_order[on[row_order].argmax(axis=0)]], 0)
    splits = [(k_col.max(), slice(0, 0))] + [(d, _column_span(k_col[None, :] > d)) for d in np.unique(k_col)[:-1]]
    depth, deep = min(splits, key=lambda s: (s[0] + 1) * lam.size + (k_col.max() + 1) * (s[1].stop - s[1].start))
    theta = np.log(np.cosh(t))
    phase = _PhaseTable(lam, theta.max()) if np.isrealobj(lam) else None

    def powers(block, k):
        # w^k to an ulp; e^(k log w) would round k log w, an error that the
        # cancelling terms at large lambda t amplify
        return w[block, None] ** np.arange(k + 1)

    def write(block, cols, s, where):
        tb = theta[block]
        if phase is not None:
            value = (s * phase(tb, cols)).real
            value *= np.exp(-params.rho * tb)[:, None]
        else:
            value = s * np.exp(np.multiply.outer(tb, 1j * lam[cols] - params.rho))
        out[rows[block], cols] = np.where(where, value, out[rows[block], cols])

    fallback = np.zeros(lam.size, dtype=bool)
    for cols, k_tab, k_sum in [  # the rows that sum a table keep their K, the others take -1
        (slice(0, lam.size), np.minimum(k_col, depth), np.where(k_row > depth, -1, k_row)),
        (deep, k_col[deep], np.where(k_row > depth, k_row, -1)),
    ]:
        table = np.zeros((k_tab.max(initial=0) + 1, k_tab.size), dtype=complex)
        table[0] = 1.0
        col_order = np.argsort(-k_tab, kind="stable")  # rows lo + 1 ... hi for the columns with K >= hi
        edges = np.unique(k_tab)
        for lo, hi in zip(np.r_[0, edges[:-1]], edges):
            need = col_order[: np.count_nonzero(k_tab >= hi)]
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = _term_ratio(a[cols][need], (c - b)[cols][need], c, np.arange(lo, hi)[:, None])
                table[lo + 1 : hi + 1, need] = np.cumprod(ratio, axis=0) * table[lo, need]
        finite = np.isfinite(table).all(axis=0)
        table[:, ~finite] = 0.0
        fallback[cols] |= ~finite
        for block, span, s in _power_sums(powers, k_sum, table.view(float), on[:, cols]):
            write(block, slice(cols.start + span.start, cols.start + span.stop), s, on[block, cols][:, span] & finite[span])
    for col in np.flatnonzero(fallback):
        cells = np.flatnonzero(on[:, col])
        write(cells, slice(col, col + 1), hyp2f1_real_arg(a[col], (c - b)[col], c, w[cells])[:, None], True)


def _require_finite(name, x):
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} must be finite")


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
        _harish_chandra(params, t[hc_rows], lam_hc, out, hc_rows, ~direct[hc_rows])

    rows = np.flatnonzero(np.any(direct, axis=1))
    if rows.size:
        _hypergeometric(params, t[rows], lam, out, rows, direct[rows])
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

    By the duplication formula for Gamma(i lambda) (DLMF 5.5.5), with
    z = i lambda / 2 this is 2^(rho - 1) pi^(-1/2) Gamma(alpha + 1) times the
    ratios Gamma(z)/Gamma(z + rho/2) and Gamma(z + 1/2)/Gamma(z + (alpha - beta + 1)/2),
    each taken from `specfun.gamma_ratio` as e^L F, so the Gammas never leave
    log space.  c is exactly 0 at the poles of its denominator.  Raises
    OverflowLimitError where a nonzero c leaves the normal doubles (alpha past
    about 500, or |lambda| past about 1e150).
    """
    lam_arr = np.asarray(lam, dtype=complex)
    _require_finite("lambda", lam_arr)
    z = 0.5j * lam_arr.reshape(-1)
    l1, f1 = gamma_ratio(z, 0.0, 0.5 * params.rho)
    l2, f2 = gamma_ratio(z, 0.5, 0.5 * (params.alpha - params.beta + 1.0))
    log_const = math.lgamma(params.alpha + 1.0) + (params.rho - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi)
    zero = (f1 == 0.0) | (f2 == 0.0)
    with np.errstate(all="ignore"):
        out = np.where(zero, 0.0, np.exp(log_const + l1 + l2) * f1 * f2)
    bad = ~zero & ~(np.isfinite(out) & (np.abs(out) >= np.finfo(float).tiny))
    if np.any(bad):
        raise OverflowLimitError(
            f"c_function: c(lambda) leaves the normal doubles at lambda = "
            f"{complex(lam_arr.reshape(-1)[bad][0]):.6g}, alpha = {params.alpha:g}"
        )
    return complex(out[0]) if lam_arr.ndim == 0 else out.reshape(lam_arr.shape)


def plancherel_density(params, lam):
    """d(lambda) = |c(lambda)|^(-2) for real lambda != 0."""
    lam_arr = np.asarray(lam, dtype=float)
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
    lams = np.asarray(lambda_list, dtype=float)
    if np.any(np.diff(lams) <= 0) or lams[0] < 1.0:
        raise DomainError("lambda_list must be increasing with min >= 1")
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
    if not 0.0 < t <= 1.1:
        raise DomainError("bessel_local_expansion requires 0 < t <= R0 = 1.1")
    if M not in (1, 2):
        raise ParameterError("M must be 1 or 2")
    lam = float(lam)
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
