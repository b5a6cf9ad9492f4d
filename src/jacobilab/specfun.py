"""Complex special functions: Gamma, Gauss hypergeometric 2F1, Bessel kernels.

Everything here is pure and stateless; functions accept numpy arrays where
noted and plain scalars otherwise.  Gamma takes one path, a 15-term Lanczos
form (g = 607/128) at the least shift z + n with Re(z + n) >= 1/2, divided
by z (z+1) ... (z+n-1), and its logarithm where that product leaves the
doubles; `gamma_ratio` keeps a quotient of two Gammas in log space.  Real
arguments such as Gamma(alpha + 1) come from `math.gamma`.  The 2F1 series
has one term ratio (`_term_ratio`) and one truncation rule (`_series_terms`,
from the log envelope of its terms), which the phi grids of `core` share;
`hyp2f1_real_arg` sums it for one parameter pair over an array of
arguments.  The series budgets are module constants (`_MAX_TERMS`,
`_BESSEL_CROSSOVER`, `_BESSEL_TOL`), not options.

Width one: a scalar call is mostly numpy call overhead on one-element
arrays, so where `hyp2f1_real_arg` has one element to sum it takes that
element's K directly, and with real a, b, c it sums on Python floats.  Their
products and sums round as numpy's do, so the value is its batch element to
the bit.  Complex sums stay in numpy: its complex multiply (a SIMD loop on
hosts with one) rounds differently from Python's, so a Python complex sum
would move a scalar off its batch element.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import complex_array, complex_number, real_number
from .errors import ConvergenceError, DomainError, OverflowLimitError, ParameterError, PoleError

__all__ = [
    "gamma_complex",
    "hyp2f1",
    "bessel_script_J",
]

# Series budgets: the hard cap on terms of the 2F1 series, and the |x|
# beyond which the Bessel kernel tries the Hankel asymptotic expansion before
# the ascending series.
_MAX_TERMS = 100_000
_BESSEL_CROSSOVER = 18.0
_BESSEL_TOL = 1e-10  # error of the Bessel kernel, relative to its amplitude

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's table).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)

_POLE_TOL = 1e-14


def _at_pole(z):
    """True where z sits within _POLE_TOL of a nonpositive integer."""
    near = np.rint(z.real)
    return (np.abs(z - near) <= _POLE_TOL) & (near <= 0)


def _rising(z, n):
    """z (z+1) ... (z+n-1) per element."""
    acc = np.ones(z.shape, dtype=complex)
    for j in range(int(n.max(initial=0))):
        acc = acc * np.where(j < n, z + j, 1.0)
    return acc


_LANCZOS_TAIL = _LANCZOS_C[1:]
_LANCZOS_SHIFT = np.arange(len(_LANCZOS_TAIL), dtype=float)
_TINY = np.finfo(float).tiny  # the least normal double
_LOG_TINY, _LOG_HUGE = math.log(_TINY), math.log(np.finfo(float).max)


def _lanczos_sum(x):
    """A(x) of the Lanczos form Gamma(x) = sqrt(2 pi) t^(x - 1/2) e^(-t) A(x), t = x + g - 1/2."""
    return _LANCZOS_C[0] + (_LANCZOS_TAIL / (x[..., None] + _LANCZOS_SHIFT)).sum(axis=-1)


def gamma_complex(z):
    """Gamma(z) for complex z, vectorized: the Lanczos form at z + n over z (z+1) ... (z+n-1).

    Where that product leaves the doubles although Gamma(z) need not (its
    power t^(x - 1/2) overflows from about z = 143 on), the element is formed
    from its logarithm instead.  Raises PoleError for an entry within 1e-14
    of a nonpositive integer, and OverflowLimitError naming z where
    |Gamma(z)| leaves the normal doubles.
    """
    z = complex_array("gamma_complex", "z", z)
    if _at_pole(z).any():
        raise PoleError("gamma_complex evaluated at a nonpositive integer")
    flat = z.reshape(-1)  # a scalar takes the vector path, so it gets the same bits
    n = np.maximum(np.ceil(0.5 - flat.real), 0.0)
    x = flat + n
    t = x + _LANCZOS_G - 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        out = math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * np.exp(-t) * _lanczos_sum(x) / _rising(flat, n)
        off = ~(np.abs(out) >= _TINY) | ~np.isfinite(out)
    if off.any():
        zo, no, xo, to = flat[off], n[off], x[off], t[off]
        log_gamma = 0.5 * math.log(2.0 * math.pi) + (xo - 0.5) * np.log(to) - to + np.log(_lanczos_sum(xo))
        for j in range(int(no.max())):
            log_gamma -= np.log(np.where(j < no, zo + j, 1.0))
        outside = ~((log_gamma.real >= _LOG_TINY) & (log_gamma.real <= _LOG_HUGE))
        if outside.any():
            raise OverflowLimitError(
                f"gamma_complex: |Gamma(z)| leaves the normal doubles at z = {complex(zo[outside][0]):.6g}"
            )
        out[off] = np.exp(log_gamma)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def gamma_ratio(z, a, b):
    """(L, F) with Gamma(z + a) / Gamma(z + b) = e^L F, for finite complex z and real a, b.

    a and b have one shape, which broadcasts against z, so one call takes
    several ratios; the two Gammas of a ratio are formed side by side.  Both
    take the same shift n >= 0, the least with Re(z + min(a, b) + n) >= 1/2,
    so with x_a = z + a + n, x_b = z + b + n and t_b = x_b + g - 1/2 the
    large terms of their Lanczos forms cancel in
        L = (x_a - 1/2) log1p((a - b)/t_b) + (a - b)(log t_b - 1) + log(A(x_a)/A(x_b)).
    The shift factor F = prod_{j<n} (z + b + j)/(z + a + j) stays linear, so
    the phase of a 1/z pole does not round through exp.  F is exactly 0 where
    Gamma(z + b) has a pole; PoleError where Gamma(z + a) has one.
    """
    z, a, b = np.asarray(z, dtype=complex), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    z_ab = z + np.array((a, b))  # z + a over z + b
    pole = _at_pole(z_ab)
    if pole[0].any():
        at = np.broadcast_to(a, pole[0].shape)[pole[0]][0]
        raise PoleError(f"gamma_ratio: Gamma(z + {at:g}) evaluated at a nonpositive integer")
    n = np.maximum(np.ceil(0.5 - z.real - np.minimum(a, b)), 0.0)
    x = z_ab + n
    t_b = x[1] + _LANCZOS_G - 0.5
    gap = a - b
    w = gap / t_b  # log1p(w) in parts, since numpy's complex log1p loses small |w|
    log1p = 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) + 1j * np.arctan2(w.imag, 1.0 + w.real)
    lanczos_a, lanczos_b = _lanczos_sum(x)
    log_ratio = (x[0] - 0.5) * log1p + gap * (np.log(t_b) - 1.0) + np.log(lanczos_a / lanczos_b)
    rising_a, rising_b = _rising(z_ab, n)
    shift = np.where(pole[1], 0.0, rising_b / rising_a)
    return log_ratio, shift


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0 or 0 <= z < 1.

    For z in [0, 1) the defining series is summed directly; for z < 0 the
    Pfaff transformation maps the argument to w = z/(z-1) in [0, 1):
    2F1(a, b; c; z) = (1-z)^(-a) * 2F1(a, c-b; c; w).
    """
    a, b, c = (complex_number("hyp2f1", name, x) for name, x in (("a", a), ("b", b), ("c", c)))
    z = real_number("hyp2f1", "z", z)
    if abs(c - round(c.real)) <= _POLE_TOL and round(c.real) <= 0 and abs(c.imag) <= _POLE_TOL:
        raise ParameterError("2F1 parameter c is a nonpositive integer")
    if not z < 1.0:
        raise DomainError(f"hyp2f1 requires z < 1, got z = {z}")
    if 0.0 <= z < 1.0:
        return complex(hyp2f1_real_arg(a, b, c, z))
    w = z / (z - 1.0)
    return (1.0 - z) ** (-a) * complex(hyp2f1_real_arg(a, c - b, c, w))


def hyp2f1_real_arg(a, b, c, w):
    """The defining 2F1 series of one parameter pair (scalars a, b, c), vectorized over w in [0, 1).

    Each element sums its own K terms, K from `_series_terms`, in nested form
    1 + r_0 w (1 + r_1 w (1 + ...)) with r_j the term ratio, so no
    coefficient C_k is formed and none can overflow, and a value does not
    depend on the rest of the batch.  An element with w = 0 is 1.  One live
    element takes its K directly, and with real a, b, c its nested sum runs
    on Python floats (`_nested_sum`).
    """
    w = np.asarray(w, dtype=float)
    if not ((w >= 0.0) & (w < 1.0)).all():
        raise DomainError("hyp2f1_real_arg requires finite w with 0 <= w < 1")
    a, b, c = complex(a), complex(b), complex(c)
    if a.imag == b.imag == c.imag == 0.0:
        a, b, c = a.real, b.real, c.real
    flat = w.ravel()
    live = np.flatnonzero(flat > 0.0)
    if live.size == 1:
        # one element needs neither the probe rule nor the sort below
        out = np.ones(flat.size, dtype=type(a))
        out[live] = _nested_sum(a, b, c, flat[live], int(_series_terms(a, b, c, np.log(flat[live]))[0]))
        return out.reshape(w.shape)
    k = np.zeros(flat.size, dtype=int)
    if live.size:
        # K rises with w for one pair: an element between two of up to 256 evenly spaced
        # probes of one K takes it (j is its probe interval, to within one interval)
        w_live = flat[live]
        lo, hi, last = w_live.min(), w_live.max(), min(live.size, 256) - 1
        k_probe = _series_terms(a, b, c, np.log(np.linspace(lo, hi, last + 1)))
        j = ((w_live - lo) * (last / (hi - lo) if hi > lo else 0.0)).astype(int)
        interval = np.arange(last + 2)  # j = last + 1 where w = hi rounds up
        straddles = k_probe[np.maximum(interval - 1, 0)] != k_probe[np.minimum(interval + 2, last)]
        k[live] = k_probe[np.minimum(interval, last)][j]
        mixed = live[straddles[j]]
        if mixed.size:
            k[mixed] = _series_terms(a, b, c, np.log(flat[mixed]))
    # elements in decreasing K (K / 8 as int16, which numpy sorts by radix):
    # those still summing at the terms [8m - 8, 8m), with K >= 8m, are a
    # prefix of length n_at[m]
    level = k // 8
    order = np.argsort(-level.astype(np.int16), kind="stable")
    n_at = np.cumsum(np.bincount(level)[::-1])[::-1]
    step = _term_ratio(a, b, c, np.arange(k.max(initial=0)))[:, None] * flat[order]
    total = np.ones(flat.size, dtype=step.dtype)
    prod = np.empty_like(total)  # apart from total: numpy rounds a one-element in-place product differently
    for m in range(n_at.size - 1, 0, -1):
        summing, scratch = total[: n_at[m]], prod[: n_at[m]]
        for row in step[8 * m - 8 : 8 * m, : n_at[m]][::-1]:
            np.multiply(row, summing, out=scratch)
            np.add(scratch, 1.0, out=summing)
    out = np.empty_like(total)
    out[order] = total
    return out.reshape(w.shape)


def _nested_sum(a, b, c, w, k):
    """The K-term nested sum of `hyp2f1_real_arg` for one element, w a one-element array.

    Real a, b, c take Python floats, whose products and sums round as numpy's
    do, so the value is the batch's to the bit.  Complex ones stay in numpy:
    its complex products round differently from Python's.
    """
    if isinstance(a, float):
        x, total = float(w[0]), 1.0
        for j in range(k - 1, -1, -1):
            total = _term_ratio(a, b, c, j) * x * total + 1.0
        return total
    step = _term_ratio(a, b, c, np.arange(k))[:, None] * w
    total, scratch = np.ones(1, dtype=complex), np.empty(1, dtype=complex)
    for row in step[::-1]:
        np.multiply(row, total, out=scratch)
        np.add(scratch, 1.0, out=total)
    return total[0]


def _term_ratio(a, b, c, j):
    """C_(j+1) / C_j = (a + j)(b + j) / ((c + j)(j + 1)) of the 2F1 coefficients C_k."""
    return (a + j) * (b + j) / ((c + j) * (j + 1.0))


def _series_terms(a, b, c, log_w):
    """Terms K of the 2F1 series per element of a 1-D array log_w = log w < 0.

    a and b are scalars, or arrays of one pair per element.  The envelope
    |C_k| w^k is taken in log space, from a cumulative sum of log |r_j|, so
    it cannot overflow.  K is the first multiple of 8 at or past its peak
    where it has fallen below 2^-53 (1 - w) of the peak; 1 - w accounts for
    the geometric tail, since r_j tends to 1.  The search runs to 64 terms,
    then to 8 times as many for the elements still open, so an element's K
    does not depend on the batch.  ConvergenceError past _MAX_TERMS.
    """
    k = np.full(log_w.size, -1)
    n = 64
    while True:
        n = min(n, _MAX_TERMS)
        open_ = np.flatnonzero(k < 0)
        lw = log_w[open_]
        ratio = _term_ratio(*(x if np.ndim(x) == 0 else x[open_] for x in (a, b)), c, np.arange(n)[:, None])
        log_c = np.zeros((n + 1, ratio.shape[1]))  # log |C_k| down, elements (or the one pair) across
        with np.errstate(divide="ignore"):  # a terminating series has a zero ratio
            np.cumsum(np.log(np.abs(ratio)), axis=0, out=log_c[1:])
        env = log_c + np.arange(n + 1)[:, None] * lw
        peak = env.argmax(axis=0)
        top = env[peak, np.arange(lw.size)]
        checks = np.arange(0, n + 1, 8)[:, None]
        below = (env[checks[:, 0]] < top + np.log(2.0**-53 * -np.expm1(lw))) & (checks >= peak)
        first = np.where(below, checks, n + 8).min(axis=0)
        k[open_] = np.where(first <= n, first, -1)
        if np.all(k >= 0):
            return k
        if n >= _MAX_TERMS:
            unconverged = f"{np.count_nonzero(k < 0)} of {k.size} elements unconverged"
            raise ConvergenceError(f"2F1 series did not converge within {_MAX_TERMS} terms ({unconverged})")
        n *= 8


def _gamma_alpha_plus_one(alpha):
    """math.gamma(alpha + 1); OverflowLimitError where it leaves the doubles."""
    try:
        return math.gamma(alpha + 1.0)
    except OverflowError:
        raise OverflowLimitError(f"Gamma(alpha + 1) overflows a double at alpha = {alpha:g}") from None


def _script_j_series(alpha, x):
    """Ascending series of x^(-alpha) J_alpha(x) in extended precision.

    Returns the sum (long double) and the sum of |terms|.  The terms cancel
    for large x; long double accumulation, with every factor m + alpha formed
    in long double, keeps the result accurate through x = 18 at any alpha.
    """
    x = np.longdouble(x)
    q = -(x * x) / 4.0
    # leading term 1 / (2^alpha Gamma(alpha+1)); past alpha of about 150 the
    # product leaves the doubles, and there it is formed in long double;
    # Gamma goes first, to name alpha past 170 before 2.0**alpha overflows
    scale = _gamma_alpha_plus_one(alpha) * 2.0**alpha
    if scale == math.inf:
        scale = np.longdouble(2.0) ** alpha * np.longdouble(_gamma_alpha_plus_one(alpha))
    term = np.longdouble(1.0) / np.longdouble(scale)
    total = size = term
    a = np.longdouble(alpha)
    for m in range(1, 2000):
        k = np.longdouble(m)
        term = term * q / (k * (k + a))
        total += term
        size += abs(term)
        if abs(term) <= np.longdouble(1e-25) * max(abs(total), np.longdouble(1e-300)):
            break
    return total, size


def _script_j_asymptotic(alpha, x):
    """Hankel asymptotic expansion of x^(-alpha) J_alpha(x), x large.

    The terms may grow while (2k - 1)^2 < 4 alpha^2; past that the sum stops
    at its smallest term, where the divergent tail begins.  Returns the value
    and its error relative to the amplitude x^(-alpha) sqrt(2 / (pi x)): the
    last kept term plus the rounding of the largest one.
    """
    mu = 4.0 * alpha * alpha
    # P ~ sum of even terms, Q ~ sum of odd terms of the Hankel series.
    p_sum = 1.0
    q_sum = 0.0
    term = 1.0
    prev = math.inf
    peak = 1.0
    for k in range(1, 60):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) >= prev and (2 * k - 1) ** 2 > mu:
            break  # divergent tail reached; stop at the smallest term
        prev = abs(term)
        peak = max(peak, prev)
        sign = (-1.0) ** (k // 2)
        if k % 2 == 0:
            p_sum += sign * term
        else:
            q_sum += sign * term
    chi = x - (0.5 * alpha + 0.25) * math.pi
    j = math.sqrt(2.0 / (math.pi * x)) * (p_sum * math.cos(chi) - q_sum * math.sin(chi))
    return x ** (-alpha) * j, prev + peak * np.finfo(float).eps


def bessel_script_J(alpha, x):
    """Modified Bessel kernel x^(-alpha) J_alpha(x), finite at x = 0.

    The ascending series up to x = 18.  Beyond, the Hankel expansion where
    its error is below _BESSEL_TOL of the amplitude x^(-alpha) sqrt(2 / (pi x)),
    else the series where a double epsilon of the sum of its |terms|, a
    generous bound on its long double rounding, is below that;
    ConvergenceError naming alpha and x where neither is.  OverflowLimitError
    naming alpha where the value leaves the normal doubles.
    """
    alpha = real_number("bessel_script_J", "alpha", alpha)
    x = real_number("bessel_script_J", "x", x)
    if alpha < -0.5:
        raise DomainError("bessel_script_J requires alpha >= -1/2")
    if x < 0.0:
        raise DomainError("bessel_script_J requires x >= 0")
    if x <= _BESSEL_CROSSOVER:
        value, _ = _script_j_series(alpha, x)
    else:
        value, err = _script_j_asymptotic(alpha, x)
        if err > _BESSEL_TOL:
            value, size = _script_j_series(alpha, x)
            amplitude = np.longdouble(x) ** -alpha * math.sqrt(2.0 / (math.pi * x))
            if not size * np.finfo(float).eps <= _BESSEL_TOL * amplitude:
                raise ConvergenceError(
                    "bessel_script_J: neither the ascending series nor the Hankel "
                    f"expansion is accurate at alpha = {alpha:g}, x = {x:g}"
                )
    if not abs(value) >= np.finfo(float).tiny:
        raise OverflowLimitError(f"bessel_script_J leaves the normal doubles at alpha = {alpha:g} (x = {x:g})")
    return float(value)
