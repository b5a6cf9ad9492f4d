"""Complex special functions: Gamma, Gauss hypergeometric 2F1, Bessel kernels.

Everything here is pure and stateless; functions accept numpy arrays where
noted and plain scalars otherwise.  Gamma takes one path, a 15-term Lanczos
form (g = 607/128) at the least shift z + n with Re(z + n) >= 1/2, divided
by z (z+1) ... (z+n-1); `gamma_ratio` keeps a quotient of two Gammas in log
space.  Real arguments such as Gamma(alpha + 1) come from `math.gamma`.  Every 2F1
value, scalar or batched, is summed by the one series `hyp2f1_real_arg`,
over slices of at most `_BLOCK_SIZE` elements so that its working arrays stay
in cache.  Its term ratio is formed once per distinct parameter pair (one per
lambda column of a phi grid) and gathered to the elements, and its stopping
test runs on every `_CHECK_EVERY`-th term.  The series budgets are module
constants (`_SERIES_TOL`, `_MAX_TERMS`, `_CHECK_EVERY`, `_BESSEL_CROSSOVER`,
`_BESSEL_TOL`), not options.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowLimitError, ParameterError, PoleError

__all__ = [
    "gamma_complex",
    "hyp2f1",
    "bessel_script_J",
]

# Series budgets: the relative stopping tolerance of the 2F1 series, its hard
# cap on terms, and the |x| beyond which the Bessel kernel tries the Hankel
# asymptotic expansion before the ascending series.
_SERIES_TOL = 1e-14
_MAX_TERMS = 100_000
_CHECK_EVERY = 8  # terms between two stopping tests of the 2F1 series
_BESSEL_CROSSOVER = 18.0
_BESSEL_TOL = 1e-10  # error of the Bessel kernel, relative to its amplitude
# Elements of one slice of a batched series, and cells of one block of a phi
# matrix: about 16k, so that a slice's complex working arrays stay in cache.
_BLOCK_SIZE = 16384

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
    near = np.round(z.real)
    return (np.abs(z - near) <= _POLE_TOL) & (near <= 0)


def _rising(z, n):
    """z (z+1) ... (z+n-1) per element."""
    acc = np.ones(z.shape, dtype=complex)
    for j in range(int(n.max(initial=0))):
        acc = acc * np.where(j < n, z + j, 1.0)
    return acc


def _lanczos_sum(x):
    """A(x) of the Lanczos form Gamma(x) = sqrt(2 pi) t^(x - 1/2) e^(-t) A(x), t = x + g - 1/2."""
    return _LANCZOS_C[0] + (_LANCZOS_C[1:] / (x[:, None] + np.arange(len(_LANCZOS_C) - 1.0))).sum(axis=1)


def gamma_complex(z):
    """Gamma(z) for complex z, vectorized: the Lanczos form at z + n over z (z+1) ... (z+n-1).

    Raises DomainError for a non-finite entry, PoleError for one within 1e-14 of a nonpositive integer.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError("non-finite argument to gamma_complex")
    if np.any(_at_pole(z)):
        raise PoleError("gamma_complex evaluated at a nonpositive integer")
    flat = z.reshape(-1)  # a scalar takes the vector path, so it gets the same bits
    n = np.maximum(np.ceil(0.5 - flat.real), 0.0)
    x = flat + n
    t = x + _LANCZOS_G - 0.5
    out = math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * np.exp(-t) * _lanczos_sum(x) / _rising(flat, n)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def gamma_ratio(z, a, b):
    """(L, F) with Gamma(z + a) / Gamma(z + b) = e^L F, for finite complex z and real a, b.

    Both Gammas take the same shift n >= 0, the least with
    Re(z + min(a, b) + n) >= 1/2, so with x_a = z + a + n, x_b = z + b + n and
    t_b = x_b + g - 1/2 the large terms of their Lanczos forms cancel in
        L = (x_a - 1/2) log1p((a - b)/t_b) + (a - b)(log t_b - 1) + log(A(x_a)/A(x_b)).
    The shift factor F = prod_{j<n} (z + b + j)/(z + a + j) stays linear, so
    the phase of a 1/z pole does not round through exp.  F is exactly 0 where
    Gamma(z + b) has a pole; PoleError where Gamma(z + a) has one.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if np.any(_at_pole(z + a)):
        raise PoleError(f"gamma_ratio: Gamma(z + {a:g}) evaluated at a nonpositive integer")
    n = np.maximum(np.ceil(0.5 - z.real - min(a, b)), 0.0)
    x_a, t_b = z + a + n, z + b + n + _LANCZOS_G - 0.5
    w = (a - b) / t_b  # log1p(w) in parts, since numpy's complex log1p loses small |w|
    log1p = 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag**2) + 1j * np.arctan2(w.imag, 1.0 + w.real)
    lanczos = np.log(_lanczos_sum(x_a) / _lanczos_sum(z + b + n))
    log_ratio = (x_a - 0.5) * log1p + (a - b) * (np.log(t_b) - 1.0) + lanczos
    shift = np.where(_at_pole(z + b), 0.0, _rising(z + b, n) / _rising(z + a, n))
    return log_ratio, shift


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0 or 0 <= z < 1.

    For z in [0, 1) the defining series is summed directly; for z < 0 the
    Pfaff transformation maps the argument to w = z/(z-1) in [0, 1):
    2F1(a, b; c; z) = (1-z)^(-a) * 2F1(a, c-b; c; w).
    """
    a, b, c = complex(a), complex(b), complex(c)
    if any(math.isnan(v.real) or math.isnan(v.imag) for v in (a, b, c)) or math.isnan(z):
        raise DomainError("NaN argument to hyp2f1")
    if abs(c - round(c.real)) <= _POLE_TOL and round(c.real) <= 0 and abs(c.imag) <= _POLE_TOL:
        raise ParameterError("2F1 parameter c is a nonpositive integer")
    z = float(z)
    if not -math.inf < z < 1.0:
        raise DomainError(f"hyp2f1 requires a finite z < 1, got z = {z}")
    if 0.0 <= z < 1.0:
        return complex(hyp2f1_real_arg(a, b, c, z))
    w = z / (z - 1.0)
    return (1.0 - z) ** (-a) * complex(hyp2f1_real_arg(a, c - b, c, w))


def hyp2f1_real_arg(a, b, c, w):
    """The defining 2F1 series, vectorized over an array of arguments w in [0, 1).

    Parameters a, b may be complex arrays broadcastable against w; c is scalar.
    Each element of the broadcast of a and b is one parameter pair, and the
    term ratio (a+k)(b+k) / ((c+k)(k+1)) is formed once per pair and term and
    gathered to the elements that use it: for a (t x lambda) grid with a, b
    per column, one ratio per column.  The stopping test runs after every
    _CHECK_EVERY-th term, and each element stops at the first such term with
    |term| <= _SERIES_TOL (1 - w) |total|, so its value does not depend on the
    rest of the batch.  The factor 1 - w accounts for the geometric tail: the
    term ratio tends to w, so the neglected remainder is about
    |term| w / (1 - w).  An element with w = 0 is 1 and sums no term.  The
    batch is summed in slices of at most _BLOCK_SIZE elements; within a slice,
    converged elements leave the live set once they make up a quarter of it.
    """
    w = np.asarray(w, dtype=float)
    if not np.all((w >= 0.0) & (w < 1.0)):
        raise DomainError("hyp2f1_real_arg requires finite w with 0 <= w < 1")
    a = np.asarray(a)
    b = np.asarray(b)
    if np.isrealobj(a) and np.isrealobj(b) and (np.isrealobj(c) or abs(complex(c).imag) == 0.0):
        a = a.astype(float)
        b = b.astype(float)
        c = float(np.real(c))
    else:
        a = a.astype(complex)
        b = b.astype(complex)
    pairs = np.broadcast_shapes(a.shape, b.shape)
    shape = np.broadcast_shapes(pairs, w.shape)
    out = np.empty(shape, dtype=np.result_type(a, b, w))
    flat = out.reshape(-1)
    a, b = (np.broadcast_to(x, pairs).ravel() for x in (a, b))
    w = np.broadcast_to(w, shape).ravel()
    flat[w == 0.0] = 1.0
    live = np.flatnonzero(w)
    # pair[i]: the index into a and b of live element i
    pair = np.broadcast_to(np.arange(a.size).reshape(pairs), shape).ravel()[live]
    for lo in range(0, live.size, _BLOCK_SIZE):
        part = slice(lo, lo + _BLOCK_SIZE)
        flat[live[part]] = _sum_series(a, b, c, pair[part], w[live[part]], flat.dtype)
    return out


def _sum_series(a, b, c, pair, w, dtype):
    """The 2F1 series of one slice: element i has parameters a[pair[i]], b[pair[i]].

    The ratios of the next _CHECK_EVERY terms are formed at once, for the
    range of pairs the slice spans, and gathered to the live elements.  A
    converged element is frozen by zeroing its term, which keeps its total
    exact, until it leaves the live set.
    """
    out = np.empty(w.size, dtype=dtype)
    idx = np.arange(w.size)
    tol = _SERIES_TOL * (1.0 - w)
    w = w.astype(dtype)  # a complex product is faster than one that casts w
    term = np.ones(w.size, dtype=dtype)
    total = term.copy()
    step = np.empty_like(term)
    first = pair.min()
    rel = pair - first  # live element i has pair first + rel[i]
    span = slice(first, first + rel.max() + 1)
    n_frozen = 0
    for k0 in range(0, _MAX_TERMS, _CHECK_EVERY):
        k = np.arange(k0, k0 + _CHECK_EVERY)[:, None]
        ratio = (a[span] + k) * (b[span] + k) / ((c + k) * (k + 1.0))
        for r in ratio:
            if r.size > 1:
                r = r.take(rel, out=step, mode="wrap")  # rel is in range; wrap skips the check
            if term.size == 1:
                # numpy rounds an in-place complex product of one element
                # differently from its batched loop; out of place they agree, so
                # a value does not depend on how many elements are still live
                term = term * r
            else:
                term *= r
            term *= w
            total += term
        bound = np.abs(total)
        np.maximum(bound, 1e-300, out=bound)
        bound *= tol
        done = np.abs(term) <= bound
        n_done = np.count_nonzero(done)
        if n_done == n_frozen:
            continue
        if n_done == done.size:
            out[idx] = total
            return out
        if 4 * n_done >= done.size:
            out[idx[done]] = total[done]
            keep = ~done
            idx, term, total, step, rel, w, tol = (
                x[keep] for x in (idx, term, total, step, rel, w, tol)
            )
            n_frozen = 0
        else:
            term[done] = 0.0
            n_frozen = n_done
    raise ConvergenceError(
        f"2F1 series did not converge within {_MAX_TERMS} terms "
        f"({term.size - n_frozen} of {out.size} elements of a slice unconverged)"
    )


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
    # product leaves the doubles, and there it is formed in long double
    scale = 2.0**alpha * _gamma_alpha_plus_one(alpha)
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
    if math.isnan(x) or math.isnan(alpha):
        raise DomainError("NaN argument to bessel_script_J")
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
