"""Small numeric helpers shared across modules: quadrature rules, fits, bumps,
and the argument roles.  A public function converts and checks each scalar
or array argument in one role call at entry (`real_number`, `real_array`,
`complex_number`, `complex_array`, `exponent`, or the predicate `is_count`),
which refuses a value that is not a finite number of its kind, naming it.
An int or a Fraction too large for a double is not finite (`to_double`).
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

import numpy as np

from .errors import DomainError

__all__ = [
    "complex_array",
    "complex_number",
    "composite_gauss_legendre",
    "gauss_legendre",
    "dyadic_differences",
    "exponent",
    "graded_breakpoints",
    "is_count",
    "loglog_slope",
    "real_array",
    "real_number",
    "smoothstep_quintic",
    "to_double",
]


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only (nodes,
    weights), computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def composite_gauss_legendre(breakpoints, nodes_per_panel=4):
    """Composite Gauss-Legendre rule on the panels defined by `breakpoints`.

    Returns (nodes, weights): panel k holds entries k * nodes_per_panel up to
    (k + 1) * nodes_per_panel, the affine image of the reference rule on
    [-1, 1], so nodes lie strictly inside their panel and sort increasing.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    x_ref, w_ref = gauss_legendre(nodes_per_panel)
    half = 0.5 * (breakpoints[1:] - breakpoints[:-1])[:, None]
    mid = 0.5 * (breakpoints[:-1] + breakpoints[1:])[:, None]
    return (mid + half * x_ref).ravel(), (half * w_ref).ravel()


def graded_breakpoints(upper, n_panels):
    """Panel breakpoints upper (i / n_panels)^2 on [0, upper], clustered at 0."""
    i = np.arange(n_panels + 1, dtype=float) / n_panels
    return upper * i**2.0


_MAX_COUNT = int(np.iinfo(np.intp).max)  # the most elements numpy can index


def is_count(n, least=1, most=_MAX_COUNT):
    """True for an int or numpy integer least <= n <= most; a float, even 3.0,
    is not a count, nor is a bool.  most defaults to the largest count numpy
    can index; a seed, which numpy takes at any size, passes math.inf."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and least <= n <= most


def dyadic_differences(g, lam_min, lam_max):
    """Samples of g and its central differences on a dyadic grid.

    The grid is every 2^(k / 16), k integer, in [lam_min, lam_max]; the step
    at lam is 1e-5 lam.  g is called once, on lam, lam + h and lam - h
    together, and must return numbers of their shape (a DomainError names g
    otherwise).  Returns (lam, g, g', g'').
    """
    k_lo = math.floor(math.log2(lam_min) * 16) - 1
    k_hi = math.ceil(math.log2(lam_max) * 16) + 1
    lam = 2.0 ** (np.arange(k_lo, k_hi + 1) / 16)
    lam = lam[(lam >= lam_min) & (lam <= lam_max)]
    h = 1e-5 * lam
    points = np.concatenate([lam, lam + h, lam - h])
    values = np.asarray(g(points))
    if values.dtype.kind not in "biufc" or values.shape != points.shape:
        raise DomainError(f"g must return numbers of its input's shape {points.shape}, got a {values.dtype} array of shape {values.shape}")
    g0, g_plus, g_minus = np.split(values, 3)
    # only g0 is cast: a real g's differences stay in real division
    g0 = g0.astype(complex)
    return (
        lam,
        g0,
        (g_plus - g_minus) / (2.0 * h),
        (g_plus - 2.0 * g0 + g_minus) / h**2,
    )


def real_number(what, name, x, positive=False, error=DomainError):
    """float(x), or `error` naming the argument where x is not a finite real
    number (with positive, one > 0).  A string or a complex x is refused,
    even "2" or 2 + 0j."""
    if not isinstance(x, (str, bytes, complex, np.complexfloating)):
        try:
            x = to_double(what, name, x, error)
        except (TypeError, ValueError):
            pass
        else:
            if positive and not 0.0 < x < math.inf:
                raise error(f"{what} requires {name} > 0 and finite {name}, got {name} = {x:g}")
            if math.isfinite(x):
                return x
            raise error(f"{what} requires finite {name}, got {name} = {x}")
    raise error(f"{what} requires a real {name}, got {name} = {x!r}")


def complex_number(what, name, x):
    """complex(x), or DomainError naming the argument where x is not one finite
    number: a string or an array (even an empty one) is refused."""
    if not isinstance(x, (str, bytes)):
        try:
            z = complex(x)
        except (TypeError, ValueError):
            pass
        except OverflowError:
            raise DomainError(_past_doubles(what, name)) from None
        else:
            if cmath.isfinite(z):
                return z
            raise DomainError(_not_finite(what, name, z))
    raise DomainError(f"{what} requires a number {name}, got {name} = {x!r}")


def real_array(what, name, x, error=DomainError):
    """x as a float64 array, or `error` naming the argument where x is not an
    array of finite real numbers; complex, string and object arrays are
    refused, and an empty array passes."""
    arr = _numeric(what, name, x, "biuf", "a real", error)
    if not (finite := np.isfinite(arr)).all():
        raise error(f"{what} requires finite {name}, got {name} = {arr[~finite].flat[0]}")
    return arr


def complex_array(what, name, x):
    """x as a complex128 array, or DomainError naming the argument where x is
    not an array of finite numbers, real ones included."""
    arr = _numeric(what, name, x, "biufc", "a number", DomainError)
    if not (finite := np.isfinite(arr)).all():
        raise DomainError(_not_finite(what, name, arr[~finite].flat[0]))
    return arr


def exponent(what, name, p):
    """float(p) for an L^p exponent, a real p >= 1 or inf, else DomainError naming it."""
    if isinstance(p, numbers.Real) and p >= 1.0:
        return to_double(what, name, p)
    raise DomainError(f"{what} requires {name} >= 1 or {name} = inf, got {name} = {p!r}")


def to_double(what, name, x, error=DomainError):
    """float(x), or `error` naming the argument where x is a number past the
    doubles (an int or a Fraction beyond 1.8e308 in size), which float()
    would refuse with OverflowError; TypeError and ValueError pass through."""
    try:
        return float(x)
    except OverflowError:
        raise error(_past_doubles(what, name)) from None


def _past_doubles(what, name):
    """The message naming an argument too large in size for a double."""
    return f"{what} requires finite {name}, got {name} past the double range"


def _numeric(what, name, x, kinds, noun, error):
    """x as a float64 array (complex128 where kinds has "c"), or `error` where its kind is not in kinds."""
    arr = np.asarray(x)
    if arr.dtype.kind not in kinds:
        got = f"{name} = {x!r}" if arr.ndim == 0 else f"a {arr.dtype} array"
        raise error(f"{what} requires {noun} {name}, got {got}")
    return arr.astype(complex if "c" in kinds else float, copy=False)


def _not_finite(what, name, z):
    """The message naming an argument whose value z has a NaN or infinite part."""
    return f"{'NaN' if cmath.isnan(z) else 'non-finite'} argument to {what}: {name} = {z}; {name} must be finite"


def loglog_slope(x, y):
    """Least-squares slope and intercept of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def smoothstep_quintic(x):
    """C^2 monotone ramp: 0 for x <= 0, 1 for x >= 1, quintic in between."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)
