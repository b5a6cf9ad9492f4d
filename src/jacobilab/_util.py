"""Small numeric helpers shared across modules: quadrature rules, fits, bumps."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "composite_gauss_legendre",
    "gauss_legendre",
    "dyadic_differences",
    "graded_breakpoints",
    "is_count",
    "loglog_slope",
    "real_array",
    "real_number",
    "smoothstep_quintic",
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


def is_count(n, least=1):
    """True for an int or numpy integer n >= least; a float, even 3.0, is not a
    count, nor is a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least


def dyadic_differences(g, lam_min, lam_max):
    """Samples of g and its central differences on a dyadic grid.

    The grid is every 2^(k / 16), k integer, in [lam_min, lam_max]; the step
    at lam is 1e-5 lam.  g is called once, on lam, lam + h and lam - h
    together.  Returns (lam, g, g', g'').
    """
    k_lo = math.floor(math.log2(lam_min) * 16) - 1
    k_hi = math.ceil(math.log2(lam_max) * 16) + 1
    lam = 2.0 ** (np.arange(k_lo, k_hi + 1) / 16)
    lam = lam[(lam >= lam_min) & (lam <= lam_max)]
    h = 1e-5 * lam
    g0, g_plus, g_minus = np.split(np.asarray(g(np.concatenate([lam, lam + h, lam - h]))), 3)
    # only g0 is cast: a real g's differences stay in real division
    g0 = g0.astype(complex)
    return (
        lam,
        g0,
        (g_plus - g_minus) / (2.0 * h),
        (g_plus - 2.0 * g0 + g_minus) / h**2,
    )


def real_number(what, name, x):
    """float(x), or DomainError naming the argument where x is not a real number.

    A complex x is refused even with a zero imaginary part.  Finiteness is
    the caller's check.
    """
    if not isinstance(x, (complex, np.complexfloating)):
        try:
            return float(x)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{what} requires a real {name}, got {name} = {x!r}")


def real_array(what, name, x):
    """x as a float64 array, or DomainError naming the argument where x is not
    an array of real numbers.

    A complex array is refused even with a zero imaginary part.  Finiteness
    is the caller's check.
    """
    arr = np.asarray(x)
    if not np.iscomplexobj(arr):
        try:
            return np.asarray(arr, dtype=float)
        except (TypeError, ValueError):
            pass
    got = f"{name} = {x!r}" if arr.ndim == 0 else f"a {arr.dtype} array"
    raise DomainError(f"{what} requires a real {name}, got {got}")


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
