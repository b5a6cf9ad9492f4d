"""Small numeric helpers shared across modules: quadrature rules, fits, bumps."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "composite_gauss_legendre",
    "dyadic_differences",
    "graded_breakpoints",
    "is_count",
    "loglog_slope",
    "neville_zero",
    "smoothstep_quintic",
]


def composite_gauss_legendre(breakpoints, nodes_per_panel=4):
    """Composite Gauss-Legendre rule on the panels defined by `breakpoints`.

    Returns (nodes, weights): panel k holds entries k * nodes_per_panel up to
    (k + 1) * nodes_per_panel, the affine image of the reference rule on
    [-1, 1], so nodes lie strictly inside their panel and sort increasing.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    x_ref, w_ref = np.polynomial.legendre.leggauss(nodes_per_panel)
    half = 0.5 * (breakpoints[1:] - breakpoints[:-1])[:, None]
    mid = 0.5 * (breakpoints[:-1] + breakpoints[1:])[:, None]
    return (mid + half * x_ref).ravel(), (half * w_ref).ravel()


def graded_breakpoints(upper, n_panels):
    """Panel breakpoints upper (i / n_panels)^2 on [0, upper], clustered at 0."""
    i = np.arange(n_panels + 1, dtype=float) / n_panels
    return upper * i**2.0


def is_count(n, least=1):
    """True for an int or numpy integer n >= least; a float, even 3.0, is not a count."""
    return isinstance(n, (int, np.integer)) and n >= least


def dyadic_differences(g, lam_min, lam_max):
    """Samples of g and its central differences on a dyadic grid.

    The grid is every 2^(k / 16), k integer, in [lam_min, lam_max]; the step
    at lam is 1e-5 lam.  Returns (lam, g, g', g'').
    """
    k_lo = math.floor(math.log2(lam_min) * 16) - 1
    k_hi = math.ceil(math.log2(lam_max) * 16) + 1
    lam = 2.0 ** (np.arange(k_lo, k_hi + 1) / 16)
    lam = lam[(lam >= lam_min) & (lam <= lam_max)]
    h = 1e-5 * lam
    g0 = np.asarray(g(lam), dtype=complex)
    g_plus = np.asarray(g(lam + h))
    g_minus = np.asarray(g(lam - h))
    return (
        lam,
        g0,
        (g_plus - g_minus) / (2.0 * h),
        (g_plus - 2.0 * g0 + g_minus) / h**2,
    )


def loglog_slope(x, y):
    """Least-squares slope and intercept of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def neville_zero(xs, rows):
    """Neville polynomial extrapolation to x = 0, elementwise over arrays.

    rows[k] holds the samples at xs[k].  The real and imaginary parts run the
    recurrence separately in real arithmetic, which reproduces the scalar
    complex recurrence bitwise; the result is real when every imaginary part
    is below 1e-300.
    """
    xs = list(map(float, xs))
    rows = [np.asarray(r, dtype=complex) for r in rows]
    n = len(xs)
    parts = []
    for tab in ([r.real for r in rows], [r.imag for r in rows]):
        for level in range(1, n):
            for i in range(n - level):
                tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * xs[i + level] / (
                    xs[i] - xs[i + level]
                )
        parts.append(tab[0])
    re, im = parts
    if np.all(np.abs(im) < 1e-300):
        return re
    return re + 1j * im


def smoothstep_quintic(x):
    """C^2 monotone ramp: 0 for x <= 0, 1 for x >= 1, quintic in between."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)
