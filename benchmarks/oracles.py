"""Independent reference values for the benchmark's correctness checks.

Nothing here imports jacobilab: every value is computed from its defining
formula with mpmath or scipy, so a check compares the library against an
implementation that shares none of its code.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special

mpmath.mp.dps = 30

# (alpha, beta) of the CLI presets.
PRESETS = {
    "generic": (1.2, 0.3),
    "damek-ricci-like": (1.5, 0.5),
    "h3": (0.5, -0.5),
}


def rho_of(alpha, beta):
    return alpha + beta + 1.0


def phi(alpha, beta, lam, t):
    """phi_lambda(t) = 2F1((rho + i lam)/2, (rho - i lam)/2; alpha + 1; -sinh^2 t)."""
    rho = rho_of(alpha, beta)
    a = mpmath.mpc(rho, lam) / 2
    b = mpmath.mpc(rho, -lam) / 2
    z = -mpmath.sinh(mpmath.mpf(t)) ** 2
    return float(mpmath.re(mpmath.hyp2f1(a, b, alpha + 1, z)))


def gamma(z):
    return complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))


def c_function(alpha, beta, lam):
    """Harish-Chandra c-function at real or complex lambda."""
    rho = rho_of(alpha, beta)
    il = mpmath.mpc(0, 1) * mpmath.mpc(lam.real, lam.imag)
    num = mpmath.power(2, rho - il) * mpmath.gamma(il) * mpmath.gamma(alpha + 1)
    den = mpmath.gamma((rho + il) / 2) * mpmath.gamma((rho + il) / 2 - beta)
    return complex(num / den)


def hyp2f1(a, b, c, z):
    return complex(
        mpmath.hyp2f1(mpmath.mpc(a.real, a.imag), mpmath.mpc(b.real, b.imag), c, z)
    )


def bessel_script_j(alpha, x):
    """x^(-alpha) J_alpha(x) from scipy's Bessel function."""
    return float(special.jv(alpha, x) * x ** (-alpha))


def bessel_scale(alpha, x):
    """Local amplitude of x^(-alpha) J_alpha(x): errors are measured against
    it so that zeros of J_alpha do not blow up a relative error."""
    envelope = x ** (-alpha) * math.sqrt(2.0 / (math.pi * max(x, 1.0)))
    return max(abs(bessel_script_j(alpha, x)), envelope)


def kernel_k(alpha, beta, s, t, u):
    """Translation kernel K(s,t,u) against dmu(u) = Delta(u) du, in the
    closed form of Koornwinder (Ark. Mat. 13, 1975):

        K = 2^(-2 rho) Gamma(a+1) / (sqrt(pi) Gamma(a+1/2))
            (ch s ch t ch u)^(a-b-1) (sh s sh t sh u)^(-2a)
            (1 - B^2)^(a-1/2) 2F1(a+b, a-b; a+1/2; (1-B)/2),
        B = (ch^2 s + ch^2 t + ch^2 u - 1) / (2 ch s ch t ch u).
    """
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    rho = a + b + 1
    s, t, u = mpmath.mpf(s), mpmath.mpf(t), mpmath.mpf(u)
    chs, cht, chu = mpmath.cosh(s), mpmath.cosh(t), mpmath.cosh(u)
    big_b = (chs**2 + cht**2 + chu**2 - 1) / (2 * chs * cht * chu)
    pref = mpmath.power(2, -2 * rho) * mpmath.gamma(a + 1) / (
        mpmath.sqrt(mpmath.pi) * mpmath.gamma(a + mpmath.mpf(1) / 2)
    )
    val = (
        pref
        * (chs * cht * chu) ** (a - b - 1)
        / (mpmath.sinh(s) * mpmath.sinh(t) * mpmath.sinh(u)) ** (2 * a)
        * (1 - big_b**2) ** (a - mpmath.mpf(1) / 2)
        * mpmath.hyp2f1(a + b, a - b, a + mpmath.mpf(1) / 2, (1 - big_b) / 2)
    )
    return float(val)


def omega(alpha, beta, lam):
    """omega(lambda) = (lambda^2 + 4 rho^2)^(alpha + 1/4), principal branch."""
    rho = rho_of(alpha, beta)
    lam = mpmath.mpc(lam.real, lam.imag)
    return complex(mpmath.power(lam**2 + 4 * rho**2, alpha + 0.25))


# The standard multiplier family as closed forms: member = profile / omega,
# so omega * member = profile, whose boundary trace on Im lambda = rho is
# profile(x + i rho).  Each entry is (label, profile, d profile / d lambda).
def _family(rho):
    def gauss(c):
        return (
            lambda z: np.exp(-c * z**2),
            lambda z: -2.0 * c * z * np.exp(-c * z**2),
        )

    def modulated(z):
        return np.exp(-0.1 * z**2) * np.cos(z) ** 2

    def modulated_d(z):
        return np.exp(-0.1 * z**2) * (
            -0.2 * z * np.cos(z) ** 2 - 2.0 * np.cos(z) * np.sin(z)
        )

    def rational(z):
        return (z**2 + 1.0) / (z**2 + 4.0 * rho**2)

    def rational_d(z):
        return 2.0 * z * (4.0 * rho**2 - 1.0) / (z**2 + 4.0 * rho**2) ** 2

    def heat(z):
        return np.exp(-0.02 * (z**2 + rho**2))

    def heat_d(z):
        return -0.04 * z * heat(z)

    return [
        ("gauss-wide", *gauss(0.05)),
        ("gauss-narrow", *gauss(0.2)),
        ("gauss-modulated", modulated, modulated_d),
        ("rational", rational, rational_d),
        ("heat-like", heat, heat_d),
    ]


def spectral_nodes(lam_max, n_panels, nodes_per_panel=4):
    """Nodes of the composite Gauss-Legendre spectral grid on (0, lam_max]."""
    x_ref, _ = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(0.0, lam_max, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    return (mids[:, None] + halves[:, None] * x_ref[None, :]).ravel()


def multiplier_sups(alpha, beta, lam_max, n_panels):
    """sup |m| over the spectral grid nodes for each standard family member.

    At p = 2 the discrete transform pair is unitary, so no operator-norm
    lower bound may exceed this.
    """
    rho = rho_of(alpha, beta)
    lam = spectral_nodes(lam_max, n_panels).astype(complex)
    weight = (lam**2 + 4.0 * rho**2) ** (alpha + 0.25)
    with np.errstate(under="ignore"):
        return {
            label: float(np.max(np.abs(prof(lam) / weight)))
            for label, prof, _ in _family(rho)
        }


def mihlin_proxies(alpha, beta, lam_max=40.0, points_per_octave=16):
    """sup|g| + sup|lambda g'| over the dyadic grid of [1/lam_max, lam_max],
    with g the exact boundary trace profile(x + i rho) and g' its exact
    derivative: the quantity the probe's proxy_norm column approximates."""
    rho = rho_of(alpha, beta)
    n_oct = int(math.ceil(math.log2(lam_max)))
    exps = np.arange(-n_oct * points_per_octave, n_oct * points_per_octave + 1)
    lam = 2.0 ** (exps / points_per_octave)
    lam = lam[(lam >= 1.0 / lam_max) & (lam <= lam_max)]
    z = lam + 1j * rho
    return {
        label: float(np.max(np.abs(prof(z))) + np.max(np.abs(lam * deriv(z))))
        for label, prof, deriv in _family(rho)
    }
