import math
import warnings

import mpmath
import numpy as np
import pytest

from jacobilab import JacobiParameters, RadialGrid, SpectralGrid


@pytest.fixture(scope="session")
def generic_params():
    return JacobiParameters(1.2, 0.3)


@pytest.fixture(scope="session")
def h3_params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return JacobiParameters(0.5, -0.5, relaxed=True)


@pytest.fixture(scope="session")
def h5_params():
    """Real hyperbolic space H^5: alpha = 3/2, beta = -1/2, rho = 2."""
    return JacobiParameters(1.5, -0.5, relaxed=True)


@pytest.fixture(scope="session")
def dr_params():
    return JacobiParameters(1.5, 0.5)


@pytest.fixture(scope="session")
def a3b1_params():
    return JacobiParameters(3.0, 1.0)


@pytest.fixture(scope="session")
def grids(generic_params):
    """Full-size grid pair for the generic preset, built once per session."""
    return (
        RadialGrid.graded(generic_params, 20.0, 400),
        SpectralGrid.build(generic_params, 50.0, 300),
    )


@pytest.fixture(scope="session")
def small_grids(generic_params):
    """Cheap grid pair for tests that only need qualitative behavior."""
    return (
        RadialGrid.graded(generic_params, 12.0, 120),
        SpectralGrid.build(generic_params, 30.0, 120),
    )


def _mpmath_c(params, lam):
    """c(lambda) at 40 digits, straight from the three-Gamma quotient."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
        rho, il = a + b + 1, 1j * mpmath.mpmathify(complex(lam))
        num = mpmath.power(2, rho - il) * mpmath.gamma(il) * mpmath.gamma(a + 1)
        return complex(num / (mpmath.gamma((rho + il) / 2) * mpmath.gamma((rho + il) / 2 - b)))


@pytest.fixture(scope="session")
def mpmath_c():
    """The mpmath oracle for the c-function, c(params, lam) -> complex."""
    return _mpmath_c


def _h3_heat_kernel(s, t):
    """Heat kernel of H^3 (alpha = 1/2, beta = -1/2) in closed form, for the transform's normalization."""
    return math.exp(-s) * t * np.exp(-t * t / (4.0 * s)) / (8.0 * math.sqrt(math.pi) * s**1.5 * np.sinh(t))


@pytest.fixture(scope="session")
def h3_heat_kernel():
    """h_s(t) = e^(-s) t e^(-t^2 / 4s) / (8 sqrt(pi) s^(3/2) sinh t), as h3_heat_kernel(s, t)."""
    return _h3_heat_kernel
