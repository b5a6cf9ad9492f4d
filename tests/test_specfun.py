import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacobilab import (
    ConvergenceError,
    DomainError,
    JacobiParameters,
    OverflowLimitError,
    ParameterError,
    PoleError,
    bessel_script_J,
    gamma_complex,
    hyp2f1,
    phi_matrix,
)
from jacobilab import specfun
from jacobilab.specfun import hyp2f1_real_arg

RNG = np.random.default_rng(20260826)


class TestGammaComplex:
    def test_against_mpmath_scattered(self):
        points = [
            0.5, 1.0, 3.7, 10.2, -0.3 + 0.7j, 2.5 - 4.0j, -3.3 + 1.1j,
            0.5 + 30j, -0.5 - 12j, 7.0 + 0.01j, -6.7 - 0.4j,
        ]
        for z in points:
            expected = complex(mpmath.gamma(z))
            got = gamma_complex(z)
            assert abs(got - expected) <= 1e-12 * abs(expected), z

    def test_tall_imaginary_arguments(self):
        # far up the imaginary axis, where sin(pi z) of a reflection would overflow
        for z in (-0.5 + 200j, -2.0 - 400j, 0.1 + 120j):
            expected = complex(mpmath.gamma(z))
            got = gamma_complex(z)
            assert abs(got - expected) <= 1e-10 * abs(expected), z

    def test_vectorized_matches_scalar(self):
        z = np.array([1.5 + 0.5j, -0.7 + 2.0j, 4.0 - 1.0j])
        vec = gamma_complex(z)
        for zi, vi in zip(z, vec):
            assert vi == gamma_complex(zi)

    @pytest.mark.parametrize("z", [171.7, 200.0, -200.5, -180.5, 1.0 + 600j])
    def test_past_the_doubles_raises_naming_z(self, z):
        # the Lanczos product overflowed to nan + nan i, with RuntimeWarnings
        with pytest.raises(OverflowLimitError, match="leaves the normal doubles at z = " + re.escape(f"{complex(z):.6g}")):
            gamma_complex(z)
        with pytest.raises(OverflowLimitError):
            gamma_complex(np.array([1.5, z]))

    @pytest.mark.parametrize("z", [150.0, 171.5, -170.5, -150.5 + 3.0j, 160.0 + 20.0j])
    def test_intermediate_overflow_is_not_a_limit(self, z):
        # t^(x - 1/2) of the Lanczos form overflows from about z = 143 on, yet Gamma(z) is a normal double
        expected = complex(mpmath.gamma(z))
        assert abs(gamma_complex(z) - expected) <= 1e-12 * abs(expected), z

    def test_pole_raises(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma_complex(bad)

    def test_nan_raises(self):
        for bad in (complex(math.nan, 0.0), math.inf, -math.inf, complex(0.5, math.inf)):
            with pytest.raises(DomainError):
                gamma_complex(bad)


class TestGammaIdentities:
    # gamma_complex has no reflection branch, so the reflection formula is an
    # independent check; the recurrence checks the shift z (z+1) ... (z+n-1)

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(-8.0, 8.0), im=st.floats(-20.0, 20.0))
    def test_reflection_formula(self, re, im):
        # Gamma(z) Gamma(1-z) = pi / sin(pi z), the right side in mpmath since
        # pi z in double rounds near the integers
        z = complex(re, im)
        sin_pi_z = mpmath.sinpi(mpmath.mpc(re, im))
        assume(abs(sin_pi_z) >= 1e-3)
        rhs = complex(mpmath.pi / sin_pi_z)
        lhs = gamma_complex(z) * gamma_complex(1.0 - z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(-8.0, 8.0), im=st.floats(-20.0, 20.0))
    def test_recurrence_formula(self, re, im):
        z = complex(re, im)
        assume(abs(z - round(re)) >= 1e-3)
        assert abs(gamma_complex(z + 1.0) - z * gamma_complex(z)) <= 1e-13 * abs(z * gamma_complex(z))

    def test_duplication_formula(self):
        # Gamma(2z) = 2^(2z-1)/sqrt(pi) Gamma(z) Gamma(z + 1/2)
        for _ in range(20):
            z = complex(RNG.uniform(0.3, 4.0), RNG.uniform(-4, 4))
            lhs = gamma_complex(2.0 * z)
            rhs = (
                2.0 ** (2.0 * z - 1.0)
                / math.sqrt(math.pi)
                * gamma_complex(z)
                * gamma_complex(z + 0.5)
            )
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestHyp2F1:
    @pytest.mark.parametrize("abc", [(math.nan, 1.0, 2.0), (1.0, complex(0.5, math.nan), 2.0), (1.0, 1.0, math.nan)])
    def test_nan_parameter_raises(self, abc):
        with pytest.raises(DomainError, match="NaN argument to hyp2f1"):
            hyp2f1(*abc, 0.5)

    @pytest.mark.parametrize(
        "args, named",
        [
            ((math.inf, 1.0, 2.0, 0.5), "a = "),
            ((1.0, -math.inf, 2.0, 0.5), "b = "),
            ((1.0, 1.0, complex(2.0, math.inf), 0.5), "c = "),
            ((1.0, 1.0, 2.0, 0.5 + 0j), "real z"),
            ((1.0, 1.0, 2.0, np.complex128(-1.0)), "real z"),
        ],
    )
    def test_non_finite_parameter_or_complex_z_is_named(self, args, named):
        # an infinite parameter summed the series to its 100000-term budget, and
        # a complex z raised TypeError
        with pytest.raises(DomainError, match=named):
            hyp2f1(*args)

    def test_against_mpmath_positive_argument(self):
        for _ in range(25):
            a = complex(RNG.uniform(-2, 3), RNG.uniform(-2, 2))
            b = complex(RNG.uniform(-2, 3), RNG.uniform(-2, 2))
            c = complex(RNG.uniform(0.5, 4), RNG.uniform(-1, 1))
            z = float(RNG.uniform(0.0, 0.8))
            expected = complex(mpmath.hyp2f1(a, b, c, z))
            got = hyp2f1(a, b, c, z)
            assert abs(got - expected) <= 1e-11 * max(abs(expected), 1.0)

    def test_pfaff_route_negative_argument(self):
        for _ in range(25):
            a = complex(RNG.uniform(-1, 2), RNG.uniform(-2, 2))
            b = complex(RNG.uniform(-1, 2), RNG.uniform(-2, 2))
            c = complex(RNG.uniform(0.8, 4), 0.0)
            z = float(-RNG.uniform(0.0, 50.0))
            expected = complex(mpmath.hyp2f1(a, b, c, z))
            got = hyp2f1(a, b, c, z)
            assert abs(got - expected) <= 1e-9 * max(abs(expected), 1.0)

    def test_bad_c_raises(self):
        with pytest.raises(ParameterError):
            hyp2f1(1.0, 2.0, -3.0, 0.5)

    def test_argument_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)

    def test_infinite_z_is_named(self):
        # z = -inf maps to w = nan, which summed to the term budget
        with pytest.raises(DomainError, match="z = -inf"):
            hyp2f1(1.0, 1.0, 2.0, -math.inf)

    def test_nan_w_raises(self):
        with pytest.raises(DomainError):
            hyp2f1_real_arg(1.0, 1.0, 2.0, np.array([0.5, math.nan]))

    def test_max_terms_budget(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 64)
        with pytest.raises(ConvergenceError):
            hyp2f1(1.0, 1.0, 2.0, 0.999)

    # a 2F1 row past 64 terms: t = 0.99 sits just below the switch t_s = 1
    @pytest.mark.parametrize(
        "call",
        [lambda: phi_matrix(JacobiParameters(1.2, 0.3), [0.5, 0.99], [0.0, 3.0])],
        ids=["phi-matrix"],
    )
    def test_max_terms_budget_shared_pairs(self, monkeypatch, call):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 64)
        with pytest.raises(ConvergenceError):
            call()

    def test_vectorized_real_argument(self):
        w = np.linspace(0.0, 0.7, 9)
        got = hyp2f1_real_arg(0.7, 1.3, 2.1, w)
        for wi, gi in zip(w, got):
            expected = complex(mpmath.hyp2f1(0.7, 1.3, 2.1, wi))
            assert abs(gi - expected) <= 1e-12 * max(abs(expected), 1.0)

    def test_slices_match_single_elements(self):
        # one pair, each element summed to its own truncation: every value is
        # bitwise the one of a call on that element alone, and of any slice,
        # reordering or reshaping of the batch; w = 0 gives exactly 1
        rng = np.random.default_rng(9)
        w = rng.uniform(0.0, 0.95, 3000)
        w[::7] = 0.0
        perm = rng.permutation(w.size)
        for a in (0.7 + 9.0j, 1.6, 3.5 - 20.0j):
            b = np.conj(a)
            batch = hyp2f1_real_arg(a, b, 2.2, w)
            assert np.all(batch[w == 0.0] == 1.0)
            assert np.array_equal(hyp2f1_real_arg(a, b, 2.2, w[perm]), batch[perm])
            assert np.array_equal(hyp2f1_real_arg(a, b, 2.2, w.reshape(60, 50).T), batch.reshape(60, 50).T)
            assert np.array_equal(hyp2f1_real_arg(a, b, 2.2, w[1000:1013]), batch[1000:1013])
            for i in [0, 1, w.size - 1, *rng.integers(0, w.size, 60)]:
                assert batch[i] == hyp2f1_real_arg(a, b, 2.2, w[i]), (a, i)


class TestBesselScriptJ:
    def test_against_scipy_both_routes(self):
        # J_script(x) = x^(-alpha) J_alpha(x); crossover sits at x = 18
        for alpha in (0.5, 1.2, 2.7):
            for x in (1e-8, 0.3, 2.0, 9.0, 17.9, 18.1, 40.0, 200.0):
                expected = scipy.special.jv(alpha, x) / x**alpha
                got = bessel_script_J(alpha, x)
                assert abs(got - expected) <= 1e-10 * abs(expected) + 1e-12, (alpha, x)

    def test_finite_at_zero(self):
        alpha = 1.2
        expected = 1.0 / (2.0**alpha * scipy.special.gamma(alpha + 1.0))
        assert bessel_script_J(alpha, 0.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("x", [0.5, 5.0, 17.9, 18.1, 25.0, 40.0])
    @pytest.mark.parametrize("alpha", [1.2, 3.0, 6.0, 10.0, 15.0, 30.0, 165.0])
    def test_against_mpmath_or_typed_error(self, alpha, x):
        # within 1e-9 of the amplitude x^(-alpha) sqrt(2/(pi x)), or a typed error
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            expected = mpmath.besselj(alpha, xm) * xm ** (-alpha)
            amplitude = xm ** (-alpha) * mpmath.sqrt(2 / (mpmath.pi * xm))
            try:
                got = bessel_script_J(alpha, x)
            except (ConvergenceError, OverflowLimitError):
                return
            assert abs(got - expected) <= 1e-9 * amplitude

    @pytest.mark.parametrize("x", [14.0, 17.9])
    @pytest.mark.parametrize("alpha", [1.2, 2.7])
    def test_series_at_non_integer_alpha(self, alpha, x):
        # the ascending series near the crossover, where its terms cancel most:
        # within 1e-12 of the amplitude, since every factor m + alpha is a
        # long double (rounded to double it cost 1.06e-10 at alpha 1.2, x 17.9)
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            expected = mpmath.besselj(alpha, xm) * xm ** (-alpha)
            amplitude = xm ** (-alpha) * mpmath.sqrt(2 / (mpmath.pi * xm))
            assert abs(bessel_script_J(alpha, x) - expected) <= 1e-12 * amplitude

    def test_below_double_range_raises(self):
        # x^(-165) J_165(3) is about 1e-346: an error naming alpha, not a 0.0
        with pytest.raises(OverflowLimitError, match="alpha = 165"):
            bessel_script_J(165.0, 3.0)

    @pytest.mark.parametrize("alpha", [1024.0, 2000.0, 1e300])
    @pytest.mark.parametrize("x", [1.0, 30.0])
    def test_alpha_past_the_float_power_is_a_typed_limit(self, alpha, x):
        # 2.0**alpha raised Python's OverflowError from alpha = 1024 on
        with pytest.raises(OverflowLimitError, match=re.escape(f"alpha = {alpha:g}")):
            bessel_script_J(alpha, x)

    def test_large_comparable_alpha_and_x_raise(self):
        # neither branch is accurate where alpha and x are both large and close
        with pytest.raises(ConvergenceError, match="alpha = 60, x = 100"):
            bessel_script_J(60.0, 100.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_script_J(1.2, -1.0)
        with pytest.raises(DomainError):
            bessel_script_J(-0.7, 1.0)

    @pytest.mark.parametrize("alpha, x, name", [(1.5, 1.0 + 0j, "x"), (1.5 + 0j, 1.0, "alpha"), (1.5, 2.0 + 1j, "x")])
    def test_complex_argument_is_named(self, alpha, x, name):
        # a complex alpha or x raised Python's TypeError
        with pytest.raises(DomainError, match=rf"^bessel_script_J requires a real {name}, got {name} = \("):
            bessel_script_J(alpha, x)

    def test_infinite_argument_raises(self):
        # unchecked, x = inf reaches cos(inf) in the Hankel branch, a bare ValueError
        with pytest.raises(DomainError, match="finite x"):
            bessel_script_J(1.2, math.inf)
        with pytest.raises(DomainError, match="finite alpha"):
            bessel_script_J(math.inf, 1.0)
