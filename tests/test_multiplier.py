import math

import numpy as np
import pytest

from jacobilab import (
    ConvergenceError,
    DecayError,
    DomainError,
    GridError,
    MultiplierSpec,
    JacobiParameters,
    OverflowLimitError,
    ParameterError,
    PoleError,
    RadialGrid,
    SpectralGrid,
    boundary_trace,
    c_function,
    c_inverse_reflected,
    contour_shift_check,
    delta_expansion,
    hc_global_pieces,
    heat_kernel,
    heat_regularize,
    hormander_check,
    kernel_from_multiplier,
    mihlin_proxy_norm,
    modified_multiplier,
    omega,
    p_s_function,
    split_kernel,
    w_function,
    weight_density,
)
from jacobilab._util import dyadic_differences, loglog_slope
from jacobilab.multiplier import _cutoff_phi, _cutoff_psi


def gauss_multiplier(scale=0.1, label="gauss"):
    def evaluate(lam):
        lam = np.asarray(lam, dtype=complex)
        with np.errstate(under="ignore"):
            return np.exp(-scale * lam**2)

    return MultiplierSpec(evaluate, "rapidly-decreasing", label)


class TestMultiplierSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MultiplierSpec(lambda lam: lam, "weird", "bad-class")

    @pytest.mark.parametrize(
        "args, name",
        [((lambda lam: lam, "bounded", 3), "label"), ((3, "bounded", "x"), "evaluate")],
        ids=["label-not-a-string", "evaluate-not-callable"],
    )
    def test_bad_field_is_named(self, args, name):
        with pytest.raises(ParameterError, match=rf"\b{name}\b"):
            MultiplierSpec(*args)

    def test_evenness_defect(self):
        m = gauss_multiplier()
        assert m.evenness_defect() < 1e-14


class TestOmega:
    def test_values(self, generic_params):
        # omega(lambda) = (lambda^2 + 4 rho^2)^(alpha + 1/4)
        for lam in (0.0, 1.0, 5.0, 2.0 + 1.0j):
            expected = (lam**2 + 4 * generic_params.rho**2) ** (1.2 + 0.25)
            assert omega(generic_params, lam) == pytest.approx(expected, rel=1e-13)

    def test_branch_cut_guard(self, generic_params):
        bad = 1j * 3.0 * generic_params.rho  # lam^2 + 4 rho^2 < 0
        with pytest.raises(DomainError):
            omega(generic_params, bad)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, complex(1.0, math.nan), np.array([1.0, math.nan])])
    def test_non_finite_lambda_raises(self, generic_params, lam):
        # unchecked, NaN gives nan + nan i and RuntimeWarnings
        with pytest.raises(DomainError, match="lambda"):
            omega(generic_params, lam)

    @pytest.mark.parametrize("call", [omega, w_function])
    def test_overflow_raises(self, generic_params, call):
        # unchecked, omega(1e160) is inf with a RuntimeWarning
        with pytest.raises(OverflowLimitError, match="lambda = 1e\\+160"):
            call(generic_params, np.array([1.0, 1e160]))


class TestModifiedMultiplier:
    def test_h3_magnitude_is_lambda(self, h3_params):
        # at (1/2,-1/2), c(-lambda)^(-1) = -i lambda, so |M| = |m| |lambda|
        m = gauss_multiplier()
        lam = np.array([0.5, 2.0, 7.0])
        got = np.abs(modified_multiplier(h3_params, m, lam.astype(complex)))
        expected = np.abs(m(lam)) * lam
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_reciprocal_consistency(self, generic_params):
        lam = np.array([0.7 + 0.2j, 3.0 - 1.0j])
        prod = c_inverse_reflected(generic_params, lam) * c_function(generic_params, -lam)
        assert np.max(np.abs(prod - 1.0)) < 1e-12
        # Gamma(-i lambda) has poles where -i lambda is a nonpositive integer
        assert np.all(c_inverse_reflected(generic_params, np.array([0.0, -1j, -2j])) == 0.0)
        assert c_inverse_reflected(generic_params, 0.0) == 0.0

    def test_zero_multiplier_stays_zero(self, generic_params):
        def dead(lam):
            return np.zeros(np.shape(np.asarray(lam)), dtype=complex)

        m = MultiplierSpec(dead, "rapidly-decreasing", "dead")
        out = modified_multiplier(generic_params, m, np.array([1000.0 + 0j]))
        assert np.all(out == 0.0)

    def test_past_gamma_range_raises(self, generic_params, mpmath_c):
        # c(-lambda) at |lambda| = 480 is finite; past alpha of about 500 it
        # leaves the doubles, which is a typed error, not NaN
        one = MultiplierSpec(lambda lam: np.ones(np.shape(lam), dtype=complex), "bounded", "one")
        expected = 1.0 / mpmath_c(generic_params, -480.0)
        got = modified_multiplier(generic_params, one, np.array([480.0 + 0j]))[0]
        assert abs(got - expected) <= 1e-12 * abs(expected)
        assert abs(c_inverse_reflected(generic_params, 480.0) - expected) <= 1e-12 * abs(expected)
        big = JacobiParameters(600.0, 1.0)
        with pytest.raises(OverflowLimitError):
            modified_multiplier(big, one, np.array([2.0 + 0j]))
        with pytest.raises(OverflowLimitError):
            c_inverse_reflected(big, 2.0)

    def test_zeros_of_c_reflected_are_poles(self, generic_params):
        # c(-lambda) vanishes at lambda = -i(alpha - beta + 1 + 2n) and -i(rho + 2n)
        for lam in (-1.9j, -3.9j, -2.5j):
            with pytest.raises(PoleError, match=r"c\(-lambda\)\^\(-1\) has a pole at lambda"):
                c_inverse_reflected(generic_params, lam)


def neville_zero_scalar(xs, ys):
    """The scalar Neville recurrence, one node at a time (reference)."""
    xs = list(map(float, xs))
    tab = [complex(y) for y in ys]
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * xs[i + level] / (
                xs[i] - xs[i + level]
            )
    return tab[0]


class TestBoundaryTrace:
    @pytest.mark.parametrize("imag_scale", [1.0, 0.0])
    def test_tableau_matches_scalar_recurrence(self, imag_scale):
        # samples near a smooth value at each rung; the fixed tableau must
        # reproduce the scalar complex recurrence bitwise, and stay complex
        # for a real g
        rng = np.random.default_rng(11)
        height, eps = 0.75, (1e-2, 1e-3, 1e-4)
        base = rng.normal(size=50) + 1j * imag_scale * rng.normal(size=50)
        rungs = {height - e: base + 1e-7 * (rng.normal(size=50) + 1j * imag_scale * rng.normal(size=50)) for e in eps}
        if not imag_scale:
            rungs = {k: v.real for k, v in rungs.items()}

        def g(z):
            return rungs[float(z.imag[0])]

        got = boundary_trace(g, height, np.linspace(1.0, 2.0, 50))
        want = np.array([neville_zero_scalar(eps, [rungs[height - e][i] for e in eps]) for i in range(50)])
        assert got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()

    def test_entire_function_trace(self, generic_params):
        # strip-scaled Gaussian: trace equals the direct evaluation on the line
        rho = generic_params.rho

        def g(z):
            return np.exp(-((np.asarray(z, dtype=complex) / 4.0) ** 2))

        nodes = np.linspace(0.1, 10.0, 25)
        trace = boundary_trace(g, rho, nodes)
        expected = g(nodes + 1j * rho)
        assert np.max(np.abs(trace - expected)) < 1e-9

    def test_zero_height_is_direct(self):
        def g(z):
            return np.asarray(z) ** 2

        nodes = np.array([1.0, 2.0])
        trace = boundary_trace(g, 0.0, nodes)
        assert trace.dtype == np.complex128
        assert np.allclose(trace, nodes**2)

    def test_nan_height_raises(self):
        # unchecked, every sample is NaN
        with pytest.raises(DomainError, match="height"):
            boundary_trace(lambda z: z, math.nan, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_node_raises(self, bad):
        # unchecked, the bad node's sample is NaN next to the good one's
        def g(z):
            return np.exp(-(np.asarray(z, dtype=complex) ** 2))

        with pytest.raises(DomainError, match="nodes"):
            boundary_trace(g, 1.0, [1.0, bad])

    def test_unstable_trace_raises(self, generic_params):
        # pole on the target line: the ladder cannot settle
        rho = generic_params.rho

        def g(z):
            return 1.0 / (np.asarray(z, dtype=complex) - 1j * rho)

        with pytest.raises(ConvergenceError):
            boundary_trace(g, rho, np.array([1e-4]))

    def test_pole_on_a_rung_raises_naming_the_node(self):
        # the rung at height 1 - 1e-3 hits the pole at node 5; unchecked, the
        # NaN defect passes the gate and the sample there is -inf + nan i
        def g(z):
            return 1.0 / (np.asarray(z, dtype=complex) - (5.0 + 0.999j))

        with pytest.raises(ConvergenceError, match="not finite at node x = 5$"):
            boundary_trace(g, 1.0, [4.0, 5.0])


class TestWFunction:
    @pytest.mark.parametrize("preset", ["generic", "h3", "dr"])
    def test_decay_slope(self, preset, generic_params, h3_params, dr_params):
        params = {"generic": generic_params, "h3": h3_params, "dr": dr_params}[preset]
        lam = np.geomspace(50.0, 400.0, 40)
        slope, _ = loglog_slope(lam, np.abs(w_function(params, lam)))
        assert abs(slope - (-params.alpha)) < 0.1

    def test_derivative_slope(self, generic_params):
        lam = np.geomspace(50.0, 400.0, 40)
        h = 1e-4 * lam
        wp = np.abs(
            (w_function(generic_params, lam + h) - w_function(generic_params, lam - h))
            / (2 * h)
        )
        slope, _ = loglog_slope(lam, wp)
        assert slope <= -0.5 + 0.1


class TestDyadicDifferences:
    """g must map a lambda array to numbers of its shape; unchecked, these
    raised IndexError."""

    @pytest.mark.parametrize("g", [lambda x: "a", lambda x: 1.0, lambda x: np.ones(3)], ids=["string", "scalar", "short"])
    @pytest.mark.parametrize("check", [hormander_check, mihlin_proxy_norm])
    def test_bad_values_name_g(self, check, g):
        with pytest.raises(DomainError, match=r"\bg must return numbers"):
            check(g)

    def test_real_g_keeps_real_differences(self):
        lam, _, gp, _ = dyadic_differences(lambda x: x**2, 1.0, 4.0)
        assert gp.dtype == np.float64
        assert np.allclose(gp, 2.0 * lam, rtol=1e-9)


class TestHormanderCheck:
    def test_known_function(self):
        # g = lam/(1+lam): sup|g| -> 1, sup|lam g'| = max lam/(1+lam)^2 = 1/4
        report = hormander_check(lambda lam: lam / (1.0 + lam))
        assert 0.99 < report["sup_g"] < 1.0
        assert report["sup_lam_gp"] == pytest.approx(0.25, rel=1e-3)
        assert report["lam_max"] == 400.0


class TestCutoffs:
    def test_plateaus_and_support(self):
        lo = math.sqrt(1.1)
        assert np.all(_cutoff_psi(np.linspace(0.0, lo, 20)) == 1.0)
        assert np.all(_cutoff_psi(np.linspace(1.1, 3.0, 20)) == 0.0)
        assert np.all(_cutoff_phi(np.linspace(0.0, 1.0 / 1.1, 20)) == 1.0)
        assert np.all(_cutoff_phi(np.linspace(2.0 / 1.1, 5.0, 20)) == 0.0)


class TestKernelFromMultiplier:
    def test_heat_multiplier_matches_heat_kernel(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        s = 0.1
        rho2 = generic_params.rho**2

        def evaluate(lam):
            with np.errstate(under="ignore"):
                return np.exp(-s * (np.asarray(lam) ** 2 + rho2))

        m = MultiplierSpec(evaluate, "rapidly-decreasing", "heat")
        k = kernel_from_multiplier(generic_params, m, rgrid, sgrid)
        h = heat_kernel(generic_params, s, rgrid, sgrid)
        assert np.max(np.abs(k.values - h.values)) == 0.0

    def test_decay_class_gate(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        m = MultiplierSpec(lambda lam: np.ones(np.shape(lam)), "bounded", "one")
        with pytest.raises(DecayError):
            kernel_from_multiplier(generic_params, m, rgrid, sgrid)
        smoothed = heat_regularize(m, 0.05, generic_params)
        kernel_from_multiplier(generic_params, smoothed, rgrid, sgrid)

    @pytest.mark.parametrize("s", [0.0, -0.1, math.nan])
    def test_heat_regularize_needs_positive_s(self, generic_params, s):
        m = MultiplierSpec(lambda lam: np.ones(np.shape(lam)), "bounded", "one")
        with pytest.raises(DomainError, match=r"heat_regularize requires s > 0"):
            heat_regularize(m, s, generic_params)

    def test_split_partition(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        k = heat_kernel(generic_params, 0.1, rgrid, sgrid)
        local, tail = split_kernel(k)
        assert np.max(np.abs(local.values + tail.values - k.values)) < 1e-14
        nodes = rgrid.nodes
        assert np.all(np.abs(local.values[nodes > 1.1]) == 0.0)
        assert np.all(np.abs(tail.values[nodes < math.sqrt(1.1)]) == 0.0)

    def test_split_grid_guard(self, generic_params):
        rgrid = RadialGrid.graded(generic_params, 1.2, 20)
        sgrid = SpectralGrid.build(generic_params, 20.0, 40)
        k = heat_kernel(generic_params, 0.2, rgrid, sgrid)
        with pytest.raises(GridError):
            split_kernel(k)


class TestDeltaExpansion:
    def test_reconstruction(self, generic_params):
        t = np.linspace(0.3, 6.0, 40)
        _, _, recon = delta_expansion(generic_params, t)
        target = weight_density(generic_params, t)
        assert np.max(np.abs(recon - target) / target) < 1e-12

    def test_overflow_raises(self, generic_params):
        # e^(2 rho t) at rho t = 1000 leaves the doubles
        with pytest.raises(OverflowLimitError, match="rho t = 1000"):
            delta_expansion(generic_params, [400.0])

    def test_negative_t_raises(self, generic_params):
        # unchecked, (1 - e^(-2t))^<alpha> of a negative base is NaN
        with pytest.raises(DomainError, match="t >= 0"):
            delta_expansion(generic_params, [1.0, -1.0])
        _, _, recon = delta_expansion(generic_params, [0.0])
        assert np.isfinite(recon).all()


class TestPsFunction:
    def test_vanishes_inside_cutoff(self, generic_params):
        lam = np.linspace(0.01, 1.0 / 1.1, 10)
        assert np.all(p_s_function(generic_params, 0.5, lam) == 0.0)

    def test_matches_formula_outside(self, generic_params):
        lam = np.array([3.0, 10.0])
        got = p_s_function(generic_params, 0.5, lam)
        expected = lam**-0.5 / c_function(generic_params, lam.astype(complex))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_nan_lambda_raises(self, generic_params):
        # unchecked, NaN fails the cutoff test and reads as P_s = 0
        with pytest.raises(DomainError, match="lambda"):
            p_s_function(generic_params, 0.5, [3.0, math.nan])

    def test_nan_s_raises(self, generic_params):
        # unchecked, |lambda|^(-nan) makes every sample past the cutoff NaN
        with pytest.raises(DomainError, match="s must"):
            p_s_function(generic_params, math.nan, [3.0])


class TestGlobalPieces:
    def test_reconstruction_converges(self, generic_params):
        m = gauss_multiplier()
        t = np.linspace(1.1, 4.0, 12)
        res = hc_global_pieces(generic_params, m, ell_max=8, t_nodes=t)
        assert res["converged"]
        assert res["rel_error"] < 1e-6

    def test_error_monotone_in_ell_max(self, generic_params):
        m = gauss_multiplier()
        t = np.linspace(1.1, 4.0, 8)
        errs = [
            hc_global_pieces(generic_params, m, ell_max=e, t_nodes=t)["rel_error"]
            for e in (1, 2, 3, 5)
        ]
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(errs, errs[1:]))

    def test_a_plus_decay_in_ell(self, generic_params):
        m = gauss_multiplier()
        res = hc_global_pieces(generic_params, m, 5, np.array([1.5, 2.5, 3.5]))
        sups = np.max(np.abs(res["a_plus"]), axis=1)
        assert np.all(np.diff(sups) < 0)

    def test_domain_guards(self, generic_params):
        m = gauss_multiplier()
        with pytest.raises(DomainError):
            hc_global_pieces(generic_params, m, 3, np.array([0.5]))
        bounded = MultiplierSpec(lambda lam: np.ones(np.shape(lam)), "bounded", "one")
        with pytest.raises(DecayError):
            hc_global_pieces(generic_params, bounded, 3, np.array([1.5]))

    @pytest.mark.parametrize(
        "ell_max, t, error",
        [
            (-1, [1.5], ParameterError),
            (2.5, [1.5], ParameterError),
            (3, [], DomainError),
            (3, [1.5, math.inf], DomainError),
            (True, [1.5], ParameterError),
        ],
    )
    def test_bad_index_or_t_raises(self, generic_params, ell_max, t, error):
        with pytest.raises(error):
            hc_global_pieces(generic_params, gauss_multiplier(), ell_max, np.array(t))

    @pytest.mark.parametrize("t", [150.0, 300.0])
    def test_overflow_raises(self, generic_params, t):
        # Delta(t) and the Delta expansion form e^(2 rho t), and b^+ forms e^(rho t)
        with pytest.raises(OverflowLimitError, match=f"rho t = {2.5 * t:g}"):
            hc_global_pieces(generic_params, gauss_multiplier(), 3, np.array([1.5, t]))


class TestContourShift:
    def test_defect_vanishes(self, generic_params):
        m = gauss_multiplier()
        res = contour_shift_check(generic_params, m, k=0, t=1.5)
        scale = max(abs(res["direct"]), 1e-300)
        assert res["defect"] / scale < 1e-6
        assert res["edge_magnitudes"][-1] <= res["edge_magnitudes"][0]

    def test_guards(self, generic_params):
        m = gauss_multiplier()
        with pytest.raises(DomainError):
            contour_shift_check(generic_params, m, 0, t=0.0)
        bounded = MultiplierSpec(lambda lam: np.ones(np.shape(lam)), "bounded", "one")
        with pytest.raises(DecayError):
            contour_shift_check(generic_params, bounded, 0, t=1.0)
        # declared rapidly decreasing, but growing along the real axis
        growing = MultiplierSpec(lambda lam: np.exp(1e-4 * np.asarray(lam) ** 2), "rapidly-decreasing", "growing")
        with pytest.raises(DomainError, match="vertical-edge integrals grow"):
            contour_shift_check(generic_params, growing, 0, t=1.5)

    @pytest.mark.parametrize(
        "k, t, error",
        [
            (0, math.nan, DomainError),
            (0, math.inf, DomainError),
            (-1, 1.5, ParameterError),
            (0.5, 1.5, ParameterError),
        ],
        ids=["0-nan-r_values0-DomainError", "0-inf-r_values1-DomainError",
             "-1-1.5-r_values2-ParameterError", "0.5-1.5-r_values3-ParameterError"],
    )
    def test_bad_input_raises(self, generic_params, k, t, error):
        # unchecked, k = -1 computes k = 0
        with pytest.raises(error):
            contour_shift_check(generic_params, gauss_multiplier(), k, t)

    def test_overflow_raises(self, generic_params):
        # the common factor e^(rho t) at rho t = 750 leaves the doubles
        with pytest.raises(OverflowLimitError, match="rho t = 750"):
            contour_shift_check(generic_params, gauss_multiplier(), 0, 300.0)
