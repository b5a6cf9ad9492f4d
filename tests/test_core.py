import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobilab import (
    DomainError,
    JacobiParameters,
    OverflowLimitError,
    ParameterError,
    PoleError,
    SpectralGrid,
    bessel_local_expansion,
    bessel_script_J,
    c_asymptotics_report,
    c_function,
    convolution_grid,
    default_grids,
    gangolli_fit,
    jacobi_phi,
    kernel_values,
    laplacian_residual,
    phi_matrix,
    plancherel_density,
    weight_density,
)
from jacobilab import core
from jacobilab._util import loglog_slope
from jacobilab.core import _hypergeometric_route, _phi, _PhaseTable, _route_split, gamma_coefficient_table

RNG = np.random.default_rng(7)


class TestJacobiParameters:
    def test_rho_derived(self, generic_params):
        assert generic_params.rho == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ParameterError):
            JacobiParameters(0.4, 0.0)
        with pytest.raises(ParameterError):
            JacobiParameters(0.5, -0.5)  # boundary needs relaxed=True
        with pytest.raises(ParameterError):
            JacobiParameters(1.0, 1.5)
        with pytest.raises(ParameterError):
            JacobiParameters(1.0, -0.6)

    def test_nan_and_relaxed_guards(self):
        with pytest.raises(ParameterError, match="NaN Jacobi parameter"):
            JacobiParameters(math.nan, 0.3)
        with pytest.raises(ParameterError, match=r"relaxed mode still requires alpha >= 1/2"):
            JacobiParameters(0.4, 0.1, relaxed=True)

    @pytest.mark.parametrize("alpha, beta, what", [
        (math.inf, 0.5, "a finite alpha, got alpha = inf"),
        (1.2, -math.inf, "a finite beta, got beta = -inf"),
        ("2", 0.5, "a real alpha, got alpha = '2'"),
        (1 + 1j, 0.5, r"a real alpha, got alpha = \(1\+1j\)"),
        (1.2, 0.3 + 0j, r"a real beta, got beta = \(0\.3\+0j\)"),
    ])
    def test_parameter_that_is_not_a_finite_real_is_named(self, alpha, beta, what):
        # inf was accepted, "2" was kept as a string, and a complex value raised TypeError
        with pytest.raises(ParameterError, match=f"^JacobiParameters requires {what}$"):
            JacobiParameters(alpha, beta)

    def test_nan_is_named(self):
        with pytest.raises(ParameterError, match="^NaN Jacobi parameter beta$"):
            JacobiParameters(1.2, math.nan)

    def test_stores_floats(self):
        p = JacobiParameters(np.int64(2), np.float32(0.5))
        assert type(p.alpha) is float and type(p.beta) is float
        assert (p.alpha, p.beta, p.rho) == (2.0, 0.5, 3.5)
        assert p == JacobiParameters(2.0, 0.5) and hash(p) == hash(JacobiParameters(2.0, 0.5))

    def test_relaxed_boundary_warns(self):
        with pytest.warns(UserWarning):
            p = JacobiParameters(0.5, -0.5, relaxed=True)
        assert p.rho == pytest.approx(1.0)


class TestWeightDensity:
    def test_matches_definition(self, generic_params):
        t = 0.7
        expected = (2 * math.sinh(t)) ** (2 * 1.2 + 1) * (2 * math.cosh(t)) ** (2 * 0.3 + 1)
        assert weight_density(generic_params, t) == pytest.approx(expected, rel=1e-14)

    def test_requires_positive_t(self, generic_params):
        with pytest.raises(DomainError):
            weight_density(generic_params, 0.0)

    @pytest.mark.parametrize("t, got", [(0.5 + 0j, r"t = \(0\.5\+0j\)"), (np.array([0.5, 1.0 + 1j]), "a complex128 array")])
    def test_complex_t_is_named(self, generic_params, t, got):
        # a complex scalar raised Python's TypeError, and a complex array lost
        # its imaginary part after a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^weight_density requires a real t, got {got}$"):
                weight_density(generic_params, t)

    @pytest.mark.parametrize("t", [math.inf, math.nan, np.array([1.0, math.inf])])
    def test_non_finite_t_is_named(self, generic_params, t):
        # inf read as an overflow "at t = inf", and NaN as "requires t > 0"
        bad = "inf" if np.any(np.isinf(t)) else "nan"
        with pytest.raises(DomainError, match=f"requires finite t, got t = {bad}$"):
            weight_density(generic_params, t)

    def test_overflow_raises_at_grid_build(self):
        # 2 rho t passes 709 at t = 16.9 for (15, 5): a typed error naming the
        # parameters and that t, not inf mu-weights
        params = JacobiParameters(15.0, 5.0)
        with pytest.raises(OverflowLimitError, match=r"t = 16\.9.*alpha = 15, beta = 5"):
            default_grids(params)
        with pytest.raises(OverflowLimitError, match="alpha = 15"):
            weight_density(params, np.array([1.0, 20.0, 18.0]))
        assert np.isfinite(weight_density(params, 16.8))


class TestJacobiPhi:
    @pytest.mark.parametrize("t", [1 + 0j, np.complex128(1.0), "one"])
    def test_t_that_is_not_real_is_named(self, generic_params, t):
        # unchecked, a complex t reached `t < 0.0` and raised TypeError
        with pytest.raises(DomainError, match="jacobi_phi requires a real t"):
            jacobi_phi(generic_params, 1.0, t)

    def test_value_at_zero(self, generic_params):
        for lam in (0.0, 0.5, 3.0, 2.0 + 1.0j):
            assert jacobi_phi(generic_params, lam, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_evenness_in_lambda(self, generic_params):
        for lam in (0.3, 1.7, 6.0):
            for t in (0.2, 1.0, 3.0):
                a = jacobi_phi(generic_params, lam, t)
                b = jacobi_phi(generic_params, -lam, t)
                assert abs(a - b) <= 1e-12

    def test_against_mpmath_2f1(self, generic_params):
        rho = generic_params.rho
        for lam in (0.5, 2.0, 5.0):
            for t in (0.1, 0.8, 1.8):
                a = 0.5 * (rho - 1j * lam)
                b = 0.5 * (rho + 1j * lam)
                expected = complex(
                    mpmath.hyp2f1(a, b, generic_params.alpha + 1.0, -math.sinh(t) ** 2)
                )
                got = jacobi_phi(generic_params, lam, t)
                assert abs(got - expected) <= 1e-10 * max(abs(expected), 1e-3)

    def test_two_route_agreement(self, generic_params):
        # both evaluation routes are sound on this overlap region
        t, lam = np.array([1.2, 1.8]), np.array([1.0, 4.0])
        direct = _phi(generic_params, t, lam, hypergeometric=True)
        hc = _phi(generic_params, t, lam, hypergeometric=False)
        assert np.all(np.abs(direct - hc) <= 1e-8 * np.maximum(np.abs(direct), 1e-6))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lam=st.floats(0.5, 6.0), t=st.floats(1.5, 2.5))
    def test_two_route_agreement_property(self, data, lam, t):
        alpha = data.draw(st.floats(0.5, 4.0, exclude_min=True), label="alpha")
        beta = data.draw(st.floats(-0.5, alpha, exclude_min=True, exclude_max=True), label="beta")
        params = JacobiParameters(alpha, beta)
        direct = _phi(params, np.array([t]), np.array([lam]), hypergeometric=True)
        hc = _phi(params, np.array([t]), np.array([lam]), hypergeometric=False)
        assert abs(direct[0, 0] - hc[0, 0]) <= 1e-8 * math.exp(-params.rho * t)

    def test_underflow_raises(self, generic_params):
        # rho t = 1000: e^(-rho t) is below the smallest normal double
        with pytest.raises(OverflowLimitError, match="708"):
            jacobi_phi(generic_params, 2.0, 400.0)

    def test_truncation_guard_raises(self, generic_params):
        # t = 0.02 would need more than 800 Harish-Chandra terms
        with pytest.raises(DomainError, match="800"):
            jacobi_phi(generic_params, 1000.0, 0.02)
        with pytest.raises(DomainError, match="800"):
            phi_matrix(generic_params, np.array([0.02]), np.array([1000.0]))

    def test_h3_closed_form(self, h3_params):
        # phi_lambda(t) = sin(lambda t) / (lambda sinh t)
        for lam in (0.5, 1.0, 3.7, 9.0):
            for t in (0.3, 1.1, 2.5, 5.0):
                expected = math.sin(lam * t) / (lam * math.sinh(t))
                got = jacobi_phi(h3_params, lam, t)
                assert abs(got - expected) <= 1e-9, (lam, t)

    def test_eigenfunction_residual(self, generic_params):
        for lam in (0.7, 3.0):
            for t in (0.5, 1.5, 4.0):
                assert laplacian_residual(generic_params, lam, t) < 1e-5

    def test_residual_on_criterion_2_lattice(self, generic_params):
        # the five-point stencil's O(h^4) truncation sits below its rounding
        for lam in (0.5, 1.5, 3.0, 6.0):
            for t in (0.4, 0.9, 1.6, 2.8, 4.5):
                assert laplacian_residual(generic_params, lam, t) < 1e-8, (lam, t)

    def test_negative_t_raises(self, generic_params):
        with pytest.raises(DomainError):
            jacobi_phi(generic_params, 1.0, -0.1)

    @pytest.mark.parametrize("t", [0.5 + 0j, 0.5 + 1j])
    def test_residual_t_that_is_not_real_is_named(self, generic_params, t):
        # a complex t raised Python's TypeError at the stencil guard
        with pytest.raises(DomainError, match=r"^laplacian_residual requires a real t, got t = \(0\.5"):
            laplacian_residual(generic_params, 1.0, t)

    @pytest.mark.parametrize("t", [2e-3, 1e-3, 0.0])
    def test_residual_stencil_must_fit_in_t(self, generic_params, t):
        # the five-point stencil at step h = 1e-3 reaches t - 2h
        with pytest.raises(DomainError, match=r"laplacian_residual requires t > 2h > 0"):
            laplacian_residual(generic_params, 1.0, t)

    def test_complex_lambda_against_mpmath(self, generic_params):
        # phi_lambda(t) = 2F1((rho + i lambda)/2, (rho - i lambda)/2; alpha + 1; -sinh^2 t)
        p = generic_params
        lams = np.array([2 + 0.5j, 0.7 - 1.1j, 9 + 0.3j, 1.5j])
        ts = np.array([0.3, 1.2, 1.9, 3.0, 6.0])
        route = _hypergeometric_route(p, lams[None, :], ts[:, None])
        assert np.any(route) and not np.all(route)
        mat = _phi(p, ts, lams)
        dense = phi_matrix(p, ts, lams)
        with mpmath.workdps(30):
            for i, t in enumerate(ts):
                for j, lam in enumerate(lams):
                    a = (p.rho + 1j * lam) / 2
                    b = (p.rho - 1j * lam) / 2
                    ref = complex(mpmath.hyp2f1(a, b, p.alpha + 1.0, -mpmath.sinh(t) ** 2))
                    bound = 1e-10 * max(abs(ref), math.exp(-p.rho * t))
                    assert abs(jacobi_phi(p, lam, t) - ref) <= bound, (lam, t)
                    assert abs(mat[i, j] - ref) <= bound, (lam, t)
                    assert abs(dense[i, j] - ref) <= bound, (lam, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda p, x: jacobi_phi(p, x, 1.0), "lambda"),
            (lambda p, x: jacobi_phi(p, 2.0, x), "t"),
            (lambda p, x: phi_matrix(p, [1.0, 3.0], [x, 2.0]), "lambda"),
            (lambda p, x: phi_matrix(p, [x, 3.0], [2.0]), "t"),
        ],
    )
    def test_non_finite_argument_raises(self, generic_params, call, name, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"\b{name}\b"):
                call(generic_params, bad)


class TestPhiMatrix:
    def test_matches_scalar_entry_point(self, generic_params):
        # jacobi_phi is one cell of the same evaluator.  Either route keeps
        # each row's own truncation, but the rows of a block share one matrix
        # product, whose rounding depends on the block; there a cell of a
        # larger matrix agrees with the scalar entry point to rounding only:
        # on 2F1 cells to the mpmath gate of test_longest_series_against_mpmath
        t_nodes = np.array([0.2, 1.0, 2.5, 6.0])
        lam_nodes = np.array([0.4, 2.0, 11.0, 30.0, -11.0, -30.0])
        mat = phi_matrix(generic_params, t_nodes, lam_nodes)
        route = _hypergeometric_route(generic_params, lam_nodes[None, :], t_nodes[:, None])
        for i, t in enumerate(t_nodes):
            for j, lam in enumerate(lam_nodes):
                ref = jacobi_phi(generic_params, lam, t).real
                assert phi_matrix(generic_params, [t], [lam])[0, 0] == ref, (t, lam)
                if route[i, j]:
                    assert abs(mat[i, j] - ref) <= 1.5e-12 * math.exp(-generic_params.rho * t), (t, lam)
                else:
                    assert abs(mat[i, j] - ref) <= 1e-9 * max(abs(ref), 1e-8), (t, lam)

    def test_row_matches_row_alone(self, generic_params):
        # the truncation is the row's own on both routes, and only the
        # rounding of the shared product may differ: on Harish-Chandra cells
        # to 1e-14 e^(-rho t), on 2F1 cells, whose terms cancel at large
        # lambda t, to the mpmath gate of test_longest_series_against_mpmath
        p = generic_params
        rgrid, sgrid = default_grids(p, 20.0, 200, 50.0, 150)
        t, lam = rgrid.nodes, sgrid.nodes
        mat = phi_matrix(p, t, lam)
        route = _hypergeometric_route(p, lam[None, :], t[:, None])
        for i in [*range(0, t.size, 53), t.size - 1]:
            row = phi_matrix(p, t[i : i + 1], lam)[0]
            scale = math.exp(-p.rho * t[i])
            assert np.all(np.abs(row[route[i]] - mat[i, route[i]]) <= 1.5e-12 * scale), t[i]
            hc = ~route[i]
            assert np.all(np.abs(row[hc] - mat[i, hc]) <= 1e-14 * scale), t[i]

    @pytest.mark.parametrize("preset", ["generic_params", "dr_params", "h3_params", "a3b1_params"])
    def test_longest_series_against_mpmath(self, request, preset):
        # the 2F1 cells with the most terms, t just below the switch t_s up to
        # lambda t = 12, and the cells on either side of each zero of
        # phi_lambda(t) in lambda; the same cells on t in (1.5, 2], below the
        # fixed switch t = 2 of earlier versions, on either route
        p = request.getfixturevalue(preset)
        t_s = p._hc_rules.t_switch
        for t in (*(t_s * np.array([0.775, 0.85, 0.925, 0.975, 1.0])), 1.55, 1.7, 1.85, 1.95, 2.0):
            lams = np.linspace(0.0, 12.0 / t, 400)
            assert np.all(_hypergeometric_route(p, lams, t)) or t > t_s
            row = phi_matrix(p, [t], lams)[0]
            zeros = np.flatnonzero(np.sign(row[:-1]) != np.sign(row[1:]))
            assert zeros.size
            for j in {0, 57, 133, 211, 299, 399, *zeros, *(zeros + 1)}:
                ref = _mpmath_phi(p, lams[j], t)
                assert abs(row[j] - ref) <= 1.5e-12 * math.exp(-p.rho * t), (t, lams[j])

    @pytest.mark.parametrize("preset", ["generic_params", "dr_params", "h3_params"])
    def test_default_grids_against_mpmath(self, request, preset):
        # the spectral nodes repeat one gap pattern, so the phases come from
        # per-row tables; cells with lambda t up to 1000 keep the mpmath gate
        p = request.getfixturevalue(preset)
        rgrid, sgrid = default_grids(p)
        t, lam = rgrid.nodes, sgrid.nodes
        assert _PhaseTable(lam, t[-1]).q is not None
        rng = np.random.default_rng(15)
        rows = np.unique(np.concatenate([rng.integers(0, t.size, 24), [t.size - 1]]))
        mat = phi_matrix(p, t[rows], lam)
        cells = [(i, j) for i in range(rows.size) for j in rng.integers(0, lam.size, 3)]
        cells += [(rows.size - 1, lam.size - 1), (rows.size - 1, lam.size // 2)]
        assert max(t[rows[i]] * lam[j] for i, j in cells) > 990.0
        for i, j in cells:
            ti = t[rows[i]]
            ref = _mpmath_phi(p, lam[j], ti)
            assert abs(mat[i, j] - ref) <= 1.5e-12 * math.exp(-p.rho * ti), (ti, lam[j])

    def test_unpatterned_lambda_matches_grid(self, generic_params):
        # a permuted grid and one missing its last node have no gap pattern and
        # take the direct cos and sin; column for column they match the grid.
        # On Harish-Chandra cells to 1e-14 e^(-rho t), the rounding of the
        # shared product as in test_row_matches_row_alone, plus a few ulps of
        # lambda t times the amplitude 2 |c(lambda)| e^(-rho t): either path
        # rounds the phase lambda t, and neither more than the other.  On 2F1
        # cells to the mpmath gate of test_longest_series_against_mpmath
        p = generic_params
        rgrid, sgrid = default_grids(p, 20.0, 200, 50.0, 150)
        t, lam = rgrid.nodes, sgrid.nodes
        grid = phi_matrix(p, t, lam)
        phase_ulps = 4.0 * np.finfo(float).eps * np.outer(t, lam)
        bound = np.exp(-p.rho * t)[:, None] * (1e-14 + phase_ulps * 2.0 * np.abs(c_function(p, lam)))
        route = _hypergeometric_route(p, lam[None, :], t[:, None])
        bound[route] = np.broadcast_to(1.5e-12 * np.exp(-p.rho * t)[:, None], route.shape)[route]
        perm = np.random.default_rng(16).permutation(lam.size)
        for cols in (perm, np.arange(lam.size - 1)):
            assert _PhaseTable(lam[cols], t[-1]).q is None
            got = phi_matrix(p, t, lam[cols])
            assert np.all(np.abs(got - grid[:, cols]) <= bound[:, cols])

    def test_huge_lambda_at_small_t_against_mpmath(self, generic_params, monkeypatch):
        # lambda t <= 12 routes a tiny t with a huge lambda to 2F1, whose
        # coefficients C_k(lambda) grow like (lambda / 2)^(2k) / (k!)^2; they
        # are formed per column only as far as its rows sum, and must not
        # overflow (a RuntimeWarning is an error here)
        p = generic_params
        t = np.array([3e-4, 1e-3, 1.9])
        lam = np.array([0.5, 600.0, 1e4])
        mat = phi_matrix(p, t, lam)
        assert _hypergeometric_route(p, 1e4, 1e-3)
        for i, ti in enumerate(t):
            for j, lj in enumerate(lam):
                ref = _mpmath_phi(p, lj, ti)
                assert abs(mat[i, j] - ref) <= 1.5e-12 * math.exp(-p.rho * ti), (ti, lj)
        # past |lambda| of about 1e6 a column's coefficients leave the doubles
        # even so, and the column takes the nested one-pair series
        for lj, ti in [(1e4, 1e-3), (1.2e7, 1e-6)]:
            ref = _mpmath_phi(p, lj, ti)
            assert abs(jacobi_phi(p, lj, ti).real - ref) <= 1.5e-12 * math.exp(-p.rho * ti), (ti, lj)
        # and in a matrix only that column does: at t <= 1e-7 every cell takes
        # 2F1, and of these columns only lambda = 1e8 leaves the doubles
        calls = []
        fallback = core.hyp2f1_real_arg
        monkeypatch.setattr(core, "hyp2f1_real_arg", lambda *args: calls.append(args) or fallback(*args))
        t = np.array([1e-8, 5e-8, 1e-7])
        lam = np.array([0.5, 600.0, 1e4, 1e6, 3e7, 1e8])
        assert np.all(_hypergeometric_route(p, lam[None, :], t[:, None]))
        mat = phi_matrix(p, t, lam)
        assert len(calls) == 1
        for i, ti in enumerate(t):
            for j, lj in enumerate(lam):
                ref = _mpmath_phi(p, lj, ti)
                assert abs(mat[i, j] - ref) <= 1.5e-12 * math.exp(-p.rho * ti), (ti, lj)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), t=st.floats(0.05, 8.0), re=st.floats(0.25, 30.0), im=st.floats(-0.95, 0.95))
    def test_even_in_lambda_property(self, data, t, re, im):
        # phi_(-lambda) = phi_lambda for real lambda and for |Im lambda| < rho,
        # to 1e-12 of |phi_lambda| or of its bound e^((|Im lambda| - rho) t)
        alpha = data.draw(st.floats(0.5, 4.0, exclude_min=True), label="alpha")
        beta = data.draw(st.floats(-0.5, alpha, exclude_min=True, exclude_max=True), label="beta")
        params = JacobiParameters(alpha, beta)
        for lam in (re, complex(re, im * params.rho)):
            value = jacobi_phi(params, lam, t)
            scale = max(abs(value), math.exp((abs(lam.imag) - params.rho) * t))
            assert abs(jacobi_phi(params, -lam, t) - value) <= 1e-12 * scale, lam

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), lam=st.floats(0.0, 40.0))
    def test_value_at_zero_property(self, data, lam):
        # phi_lambda(0) = 1, and near 0 phi = 1 - (lambda^2 + rho^2) t^2 / (4 (alpha + 1)) + O(t^4)
        alpha = data.draw(st.floats(0.5, 4.0, exclude_min=True), label="alpha")
        beta = data.draw(st.floats(-0.5, alpha, exclude_min=True, exclude_max=True), label="beta")
        params = JacobiParameters(alpha, beta)
        assert jacobi_phi(params, lam, 0.0) == 1.0
        t = 1e-6
        value = phi_matrix(params, [t], [lam])[0, 0]
        assert abs(value - 1.0 + (lam**2 + params.rho**2) * t**2 / (4.0 * (alpha + 1.0))) <= 1e-14

    def test_requires_positive_nodes(self, generic_params):
        with pytest.raises(DomainError):
            phi_matrix(generic_params, np.array([0.0, 1.0]), np.array([1.0]))

    @pytest.mark.parametrize(
        "t_nodes, lam_nodes, name",
        [(1.0, [1.0, 2.0], "t_nodes"), ([1.0, 2.0], 3.0, "lam_nodes"), ([[1.0, 2.0]], [1.0], "t_nodes")],
        ids=["scalar-t", "scalar-lambda", "2-D-t"],
    )
    def test_non_1d_nodes_raise(self, generic_params, t_nodes, lam_nodes, name):
        with pytest.raises(DomainError, match=rf"\b{name}\b"):
            phi_matrix(generic_params, t_nodes, lam_nodes)

    def test_no_t_nodes_give_an_empty_matrix(self, generic_params):
        mat = phi_matrix(generic_params, [], [1.0])
        assert mat.shape == (0, 1) and mat.dtype == np.float64


class TestRouteSplit:
    # on ascending t and |lambda| the 2F1 cells of a row are the columns left
    # of one split; it must route every cell as _hypergeometric_route does
    @staticmethod
    def _assert_split_is_route(p, t, lam):
        split = _route_split(p, t, lam)
        route = _hypergeometric_route(p, lam[None, :], t[:, None])
        assert np.array_equal(split, np.count_nonzero(route, axis=1))
        assert np.all(route == (np.arange(lam.size) < split[:, None]))

    @pytest.mark.parametrize("preset", ["generic_params", "dr_params", "h3_params"])
    def test_default_grids(self, request, preset):
        p = request.getfixturevalue(preset)
        rgrid, sgrid = default_grids(p)
        self._assert_split_is_route(p, rgrid.nodes, sgrid.nodes)

    def test_convolution_grid(self, generic_params):
        p = generic_params
        self._assert_split_is_route(p, convolution_grid(p).nodes, SpectralGrid.build(p).nodes)

    def test_lambda_t_at_the_switch(self):
        # lambda = 12 / t and its neighbours, and t = 2, the switch t_s of (15, 5)
        p = JacobiParameters(15.0, 5.0)
        assert p._hc_rules.t_switch == 2.0
        rng = np.random.default_rng(3)
        t = np.sort(np.concatenate([rng.uniform(0.05, 2.0, 300), [2.0, np.nextafter(2.0, 3.0)]]))
        edge = 12.0 / t
        lam = np.unique(np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]))
        self._assert_split_is_route(p, t, lam)

    def test_permuted_grid_matches_grid(self, generic_params):
        # rows and columns are sorted before the build and put back after it,
        # so permuted (or mirrored) nodes give the permuted matrix, within the
        # bounds of test_unpatterned_lambda_matches_grid
        p = generic_params
        rgrid, sgrid = default_grids(p, 20.0, 200, 50.0, 150)
        t, lam = rgrid.nodes, sgrid.nodes
        grid = phi_matrix(p, t, lam)
        phase_ulps = 4.0 * np.finfo(float).eps * np.outer(t, lam)
        bound = np.exp(-p.rho * t)[:, None] * (1e-14 + phase_ulps * 2.0 * np.abs(c_function(p, lam)))
        route = _hypergeometric_route(p, lam[None, :], t[:, None])
        bound[route] = np.broadcast_to(1.5e-12 * np.exp(-p.rho * t)[:, None], route.shape)[route]
        rng = np.random.default_rng(17)
        rows, cols = rng.permutation(t.size), rng.permutation(lam.size)
        for r, c, sign in [(rows, slice(None), 1.0), (slice(None), cols, 1.0), (rows, cols, -1.0)]:
            got = phi_matrix(p, t[r], sign * lam[c])
            assert np.all(np.abs(got - grid[r][:, c]) <= bound[r][:, c])

    def test_repeated_row(self, generic_params):
        # a repeated row just below the switch t_s, where its cells take both routes
        p = generic_params
        t_r = 0.9 * p._hc_rules.t_switch
        t = np.array([0.3, t_r, t_r, 4.0])
        lam = np.linspace(0.0, 40.0, 81)
        mat = phi_matrix(p, t, lam)
        assert np.array_equal(mat[1], mat[2])
        route = _hypergeometric_route(p, lam, t_r)
        assert np.any(route) and not np.all(route)


def _mpmath_phi(params, lam, t):
    # phi_lambda(t) = 2F1((rho + i lambda)/2, (rho - i lambda)/2; alpha + 1; -sinh^2 t)
    with mpmath.workdps(40):
        rho, lam = mpmath.mpf(params.rho), mpmath.mpf(lam)
        z = -mpmath.sinh(mpmath.mpf(t)) ** 2
        return float(mpmath.re(mpmath.hyp2f1((rho + 1j * lam) / 2, (rho - 1j * lam) / 2, params.alpha + 1.0, z)))


def _preset(request, spec):
    return request.getfixturevalue(spec) if isinstance(spec, str) else JacobiParameters(*spec)


class TestHarishChandraRules:
    # one envelope E_k >= max over real lambda of |Gamma_k(lambda)| per (alpha,
    # beta) sets the Harish-Chandra term count of each row and the switch t_s
    SMALL = ["generic_params", "dr_params", "h3_params", "h5_params", (0.75, 0.0)]
    LARGE = [(3.0, 1.0), (4.0, 2.0), (6.0, 2.0)]

    def test_one_rules_object_per_pair(self):
        # the envelope depends on (alpha, beta) only, so equal JacobiParameters
        # share the object built first
        p, q = JacobiParameters(2.35, 0.65), JacobiParameters(2.35, 0.65)
        assert p is not q and q._hc_rules is p._hc_rules
        fresh = core._HarishChandraRules(JacobiParameters(2.35, 0.65))
        assert fresh is not p._hc_rules
        assert fresh.t_switch == p._hc_rules.t_switch
        for name in ("ladder", "log_envelope"):
            assert np.array_equal(getattr(fresh, name), getattr(p._hc_rules, name)), name

    @pytest.mark.parametrize("spec", ["generic_params", "h3_params", (0.75, 0.0), (3.0, 1.0), (6.0, 2.0), (15.0, 5.0)])
    def test_envelope_bounds_coefficients(self, request, spec):
        # past k = 128 the envelope is the power law (1 + k)^d
        p = _preset(request, spec)
        rng = np.random.default_rng(19)
        lam = np.concatenate([np.linspace(0.0, 10.0, 41), np.geomspace(10.0, 1e3, 20), rng.uniform(0.0, 60.0, 20)])
        table = np.abs(gamma_coefficient_table(p, lam, 800))
        assert np.all(table <= np.exp(p._hc_rules.log_envelope)[:, None] * (1.0 + 1e-12))

    @pytest.mark.parametrize("spec", [*SMALL, *LARGE, (15.0, 5.0)])
    def test_switch_per_preset(self, request, spec):
        # t_s = max(1, min(2, log(E_1 / 2) / 2)) here, E_1 = Gamma_1(0) = (alpha - beta) rho:
        # 1 at the small presets and at (3, 1) and (4, 2), 1.45 at (6, 2), 2 at (15, 5);
        # on either side of it phi_lambda(t) takes the other route, and
        # jacobi_phi is a 1 x 1 phi_matrix on both
        p = _preset(request, spec)
        t_s = p._hc_rules.t_switch
        expected = min(max(1.0, math.log((p.alpha - p.beta) * p.rho / 2.0) / 2.0), 2.0)
        assert t_s == pytest.approx(expected, rel=1e-14)
        for t in (t_s * (1.0 - 1e-6), t_s, t_s * (1.0 + 1e-6)):
            for lam in (0.0, 0.7, 5.0):
                assert _hypergeometric_route(p, lam, t) == (t <= t_s)
                assert jacobi_phi(p, lam, t).real == phi_matrix(p, [t], [lam])[0, 0], (t, lam)

    @pytest.mark.parametrize("spec", [(3.0, 1.0), (6.0, 2.0), (15.0, 5.0)])
    def test_large_alpha_against_mpmath(self, spec):
        # the truncation follows the growth of Gamma_k with alpha; no cell sits
        # near a zero of phi
        p = JacobiParameters(*spec)
        for t in (0.241, 0.5, 2.05, 2.5, 3.0):
            for lam in (0.0, 0.5, 3.0, 30.0):
                ref = _mpmath_phi(p, lam, t)
                assert abs(jacobi_phi(p, lam, t).real - ref) <= 5e-13 * abs(ref), (t, lam)

    @pytest.mark.parametrize("spec", SMALL)
    def test_moved_band_against_mpmath(self, request, spec):
        # t in (t_s, 2] with lambda t <= 12 was 2F1 and is Harish-Chandra now
        p = _preset(request, spec)
        t_s = p._hc_rules.t_switch
        for t in np.linspace(t_s, 2.0, 6)[1:]:
            lams = np.linspace(0.0, 12.0 / t, 25)
            assert not np.any(_hypergeometric_route(p, lams, t))
            row = phi_matrix(p, [t], lams)[0]
            for lam, value in zip(lams, row):
                assert abs(value - _mpmath_phi(p, lam, t)) <= 1.5e-12 * math.exp(-p.rho * t), (t, lam)

    @pytest.mark.parametrize("spec", LARGE)
    def test_moved_band_large_alpha(self, spec):
        # there phi e^(rho t) reaches 1e3 - 1e4, so the scale is |phi|: per
        # row, the worst Harish-Chandra cell is no worse than the worst 2F1
        # cell it replaces (at lambda t near 12)
        p = JacobiParameters(*spec)
        t_s = p._hc_rules.t_switch
        for t in np.linspace(t_s, 2.0, 5)[1:]:
            lams = np.linspace(0.0, 12.0 / t, 25)
            ref = np.array([_mpmath_phi(p, lam, t) for lam in lams])
            hc = phi_matrix(p, [t], lams)[0]
            hyp = _phi(p, np.array([t]), lams, hypergeometric=True)[0]
            assert np.max(np.abs(hc - ref) / np.abs(ref)) <= np.max(np.abs(hyp - ref) / np.abs(ref)), t


class TestPhiNearLambdaZero:
    # c(lambda) has a pole at 0, where the two Harish-Chandra terms cancel
    T_NODES = np.array([0.3, 1.0, 2.5, 6.0, 12.0])

    @pytest.mark.parametrize("preset", ["generic_params", "dr_params", "h3_params"])
    def test_phi_0_against_mpmath(self, request, preset):
        p = request.getfixturevalue(preset)
        got = phi_matrix(p, self.T_NODES, [0.0])[:, 0]
        for t, value in zip(self.T_NODES, got):
            assert abs(value - _mpmath_phi(p, 0.0, t)) <= 1.5e-12 * math.exp(-p.rho * t), t

    @pytest.mark.parametrize("preset", ["generic_params", "dr_params", "h3_params"])
    def test_harish_chandra_route_against_mpmath(self, request, preset):
        p = request.getfixturevalue(preset)
        lams = np.array([0.0, 1e-13, 1e-9, 1e-6])
        got = _phi(p, self.T_NODES, lams, hypergeometric=False)
        for i, t in enumerate(self.T_NODES):
            for j, lam in enumerate(lams):
                ref = _mpmath_phi(p, lam, t)
                assert abs(got[i, j] - ref) <= 1.5e-12 * math.exp(-p.rho * t), (t, lam)


class TestClosedFormH5:
    # alpha = 3/2, beta = -1/2 is real hyperbolic space H^5 (rho = 2), where
    # phi_lambda(t) = 3 (lambda sin(lambda t) cosh t - lambda^2 cos(lambda t) sinh t)
    #                 / (lambda^2 (lambda^2 + 1) sinh^3 t)
    # and |c(lambda)|^-2 = lambda^2 (lambda^2 + 1) / 36
    def test_phi_matrix_on_default_grids(self, h5_params):
        # the closed form cancels near t = 0, so it is taken in mpmath
        p = h5_params
        rgrid, sgrid = default_grids(p)
        rng = np.random.default_rng(18)
        rows = np.unique(np.concatenate([rng.integers(0, rgrid.nodes.size, 40), [0, rgrid.nodes.size - 1]]))
        cols = np.unique(np.concatenate([rng.integers(0, sgrid.nodes.size, 40), [0, sgrid.nodes.size - 1]]))
        t, lam = rgrid.nodes[rows], sgrid.nodes[cols]
        mat = phi_matrix(p, t, lam)
        with mpmath.workdps(40):
            for i, ti in enumerate(t):
                x = mpmath.mpf(ti)
                for j, lj in enumerate(lam):
                    y = mpmath.mpf(lj)
                    ref = 3 * (y * mpmath.sin(y * x) * mpmath.cosh(x) - y * y * mpmath.cos(y * x) * mpmath.sinh(x))
                    ref /= y * y * (y * y + 1) * mpmath.sinh(x) ** 3
                    assert abs(mat[i, j] - float(ref)) <= 1.5e-12 * math.exp(-p.rho * ti), (ti, lj)

    def test_plancherel_density(self, h5_params):
        lam = default_grids(h5_params)[1].nodes
        expected = lam**2 * (lam**2 + 1.0) / 36.0
        assert np.all(np.abs(plancherel_density(h5_params, lam) - expected) <= 1e-13 * expected)


class TestCFunction:
    def test_h3_inverse_is_i_lambda(self, h3_params):
        for lam in (0.5, 2.0, 10.0):
            c = c_function(h3_params, complex(lam))
            assert abs(c - 1.0 / (1j * lam)) <= 1e-12 / lam

    def test_plancherel_density_h3(self, h3_params):
        lam = np.array([0.3, 1.0, 4.0, 25.0])
        d = plancherel_density(h3_params, lam)
        assert np.max(np.abs(d - lam**2) / lam**2) < 1e-10

    def test_density_growth_exponent(self, generic_params):
        lam = np.geomspace(50.0, 400.0, 30)
        slope, _ = loglog_slope(lam, plancherel_density(generic_params, lam))
        assert abs(slope - (2 * generic_params.alpha + 1)) < 0.05

    def test_pole_at_zero(self, generic_params):
        with pytest.raises(PoleError):
            plancherel_density(generic_params, 0.0)
        with pytest.raises(PoleError):
            c_function(generic_params, 0.0)

    @pytest.mark.parametrize("preset", ["generic_params", "dr_params", "h3_params"])
    def test_scalar_is_vector_element(self, request, preset):
        p = request.getfixturevalue(preset)
        lams = np.concatenate([np.linspace(0.05, 60.0, 97), 1j * np.linspace(0.1, 0.9, 5) * p.rho, [3.0 - 0.7j]])
        vec = c_function(p, lams)
        for lam, value in zip(lams, vec):
            assert c_function(p, lam) == value, lam
            assert c_function(p, complex(lam)) == value, lam

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_lambda_raises(self, generic_params, bad):
        with pytest.raises(DomainError, match="lambda must be finite"):
            c_function(generic_params, bad)

    @pytest.mark.parametrize("preset", ["generic_params", "dr_params"])
    def test_against_mpmath(self, request, preset, mpmath_c):
        p = request.getfixturevalue(preset)
        lams = np.linspace(50.0 / 70, 50.0, 70)
        got = c_function(p, lams)
        errs = [abs(g - mpmath_c(p, lam)) / abs(mpmath_c(p, lam)) for g, lam in zip(got, lams)]
        assert max(errs) <= 1e-14
        for lam in (470.0, 1000.0, 1e4):
            assert abs(c_function(p, lam) - mpmath_c(p, lam)) <= 1e-12 * abs(mpmath_c(p, lam)), lam

    def test_leaves_double_range(self, generic_params, mpmath_c):
        # the inputs where three Gammas in linear space used to under- or
        # overflow are finite and accurate; c itself leaves the doubles only
        # once alpha is past about 500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for params, lam in [
                (generic_params, 440.0),
                (generic_params, 470.0),
                (generic_params, -480.0),
                (generic_params, np.array([10.0, 500.0])),
                (JacobiParameters(15.0, 5.0), 480.0),
            ]:
                got = np.atleast_1d(c_function(params, lam))
                for g, x in zip(got, np.atleast_1d(lam)):
                    assert abs(g - mpmath_c(params, x)) <= 1e-12 * abs(mpmath_c(params, x)), x
            with pytest.raises(OverflowLimitError, match="alpha = 600"):
                c_function(JacobiParameters(600.0, 1.0), np.array([10.0, 500.0]))

    def test_large_alpha_blames_gamma_alpha(self, mpmath_c):
        # Gamma(alpha + 1) overflows at alpha = 200, c does not; past alpha of
        # about 500 c itself does, and the error names lambda and alpha
        p = JacobiParameters(200.0, 1.0)
        assert abs(c_function(p, 2.0) - mpmath_c(p, 2.0)) <= 1e-12 * abs(mpmath_c(p, 2.0))
        with pytest.raises(OverflowLimitError, match=r"lambda = 2\+0j, alpha = 600"):
            c_function(JacobiParameters(600.0, 1.0), 2.0)

    def test_zero_at_denominator_poles(self, generic_params):
        # Gamma((rho + i lambda)/2 - beta) has poles at lambda = i(alpha - beta + 1 + 2n),
        # Gamma((rho + i lambda)/2) at lambda = i(rho + 2n)
        assert np.all(c_function(generic_params, np.array([1.9j, 3.9j, 2.5j, 4.5j])) == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.55, 30.0),
        beta_frac=st.floats(0.0, 0.95),
        re=st.floats(0.05, 200.0) | st.floats(-200.0, -0.05),
        im=st.floats(-3.0, 3.0),
    )
    def test_reflection_symmetry(self, alpha, beta_frac, re, im):
        # c(-conj lambda) = conj c(lambda)
        p = JacobiParameters(alpha, -0.45 + beta_frac * (alpha + 0.45))
        lam = complex(re, im)
        c = c_function(p, lam)
        assert abs(c_function(p, -lam.conjugate()) - c.conjugate()) <= 1e-13 * abs(c)

    def test_asymptotics_report_converges(self, generic_params):
        lams = list(np.geomspace(2.0, 400.0, 20))
        rows = c_asymptotics_report(generic_params, lams)
        ratios = [r["d_ratio"] for r in rows]
        # ratio column settles: last two entries agree to 2%
        assert abs(ratios[-1] - ratios[-2]) <= 0.02 * abs(ratios[-1])
        assert all(np.isfinite(r["logderiv_scaled"]) for r in rows)

    def test_asymptotics_report_empty_raises(self, generic_params):
        with pytest.raises(DomainError, match="lambda_list"):
            c_asymptotics_report(generic_params, [])

    def test_asymptotics_report_infinite_lambda_raises(self, generic_params):
        # unchecked, lambda = inf passes as increasing and warns "invalid value"
        with pytest.raises(DomainError, match="lambda_list"):
            c_asymptotics_report(generic_params, [1.0, math.inf])


@pytest.mark.parametrize(
    "call",
    [
        lambda p: kernel_values(p, 1.0, 1.2, 1.5),
        lambda p: bessel_script_J(p.alpha, 3.0),
        lambda p: bessel_local_expansion(p, 2.0, 0.5, 1),
    ],
    ids=["kernel_values", "bessel_script_J", "bessel_local_expansion"],
)
def test_gamma_alpha_overflow_is_typed(call):
    # Gamma(201) overflows a double: a typed error naming it, not a bare OverflowError
    with pytest.raises(OverflowLimitError, match=r"Gamma\(alpha \+ 1\).*alpha = 200"):
        call(JacobiParameters(200.0, 1.0))


class TestHarishChandra:
    def test_h3_coefficients_are_one(self, h3_params):
        table = gamma_coefficient_table(h3_params, [2.0], 20)
        assert np.max(np.abs(table - 1.0)) < 1e-12

    def test_matches_term_by_term_recurrence(self, generic_params):
        # reference: the recurrence summed one m at a time, in plain Python
        p = generic_params
        lams = [0.5, 3.0 + 0.4j, 17.0]
        k_max = 24
        table = gamma_coefficient_table(p, np.array(lams), k_max)
        for j, lam in enumerate(lams):
            gam = [1.0 + 0.0j]
            for k in range(1, k_max + 1):
                acc = 0.0
                for m in range(1, k + 1):
                    b_m = 2.0 * ((2.0 * p.alpha + 1.0) + (-1.0) ** m * (2.0 * p.beta + 1.0))
                    acc += b_m * (1j * lam - p.rho - 2.0 * (k - m)) * gam[k - m]
                gam.append(-acc / (4.0 * k * (k - 1j * lam)))
            assert np.allclose(table[:, j], gam, rtol=1e-13, atol=0.0), lam

    @pytest.mark.parametrize("lam", [0.0, 0.3, 5.0, 37.0, 2.0 + 0.5j, 1e-12])
    def test_width_one_matches_wide_column(self, generic_params, lam):
        # one lambda runs the recurrence on Python complex numbers, many on
        # numpy rows: the same steps, rounded apart by at most a few ulps
        lams = np.array([lam, 1.0, 7.0, 20.0, 45.0], dtype=complex)
        for k_max in (16, 48, 128):
            wide = gamma_coefficient_table(generic_params, lams, k_max)[:, 0]
            one = gamma_coefficient_table(generic_params, [lam], k_max)[:, 0]
            assert np.max(np.abs(one - wide)) <= 1e-14 * np.max(np.abs(wide)), (lam, k_max)

    def test_exceptional_lambda_raises(self, generic_params):
        with pytest.raises(DomainError):
            gamma_coefficient_table(generic_params, np.array([-3j]), 10)
        with pytest.raises(DomainError, match="exceptional set"):
            gamma_coefficient_table(generic_params, np.array([-3j, 1.0]), 10)
        # at (30, 5) the coefficients pass the cap long before k = 800
        with pytest.raises(OverflowLimitError, match=r"\|Gamma_k\| exceeded 1e100"):
            gamma_coefficient_table(JacobiParameters(30.0, 5.0), [0.5], 800)

    def test_gangolli_envelope_holds(self, generic_params):
        lams = np.linspace(0.5, 30.0, 15).astype(complex)
        c_fit, d_fit = gangolli_fit(generic_params, 32, lams)
        table = np.abs(gamma_coefficient_table(generic_params, lams, 32))
        k = np.arange(33)
        bound = c_fit * (1.0 + k)[:, None] ** d_fit
        assert np.all(table <= bound * (1.0 + 1e-12))

    def test_gangolli_fit_stable_under_doubling(self, generic_params):
        lams = np.linspace(0.5, 30.0, 15).astype(complex)
        _, d1 = gangolli_fit(generic_params, 32, lams)
        _, d2 = gangolli_fit(generic_params, 64, lams)
        assert abs(d1 - d2) < 0.2

    def test_gangolli_fit_empty_lambda_set_raises(self, generic_params):
        with pytest.raises(DomainError, match="lambda_set"):
            gangolli_fit(generic_params, 32, [])

    @pytest.mark.parametrize("k_max", [4, 16.5, 801, 10**21])
    def test_gangolli_fit_k_max_guard(self, generic_params, k_max):
        # past 800, the most terms a phi row sums, k_max is refused before its table is built
        with pytest.raises(ParameterError, match="k_max"):
            gangolli_fit(generic_params, k_max, [1.0, 2.0])


class TestBesselLocalExpansion:
    def test_one_term_residual_order(self, generic_params):
        # E_1 ~ t^2 as t -> 0 at fixed small lambda t
        ts = np.array([0.2, 0.1, 0.05, 0.025])
        resid = np.array(
            [abs(bessel_local_expansion(generic_params, 1.0, t, M=1)[1]) for t in ts]
        )
        slope, _ = loglog_slope(ts, resid)
        assert 1.5 < slope < 2.5

    def test_two_term_residual_order(self, generic_params):
        ts = np.array([0.4, 0.2, 0.1, 0.05])
        resid = np.array(
            [abs(bessel_local_expansion(generic_params, 1.0, t, M=2)[1]) for t in ts]
        )
        slope, _ = loglog_slope(ts, resid)
        assert 3.5 < slope < 4.5

    @pytest.mark.parametrize("ab", [(1.2, 0.3), (1.5, 0.5), (3.0, 1.0)])
    def test_a1_is_the_small_t_limit(self, ab):
        # a_1 = lim_{t -> 0} (phi - lead) / corr at lambda = 1, with phi, lead
        # and corr from mpmath; the library's a_1 is the difference of its two
        # truncations over corr
        params = JacobiParameters(*ab)
        t = 0.3
        two_minus_one = bessel_local_expansion(params, 1.0, t, M=2)[0] - bessel_local_expansion(params, 1.0, t, M=1)[0]
        with mpmath.workdps(50):
            # rho in full precision: a rounded alpha + beta + 1 moves the limit
            alpha, beta = (mpmath.mpf(v) for v in ab)
            rho = alpha + beta + 1

            def ratio_and_corr(t):
                phi = mpmath.hyp2f1(rho / 2 + 0.5j, rho / 2 - 0.5j, alpha + 1, -mpmath.sinh(t) ** 2).real
                delta = (2 * mpmath.sinh(t)) ** (2 * alpha + 1) * (2 * mpmath.cosh(t)) ** (2 * beta + 1)
                base = 2 ** (rho + alpha) * mpmath.gamma(alpha + 1) * t ** (alpha + 0.5) / mpmath.sqrt(delta)
                lead = base * mpmath.besselj(alpha, t) / t**alpha
                corr = base * t**2 * mpmath.besselj(alpha + 1, t) / t ** (alpha + 1)
                return (phi - lead) / corr, corr

            r1, r2 = (ratio_and_corr(mpmath.mpf(s))[0] for s in ("1e-3", "5e-4"))
            expected = float((4 * r2 - r1) / 3)  # Richardson in t^2
            got = two_minus_one / float(ratio_and_corr(mpmath.mpf(t))[1])
        assert abs(got - expected) <= 1e-9 * abs(expected)

    def test_one_term_expansion_exact_at_h3(self, h3_params):
        for t in (0.05, 0.3, 1.0):
            one, _ = bessel_local_expansion(h3_params, 2.0, t, M=1)
            two, _ = bessel_local_expansion(h3_params, 2.0, t, M=2)
            assert two == one
            assert abs(one - math.sin(2.0 * t) / (2.0 * math.sinh(t))) <= 1e-14

    @pytest.mark.parametrize("lam, t, name", [(1.0 + 0j, 0.5, "lambda"), (1.0, 0.5 + 0j, "t")])
    def test_complex_argument_is_named(self, generic_params, lam, t, name):
        # a complex lambda or t raised Python's TypeError
        with pytest.raises(DomainError, match=f"^bessel_local_expansion requires a real {name}"):
            bessel_local_expansion(generic_params, lam, t, 1)

    def test_domain_guard(self, generic_params):
        with pytest.raises(DomainError):
            bessel_local_expansion(generic_params, 1.0, 1.5, M=2)
        with pytest.raises(ParameterError):
            bessel_local_expansion(generic_params, 1.0, 0.5, M=3)
