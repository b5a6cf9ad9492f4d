import math

import numpy as np
import pytest

from jacobilab import (
    ConvergenceError,
    CutoffPair,
    DecayError,
    DomainError,
    GridError,
    MultiplierSpec,
    OverflowLimitError,
    ParameterError,
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
    modified_multiplier,
    omega,
    p_s_function,
    split_kernel,
    w_function,
    weight_density,
)
from jacobilab._util import loglog_slope, neville_zero


def gauss_multiplier(scale=0.1, label="gauss"):
    def evaluate(lam):
        lam = np.asarray(lam, dtype=complex)
        with np.errstate(under="ignore"):
            return np.exp(-scale * lam**2)

    return MultiplierSpec(evaluate, True, "rapidly-decreasing", label)


class TestMultiplierSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MultiplierSpec(lambda lam: lam, False, "bounded", "odd")
        with pytest.raises(ParameterError):
            MultiplierSpec(lambda lam: lam, True, "weird", "bad-class")

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

        m = MultiplierSpec(dead, True, "rapidly-decreasing", "dead")
        out = modified_multiplier(generic_params, m, np.array([1000.0 + 0j]))
        assert np.all(out == 0.0)

    def test_past_gamma_range_raises(self, generic_params):
        # c(-lambda) leaves double range near |lambda| = 450: a typed error, not NaN
        one = MultiplierSpec(lambda lam: np.ones(np.shape(lam), dtype=complex), True, "bounded", "one")
        with pytest.raises(OverflowLimitError):
            modified_multiplier(generic_params, one, np.array([480.0 + 0j]))
        with pytest.raises(OverflowLimitError):
            c_inverse_reflected(generic_params, 480.0)


class TestBoundaryTrace:
    def test_entire_function_trace(self, generic_params):
        # strip-scaled Gaussian: trace equals the direct evaluation on the line
        rho = generic_params.rho

        def g(z):
            return np.exp(-((np.asarray(z, dtype=complex) / 4.0) ** 2))

        nodes = np.linspace(0.1, 10.0, 25)
        trace = boundary_trace(g, rho, nodes)
        expected = g(nodes + 1j * rho)
        assert np.max(np.abs(trace.samples - expected)) < 1e-9

    def test_zero_height_is_direct(self):
        def g(z):
            return np.asarray(z) ** 2

        nodes = np.array([1.0, 2.0])
        trace = boundary_trace(g, 0.0, nodes)
        assert np.allclose(trace.samples, nodes**2)

    def test_bad_ladder(self):
        with pytest.raises(ParameterError):
            boundary_trace(lambda z: z, 1.0, [1.0], eps_ladder=(1e-2, 1e-3))

    def test_unstable_trace_raises(self, generic_params):
        # pole on the target line: the ladder cannot settle
        rho = generic_params.rho

        def g(z):
            return 1.0 / (np.asarray(z, dtype=complex) - 1j * rho)

        with pytest.raises(ConvergenceError):
            boundary_trace(g, rho, np.array([1e-4]))


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
    val = tab[0]
    if abs(val.imag) < 1e-300:
        return val.real
    return val


class TestNevilleZero:
    def test_matches_scalar_recurrence(self):
        rng = np.random.default_rng(11)
        eps = (1e-2, 1e-3, 1e-4)
        rows = [rng.normal(size=50) + 1j * rng.normal(size=50) for _ in eps]
        real_rows = [r.real for r in rows]
        for xs, ys in ((eps, rows), (eps[1:], rows[1:]), (eps, real_rows)):
            got = neville_zero(xs, ys)
            want = np.array([neville_zero_scalar(xs, [r[i] for r in ys]) for i in range(50)])
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_real_only_when_every_imaginary_part_vanishes(self):
        xs = (1e-2, 1e-3, 1e-4)
        rows = [np.array([1.0 + 0j, 2.0 + 0j]) * (1 + x) for x in xs]
        assert neville_zero(xs, rows).dtype == np.float64
        rows[0][1] += 1e-3j
        assert neville_zero(xs, rows).dtype == np.complex128


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


class TestHormanderCheck:
    def test_known_function(self):
        # g = lam/(1+lam): sup|g| -> 1, sup|lam g'| = max lam/(1+lam)^2 = 1/4
        report = hormander_check(lambda lam: lam / (1.0 + lam), lam_max=400.0)
        assert 0.99 < report["sup_g"] < 1.0
        assert report["sup_lam_gp"] == pytest.approx(0.25, rel=1e-3)

    def test_guard(self):
        with pytest.raises(DomainError):
            hormander_check(lambda lam: lam, lam_max=0.5)


class TestCutoffs:
    def test_plateaus_and_support(self):
        cut = CutoffPair(1.1)
        lo = math.sqrt(1.1)
        assert np.all(cut.psi(np.linspace(0.0, lo, 20)) == 1.0)
        assert np.all(cut.psi(np.linspace(1.1, 3.0, 20)) == 0.0)
        assert np.all(cut.phi(np.linspace(0.0, 1.0 / 1.1, 20)) == 1.0)
        assert np.all(cut.phi(np.linspace(2.0 / 1.1, 5.0, 20)) == 0.0)

    def test_r0_range(self):
        with pytest.raises(ParameterError):
            CutoffPair(0.9)
        with pytest.raises(ParameterError):
            CutoffPair(1.3)


class TestKernelFromMultiplier:
    def test_heat_multiplier_matches_heat_kernel(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        s = 0.1
        rho2 = generic_params.rho**2

        def evaluate(lam):
            with np.errstate(under="ignore"):
                return np.exp(-s * (np.asarray(lam) ** 2 + rho2))

        m = MultiplierSpec(evaluate, True, "rapidly-decreasing", "heat")
        k = kernel_from_multiplier(generic_params, m, rgrid, sgrid)
        h = heat_kernel(generic_params, s, rgrid, sgrid)
        assert np.max(np.abs(k.values - h.values)) == 0.0

    def test_decay_class_gate(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        m = MultiplierSpec(lambda lam: np.ones(np.shape(lam)), True, "bounded", "one")
        with pytest.raises(DecayError):
            kernel_from_multiplier(generic_params, m, rgrid, sgrid)
        smoothed = heat_regularize(m, 0.05, generic_params)
        kernel_from_multiplier(generic_params, smoothed, rgrid, sgrid)

    def test_split_partition(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        k = heat_kernel(generic_params, 0.1, rgrid, sgrid)
        local, tail = split_kernel(generic_params, k)
        assert np.max(np.abs(local.values + tail.values - k.values)) < 1e-14
        nodes = rgrid.nodes
        assert np.all(np.abs(local.values[nodes > 1.1]) == 0.0)
        assert np.all(np.abs(tail.values[nodes < math.sqrt(1.1)]) == 0.0)

    def test_split_grid_guard(self, generic_params):
        rgrid = RadialGrid.graded(generic_params, 1.2, 20)
        sgrid = SpectralGrid.build(generic_params, 20.0, 40)
        k = heat_kernel(generic_params, 0.2, rgrid, sgrid)
        with pytest.raises(GridError):
            split_kernel(generic_params, k)


class TestDeltaExpansion:
    def test_reconstruction(self, generic_params):
        t = np.linspace(0.3, 6.0, 40)
        _, _, recon = delta_expansion(generic_params, t)
        target = weight_density(generic_params, t)
        assert np.max(np.abs(recon - target) / target) < 1e-12

    def test_wrong_J_raises(self, generic_params):
        with pytest.raises(ParameterError):
            delta_expansion(generic_params, np.array([1.0]), J=99)


class TestPsFunction:
    def test_vanishes_inside_cutoff(self, generic_params):
        lam = np.linspace(0.01, 1.0 / 1.1, 10)
        assert np.all(p_s_function(generic_params, 0.5, lam) == 0.0)

    def test_matches_formula_outside(self, generic_params):
        lam = np.array([3.0, 10.0])
        got = p_s_function(generic_params, 0.5, lam)
        expected = lam**-0.5 / c_function(generic_params, lam.astype(complex))
        assert np.max(np.abs(got - expected)) < 1e-12


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
            hc_global_pieces(generic_params, m, ell_max=e, t_nodes=t, tolerance=1.0)[
                "rel_error"
            ]
            for e in (1, 2, 3, 5)
        ]
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(errs, errs[1:]))

    def test_minus_branch_vanishes(self, generic_params):
        m = gauss_multiplier()
        res = hc_global_pieces(generic_params, m, 3, np.array([1.5, 2.5]))
        assert np.all(res["a_minus"] == 0.0)

    def test_a_plus_decay_in_ell(self, generic_params):
        m = gauss_multiplier()
        res = hc_global_pieces(generic_params, m, 5, np.array([1.5, 2.5, 3.5]))
        sups = np.max(np.abs(res["a_plus"]), axis=1)
        assert np.all(np.diff(sups) < 0)

    def test_domain_guards(self, generic_params):
        m = gauss_multiplier()
        with pytest.raises(DomainError):
            hc_global_pieces(generic_params, m, 3, np.array([0.5]))
        bounded = MultiplierSpec(lambda lam: np.ones(np.shape(lam)), True, "bounded", "one")
        with pytest.raises(DecayError):
            hc_global_pieces(generic_params, bounded, 3, np.array([1.5]))


class TestContourShift:
    def test_defect_vanishes(self, generic_params):
        m = gauss_multiplier()
        res = contour_shift_check(generic_params, m, k=0, t=1.5, r_values=(10.0, 100.0))
        scale = max(abs(res["direct"]), 1e-300)
        assert res["defect"] / scale < 1e-6
        assert res["edge_magnitudes"][-1] <= res["edge_magnitudes"][0]

    def test_guards(self, generic_params):
        m = gauss_multiplier()
        with pytest.raises(DomainError):
            contour_shift_check(generic_params, m, 0, t=0.0)
        bounded = MultiplierSpec(lambda lam: np.ones(np.shape(lam)), True, "bounded", "one")
        with pytest.raises(DecayError):
            contour_shift_check(generic_params, bounded, 0, t=1.0)
