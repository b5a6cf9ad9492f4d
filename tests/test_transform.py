import math
import re

import numpy as np
import pytest

from jacobilab import (
    DecayError,
    DomainError,
    GridError,
    JacobiParameters,
    MultiplierSpec,
    RadialGrid,
    SampledRadialFunction,
    SampledSpectralFunction,
    SpectralGrid,
    OverflowLimitError,
    apply_laplacian,
    convolve,
    convolve_direct,
    default_grids,
    estimate_operator_norm,
    heat_kernel,
    inverse_transform,
    jacobi_transform,
    kernel_from_multiplier,
    phi_matrix,
    plancherel_constant,
    plancherel_defect,
    plancherel_density,
)
from jacobilab import core, standard_multiplier_family, transform
from jacobilab._util import composite_gauss_legendre, gauss_legendre, graded_breakpoints
from jacobilab.lab import _trial_functions
from jacobilab.transform import phi_matrix_for

TINY = np.finfo(float).tiny  # the smallest normal double, 2^-1022


def gaussian_bump(rgrid, center=1.0, width=0.5):
    # symmetrized so the even radial extension is smooth through t = 0
    t = rgrid.nodes
    vals = np.exp(-((t - center) ** 2) / width**2) + np.exp(
        -((t + center) ** 2) / width**2
    )
    return SampledRadialFunction(rgrid, vals)


class TestGrids:
    def test_graded_grid_integrates_smooth_functions(self, generic_params):
        rgrid = RadialGrid.graded(generic_params, 10.0, 100)
        # integral of exp(-t) over (0, 10) against plain dt
        got = float(np.sum(rgrid.base_weights * np.exp(-rgrid.nodes)))
        assert got == pytest.approx(1.0 - math.exp(-10.0), rel=1e-12)

    def test_reference_rule_computed_once_and_read_only(self, generic_params, monkeypatch):
        x, w = gauss_legendre(8)
        assert gauss_legendre(8)[0] is x and gauss_legendre(8)[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        ref_x, ref_w = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        # mid + half x on [-1, 1] is x itself, to the bit
        nodes, weights = composite_gauss_legendre([-1.0, 1.0], 8)
        assert np.array_equal(nodes, x) and np.array_equal(weights, w)
        gauss_legendre(4)

        def no_solve(n):
            raise AssertionError(f"Gauss-Legendre rule of {n} nodes computed again")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_solve)
        default_grids(generic_params, 5.0, 10, 10.0, 10)

    def test_mu_weights_carry_density(self, generic_params):
        rgrid = RadialGrid.graded(generic_params, 5.0, 50)
        from jacobilab import weight_density

        expected = rgrid.base_weights * weight_density(generic_params, rgrid.nodes)
        assert np.allclose(rgrid.mu_weights, expected, rtol=1e-14)

    def test_interpolation_reproduces_samples(self, generic_params, small_grids):
        rgrid, _ = small_grids
        f = gaussian_bump(rgrid)
        probes = np.array([0.5, 1.0, 2.3, 7.9])
        vals = f.at(probes)
        expected = np.exp(-((probes - 1.0) ** 2) / 0.25) + np.exp(
            -((probes + 1.0) ** 2) / 0.25
        )
        assert np.max(np.abs(vals - expected)) < 1e-10

    def test_interpolation_domain_guard(self, generic_params, small_grids):
        rgrid, _ = small_grids
        f = gaussian_bump(rgrid)
        with pytest.raises(DomainError):
            f.at(rgrid.t_max + 1.0)

    def test_interpolation_exact_on_polynomials(self, generic_params):
        # 8 nodes per panel interpolate every degree-7 polynomial exactly
        rgrid = RadialGrid.graded(generic_params, 5.0, 12)
        poly = np.polynomial.Polynomial(np.random.default_rng(3).uniform(-1.0, 1.0, 8))
        f = SampledRadialFunction(rgrid, poly(rgrid.nodes / 5.0))
        bp = rgrid.breakpoints
        fractions = np.random.default_rng(4).random((len(bp) - 1, 5))
        inside = bp[:-1, None] + np.diff(bp)[:, None] * fractions
        probes = np.concatenate([[0.0, 5.0], bp, inside.ravel()])
        assert np.max(np.abs(f.at(probes) - poly(probes / 5.0))) < 1e-12

    def test_interpolation_at_nodes_returns_samples(self, generic_params, small_grids):
        rgrid, _ = small_grids
        f = gaussian_bump(rgrid)
        assert np.array_equal(f.at(rgrid.nodes), f.values)

    def test_derivatives_of_cubic(self, generic_params):
        rgrid = RadialGrid.graded(generic_params, 5.0, 12)
        t = rgrid.nodes
        d1, d2 = rgrid.derivatives(t**3)
        assert np.max(np.abs(d1 / (3.0 * t**2) - 1.0)) < 1e-10
        assert np.max(np.abs(d2 / (6.0 * t) - 1.0)) < 1e-10

    def test_phi_cache_keyed_by_grid_content(self, generic_params):
        rgrid = RadialGrid.graded(generic_params, 5.0, 10)
        first = phi_matrix_for(generic_params, rgrid, SpectralGrid.build(generic_params, 20.0, 20))
        again = phi_matrix_for(generic_params, rgrid, SpectralGrid.build(generic_params, 20.0, 20))
        assert again is first and len(rgrid._phi_cache) == 1
        phi_matrix_for(generic_params, rgrid, SpectralGrid.build(generic_params, 25.0, 20))
        assert len(rgrid._phi_cache) == 2

    def test_cold_phi_build_matches_phi_matrix_and_density(self):
        # a grid pair's cold phi build is phi_matrix on its nodes, and the
        # dnu density is plancherel_density on them, both to the bit
        params = JacobiParameters(1.35, 0.45)  # a pair no other test builds grids for
        rgrid, sgrid = RadialGrid.graded(params, 12.0, 30), SpectralGrid.build(params, 30.0, 40)
        assert np.array_equal(phi_matrix_for(params, rgrid, sgrid), phi_matrix(params, rgrid.nodes, sgrid.nodes))
        assert np.array_equal(sgrid.density, plancherel_density(params, sgrid.nodes))

    def test_spectral_grid_past_double_range(self, generic_params, mpmath_c):
        # a grid out to |lambda| = 500 builds with the mpmath density; past
        # alpha of about 500 c leaves the doubles: fail at construction
        sgrid = SpectralGrid.build(generic_params, 500.0, 100)
        for i in (0, 200, -1):
            expected = 1.0 / abs(mpmath_c(generic_params, sgrid.nodes[i])) ** 2
            assert abs(sgrid.density[i] - expected) <= 1e-12 * expected
        with pytest.raises(OverflowLimitError):
            SpectralGrid.build(JacobiParameters(600.0, 1.0), 50.0, 100)

    def test_value_shape_mismatch(self, generic_params, small_grids):
        rgrid, _ = small_grids
        with pytest.raises(GridError):
            SampledRadialFunction(rgrid, np.ones(3))

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda p: RadialGrid.graded(p, 20.0, 0), "n_panels"),
            (lambda p: RadialGrid.graded(p, 20.0, -3), "n_panels"),
            (lambda p: RadialGrid.graded(p, 0.0, 40), "t_max"),
            (lambda p: RadialGrid.graded(p, math.inf, 40), "t_max"),
            (lambda p: RadialGrid.graded(p, math.nan, 40), "t_max"),
            (lambda p: RadialGrid(p, graded_breakpoints(5.0, 10), 0), "nodes_per_panel"),
            (lambda p: SpectralGrid.build(p, 50.0, 0), "n_panels"),
            (lambda p: SpectralGrid.build(p, 0.0, 40), "lam_max"),
            (lambda p: SpectralGrid.build(p, -5.0, 40), "lam_max"),
            (lambda p: SpectralGrid(p, [0.0, 1.0, 1.0, 2.0], 4), "breakpoints"),
            (lambda p: SpectralGrid(p, [0.0], 4), "breakpoints"),
            (lambda p: RadialGrid(p, [-1.0, 1.0], 4), "breakpoints"),
            (lambda p: RadialGrid(p, [0.0, math.inf], 4), "breakpoints"),
            (lambda p: RadialGrid.graded(p, 20.0, 2.5), "n_panels"),
            (lambda p: SpectralGrid.build(p, 50.0, 2.5), "n_panels"),
            (lambda p: SpectralGrid(p, np.linspace(0.0, 50.0, 41), 2.5), "nodes_per_panel"),
            (lambda p: SpectralGrid.build(p, 25.0, True), "n_panels"),
            (lambda p: RadialGrid.graded(p, 20.0, 10**21), "n_panels"),
            (lambda p: SpectralGrid.build(p, 50.0, 10**21), "n_panels"),
            (lambda p: RadialGrid(p, graded_breakpoints(5.0, 10), 10**21), "nodes_per_panel"),
            (lambda p: SpectralGrid(p, np.linspace(0.0, 50.0, 41), 10**21), "nodes_per_panel"),
        ],
        ids=[
            "radial-0-panels", "radial-negative-panels", "t_max-0", "t_max-inf", "t_max-nan",
            "0-nodes", "spectral-0-panels", "lam_max-0", "lam_max-negative", "repeated-breakpoint",
            "no-panel", "negative-start", "infinite-breakpoint", "radial-fractional-panels",
            "spectral-fractional-panels", "fractional-nodes", "spectral-bool-panels",
            # past the largest count numpy can index: refused before numpy is asked to allocate
            "radial-unindexable-panels", "spectral-unindexable-panels", "radial-unindexable-nodes",
            "spectral-unindexable-nodes",
        ],
    )
    def test_grid_shape_errors_name_the_argument(self, generic_params, build, name):
        with pytest.raises(GridError, match=rf"\b{name}\b"):
            build(generic_params)

    def test_non_finite_samples_rejected(self, generic_params, small_grids):
        rgrid, _ = small_grids
        vals = np.ones_like(rgrid.nodes)
        vals[0] = math.inf
        with pytest.raises(DomainError):
            SampledRadialFunction(rgrid, vals)


class TestGridKind:
    """A grid of the wrong kind, or a value that is no grid, is a GridError
    naming the argument.  Unchecked, these calls raised AttributeError, or a
    DecayError about the samples, or were accepted."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda p, r, s, m: jacobi_transform(p, SampledRadialFunction(r, np.exp(-(r.nodes**2))), r), "sgrid"),
            (lambda p, r, s, m: inverse_transform(p, SampledSpectralFunction(s, np.exp(-(s.nodes**2))), s), "rgrid"),
            (lambda p, r, s, m: estimate_operator_norm(p, m, 2, (s, r)), "rgrid"),
            (lambda p, r, s, m: kernel_from_multiplier(p, m, s, r), "sgrid"),
            (lambda p, r, s, m: heat_kernel(p, 0.1, s, r), "sgrid"),
            (lambda p, r, s, m: SampledSpectralFunction(r, np.ones(r.nodes.size)), "grid"),
            (lambda p, r, s, m: SampledRadialFunction(s, np.ones(s.nodes.size)), "grid"),
            (lambda p, r, s, m: SampledRadialFunction(r.nodes, np.ones(r.nodes.size)), "grid"),
        ],
        ids=[
            "jacobi_transform", "inverse_transform", "estimate_operator_norm", "kernel_from_multiplier",
            "heat_kernel", "spectral-samples-on-radial-grid", "radial-samples-on-spectral-grid", "samples-on-no-grid",
        ],
    )
    def test_raises_naming_the_argument(self, generic_params, small_grids, call, name):
        rgrid, sgrid = small_grids
        m = standard_multiplier_family(generic_params)[0]
        with pytest.raises(GridError, match=rf"\b{name}\b"):
            call(generic_params, rgrid, sgrid, m)


class TestNorms:
    def test_lp_norm_scaling(self, generic_params, small_grids):
        rgrid, _ = small_grids
        f = gaussian_bump(rgrid)
        g = SampledRadialFunction(rgrid, 3.0 * f.values)
        for p in (1, 2, 4, math.inf):
            assert g.norm(p) == pytest.approx(3.0 * f.norm(p), rel=1e-12)

    def test_invalid_p(self, generic_params, small_grids):
        rgrid, _ = small_grids
        with pytest.raises(DomainError):
            gaussian_bump(rgrid).norm(0.5)
        with pytest.raises(DomainError):
            gaussian_bump(rgrid).norm(math.nan)


class TestTransformPair:
    def test_plancherel_identity(self, generic_params, grids):
        rgrid, sgrid = grids
        f = gaussian_bump(rgrid)
        assert plancherel_defect(generic_params, f, sgrid) < 1e-10

    def test_roundtrip(self, generic_params, grids):
        rgrid, sgrid = grids
        f = gaussian_bump(rgrid)
        fhat = jacobi_transform(generic_params, f, sgrid)
        back = inverse_transform(generic_params, fhat, rgrid, decay_fraction=None)
        assert np.max(np.abs(back.values - f.values)) < 1e-9

    def test_constants(self, generic_params):
        # with f_hat = integral f phi dmu, unitarity requires C = 1/(2 pi)
        const = plancherel_constant()
        assert const == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_decay_gate_forward(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        undecayed = SampledRadialFunction(rgrid, np.ones_like(rgrid.nodes))
        with pytest.raises(DecayError):
            jacobi_transform(generic_params, undecayed, sgrid)

    def test_decay_gate_inverse(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        undecayed = SampledSpectralFunction(sgrid, np.ones_like(sgrid.nodes))
        with pytest.raises(DecayError):
            inverse_transform(generic_params, undecayed, rgrid)

    def test_decay_gate_escape_hatch(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        undecayed = SampledSpectralFunction(sgrid, np.ones_like(sgrid.nodes))
        inverse_transform(generic_params, undecayed, rgrid, decay_fraction=None)

    def test_zero_function_defect_guard(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        zero = SampledRadialFunction(rgrid, np.zeros_like(rgrid.nodes))
        with pytest.raises(DomainError):
            plancherel_defect(generic_params, zero, sgrid)


class TestRealArithmetic:
    def test_dtype_rule(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        real = gaussian_bump(rgrid).values
        assert SampledRadialFunction(rgrid, real).values.dtype == np.float64
        assert SampledRadialFunction(rgrid, np.ones(rgrid.nodes.shape, dtype=int)).values.dtype == np.float64
        # zero imaginary part, as from a multiplier evaluated on real lambda
        spectral = np.exp(-(sgrid.nodes**2)).astype(complex)
        g = SampledSpectralFunction(sgrid, spectral)
        assert g.values.dtype == np.float64
        assert np.array_equal(g.values, spectral.real)
        block = np.stack([real, 2.0 * real], axis=1).astype(complex)
        assert SampledRadialFunction(rgrid, block).values.dtype == np.float64
        mixed = real + 1j * real[::-1]
        f = SampledRadialFunction(rgrid, mixed)
        assert f.values.dtype == np.complex128
        assert np.array_equal(f.values, mixed)
        # one nonzero imaginary part keeps the whole block complex
        block[3, 1] += 1e-300j
        assert SampledRadialFunction(rgrid, block).values.dtype == np.complex128

    def test_block_shape_guard(self, generic_params, small_grids):
        rgrid, _ = small_grids
        with pytest.raises(GridError):
            SampledRadialFunction(rgrid, np.ones(rgrid.nodes.shape + (2, 2)))
        with pytest.raises(GridError):
            SampledRadialFunction(rgrid, np.ones((2, rgrid.nodes.size)))
        block = SampledRadialFunction(rgrid, np.ones(rgrid.nodes.shape + (2,)))
        with pytest.raises(GridError):
            block.at(1.0)
        with pytest.raises(GridError):
            apply_laplacian(generic_params, block)

    def _complex_pair(self, rgrid, sgrid):
        f = gaussian_bump(rgrid, 1.0, 0.5).values + 1j * gaussian_bump(rgrid, 2.0, 0.7).values
        lam = sgrid.nodes
        g = np.exp(-0.05 * lam**2) * (np.cos(lam) + 1j * np.sin(0.5 * lam))
        return f, g

    def test_complex_transform_of_parts(self, generic_params, small_grids):
        # one [Re | Im] product equals the transforms of the parts and the
        # complex product with phi copied to complex, in both directions
        rgrid, sgrid = small_grids
        P = generic_params
        phi = phi_matrix_for(P, rgrid, sgrid)
        f, g = self._complex_pair(rgrid, sgrid)
        cases = [
            (lambda v: jacobi_transform(P, SampledRadialFunction(rgrid, v), sgrid),
             f, phi.astype(complex).T @ (f * rgrid.mu_weights)),
            (lambda v: inverse_transform(P, SampledSpectralFunction(sgrid, v), rgrid),
             g, phi.astype(complex) @ (g * sgrid.nu_weights)),
        ]
        for transform, v, reference in cases:
            got = transform(v).values
            assert got.dtype == np.complex128
            parts = transform(v.real).values + 1j * transform(v.imag).values
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(got - parts)) <= 1e-14 * scale
            assert np.max(np.abs(got - reference)) <= 1e-14 * scale

    def test_block_equals_columns(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        P = generic_params
        f, g = self._complex_pair(rgrid, sgrid)
        radial = np.stack([f, f.real, gaussian_bump(rgrid, 0.3, 0.4).values], axis=1)
        spectral = np.stack([g, g.imag, np.exp(-0.2 * sgrid.nodes**2)], axis=1)
        cases = [
            (lambda v: jacobi_transform(P, SampledRadialFunction(rgrid, v), sgrid), radial),
            (lambda v: inverse_transform(P, SampledSpectralFunction(sgrid, v), rgrid), spectral),
        ]
        for transform, block in cases:
            got = transform(block).values
            assert got.shape[1] == 3
            for j in range(3):
                col = transform(block[:, j]).values
                assert np.max(np.abs(got[:, j] - col)) <= 1e-14 * np.max(np.abs(col))

    def test_block_norms_are_column_norms(self, generic_params, small_grids):
        rgrid, _ = small_grids
        cols = [gaussian_bump(rgrid, c, 0.5).values for c in (0.5, 1.0, 2.0)]
        block = SampledRadialFunction(rgrid, np.stack(cols, axis=1))
        for p in (1, 2, 4, math.inf):
            want = [SampledRadialFunction(rgrid, c).norm(p) for c in cols]
            np.testing.assert_allclose(block.norm(p), want, rtol=1e-14)

    def test_decay_gate_per_column(self, generic_params, small_grids):
        rgrid, sgrid = small_grids
        bump = gaussian_bump(rgrid).values
        zero = np.zeros_like(bump)
        jacobi_transform(generic_params, SampledRadialFunction(rgrid, np.stack([bump, zero], axis=1)), sgrid)
        undecayed = SampledRadialFunction(rgrid, np.stack([bump, zero, np.ones_like(bump)], axis=1))
        with pytest.raises(DecayError, match="column 2"):
            jacobi_transform(generic_params, undecayed, sgrid)


class _RecordingMatrix:
    """Stands in for phi and keeps the right operand of every product."""

    def __init__(self, matrix, operands):
        self.matrix, self.shape, self.operands = matrix, matrix.shape, operands

    @property
    def T(self):
        return _RecordingMatrix(self.matrix.T, self.operands)

    def __matmul__(self, other):
        self.operands.append(other)
        return self.matrix @ other


def _subnormal(x):
    return (x != 0.0) & (np.abs(x) < TINY)


class TestSubnormalOperands:
    """Each weighted column is scaled by a power of two and the entries still
    below 2^-1022 are set to zero before the product."""

    def test_products_are_exact_and_operands_normal(self, generic_params, grids, monkeypatch):
        rgrid, sgrid = grids
        P = generic_params
        phi = phi_matrix_for(P, rgrid, sgrid)
        m = standard_multiplier_family(P)[1]
        mvals = m(sgrid.nodes)
        ((spectra, _),) = _trial_functions(P, [mvals], rgrid, sgrid, 8, 0)
        mhat = mvals[:, None] * spectra
        trials = np.hstack([spectra, mhat.real])
        assert np.any(_subnormal(trials * sgrid.nu_weights[:, None]))
        radial = inverse_transform(P, SampledSpectralFunction(sgrid, trials), rgrid, decay_fraction=None).values
        # narrow bumps whose flanks meet the small mu-weights near t = 0
        bumps = np.stack([gaussian_bump(rgrid, c, w).values for c, w in ((2.0, 0.1), (1.0, 0.05))], axis=1)
        radial = np.hstack([radial, bumps])
        assert np.any(_subnormal(radial * rgrid.mu_weights[:, None]))

        operands = []
        monkeypatch.setattr(transform, "phi_matrix_for", lambda *args: _RecordingMatrix(phi, operands))
        directions = [
            (lambda v: inverse_transform(P, SampledSpectralFunction(sgrid, v), rgrid, decay_fraction=None),
             phi, sgrid.nu_weights, trials),
            (lambda v: jacobi_transform(P, SampledRadialFunction(rgrid, v), sgrid, decay_fraction=None),
             phi.T, rgrid.mu_weights, radial),
        ]
        for apply, matrix, w, real in directions:
            half = real.shape[1] // 2
            complex_block = real[:, :half] + 1j * real[:, half : 2 * half]
            parts = np.hstack([complex_block.real, complex_block.imag])
            product = matrix @ (w[:, None] * parts)
            cases = [
                (real, matrix @ (w[:, None] * real)),
                (complex_block, product[:, :half] + 1j * product[:, half:]),
                (real[:, 1], matrix @ (w * real[:, 1])),
            ]
            for values, reference in cases:
                operands.clear()
                got = apply(values).values
                assert np.array_equal(got, reference)
                assert len(operands) == 1 and not np.any(_subnormal(operands[0]))

    def test_subnormal_range_column_keeps_its_digits(self, generic_params, small_grids):
        # a column wholly below 2^-1022 passes the decay gate and transforms
        # to the scaled transform of the unscaled column, in both directions
        rgrid, sgrid = small_grids
        P = generic_params
        f = gaussian_bump(rgrid).values
        g = np.exp(-((sgrid.nodes - 5.0) ** 2))
        cases = [
            (lambda v: jacobi_transform(P, SampledRadialFunction(rgrid, v), sgrid), f),
            (lambda v: inverse_transform(P, SampledSpectralFunction(sgrid, v), rgrid), g),
        ]
        for apply, values in cases:
            tiny = np.ldexp(values, -1060)
            assert np.max(np.abs(tiny)) < TINY
            got = apply(tiny).values
            want = np.ldexp(apply(values).values, -1060)
            assert np.max(np.abs(got)) > 0.0
            assert np.max(np.abs(got - want)) <= 1e-3 * np.max(np.abs(want))


class TestHeatKernel:
    def test_spectral_consistency(self, generic_params, grids):
        # forward transform of h_s recovers exp(-s(lam^2 + rho^2))
        rgrid, sgrid = grids
        s = 0.1
        h = heat_kernel(generic_params, s, rgrid, sgrid)
        hhat = jacobi_transform(generic_params, h, sgrid, decay_fraction=None)
        lam = sgrid.nodes[sgrid.nodes < 20.0]
        expected = np.exp(-s * (lam**2 + generic_params.rho**2))
        got = hhat.values.real[sgrid.nodes < 20.0]
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_positivity(self, generic_params, grids):
        rgrid, sgrid = grids
        h = heat_kernel(generic_params, 0.05, rgrid, sgrid)
        assert np.min(h.values.real) > -1e-10 * np.max(h.values.real)

    def test_requires_positive_time(self, generic_params, grids):
        rgrid, sgrid = grids
        with pytest.raises(DomainError):
            heat_kernel(generic_params, 0.0, rgrid, sgrid)

    @pytest.mark.parametrize("s", [120.0, 1e6])
    def test_every_sample_underflowing_is_a_typed_limit(self, generic_params, small_grids, s):
        # s rho^2 > 708 (s > 113.3 at rho = 2.5) returned an all-zero function
        with pytest.raises(OverflowLimitError, match=rf"^heat_kernel: s rho\^2 = .* at s = {re.escape(f'{s:g}')};"):
            heat_kernel(generic_params, s, *small_grids)

    def test_output_without_a_normal_sample_is_a_typed_limit(self, generic_params):
        # just below s rho^2 = 708 every spectral sample is normal, but the
        # largest sample of h_s was 8.9e-314, returned without an error
        s = 708.0 / generic_params.rho**2 - 0.01
        with pytest.raises(OverflowLimitError, match=rf"^heat_kernel: no sample of h_s is a normal double at s = {s:g};"):
            heat_kernel(generic_params, s, *default_grids(generic_params, 20.0, 40, 50.0, 40))

    @pytest.mark.parametrize("s, what", [(math.inf, "finite s, got s = inf"), (math.nan, "finite s, got s = nan"),
                                         (0.1 + 0j, r"a real s, got s = \(0\.1\+0j\)")])
    def test_s_that_is_not_a_finite_real_is_named(self, generic_params, small_grids, s, what):
        # inf returned an all-zero function, NaN read as "requires s > 0",
        # and a complex s raised Python's TypeError
        with pytest.raises(DomainError, match=f"^heat_kernel requires {what}$"):
            heat_kernel(generic_params, s, *small_grids)

    @pytest.mark.parametrize("s", [0.05, 0.3, 1.0])
    def test_h3_closed_form(self, h3_params, h3_heat_kernel, s):
        # ground truth that does not go through the transform pair
        rgrid, sgrid = default_grids(h3_params)
        expected = h3_heat_kernel(s, rgrid.nodes)
        got = heat_kernel(h3_params, s, rgrid, sgrid).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(expected)


class TestLaplacian:
    def test_eigenfunction_relation(self, generic_params, grids):
        rgrid, sgrid = grids
        lam = 2.0
        from jacobilab import phi_matrix

        phi = phi_matrix(generic_params, rgrid.nodes, np.array([lam]))[:, 0]
        f = SampledRadialFunction(rgrid, phi)
        lap = apply_laplacian(generic_params, f)
        expected = -(lam**2 + generic_params.rho**2) * phi
        # compare away from the panel ends of the graded grid's first cells
        mask = (rgrid.nodes > 0.5) & (rgrid.nodes < 10.0)
        err = np.max(np.abs(lap.values[mask] - expected[mask]))
        assert err < 1e-3

    def test_minimum_size_guard(self, generic_params):
        rgrid = RadialGrid.graded(generic_params, 5.0, 1)
        f = SampledRadialFunction(rgrid, np.ones(8))
        with pytest.raises(GridError):
            apply_laplacian(generic_params, f)


class TestParameterMismatch:
    """A grid built for one parameter set refuses another (GridError naming both)."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, f, s: jacobi_transform(p, f, s),
            lambda p, f, s: inverse_transform(p, SampledSpectralFunction(s, np.exp(-(s.nodes**2))), f.grid),
            lambda p, f, s: heat_kernel(p, 0.1, f.grid, s),
            lambda p, f, s: convolve(p, f, f),
            lambda p, f, s: convolve_direct(p, f, f),
            lambda p, f, s: estimate_operator_norm(
                p, MultiplierSpec(lambda lam: np.exp(-np.asarray(lam) ** 2), "rapidly-decreasing", "g"),
                2.0, trials=1, grids=(f.grid, s),
            ),
            lambda p, f, s: apply_laplacian(p, f),
        ],
        ids=[
            "jacobi_transform", "inverse_transform", "heat_kernel", "convolve",
            "convolve_direct", "estimate_operator_norm", "apply_laplacian",
        ],
    )
    def test_raises_naming_both(self, generic_params, call):
        rgrid = RadialGrid.graded(generic_params, 5.0, 12)
        sgrid = SpectralGrid.build(generic_params, 20.0, 20)
        f = gaussian_bump(rgrid)
        with pytest.raises(GridError, match=r"alpha=1\.2.*alpha=3\.0|alpha=3\.0.*alpha=1\.2"):
            call(JacobiParameters(3.0, 1.0), f, sgrid)
