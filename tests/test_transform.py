import math

import numpy as np
import pytest

from jacobilab import (
    DecayError,
    DomainError,
    GridError,
    RadialGrid,
    SampledRadialFunction,
    SampledSpectralFunction,
    SpectralGrid,
    OverflowLimitError,
    apply_laplacian,
    heat_kernel,
    inverse_transform,
    jacobi_transform,
    plancherel_constant,
    plancherel_defect,
)
from jacobilab.transform import phi_matrix_for


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

    def test_spectral_grid_past_double_range(self, generic_params):
        # c(lambda) leaves double range past |lambda| ~ 450: fail at construction
        with pytest.raises(OverflowLimitError):
            SpectralGrid.build(generic_params, 500.0, 100)

    def test_value_shape_mismatch(self, generic_params, small_grids):
        rgrid, _ = small_grids
        with pytest.raises(GridError):
            SampledRadialFunction(rgrid, np.ones(3))

    def test_non_finite_samples_rejected(self, generic_params, small_grids):
        rgrid, _ = small_grids
        vals = np.ones_like(rgrid.nodes)
        vals[0] = math.inf
        with pytest.raises(DomainError):
            SampledRadialFunction(rgrid, vals)


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
        const = plancherel_constant(generic_params)
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
        rgrid = RadialGrid.graded(generic_params, 5.0, 1, 8)
        f = SampledRadialFunction(rgrid, np.ones(8))
        with pytest.raises(GridError):
            apply_laplacian(generic_params, f)
