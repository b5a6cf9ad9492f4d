import math

import mpmath
import numpy as np
import pytest

from jacobilab import (
    CostBudgetError,
    DecayError,
    DomainError,
    GridError,
    JacobiParameters,
    RadialGrid,
    SampledRadialFunction,
    SpectralGrid,
    convolution_grid,
    convolve,
    convolve_direct,
    heat_kernel,
    jacobi_transform,
    kernel_K,
    kernel_values,
    phi_matrix,
    translate,
    weight_density,
    young_check,
)

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def conv_grid(generic_params):
    return convolution_grid(generic_params)


@pytest.fixture(scope="module")
def conv_sgrid(generic_params):
    return SpectralGrid.build(generic_params, 30.0, 150)


def bump(grid, center, width):
    t = grid.nodes
    vals = np.exp(-((t - center) ** 2) / width**2) + np.exp(
        -((t + center) ** 2) / width**2
    )
    return SampledRadialFunction(grid, vals)


def kernel_oracle(params, s, t, u):
    """Independent evaluation of the kernel closed form through mpmath."""
    a, b, rho = params.alpha, params.beta, params.rho
    chs, cht, chu = math.cosh(s), math.cosh(t), math.cosh(u)
    b_val = (chs**2 + cht**2 + chu**2 - 1.0) / (2.0 * chs * cht * chu)
    pref = (
        mpmath.mpf(2) ** (5 - 4 * rho)
        * mpmath.gamma(a + 1)
        / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(a + 0.5))
    )
    val = (
        pref
        * (chs * cht * chu) ** (a - b - 1)
        / (math.sinh(s) * math.sinh(t) * math.sinh(u)) ** (2 * a)
        * (1 - b_val**2) ** (a - 0.5)
        * mpmath.hyp2f1(a + b, a - b, a + 0.5, (1 - b_val) / 2)
    )
    return float(val)


class TestKernel:
    def test_support_flag(self, generic_params):
        assert kernel_K(generic_params, 1.0, 1.2, 1.5).in_support
        assert not kernel_K(generic_params, 1.0, 1.2, 2.5).in_support
        assert kernel_K(generic_params, 1.0, 1.2, 2.5).value == 0.0
        assert not kernel_K(generic_params, 1.0, 1.2, 0.1).in_support

    def test_against_mpmath_oracle(self, generic_params):
        for _ in range(20):
            s = float(RNG.uniform(0.2, 3.0))
            t = float(RNG.uniform(0.2, 3.0))
            u = float(RNG.uniform(abs(s - t) + 1e-3, s + t - 1e-3))
            expected = kernel_oracle(generic_params, s, t, u)
            got = kernel_K(generic_params, s, t, u).value
            assert got == pytest.approx(expected, rel=1e-10), (s, t, u)

    def test_symmetry(self, generic_params):
        for s, t, u in [(0.8, 1.3, 1.6), (2.0, 0.5, 1.9)]:
            v1 = kernel_K(generic_params, s, t, u).value
            v2 = kernel_K(generic_params, t, s, u).value
            v3 = kernel_K(generic_params, u, t, s).value
            assert v1 == pytest.approx(v2, rel=1e-12)
            assert v1 == pytest.approx(v3, rel=1e-10)

    def test_positive_in_support(self, generic_params):
        for _ in range(10):
            s = float(RNG.uniform(0.3, 2.0))
            t = float(RNG.uniform(0.3, 2.0))
            u = float(RNG.uniform(abs(s - t) + 1e-2, s + t - 1e-2))
            assert kernel_K(generic_params, s, t, u).value > 0.0

    def test_domain_guard(self, generic_params):
        with pytest.raises(DomainError):
            kernel_K(generic_params, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kernel_values(generic_params, -1.0, 1.0, 1.0)

    def test_nan_argument_raises(self, generic_params):
        # NaN fails the support test, so it read as a kernel value of 0
        with pytest.raises(DomainError):
            kernel_values(generic_params, 1.0, math.nan, 1.0)

    def test_unit_mass(self, generic_params):
        # integral K(s,t,u) dmu(u) = 1 for every fixed (s, t)
        from jacobilab.convolution import _support_rule
        from jacobilab.core import weight_density

        for s, t in [(0.7, 1.1), (1.5, 2.0), (0.4, 0.5)]:
            z, wz = _support_rule(s, np.array([t]), 20.0, n_panels=48)
            kern = kernel_values(generic_params, s, t, z[0])
            mass = float(np.sum(kern * weight_density(generic_params, z[0]) * wz[0]))
            assert mass == pytest.approx(1.0, abs=1e-9), (s, t)


class TestTranslate:
    def test_translation_of_phi_is_multiplicative(self, generic_params, conv_grid):
        # tau_x phi_lambda = phi_lambda(x) phi_lambda
        lam = 2.0
        x = 1.3
        phi = phi_matrix(generic_params, np.append(conv_grid.nodes, x), [lam])[:, 0]
        phi_vals = phi[:-1]
        f = SampledRadialFunction(conv_grid, phi_vals)
        tau = translate(generic_params, f, x)
        expected = phi[-1] * phi_vals
        # compare away from the truncation boundary of the finite grid
        mask = conv_grid.nodes < conv_grid.t_max - x - 0.5
        err = np.max(np.abs(tau.values[mask] - expected[mask]))
        assert err < 1e-5

    def test_requires_positive_x(self, generic_params, conv_grid):
        f = bump(conv_grid, 1.0, 0.6)
        with pytest.raises(DomainError):
            translate(generic_params, f, 0.0)


class TestConvolve:
    # multiplicativity, commutativity and the node budget are properties of
    # the quadrature reference; the spectral convolve has them by construction
    @pytest.fixture(scope="class")
    def direct_fg(self, generic_params, conv_grid):
        f = bump(conv_grid, 0.8, 0.5)
        g = bump(conv_grid, 1.1, 0.6)
        return f, g, convolve_direct(generic_params, f, g)

    def test_transform_multiplicativity(self, generic_params, conv_sgrid, direct_fg):
        f, g, conv = direct_fg
        fhat = jacobi_transform(generic_params, f, conv_sgrid)
        ghat = jacobi_transform(generic_params, g, conv_sgrid)
        chat = jacobi_transform(generic_params, conv, conv_sgrid, decay_fraction=None)
        prod = fhat.values * ghat.values
        scale = np.max(np.abs(prod))
        assert np.max(np.abs(chat.values - prod)) < 1e-4 * scale

    @pytest.mark.parametrize("ab", [(1.2, 0.3), (4.0, 2.0)], ids=["generic", "rho-7"])
    def test_direct_mirrors_translates(self, ab):
        # convolve_direct computes tau_x g(y) for y >= x only; by the symmetry
        # of K and of the support rule the result is bitwise the full one
        params = JacobiParameters(*ab)
        grid = RadialGrid.graded(params, 6.0, 12, 8)
        f, g = bump(grid, 0.8, 0.5), bump(grid, 1.1, 0.6)
        tau = np.stack([translate(params, g, x).values for x in grid.nodes])
        assert np.array_equal(tau, tau.T)
        expected = tau @ (f.values * grid.mu_weights)
        assert np.array_equal(convolve_direct(params, f, g).values, expected)

    def test_commutativity(self, generic_params, conv_grid):
        f = bump(conv_grid, 0.8, 0.5)
        g = bump(conv_grid, 1.4, 0.7)
        fg = convolve_direct(generic_params, f, g)
        gf = convolve_direct(generic_params, g, f)
        scale = np.max(np.abs(fg.values))
        assert np.max(np.abs(fg.values - gf.values)) < 1e-6 * scale

    def test_young_inequality(self, generic_params, conv_grid):
        f = bump(conv_grid, 0.7, 0.5)
        g = bump(conv_grid, 1.2, 0.5)
        result = young_check(generic_params, f, g, 2, 1)
        assert result["r"] == pytest.approx(2.0)
        assert result["ratio"] <= 1.001

    def test_young_invalid_exponents(self, generic_params, conv_grid):
        f = bump(conv_grid, 0.7, 0.5)
        with pytest.raises(DomainError):
            young_check(generic_params, f, f, 2, 4)

    def test_grid_guards(self, generic_params, conv_grid):
        f = bump(conv_grid, 0.8, 0.5)
        other = convolution_grid(generic_params)
        g = bump(other, 0.8, 0.5)
        with pytest.raises(GridError):
            convolve(generic_params, f, g)

    def test_node_budget(self, generic_params):
        big = RadialGrid.graded(generic_params, 10.0, 100, 8)
        f = bump(big, 0.8, 0.5)
        with pytest.raises(CostBudgetError):
            convolve_direct(generic_params, f, f)

    @pytest.mark.parametrize(
        "ab, nodes",
        [((1.2, 0.3), 320), ((1.5, 0.5), 320), ((0.75, 0.0), 320), ((4.0, 2.0), 320),
         ((1.2, 0.3), 800)],
        ids=["generic", "rho-3", "rho-1.75", "rho-7", "generic-800-nodes"],
    )
    def test_heat_semigroup(self, ab, nodes):
        # h_0.1 * h_0.2 = h_0.3, at rho != 5/2 too, and past the node budget
        # of the quadrature reference
        params = JacobiParameters(*ab)
        grid = RadialGrid.graded(params, 10.0, nodes // 8, 8)
        sgrid = SpectralGrid.build(params)
        h1, h2, h3 = (heat_kernel(params, s, grid, sgrid) for s in (0.1, 0.2, 0.3))
        conv = convolve(params, h1, h2)
        diff = SampledRadialFunction(grid, conv.values - h3.values)
        assert diff.norm(2) < 1e-12 * h3.norm(2)

    def test_decay_gate_on_product(self, generic_params, conv_grid):
        # a width-0.05 bump has not decayed spectrally by lambda = 50
        narrow = bump(conv_grid, 1.0, 0.05)
        with pytest.raises(DecayError):
            convolve(generic_params, narrow, narrow)
        wide = bump(conv_grid, 1.0, 0.1)
        assert np.all(np.isfinite(convolve(generic_params, wide, wide).values))

    def test_matches_direct(self, generic_params, direct_fg):
        f, g, direct = direct_fg
        spectral = convolve(generic_params, f, g)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(spectral.values - direct.values)) < 1e-6 * scale
