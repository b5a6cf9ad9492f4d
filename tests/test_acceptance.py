"""Acceptance gate: one test per release criterion, at the stated tolerances."""

import math

import numpy as np
import pytest

from jacobilab import (
    JacobiParameters,
    RadialGrid,
    SampledRadialFunction,
    SpectralGrid,
    boundary_trace,
    c_function,
    contour_shift_check,
    convolution_grid,
    convolve_direct,
    estimate_operator_norm,
    gamma_complex,
    gangolli_fit,
    hc_global_pieces,
    hyp2f1,
    inverse_transform,
    jacobi_phi,
    jacobi_transform,
    kernel_values,
    laplacian_residual,
    phi_matrix,
    plancherel_defect,
    plancherel_density,
    standard_multiplier_family,
    theorem_ratio_experiment,
    w_function,
    young_check,
)
from jacobilab._util import loglog_slope
from jacobilab.convolution import _support_rule
from jacobilab.core import bessel_local_expansion, gamma_coefficient_table, weight_density
from jacobilab.lab import mihlin_proxy_norm
from jacobilab.multiplier import MultiplierSpec
from jacobilab.specfun import hyp2f1_real_arg

RNG = np.random.default_rng(2024)

BUMP_SUITE = [(0.8, 0.5), (1.5, 0.7), (2.5, 0.9), (0.5, 0.4), (3.5, 1.0)]


def bump_function(rgrid, center, width):
    t = rgrid.nodes
    vals = np.exp(-((t - center) ** 2) / width**2) + np.exp(
        -((t + center) ** 2) / width**2
    )
    return SampledRadialFunction(rgrid, vals)


def gauss_spec(scale, label="gauss"):
    def evaluate(lam):
        lam = np.asarray(lam, dtype=complex)
        with np.errstate(under="ignore"):
            return np.exp(-scale * lam**2)

    return MultiplierSpec(evaluate, True, "rapidly-decreasing", label)


def test_criterion_1_special_function_identities():
    # reflection and duplication residuals < 1e-10 on standard grids
    re_grid = np.linspace(0.05, 0.95, 10)
    im_grid = np.linspace(-5.0, 5.0, 11)
    for x in re_grid:
        for y in im_grid:
            z = complex(x, y)
            lhs = gamma_complex(z) * gamma_complex(1.0 - z)
            rhs = math.pi / np.sin(math.pi * z)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)
    for x in np.linspace(0.3, 3.0, 10):
        for y in im_grid:
            z = complex(x, y)
            lhs = gamma_complex(2.0 * z)
            rhs = (
                2.0 ** (2.0 * z - 1.0)
                / math.sqrt(math.pi)
                * gamma_complex(z)
                * gamma_complex(z + 0.5)
            )
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)
    # Pfaff consistency < 1e-9: the two Pfaff transformations of the same
    # value must agree for z < 0
    for _ in range(30):
        a = complex(RNG.uniform(-1, 2), RNG.uniform(-2, 2))
        b = complex(RNG.uniform(-1, 2), RNG.uniform(-2, 2))
        c = complex(RNG.uniform(1.0, 4.0), 0.0)
        z = float(-RNG.uniform(0.1, 30.0))
        w = z / (z - 1.0)
        via_a = (1.0 - z) ** (-a) * hyp2f1_real_arg(a, c - b, c, w)
        via_b = (1.0 - z) ** (-b) * hyp2f1_real_arg(b, c - a, c, w)
        assert abs(via_a - via_b) < 1e-9 * max(abs(via_a), 1.0)


def test_criterion_2_jacobi_function(generic_params, h3_params):
    # phi_lambda(0) = 1 to 1e-12
    for lam in (0.0, 0.7, 2.5, 9.0):
        assert abs(jacobi_phi(generic_params, lam, 0.0) - 1.0) < 1e-12
    # evenness in lambda to 1e-12
    for lam in (0.4, 1.3, 4.0, 8.0):
        for t in (0.3, 1.0, 2.7):
            assert abs(
                jacobi_phi(generic_params, lam, t) - jacobi_phi(generic_params, -lam, t)
            ) < 1e-12
    # ODE residual < 1e-6 on the 20-point lattice
    lattice = [(lam, t) for lam in (0.5, 1.5, 3.0, 6.0) for t in (0.4, 0.9, 1.6, 2.8, 4.5)]
    assert len(lattice) == 20
    for lam, t in lattice:
        assert laplacian_residual(generic_params, lam, t) < 1e-6, (lam, t)
    # closed form sin(lambda t)/(lambda sinh t) at (1/2,-1/2) to 1e-9 on 50 points
    points = [(lam, t) for lam in (0.5, 1.0, 2.0, 4.0, 8.0) for t in np.linspace(0.2, 5.0, 10)]
    assert len(points) == 50
    for lam, t in points:
        expected = math.sin(lam * t) / (lam * math.sinh(t))
        assert abs(jacobi_phi(h3_params, lam, t) - expected) < 1e-9, (lam, t)


def test_criterion_3_c_function(h3_params):
    # |c(lambda)|^(-2) = lambda^2 at (1/2,-1/2) to 1e-10
    lam = np.array([0.3, 1.0, 2.5, 10.0, 40.0])
    d = plancherel_density(h3_params, lam)
    assert np.max(np.abs(d - lam**2) / lam**2) < 1e-10
    # d(lambda)/lambda^(2a+1) Cauchy-stable within 2% between 200 and 400
    for alpha, beta in [(1.2, 0.3), (1.7, 0.6)]:
        p = JacobiParameters(alpha, beta)
        expo = 2.0 * alpha + 1.0
        r200 = plancherel_density(p, 200.0) / 200.0**expo
        r400 = plancherel_density(p, 400.0) / 400.0**expo
        assert abs(r200 - r400) <= 0.02 * abs(r400), (alpha, beta)
        # log-log slope of |c(-lambda)|^(-1) within 0.05 of alpha + 1/2
        lams = np.geomspace(50.0, 400.0, 30)
        vals = 1.0 / np.abs(c_function(p, -lams.astype(complex)))
        slope, _ = loglog_slope(lams, vals)
        assert abs(slope - (alpha + 0.5)) < 0.05, (alpha, beta)


def test_criterion_4_transform_pair(generic_params, grids):
    rgrid, sgrid = grids
    for center, width in BUMP_SUITE:
        f = bump_function(rgrid, center, width)
        assert plancherel_defect(generic_params, f, sgrid) < 1e-6, (center, width)
        fhat = jacobi_transform(generic_params, f, sgrid)
        back = inverse_transform(generic_params, fhat, rgrid, decay_fraction=None)
        diff = SampledRadialFunction(rgrid, back.values - f.values)
        assert diff.norm(2) / f.norm(2) < 1e-6, (center, width)
    # defect contracts by >= x4 under grid doubling, starting from a coarse pair
    coarse = (
        RadialGrid.graded(generic_params, 16.0, 30, 4),
        SpectralGrid.build(generic_params, 40.0, 40, 4),
    )
    fine = (
        RadialGrid.graded(generic_params, 16.0, 60, 4),
        SpectralGrid.build(generic_params, 40.0, 80, 4),
    )
    f_c = bump_function(coarse[0], 1.5, 0.7)
    f_f = bump_function(fine[0], 1.5, 0.7)
    d_c = plancherel_defect(generic_params, f_c, coarse[1])
    d_f = plancherel_defect(generic_params, f_f, fine[1])
    assert d_f <= d_c / 4.0, (d_c, d_f)


def test_criterion_5_convolution(generic_params):
    grid = convolution_grid(generic_params)
    sgrid = SpectralGrid.build(generic_params, 30.0, 150)
    # product formula residual < 1e-5 on the 9-point (x,y) x 3-lambda battery;
    # phi at x, y and every support node comes from one phi_matrix call
    xy = [0.5, 1.0, 1.8]
    lams = np.array([1.0, 3.0, 7.0])
    pairs = [(x, y) for x in xy for y in xy]
    rules = [_support_rule(x, np.array([y]), grid.t_max) for x, y in pairs]
    supports = [z[0] for z, _ in rules]
    phi = phi_matrix(generic_params, np.concatenate([xy, *supports]), lams)
    phis = dict(zip(xy, phi[: len(xy)]))
    blocks = np.split(phi[len(xy) :], np.cumsum([u.size for u in supports])[:-1])
    for (x, y), (z, wz), phi_u in zip(pairs, rules, blocks):
        kern = kernel_values(generic_params, x, y, z[0])
        measure = kern * weight_density(generic_params, z[0]) * wz[0]
        integrals = np.sum(measure[:, None] * phi_u, axis=0)
        for lam, integral, expected in zip(lams, integrals, phis[x] * phis[y]):
            assert abs(integral - expected) < 1e-5, (x, y, lam)
    # kernel mass = 1 within 1e-5
    for s, t in [(0.6, 1.0), (1.4, 2.1), (0.5, 0.6)]:
        z, wz = _support_rule(s, np.array([t]), 20.0, n_panels=48)
        kern = kernel_values(generic_params, s, t, z[0])
        mass = float(np.sum(kern * weight_density(generic_params, z[0]) * wz[0]))
        assert abs(mass - 1.0) < 1e-5, (s, t)
    # transform multiplicativity < 1e-4, of the quadrature reference: against
    # the spectral convolve it would hold by construction
    f = bump_function(grid, 0.8, 0.5)
    g = bump_function(grid, 1.1, 0.6)
    h = bump_function(grid, 0.6, 0.45)
    fg = convolve_direct(generic_params, f, g)
    fhat = jacobi_transform(generic_params, f, sgrid)
    ghat = jacobi_transform(generic_params, g, sgrid)
    fg_hat = jacobi_transform(generic_params, fg, sgrid, decay_fraction=None)
    prod = fhat.values * ghat.values
    assert np.max(np.abs(fg_hat.values - prod)) < 1e-4 * np.max(np.abs(prod))
    # Young ratios <= 1.001 for three exponent triples
    for p, q in [(1, 1), (2, 1), (1, 2)]:
        assert young_check(generic_params, f, g, p, q)["ratio"] <= 1.001, (p, q)
    # associativity < 1e-5, of the quadrature reference
    fg_h = convolve_direct(generic_params, fg, h)
    gh = convolve_direct(generic_params, g, h)
    f_gh = convolve_direct(generic_params, f, gh)
    scale = np.max(np.abs(fg_h.values))
    assert np.max(np.abs(fg_h.values - f_gh.values)) < 1e-5 * scale


def test_criterion_6_harish_chandra(generic_params):
    # two-path agreement < 1e-7 for t >= 2, lambda in [1, 10]; the 2F1 series
    # route stops converging beyond t ~ 3.5, which bounds the overlap window
    # from above
    from jacobilab.core import _phi

    t_nodes, lam_nodes = np.array([2.0, 2.5, 3.0]), np.linspace(1.0, 10.0, 5)
    direct = _phi(generic_params, t_nodes, lam_nodes, hypergeometric=True)
    hc = _phi(generic_params, t_nodes, lam_nodes, hypergeometric=False)
    assert np.max(np.abs(hc - direct)) < 1e-7
    # Gangolli envelope holds on all computed coefficients; fit is stable
    lams = np.linspace(0.5, 20.0, 12).astype(complex)
    c32, d32 = gangolli_fit(generic_params, 32, lams)
    c64, d64 = gangolli_fit(generic_params, 64, lams)
    assert abs(d32 - d64) < 0.2
    table = np.abs(gamma_coefficient_table(generic_params, lams, 64))
    k = np.arange(65)
    assert np.all(table <= c64 * (1.0 + k)[:, None] ** d64 * (1.0 + 1e-12))


def test_criterion_7_local_expansion(generic_params):
    # |lambda t| <= 1: E2 residual ~ t^4 (exponent within [3.5, 4.5])
    ts = np.array([0.4, 0.2, 0.1, 0.05])
    resid_t = np.array(
        [abs(bessel_local_expansion(generic_params, 1.0, t, M=2)[1]) for t in ts]
    )
    slope_t, _ = loglog_slope(ts, resid_t)
    assert 3.5 <= slope_t <= 4.5, slope_t
    # |lambda t| >= 1: decay in lambda at exponent <= -(alpha + 2) + 0.5
    t0 = 1.0
    lams = np.geomspace(2.0, 24.0, 8)
    resid_lam = np.array(
        [abs(bessel_local_expansion(generic_params, lam, t0, M=2)[1]) for lam in lams]
    )
    slope_lam, _ = loglog_slope(lams, resid_lam)
    assert slope_lam <= -(generic_params.alpha + 2.0) + 0.5, slope_lam


def test_criterion_8_global_decomposition(generic_params):
    # Delta-expansion reconstruction exact to 1e-12
    from jacobilab import delta_expansion, weight_density

    t = np.linspace(0.2, 8.0, 60)
    _, _, recon = delta_expansion(generic_params, t)
    target = weight_density(generic_params, t)
    assert np.max(np.abs(recon - target) / target) < 1e-12
    # K_{l,j} reconstruction < 1e-4 at ell_max = 30 on the Gaussian family,
    # error monotone in ell_max
    t_nodes = np.linspace(1.1, 4.0, 10)
    for scale in (0.05, 0.1, 0.2):
        m = gauss_spec(scale, f"gauss-{scale:g}")
        res = hc_global_pieces(generic_params, m, ell_max=30, t_nodes=t_nodes)
        assert res["rel_error"] < 1e-4, scale
        errs = [
            hc_global_pieces(
                generic_params, m, ell_max=e, t_nodes=t_nodes, tolerance=1.0
            )["rel_error"]
            for e in (1, 2, 3)
        ]
        assert errs[0] >= errs[1] >= errs[2], errs
    # contour-shift defect < 1e-6 with vanishing edge integrals
    m = gauss_spec(0.1)
    for k in (0, 1):
        res = contour_shift_check(
            generic_params, m, k=k, t=1.5, r_values=(10.0, 100.0, 1000.0)
        )
        scale = max(abs(res["direct"]), 1e-300)
        assert res["defect"] / scale < 1e-6, k
        edges = res["edge_magnitudes"]
        assert edges[-1] <= edges[0]
        assert edges[-1] < 1e-6 * scale


def test_criterion_9_theorem_probe(generic_params, grids):
    family = standard_multiplier_family(generic_params)
    refined = (
        RadialGrid.graded(generic_params, 20.0, 500),
        SpectralGrid.build(generic_params, 50.0, 450),
    )
    res = theorem_ratio_experiment(generic_params, family, 2, seed=0, grids=grids, trials=6)
    res_ref = theorem_ratio_experiment(
        generic_params, family, 2, seed=0, grids=refined, trials=6
    )
    sgrid = grids[1]
    for row, row_ref, member in zip(res["rows"], res_ref["rows"], family):
        assert row["flags"] == "", row
        assert np.isfinite(row["ratio"]) and row["ratio"] > 0
        # stable within 10% under grid refinement
        drift = abs(row["ratio"] - row_ref["ratio"]) / abs(row["ratio"])
        assert drift < 0.10, (row["member"], drift)
        # the p=2 Plancherel ceiling sup|m| + 1e-6 is never exceeded
        sup_m = float(np.max(np.abs(member(sgrid.nodes))))
        assert row["lower_bound"] <= sup_m + 1e-6, row["member"]
    # p = 1.5 spot check: same-shaped table, finite ratios
    res_15 = theorem_ratio_experiment(
        generic_params, family, 1.5, seed=0, grids=grids, trials=6
    )
    assert len(res_15["rows"]) == len(res["rows"])
    for row in res_15["rows"]:
        assert row["flags"] == "" and np.isfinite(row["ratio"])


def test_criterion_10_hormander_w(generic_params, h3_params, dr_params):
    for params in (generic_params, h3_params, dr_params):
        lam = np.geomspace(50.0, 400.0, 40)
        slope_w, _ = loglog_slope(lam, np.abs(w_function(params, lam)))
        assert abs(slope_w - (-params.alpha)) < 0.1, params
        h = 1e-4 * lam
        wp = np.abs(
            (w_function(params, lam + h) - w_function(params, lam - h)) / (2.0 * h)
        )
        slope_wp, _ = loglog_slope(lam, wp)
        assert slope_wp <= -0.5 + 0.1, params
