import math

import numpy as np
import pytest

from jacobilab import (
    DecayError,
    DomainError,
    MultiplierSpec,
    ParameterError,
    RadialGrid,
    SampledRadialFunction,
    SampledSpectralFunction,
    SpectralGrid,
    apply_multiplier_operator,
    estimate_operator_norm,
    heat_ladder,
    mihlin_proxy_norm,
    standard_multiplier_family,
    inverse_transform,
    theorem_ratio_experiment,
)
from jacobilab import lab, transform
from jacobilab.lab import _trial_functions
from jacobilab.transform import phi_matrix_for


def constant_multiplier(value=1.0):
    def evaluate(lam):
        return np.full(np.shape(np.asarray(lam)), complex(value))

    return MultiplierSpec(evaluate, True, "bounded", f"const-{value:g}")


def heat_multiplier(params, s=0.05):
    rho2 = params.rho**2

    def evaluate(lam):
        with np.errstate(under="ignore"):
            return np.exp(-s * (np.asarray(lam) ** 2 + rho2))

    return MultiplierSpec(evaluate, True, "rapidly-decreasing", f"heat-{s:g}")


def per_trial_estimate(params, m, p, trials, seed, grids, round_trip=False):
    """The probe one trial at a time: (lower bound, witness, kept trials).

    f_j and T_m f_j are the inverse transforms of the trial spectrum S_j and
    of m S_j; with round_trip, T_m f_j is apply_multiplier_operator of f_j
    (forward transform, m, inverse transform) instead.
    """
    rgrid, sgrid = grids
    spectra, descs = _trial_functions(params, m, rgrid, sgrid, trials, seed)
    best, witness, count = 0.0, "none", 0
    for j in range(trials):
        g = SampledSpectralFunction(sgrid, spectra[:, j])
        f = inverse_transform(params, g, rgrid, decay_fraction=None)
        norm = f.norm(2)
        if norm == 0.0 or not np.isfinite(norm):
            continue
        count += 1
        if round_trip:
            _, ratio = apply_multiplier_operator(params, m, f, p, sgrid)
        else:
            mg = SampledSpectralFunction(sgrid, m(sgrid.nodes) * spectra[:, j])
            ratio = inverse_transform(params, mg, rgrid, decay_fraction=None).norm(p) / f.norm(p)
        if ratio > best:
            best, witness = ratio, descs[j]
    return best, witness, count


class TestApplyOperator:
    def test_identity_multiplier_is_identity(self, generic_params, grids):
        rgrid, sgrid = grids
        t = rgrid.nodes
        f = SampledRadialFunction(
            rgrid,
            np.exp(-((t - 1.0) ** 2)) + np.exp(-((t + 1.0) ** 2)),
        )
        tf, ratio = apply_multiplier_operator(
            generic_params, constant_multiplier(1.0), f, 2, sgrid
        )
        assert ratio == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(tf.values - f.values)) < 1e-8

    def test_zero_function_guard(self, generic_params, grids):
        rgrid, sgrid = grids
        zero = SampledRadialFunction(rgrid, np.zeros_like(rgrid.nodes))
        with pytest.raises(DomainError):
            apply_multiplier_operator(generic_params, constant_multiplier(), zero, 2, sgrid)


class TestEstimateOperatorNorm:
    def test_constant_multiplier_norm(self, generic_params, grids):
        est = estimate_operator_norm(
            generic_params, constant_multiplier(3.0), 2, trials=4, grids=grids
        )
        assert est.lower_bound == pytest.approx(3.0, rel=1e-6)
        assert est.trials == 4

    def test_p2_plancherel_ceiling(self, generic_params, grids):
        # at p=2 the operator norm is exactly sup|m|
        m = heat_multiplier(generic_params, 0.05)
        est = estimate_operator_norm(generic_params, m, 2, trials=8, grids=grids)
        sup_m = float(np.max(np.abs(m(grids[1].nodes))))
        assert est.lower_bound <= sup_m + 1e-6
        assert est.lower_bound > 0.5 * sup_m

    def test_deterministic_for_fixed_seed(self, generic_params, grids):
        m = heat_multiplier(generic_params)
        a = estimate_operator_norm(generic_params, m, 2, trials=4, seed=3, grids=grids)
        b = estimate_operator_norm(generic_params, m, 2, trials=4, seed=3, grids=grids)
        assert a.lower_bound == b.lower_bound
        assert a.witness == b.witness

    @pytest.mark.parametrize("preset", ["generic", "dr"])
    def test_batched_matches_per_trial_loop(self, preset, generic_params, dr_params):
        # half the default panels, same extent: the rtol holds here for every
        # member; on the default grids the L^1.5 norms of (1.5, 0.5) take most
        # of their mass from t > 15, where rounding reaches 2.5e-12 relative
        params = generic_params if preset == "generic" else dr_params
        grids = (RadialGrid.graded(params, 20.0, 200), SpectralGrid.build(params, 50.0, 150))
        for m in standard_multiplier_family(params):
            for p in (1.5, 2, 4):
                est = estimate_operator_norm(params, m, p, trials=8, seed=5, grids=grids)
                best, witness, count = per_trial_estimate(params, m, p, 8, 5, grids)
                assert est.lower_bound == pytest.approx(best, rel=1e-12)
                assert est.witness == witness
                assert est.trials == count

    @pytest.mark.parametrize("preset", ["generic", "dr", "h3"])
    def test_exact_spectra_match_round_trip(self, preset, generic_params, dr_params, h3_params, grids):
        # T_m f from m S against the forward/inverse round trip of f, on the
        # default grids; at p = 2 the round trip's quadrature error shows
        params = {"generic": generic_params, "dr": dr_params, "h3": h3_params}[preset]
        if preset != "generic":
            grids = (RadialGrid.graded(params, 20.0, 400), SpectralGrid.build(params, 50.0, 300))
        for m in standard_multiplier_family(params):
            for p, rel in ((2, 1e-6), (3, 1e-12), (4, 1e-12)):
                est = estimate_operator_norm(params, m, p, trials=8, seed=5, grids=grids)
                best, _, count = per_trial_estimate(params, m, p, 8, 5, grids, round_trip=True)
                assert est.lower_bound == pytest.approx(best, rel=rel), (m.label, p)
                assert est.trials == count

    def test_heat_trials_sit_on_radial_nodes(self, generic_params, grids):
        rgrid, sgrid = grids
        m = heat_multiplier(generic_params)
        spectra, descs = _trial_functions(generic_params, m, rgrid, sgrid, 12, 7)
        phi = phi_matrix_for(generic_params, rgrid, sgrid)
        heat = [(j, d) for j, d in enumerate(descs) if d.startswith("heat kernel")]
        assert len(heat) == 3
        for j, desc in heat:
            x = float(desc.rsplit("x=", 1)[1])
            node = int(np.argmin(np.abs(rgrid.nodes - x)))
            assert abs(rgrid.nodes[node] - x) <= 5e-6 * x, desc
            # the spectrum is h_s-hat times that node's phi row
            ratio = spectra[:, j] / phi[node]
            s = -np.log(ratio[0]) / (sgrid.nodes[0] ** 2 + generic_params.rho**2)
            assert spectra[:, j] == pytest.approx(
                np.exp(-s * (sgrid.nodes**2 + generic_params.rho**2)) * phi[node], rel=1e-9
            )

    def test_warm_experiment_builds_no_phi_and_no_forward_transform(self, generic_params, grids, monkeypatch):
        family = standard_multiplier_family(generic_params)
        theorem_ratio_experiment(generic_params, family, 2, seed=1, grids=grids, trials=8)
        calls = {"phi_matrix": 0, "jacobi_transform": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # the bindings through which lab reaches either function
        counted(transform, "phi_matrix")
        counted(lab, "jacobi_transform")
        assert not hasattr(lab, "phi_matrix")
        res = theorem_ratio_experiment(generic_params, family, 2, seed=1, grids=grids, trials=8)
        assert np.isfinite(res["verdict_max_ratio"])
        assert calls == {"phi_matrix": 0, "jacobi_transform": 0}

    def test_decay_gate_in_batched_loop(self, generic_params):
        # trial spectra reach lam = 30 on a radial grid cut at t = 2: the
        # radial trials have not decayed, so the probe's radial gate refuses them
        m = standard_multiplier_family(generic_params)[0]
        grids = (RadialGrid.graded(generic_params, 2.0, 40), SpectralGrid.build(generic_params, 30.0, 60))
        with pytest.raises(DecayError):
            estimate_operator_norm(generic_params, m, 2, trials=8, grids=grids)

    def test_trials_guard(self, generic_params, grids):
        with pytest.raises(ParameterError):
            estimate_operator_norm(generic_params, constant_multiplier(), 2, trials=0)

    def test_p_guard(self, generic_params, grids):
        with pytest.raises(ParameterError):
            estimate_operator_norm(
                generic_params, constant_multiplier(), 1.0, trials=1, grids=grids
            )


class TestMihlinProxy:
    def test_constant(self):
        assert mihlin_proxy_norm(lambda lam: np.ones(np.shape(lam))) == pytest.approx(1.0)

    def test_known_value(self):
        # sup|g| + sup|lam g'| for g = lam/(1+lam) is ~1 + 1/4
        got = mihlin_proxy_norm(lambda lam: lam / (1.0 + lam), lam_max=400.0)
        assert got == pytest.approx(1.25, abs=2e-2)

    def test_guard(self):
        with pytest.raises(DomainError):
            mihlin_proxy_norm(lambda lam: lam, lam_max=0.5)


class TestHeatLadder:
    def test_extrapolates_to_direct_estimate(self, generic_params, grids):
        m = constant_multiplier(1.0)
        ladder = heat_ladder(
            generic_params, m, 2, s_values=(0.1, 0.05, 0.025), trials=4, grids=grids
        )
        direct = estimate_operator_norm(generic_params, m, 2, trials=4, grids=grids)
        assert ladder["extrapolated"] == pytest.approx(direct.lower_bound, rel=0.01)
        # regularized estimates increase as s decreases
        assert all(b > a for a, b in zip(ladder["estimates"], ladder["estimates"][1:]))

    def test_ladder_must_decrease(self, generic_params, grids):
        with pytest.raises(ParameterError):
            heat_ladder(generic_params, constant_multiplier(), 2, s_values=(0.1, 0.2))


class TestTheoremExperiment:
    def test_standard_family_rows(self, generic_params, grids):
        family = standard_multiplier_family(generic_params)
        assert len(family) == 5
        res = theorem_ratio_experiment(
            generic_params, family, 2, seed=0, grids=grids, trials=4
        )
        assert len(res["rows"]) == 5
        clean = [r for r in res["rows"] if r["flags"] == ""]
        assert clean, "every member was flagged"
        for row in clean:
            assert np.isfinite(row["ratio"])
            assert row["ratio"] > 0
        assert np.isfinite(res["verdict_max_ratio"])

    def test_odd_member_is_flagged(self, generic_params, grids):
        def odd(lam):
            lam = np.asarray(lam, dtype=complex)
            with np.errstate(under="ignore"):
                return lam * np.exp(-0.1 * lam**2)

        bad = MultiplierSpec(odd, True, "rapidly-decreasing", "sneaky-odd")
        res = theorem_ratio_experiment(
            generic_params, [bad], 2, seed=0, grids=grids, trials=2
        )
        assert res["rows"][0]["flags"] != ""
        assert math.isnan(res["verdict_max_ratio"])
