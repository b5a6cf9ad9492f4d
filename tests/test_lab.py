import math
import warnings

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
    mihlin_proxy_norm,
    standard_multiplier_family,
    default_grids,
    inverse_transform,
    probe_theorem,
    theorem_ratio_experiment,
)
from jacobilab import lab, transform
from jacobilab.lab import _trial_functions
from jacobilab.transform import phi_matrix_for


def constant_multiplier(value=1.0):
    def evaluate(lam):
        return np.full(np.shape(np.asarray(lam)), complex(value))

    return MultiplierSpec(evaluate, "bounded", f"const-{value:g}")


def heat_multiplier(params, s=0.05):
    rho2 = params.rho**2

    def evaluate(lam):
        with np.errstate(under="ignore"):
            return np.exp(-s * (np.asarray(lam) ** 2 + rho2))

    return MultiplierSpec(evaluate, "rapidly-decreasing", f"heat-{s:g}")


def per_trial_estimate(params, m, p, trials, seed, grids, round_trip=False):
    """The probe one trial at a time: (lower bound, witness, kept trials).

    f_j and T_m f_j are the inverse transforms of the trial spectrum S_j and
    of m S_j; with round_trip, T_m f_j is apply_multiplier_operator of f_j
    (forward transform, m, inverse transform) instead.
    """
    rgrid, sgrid = grids
    ((spectra, descs),) = _trial_functions(params, [m(sgrid.nodes)], rgrid, sgrid, trials, seed)
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
                # the estimate takes its ratios at q = max(p, p/(p-1)), 3 for p = 1.5
                best, witness, count = per_trial_estimate(params, m, max(p, p / (p - 1)), 8, 5, grids)
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
        ((spectra, descs),) = _trial_functions(generic_params, [m(sgrid.nodes)], rgrid, sgrid, 12, 7)
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

    def test_decay_error_names_the_trial_and_member(self, generic_params, small_grids, monkeypatch):
        # trial 0 is dropped (zero), trial 2 is a heat kernel translated to the
        # last radial node: the gate must name trial 2, not its kept position 1
        rgrid, sgrid = small_grids
        real = lab._trial_functions

        def rigged(params, samples, rgrid, sgrid, trials, seed):
            out = []
            for spectra, descs in real(params, samples, rgrid, sgrid, trials, seed):
                spectra[:, 0] = 0.0
                phi = phi_matrix_for(params, rgrid, sgrid)
                spectra[:, 2] = np.exp(-0.01 * (sgrid.nodes**2 + params.rho**2)) * phi[-1]
                out.append((spectra, descs[:2] + ["heat kernel at the grid's end"] + descs[3:]))
            return out

        monkeypatch.setattr(lab, "_trial_functions", rigged)
        family = standard_multiplier_family(generic_params)
        with pytest.raises(DecayError, match=r"^radial trial 2 of gauss-narrow \(heat kernel at the grid's end\) has"):
            estimate_operator_norm(generic_params, family[1], 2, small_grids, trials=8)
        # in a family, the first member in family order is named
        with pytest.raises(DecayError, match=r"^radial trial 2 of gauss-wide \("):
            theorem_ratio_experiment(generic_params, family, 2, small_grids, trials=8)

    def test_trials_guard(self, generic_params, grids):
        with pytest.raises(ParameterError):
            estimate_operator_norm(generic_params, constant_multiplier(), 2, trials=0, grids=grids)
        with pytest.raises(ParameterError, match="trials"):
            estimate_operator_norm(generic_params, constant_multiplier(), 2, trials=2.5, grids=grids)
        with pytest.raises(ParameterError, match="trials"):
            theorem_ratio_experiment(generic_params, standard_multiplier_family(generic_params), 2, grids=grids, trials=2.5)

    def test_bool_trials_refused(self, generic_params, small_grids):
        # bool is an int subclass; unchecked, True reaches np.empty as a shape
        with pytest.raises(ParameterError, match="trials must be an integer >= 1, not True"):
            estimate_operator_norm(generic_params, constant_multiplier(), 2, trials=True, grids=small_grids)

    def test_unindexable_trials_refused_and_any_seed_taken(self, generic_params, small_grids):
        # 10**21 trials is past the largest count numpy can index: refused,
        # naming trials, before numpy is asked for that many
        family = standard_multiplier_family(generic_params)
        for call in (
            lambda: estimate_operator_norm(generic_params, constant_multiplier(), 2, trials=10**21, grids=small_grids),
            lambda: theorem_ratio_experiment(generic_params, family, 2, grids=small_grids, trials=10**21),
            lambda: probe_theorem(generic_params, family, 2, small_grids, trials=10**21),
        ):
            with pytest.raises(ParameterError, match=r"trials must be at most \d+, the most numpy can index"):
                call()
        # numpy seeds a generator from an integer of any size
        est = estimate_operator_norm(generic_params, constant_multiplier(), 2, trials=1, seed=10**21, grids=small_grids)
        assert math.isfinite(est.lower_bound)

    def test_p_guard(self, generic_params, grids):
        with pytest.raises(ParameterError):
            estimate_operator_norm(
                generic_params, constant_multiplier(), 1.0, trials=1, grids=grids
            )

    @pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
    def test_p_outside_open_interval_refused_before_any_transform(self, generic_params, small_grids, monkeypatch, p):
        def no_work(*args, **kwargs):
            raise AssertionError("a trial was built or transformed")

        monkeypatch.setattr(lab, "_trial_functions", no_work)
        monkeypatch.setattr(lab, "inverse_transform", no_work)
        with pytest.raises(ParameterError, match=r"\(1, inf\)"):
            estimate_operator_norm(generic_params, constant_multiplier(), p, trials=1, grids=small_grids)
        with pytest.raises(ParameterError, match=r"\(1, inf\)"):
            theorem_ratio_experiment(generic_params, standard_multiplier_family(generic_params), p, grids=small_grids)
        with pytest.raises(ParameterError, match=r"\(1, inf\)"):
            probe_theorem(generic_params, standard_multiplier_family(generic_params), p, small_grids)
        with pytest.raises(ParameterError):
            lab.OperatorNormEstimate(p, 1.0, 1, 0, "none")

    @pytest.mark.parametrize("seed", [2.5, -1, "7", False])
    def test_bad_seed_refused_before_any_transform(self, generic_params, small_grids, monkeypatch, seed):
        # unchecked, numpy's default_rng raises its own TypeError or ValueError
        def no_work(*args, **kwargs):
            raise AssertionError("a trial was built or transformed")

        monkeypatch.setattr(lab, "_trial_functions", no_work)
        monkeypatch.setattr(lab, "inverse_transform", no_work)
        with pytest.raises(ParameterError, match="seed"):
            estimate_operator_norm(generic_params, constant_multiplier(), 2, seed=seed, grids=small_grids)
        with pytest.raises(ParameterError, match="seed"):
            theorem_ratio_experiment(generic_params, standard_multiplier_family(generic_params), 2, seed=seed,
                                     grids=small_grids)
        with pytest.raises(ParameterError, match="seed"):
            probe_theorem(generic_params, standard_multiplier_family(generic_params), 2, small_grids, seed=seed)


    @pytest.mark.parametrize("p", [101, 1.01])
    def test_extreme_exponent_gives_a_positive_finite_bound(self, generic_params, p):
        # q = 101 at both; unscaled, |T_m f|^101 overflowed and the bound read 0
        grids = default_grids(generic_params, 20.0, 200, 50.0, 150)
        m = standard_multiplier_family(generic_params)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_operator_norm(generic_params, m, p, grids, trials=8)
        assert 0.0 < est.lower_bound < math.inf
        assert est.p == p


class TestMihlinProxy:
    def test_constant(self):
        assert mihlin_proxy_norm(lambda lam: np.ones(np.shape(lam))) == pytest.approx(1.0)

    def test_known_value(self):
        # g = lam/(1+lam) on the window [1/40, 40]: sup|g| is 40/41 up to the
        # dyadic grid's last node, and sup|lam g'| = 1/4 at lam = 1
        got = mihlin_proxy_norm(lambda lam: lam / (1.0 + lam))
        assert got == pytest.approx(40.0 / 41.0 + 0.25, abs=1e-3)


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

        bad = MultiplierSpec(odd, "rapidly-decreasing", "sneaky-odd")
        res = theorem_ratio_experiment(
            generic_params, [bad], 2, seed=0, grids=grids, trials=2
        )
        assert res["rows"][0]["flags"] != ""
        assert math.isnan(res["verdict_max_ratio"])

    def test_trials_built_once_per_leg(self, generic_params, small_grids, monkeypatch):
        # only the targeted bumps depend on the member, so each leg builds its
        # trials, for every member, in one call
        calls = []
        real = lab._trial_functions

        def counted(params, samples, *args):
            calls.append(len(samples))
            return real(params, samples, *args)

        monkeypatch.setattr(lab, "_trial_functions", counted)
        probe_theorem(generic_params, standard_multiplier_family(generic_params), 1.5, small_grids, trials=4)
        assert calls == [5, 5]

    @pytest.mark.parametrize("preset", ["generic", "dr", "h3"])
    def test_family_rows_equal_one_member_rows(self, preset, generic_params, dr_params, h3_params):
        # one block for the family against a block of one member: a GEMM
        # column does not depend on the block's width, so the rows agree to the bit
        params = {"generic": generic_params, "dr": dr_params, "h3": h3_params}[preset]
        grids = (RadialGrid.graded(params, 20.0, 200), SpectralGrid.build(params, 50.0, 150))
        family = standard_multiplier_family(params)
        for p in (1.5, 2, 3):
            rows = theorem_ratio_experiment(params, family, p, grids, seed=5, trials=8)["rows"]
            for m, row in zip(family, rows):
                assert row["flags"] == ""
                assert row == theorem_ratio_experiment(params, [m], p, grids, seed=5, trials=8)["rows"][0]
            for m, est in zip(family, lab._estimates(params, family, p, grids, 8, 5)):
                single = estimate_operator_norm(params, m, p, grids, trials=8, seed=5)
                assert (est.lower_bound, est.trials, est.witness) == (single.lower_bound, single.trials, single.witness)

    def test_flagged_member_leaves_the_other_rows_unchanged(self, generic_params, small_grids):
        def odd(lam):
            lam = np.asarray(lam, dtype=complex)
            with np.errstate(under="ignore"):
                return lam * np.exp(-0.1 * lam**2)

        # the pole 32 + i(rho - 1e-3) lies on the proxy node 32 of the trace's
        # middle rung, off the strip lattice; unchecked, its proxy was NaN
        # and its ratio inf
        rho = generic_params.rho
        family = standard_multiplier_family(generic_params)
        rest = theorem_ratio_experiment(generic_params, family, 2, small_grids, trials=8)["rows"]
        for bad, flag in [
            (MultiplierSpec(odd, "rapidly-decreasing", "sneaky-odd"), "not-even"),
            (lab._omega_weighted(generic_params, lambda l: 1.0 / (l**2 - (32.0 + 1j * (rho - 0.001)) ** 2), "bounded", "rung-pole"),
             "no-boundary-trace"),
        ]:
            rows = theorem_ratio_experiment(generic_params, family[:2] + [bad] + family[2:], 2, small_grids, trials=8)["rows"]
            assert rows[2]["flags"] == flag
            assert all(math.isnan(rows[2][key]) for key in ("lower_bound", "proxy_norm", "ratio"))
            assert rows[:2] + rows[3:] == rest

    def test_warm_family_is_one_inverse_transform(self, generic_params, grids, monkeypatch):
        family = standard_multiplier_family(generic_params)
        theorem_ratio_experiment(generic_params, family, 2, grids, seed=1, trials=8)
        widths = []
        original = lab.inverse_transform

        def counted(params, g, rgrid, **kwargs):
            widths.append(g.values.shape[1])
            return original(params, g, rgrid, **kwargs)

        monkeypatch.setattr(lab, "inverse_transform", counted)
        theorem_ratio_experiment(generic_params, family, 2, grids, seed=1, trials=8)
        rgrid, sgrid = grids
        samples = [m(sgrid.nodes) for m in family]
        spectra = np.hstack([s for s, _ in _trial_functions(generic_params, samples, rgrid, sgrid, 8, 1)])
        distinct = np.unique(spectra, axis=1).shape[1]
        # four of the five members peak at one node, so they share both targeted bumps
        assert distinct == 10
        assert widths == [distinct + 5 * 8]

    def test_pole_on_strip_lattice_is_flagged_without_warnings(self, generic_params, small_grids):
        # omega m = 1/lam^2 has a pole at the lattice point 0; the RuntimeWarnings
        # of evaluating it there (errors in this suite) must not escape the flag
        pole = lab._omega_weighted(generic_params, lambda l: 1.0 / l**2, "bounded", "pole")
        res = theorem_ratio_experiment(generic_params, [pole], 2, grids=small_grids, trials=2)
        assert res["rows"][0]["flags"] == "unbounded-on-strip"
        assert math.isnan(res["rows"][0]["proxy_norm"])

    @pytest.mark.parametrize("pole", [10.0, 35.0], ids=["on-the-lattice", "beyond-the-lattice"])
    def test_real_axis_pole_is_flagged_once_without_warnings(self, generic_params, small_grids, pole):
        # both poles lie on the evenness samples, 10 also on the lattice and 35
        # past its |Re lambda| <= 30; unchecked, the samples warned (an error
        # here, raised for 10 before the lattice flag), and for 35 their NaN
        # defect passed as even
        member = lab._omega_weighted(generic_params, lambda l: 1.0 / (l**2 - pole**2), "bounded", "real-pole")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = theorem_ratio_experiment(generic_params, [member], 2, small_grids, trials=2)
        assert res["rows"][0]["flags"] == "unbounded-on-strip"
        assert math.isnan(res["rows"][0]["lower_bound"])


class TestNonFiniteMember:
    """exp(0.3 lambda^2) is finite on the strip lattice and the proxy's window
    but overflows past lambda = 48.6, so on lam_max = 50 grids it is not
    finite on the spectral nodes."""

    @pytest.fixture(scope="class")
    def grows(self, generic_params):
        return lab._omega_weighted(generic_params, lambda l: np.exp(0.3 * l**2), "bounded", "grows")

    @pytest.mark.parametrize("entry", ["estimate_operator_norm", "theorem_ratio_experiment"])
    def test_raises_naming_the_member_before_any_trial(self, generic_params, grids, grows, monkeypatch, entry):
        def no_trials(*args):
            raise AssertionError("a trial was built")

        monkeypatch.setattr(lab, "_trial_functions", no_trials)
        family = standard_multiplier_family(generic_params) + [grows]
        nodes = grids[1].nodes
        first = nodes[np.argmax(0.3 * nodes**2 > math.log(np.finfo(float).max))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"multiplier 'grows' is not finite at the spectral node lambda = {first:.6g}$"):
                if entry == "estimate_operator_norm":
                    estimate_operator_norm(generic_params, grows, 2, grids, trials=2)
                else:
                    theorem_ratio_experiment(generic_params, family, 2, grids, trials=2)


def nan_equal(a, b):
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


class TestProbeTheorem:
    @pytest.fixture(scope="class")
    def family(self, generic_params):
        """The standard family with an odd member, which is flagged, in the middle."""
        family = standard_multiplier_family(generic_params)
        odd = lab._omega_weighted(generic_params, lambda l: np.exp(-0.1 * l**2) * (1 + 0.1 * l), "rapidly-decreasing", "odd")
        return family[:2] + [odd] + family[2:]

    @pytest.fixture(scope="class")
    def coarse(self, generic_params):
        return default_grids(generic_params, 12.0, 80, 25.0, 80)

    def test_rows_extend_the_experiment_rows(self, generic_params, family, coarse):
        res = probe_theorem(generic_params, family, 1.5, coarse, seed=3, trials=2)
        exp = theorem_ratio_experiment(generic_params, family, 1.5, coarse, seed=3, trials=2)
        assert res["verdict_max_ratio"] == exp["verdict_max_ratio"]
        for row, exp_row in zip(res["rows"], exp["rows"], strict=True):
            assert set(row) - set(exp_row) == {"ratio_fine", "drift"}
            assert all(nan_equal(row[key], exp_row[key]) for key in exp_row), row["member"]

    def test_ratio_fine_is_the_experiment_on_the_refined_pair(self, generic_params, family, coarse):
        # the refined pair has 1.25 times the radial and 1.5 times the spectral panels
        fine = default_grids(generic_params, 12.0, int(1.25 * 80), 25.0, int(1.5 * 80))
        res = probe_theorem(generic_params, family, 1.5, coarse, seed=3, trials=2)
        at_fine = theorem_ratio_experiment(generic_params, family, 1.5, fine, seed=3, trials=2)
        for row, fine_row in zip(res["rows"], at_fine["rows"], strict=True):
            assert nan_equal(row["ratio_fine"], fine_row["ratio"])
            if not row["flags"]:
                assert row["drift"] == abs(row["ratio"] - fine_row["ratio"]) / row["ratio"]

    def test_flagged_member_is_nan_and_leaves_stable_alone(self, generic_params, family, coarse):
        res = probe_theorem(generic_params, family, 1.5, coarse, seed=3, trials=2)
        odd = res["rows"][2]
        assert odd["flags"] == "not-even"
        assert all(math.isnan(odd[key]) for key in ("ratio_fine", "drift"))
        rest = probe_theorem(generic_params, family[:2] + family[3:], 1.5, coarse, seed=3, trials=2)
        assert rest["stable"] == res["stable"]
        assert rest["rows"] == res["rows"][:2] + res["rows"][3:]

    def test_two_legs_at_every_p(self, generic_params, family, coarse, monkeypatch):
        # the coarse pair and the refined one; p < 2 is measured at p/(p-1),
        # so no leg at the conjugate exponent is left to run
        legs = []
        real = lab._leg

        def counted(params, family, rows, p, grids, *args):
            legs.append((p, len(grids[0].nodes)))
            return real(params, family, rows, p, grids, *args)

        monkeypatch.setattr(lab, "_leg", counted)
        for p in (1.5, 2.0, 3.0):
            legs.clear()
            res = probe_theorem(generic_params, family, p, coarse, seed=3, trials=2)
            assert legs == [(p, len(coarse[0].nodes)), (p, 8 * int(1.25 * 80))]
            assert not {"p_dual", "duality"} & (set(res) | set(res["rows"][0]))


class TestDuality:
    """phi_lambda is real, so ||T_m||_p = ||T_m||_p'; a bound at p < 2 is read
    at p' = p/(p-1), where the trials' mass lies where the grid resolves it.
    Read at p itself on these grids, a bound moved by up to a factor of 7.9e6
    across these t_max."""

    @pytest.mark.parametrize("preset", ["generic", "dr"])
    def test_p_below_2_is_its_dual_and_independent_of_t_max(self, preset, generic_params, dr_params):
        params = generic_params if preset == "generic" else dr_params
        rho = params.rho
        family = standard_multiplier_family(params)
        # the imaginary powers (lambda^2 + 4 rho^2)^(i tau) / omega, complex on the real line
        powers = [
            lab._omega_weighted(params, lambda l, tau=tau: (l**2 + 4.0 * rho**2) ** (1j * tau), "bounded", f"tau{tau}")
            for tau in (2, 8)
        ]
        bounds = {}
        for t_max in (15.0, 20.0, 25.0):
            grids = default_grids(params, t_max, 200, 50.0, 150)
            for p in (1.2, 1.5):
                for exponent in (p, p / (p - 1)):
                    rows = theorem_ratio_experiment(params, family + powers, exponent, grids, trials=8)["rows"]
                    assert all(row["flags"] == "" for row in rows)
                    bounds[t_max, exponent] = [row["lower_bound"] for row in rows]
                assert bounds[t_max, p] == bounds[t_max, p / (p - 1)]
            assert all(0.0 < b < math.inf for b in bounds[t_max, 1.5])
            assert bounds[t_max, 1.5] == bounds[t_max, 3.0]
        for p in (1.2, 1.5):
            reference = np.array(bounds[20.0, p][: len(family)])
            for t_max in (15.0, 25.0):
                assert np.array(bounds[t_max, p][: len(family)]) == pytest.approx(reference, rel=1e-9, abs=0)
