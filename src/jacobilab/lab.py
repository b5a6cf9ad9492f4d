"""Empirical multiplier laboratory: operator-norm probes, the Mihlin proxy,
the theorem ratio experiment and the theorem probe built on it.

Operator norms are estimated from below by maximizing ||T_m f||_q / ||f||_q
over a deterministic, seeded family of trial functions, at q = max(p, p/(p-1)):
phi_lambda is real on the real line, so ||T_m||_p = ||T_m||_q, and for p < 2
a trial's L^p mass lies in the far tail, where the quadrature floor sets the
ratio.  The trials are spectra S and (T_m f)^ = m f^, so f and T_m f of every
trial come from an inverse transform of the block [S | m S], with no forward
transform.  A family is probed from one block: the trial spectra its members
share are in it once, beside every member's m S.  The Euclidean multiplier
norm of a boundary trace is replaced by the Mihlin proxy sup|g| + sup|lambda
g'|, an upper-bound surrogate labeled as such in every output.  probe_theorem
repeats the experiment on a refined grid pair and decides whether its ratios
are stable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import _MAX_COUNT, dyadic_differences, is_count, to_double
from .errors import DomainError, JacobiLabError, ParameterError
from .multiplier import MultiplierSpec, boundary_trace, omega
from .transform import (
    RadialGrid,
    SampledRadialFunction,
    SampledSpectralFunction,
    SpectralGrid,
    inverse_transform,
    jacobi_transform,
    phi_matrix_for,
)
from .transform import _check_decay, _lp_norm, _tail_count

__all__ = [
    "OperatorNormEstimate",
    "apply_multiplier_operator",
    "estimate_operator_norm",
    "mihlin_proxy_norm",
    "probe_theorem",
    "theorem_ratio_experiment",
    "standard_multiplier_family",
]


_PROXY_LAM_MAX = 40.0  # the Mihlin proxy's window is [1/40, 40]
_REFINE = (1.25, 1.5)  # the refinement pair's radial and spectral panel counts, per coarse panel
_DRIFT_MAX = 0.10  # a stable probe's largest relative change of a ratio under refinement


@dataclass(frozen=True)
class OperatorNormEstimate:
    p: float
    lower_bound: float
    trials: int
    seed: int
    witness: str

    def __post_init__(self):
        _check_exponent(self.p)


def _check_exponent(p):
    if not (isinstance(p, numbers.Real) and 1.0 < to_double("an operator norm", "p", p, ParameterError) < math.inf):
        raise ParameterError(f"p must lie in (1, inf), not {p}")


def _check_trials(trials, seed):
    if not is_count(trials, 1, math.inf):
        raise ParameterError(f"trials must be an integer >= 1, not {trials!r}")
    if not is_count(trials):
        raise ParameterError(f"trials must be at most {_MAX_COUNT}, the most numpy can index, not {trials!r}")
    if not is_count(seed, 0, math.inf):
        raise ParameterError(f"seed must be an integer >= 0, not {seed!r}")


def apply_multiplier_operator(params, m: MultiplierSpec, f: SampledRadialFunction, p, sgrid: SpectralGrid):
    """T_m f = inverse transform of m * f_hat; returns (Tf, ratio ||Tf||_p/||f||_p).

    A block f (one function per column) gives a block Tf and one ratio per
    column.
    """
    denom = f.norm(p)
    if np.any(denom == 0.0):
        raise DomainError("apply_multiplier_operator on the zero function")
    fhat = jacobi_transform(params, f, sgrid)
    # transposes broadcast m(lambda) along the node axis of one column or a block
    mhat = SampledSpectralFunction(sgrid, (fhat.values.T * m(sgrid.nodes)).T)
    tf = inverse_transform(params, mhat, f.grid, decay_fraction=None)
    return tf, tf.norm(p) / denom


def _trial_functions(params, samples, rgrid, sgrid, trials, seed):
    """Deterministic trial family as spectra, one column per trial, with a
    description of each, all spectral profiles: a bump targeted at the peak
    of |m|, bump superpositions, heat kernels translated to a radial node,
    and bumps modulated by cos(0.1 lambda + theta).  samples holds each
    member's m on the spectral nodes, and the result one (spectra, descs)
    pair per member.  Only the targeted bumps depend on the member; the
    other trials, and every draw of the seeded rng, are formed once."""
    rng = np.random.default_rng(seed)
    lam = sgrid.nodes
    phi = phi_matrix_for(params, rgrid, sgrid)
    spectra = np.empty((len(lam), trials))
    descs = []
    widths = {}  # trial -> width of the targeted bump, whose column each member fills
    for i in range(trials):
        kind = i % 4
        if kind == 0:
            # concentrate where |m| peaks; at p=2 this almost saturates sup|m|
            widths[i] = 0.4 if i < 4 else float(rng.uniform(0.3, 1.0))
            descs.append(None)
            continue
        if kind == 1:
            n_bumps = int(rng.integers(1, 4))
            prof = np.zeros(len(lam))
            centers = []
            for _ in range(n_bumps):
                c = float(rng.uniform(0.0, 0.7 * sgrid.lam_max))
                w = float(rng.uniform(0.3, 2.5))
                prof = prof + float(rng.uniform(0.2, 1.0)) * np.exp(
                    -((lam - c) ** 2) / w**2
                )
                centers.append(round(c, 2))
            desc = f"spectral bumps at {centers}"
        elif kind == 2:
            s = float(rng.uniform(0.005, 0.1))
            node = int(np.argmin(np.abs(rgrid.nodes - float(rng.uniform(0.1, 2.0)))))
            with np.errstate(under="ignore"):
                # (tau_x h_s)-hat = phi_lambda(x) h_s-hat by the product formula,
                # with phi_lambda(x) a row of the cached phi matrix
                prof = np.exp(-s * (lam**2 + params.rho**2)) * phi[node]
            desc = f"heat kernel s={s:.3g} translated to x={rgrid.nodes[node]:.6g}"
        else:
            c = float(rng.uniform(0.2, 0.55) * sgrid.lam_max)
            w = float(rng.uniform(1.0, 3.5))
            prof = np.exp(-((lam - c) ** 2) / w**2) * np.cos(
                0.1 * lam + float(rng.uniform(0.0, math.pi))
            )
            desc = f"modulated bump at {c:.1f}"
        spectra[:, i] = prof
        descs.append(desc)
    out = []
    for mvals in samples:
        peak = float(lam[np.argmax(np.abs(mvals))])
        own, own_descs = spectra.copy(), list(descs)
        for i, width in widths.items():
            own[:, i] = np.exp(-((lam - peak) ** 2) / width**2)
            own_descs[i] = f"targeted bump at {peak:.2f} (width {width:.2f})"
        out.append((own, own_descs))
    return out


def estimate_operator_norm(params, m: MultiplierSpec, p, grids, trials=12, seed=0) -> OperatorNormEstimate:
    """Lower bound on ||T_m||_{L^p -> L^p} over the seeded trial family on
    grids, a (RadialGrid, SpectralGrid) pair: the one-member call of the
    family probe, see _estimates.  Its p is the p asked for, not q.
    """
    _check_exponent(p)
    _check_trials(trials, seed)
    return _estimates(params, [m], p, grids, trials, seed)[0]


def _estimates(params, members, p, grids, trials, seed):
    """One OperatorNormEstimate per member, from one inverse transform.

    Each member's m is sampled once on the spectral nodes; before any trial
    is built, a DomainError names the first member that is not finite there
    and its first such node.  The samples give the members' trials, spectra
    S, built in one `_trial_functions` call; f and T_m f are the inverse
    transforms of S and m S, and their L^q norms give the ratios.  The block
    holds each trial spectrum once, however many members share it to the bit,
    then each member's m S columns.  A member's numbers equal those of a block
    of its own only where the GEMM rounds a column alike whatever the block's
    width and the column's place in it, which BLAS does not promise (OpenBLAS's complex
    GEMM in `multiplier._line_integrals` does not);
    `test_family_rows_equal_one_member_rows` pins the equality for the
    standard family at three presets on one grid pair.  Per member, trials
    whose radial L^2 norm is zero or not finite are dropped, the rest are
    gated for decay (a DecayError names the member and the trial), and the
    witness is the first trial, in trial order, with the largest ratio.
    """
    if not members:
        return []
    rgrid, sgrid = grids
    with np.errstate(all="ignore"):  # a member not finite on the nodes is the DomainError below, not a warning
        samples = [m(sgrid.nodes) for m in members]
    for m, mvals in zip(members, samples):
        bad = np.flatnonzero(~np.isfinite(mvals))
        if bad.size:
            raise DomainError(f"multiplier '{m.label}' is not finite at the spectral node lambda = {sgrid.nodes[bad[0]]:.6g}")
    distinct = {}  # the bytes of each distinct trial spectrum -> (its column, the spectrum)
    probes = []  # per member: (m S columns, the columns of its trials' S, descriptions)
    for mvals, (spectra, descs) in zip(samples, _trial_functions(params, samples, rgrid, sgrid, trials, seed)):
        cols = [distinct.setdefault(s.tobytes(), (len(distinct), s))[0] for s in spectra.T]
        probes.append((mvals[:, None] * spectra, cols, descs))
    # the spectra are exact by construction; only the radial trials are gated
    columns = [s for _, s in distinct.values()] + [ms for ms, _, _ in probes]
    block = SampledSpectralFunction(sgrid, np.column_stack(columns))
    out = inverse_transform(params, block, rgrid, decay_fraction=None).values
    first = len(distinct)  # the block column of the current member's first m S
    q = max(p, p / (p - 1.0))
    estimates = []
    for m, (_, cols, descs) in zip(members, probes):
        f, tf = out[:, cols], out[:, first : first + trials]
        first += trials
        norms = _lp_norm(f, rgrid.mu_weights, 2)
        kept = np.flatnonzero((norms != 0.0) & np.isfinite(norms))
        names = [f"radial trial {j} of {m.label} ({descs[j]})" for j in kept]
        _check_decay(f[:, kept], _tail_count(rgrid), names)
        ratios = _lp_norm(tf[:, kept], rgrid.mu_weights, q) / _lp_norm(f[:, kept], rgrid.mu_weights, q)
        best = 0.0
        witness = "none"
        for j, ratio in zip(kept, ratios):
            if ratio > best:
                best = ratio
                witness = descs[j]
        estimates.append(OperatorNormEstimate(float(p), float(best), len(kept), int(seed), witness))
    return estimates


def mihlin_proxy_norm(g):
    """Mihlin proxy sup|g| + sup|lambda g'| on a dyadic grid of [1/40, 40].

    This is a surrogate for the (uncomputable) Euclidean multiplier norm.
    """
    lam, g0, gp, _ = dyadic_differences(g, 1.0 / _PROXY_LAM_MAX, _PROXY_LAM_MAX)
    return float(np.max(np.abs(g0)) + np.max(np.abs(lam * gp)))


def _omega_weighted(params, profile, decay_class, label) -> MultiplierSpec:
    """The multiplier m = profile / omega, so that omega m, whose boundary
    trace the probe takes, is the profile itself.  profile maps a complex
    lambda array to an array of its shape."""

    def evaluate(lam):
        lam = np.asarray(lam, dtype=complex)
        with np.errstate(under="ignore"):
            return profile(lam) / omega(params, lam)

    return MultiplierSpec(evaluate, decay_class, label)


def standard_multiplier_family(params) -> list:
    """The 5-member test family: omega^(-1) times strip-holomorphic profiles."""
    rho = params.rho
    return [
        _omega_weighted(params, lambda l: np.exp(-0.05 * l**2), "rapidly-decreasing", "gauss-wide"),
        _omega_weighted(params, lambda l: np.exp(-0.2 * l**2), "rapidly-decreasing", "gauss-narrow"),
        _omega_weighted(params, lambda l: np.exp(-0.1 * l**2) * np.cos(l) ** 2, "rapidly-decreasing", "gauss-modulated"),
        _omega_weighted(params, lambda l: (l**2 + 1.0) / (l**2 + 4.0 * rho**2), "bounded", "rational"),
        _omega_weighted(params, lambda l: np.exp(-0.02 * (l**2 + rho**2)), "rapidly-decreasing", "heat-like"),
    ]


def _leg(params, family, rows, p, grids, trials, seed):
    """Per row: its member's lower bound at p on grids and that over the row's
    proxy_norm, NaN for a flagged row.  The unflagged members are probed
    together, from one inverse transform (see _estimates)."""
    probed = [m for m, row in zip(family, rows) if not row["flags"]]
    estimates = iter(_estimates(params, probed, p, grids, trials, seed))
    out = []
    for row in rows:
        if row["flags"]:
            out.append((math.nan, math.nan))
            continue
        bound, proxy = next(estimates).lower_bound, row["proxy_norm"]
        out.append((bound, bound / proxy if proxy > 0 else math.inf))
    return out


def theorem_ratio_experiment(params, multiplier_family, p, grids, seed=0, trials=9):
    """Per member: ||T_m||_p lower bound on grids (from L^q norms, see
    _estimates), Mihlin proxy of the boundary trace of omega*m, and their ratio.

    A member that is not even, is unbounded on the strip (not finite on a
    strip lattice or on the real samples of its evenness defect), or has no
    boundary trace on the proxy's nodes (a JacobiLabError from the trace,
    such as a sample that is not finite) is flagged, gets NaN numbers and
    stays out of the verdict.  Every row's flags and proxy are formed first;
    the unflagged members are then probed together, from one inverse
    transform (see _estimates).
    """
    _check_exponent(p)
    _check_trials(trials, seed)
    lattice = np.linspace(-30.0, 30.0, 61)[:, None] + 1j * np.linspace(0.0, 0.95 * params.rho, 7)[None, :]
    rows = []
    for member in multiplier_family:

        def weighted_m(lam, member=member):
            lam = np.asarray(lam, dtype=complex)
            with np.errstate(under="ignore"):
                return omega(params, lam) * member(lam)

        with np.errstate(all="ignore"):
            # a pole on the lattice or on the real line is a finding (the flag), not a warning
            defect = member.evenness_defect()
            strip_sup = float(np.max(np.abs(weighted_m(lattice))))
        flags = ["not-even"] if defect > 1e-12 else []
        if not (np.isfinite(strip_sup) and np.isfinite(defect)):
            flags.append("unbounded-on-strip")
        proxy = math.nan
        if not flags:
            try:
                proxy = mihlin_proxy_norm(lambda lam: boundary_trace(weighted_m, params.rho, lam))
            except JacobiLabError:
                flags.append("no-boundary-trace")
        row = {
            "member": member.label,
            "p": p,
            "lower_bound": math.nan,
            "proxy_norm": proxy,
            "ratio": math.nan,
            "strip_sup": strip_sup,
            "flags": ",".join(flags),
        }
        rows.append(row)
    for row, (bound, ratio) in zip(rows, _leg(params, multiplier_family, rows, p, grids, trials, seed)):
        row["lower_bound"], row["ratio"] = bound, ratio
    valid = [r["ratio"] for r in rows if r["flags"] == "" and np.isfinite(r["ratio"])]
    return {"rows": rows, "verdict_max_ratio": max(valid) if valid else math.nan}


def probe_theorem(params, family, p, grids, seed=0, trials=9):
    """theorem_ratio_experiment on grids, checked on a refined pair.

    The refined pair is default_grids on the t_max and lam_max of grids, with
    int(1.25 n_r) radial and int(1.5 n_s) spectral panels for their n_r and
    n_s.  Each row gains ratio_fine (its ratio there) and drift = |ratio -
    ratio_fine| / |ratio|, both NaN for a flagged row.  Both legs measure at
    q = max(p, p/(p-1)), so p and p/(p-1) give the same rows but for p.  The
    result gains stable: every unflagged member has a finite ratio and
    ratio_fine, and a drift of at most 10 %.
    """
    res = theorem_ratio_experiment(params, family, p, grids, seed, trials)
    rows, (rgrid, sgrid) = res["rows"], grids
    fine = (
        RadialGrid.graded(params, rgrid.t_max, int((len(rgrid.breakpoints) - 1) * _REFINE[0])),
        SpectralGrid.build(params, sgrid.lam_max, int((len(sgrid.breakpoints) - 1) * _REFINE[1])),
    )
    for row, (_, ratio_fine) in zip(rows, _leg(params, family, rows, p, fine, trials, seed)):
        row["ratio_fine"] = ratio_fine
        row["drift"] = math.nan if row["flags"] else abs(row["ratio"] - ratio_fine) / max(abs(row["ratio"]), 1e-300)
    # a ratio that is not finite, on either pair, makes the drift inf or NaN
    res["stable"] = all(row["drift"] <= _DRIFT_MAX for row in rows if not row["flags"])
    return res
