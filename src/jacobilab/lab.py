"""Empirical multiplier laboratory: operator-norm probes, the Mihlin proxy,
heat-regularization ladders, and the theorem ratio experiment.

Operator norms are estimated from below by maximizing ||T_m f||_p / ||f||_p
over a deterministic, seeded family of trial functions.  The trials are
spectra S and (T_m f)^ = m f^, so f and T_m f of every trial come from one
inverse transform of the block [S | m S], with no forward transform.  The
Euclidean multiplier norm of a boundary trace is replaced by the Mihlin
proxy sup|g| + sup|lambda g'|, an upper-bound surrogate labeled as such in
every output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import dyadic_differences
from .errors import DomainError, JacobiLabError, ParameterError
from .multiplier import (
    MultiplierSpec,
    boundary_trace,
    heat_regularize,
    omega,
)
from .transform import (
    SampledRadialFunction,
    SampledSpectralFunction,
    SpectralGrid,
    default_grids,
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
    "heat_ladder",
    "theorem_ratio_experiment",
    "standard_multiplier_family",
]


@dataclass(frozen=True)
class OperatorNormEstimate:
    p: float
    lower_bound: float
    trials: int
    seed: int
    witness: str

    def __post_init__(self):
        if not 1.0 < self.p:
            raise ParameterError("p must lie in (1, inf)")


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


def _trial_functions(params, m, rgrid, sgrid, trials, seed):
    """Deterministic trial family as spectra, one column per trial, with a
    description of each, all spectral profiles: a bump targeted at the peak
    of |m|, bump superpositions, heat kernels translated to a radial node,
    and bumps modulated by cos(0.1 lambda + theta)."""
    rng = np.random.default_rng(seed)
    lam = sgrid.nodes
    with np.errstate(under="ignore"):
        peak = float(lam[np.argmax(np.abs(m(lam)))])
    phi = phi_matrix_for(params, rgrid, sgrid)
    spectra = np.empty((len(lam), trials))
    descs = []
    for i in range(trials):
        kind = i % 4
        if kind == 0:
            # concentrate where |m| peaks; at p=2 this almost saturates sup|m|
            width = 0.4 if i < 4 else float(rng.uniform(0.3, 1.0))
            prof = np.exp(-((lam - peak) ** 2) / width**2)
            desc = f"targeted bump at {peak:.2f} (width {width:.2f})"
        elif kind == 1:
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
    return spectra, descs


def estimate_operator_norm(params, m: MultiplierSpec, p, trials=12, seed=0, grids=None) -> OperatorNormEstimate:
    """Lower bound on ||T_m||_{L^p -> L^p} over the seeded trial family.

    Each trial is a spectrum S; f and T_m f are the inverse transforms of S
    and m S, from one real block [S | Re mS | Im mS].  Trials whose radial
    L^2 norm is zero or not finite are dropped, the rest are gated for decay,
    and the witness is the first trial, in trial order, with the largest ratio.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    rgrid, sgrid = default_grids(params) if grids is None else grids
    spectra, descs = _trial_functions(params, m, rgrid, sgrid, trials, seed)
    mhat = m(sgrid.nodes)[:, None] * spectra
    block = [spectra, mhat.real] + ([mhat.imag] if np.any(np.imag(mhat)) else [])
    # the spectra are exact by construction; only the radial trials are gated
    out = inverse_transform(params, SampledSpectralFunction(sgrid, np.hstack(block)), rgrid, decay_fraction=None).values
    norms = _lp_norm(out[:, :trials], rgrid.mu_weights, 2)
    kept = np.flatnonzero((norms != 0.0) & np.isfinite(norms))
    _check_decay(out[:, kept], _tail_count(rgrid), "radial function")
    tf = out[:, trials + kept] + (1j * out[:, 2 * trials + kept] if len(block) == 3 else 0.0)
    ratios = _lp_norm(tf, rgrid.mu_weights, p) / _lp_norm(out[:, kept], rgrid.mu_weights, p)
    best = 0.0
    witness = "none"
    for j, ratio in zip(kept, ratios):
        if ratio > best:
            best = ratio
            witness = descs[j]
    return OperatorNormEstimate(float(p), float(best), len(kept), int(seed), witness)


def mihlin_proxy_norm(g, lam_max=50.0, points_per_octave=16, fd_step=1e-5):
    """Mihlin proxy sup|g| + sup|lambda g'| on a dyadic grid of [1/lam_max, lam_max].

    This is a surrogate for the (uncomputable) Euclidean multiplier norm.
    """
    if lam_max <= 1.0:
        raise DomainError("mihlin_proxy_norm requires lam_max > 1")
    lam, g0, gp, _ = dyadic_differences(g, 1.0 / lam_max, lam_max, points_per_octave, fd_step)
    return float(np.max(np.abs(g0)) + np.max(np.abs(lam * gp)))


def heat_ladder(params, m: MultiplierSpec, p, s_values=(0.1, 0.05, 0.025), trials=9, seed=0, grids=None):
    """Operator-norm estimates of the heat-regularized m_s down the s-ladder.

    Returns the per-s estimates plus a log-linear extrapolation to s = 0.
    """
    if any(b >= a for a, b in zip(s_values, s_values[1:])):
        raise ParameterError("s ladder must be strictly decreasing")
    estimates = []
    for s in s_values:
        ms = heat_regularize(m, s, params)
        est = estimate_operator_norm(params, ms, p, trials=trials, seed=seed, grids=grids)
        estimates.append(est.lower_bound)
    xs = np.asarray(s_values, dtype=float)
    ys = np.log(np.maximum(np.asarray(estimates), 1e-300))
    slope, intercept = np.polyfit(xs, ys, 1)
    return {
        "s_values": tuple(s_values),
        "estimates": tuple(estimates),
        "extrapolated": float(math.exp(intercept)),
    }


def standard_multiplier_family(params) -> list:
    """The 5-member test family: omega^(-1) times strip-holomorphic profiles."""
    rho = params.rho

    def weighted(profile, label, decay):
        def evaluate(lam):
            lam = np.asarray(lam, dtype=complex)
            with np.errstate(under="ignore"):
                return profile(lam) / omega(params, lam)

        return MultiplierSpec(evaluate, True, decay, label)

    return [
        weighted(lambda l: np.exp(-0.05 * l**2), "gauss-wide", "rapidly-decreasing"),
        weighted(lambda l: np.exp(-0.2 * l**2), "gauss-narrow", "rapidly-decreasing"),
        weighted(
            lambda l: np.exp(-0.1 * l**2) * np.cos(l) ** 2,
            "gauss-modulated",
            "rapidly-decreasing",
        ),
        weighted(
            lambda l: (l**2 + 1.0) / (l**2 + 4.0 * rho**2),
            "rational",
            "bounded",
        ),
        weighted(
            lambda l: np.exp(-0.02 * (l**2 + rho**2)),
            "heat-like",
            "rapidly-decreasing",
        ),
    ]


def theorem_ratio_experiment(params, multiplier_family, p, seed=0, grids=None, trials=9):
    """Per member: ||T_m|| lower bound, Mihlin proxy of the boundary trace of
    omega*m, and their ratio.  Members failing the hypotheses are flagged and
    excluded from the verdict."""
    rows = []
    trace_nodes = np.linspace(0.05, 40.0, 120)
    for member in multiplier_family:
        flags = []
        if member.evenness_defect() > 1e-12:
            flags.append("not-even")

        def weighted_m(lam, member=member):
            lam = np.asarray(lam, dtype=complex)
            with np.errstate(under="ignore"):
                return omega(params, lam) * member(lam)

        strip_x = np.linspace(-30.0, 30.0, 61)
        strip_y = np.linspace(0.0, 0.95 * params.rho, 7)
        lattice = strip_x[:, None] + 1j * strip_y[None, :]
        with np.errstate(under="ignore"):
            strip_sup = float(np.max(np.abs(weighted_m(lattice))))
        if not np.isfinite(strip_sup):
            flags.append("unbounded-on-strip")

        trace = None
        if not flags:
            try:
                trace = boundary_trace(weighted_m, params.rho, trace_nodes)
            except JacobiLabError:
                flags.append("no-boundary-trace")

        if flags:
            rows.append(
                {
                    "member": member.label,
                    "p": p,
                    "lower_bound": math.nan,
                    "proxy_norm": math.nan,
                    "ratio": math.nan,
                    "strip_sup": strip_sup,
                    "flags": ",".join(flags),
                }
            )
            continue

        est = estimate_operator_norm(params, member, p, trials=trials, seed=seed, grids=grids)

        def trace_fn(lam):
            lam = np.asarray(lam, dtype=float)
            return boundary_trace(weighted_m, params.rho, lam).samples

        proxy = mihlin_proxy_norm(trace_fn, lam_max=40.0)
        rows.append(
            {
                "member": member.label,
                "p": p,
                "lower_bound": est.lower_bound,
                "proxy_norm": proxy,
                "ratio": est.lower_bound / proxy if proxy > 0 else math.inf,
                "strip_sup": strip_sup,
                "flags": "",
            }
        )
    valid = [r["ratio"] for r in rows if r["flags"] == "" and np.isfinite(r["ratio"])]
    return {"rows": rows, "verdict_max_ratio": max(valid) if valid else math.nan}
