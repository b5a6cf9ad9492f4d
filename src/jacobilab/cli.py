"""Command-line surface: point evaluation, transform pipelines, diagnostic
reports, and the theorem probe.

Exit codes: 0 success, 2 schema/domain errors, 3 decay-check failures,
4 probe instability.  All files are written atomically and carry a header
with the configuration hash, so identical (config, seed) runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from ._util import loglog_slope
from .convolution import convolution_grid, convolve, kernel_K
from .core import (
    JacobiParameters,
    c_asymptotics_report,
    c_function,
    gangolli_fit,
    jacobi_phi,
)
from .errors import DecayError, JacobiLabError
from .lab import standard_multiplier_family, theorem_ratio_experiment
from .multiplier import MultiplierSpec, omega, w_function
from .transform import (
    SampledRadialFunction,
    SampledSpectralFunction,
    default_grids,
    heat_kernel,
    inverse_transform,
    jacobi_transform,
)

__all__ = ["main", "build_parser"]

_PRESETS = {
    "h3": (0.5, -0.5, True),
    "generic": (1.2, 0.3, False),
    "damek-ricci-like": (1.5, 0.5, False),
}


class _CliError(Exception):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def build_parser():
    parser = argparse.ArgumentParser(prog="jacobilab", allow_abbrev=False)
    parser.add_argument("--preset", choices=sorted(_PRESETS))
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--relaxed", action="store_true")
    parser.add_argument("--t-max", type=float, default=20.0)
    parser.add_argument("--radial-panels", type=int, default=400)
    parser.add_argument("--lam-max", type=float, default=50.0)
    parser.add_argument("--spectral-panels", type=int, default=300)
    parser.add_argument("--r0", type=float, default=1.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate phi, c, omega, or kernel-K")
    p_eval.add_argument("what", choices=["phi", "c", "omega", "kernel-K"])
    p_eval.add_argument("--lambda", dest="lam", type=float)
    p_eval.add_argument("--t", type=float)
    p_eval.add_argument("--s", type=float)
    p_eval.add_argument("--u", type=float)

    for name in ("transform", "inverse"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--output", required=True)

    p_conv = sub.add_parser("convolve")
    p_conv.add_argument("--input-f", required=True)
    p_conv.add_argument("--input-g", required=True)
    p_conv.add_argument("--output", required=True)

    p_heat = sub.add_parser("heat")
    p_heat.add_argument("--s", type=float, required=True)
    p_heat.add_argument("--output", required=True)

    p_rep = sub.add_parser("report")
    p_rep.add_argument(
        "kind",
        choices=["c-asymptotics", "gangolli", "expansion-errors", "hormander-w"],
    )
    p_rep.add_argument("--lmax", type=float, default=400.0)
    p_rep.add_argument("--kmax", type=int, default=32)
    p_rep.add_argument("--output")

    p_probe = sub.add_parser("probe-theorem")
    p_probe.add_argument("--family", help="JSON manifest; defaults to the standard family")
    p_probe.add_argument("--p", type=float, default=2.0)
    p_probe.add_argument("--trials", type=int, default=8)
    p_probe.add_argument("--output")

    return parser


def _make_params(args):
    if args.preset is not None:
        a, b, relaxed = _PRESETS[args.preset]
        return JacobiParameters(a, b, relaxed=relaxed)
    if args.alpha is None or args.beta is None:
        raise _CliError("either --preset or both --alpha and --beta are required", 2)
    return JacobiParameters(args.alpha, args.beta, relaxed=args.relaxed)


def _config_hash(args, params):
    payload = {
        "alpha": params.alpha,
        "beta": params.beta,
        "relaxed": params.relaxed,
        "t_max": args.t_max,
        "radial_panels": args.radial_panels,
        "lam_max": args.lam_max,
        "spectral_panels": args.spectral_panels,
        "r0": args.r0,
        "seed": args.seed,
        "version": __version__,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _output_path(args, name):
    base = args.output_dir or os.environ.get("JACOBI_OUTPUT_DIR") or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".jacobilab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format(x):
    return f"{x:.15g}"


def _csv_text(header_cols, rows, conf_hash):
    buf = io.StringIO()
    buf.write(f"# jacobilab {__version__} config-hash {conf_hash}\n")
    writer = csv.writer(buf)
    writer.writerow(header_cols)
    for row in rows:
        writer.writerow([_format(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _read_samples(path, key):
    try:
        with open(path, newline="") as fh:
            lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", 2)
    if not lines:
        raise _CliError(f"empty input file {path}", 2)
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != [key, "re", "im"]:
        raise _CliError(f"{path}: expected columns {key},re,im", 2)
    xs, vals = [], []
    for record in reader:
        try:
            xs.append(float(record[key]))
            vals.append(float(record["re"]) + 1j * float(record["im"]))
        except (TypeError, ValueError):
            raise _CliError(f"{path}: non-numeric row {record}", 2)
    if not xs:
        raise _CliError(f"{path}: no data rows", 2)
    return np.asarray(xs), np.asarray(vals)


def _resample(xs, vals, nodes):
    # hold the innermost sample toward 0 (radial functions are even); pad
    # with zeros beyond the outermost sample (decay)
    order = np.argsort(xs)
    xs, vals = xs[order], vals[order]
    re = np.interp(nodes, xs, vals.real, left=vals[0].real, right=0.0)
    im = np.interp(nodes, xs, vals.imag, left=vals[0].imag, right=0.0)
    return re + 1j * im


def _grids(args, params):
    return default_grids(params, args.t_max, args.radial_panels, args.lam_max, args.spectral_panels)


def _write_function_csv(args, params, path, key, nodes, values, manifest_extra):
    conf = _config_hash(args, params)
    rows = [(float(x), float(v.real), float(v.imag)) for x, v in zip(nodes, values)]
    _atomic_write(path, _csv_text([key, "re", "im"], rows, conf))
    manifest = {
        "config_hash": conf,
        "version": __version__,
        "command": args.command,
        **manifest_extra,
    }
    _atomic_write(path + ".manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _cmd_eval(args, params):
    out = csv.writer(sys.stdout)
    if args.what == "phi":
        if args.lam is None or args.t is None:
            raise _CliError("eval phi needs --lambda and --t", 2)
        v = jacobi_phi(params, args.lam, args.t)
        out.writerow(["phi", _format(args.lam), _format(args.t), _format(float(np.real(v)))])
    elif args.what == "c":
        if args.lam is None:
            raise _CliError("eval c needs --lambda", 2)
        v = c_function(params, complex(args.lam))
        out.writerow(["c", _format(args.lam), _format(v.real), _format(v.imag)])
    elif args.what == "omega":
        if args.lam is None:
            raise _CliError("eval omega needs --lambda", 2)
        v = omega(params, complex(args.lam))
        out.writerow(["omega", _format(args.lam), _format(v.real), _format(v.imag)])
    else:
        if args.s is None or args.t is None or args.u is None:
            raise _CliError("eval kernel-K needs --s, --t and --u", 2)
        k = kernel_K(params, args.s, args.t, args.u)
        out.writerow(
            ["kernel-K", _format(args.s), _format(args.t), _format(args.u), _format(k.value)]
        )
    return 0


def _cmd_transform(args, params, forward):
    rgrid, sgrid = _grids(args, params)
    # the looser gate still rejects undecayed inputs but tolerates the
    # quadrature noise floor of spectra produced by the forward command
    if forward:
        xs, vals = _read_samples(args.input, "t")
        f = SampledRadialFunction(rgrid, _resample(xs, vals, rgrid.nodes))
        out = jacobi_transform(params, f, sgrid, decay_fraction=1e-6)
        nodes, key = sgrid.nodes, "lambda"
    else:
        xs, vals = _read_samples(args.input, "lambda")
        g = SampledSpectralFunction(sgrid, _resample(xs, vals, sgrid.nodes))
        out = inverse_transform(params, g, rgrid, decay_fraction=1e-6)
        nodes, key = rgrid.nodes, "t"
    path = _output_path(args, args.output)
    _write_function_csv(args, params, path, key, nodes, out.values, {"input": args.input})
    return 0


def _cmd_convolve(args, params):
    grid = convolution_grid(params)
    xs_f, vals_f = _read_samples(args.input_f, "t")
    xs_g, vals_g = _read_samples(args.input_g, "t")
    f = SampledRadialFunction(grid, _resample(xs_f, vals_f, grid.nodes))
    g = SampledRadialFunction(grid, _resample(xs_g, vals_g, grid.nodes))
    result = convolve(params, f, g)
    path = _output_path(args, args.output)
    _write_function_csv(
        args, params, path, "t", grid.nodes, result.values,
        {"input_f": args.input_f, "input_g": args.input_g},
    )
    return 0


def _cmd_heat(args, params):
    rgrid, sgrid = _grids(args, params)
    h = heat_kernel(params, args.s, rgrid, sgrid)
    path = _output_path(args, args.output)
    _write_function_csv(args, params, path, "t", rgrid.nodes, h.values, {"s": args.s})
    return 0


def _cmd_report(args, params):
    conf = _config_hash(args, params)
    if args.kind == "c-asymptotics":
        lams = [float(l) for l in np.geomspace(2.0, args.lmax, 24)]
        rows = [
            (r["lambda"], r["d_ratio"], r["d_prime_scaled"], r["logderiv_scaled"])
            for r in c_asymptotics_report(params, lams)
        ]
        text = _csv_text(["lambda", "d_ratio", "d_prime_scaled", "logderiv_scaled"], rows, conf)
    elif args.kind == "gangolli":
        k_max = max(args.kmax, 16)
        lams = np.concatenate([np.linspace(0.5, 10.0, 12), np.linspace(12.0, 50.0, 8)])
        c_fit, d_fit = gangolli_fit(params, k_max, lams.astype(complex))
        text = _csv_text(["C", "d", "k_max"], [(float(c_fit), float(d_fit), float(k_max))], conf)
    elif args.kind == "expansion-errors":
        from .core import bessel_local_expansion

        rows = []
        for lam in (0.5, 2.0, 8.0):
            for t in (0.05, 0.2, 0.8):
                val, resid = bessel_local_expansion(params, lam, t, M=2)
                rows.append((float(lam), float(t), float(val), float(resid)))
        text = _csv_text(["lambda", "t", "value", "residual"], rows, conf)
    else:
        lams = np.geomspace(50.0, 400.0, 40)
        wvals = np.abs(w_function(params, lams))
        slope_w, _ = loglog_slope(lams, wvals)
        step = 1e-4 * lams
        wp = np.abs(
            (w_function(params, lams + step) - w_function(params, lams - step)) / (2 * step)
        )
        slope_wp, _ = loglog_slope(lams, wp)
        text = _csv_text(
            ["slope_w", "slope_wprime", "expected_w", "bound_wprime"],
            [(float(slope_w), float(slope_wp), float(-params.alpha), -0.5)],
            conf,
        )
    if args.output:
        _atomic_write(_output_path(args, args.output), text)
    else:
        sys.stdout.write(text)
    return 0


_EXPR_NAMES = {
    "exp": np.exp,
    "cos": np.cos,
    "sin": np.sin,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
    "pi": math.pi,
}


def _member_from_manifest(entry, params):
    for field in ("label", "expression", "decay_class"):
        if field not in entry:
            raise _CliError(f"manifest member missing '{field}'", 2)
    code_text = entry["expression"]
    try:
        code = compile(code_text, "<manifest>", "eval")
    except SyntaxError as exc:
        raise _CliError(f"bad expression '{code_text}': {exc}", 2)
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in ("lam", "rho"):
            raise _CliError(f"expression uses disallowed name '{name}'", 2)
    weighted = bool(entry.get("omega_weighted", True))

    def evaluate(lam, _code=code):
        lam = np.asarray(lam, dtype=complex)
        scope = {"lam": lam, "rho": params.rho, **_EXPR_NAMES}
        with np.errstate(under="ignore"):
            value = eval(_code, {"__builtins__": {}}, scope)
            value = np.broadcast_to(np.asarray(value, dtype=complex), lam.shape)
            if weighted:
                return value / omega(params, lam)
            return value + 0j

    return MultiplierSpec(
        evaluate, bool(entry.get("even", True)), entry["decay_class"], entry["label"]
    )


def _cmd_probe(args, params):
    if args.family:
        try:
            with open(args.family) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"bad manifest: {exc}", 2)
        members = manifest.get("members")
        if not isinstance(members, list) or not members:
            raise _CliError("manifest must contain a non-empty 'members' list", 2)
        family = [_member_from_manifest(e, params) for e in members]
    else:
        family = standard_multiplier_family(params)

    coarse = _grids(args, params)
    fine = default_grids(
        params, args.t_max, int(args.radial_panels * 1.25), args.lam_max, int(args.spectral_panels * 1.5)
    )
    res = theorem_ratio_experiment(
        params, family, args.p, seed=args.seed, grids=coarse, trials=args.trials
    )
    res_fine = theorem_ratio_experiment(
        params, family, args.p, seed=args.seed, grids=fine, trials=args.trials
    )

    conf = _config_hash(args, params)
    rows = []
    stable = True
    for row, row_fine in zip(res["rows"], res_fine["rows"]):
        if row["flags"]:
            rows.append(("probe", row["member"], row["p"], "", "", "", row["flags"]))
            continue
        drift = abs(row["ratio"] - row_fine["ratio"]) / max(abs(row["ratio"]), 1e-300)
        finite = np.isfinite(row["ratio"]) and np.isfinite(row_fine["ratio"])
        if not finite or drift > 0.10:
            stable = False
        rows.append(
            (
                "probe",
                row["member"],
                float(row["p"]),
                float(row["lower_bound"]),
                float(row["proxy_norm"]),
                float(row["ratio"]),
                f"drift={drift:.3g}",
            )
        )
    text = _csv_text(
        ["experiment", "member", "p", "lower_bound", "proxy_norm", "ratio", "flags"],
        rows,
        conf,
    )
    if args.output:
        _atomic_write(_output_path(args, args.output), text)
    else:
        sys.stdout.write(text)
    verdict = res["verdict_max_ratio"]
    print(f"verdict: max ratio {verdict:.6g} ({'stable' if stable else 'UNSTABLE'})")
    if abs(args.p - 2.0) > 1e-12:
        # duality spot check against the conjugate exponent; reported only
        p_dual = args.p / (args.p - 1.0)
        res_dual = theorem_ratio_experiment(
            params, family, p_dual, seed=args.seed, grids=coarse, trials=args.trials
        )
        for row, row_d in zip(res["rows"], res_dual["rows"]):
            if row["flags"] or row_d["flags"]:
                continue
            quot = row["ratio"] / row_d["ratio"] if row_d["ratio"] else math.inf
            within = 0.5 <= quot <= 2.0
            print(
                f"duality: {row['member']} ratio(p={args.p:g})/ratio(p'={p_dual:g}) "
                f"= {quot:.4g} ({'within x2' if within else 'outside x2'})"
            )
    return 0 if stable else 4


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _make_params(args)
        if args.command == "eval":
            return _cmd_eval(args, params)
        if args.command == "transform":
            return _cmd_transform(args, params, forward=True)
        if args.command == "inverse":
            return _cmd_transform(args, params, forward=False)
        if args.command == "convolve":
            return _cmd_convolve(args, params)
        if args.command == "heat":
            return _cmd_heat(args, params)
        if args.command == "report":
            return _cmd_report(args, params)
        if args.command == "probe-theorem":
            return _cmd_probe(args, params)
        raise _CliError(f"unknown command {args.command}", 2)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except DecayError as exc:
        print(f"decay check failed: {exc}", file=sys.stderr)
        return 3
    except JacobiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
