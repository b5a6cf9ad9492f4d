"""Command-line surface: point evaluation, transform pipelines, diagnostic
reports, and the theorem probe, which formats what lab.probe_theorem decides.

Exit codes: 0 success, 2 schema/domain errors and failed writes, 3 decay-check
failures, 4 a probe that probe_theorem finds unstable.  Each subcommand
declares its handler and the flags its configuration hash reads, once, in
`build_parser`; `main` parses with one parser per process (`_parser`), and
`convolve` samples its inputs on the process's cached convolution grid pair,
so an in-process call after the first builds neither.  Every CSV goes through
`_emit`: a header line with that hash, ending in LF, then rows ending in CRLF
with each number as %.15g (a function's rows in one %-format, the others by
csv.writer), to stdout, or atomically to --output with `<name>.manifest.json`
beside it, so identical (config, seed) runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._util import loglog_slope
from .convolution import _convolution_grids, convolve, kernel_K
from .core import (
    JacobiParameters,
    c_asymptotics_report,
    c_function,
    gangolli_fit,
    jacobi_phi,
)
from .errors import DecayError, JacobiLabError
from .lab import _omega_weighted, probe_theorem, standard_multiplier_family
from .multiplier import omega, w_function
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


class _CliError(JacobiLabError):
    """A bad flag, input file or manifest: exit 2, as for the library's errors."""


# The flags besides the parameters that a command reads.  A config hash covers
# these and no other, so a flag a command ignores (the grid flags of convolve,
# which runs on convolution_grid; --lmax of hormander-w, whose window is fixed)
# cannot change its header.  A report's reads depend on its kind.
_GRID_FLAGS = ("t_max", "radial_panels", "lam_max", "spectral_panels")
_REPORT_READS = {"c-asymptotics": ("lmax",), "gangolli": ("kmax",), "expansion-errors": (), "hormander-w": ()}


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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir")

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate phi, c, omega, or kernel-K")
    p_eval.set_defaults(run=_cmd_eval)
    p_eval.add_argument("what", choices=["phi", "c", "omega", "kernel-K"])
    p_eval.add_argument("--lambda", dest="lam", type=float)
    p_eval.add_argument("--t", type=float)
    p_eval.add_argument("--s", type=float)
    p_eval.add_argument("--u", type=float)

    for name, run in (("transform", _cmd_transform), ("inverse", _cmd_inverse)):
        p = sub.add_parser(name)
        p.set_defaults(run=run, reads=_GRID_FLAGS)
        p.add_argument("--input", required=True)
        p.add_argument("--output", required=True)

    p_conv = sub.add_parser("convolve")
    p_conv.set_defaults(run=_cmd_convolve, reads=())
    p_conv.add_argument("--input-f", required=True)
    p_conv.add_argument("--input-g", required=True)
    p_conv.add_argument("--output", required=True)

    p_heat = sub.add_parser("heat")
    p_heat.set_defaults(run=_cmd_heat, reads=_GRID_FLAGS)
    p_heat.add_argument("--s", type=float, required=True)
    p_heat.add_argument("--output", required=True)

    p_rep = sub.add_parser("report")
    p_rep.set_defaults(run=_cmd_report)  # reads: _REPORT_READS of the kind
    p_rep.add_argument("kind", choices=list(_REPORT_READS))
    p_rep.add_argument("--lmax", type=float, default=400.0)
    p_rep.add_argument("--kmax", type=int, default=32)
    p_rep.add_argument("--output")

    p_probe = sub.add_parser("probe-theorem")
    p_probe.set_defaults(run=_cmd_probe, reads=_GRID_FLAGS + ("seed",))
    p_probe.add_argument("--family", help="JSON manifest; defaults to the standard family")
    p_probe.add_argument("--p", type=float, default=2.0)
    p_probe.add_argument("--trials", type=int, default=8)
    p_probe.add_argument("--output")

    return parser


@functools.cache
def _parser():
    """`build_parser()`, built once per process: parse_args leaves the parser
    as it was and returns a new namespace, so `main` can reuse it."""
    return build_parser()


def _make_params(args):
    if args.preset is not None:
        a, b, relaxed = _PRESETS[args.preset]
        return JacobiParameters(a, b, relaxed=relaxed)
    if args.alpha is None or args.beta is None:
        raise _CliError("either --preset or both --alpha and --beta are required")
    return JacobiParameters(args.alpha, args.beta, relaxed=args.relaxed)


def _config_hash(args, params):
    payload = {
        "alpha": params.alpha,
        "beta": params.beta,
        "relaxed": params.relaxed,
        "version": __version__,
        **{name: getattr(args, name) for name in args.reads},
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_pair(base, name, text, manifest):
    """Write text to base/name and manifest to base/name.manifest.json, or neither.

    Each file is written to a fresh temporary file beside it, created with
    mode 0o666 so that the umask applies, and renamed over its target.  On a
    failure every file this call made is removed, and an OSError becomes a
    _CliError naming the path that failed.
    """
    target = path = os.path.join(base, name)
    directory = os.path.dirname(os.path.abspath(path))
    made = []  # the files this call has created, temporary or renamed
    try:
        os.makedirs(base, exist_ok=True)
        for target, content in ((path, text), (path + ".manifest.json", manifest)):
            tmp = os.path.join(directory, f".jacobilab-{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            made.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(content)
            os.replace(tmp, target)
            made[-1] = target
    except BaseException as exc:
        for made_path in made:
            with contextlib.suppress(OSError):
                os.unlink(made_path)
        if isinstance(exc, OSError):
            raise _CliError(f"cannot write {target}: {exc}")
        raise


def _format(x):
    return f"{x:.15g}"


def _csv(header, rows):
    """header and rows as csv.writer writes them, each float as %.15g."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *([_format(v) if isinstance(v, float) else v for v in row] for row in rows)])
    return buf.getvalue()


def _emit(args, params, table, inputs):
    """The CSV text table under a config-hash line: atomically to --output,
    with <name>.manifest.json beside it (the hash, the version, the command
    and the command's own inputs), or to stdout without --output.  A failed
    write exits 2 and leaves neither file and no temporary file."""
    conf = _config_hash(args, params)
    text = f"# jacobilab {__version__} config-hash {conf}\n{table}"
    if not args.output:
        sys.stdout.write(text)
        return
    base = args.output_dir or os.environ.get("JACOBI_OUTPUT_DIR") or "."
    manifest = {"config_hash": conf, "version": __version__, "command": args.command, **inputs}
    _write_pair(base, args.output, text, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _read_samples(path, key, nodes):
    """The key,re,im samples of a CSV file, resampled onto nodes.

    Blank lines and lines that start with # are skipped, the header must read
    key,re,im (csv quoting and padding allowed), and columns past the third are
    ignored.  The innermost sample is held toward 0 (radial functions are
    even), and beyond the outermost one the values are 0 (decay).
    """
    try:
        with open(path, newline="") as fh:
            lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    if not lines:
        raise _CliError(f"empty input file {path}")
    if [f.strip() for f in next(csv.reader(lines[:1]))] != [key, "re", "im"]:
        raise _CliError(f"{path}: expected columns {key},re,im")
    if len(lines) == 1:
        raise _CliError(f"{path}: no data rows")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2, usecols=(0, 1, 2), quotechar='"', comments=None)
    except ValueError as exc:
        raise _CliError(f"{path}: bad data row: {exc}")
    order = np.argsort(data[:, 0])
    xs, vals = data[order, 0], (data[:, 1] + 1j * data[:, 2])[order]
    re = np.interp(nodes, xs, vals.real, left=vals[0].real, right=0.0)
    im = np.interp(nodes, xs, vals.imag, left=vals[0].imag, right=0.0)
    return re + 1j * im


def _grids(args, params):
    return default_grids(params, args.t_max, args.radial_panels, args.lam_max, args.spectral_panels)


def _write_function_csv(args, params, key, nodes, values, inputs):
    # one %-format over every number, which writes the bytes that _csv would
    flat = np.column_stack((nodes, values.real, values.imag)).ravel().tolist()
    _emit(args, params, f"{key},re,im\r\n" + ("%.15g,%.15g,%.15g\r\n" * len(nodes)) % tuple(flat), inputs)


def _cmd_eval(args, params):
    out = csv.writer(sys.stdout)
    if args.what == "phi":
        if args.lam is None or args.t is None:
            raise _CliError("eval phi needs --lambda and --t")
        v = jacobi_phi(params, args.lam, args.t)
        out.writerow(["phi", _format(args.lam), _format(args.t), _format(float(np.real(v)))])
    elif args.what in ("c", "omega"):
        if args.lam is None:
            raise _CliError(f"eval {args.what} needs --lambda")
        v = (c_function if args.what == "c" else omega)(params, complex(args.lam))
        out.writerow([args.what, _format(args.lam), _format(v.real), _format(v.imag)])
    else:
        if args.s is None or args.t is None or args.u is None:
            raise _CliError("eval kernel-K needs --s, --t and --u")
        k = kernel_K(params, args.s, args.t, args.u)
        out.writerow(["kernel-K", _format(args.s), _format(args.t), _format(args.u), _format(k.value)])
    return 0


# The looser gate of both transforms still rejects undecayed inputs but
# tolerates the quadrature noise floor of spectra produced by transform.
def _cmd_transform(args, params):
    rgrid, sgrid = _grids(args, params)
    f = SampledRadialFunction(rgrid, _read_samples(args.input, "t", rgrid.nodes))
    out = jacobi_transform(params, f, sgrid, decay_fraction=1e-6)
    _write_function_csv(args, params, "lambda", sgrid.nodes, out.values, {"input": args.input})
    return 0


def _cmd_inverse(args, params):
    rgrid, sgrid = _grids(args, params)
    g = SampledSpectralFunction(sgrid, _read_samples(args.input, "lambda", sgrid.nodes))
    out = inverse_transform(params, g, rgrid, decay_fraction=1e-6)
    _write_function_csv(args, params, "t", rgrid.nodes, out.values, {"input": args.input})
    return 0


def _cmd_convolve(args, params):
    grid = _convolution_grids(params)[0]
    f, g = (SampledRadialFunction(grid, _read_samples(path, "t", grid.nodes)) for path in (args.input_f, args.input_g))
    inputs = {"input_f": args.input_f, "input_g": args.input_g}
    _write_function_csv(args, params, "t", grid.nodes, convolve(params, f, g).values, inputs)
    return 0


def _cmd_heat(args, params):
    rgrid, sgrid = _grids(args, params)
    h = heat_kernel(params, args.s, rgrid, sgrid)
    _write_function_csv(args, params, "t", rgrid.nodes, h.values, {"s": args.s})
    return 0


def _cmd_report(args, params):
    args.reads = _REPORT_READS[args.kind]
    if args.kind == "c-asymptotics":
        if not 2.0 < args.lmax < math.inf:
            raise _CliError(f"--lmax must be a finite number above 2, not {args.lmax:g}")
        lams = [float(l) for l in np.geomspace(2.0, args.lmax, 24)]
        header = ["lambda", "d_ratio", "d_prime_scaled", "logderiv_scaled"]
        rows = [tuple(r[name] for name in header) for r in c_asymptotics_report(params, lams)]
    elif args.kind == "gangolli":
        lams = np.concatenate([np.linspace(0.5, 10.0, 12), np.linspace(12.0, 50.0, 8)])
        c_fit, d_fit = gangolli_fit(params, args.kmax, lams.astype(complex))
        header, rows = ["C", "d", "k_max"], [(c_fit, d_fit, float(args.kmax))]
    elif args.kind == "expansion-errors":
        from .core import bessel_local_expansion

        rows = []
        for lam in (0.5, 2.0, 8.0):
            for t in (0.05, 0.2, 0.8):
                val, resid = bessel_local_expansion(params, lam, t, M=2)
                rows.append((float(lam), float(t), float(val), float(resid)))
        header = ["lambda", "t", "value", "residual"]
    else:
        lams = np.geomspace(50.0, 400.0, 40)
        wvals = np.abs(w_function(params, lams))
        slope_w, _ = loglog_slope(lams, wvals)
        step = 1e-4 * lams
        wp = np.abs(
            (w_function(params, lams + step) - w_function(params, lams - step)) / (2 * step)
        )
        slope_wp, _ = loglog_slope(lams, wp)
        header = ["slope_w", "slope_wprime", "expected_w", "bound_wprime"]
        rows = [(float(slope_w), float(slope_wp), float(-params.alpha), -0.5)]
    _emit(args, params, _csv(header, rows), {"kind": args.kind, **{name: getattr(args, name) for name in args.reads}})
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
    if not isinstance(entry, dict):
        raise _CliError(f"manifest member {entry!r} is not an object")
    for field in ("label", "expression", "decay_class"):
        if field not in entry:
            raise _CliError(f"manifest member missing '{field}'")
    label, code_text = entry["label"], entry["expression"]
    if not (isinstance(label, str) and isinstance(code_text, str)):
        raise _CliError(f"manifest member {label!r}: label and expression must be strings")
    try:
        code = compile(code_text, "<manifest>", "eval")
    except SyntaxError as exc:
        raise _CliError(f"bad expression '{code_text}': {exc}")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in ("lam", "rho"):
            raise _CliError(f"expression uses disallowed name '{name}'")

    def profile(lam):
        try:
            value = np.asarray(eval(code, {"__builtins__": {}}, {"lam": lam, "rho": params.rho, **_EXPR_NAMES}))
            if value.dtype.kind not in "biufc":
                raise TypeError(f"its value is {value.dtype}, not numbers")
            return np.broadcast_to(value.astype(complex), lam.shape)
        except Exception as exc:
            raise _CliError(f"manifest member '{label}': expression '{code_text}' fails: {exc}")

    with np.errstate(all="ignore"):  # once on loading, on a few strip points, so most bad expressions fail here
        profile(np.array([0.5 + 0.25j, 2.0, 7.5 - 0.5j]))
    return _omega_weighted(params, profile, entry["decay_class"], label)


def _cmd_probe(args, params):
    if args.family:
        try:
            with open(args.family) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"bad manifest: {exc}")
        members = manifest.get("members") if isinstance(manifest, dict) else None
        if not isinstance(members, list) or not members:
            raise _CliError("manifest must be a JSON object with a non-empty 'members' list")
        family = [_member_from_manifest(e, params) for e in members]
        labels = [m.label for m in family]
        if len(set(labels)) < len(labels):
            raise _CliError(f"manifest member labels must be distinct, not {labels}")
    else:
        family = standard_multiplier_family(params)

    res = probe_theorem(params, family, args.p, _grids(args, params), args.seed, args.trials)
    rows = [
        ("probe", row["member"], row["p"], "", "", "", row["flags"])
        if row["flags"]
        else ("probe", row["member"], float(row["p"]), float(row["lower_bound"]), float(row["proxy_norm"]),
              float(row["ratio"]), f"drift={row['drift']:.3g}")
        for row in res["rows"]
    ]
    header = ["experiment", "member", "p", "lower_bound", "proxy_norm", "ratio", "flags"]
    _emit(args, params, _csv(header, rows), {"family": args.family, "p": args.p, "trials": args.trials})
    print(f"verdict: max ratio {res['verdict_max_ratio']:.6g} ({'stable' if res['stable'] else 'UNSTABLE'})")
    return 0 if res["stable"] else 4


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.run(args, _make_params(args))
    except DecayError as exc:
        print(f"decay check failed: {exc}", file=sys.stderr)
        return 3
    except JacobiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
