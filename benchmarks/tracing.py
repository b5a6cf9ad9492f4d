"""Spans and work counters recorded from outside the library.

`Tracer.install()` wraps each traced function at every module binding
that refers to it: the modules import one another by name
(`from .core import phi_matrix` in transform), so patching only the defining
module would miss most calls.  Methods and classmethods are patched on their
class.  Spans (name, start, end, parent, op) stay in memory; `uninstall`
restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

# Traced functions: span name -> (module, attribute) of the definition.
FUNCTIONS = {
    "specfun.gamma_complex": ("specfun", "gamma_complex"),
    "specfun.hyp2f1": ("specfun", "hyp2f1"),
    "specfun.hyp2f1_real_arg": ("specfun", "hyp2f1_real_arg"),
    "specfun.bessel_script_J": ("specfun", "bessel_script_J"),
    "core.phi_matrix": ("core", "phi_matrix"),
    "core.gamma_coefficient_table": ("core", "gamma_coefficient_table"),
    "core.c_function": ("core", "c_function"),
    "core.plancherel_density": ("core", "plancherel_density"),
    "core.jacobi_phi": ("core", "jacobi_phi"),
    "transform.jacobi_transform": ("transform", "jacobi_transform"),
    "transform.inverse_transform": ("transform", "inverse_transform"),
    "transform.phi_matrix_for": ("transform", "phi_matrix_for"),
    "convolution.convolve": ("convolution", "convolve"),
    "convolution.kernel_values": ("convolution", "kernel_values"),
    "multiplier.boundary_trace": ("multiplier", "boundary_trace"),
    "multiplier.omega": ("multiplier", "omega"),
    "lab.estimate_operator_norm": ("lab", "estimate_operator_norm"),
    "lab.apply_multiplier_operator": ("lab", "apply_multiplier_operator"),
    "lab.mihlin_proxy_norm": ("lab", "mihlin_proxy_norm"),
    "lab.theorem_ratio_experiment": ("lab", "theorem_ratio_experiment"),
    "cli.main": ("cli", "main"),
}

# Traced methods: span name -> [(module, class, attribute)].  Both grid
# constructors report as one span name.
METHODS = {
    "transform.interpolate": [("transform", "_PanelGrid", "interpolate")],
    "transform.grid_build": [
        ("transform", "RadialGrid", "graded"),
        ("transform", "SpectralGrid", "build"),
    ],
}

# Per-layer metrics: name -> unit.  Every name is emitted by `layer_metrics`.
PER_LAYER = {
    "specfun.gamma_complex.calls": "count",
    "specfun.gamma_complex.self_s": "s",
    "specfun.hyp2f1.calls": "count",
    "specfun.hyp2f1.self_s": "s",
    "specfun.hyp2f1_real_arg.calls": "count",
    "specfun.hyp2f1_real_arg.self_s": "s",
    "specfun.hyp2f1_real_arg.elements": "count",
    "specfun.bessel_script_J.calls": "count",
    "specfun.bessel_script_J.self_s": "s",
    "specfun.oracle_digits": "digits",
    "core.phi_matrix.calls": "count",
    "core.phi_matrix.self_s": "s",
    "core.phi_matrix.cells": "count",
    "core.phi_matrix.oracle_digits": "digits",
    "core.gamma_coefficient_table.self_s": "s",
    "core.c_function.self_s": "s",
    "core.plancherel_density.self_s": "s",
    "core.jacobi_phi.calls": "count",
    "core.jacobi_phi.self_s": "s",
    "transform.jacobi_transform.calls": "count",
    "transform.jacobi_transform.self_s": "s",
    "transform.inverse_transform.calls": "count",
    "transform.inverse_transform.self_s": "s",
    "transform.matvec.flops_computed": "flop",
    "transform.matvec.bytes_computed": "B",
    "transform.phi_matrix_for.calls": "count",
    "transform.phi_cache.hit_ratio": "ratio",
    "transform.phi_cache.bytes_computed": "B",
    "transform.grid_build.self_s": "s",
    "transform.interpolate.calls": "count",
    "transform.interpolate.self_s": "s",
    "transform.interpolate.points": "count",
    "convolution.convolve.calls": "count",
    "convolution.convolve.busy_s": "s",
    "convolution.kernel_values.calls": "count",
    "convolution.kernel_values.self_s": "s",
    "convolution.kernel_values.points": "count",
    "convolution.kernel_values.support_ratio": "ratio",
    "multiplier.boundary_trace.calls": "count",
    "multiplier.boundary_trace.self_s": "s",
    "multiplier.omega.calls": "count",
    "multiplier.omega.self_s": "s",
    "lab.estimate_operator_norm.calls": "count",
    "lab.estimate_operator_norm.self_s": "s",
    "lab.apply_multiplier_operator.calls": "count",
    "lab.apply_multiplier_operator.self_s": "s",
    "lab.mihlin_proxy_norm.self_s": "s",
    "lab.theorem_ratio_experiment.self_s": "s",
    "lab.trials.useful_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}


def _bound(fn):
    """Bind call arguments to the parameter names of `fn`."""
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


class Tracer:
    """Records one span per traced call, plus counters derived from the
    call's arguments (labelled "computed": they count the work the arguments
    ask for, not work observed inside the library)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index]
        self.counters = {}
        self.op = -1  # -1 while setting up, then the op index
        self.captured_phi = None  # (params, t nodes, lambda nodes, matrix)
        self._stack = []
        self._restore = []

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every traced function at each binding in jacobilab's modules."""
        pkg = "jacobilab"
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == pkg or name.startswith(pkg + "."))
        ]
        hooks = self._hooks()
        for span, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
            wrapped = self._wrap(span, original, hooks.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)
        for span, targets in METHODS.items():
            for mod_name, cls_name, attr in targets:
                cls = getattr(sys.modules[f"{pkg}.{mod_name}"], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__, hooks.get(span)))
                else:
                    new = self._wrap(span, raw, hooks.get(span))
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook is not None:
                hook(args, kwargs, result, idx)
            return result

        return traced

    # -- computed counters ----------------------------------------------
    def _hooks(self):
        import jacobilab.convolution as conv_mod
        import jacobilab.core as core_mod
        import jacobilab.lab as lab_mod
        import jacobilab.specfun as specfun_mod
        import jacobilab.transform as transform_mod

        spans = self.spans
        bind_f = _bound(transform_mod.jacobi_transform)
        bind_i = _bound(transform_mod.inverse_transform)
        bind_est = _bound(lab_mod.estimate_operator_norm)
        bind_phi = _bound(core_mod.phi_matrix)
        bind_kv = _bound(conv_mod.kernel_values)
        bind_h = _bound(specfun_mod.hyp2f1_real_arg)

        def matvec(n_t, n_lam):
            # a real phi matrix times a complex vector is two real matvecs
            self.count("transform.matvec.flops_computed", 4 * n_t * n_lam)
            self.count("transform.matvec.bytes_computed", 8 * n_t * n_lam + 16 * (n_t + n_lam))

        def on_forward(args, kwargs, result, idx):
            a = bind_f(args, kwargs)
            matvec(a["f"].values.size, a["sgrid"].nodes.size)

        def on_inverse(args, kwargs, result, idx):
            a = bind_i(args, kwargs)
            matvec(a["rgrid"].nodes.size, a["g"].values.size)

        def on_phi(args, kwargs, result, idx):
            a = bind_phi(args, kwargs)
            n_t, n_lam = np.size(a["t_nodes"]), np.size(a["lam_nodes"])
            self.count("core.phi_matrix.cells", n_t * n_lam)
            parent = spans[idx][3]
            if parent >= 0 and spans[parent][0] == "transform.phi_matrix_for":
                self.count("phi_cache.misses", 1)
                self.count("transform.phi_cache.bytes_computed", 8 * n_t * n_lam)
            if self.captured_phi is None or n_t * n_lam > self.captured_phi[3].size:
                self.captured_phi = (
                    a["params"],
                    np.asarray(a["t_nodes"], dtype=float),
                    np.asarray(a["lam_nodes"], dtype=float),
                    result,
                )

        def on_kernel(args, kwargs, result, idx):
            a = bind_kv(args, kwargs)
            s, t, u = np.broadcast_arrays(
                np.asarray(a["s"], float), np.asarray(a["t"], float), np.asarray(a["u"], float)
            )
            inside = (u > np.abs(s - t)) & (u < s + t) & (s > 0) & (t > 0) & (u > 0)
            self.count("convolution.kernel_values.points", s.size)
            self.count("kernel_values.in_support", int(np.count_nonzero(inside)))

        def on_h2f1(args, kwargs, result, idx):
            a = bind_h(args, kwargs)
            shape = np.broadcast(np.asarray(a["a"]), np.asarray(a["b"]), np.asarray(a["w"])).shape
            self.count("specfun.hyp2f1_real_arg.elements", int(np.prod(shape)))

        def on_interp(args, kwargs, result, idx):
            z = args[2] if len(args) > 2 else kwargs["z"]
            self.count("transform.interpolate.points", int(np.size(z)))

        def on_estimate(args, kwargs, result, idx):
            a = bind_est(args, kwargs)
            self.count("trials.requested", int(a["trials"]))
            self.count("trials.yielded", int(result.trials))

        def on_cli(args, kwargs, result, idx):
            argv = [str(x) for x in (args[0] if args else kwargs.get("argv") or [])]
            out_dir = argv[argv.index("--output-dir") + 1] if "--output-dir" in argv else "."
            if "--output" in argv:
                path = os.path.join(out_dir, argv[argv.index("--output") + 1])
                for written in (path, path + ".manifest.json"):
                    if os.path.exists(written):
                        self.count("cli.bytes_written", os.path.getsize(written))

        return {
            "transform.jacobi_transform": on_forward,
            "transform.inverse_transform": on_inverse,
            "core.phi_matrix": on_phi,
            "convolution.kernel_values": on_kernel,
            "specfun.hyp2f1_real_arg": on_h2f1,
            "transform.interpolate": on_interp,
            "lab.estimate_operator_norm": on_estimate,
            "cli.main": on_cli,
        }

    # -- aggregation ------------------------------------------------------
    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, busy, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + (end - start), own + (end - start) - child[i])
        return out

    def layer_metrics(self):
        """Every per-layer metric except the oracle digits and the tracing
        overhead, which the caller measures."""
        totals = self.totals()
        c = self.counters
        out = {}
        for metric, unit in PER_LAYER.items():
            span, _, field = metric.rpartition(".")
            if field in ("calls", "busy_s", "self_s"):
                calls, busy, own = totals.get(span, (0, 0.0, 0.0))
                out[metric] = {"calls": calls, "busy_s": busy, "self_s": own}[field]
            elif unit not in ("ratio", "digits"):
                out[metric] = c.get(metric, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        lookups = totals.get("transform.phi_matrix_for", (0,))[0]
        out["transform.phi_cache.hit_ratio"] = ratio(lookups - c.get("phi_cache.misses", 0), lookups)
        out["convolution.kernel_values.support_ratio"] = ratio(
            c.get("kernel_values.in_support", 0), c.get("convolution.kernel_values.points", 0)
        )
        out["lab.trials.useful_ratio"] = ratio(c.get("trials.yielded", 0), c.get("trials.requested", 0))
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
