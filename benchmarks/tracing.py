"""Per-layer tracing of mpmue from the benchmark's side of each call.

``Tracer.install`` replaces the package's public functions and methods with
timing wrappers wherever the package binds them: the module attribute of
every submodule that imported the function (``mpmue.process.gamma_lower_reg``,
``mpmue.verify.integrate``, ...) and the class attribute for methods.
Nothing inside ``src/`` changes; ``uninstall`` puts the originals back.

Every wrapped call is timed on one in-memory stack.  Coarse calls (the CLI
entry, the verify battery, quadrature, root finding, the fitters, the path
batch) also leave a span (id, name, start, end, parent id) that is kept in
memory and written out by ``write_spans``.  Scalar evaluators run hundreds
of thousands of times per op, so they are timed and counted without a span.

A call's self time is its duration minus the time its wrapped children
cover.  A layer's self time counts only the outermost call into the layer,
less the time of the calls it makes into other layers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = ("cli", "verify", "numerics", "distribution", "waiting", "process", "estimation", "rng")

# group -> (layer, keeps spans, targets).  A target is (module, function) or
# (module, class, method names), where None names every public method not
# claimed by an earlier group.  Public estimation functions not listed here
# fall into "estimation.other".
GROUPS = {
    "cli.main": ("cli", True, [("cli", "main")]),
    "verify.run_checks": ("verify", True, [("verify", "run_checks")]),
    "verify.run_ledger": ("verify", True, [("verify", "run_ledger")]),
    "verify.write_ledger": ("verify", True, [("verify", "write_ledger")]),
    "verify.ks": ("verify", True, [("verify", "ks_statistic")]),
    "numerics.gamma": (
        "numerics",
        False,
        [("numerics", n) for n in ("gamma_lower", "gamma_upper", "gamma_lower_reg", "gamma_upper_reg")],
    ),
    "numerics.quad": ("numerics", True, [("numerics", "integrate")]),
    "numerics.root": ("numerics", True, [("numerics", "find_root")]),
    "numerics.lsq": ("numerics", True, [("numerics", "least_squares")]),
    "numerics.minimize": ("numerics", True, [("numerics", "minimize")]),
    "distribution.cdf": ("distribution", False, [("distribution", "MaxUExp", ("cdf",))]),
    "distribution.pdf": ("distribution", False, [("distribution", "MaxUExp", ("pdf",))]),
    "distribution.tilted": ("distribution", False, [("distribution", "MaxUExp", ("tilted_moment",))]),
    "distribution.other": ("distribution", False, [("distribution", "MaxUExp", None)]),
    "waiting": (
        "waiting",
        False,
        [("waiting", "ExpMaxUExp", None), ("waiting", "ErlangMaxUExp", None)],
    ),
    "process.pmf": ("process", False, [("process", "MixedPoissonMaxUExp", ("pmf",))]),
    "process.truncation": ("process", True, [("process", "MixedPoissonMaxUExp", ("truncation_point",))]),
    "process.simulate": ("process", True, [("process", "MixedPoissonMaxUExp", ("simulate_paths",))]),
    "process.count_at": ("process", False, [("process", "ProcessPath", ("count_at",))]),
    "process.other": (
        "process",
        False,
        [
            ("process", "MixedPoissonMaxUExp", None),
            ("process", "PowerTransform", None),
            ("process", "TableTransform", None),
            ("process", "conditional_binomial_pmf"),
        ],
    ),
    "rng.uniform": ("rng", False, [("rng", "RandomStream", ("uniform",))]),
    "rng.uniforms": ("rng", False, [("rng", "RandomStream", ("uniforms",))]),
    "rng.other": ("rng", False, [("rng", "RandomStream", None)]),
    "estimation.validate": ("estimation", True, [("estimation", "validate_sample")]),
    "estimation.fit_auto": ("estimation", True, [("estimation", "fit_auto")]),
    "estimation.lsq_fit": ("estimation", True, [("estimation", "lsq_fit")]),
    "estimation.fit": (
        "estimation",
        True,
        [("estimation", n) for n in ("solve_mom", "histogram_init", "mom_curve_extrema")],
    ),
    "estimation.other": ("estimation", False, []),
}


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [group, layer, child time, child time in other layers]
        self.span_stack = []
        self.spans = []  # (id, name, start, end, parent id)
        self.next_span = 0
        self.active = {}  # group -> open calls, so nested same-group time counts once
        self.calls = {}
        self.time = {}  # group -> time of its outermost calls
        self.self_time = {}  # group -> time less wrapped children
        self.layer_self = {}
        self.counts = {}
        self.patches = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "time": dict(self.time),
            "self": dict(self.self_time),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
        }

    # -- timing -------------------------------------------------------------

    def _open_span(self) -> int:
        span_id = self.next_span
        self.next_span += 1
        self.span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id: int, name: str, t0: float, t1: float) -> None:
        self.span_stack.pop()
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append((span_id, name, t0, t1, parent))

    def wrap(self, fn, group: str, layer: str, span: bool):
        stack, clock = self.stack, time.perf_counter
        arg_hook, result_hook = ARG_HOOKS.get(group), RESULT_HOOKS.get(group)

        def traced(*args, **kwargs):
            span_id = self._open_span() if span else None
            frame = [group, layer, 0.0, 0.0]
            stack.append(frame)
            self.active[group] = self.active.get(group, 0) + 1
            if arg_hook is not None:
                args = arg_hook(self, args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._exit(frame, t1 - t0)
                if span:
                    self._close_span(span_id, group, t0, t1)
            if result_hook is not None:
                result_hook(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _exit(self, frame, d: float) -> None:
        group, layer, child_all, child_other = frame
        self.calls[group] = self.calls.get(group, 0) + 1
        self.active[group] -= 1
        if self.active[group] == 0:
            self.time[group] = self.time.get(group, 0.0) + d
        self.self_time[group] = self.self_time.get(group, 0.0) + d - child_all
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += d
        if parent is None or parent[1] != layer:
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + d - child_other
            if parent is not None:
                parent[3] += d
        else:
            parent[3] += child_other

    def run_span(self, name: str, fn, *args):
        """Call fn(*args) inside a span the benchmark opens itself (one per op)."""
        span_id = self._open_span()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close_span(span_id, name, t0, time.perf_counter())

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if not self.patches:
            self._plan()
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def _plan(self) -> None:
        mods = {name: importlib.import_module(f"mpmue.{name}") for name in MODULES}
        binders = [importlib.import_module("mpmue"), *mods.values()]
        done = set()

        def patch_function(original, name, group, layer, span):
            wrapper = self.wrap(original, group, layer, span)
            for binder in binders:
                if getattr(binder, name, None) is original:
                    self.patches.append((binder, name, original, wrapper))
            done.add(id(original))

        for group, (layer, span, targets) in GROUPS.items():
            for target in targets:
                if len(target) == 2:
                    mod_name, name = target
                    patch_function(getattr(mods[mod_name], name), name, group, layer, span)
                    continue
                mod_name, cls_name, names = target
                cls = getattr(mods[mod_name], cls_name)
                for name, original in list(vars(cls).items()):
                    if names is not None and name not in names:
                        continue
                    if name.startswith("_") or not inspect.isfunction(original):
                        continue
                    if id(original) in done:
                        continue
                    self.patches.append((cls, name, original, self.wrap(original, group, layer, span)))
                    done.add(id(original))
        est = mods["estimation"]
        for name, original in list(vars(est).items()):
            if name.startswith("_") or not inspect.isfunction(original):
                continue
            if original.__module__ == est.__name__ and id(original) not in done:
                patch_function(original, name, "estimation.other", "estimation", False)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)


# -- hooks: counts taken where the work happens ------------------------------------


def _count_ks_callbacks(tracer, args):
    values, cdf = args

    def counted(x):
        tracer.count("ks_cdf_calls")
        return cdf(x)

    return values, counted


def _count_residuals(tracer, args):
    residuals, *rest = args

    def counted(p):
        tracer.count("lsq_residual_evals")
        return residuals(p)

    return (counted, *rest)


def _count_batch(tracer, args):
    tracer.count("rng_batch_draws", int(args[1]))  # RandomStream.uniforms(self, count)
    return args


def _note_fallback(tracer, args):
    # fit_auto calls lsq_fit only for a ratio below the curve minimum.
    if len(tracer.stack) >= 2 and tracer.stack[-2][0] == "estimation.fit_auto":
        tracer.count("fallback_fits")
    return args


ARG_HOOKS = {
    "verify.ks": _count_ks_callbacks,
    "numerics.lsq": _count_residuals,
    "rng.uniforms": _count_batch,
    "estimation.lsq_fit": _note_fallback,
}


def _quad_result(tracer, result):
    tracer.count("quad_evals", int(result.evaluations))


def _paths_result(tracer, result):
    tracer.count("paths", len(result))
    tracer.count("events", sum(len(p.events) for p in result))


RESULT_HOOKS = {
    "numerics.quad": _quad_result,
    "process.simulate": _paths_result,
}


# -- per-layer metrics --------------------------------------------------------------

# name -> (unit, kind, key): kind is "calls", "time" (outermost calls of a
# group), "self" (a group less its wrapped children), "layer_self" or
# "counts".  Times are reported in ms, everything per timed op.
PER_OP = {
    "verify.run_checks_ms": ("ms", "time", "verify.run_checks"),
    "verify.run_ledger_ms": ("ms", "time", "verify.run_ledger"),
    "verify.ks_ms": ("ms", "time", "verify.ks"),
    "verify.ks_cdf_calls": ("count", "counts", "ks_cdf_calls"),
    "cli.self_ms": ("ms", "layer_self", "cli"),
    "numerics.gamma_calls": ("count", "calls", "numerics.gamma"),
    "numerics.gamma_ms": ("ms", "time", "numerics.gamma"),
    "numerics.quad_calls": ("count", "calls", "numerics.quad"),
    "numerics.quad_evals": ("count", "counts", "quad_evals"),
    "numerics.quad_ms": ("ms", "time", "numerics.quad"),
    "numerics.root_calls": ("count", "calls", "numerics.root"),
    "numerics.root_ms": ("ms", "time", "numerics.root"),
    "numerics.lsq_calls": ("count", "calls", "numerics.lsq"),
    "numerics.lsq_residual_evals": ("count", "counts", "lsq_residual_evals"),
    "numerics.lsq_ms": ("ms", "time", "numerics.lsq"),
    "distribution.cdf_calls": ("count", "calls", "distribution.cdf"),
    "distribution.pdf_calls": ("count", "calls", "distribution.pdf"),
    "distribution.self_ms": ("ms", "layer_self", "distribution"),
    "distribution.tilted_calls": ("count", "calls", "distribution.tilted"),
    "distribution.tilted_ms": ("ms", "time", "distribution.tilted"),
    "waiting.calls": ("count", "calls", "waiting"),
    "waiting.self_ms": ("ms", "layer_self", "waiting"),
    "process.pmf_calls": ("count", "calls", "process.pmf"),
    "process.pmf_self_ms": ("ms", "self", "process.pmf"),
    "process.truncation_ms": ("ms", "time", "process.truncation"),
    "process.paths": ("count", "counts", "paths"),
    "process.events": ("count", "counts", "events"),
    "process.simulate_ms": ("ms", "time", "process.simulate"),
    "process.count_at_ms": ("ms", "time", "process.count_at"),
    "rng.scalar_draws": ("count", "calls", "rng.uniform"),
    "rng.batch_draws": ("count", "counts", "rng_batch_draws"),
    "rng.self_ms": ("ms", "layer_self", "rng"),
    "estimation.validate_calls": ("count", "calls", "estimation.validate"),
    "estimation.validate_ms": ("ms", "time", "estimation.validate"),
    "estimation.self_ms": ("ms", "layer_self", "estimation"),
    "estimation.fallback_fits": ("count", "counts", "fallback_fits"),
}


def per_op_metrics(before: dict, after: dict, ops: int) -> dict:
    """Per-layer metrics per op between two snapshots that span ``ops`` traced ops."""
    out = {}
    for name, (unit, kind, key) in PER_OP.items():
        value = (after[kind].get(key, 0) - before[kind].get(key, 0)) / ops
        out[name] = {"value": value * 1000.0 if unit == "ms" else value, "unit": unit}
    # The moment-curve extrema are computed once per process and cached, so
    # the simplex search is a set-up cost: report it for the whole process.
    out["numerics.minimize_ms"] = {"value": 1000.0 * after["time"].get("numerics.minimize", 0.0), "unit": "ms"}
    return out
