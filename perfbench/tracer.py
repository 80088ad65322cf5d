"""Span tracer that wraps wienerlab's public functions from outside the package.

Inside `with Tracer(wienerlab).active():` every binding of the wrapped
functions in the wienerlab modules (including names imported with
`from .x import y`) and the wrapped methods on their classes are replaced by
recording wrappers; they are restored when the block ends.  Each call becomes
a span with a name, a layer, a start, an end and the span that caused it:

* spans of the coarse layers (cli, diagnostics, counterexamples, wiener) and
  the outermost quadrature spans are kept in memory and written out at the
  end of the run;
* the fine layers (integrand evaluation, scalar functional methods, slog
  helpers, polynomial evaluation) run tens of thousands of times per report,
  so they are only aggregated per layer: calls, the calls that enter the
  layer from outside with their inclusive time, and self time.

A span's self time is its duration minus the durations of its direct child
spans; 0 <= self time <= duration holds when children nest inside parents.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np

KEPT_LAYERS = {"cli", "diagnostics", "counterexamples", "wiener"}

# (module, attribute, layer): the functions whose calls become spans
FUNCTIONS = [
    ("quadrature", "gaussian_expectation", "quadrature"),
    ("quadrature", "integrate_semi_infinite", "quadrature"),
    ("quadrature", "integrate_singular_origin", "quadrature"),
    ("quadrature", "integrate_adaptive", "quadrature"),
    ("diagnostics", "membership_report", "diagnostics"),
    ("diagnostics", "sobolev_seminorm", "diagnostics"),
    ("diagnostics", "lq_diffquot_norm", "diagnostics"),
    ("diagnostics", "ssgd_test", "diagnostics"),
    ("diagnostics", "dvp_uniform_integrability_test", "diagnostics"),
    ("diagnostics", "cameron_martin_check", "diagnostics"),
    ("diagnostics", "report_evidence_rows", "diagnostics"),
    ("diagnostics", "rows_to_csv", "diagnostics"),
    ("diagnostics", "report_to_markdown", "diagnostics"),
    ("counterexamples", "catalog_build", "counterexamples"),
    ("counterexamples", "validate_eta_mu", "counterexamples"),
    ("functionals", "difference_quotient_slog", "functionals"),
    ("slog", "slog_of", "slog"),
    ("slog", "slog_exp", "slog"),
    ("slog", "slog_add", "slog"),
    ("slog", "slog_sub", "slog"),
    ("slog", "slog_abs_pow", "slog"),
    ("wiener", "sample_increments", "wiener"),
    ("wiener", "wiener_integral_batch", "wiener"),
    ("wiener", "girsanov_log_weight_batch", "wiener"),
]

# (module, class, method, layer)
METHODS = [("functionals", "ScalarFunctional", m, "functionals")
           for m in ("value", "deriv", "log_abs", "value_sign", "log_abs_deriv",
                     "deriv_sign", "slog_value_at_logx", "slog_deriv_at_logx")]
METHODS.append(("functionals", "Polynomial", "__call__", "poly"))

MODULES = ("cli", "counterexamples", "diagnostics", "functionals", "quadrature",
           "slog", "wiener")

# per-layer record: calls, outer calls, outer inclusive s, self s, open spans
CALLS, OUTER_CALLS, OUTER_S, SELF_S, DEPTH = range(5)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stack = []          # open frames: [name, kept span id or None, start, child s]
        self.spans = []          # kept spans: (id, parent id, name, start, end)
        self.layers = defaultdict(lambda: [0, 0, 0.0, 0.0, 0])
        self.counts = defaultdict(float)
        self.min_self_s = 0.0    # smallest self time seen; < 0 would mean bad nesting
        self._undo = []

    def wrap(self, name: str, layer: str, fn, hook=None):
        """fn with every call recorded as a span of `layer`; hook sees the result."""
        stack, rec, perf = self.stack, self.layers[layer], time.perf_counter
        keep_all = layer in KEPT_LAYERS
        keep_outer = layer == "quadrature"
        tracer = self

        def wrapper(*args, **kwargs):
            outer = rec[DEPTH] == 0
            rec[DEPTH] += 1
            kept = keep_all or (keep_outer and outer)
            frame = [name, len(tracer.spans) if kept else None, 0.0, 0.0]
            if kept:
                tracer.spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            frame[2] = start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s = dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                rec[DEPTH] -= 1
                rec[CALLS] += 1
                rec[SELF_S] += self_s
                if outer:
                    rec[OUTER_CALLS] += 1
                    rec[OUTER_S] += dur
                if self_s < tracer.min_self_s:
                    tracer.min_self_s = self_s
                if kept:
                    tracer._keep(frame, end)
            if hook is not None:
                hook(tracer, outer, dur, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__traced__ = True
        return wrapper

    def _keep(self, frame, end) -> None:
        name, span_id, start, _ = frame
        parent = next((f for f in reversed(self.stack) if f[1] is not None), None)
        self.spans[span_id] = (span_id, parent and parent[1], name, start, end)

    def span(self, name: str, layer: str, fn, *args):
        """fn(*args) recorded as a span of `layer`."""
        return self.wrap(name, layer, fn)(*args)

    @contextlib.contextmanager
    def active(self):
        """The wrappers are installed for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        pkg = self.package.__name__
        namespaces = [self.package.__dict__] + [
            importlib.import_module(f"{pkg}.{m}").__dict__ for m in MODULES]
        for mod_name, attr, layer in FUNCTIONS:
            original = getattr(importlib.import_module(f"{pkg}.{mod_name}"), attr)
            wrapped = self.wrap(attr, layer, original, _HOOKS.get(attr))
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._undo.append((ns, key, original))
                        ns[key] = wrapped
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(importlib.import_module(f"{pkg}.{mod_name}"), cls_name)
            original = cls.__dict__[meth]
            hook = None if cls_name == "Polynomial" else _count_points
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{cls_name}.{meth}", layer, original, hook))
        # every Integrand built inside the block evaluates within an "integrand" span
        integrand_cls = importlib.import_module(f"{pkg}.quadrature").Integrand
        original_init = integrand_cls.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            for field in ("log_eval", "neglog_eval"):
                fn = getattr(obj, field)
                if fn is not None and not getattr(fn, "__traced__", False):
                    object.__setattr__(obj, field,
                                       tracer.wrap(field, "integrand", fn, _integrand_hook))

        self._undo.append((integrand_cls, "__init__", original_init))
        integrand_cls.__init__ = init

    def _uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def stage_s(self, *names, parents=None) -> float:
        """Inclusive time of the kept spans with one of `names`.

        A span counts when its parent is named in `parents`, or, by default,
        when its parent is not itself one of `names`, so nested calls count once.
        """
        total = 0.0
        for _, parent_id, name, start, end in self.spans:
            if name in names:
                parent = None if parent_id is None else self.spans[parent_id][2]
                if parent in parents if parents is not None else parent not in names:
                    total += end - start
        return total

    def write(self, path) -> None:
        """One JSON line per kept span, then one line of layer totals and counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")
            layers = {k: dict(zip(("calls", "outer_calls", "outer_s", "self_s"), v))
                      for k, v in self.layers.items()}
            fh.write(json.dumps({"layers": layers, "counts": dict(self.counts)}) + "\n")


# -- hooks: counts taken where the work happens --------------------------------

def _quadrature_hook(tracer, outer, dur, args, result):
    if outer:
        tracer.counts["quadrature.verdicts"] += 1
        tracer.counts["quadrature.points"] += result.n_evals
        tracer.counts[f"quadrature.{result.status}"] += 1


def _count_points(tracer, outer, dur, args, result):
    tracer.counts["functionals.points"] += np.size(args[1])


def _integrand_hook(tracer, outer, dur, args, result):
    if outer and tracer.layers["quadrature"][DEPTH] > 0:
        tracer.counts["integrand.s_in_quadrature"] += dur


def _rows_hook(tracer, outer, dur, args, result):
    tracer.counts["diagnostics.rows"] += len(result)


def _sample_hook(tracer, outer, dur, args, result):
    tracer.counts["wiener.paths"] += int(args[1])
    tracer.counts["wiener.increments_mb"] += result.nbytes / 2.0 ** 20


_HOOKS = {
    "gaussian_expectation": _quadrature_hook,
    "integrate_semi_infinite": _quadrature_hook,
    "integrate_singular_origin": _quadrature_hook,
    "integrate_adaptive": _quadrature_hook,
    "difference_quotient_slog": _count_points,
    "report_evidence_rows": _rows_hook,
    "sample_increments": _sample_hook,
}
