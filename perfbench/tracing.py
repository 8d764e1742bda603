"""Spans and work counts around circleforge's public functions.

The wrappers are installed from outside the package: each public function
is replaced by a recording wrapper in every circleforge module that binds
it (modules import names directly, e.g. ``from .hpnum import bessel_i1``,
so patching only the defining module would miss most calls).  Spans stay
in memory until the pass ends; then `layer_metrics` turns them into
per-layer calls, inclusive time and self time.

Self time is a span's duration minus the durations of its child spans.
The program is single-threaded, so children of one span never overlap and
there is no waiting time to record.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric prefix, module that defines the function, attribute name)
SPANNED = (
    ("hpnum.bessel_i1", "hpnum", "bessel_i1"),
    ("hpnum.quad_finite", "hpnum", "quad_finite"),
    ("hpnum.quad_decay", "hpnum", "quad_decay"),
    ("integrals.script_I", "integrals", "script_I"),
    ("integrals.mordell_I", "integrals", "mordell_I"),
    ("integrals.L_contour", "integrals", "L_contour"),
    ("integrals.J_gap", "integrals", "J_gap"),
    ("rademacher.p1bar_term", "rademacher", "p1bar_term"),
    ("rademacher.p_rademacher", "rademacher", "p_rademacher"),
    ("kloosterman.modified_K", "kloosterman", "modified_K"),
    ("kloosterman.rewritten_classical_form", "kloosterman", "rewritten_classical_form"),
    ("modular.multiplier_identity_check", "modular", "multiplier_identity_check"),
    ("qseries.named_series", "qseries", "named_series"),
    ("transform.check_law", "transform", "check_law"),
    ("transform.evaluate_series", "transform", "evaluate_series"),
    ("cli.main", "cli", "main"),
)

# methods traced as spans: (metric prefix, module, class, method)
SPANNED_METHODS = (
    ("kloosterman.SumValue.equals", "kloosterman", "SumValue", "equals"),
    ("kloosterman.SumValue.value", "kloosterman", "SumValue", "value"),
)

# lru-cached public functions whose calls and hit rate come from cache_info()
CACHED = (
    ("modular.omega", "modular", "omega"),
    ("modular.strengthened_inverse", "modular", "strengthened_inverse"),
    ("qseries.named_series", "qseries", "named_series"),
)

MODULES = ("hpnum", "integrals", "kloosterman", "modular", "qseries",
           "rademacher", "transform", "cli")


class Tracer:
    """Records spans (name, start, end, parent index, item id) and counters."""

    def __init__(self, package):
        self.mods = {name: getattr(package, name) for name in MODULES}
        self.spans = []
        self.stack = []
        self.item = None
        self.counts = {}
        self.prec_max = 0
        self.missing = []
        self._undo = []
        self._cache_start = {}

    def count(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, on_error=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if before is not None:
                args, kwargs = before(args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch_everywhere(self, original, replacement):
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        # read the caches before their functions are wrapped
        for metric, modname, attr in CACHED:
            fn = getattr(self.mods[modname], attr, None)
            if fn is None or not hasattr(fn, "cache_info"):
                self.missing.append(metric + ".cache_info")
                continue
            self._cache_start[metric] = (fn, fn.cache_info())
        hooks = self._hooks()
        for metric, modname, attr in SPANNED:
            original = getattr(self.mods[modname], attr, None)
            if original is None:
                self.missing.append(metric)
                continue
            wrapped = self._wrap(metric, original, **hooks.get(metric, {}))
            self._patch_everywhere(original, wrapped)
        for metric, modname, clsname, attr in SPANNED_METHODS:
            cls = getattr(self.mods[modname], clsname, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.missing.append(metric)
                continue
            setattr(cls, attr, self._wrap(metric, original))
            self._undo.append((cls, attr, original))
        series = getattr(self.mods["qseries"], "TruncatedSeries", None)
        if series is None:
            self.missing.append("qseries.series_mul")
        else:
            original_mul = series.__mul__

            def counted_mul(a, b):
                self.count("qseries.series_mul.calls")
                return original_mul(a, b)

            for attr in ("__mul__", "__rmul__"):
                self._undo.append((series, attr, vars(series)[attr]))
                setattr(series, attr, counted_mul)
        for name in self.missing:
            print(f"perfbench: {name} not found; its metrics read 0", file=sys.stderr)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _hooks(self):
        def count_integrand(args, kwargs):
            f = args[0]

            def counted(x):
                self.count("hpnum.quad_finite.integrand_evals")
                return f(x)

            return (counted,) + tuple(args[1:]), kwargs

        def quad_result(args, kwargs, result):
            self.count("hpnum.quad_finite.panels", result.subdivisions)
            if result.subdivisions == 1:
                self.count("hpnum.quad_finite.first_panel")

        def quad_error(exc):
            if type(exc).__name__ == "QuadratureError":
                self.count("hpnum.quad_finite.failures")

        def band_call(args, kwargs):
            # p1bar_term(d, k, n, tol, prec=None)
            self.count("rademacher.nu_attempted", args[1])
            prec = kwargs.get("prec", args[4] if len(args) > 4 else None)
            if prec is not None:
                self.prec_max = max(self.prec_max, int(prec))
            return args, kwargs

        def sum_result(args, kwargs, result):
            self.count("kloosterman.sums")
            self.count("kloosterman.terms", result.term_count)
            if result.exact:
                self.count("kloosterman.exact_sums")

        return {
            "hpnum.quad_finite": {"before": count_integrand, "after": quad_result,
                                  "on_error": quad_error},
            "rademacher.p1bar_term": {"before": band_call},
            "kloosterman.modified_K": {"after": sum_result},
            "kloosterman.rewritten_classical_form": {"after": sum_result},
        }

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of everything recorded since `install`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_s = {}, {}, {}
        nu_with_integral = 0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
            if name == "integrals.script_I" and parent >= 0 \
                    and spans[parent][0] == "rademacher.p1bar_term":
                nu_with_integral += 1
        out = {}
        for metric, *_ in SPANNED + SPANNED_METHODS:
            out[metric + ".calls"] = calls.get(metric, 0)
            out[metric + ".s"] = incl.get(metric, 0.0)
            out[metric + ".self_s"] = self_s.get(metric, 0.0)
        c = self.counts.get
        quad_calls = calls.get("hpnum.quad_finite", 0)
        out["hpnum.quad_finite.panels"] = c("hpnum.quad_finite.panels", 0)
        out["hpnum.quad_finite.integrand_evals"] = c("hpnum.quad_finite.integrand_evals", 0)
        out["hpnum.quad_finite.failures"] = c("hpnum.quad_finite.failures", 0)
        out["hpnum.quad_finite.first_panel_frac"] = _ratio(c("hpnum.quad_finite.first_panel", 0), quad_calls)
        out["rademacher.prec_bits.max"] = self.prec_max
        out["rademacher.nu_nonzero_frac"] = _ratio(nu_with_integral, c("rademacher.nu_attempted", 0))
        out["kloosterman.terms"] = c("kloosterman.terms", 0)
        out["kloosterman.exact_frac"] = _ratio(c("kloosterman.exact_sums", 0), c("kloosterman.sums", 0))
        out["qseries.series_mul.calls"] = c("qseries.series_mul.calls", 0)
        for metric, (fn, start) in self._cache_start.items():
            now = fn.cache_info()
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out[metric + ".calls"] = hits + misses
            out[metric + ".cache_hit_frac"] = _ratio(hits, hits + misses)
        for metric, *_ in CACHED:
            out.setdefault(metric + ".calls", 0)
            out.setdefault(metric + ".cache_hit_frac", 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, item]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
