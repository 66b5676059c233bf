"""Per-layer tracing of lderiv from outside the program.

``Tracer.install`` wraps module attributes of lderiv.  Each wrapper goes on
the defining module and on every lderiv module that bound the same object
by ``from .x import name``, since such an import copies the binding.  A
wrapper records a span (name, start, end, parent) in memory, and some also
count work or inspect arguments.  ``metrics`` turns spans and counts into
the per-layer metrics named in BENCHMARK.json; ``write_spans`` writes the spans
out at the end of a run.

An attribute that a later version of lderiv no longer has is skipped, and
the metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

from stats import self_times

_ROUTES = {"lfunc.series": "series", "lfunc.hurwitz": "hurwitz", "lfunc.fe": "fe"}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.raised = []
        self.stack = []
        self.counts = Counter()
        self.min_f_over_err = math.inf
        self._patched = []  # (owner, attribute, original value)

    # -- spans --------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.raised.append(False)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx, raised):
        self.ends[idx] = time.perf_counter()
        self.raised[idx] = raised
        self.stack.pop()

    def clear(self):
        """Drop every span and count; call it with no span open."""
        for xs in (self.names, self.starts, self.ends, self.parents, self.raised):
            xs.clear()
        self.counts.clear()
        self.min_f_over_err = math.inf

    def active(self, name):
        return any(self.names[i] == name for i in self.stack)

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) may replace the
        arguments, after(args, result, raised) sees the outcome."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                if after is not None:
                    after(args, None, True)
                raise
            tracer._close(idx, False)
            if after is not None:
                after(args, result, False)
            return result

        return wrapper

    def counter(self, key, fn):
        """fn wrapped to count its calls only (for calls too small for a span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------

    def _patch(self, module, attr, make):
        """Replace module.attr, and every lderiv binding of the same object."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for modname, mod in list(sys.modules.items()):
            if modname != "lderiv" and not modname.startswith("lderiv."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def _patch_method(self, cls, attr, name):
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, property):
            new = property(self.wrap(name, raw.fget))
        else:
            new = self.wrap(name, raw)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, new)

    def install(self):
        import lderiv.characters as characters
        import lderiv.cli as cli
        import lderiv.lfunc as lfunc
        import lderiv.special as special
        import lderiv.verify as verify
        import lderiv.zeros as zeros

        span = lambda name, **kw: (lambda fn: self.wrap(name, fn, **kw))  # noqa: E731

        for attr in ("enumerate_primitive", "from_label", "kronecker_character", "gauss_sum"):
            self._patch(characters, attr, span("characters." + attr))
        for attr in ("conjugate", "values_array", "max_partial_sum"):
            self._patch_method(characters.DirichletCharacter, attr, "characters." + attr)

        def em_after(args, result, raised):
            self.counts["special.em_calls"] += 1
            self.counts["special.em_terms"] += int(args[2]) * len(args[1])

        def grid_after(args, result, raised):
            self.counts["special.grid_calls"] += 1
            self.counts["special.grid_terms"] += len(args[0]) * len(args[1]) * int(args[2])

        self._patch(special, "_hurwitz_core", span("special.hurwitz_core"))
        self._patch(special, "_choose_em_params", span("special.em_params"))
        self._patch(special, "_em_eval", span("special.em_eval", after=em_after))
        self._patch(special, "hurwitz_grid", span("special.hurwitz_grid"))
        self._patch(special, "_em_eval_grid", span("special.em_eval_grid", after=grid_after))
        self._patch(special, "_digamma", lambda fn: self.counter("special.digamma_calls", fn))
        self._patch(special, "log_gamma", lambda fn: self.counter("special.loggamma_calls", fn))

        def eval_before(args, kwargs):
            chi, s, deriv = args[0], complex(args[1]), args[2]
            route = args[3] if len(args) > 3 else kwargs.get("route", "auto")
            cache = getattr(lfunc, "_POINT_CACHE", None)
            if route == "auto" and cache is not None:
                hit = (chi.q, chi.label, s, deriv) in cache
                self.counts["lfunc.cache_hits" if hit else "lfunc.cache_misses"] += 1
            return args, kwargs

        def grid_points(args, result, raised):
            n = int(getattr(args[1], "size", len(args[1])))
            self.counts["lfunc.grid_points"] += n
            if self.active("zeros.grid_zero_scan"):
                self.counts["zeros.oracle_points"] += n

        self._patch(lfunc, "eval_L", span("lfunc.eval_L"))
        self._patch(lfunc, "eval_Lprime", span("lfunc.eval_Lprime"))
        self._patch(lfunc, "eval_L_point", span("lfunc.eval_L_point"))
        self._patch(lfunc, "_eval", span("lfunc._eval", before=eval_before))
        self._patch(lfunc, "_eval_series", span("lfunc.series"))
        self._patch(lfunc, "_eval_hurwitz", span("lfunc.hurwitz"))
        self._patch(lfunc, "_eval_fe", span("lfunc.fe"))
        self._patch(lfunc, "_grid_eval", span("lfunc.grid", after=grid_points))
        self._patch(lfunc, "logderiv_euler_product", span("lfunc.logderiv_euler_product"))

        def sample(f):
            def sampled(s):
                v = f(s)
                self.counts["zeros.walker_samples"] += 1
                if hasattr(v, "err"):
                    value, err = v.value, v.err
                else:  # the walker's own default bar for a bare complex
                    value = complex(v)
                    err = 1e-12 * (1.0 + abs(value))
                ratio = abs(value) / err if err > 0 else math.inf
                if ratio < self.min_f_over_err:
                    self.min_f_over_err = ratio
                return v
            return sampled

        def walker_before(args, kwargs):
            return (sample(args[0]),) + tuple(args[1:]), kwargs

        def newton_evals(f):
            def counted(s):
                self.counts["zeros.newton_evals"] += 1
                return f(s)
            return counted

        def newton_before(args, kwargs):
            self.counts["zeros.newton_calls"] += 1
            if self.active("zeros.grid_zero_scan"):
                self.counts["zeros.oracle_candidates"] += 1
            return (newton_evals(args[0]),) + tuple(args[1:]), kwargs

        def certify_after(args, result, raised):
            self.counts["zeros.certify_calls"] += 1
            if raised:
                self.counts["zeros.certify_growths"] += 5
            else:
                self.counts["zeros.certify_growths"] += round(math.log(result / args[2], 8))

        self._patch(zeros, "winding_count", span("zeros.winding_count"))
        self._patch(zeros, "arg_variation", span("zeros.arg_variation", before=walker_before))
        self._patch(zeros, "_newton", span("zeros.newton", before=newton_before))
        self._patch(zeros, "_certify_disk", span("zeros.certify_disk", after=certify_after))
        for attr in ("count_N1_detailed", "count_strip_detailed", "list_zeros",
                     "locate_trivial_zero", "critical_line_zeros", "grid_zero_scan",
                     "_subdivide", "_bisect_real_logderiv"):
            self._patch(zeros, attr, span("zeros." + attr))

        def region_points(args, result, raised):
            self.counts["verify.region_points"] += len(args[1])

        def listed(args, kwargs):
            return (args[0], list(args[1])) + tuple(args[2:]), kwargs

        for attr in ("check_region_negativity", "check_near_origin_strip",
                     "check_count_asymptotic", "check_distance_sum_asymptotic",
                     "check_speiser", "check_reference_constants"):
            self._patch(verify, attr, span("verify." + attr))
        self._patch(verify, "run_all", span("verify.run_all"))
        self._patch(verify, "_max_re_logderiv",
                    span("verify.max_re_logderiv", before=listed, after=region_points))

        self._patch(cli, "run", span("cli.run"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def metrics(self):
        spans = self.spans()
        selfs = self_times(spans)
        self_by_layer = Counter()
        calls = Counter()
        param_s = 0.0
        for (name, start, end, _), own in zip(spans, selfs):
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += own
            calls[name] += 1
            if name == "special.em_params":
                param_s += end - start
        em_self = sum(own for (name, *_), own in zip(spans, selfs)
                      if name in ("special.hurwitz_core", "special.em_eval"))
        grid_self = sum(own for (name, *_), own in zip(spans, selfs)
                        if name in ("special.hurwitz_grid", "special.em_eval_grid"))
        routes = Counter()
        last_route = {}
        for i, (name, _, _, parent) in enumerate(spans):
            if name in _ROUTES and parent >= 0 and spans[parent][0] == "lfunc._eval" \
                    and not self.raised[i]:
                last_route[parent] = _ROUTES[name]
        routes.update(last_route.values())
        windings = calls["zeros.winding_count"]
        c = self.counts
        out = {
            "characters.calls": sum(n for k, n in calls.items() if k.startswith("characters.")),
            "characters.self_s": self_by_layer["characters"],
            "special.em_calls": c["special.em_calls"],
            "special.em_self_s": em_self,
            "special.em_param_s": param_s,
            "special.em_terms": c["special.em_terms"],
            "special.grid_calls": c["special.grid_calls"],
            "special.grid_terms": c["special.grid_terms"],
            "special.grid_self_s": grid_self,
            "special.digamma_calls": c["special.digamma_calls"],
            "special.loggamma_calls": c["special.loggamma_calls"],
            "lfunc.L_calls": calls["lfunc.eval_L"],
            "lfunc.Lprime_calls": calls["lfunc.eval_Lprime"],
            "lfunc.route.series": routes["series"],
            "lfunc.route.hurwitz": routes["hurwitz"],
            "lfunc.route.fe": routes["fe"],
            "lfunc.cache_hits": c["lfunc.cache_hits"],
            "lfunc.cache_misses": c["lfunc.cache_misses"],
            "lfunc.self_s": self_by_layer["lfunc"],
            "lfunc.grid_points": c["lfunc.grid_points"],
            "zeros.winding_calls": windings,
            "zeros.walker_samples": c["zeros.walker_samples"],
            "zeros.samples_per_count": c["zeros.walker_samples"] / windings if windings else 0.0,
            "zeros.min_f_over_err": self.min_f_over_err if math.isfinite(self.min_f_over_err) else 0.0,
            "zeros.newton_calls": c["zeros.newton_calls"],
            "zeros.newton_evals": c["zeros.newton_evals"],
            "zeros.certify_calls": c["zeros.certify_calls"],
            "zeros.certify_growths": c["zeros.certify_growths"],
            "zeros.oracle_points": c["zeros.oracle_points"],
            "zeros.oracle_candidates": c["zeros.oracle_candidates"],
            "zeros.self_s": self_by_layer["zeros"],
            "verify.checks": sum(n for k, n in calls.items() if k.startswith("verify.check_")),
            "verify.region_points": c["verify.region_points"],
            "verify.self_s": self_by_layer["verify"],
            "cli.self_s": self_by_layer["cli"],
        }
        return out

    def write_spans(self, path):
        """Spans as tab-separated name, start, end, parent (one per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
