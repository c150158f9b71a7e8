"""Spans and counts around calls into the pseudoplateau layers.

The tracer patches public functions of the package from outside (the
package itself is not changed) and records one span per call: name, start,
end, parent span and round. Spans stay in memory until `dump` writes them.
Per-layer metrics are self times: a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name). Every module of the package that holds the
# same function object under any name is patched, so calls through
# `from .plateau import discrete_geometry` are seen as well.
SPANNED = [
    ("plateau", "build_state", "plateau.build_state"),
    ("plateau", "plateau_solve", "plateau.solve"),
    ("plateau", "discrete_geometry", "plateau.discrete_geometry"),
    ("plateau", "state_save", "plateau.state_io"),
    ("plateau", "state_load", "plateau.state_io"),
    ("diagnostics", "rigidity_audit", "diagnostics.rigidity"),
    ("diagnostics", "gradient_audit", "diagnostics.gradient"),
    ("diagnostics", "distance_ratio_audit", "diagnostics.distance_ratio"),
    ("diagnostics", "gromov_audit", "diagnostics.gromov"),
    ("diagnostics", "asymptotic_hyperbolicity_audit", "diagnostics.asymptotic_hyperbolicity"),
    ("diagnostics", "hessian_audit", "diagnostics.hessian"),
    ("diagnostics", "yamabe_flatten", "diagnostics.yamabe_flatten"),
    # boundary_extension's self time, outside yamabe_flatten and qs_certify,
    # is the H^2 development and layout refinement
    ("diagnostics", "boundary_extension", "diagnostics.development"),
    ("diagnostics", "quasiperiodicity_probe", "diagnostics.quasiperiodicity_probe"),
    ("diagnostics", "barbot_degeneration", "diagnostics.barbot_degeneration"),
    ("crossratio", "qs_certify", "crossratio.qs_certify"),
    ("einstein", "loop_classify", "einstein.loop_classify"),
    ("einstein", "photon_arc", "einstein.photon_arc"),
    ("einstein", "loop_save", "einstein.loop_io"),
    ("einstein", "loop_load", "einstein.loop_io"),
    # the plot export has no public entry point; cmd_audit calls it by its
    # module-level name, so patching that name gives it a span
    ("cli", "_write_plot_data", "cli.plot_export"),
]

# (module, attribute, count name): called too often for a span each.
COUNTED = [
    ("hspace", "spatial_distance", "hspace.spatial_distance_calls"),
    ("qcore", "standardize_triple", "qcore.standardize_triple_calls"),
]

class NullTracer:
    """Stands in for the tracer in untraced rounds, so both kinds of round
    run the same workload code."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.round = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": parent, "round": self.round,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[self.round][name] += amount

    def _inside(self, name):
        return any(self.spans[s]["name"] == name for s in self._stack)

    def _spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _counted(self, name, fn, tally):
        # a bare call counter: these functions run up to a million times per
        # round, so the wrapper does no more than count
        calls = itertools.count()
        tally.append((name, calls))

        def wrapper(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules):
        """Patch the package modules in `modules` (name -> module) and
        scipy's `splu`; return a function that undoes every patch."""
        undo = []
        tally = []

        def patch_everywhere(original, replacement):
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, replacement)

        def after_solve(result, args):
            self.count("plateau.solve_iterations", result.iterations)
            self.count("plateau.solve_halvings", result.dt_summary.get("halvings", 0))

        def after_state_save(result, args):
            self.count("plateau.state_bytes", os.path.getsize(args[1]))

        def after_certify(result, args):
            self.count("crossratio.quadruples", result.quadruples_tested)

        hooks = {"plateau_solve": after_solve, "state_save": after_state_save,
                 "qs_certify": after_certify}
        for mod_name, attr, span_name in SPANNED:
            original = getattr(modules[mod_name], attr)
            patch_everywhere(original, self._spanned(span_name, original, hooks.get(attr)))
        for mod_name, attr, count_name in COUNTED:
            original = getattr(modules[mod_name], attr)
            patch_everywhere(original, self._counted(count_name, original, tally))

        form_cls = modules["qcore"].BilinearForm
        inner = form_cls.inner
        undo.append((form_cls, "inner", inner))
        form_cls.inner = self._counted("qcore.inner_calls", inner, tally)

        # the solver reaches splu as scipy.sparse.linalg.splu at call time
        linalg = sys.modules["scipy.sparse.linalg"]
        splu = linalg.splu

        def traced_splu(*args, **kwargs):
            name = "plateau.factorisation" if self._inside("plateau.solve") else "scipy.splu"
            with self.span(name):
                return splu(*args, **kwargs)

        undo.append((linalg, "splu", splu))
        linalg.splu = traced_splu

        def uninstall():
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)
            for name, calls in tally:
                self.count(name, next(calls))
        return uninstall

    def self_times(self, round_id):
        """Summed self time per span name over one round."""
        spans = [s for s in self.spans if s["round"] == round_id]
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = Counter()
        for s in spans:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return out, Counter(s["name"] for s in spans)

    def round_metrics(self, round_id, names):
        """The metrics in `names` for one round, except the trace.* pair.
        A `<span>_s` name is that span's self time; a layer that did not run
        reads 0. The counts and rates are derived below."""
        self_s, calls = self.self_times(round_id)
        counts = self.counts[round_id]
        out = {name: float(self_s[name[:-2]]) for name in names
               if name.endswith("_s") and not name.startswith("trace.")}
        solve_total = sum(s["end"] - s["start"] for s in self.spans
                          if s["round"] == round_id and s["name"] == "plateau.solve")
        iters = counts["plateau.solve_iterations"]
        out["plateau.iteration_s"] = solve_total / iters if iters else 0.0
        out["plateau.discrete_geometry_calls"] = calls["plateau.discrete_geometry"]
        out["einstein.loop_classify_calls"] = calls["einstein.loop_classify"]
        certify_s = self_s["crossratio.qs_certify"]
        out["crossratio.quadruples_per_s"] = (counts["crossratio.quadruples"] / certify_s
                                              if certify_s else 0.0)
        for name in ("plateau.solve_iterations", "plateau.solve_halvings", "plateau.state_bytes",
                     "hspace.spatial_distance_calls", "qcore.inner_calls",
                     "qcore.standardize_triple_calls"):
            out[name] = counts[name]
        return out

    def layer_metrics(self, rounds, names):
        """Median over the traced rounds of every per-round metric."""
        per_round = [self.round_metrics(r, names) for r in rounds]
        return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": {str(r): dict(c) for r, c in self.counts.items()}},
                      fh)
            fh.write("\n")
