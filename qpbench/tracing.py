"""Spans and counters recorded from outside qpdiff, for the traced run.

``install(tracer)`` replaces each hooked name in the module that looks it
up (``whfactor.contour_projection``, ``grid_eval.cauchy_pair_sums``,
``farfield.AnsatzEvaluator.diffraction``, ...) by a wrapper that opens a
span on the function's layer.  Nothing under ``src/qpdiff`` is edited,
and a hook whose target no longer exists is skipped: its layer or
counter then reports no metric.

A call opens a span when it enters its layer from another layer, or
when its hook is marked ``always`` (rows, continuation constants,
fallback pixels, ...).  A plain call inside its own layer (the ~100
``contour_point`` calls of one projection) only bumps counters.  So
``L.calls`` counts spans of layer L, ``L.s`` is the wall time covered by
its outermost spans and ``L.self_s`` the span time minus the time of
the child spans inside it.

Spans are kept in memory with the id of the operation they serve (an
arc row, a pixel batch, a factor point) and written out as JSON lines
when the round ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

LAYERS = ("specfun", "contour", "quadrature", "whfactor", "grid_eval",
          "cauchy", "farfield", "portrait")

_ROUTE_METRIC = {"direct": "direct", "alpha2-div": "alpha2_div",
                 "alpha1-div": "alpha1_div", "alpha1+alpha2": "alpha1_alpha2"}

_now = time.perf_counter


class Tracer:
    """Open spans, closed spans and the counters of one traced round."""

    def __init__(self):
        self.stack = []  # open spans: [layer, name, t0, child_s, id, parent, op]
        self.spans = []  # closed: (op, id, parent, layer, name, t0, t1)
        self.op = None
        self.outer_op = None
        self.route_depth = 0
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.self_by_name = Counter()
        self.by_name = Counter()
        self.depth = Counter()
        self.counts = Counter()
        self.row_ms = []
        self.hooked_layers = set()
        self.hooked = set()
        self._next_id = 0

    def needs_span(self, layer, always):
        return always or not self.stack or self.stack[-1][0] != layer

    def open(self, layer, name):
        self._next_id += 1
        parent = self.stack[-1][4] if self.stack else None
        self.stack.append([layer, name, _now(), 0.0, self._next_id, parent,
                           self.op])
        self.calls[layer] += 1
        self.depth[layer] += 1

    def close(self):
        t1 = _now()
        layer, name, t0, child_s, sid, parent, op = self.stack.pop()
        dur = t1 - t0
        self.self_s[layer] += dur - child_s
        self.self_by_name[name] += dur - child_s
        self.by_name[name] += dur
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.total_s[layer] += dur
        if self.stack:
            self.stack[-1][3] += dur
        self.spans.append((op, sid, parent, layer, name, t0, t1))
        return dur

    def write_spans(self, path):
        keys = ("op", "id", "parent", "layer", "name", "t0", "t1")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(tracer, fn, layer, name, always=False, before=None, after=None):
    """Wrapper around ``fn`` on ``layer``; ``before``/``after`` see the call."""

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        tracer.counts[name] += 1
        if before is not None:
            before(args, kwargs)
        if not tracer.needs_span(layer, always):
            result = fn(*args, **kwargs)
            return after(args, kwargs, result, None) if after else result
        tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.close()
        return after(args, kwargs, result, dur) if after else result

    return hooked


def _specs(tracer):
    """(module, attribute path, layer, name, always, before, after) per hook."""
    counts = tracer.counts

    def quad_after(args, kwargs, res, dur):
        counts["quadrature.integrals"] += 1
        counts["quadrature.evals"] += res.n_evals
        counts["quadrature.panels"] += res.n_panels
        return res

    def cauchy_after(args, kwargs, res, dur):
        nodes, targets = args[0], args[3]
        counts["cauchy.pairs"] += len(nodes) * len(targets)
        return res

    def fallback_before(args, kwargs):
        counts["whfactor.quarter_calls"] += 1

    def row_before(args, kwargs):
        obs = args[1] if len(args) > 1 else kwargs["obs"]
        tracer.outer_op = tracer.op
        tracer.op = f"row:phi={obs.phi:.6f}:theta={obs.theta:.6f}"

    def row_after(args, kwargs, res, dur):
        tracer.row_ms.append(1e3 * dur)
        tracer.op = tracer.outer_op
        return res

    def batch_before(args, kwargs):
        tracer.counts["grid_eval.batches"] += 1
        tracer.op = f"pixel-batch:{tracer.counts['grid_eval.batches']}"

    # _kappa_raw is private, but the integrands call it directly
    specfun = ("diag_log", "fourth_root_down", "half_factor", "sqrt_down",
               "_kappa_raw")
    specs = []
    for mod in ("whfactor", "grid_eval", "portrait", "contour"):
        for attr in specfun:
            specs.append((mod, attr, "specfun", f"specfun.{attr}", False,
                          None, None))
    contour_fns = ("contour_point", "contour_derivative", "contour_projection",
                   "classify_side", "distance_to_contour", "default_shift")
    for mod in ("contour", "quadrature", "whfactor", "grid_eval", "portrait"):
        for attr in contour_fns:
            name = {"contour_point": "contour.point_calls",
                    "contour_projection": "contour.projections"}.get(
                        attr, f"contour.{attr}")
            specs.append((mod, attr, "contour", name, False, None, None))
    specs += [
        ("whfactor", "integrate_over_shifted", "quadrature",
         "quadrature.integrate_over_shifted", False, None, quad_after),
        ("farfield", "continue_factor", "whfactor", "whfactor.continue_factor",
         False, None, None),
        ("whfactor", "continue_factor", "whfactor", "whfactor.continue_factor",
         False, None, None),
        ("whfactor", "quarter_factor", "whfactor", "whfactor.quarter_calls",
         False, None, None),
        ("whfactor", "continuation_constant", "whfactor",
         "whfactor.continuation_constant", True, None, None),
        ("grid_eval", "quarter_factor", "whfactor",
         "grid_eval.fallback_pixels", True, fallback_before, None),
        ("portrait", "factor_field", "grid_eval", "grid_eval.factor_field",
         False, None, None),
        ("grid_eval", "quarter_factor_grid", "grid_eval",
         "grid_eval.quarter_factor_grid", True, batch_before, None),
        ("grid_eval", "cauchy_pair_sums", "cauchy", "cauchy.kernel_calls", False,
         None, cauchy_after),
        ("farfield", "AnsatzEvaluator.arc_sweep", "farfield",
         "farfield.arc_sweep", True, None, None),
        ("farfield", "AnsatzEvaluator.diffraction", "farfield",
         "farfield.rows", True, row_before, row_after),
        ("farfield", "ArcSweepResult.to_csv", "farfield", "farfield.to_csv",
         True, None, None),
        ("portrait", "render", "portrait", "portrait.render", True, None,
         None),
        ("portrait", "write_image", "portrait", "portrait.write_image", True,
         None, None),
    ]
    return specs


def _route_wrapper(tracer, original):
    """continue_factor: always ask for the route, return what was asked for.

    The library's recursion looks the name up again and so passes through
    here too; only the outermost call's route is counted, the one a
    caller of ``continue_factor`` sees.
    """

    def call(*args, with_route=False, **kwargs):
        tracer.route_depth += 1
        try:
            value, route = original(*args, with_route=True, **kwargs)
        finally:
            tracer.route_depth -= 1
        if tracer.route_depth == 0:
            key = _ROUTE_METRIC.get(route, route.replace("+", "_").replace("-", "_"))
            tracer.counts[f"whfactor.route.{key}"] += 1
        return (value, route) if with_route else value

    return call


def install(tracer, modules):
    """Patch every hook whose target exists; return an undo function."""
    undo = []
    for mod_name, path, layer, name, always, before, after in _specs(tracer):
        owner = modules.get(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            continue
        target = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if target is None or not callable(target):
            continue
        fn = target
        if name == "whfactor.continue_factor":
            if "with_route" in inspect.signature(target).parameters:
                fn = _route_wrapper(tracer, target)
            else:  # no route to read: keep the span, drop the route counts
                name = "whfactor.continue_factor_calls"
        undo.append((owner, attr, target))
        setattr(owner, attr, _wrap(tracer, fn, layer, name, always, before, after))
        tracer.hooked_layers.add(layer)
        tracer.hooked.add(name)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


#: metrics read from counters, keyed by the hook that must exist for them
_BY_HOOK = {
    "contour.projections": ("contour.projections",),
    "contour.point_calls": ("contour.point_calls",),
    "quadrature.integrate_over_shifted": (
        "quadrature.integrals", "quadrature.evals", "quadrature.panels"),
    "whfactor.quarter_calls": ("whfactor.quarter_calls",),
    "whfactor.continue_factor": tuple(
        f"whfactor.route.{key}" for key in _ROUTE_METRIC.values()),
    "grid_eval.fallback_pixels": ("grid_eval.fallback_pixels",),
    "cauchy.kernel_calls": ("cauchy.pairs",),
    "farfield.rows": ("farfield.rows",),
}

#: inclusive time of a marked span, keyed by the metric it feeds
_SPAN_TIMES = {
    "whfactor.continuation_constant_s": "whfactor.continuation_constant",
    "grid_eval.fallback_s": "grid_eval.fallback_pixels",
    "portrait.write_s": "portrait.write_image",
}


def layer_metrics(tracer):
    """Per-layer figures of one traced round, for the hooks that exist."""
    counts, hooked = tracer.counts, tracer.hooked
    out = {}
    for layer in LAYERS:
        if layer in tracer.hooked_layers:
            out[f"{layer}.calls"] = tracer.calls[layer]
            out[f"{layer}.s"] = tracer.total_s[layer]
            out[f"{layer}.self_s"] = tracer.self_s[layer]
    for hook, names in _BY_HOOK.items():
        if hook in hooked:
            out.update((name, counts[name]) for name in names)
    out.update((metric, tracer.by_name[span])
               for metric, span in _SPAN_TIMES.items() if span in hooked)
    if "cauchy.kernel_calls" in hooked:
        pairs = counts["cauchy.pairs"]
        out["cauchy.ns_per_pair"] = (1e9 * tracer.total_s["cauchy"] / pairs
                                     if pairs else 0.0)
    if "portrait.render" in hooked:
        out["portrait.encode_s"] = tracer.self_by_name["portrait.render"]
    return out
