"""Span tracing of one `caloron` run, applied from outside the package.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID CLI_ARG...

runs `calorons.cli.main(CLI_ARG...)` with every public function and method
of the traced modules wrapped in a span recorder, then writes the spans
(name, start, end, parent) and the call/point counters to SPANS_JSON and
exits with the CLI's exit code.  Spans stay in memory until the run ends.

A function is patched wherever callers look it up: in its own module, in
every `calorons` module that imported it by name, and on its class for
methods.  Lazy imports inside function bodies read the patched module
attribute.  A function behind a cache decorator (anything with
`__wrapped__`, or a `functools.cached_property`) is wrapped as it stands,
so its calls and time still count.  `layer_metrics` turns a written trace
into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("rootsys", "indexes", "su2", "samplers", "assembler", "fieldcalc",
          "quadrature", "verify", "cli")

# Vector-arithmetic helpers called up to ~10^5 times per index sweep: a span
# each would dominate the trace, so their time counts to their callers.
UNTRACED = {
    "rootsys.vec", "rootsys.dot", "rootsys.vadd", "rootsys.vsub", "rootsys.vscale",
    "rootsys.vzero", "rootsys.pairing", "rootsys.as_float", "samplers.dagger",
    "fieldcalc.commutator", "fieldcalc.lie_norm_sq", "fieldcalc.lie_inner",
}

# Short metric names used by the benchmark for qualified span names.
ALIASES = {
    "rootsys.embed": "rootsys.EmbeddingData.embed",
    "rootsys.fundamental_coweights": "rootsys.RootDatum.fundamental_coweights",
    "su2.rotated_evaluate": "su2.RotatedBPSCaloron.evaluate",
    "su2.gauge_spatial_derivative": "su2.GaugeMap.spatial_derivative",
    "samplers.pulled_back_evaluate": "samplers.PulledBackSampler.evaluate",
    "assembler.evaluate": "assembler.ApproximateCaloron.evaluate",
    "assembler.annulus_parts": "assembler.ApproximateCaloron.annulus_parts",
    "assembler.fundamental_evaluate": "assembler.FundamentalCaloron.evaluate",
    "assembler.singular_evaluate": "assembler.SingularCaloron.evaluate",
    "assembler.exact_curvature": "assembler.ApproximateCaloron.exact_curvature",
}

COWEIGHTS = "rootsys.RootDatum.fundamental_coweights"


def _points(x, trailing=1):
    """Number of points (trailing=1) or matrices (trailing=2) in a batch."""
    import numpy as np  # only the traced child needs numpy

    shape = np.shape(x)
    return math.prod(shape[: max(len(shape) - trailing, 0)])


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.paused = False  # set while a counting hook runs: its calls open no span
        self.counters = defaultdict(float)
        self.coweight_types = {}  # fundamental_coweights span -> (series, rank)
        self.solves = defaultdict(int)  # (series, rank) -> rational solves for coweights
        self.grid_spans = set()  # spans that received a VolumeGrid
        self.grids = {}  # id -> (grid, points x t-slices); holding the grid keeps its id unique
        self.originals = {}

    @contextlib.contextmanager
    def untraced(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name, fn, hooks=()):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.paused:  # called by a counting hook
                return fn(*args, **kwargs)
            parent = rec.stack[-1] if rec.stack else -1
            # counting runs before the span opens: its cost is the caller's self time
            with rec.untraced():
                for hook in hooks:
                    hook(len(rec.spans), parent, args, kwargs)
            span = [name, time.perf_counter() - rec.origin, None, parent]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - rec.origin
                rec.stack.pop()

        return traced

    # -- counters at layer boundaries -------------------------------------
    # A hook gets the index of the span about to open and of its parent.

    def _bound(self, name, args, kwargs):
        return inspect.signature(self.originals[name]).bind(*args, **kwargs).arguments

    def _embed(self, index, parent, args, kwargs):
        self.counters["rootsys.embed.matrices"] += _points(args[1], 2)

    def _coweights(self, index, parent, args, kwargs):
        self.coweight_types[index] = (args[0].series, args[0].rank)

    def _rational_solve(self, index, parent, args, kwargs):
        # one coweight solve is `rank` rational solves made inside fundamental_coweights
        while parent >= 0 and self.spans[parent][0] != COWEIGHTS:
            parent = self.spans[parent][3]
        if parent >= 0:
            self.solves[self.coweight_types[parent]] += 1

    def _bps_fields(self, index, parent, args, kwargs):
        self.counters["su2.bps_fields.points"] += _points(args[0])

    def _rotated(self, index, parent, args, kwargs):
        self.counters["su2.rotated_evaluate.points"] += _points(args[1])

    def _evaluate(self, index, parent, args, kwargs):
        import numpy as np

        a = self._bound("assembler.ApproximateCaloron.evaluate", args, kwargs)
        caloron, x = a["self"], np.asarray(a["x"], dtype=float)
        chart = a.get("chart")
        if chart is None:
            chart = self.originals["assembler.ApproximateCaloron.chart"](caloron, x)
        code = np.broadcast_to(np.asarray(chart), x.shape[:-1])
        kind = (code - 1) % 4
        self.counters["assembler.evaluate.points"] += code.size
        self.counters["assembler.points.far"] += int(np.count_nonzero(code < 0))
        self.counters["assembler.points.core"] += int(np.count_nonzero((code >= 0) & (kind == 0)))
        self.counters["assembler.points.annulus"] += int(np.count_nonzero((code >= 0) & (kind > 0)))

    def _in_volume_integral(self, parent):
        """Whether curvature computed under parent is the outermost curvature
        computation inside a span that received a VolumeGrid."""
        while parent >= 0:
            if parent in self.grid_spans:
                return True
            name = self.spans[parent][0]
            if name == "fieldcalc.curvature_at" or name.endswith(".exact_curvature"):
                return False
            parent = self.spans[parent][3]
        return False

    def _curvature(self, index, parent, args, kwargs):
        n = _points(self._bound("fieldcalc.curvature_at", args, kwargs)["x"])
        self.counters["fieldcalc.curvature_at.points"] += n
        if self._in_volume_integral(parent):
            self.counters["fieldcalc.integral_curvature_points"] += n

    def _exact_curvature(self, index, parent, args, kwargs):
        if self._in_volume_integral(parent):
            self.counters["fieldcalc.integral_curvature_points"] += _points(args[1])

    def _sampler_call(self, index, parent, args, kwargs):
        # stencil evaluations: sampler points requested by curvature_at
        if parent >= 0 and self.spans[parent][0] == "fieldcalc.curvature_at":
            x = self._bound("samplers.ConnectionSampler.__call__", args, kwargs)["x"]
            self.counters["fieldcalc.curvature_at.sampler_points"] += _points(x)

    def _volume_grid(self, index, parent, args, kwargs):
        """A fieldcalc span that receives a VolumeGrid integrates over it:
        its grid points times the t-slices of the sampler it was given."""
        from calorons.quadrature import VolumeGrid

        values = (*args, *kwargs.values())
        grids = [v for v in values if isinstance(v, VolumeGrid)]
        if not grids:
            return
        self.grid_spans.add(index)
        sampler = next((v for v in values if hasattr(v, "t_independent")), None)
        for grid in grids:
            nt = 1 if sampler is not None and sampler.t_independent else grid.nt
            self.grids[id(grid)] = (grid, grid.total_points() * nt)

    def _desk_grid(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            grid = fn(*args, **kwargs)
            with rec.untraced():
                rec.counters["quadrature.grid_points"] += grid.total_points()
            return grid

        return counted

    def hooks(self, name):
        named = {
            "rootsys.EmbeddingData.embed": self._embed,
            COWEIGHTS: self._coweights,
            "rootsys.rational_solve": self._rational_solve,
            "su2.bps_fields": self._bps_fields,
            "su2.RotatedBPSCaloron.evaluate": self._rotated,
            "assembler.ApproximateCaloron.evaluate": self._evaluate,
            "fieldcalc.curvature_at": self._curvature,
            "samplers.ConnectionSampler.__call__": self._sampler_call,
            "assembler.ApproximateCaloron.exact_curvature": self._exact_curvature,
        }
        hooks = [named[name]] if name in named else []
        if name.startswith("fieldcalc."):
            hooks.append(self._volume_grid)
        return hooks

    # -- patching ----------------------------------------------------------

    def _traced(self, name, fn):
        self.originals[name] = fn
        wrapped = self.wrap(name, fn, self.hooks(name))
        if name == "quadrature.desk_grid":
            wrapped = self._desk_grid(name, wrapped)
        return wrapped

    def install(self):
        """Wrap every public function and method of the traced layers."""
        modules = {layer: importlib.import_module(f"calorons.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items() if n == "calorons" or n.startswith("calorons.")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(layer, obj)
                elif _is_function(obj):
                    name = f"{layer}.{attr}"
                    if name in UNTRACED:
                        continue
                    wrapped = self._traced(name, obj)
                    for m in package:
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                setattr(m, key, wrapped)

    def _install_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, functools.cached_property):
                prop = functools.cached_property(self._traced(name, raw.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if _is_function(fn):
                wrapped = self._traced(name, fn)
                setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def dump(self, path, run_id):
        counters = dict(self.counters)
        counters["rootsys.coweight_types"] = len(set(self.coweight_types.values()))
        counters["rootsys.coweight_solves"] = sum(n / rank for (_, rank), n in self.solves.items())
        counters["fieldcalc.integral_grid_points"] = sum(n for _, n in self.grids.values())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "spans": self.spans, "counters": counters}, fh)


def _is_function(obj):
    """A plain function, or a callable wrapped by a decorator such as functools.cache."""
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "__wrapped__")
                                       and not inspect.isclass(obj))


# -- analysis -------------------------------------------------------------

def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _outermost(spans):
    """Inclusive time and call count per span name; a span nested in a
    span of the same name adds a call but no time."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, parent in spans:
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += end - start
    return busy, calls


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, wall_s):
    """Per-layer metrics of one traced run whose process took wall_s."""
    spans = trace["spans"]
    counters = defaultdict(float, trace["counters"])
    busy, calls = _outermost(spans)
    selfs = _self_times(spans)
    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    for (name, *_), s in zip(spans, selfs):
        by_layer[name.split(".", 1)[0]] += s
        by_name[name] += s

    def full(short):
        return ALIASES.get(short, short)

    m = {}
    for short in ("rootsys.build_root_datum", "rootsys.random_interior_omega",
                  "indexes.transverse_index", "assembler.evaluate", "fieldcalc.curvature_at"):
        m[f"{short}.busy_s"] = busy[full(short)]
        m[f"{short}.calls"] = calls[full(short)]
    for short in ("rootsys.embed", "su2.bps_fields", "su2.rotated_evaluate",
                  "su2.gauge_spatial_derivative", "su2.bps_remainder", "su2.rotated_remainder",
                  "samplers.pulled_back_evaluate", "assembler.annulus_parts",
                  "assembler.fundamental_evaluate", "assembler.singular_evaluate",
                  "assembler.exact_curvature", "fieldcalc.integrate_energy",
                  "fieldcalc.tr_f_wedge_f", "fieldcalc.sd_error_l2", "fieldcalc.magnetic_charge",
                  "fieldcalc.sphere_averaged_holonomy", "quadrature.desk_grid",
                  "quadrature.block_sum"):
        m[f"{short}.busy_s"] = busy[full(short)]
    for key in ("rootsys.embed.matrices", "su2.bps_fields.points", "su2.rotated_evaluate.points",
                "assembler.evaluate.points", "assembler.points.core", "assembler.points.annulus",
                "assembler.points.far", "fieldcalc.curvature_at.points",
                "fieldcalc.curvature_at.sampler_points", "quadrature.grid_points"):
        m[key] = counters[key]
    m["rootsys.fundamental_coweights.calls"] = calls[full("rootsys.fundamental_coweights")]
    m["rootsys.coweight_solves_per_type"] = _ratio(counters["rootsys.coweight_solves"],
                                                   counters["rootsys.coweight_types"])
    m["fieldcalc.stencil_evals_per_point"] = _ratio(
        counters["fieldcalc.curvature_at.sampler_points"], counters["fieldcalc.curvature_at.points"])
    m["fieldcalc.curvature_points_per_grid_point"] = _ratio(
        counters["fieldcalc.integral_curvature_points"], counters["fieldcalc.integral_grid_points"])
    m["verify.run_verification.self_s"] = by_name["verify.run_verification"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    m["trace.wall_s"] = wall_s
    m["trace.span_coverage"] = _ratio(top, wall_s)
    m["trace.spans"] = len(spans)
    return m


def main(argv):
    out_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    rec.install()
    import calorons.cli

    try:
        return calorons.cli.main(cli_args)
    finally:
        rec.dump(out_path, run_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
