"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only from the benchmark's side: :meth:`Tracer.wrap`
replaces a module attribute of the program with a wrapper that records a
span around every call made through that attribute, so callers inside the
package that look the name up on the module (``outer.decay_slope(...)``,
``solver``'s global ``solve_bvp``) are traced without touching the package.

A span is the list ``[name, start, end, parent, op, extra]``: perf-counter
seconds, the index of the enclosing span (-1 at the top), the benchmark
operation it belongs to (None during set-up) and an optional dict of
per-call counters (None when the call raised).  A span's self time is its duration minus the durations
of its direct children; calls are single-threaded, so children never
overlap.
"""

import statistics
import time

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "extra")


class Tracer:
    """Records nested spans around wrapped module attributes."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.active = True
        self._stack = []
        self._patches = []

    def wrap(self, module, attr, name, before=None, extra=None):
        """Trace every call made through ``module.attr`` under ``name``.

        ``before()`` runs just ahead of the call; ``extra(args, kwargs,
        result, before_value)`` turns a call that returned into a dict of
        counters stored on the span.
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            pre = before() if before is not None else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result, pre)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def unwrap(self):
        """Put every wrapped attribute back."""
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def layer_metrics(spans, n_ops):
    """Per-layer metrics of a traced run.

    Timed-loop figures (spans with an operation id) are given per
    completed operation; figures prefixed ``setup.`` cover the set-up
    phase once.  Layers that did no work read 0.
    """
    own = self_times(spans)
    ops = max(n_ops, 1)
    loop = [i for i, s in enumerate(spans) if s[4] is not None]
    setup = [i for i, s in enumerate(spans) if s[4] is None]

    def pick(idx, name):
        return [i for i in idx if spans[i][0] == name]

    def self_sum(idx, name):
        return sum(own[i] for i in pick(idx, name))

    m = {}
    for name in ("specfun.k_imag_triple", "outer.decay_slope",
                 "solver.solve_bvp", "solver.solve_spiral",
                 "core.solve_profile", "wavenumber.kappa_asym"):
        m[name + ".calls"] = len(pick(loop, name)) / ops
        m[name + ".self_s"] = self_sum(loop, name) / ops

    kit = pick(loop, "specfun.k_imag_triple")
    kit_total = sum(spans[i][2] - spans[i][1] for i in kit)
    m["specfun.k_imag_triple.us_per_call"] = \
        1e6 * kit_total / len(kit) if kit else 0.0

    # distinct (nu, R) far-field evaluations per solve over all calls
    slopes = pick(loop, "outer.decay_slope")
    per_solve = {}
    for i in slopes:
        if spans[i][5] is not None:
            per_solve.setdefault(_ancestor(spans, i, "solver.solve_spiral"),
                                 set()).add(spans[i][5]["nuR"])
    distinct = sum(len(v) for v in per_solve.values())
    m["outer.decay_slope.distinct_ratio"] = \
        distinct / len(slopes) if slopes else 0.0

    bvp = [i for i in pick(loop, "solver.solve_bvp")
           if spans[i][5] is not None]
    nodes = [spans[i][5]["nodes"] for i in bvp]
    m["solver.mesh_nodes.median"] = \
        float(statistics.median(nodes)) if nodes else 0.0
    m["solver.mesh_nodes.max"] = float(max(nodes)) if nodes else 0.0
    m["solver.newton_iterations.sum"] = \
        sum(spans[i][5]["niter"] for i in bvp) / ops

    prof = pick(loop, "core.solve_profile")
    hits = sum(1 for i in prof if spans[i][5] and spans[i][5]["hit"])
    m["core.solve_profile.hit_ratio"] = hits / len(prof) if prof else 0.0

    for name in ("field.sample_field", "field.export",
                 "field.measure_arm_spacing"):
        m[name + ".self_s"] = self_sum(loop, name) / ops
    exports = pick(loop, "field.export")
    mb = sum(spans[i][5]["bytes"] for i in exports
             if spans[i][5] is not None) / 1e6
    export_s = sum(spans[i][2] - spans[i][1] for i in exports)
    m["field.export.MB"] = mb / len(exports) if exports else 0.0
    m["field.export.MB_per_s"] = mb / export_s if exports else 0.0

    for name in ("core.solve_profile", "wavenumber.kappa_asym",
                 "solver.solve_spiral", "solver.solve_bvp",
                 "field.theta_of_r"):
        m["setup." + name + ".self_s"] = self_sum(setup, name)
    return m


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s" if name.startswith("setup.") else "s/op"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    if name.startswith("solver.mesh_nodes."):
        return "nodes"
    if name.endswith(".sum"):
        return "iter/op"
    if name.endswith(".MB_per_s"):
        return "MB/s"
    if name.endswith(".MB"):
        return "MB"
    raise KeyError(name)
