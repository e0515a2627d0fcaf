"""Spans around the public functions of the semifano modules.

`Tracer.install` replaces every public function of each layer module, at
every module-level name a semifano module looks it up by (for example
`semifano.mirror.invert_diagonal_unit` or `semifano.fans.lattice_membership`),
with a wrapper that records a span: name, parent span, start, end and the
job it belongs to.  Spans stay in memory; `summarize` turns one pass of them
into per-layer self times, inclusive times, call counts and the counts taken
from return values.  Private helpers (the dict-level kernels) are not
wrapped, so their time is self time of the public function that called them.
Samples of the speed probe that interrupt a span are kept apart and taken
out of that span's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("fans", "intlinalg", "mirror", "series", "superpotential", "cli")
JOB_SPAN = "bench.job"


def _coeff_bits(c):
    """Bit height of a rational: bits of the larger of |numerator|, denominator."""
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def _count_classes(counts, result):
    counts["mirror.enumerate_g0_classes.classes"] += len(result)


def _count_inverse(counts, result):
    terms = [t for u in result.components for t in u.terms]
    counts["series.inverse.terms"] += len(terms)
    bits = max((_coeff_bits(c) for _, c in terms), default=0)
    counts["series.inverse.max_coeff_bits"] = max(
        counts["series.inverse.max_coeff_bits"], bits
    )


def _count_exit2(counts, result):
    if result == 2:
        counts["cli.exit2.count"] += 1


# counts read off return values, keyed by span name
RESULT_COUNTS = {
    "mirror.enumerate_g0_classes": _count_classes,
    "series.invert_diagonal_unit": _count_inverse,
    "cli.main": _count_exit2,
}


class Tracer:
    """Span recorder for one process; `install` and `uninstall` bracket a pass."""

    def __init__(self, modules):
        # modules: layer name -> imported semifano module
        self.modules = modules
        self.spans = []  # [name, parent index or -1, start ns, end ns, job]
        self.probes = []  # [parent index or -1, start ns, end ns]
        self.counts = Counter()
        self._stack = []
        self._job = -1
        self._saved = []

    def install(self):
        wrappers = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, obj in self._saved:
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, span_name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        on_result = RESULT_COUNTS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span_name, stack[-1] if stack else -1, clock(), 0,
                          self._job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def record_probe(self, start, end):
        """Record a speed-probe sample that ran inside the current span."""
        self.probes.append([self._stack[-1] if self._stack else -1, start, end])

    def run_job(self, job_index, fn):
        """Call fn() under a root span of its own; the root's self time is
        time spent outside every wrapped function."""
        self._job = job_index
        return self._wrap(JOB_SPAN, fn)()

    def take(self):
        """Spans, probe samples and counts recorded since the last call."""
        taken = list(self.spans), list(self.probes), Counter(self.counts)
        self.spans.clear()
        self.probes.clear()
        self.counts.clear()
        return taken


def summarize(spans, probes, counts):
    """Per-layer and per-function figures for one traced pass, in seconds."""
    inner = [0] * len(spans)  # probe time inside each span
    for parent, start, end in probes:
        while parent >= 0:
            inner[parent] += end - start
            parent = spans[parent][1]
    dur = [end - start - inner[i] for i, (_, _, start, end, _) in enumerate(spans)]
    child = [0] * len(spans)
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_ns = Counter()
    incl_ns = Counter()
    calls = Counter()
    walker_calls = 0
    for i, (name, parent, _, _, _) in enumerate(spans):
        self_ns[name] += dur[i] - child[i]
        calls[name] += 1
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][1]
        if name not in ancestors:
            incl_ns[name] += dur[i]
        if (name == "intlinalg.lattice_membership"
                and "mirror.enumerate_g0_classes" in ancestors):
            walker_calls += 1
    layer_self = Counter()
    layer_calls = Counter()
    for name, ns in self_ns.items():
        layer = name.split(".")[0]
        layer_self[layer] += ns
        if name != JOB_SPAN:
            layer_calls[layer] += calls[name]
    return {
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "inclusive_s": {k: v / 1e9 for k, v in incl_ns.items()},
        "calls": dict(calls),
        "layer_self_s": {k: v / 1e9 for k, v in layer_self.items()},
        "layer_calls": dict(layer_calls),
        "walker_membership_calls": walker_calls,
        "counts": dict(counts),
        "spans": len(spans),
        "jobs_s": incl_ns[JOB_SPAN] / 1e9,
    }
