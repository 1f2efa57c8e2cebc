"""Spans around the package's cross-module calls, installed from outside the
package, and the per-layer metrics derived from them.

A span is ``(name, start, end, parent, run_id, value)``.  ``name`` is
``<module>.<function>`` and the module is the layer.  ``start`` and ``end``
come from ``time.perf_counter`` in the process that made the call.
``parent`` is the index of the enclosing span of the same run, or -1.
``run_id`` names the process.  ``value`` is a size read from the return
value where one is defined: the ambient size of an orbit closure, or the
sequence count and stage timings of a pipeline run.

Spans are kept in memory and written as gzipped JSON lines when the traced
process ends.  Untraced runs import nothing from here.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

# The public functions one module of the package calls in another, by
# defining module.  Calls within a module that go through a module global
# (weighting_matrix -> compute_valuation, compute_orbits -> orbit_closure)
# are traced as well, because the global is replaced too.  valuation's
# height_weight is left out: initial_form calls it once per term, and its
# spans would double the tracing cost of the reference path.
TARGETS = {
    "valuation": ("compute_valuation", "weighting_matrix"),
    "initial_forms": ("initial_form", "inequality_set"),
    "cone": ("strict_interior_point",),
    "exactlinalg": ("exact_rank", "smith_invariant_factors"),
    "toricity": ("graded_rank", "lattice_saturation"),
    "classify": ("fingerprint", "compute_orbits", "orbit_closure", "classify_gr36"),
    "pipeline": ("run_pipeline", "write_outputs"),
}


def _pipeline_value(result):
    return {"sequences": len(result.outcomes), **result.timings}


VALUES = {
    "classify.orbit_closure": len,
    "pipeline.run_pipeline": _pipeline_value,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value_of=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id, None)
            if value_of is not None:
                spans[index] = (name, start, end, parent, run_id, value_of(result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target in every loaded grassdegen module; returns the
        targets that the package does not define."""
        import grassdegen.cli  # noqa: F401  (imports every stage module)

        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "grassdegen" or key.startswith("grassdegen.")
        ]
        missing = []
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"grassdegen.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    missing.append(f"{layer}.{fname}")
                    continue
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, original, VALUES.get(name))
                for module in modules:
                    for key, obj in list(vars(module).items()):
                        if obj is original:
                            setattr(module, key, wrapper)
        return missing

    def write(self, path: str) -> None:
        """Write the spans, then a last line with the seconds spent writing."""
        start = time.perf_counter()
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"write_s": time.perf_counter() - start}) + "\n")


def read_spans(path: str) -> tuple[list, dict]:
    """Spans of one traced process and the trailing summary object."""
    with gzip.open(path, "rt") as fh:
        lines = [json.loads(line) for line in fh]
    return [tuple(s) for s in lines[:-1]], lines[-1]


# Per-layer metrics: name -> unit.  Layers a workload does not exercise
# report 0.
PER_LAYER_UNITS = {
    "valuation.calls": "count",
    "valuation.busy_s": "s",
    "initial_forms.self_s": "s",
    "initial_forms.calls": "count",
    "cone.lp_solves": "count",
    "cone.busy_s": "s",
    "cone.cache_hit_ratio": "ratio",
    "exactlinalg.rank_calls": "count",
    "exactlinalg.rank_busy_s": "s",
    "exactlinalg.smith_busy_s": "s",
    "toricity.graded_rank_s": "s",
    "toricity.saturation_s": "s",
    "toricity.fingerprints_verified": "count",
    "classify.fingerprint_calls": "count",
    "classify.fingerprint_s": "s",
    "classify.orbits_s": "s",
    "classify.orbits": "count",
    "classify.closure_images": "count",
    "pipeline.sweep_s": "s",
    "pipeline.write_s": "s",
    "pipeline.parallel_efficiency": "ratio",
    "sequences.enumerate_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Slack when matching the sweep stage's timings against span timestamps.
_SWEEP_SLACK_S = 1e-3


def layer_metrics(runs: list[list]) -> dict[str, float]:
    """Per-layer counts and times over the spans of several traced runs.

    A layer's busy time sums its outermost spans (a span with no ancestor of
    the same layer).  Self time subtracts the child spans.  The sweep's
    initial-form selection is inlined in ``run_pipeline``, so the sweep time
    not covered by child spans is counted as initial-form self time.
    """
    calls: dict[str, int] = defaultdict(int)
    duration: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    closure_images = sequences = 0
    initial_forms_self = sweep = enumerate_s = 0.0
    for spans in runs:
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        for index, (name, start, end, parent, _, value) in enumerate(spans):
            layer = name.split(".", 1)[0]
            calls[name] += 1
            duration[name] += end - start
            if layer == "initial_forms":
                initial_forms_self += end - start - covered[index]
            ancestor = parent
            while ancestor >= 0 and not spans[ancestor][0].startswith(layer + "."):
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[layer] += end - start
            if name == "classify.orbit_closure":
                closure_images += value
            elif name == "pipeline.run_pipeline":
                sequences += value["sequences"]
                enumerate_s += value.get("enumerate", 0.0)
                sweep += value.get("sweep", 0.0)
                sweep_end = start + value.get("enumerate", 0.0) + value.get("sweep", 0.0)
                children = sum(
                    s[2] - s[1]
                    for s in spans
                    if s[3] == index and s[2] <= sweep_end + _SWEEP_SLACK_S
                )
                initial_forms_self += value.get("sweep", 0.0) - children
    solves = calls["cone.strict_interior_point"]
    return {
        "valuation.calls": calls["valuation.compute_valuation"],
        "valuation.busy_s": busy["valuation"],
        "initial_forms.self_s": initial_forms_self,
        "initial_forms.calls": calls["initial_forms.initial_form"],
        "cone.lp_solves": solves,
        "cone.busy_s": busy["cone"],
        "cone.cache_hit_ratio": 1 - solves / sequences if sequences else 0.0,
        "exactlinalg.rank_calls": calls["exactlinalg.exact_rank"],
        "exactlinalg.rank_busy_s": duration["exactlinalg.exact_rank"],
        "exactlinalg.smith_busy_s": duration["exactlinalg.smith_invariant_factors"],
        "toricity.graded_rank_s": duration["toricity.graded_rank"],
        "toricity.saturation_s": duration["toricity.lattice_saturation"],
        "toricity.fingerprints_verified": calls["toricity.lattice_saturation"],
        "classify.fingerprint_calls": calls["classify.fingerprint"],
        "classify.fingerprint_s": duration["classify.fingerprint"],
        "classify.orbits_s": duration["classify.compute_orbits"],
        "classify.orbits": calls["classify.orbit_closure"],
        "classify.closure_images": closure_images,
        "pipeline.sweep_s": sweep,
        "pipeline.write_s": duration["pipeline.write_outputs"],
        "sequences.enumerate_s": enumerate_s,
    }
