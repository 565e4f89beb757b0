"""Per-layer trace of the hopfpbw package, installed from outside it.

``Tracer.install`` replaces module functions and class methods of the package
with wrappers.  Callers look these up at call time (module globals, class
attributes), so a function is replaced in every package module that imported
it by name, and every call site goes through the wrapper.  ``uninstall``
restores the originals.

Each wrapped call opens a frame on one stack; a frame's self time is its
duration minus the time of the frames nested in it, and it is charged to the
metric's layer (the package module: ``word``, ``fields``, ``poly``,
``rewrite``, ``coalg``, ``structure``, ``expressions``, ``cli``).  Three kinds
of trace points:

- ``SPAN``: timed, and recorded as a span (id, parent span, job, name,
  start, end) kept in memory until ``write_spans``;
- ``FRAME``: timed and aggregated only, for calls made tens of thousands of
  times per job (field operations, polynomial construction, reductions);
- ``COUNT``: counted only (``is_lyndon``, called millions of times); its
  time stays with the caller.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPAN, FRAME, COUNT = "span", "frame", "count"

_FIELD_OPS = ("add", "sub", "mul", "neg", "inv")
_POLY_ARITH = ("__add__", "__sub__", "__neg__", "scale", "__mul__", "homogeneous_components")

# (owner, attribute, metric, kind); owner is "module" or "module.Class".
POINTS = [
    ("word", "enumerate_lyndon", "word.enumerate_lyndon", SPAN),
    ("word", "words_of_degree", "word.words_of_degree", SPAN),
    ("word", "is_lyndon", "word.is_lyndon", COUNT),
    *[(f"fields.{cls}", op, "fields.ops", FRAME)
      for cls in ("Rationals", "PrimeField") for op in _FIELD_OPS],
    ("poly.Polynomial", "__init__", "poly.Polynomial", FRAME),
    ("poly.TensorElement", "__init__", "poly.TensorElement", FRAME),
    *[("poly.Polynomial", m, "poly.arithmetic", FRAME) for m in _POLY_ARITH],
    *[("poly.TensorElement", m, "poly.arithmetic", FRAME) for m in (*_POLY_ARITH, "map_legs")],
    ("poly", "standard_bracket", "poly.standard_bracket", SPAN),
    ("poly", "standard_comultiplication", "poly.standard_comultiplication", SPAN),
    ("rewrite", "compute_truncated_gb", "rewrite.compute_truncated_gb", SPAN),
    # normal_form and normal_form_tensor reach the engine only through _reduce.
    ("rewrite.TruncatedGB", "_reduce", "rewrite.reduce", FRAME),
    ("rewrite.TruncatedGB", "irreducible_words", "rewrite.irreducible_words", SPAN),
    ("rewrite", "admissible_words", "rewrite.admissible_words", SPAN),
    ("rewrite", "irreducible_lyndon_words", "rewrite.irreducible_lyndon_words", SPAN),
    ("rewrite", "bracket_coordinates", "rewrite.bracket_coordinates", SPAN),
    ("rewrite", "tensor_bracket_coordinates", "rewrite.tensor_bracket_coordinates", SPAN),
    ("coalg.Comultiplication", "__init__", "coalg.Comultiplication", FRAME),
    ("coalg.Comultiplication", "of_word", "coalg.Comultiplication.apply", FRAME),
    ("coalg.Comultiplication", "of_poly", "coalg.Comultiplication.apply", FRAME),
    ("coalg", "check_triangular", "coalg.check_triangular", SPAN),
    ("coalg", "check_stability", "coalg.check_stability", SPAN),
    ("coalg", "check_coassoc_counit", "coalg.check_coassoc_counit", SPAN),
    ("coalg", "is_lie_polynomial", "coalg.is_lie_polynomial", SPAN),
    ("coalg.Antipode", "__init__", "coalg.Antipode", SPAN),
    ("coalg.Antipode", "convolution_check", "coalg.Antipode", SPAN),
    ("structure", "verify_structure_theorem", "structure.verify_structure_theorem", SPAN),
    ("structure", "recover_lie_generators", "structure.recover_lie_generators", SPAN),
    ("expressions", "parse_expression", "expressions.parse", SPAN),
    *[("expressions", f, "expressions.render", FRAME)
      for f in ("render_polynomial", "render_tensor", "render_word")],
    ("cli", "run", "cli.run", SPAN),
]

LAYERS = ("word", "fields", "poly", "rewrite", "coalg", "structure", "expressions", "cli")

_TIMED = ("calls", "self_s", "total_s")

# The per-layer metrics a traced run reports, in report order.
LAYER_METRICS = [
    *[f"{layer}.self_s" for layer in LAYERS],
    *[f"word.enumerate_lyndon.{k}" for k in _TIMED],
    "word.enumerate_lyndon.words",
    *[f"word.words_of_degree.{k}" for k in _TIMED],
    "word.is_lyndon.calls",
    "word.lyndon_kept_ratio",
    "fields.ops",
    "poly.Polynomial.constructions",
    "poly.TensorElement.constructions",
    *[f"poly.standard_bracket.{k}" for k in _TIMED],
    *[f"poly.standard_comultiplication.{k}" for k in _TIMED],
    *[f"rewrite.compute_truncated_gb.{k}" for k in _TIMED],
    "rewrite.gb_elements",
    *[f"rewrite.reduce.{k}" for k in _TIMED],
    "rewrite.reduce.repeat_share",
    *[f"rewrite.{name}.{k}" for name in (
        "irreducible_words", "admissible_words", "irreducible_lyndon_words",
        "bracket_coordinates", "tensor_bracket_coordinates") for k in _TIMED],
    "coalg.Comultiplication.constructions",
    *[f"coalg.{name}.{k}" for name in (
        "check_stability", "check_triangular", "check_coassoc_counit", "Antipode",
        "is_lie_polynomial") for k in _TIMED],
    *[f"structure.{name}.{k}" for name in (
        "verify_structure_theorem", "recover_lie_generators") for k in _TIMED],
    *[f"expressions.{name}.{k}" for name in ("parse", "render") for k in _TIMED],
    *[f"cli.run.{k}" for k in _TIMED],
    "trace.overhead_s",
    "trace.spans",
]

# Sizes of results, counted where the work happens.
_RESULT_COUNTERS = {
    "word.enumerate_lyndon": ("word.enumerate_lyndon.words", len),
    "rewrite.irreducible_lyndon_words": ("rewrite.irreducible_lyndon_words.words", len),
    "rewrite.compute_truncated_gb": ("rewrite.gb_elements", lambda gb: len(gb.elements)),
}


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # metric -> calls, self, total
        self.layer_self = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.jobs = []
        self._depth = defaultdict(int)
        self._stack = [[0.0]]
        self._span_stack = []
        self._job = None
        self._seen_reductions = set()
        self._undo = []
        self.missing = []

    # -- wrappers ------------------------------------------------------------

    def _counted(self, metric, fn):
        stats = self.stats[metric]

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, metric, fn, keep_span):
        stats = self.stats[metric]
        layer = metric.split(".")[0]
        layer_self, depth, stack, span_stack = (
            self.layer_self, self._depth, self._stack, self._span_stack)
        counter = _RESULT_COUNTERS.get(metric)
        on_input = self._note_reduction if metric == "rewrite.reduce" else None
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stats[0] += 1
            if on_input is not None:
                on_input(args[1])
            frame = [0.0]
            stack.append(frame)
            level = depth[metric]
            depth[metric] = level + 1
            if keep_span:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[metric] = level
                elapsed = t1 - t0
                stack[-1][0] += elapsed
                own = elapsed - frame[0]
                stats[1] += own
                layer_self[layer] += own
                if level == 0:
                    stats[2] += elapsed
                if keep_span:
                    span_stack.pop()
                    tracer.spans[sid] = (sid, parent, tracer._job, metric, t0, t1)
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](result)
            return result
        return wrapper

    def _note_reduction(self, f):
        key = frozenset(f.coeffs.items())
        if key in self._seen_reductions:
            self.counters["rewrite.reduce.repeats"] += 1
        else:
            self._seen_reductions.add(key)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every trace point; a point the package no longer has is
        listed in ``missing`` and its metrics stay 0."""
        package = [m for name, m in sys.modules.items()
                   if name == "hopfpbw" or name.startswith("hopfpbw.")]
        self.missing = []
        for owner, attr, metric, kind in POINTS:
            module_name, _, class_name = owner.partition(".")
            target = sys.modules.get(f"hopfpbw.{module_name}")
            if class_name:
                target = getattr(target, class_name, None)
            original = vars(target).get(attr) if target is not None else None
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            wrapper = self._wrap(metric, kind, original)
            if class_name:
                setattr(target, attr, wrapper)
                self._undo.append((target, attr, original))
                continue
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def _wrap(self, metric, kind, fn):
        if kind == COUNT:
            return self._counted(metric, fn)
        return self._timed(metric, fn, keep_span=kind == SPAN)

    # -- jobs ------------------------------------------------------------------

    def begin_job(self, job_id):
        self._job = job_id
        self._seen_reductions = set()
        self._job_start = ({m: s[0] for m, s in self.stats.items()}, dict(self.layer_self))

    def end_job(self):
        calls, layer_self = self._job_start
        self.jobs.append({
            "job": self._job,
            "calls": {m: s[0] - calls.get(m, 0) for m, s in self.stats.items()
                      if s[0] != calls.get(m, 0)},
            "self_s": {layer: t - layer_self.get(layer, 0.0)
                       for layer, t in self.layer_self.items()},
        })
        self._job = None
        self._seen_reductions = set()

    # -- results ---------------------------------------------------------------

    def metrics(self, passes):
        """Per-pass values of every ``LAYER_METRICS`` entry except the
        ``trace.overhead_s`` the caller measures."""
        per_pass = {}
        for metric, (calls, own, total) in self.stats.items():
            per_pass[f"{metric}.calls"] = calls / passes
            per_pass[f"{metric}.self_s"] = own / passes
            per_pass[f"{metric}.total_s"] = total / passes
        for layer in LAYERS:
            per_pass[f"{layer}.self_s"] = self.layer_self[layer] / passes
        for name, value in self.counters.items():
            per_pass[name] = value / passes
        stats = self.stats
        per_pass["fields.ops"] = stats["fields.ops"][0] / passes
        for cls in ("poly.Polynomial", "poly.TensorElement", "coalg.Comultiplication"):
            per_pass[f"{cls}.constructions"] = stats[cls][0] / passes
        enumerated = self.counters["word.enumerate_lyndon.words"]
        kept = self.counters["rewrite.irreducible_lyndon_words.words"]
        per_pass["word.lyndon_kept_ratio"] = kept / enumerated if enumerated else 0.0
        reductions = stats["rewrite.reduce"][0]
        repeats = self.counters["rewrite.reduce.repeats"]
        per_pass["rewrite.reduce.repeat_share"] = repeats / reductions if reductions else 0.0
        per_pass["trace.spans"] = len(self.spans) / passes
        return {m: per_pass.get(m, 0) for m in LAYER_METRICS if m != "trace.overhead_s"}

    def write_spans(self, path):
        """One JSON object per line: id, parent, job, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": start, "end": end}) + "\n")
