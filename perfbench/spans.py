"""Span recorder for the traced run.

The recorder wraps public functions of the package's modules from outside:
it replaces the module (or class) attribute with a wrapper, so calls made
through the attribute, including calls between functions of the same module,
pass through it.  Functions called thousands of times per request (group
arithmetic and element validation) only count their calls; every other
wrapped function records a span (name, start, end, parent span, request id,
outcome).  Spans stay in memory until the run writes them out.
"""

import functools
import json
import time
from collections import defaultdict

# (module name, attribute path, mode).  Layers are the package's modules.
TARGETS = [
    ("group", "add", "count"),
    ("group", "GroupParams.validate", "count"),
    ("group", "span", "span"),
    ("group", "cosets", "span"),
    ("labeling", "verify", "span"),
    ("labeling", "partition_to_labeling", "span"),
    ("labeling", "labeling_from_dict", "span"),
    ("constructor", "construct", "span"),
    ("constructor", "feasibility", "span"),
    ("constructor", "plan_components", "span"),
    ("constructor", "small_p_patterns", "span"),
    ("oracle", "search", "span"),
    ("oracle", "table_row", "span"),
    ("cli", "main", "span"),
]

NAME, START, END, PARENT, REQUEST, OUTCOME, EXTRA = range(7)


def _oracle_extra(verdict):
    return {"outcome": verdict.outcome, "nodes": verdict.nodes, "models": len(verdict.models_tried)}


EXTRACTORS = {"oracle.search": _oracle_extra}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.request = None
        self._stack = []
        self._undo = []

    def install(self, modules):
        """Wrap every target of the given {layer name: module} mapping."""
        for layer, path, mode in TARGETS:
            if layer not in modules:
                continue
            owner = modules[layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            name = f"{layer}.{attr}"
            wrapper = self._counter(name, fn) if mode == "count" else self._spanner(name, fn)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, name, fn):
        spans, stack = self.spans, self._stack
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            outcome, extra = "ok", None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    extra = extract(result)
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request, outcome, extra)

        return wrapper

    def self_times(self):
        """Span duration minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "request", "outcome", "extra"), s))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def layer_metrics(tracer, requests):
    """Per-layer figures from one traced pass over ``requests`` requests."""
    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    self_by_name = defaultdict(float)
    for s, own in zip(tracer.spans, tracer.self_times()):
        by_name[s[NAME]].append(s)
        self_by_layer[s[NAME].split(".")[0]] += own
        self_by_name[s[NAME]] += own

    def calls(name):
        return len(by_name[name]) / requests

    def ms(name, keep=lambda s: True):
        return sum(s[END] - s[START] for s in by_name[name] if keep(s)) * 1000 / requests

    plans = by_name["constructor.plan_components"]
    feas = by_name["constructor.feasibility"]
    searches = by_name["oracle.search"]
    search_s = sum(s[END] - s[START] for s in searches)
    nodes = sum(s[EXTRA]["nodes"] for s in searches if s[EXTRA])
    m = {
        "group.add.calls": (tracer.counts["group.add"] / requests, "1/req"),
        "group.validate.calls": (tracer.counts["group.validate"] / requests, "1/req"),
        "group.cosets.calls": (calls("group.cosets"), "1/req"),
        "group.cosets.ms": (ms("group.cosets"), "ms/req"),
        "group.span.calls": (calls("group.span"), "1/req"),
        "labeling.verify.calls": (calls("labeling.verify"), "1/req"),
        "labeling.verify.ms": (ms("labeling.verify"), "ms/req"),
        "labeling.partition_to_labeling.ms": (ms("labeling.partition_to_labeling"), "ms/req"),
        "constructor.construct.self_ms": (
            self_by_name["constructor.construct"] * 1000 / requests, "ms/req"),
        "constructor.plan_components.ms": (ms("constructor.plan_components"), "ms/req"),
        "constructor.small_p_patterns.ms": (ms("constructor.small_p_patterns"), "ms/req"),
        "constructor.plan_components.attempts": (len(plans), "count"),
        "constructor.recipe_hit": (
            sum(s[OUTCOME] == "ok" for s in plans) / len(plans) if plans else 0.0, "ratio"),
        "constructor.feasibility.us": (
            sum(s[END] - s[START] for s in feas) * 1e6 / len(feas) if feas else 0.0, "us/call"),
        "oracle.search.calls": (calls("oracle.search"), "1/req"),
        "oracle.search.found_ms": (
            ms("oracle.search", lambda s: s[EXTRA] and s[EXTRA]["outcome"] == "found"), "ms/req"),
        "oracle.search.infeasible_ms": (
            ms("oracle.search", lambda s: s[EXTRA] and s[EXTRA]["outcome"] == "infeasible"),
            "ms/req"),
        "oracle.nodes": (nodes, "count"),
        "oracle.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
        "oracle.models_tried": (
            sum(s[EXTRA]["models"] for s in searches if s[EXTRA]) / len(searches)
            if searches else 0.0, "1/call"),
    }
    for layer in ("group", "labeling", "constructor", "oracle", "cli"):
        m[f"{layer}.self_ms"] = (self_by_layer[layer] * 1000 / requests, "ms/req")
    return m
