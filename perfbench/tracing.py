"""In-memory spans around the benchmark's calls into the package.

A span is [name, start_ns, end_ns, parent, round]. Operations open a span of
their own, so the package calls of one operation share a parent; a span's
self time is its duration minus the durations of its children. Counters
(orbit steps, billiard cell-steps, certified members) are kept per round
next to the spans. Nothing is written until the run ends.
"""

import importlib
import json
import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)  # (round, name) -> count
        self.samples = []  # (round, name, value)
        self.round = -1
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()

        return traced

    def count(self, name, n=1):
        if self.round is not None:
            self.counters[(self.round, name)] += n

    def sample(self, name, value):
        self.samples.append((self.round, name, value))

    # -- aggregation ------------------------------------------------------

    def self_times(self):
        """Per span: duration minus children's durations, in seconds."""
        own = [(s[2] - s[1]) for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return [t * 1e-9 for t in own]

    def per_round(self, rounds):
        """{name: [self-time sum in each round]} and {name: [calls ...]}."""
        busy = defaultdict(lambda: dict.fromkeys(rounds, 0.0))
        calls = defaultdict(lambda: dict.fromkeys(rounds, 0))
        wanted = set(rounds)
        for s, own in zip(self.spans, self.self_times()):
            if s[4] in wanted:
                busy[s[0]][s[4]] += own
                calls[s[0]][s[4]] += 1
        return ({k: [v[r] for r in rounds] for k, v in busy.items()},
                {k: [v[r] for r in rounds] for k, v in calls.items()})

    def durations(self, name, rounds):
        """(round, seconds) of every span with this name in these rounds."""
        wanted = set(rounds)
        return [(s[4], (s[2] - s[1]) * 1e-9) for s in self.spans
                if s[0] == name and s[4] in wanted]

    def counter(self, name, rounds):
        return [self.counters[(r, name)] for r in rounds]

    def dump(self, path, extra):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["span_names"] = names
        doc["spans"] = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        doc["counters"] = [[r, n, c] for (r, n), c in self.counters.items()]
        doc["samples"] = self.samples
        with open(path, "w") as fh:
            json.dump(doc, fh)


def bind(names, tracer=None):
    """Namespace of package functions named '<module>.<function>'; with a
    tracer, each call records a span under that name. Untraced runs get the
    functions themselves, so they pay nothing for the option."""
    ns = SimpleNamespace()
    for name in names:
        module, fn = name.split(".")
        f = getattr(importlib.import_module(f"poncelet.{module}"), fn)
        setattr(ns, fn, f if tracer is None else tracer.wrap(name, f))
    return ns


def layer_metrics(tracer, rounds_by_workload, factors):
    """Every per-layer figure the traced rounds support, by metric name.

    Busy times and counts are per round of the workload that made them
    (median over its traced rounds); latencies are medians over all calls.
    Times are scaled to reference speed by each round's factor.
    """
    out = {}
    for rounds in rounds_by_workload.values():
        busy, calls = tracer.per_round(rounds)
        f = [factors[r] for r in rounds]
        for name in busy:
            if not name.startswith("op."):
                out[f"{name}.busy_s"] = statistics.median(b * k for b, k in zip(busy[name], f))
                out[f"{name}.calls"] = statistics.median(calls[name])
        for name in {n for r, n in tracer.counters if r in rounds}:
            out[name] = statistics.median(tracer.counter(name, rounds))
        for name in {s[0] for s in tracer.spans if s[0].startswith("cli.") and s[4] in rounds}:
            ms = 1e3 * statistics.median(d * factors[r] for r, d in tracer.durations(name, rounds))
            out[name + "_ms" if name.endswith((".inproc", ".python_startup")) else
                name + ".p50_ms"] = ms
        for name in {n for r, n, _v in tracer.samples if r in rounds}:
            out[name] = statistics.median(v * factors[r] for r, n, v in tracer.samples
                                          if n == name and r in rounds)

    def total(names):
        return sum(out.get(n, 0.0) for n in names)

    kernels = ("maps.polygon", "maps.run_composition", "maps.poncelet_step",
               "maps.estimate_rotation")
    if all(f"{k}.steps" in out for k in kernels):
        out["maps.step_us"] = 1e6 * total(f"{k}.busy_s" for k in kernels) / total(
            f"{k}.steps" for k in kernels)
    if "billiard.rotation_estimate.cell_steps" in out:
        out["billiard.cell_step_ns"] = 1e9 * out["billiard.rotation_estimate.busy_s"] / out[
            "billiard.rotation_estimate.cell_steps"]
    if "elliptic.K_cache.hits" in out:
        hits, misses = out.pop("elliptic.K_cache.hits"), out.pop("elliptic.K_cache.misses")
        out["elliptic.K_cache_hit_ratio"] = hits / (hits + misses)
    if "cayley.on_attempted" in out:
        out["cayley.on_certified_ratio"] = out.pop("cayley.on_certified") / out.pop(
            "cayley.on_attempted")
    if "cli.import_s" in out:
        out["cli.import_ms"] = 1e3 * out.pop("cli.import_s")
    return out
