"""The measured process: imports the package, builds one workload from its
seed, runs warm-up rounds and then timed rounds for the given seconds, and
prints one JSON line with the timings, the machine-speed factor of each
round, the outputs of the first round and whether every later round
reproduced them. It imports nothing for checking, so its peak resident set
is the package's own.

Run through run.py, which starts it with the checkout's src/ on PYTHONPATH
and passes the monotonic time at which it was spawned.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import specs
import speed
import tracing

# Warm-up before timing: the first in-process rounds run markedly slower
# than later ones; a cli round is long and starts cold on purpose.
WARMUP_S = {"orbits": 3.0, "closed_form": 3.0, "cli": 0.0}
WORKLOADS = tuple(WARMUP_S)
# the calibration kernel runs between operations at least this often
CALIBRATE_EVERY_S = 0.2


class Workload:
    """One workload set up in this process: its ops and trace-only extras."""

    def __init__(self, name, seed, tracer, out_dir, src_dir):
        import poncelet

        self.name = name
        self.tracer = tracer
        self.extras = []
        # the complete-integral cache hit ratio is a closed_form layer metric
        self.cache_info = (poncelet.elliptic._K_agm.cache_info
                           if tracer is not None and name == "closed_form" else None)
        count = tracer.count if tracer is not None else _ignore
        if name == "orbits":
            import orbits
            api = tracing.bind(orbits.FUNCTIONS, tracer)
            self.inputs, ops = orbits.build(specs.orbits_spec(seed), poncelet, api, count)
        elif name == "closed_form":
            import closed_form
            api = tracing.bind(closed_form.FUNCTIONS, tracer)
            wrap = tracer.wrap if tracer is not None else (lambda _name, fn: fn)
            self.inputs, ops = closed_form.build(specs.closed_form_spec(seed), poncelet,
                                                 api, count, wrap)
        else:
            import cli_mix
            self.inputs, ops, self.extras = cli_mix.build(specs.cli_spec(seed), out_dir,
                                                          tracer, src_dir)
        if tracer is not None:
            ops = [(kind, label, tracer.wrap(f"op.{kind}", thunk), export)
                   for kind, label, thunk, export in ops]
        self.ops = ops
        self.reference = None  # exported outputs of the first round
        self.digest = None
        self.reproduced = True

    def round(self, index):
        """Run every op once: (op latencies, their speed factors, the
        round's speed factor)."""
        if self.tracer is not None:
            self.tracer.round = index
        gc.collect()
        clock = time.perf_counter
        latencies, results = [], []
        cal = speed.Bracket(CALIBRATE_EVERY_S)
        if self.cache_info is not None:
            before = self.cache_info()
        for _kind, _label, thunk, _export in self.ops:
            t0 = clock()
            results.append(thunk())
            latencies.append(clock() - t0)
            cal.done(latencies[-1])
        cal.flush()
        if self.cache_info is not None:
            after = self.cache_info()
            self.tracer.count("elliptic.K_cache.hits", after.hits - before.hits)
            self.tracer.count("elliptic.K_cache.misses", after.misses - before.misses)
        for extra in self.extras:
            extra()
            cal.done(0.0, force=True)
        self._compare([[label, export(r)] for (_k, label, _t, export), r
                       in zip(self.ops, results)])
        return latencies, cal.factors[:len(latencies)], speed.factor(cal.samples)

    def _compare(self, outputs):
        digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
        if self.reference is None:
            self.reference, self.digest = outputs, digest
        elif digest != self.digest:
            self.reproduced = False

    def run(self, seconds, warmup_s, min_warmup=1):
        """At least `min_warmup` warm-up rounds and more until `warmup_s` have
        passed, then timed rounds until `seconds` have passed.
        Returns the number of warm-up rounds and, per timed round, the op
        latencies, their speed factors and the round's speed factor."""
        start = time.perf_counter()
        warm = 0
        while warm < min_warmup or time.perf_counter() - start < warmup_s:
            self.round(None)
            warm += 1
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            latencies, factors, f = self.round((self.name, len(rounds)))
            rounds.append({"op_s": latencies, "op_factor": factors, "factor": f})
        return warm, rounds


def _ignore(_name, _n=1):
    pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    import poncelet

    if not os.path.abspath(poncelet.__file__).startswith(os.path.abspath(args.src)):
        sys.exit(f"poncelet imported from {poncelet.__file__}, not from {args.src}")
    tracer = tracing.Tracer() if args.trace else None
    w = Workload(args.workload, args.seed, tracer, args.out, args.src)
    setup_s = time.monotonic() - args.spawned_at
    setup_calibration_s = statistics.median(speed.measure() for _ in range(3))

    warm, rounds = w.run(args.seconds, WARMUP_S[w.name])
    if w.name == "cli":
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": w.name,
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "warmup_rounds": warm,
        "rounds": rounds,
        "ops_per_round": len(w.ops),
        "peak_rss_mib": peak_kib / 1024.0,
        "inputs": w.inputs,
        "outputs": w.reference,
        "reproduced": w.reproduced,
    }
    if tracer is not None:
        factors = {(w.name, i): r["factor"] for i, r in enumerate(rounds)}
        done = {w.name: list(factors)}
        # One traced round of each other workload, so that every layer metric
        # is measured in every traced run.
        for other in WORKLOADS:
            if other != w.name:
                o = Workload(other, args.seed, tracer, args.out, args.src)
                _warm, (r,) = o.run(0.0, min(WARMUP_S[other], 1.0), min_warmup=0)
                factors[(other, 0)] = r["factor"]
                done[other] = [(other, 0)]
                result["reproduced"] = result["reproduced"] and o.reproduced
        result["per_layer"] = tracing.layer_metrics(tracer, done, factors)
        path = os.path.join(args.out, f"trace-{w.name}-seed{args.seed}.json")
        tracer.dump(path, {"workload": w.name, "seed": args.seed, "rounds": rounds,
                           "setup_s": setup_s, "per_layer": result["per_layer"]})
        result["trace_file"] = path
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
