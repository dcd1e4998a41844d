"""Benchmark entry point.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It starts worker.py in a fresh interpreter
with the checkout's src/ on PYTHONPATH, checks the outputs that worker
reports against scipy and against properties the method must have, and
prints one JSON line: whether every check held, the operations attempted
and failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
of a traced run (--trace 1). Details of any failed check go to stderr.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import metrics
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("orbits", "closed_form", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "poncelet", "__init__.py")):
        sys.exit(f"no package sources at {os.path.join(src, 'poncelet')}; "
                 "run from the root of a checkout")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)

    env = dict(os.environ, PYTHONPATH=src)
    # One CPU for the worker and every process it starts, so that the
    # calibration kernel runs where the measured work runs (see speed.py).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # set-up is bracketed by calibrations, as operations are (speed.py)
    speed.measure()
    calibrated_before = statistics.median(speed.measure() for _ in range(3))
    spawned_at = time.monotonic()
    # its own session, so that a timeout can stop it with every command it started
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spawned-at", repr(spawned_at), "--out", out, "--src", src],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        sys.exit(f"worker exited with code {proc.returncode}")
    res = json.loads(stdout.strip().splitlines()[-1])

    import checks  # scipy is imported here, after the measured process ended

    problems, failed_per_round = checks.check(args.workload, args.seed, res)
    if not res["reproduced"]:
        problems.append("a later round's outputs differ from the first round's")
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    rounds = res["rounds"]

    # times at reference machine speed (see speed.py)
    scaled = [[t * f for t, f in zip(r["op_s"], r["op_factor"])] for r in rounds]
    available = {
        "setup_s": res["setup_s"] * 2.0 * speed.REFERENCE_S / (
            calibrated_before + res["setup_calibration_s"]),
        "wall_s": statistics.median(sum(ops) for ops in scaled),
        "op_p50_ms": 1e3 * statistics.median(t for ops in scaled for t in ops),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    sys.stderr.write(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, unscaled wall_s "
        f"{statistics.median(sum(r['op_s']) for r in rounds):.4f}, speed factor median "
        f"{statistics.median(r['factor'] for r in rounds):.3f}, "
        + ", ".join(f"{k} {v:.4f}" for k, v in available.items()) + "\n")
    if args.trace:
        table, available = metrics.PER_LAYER, res["per_layer"]
    else:
        table = metrics.END_TO_END
    missing = [name for name, _unit, _better in table if name not in available]
    if missing:
        sys.exit(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * res["ops_per_round"],
        "failed": len(rounds) * failed_per_round,
        "metrics": {name: {"value": available[name], "unit": unit}
                    for name, unit, _better in table},
    }))


if __name__ == "__main__":
    main()
