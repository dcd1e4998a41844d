"""`cli` workload: a fixed mix of `poncelet` subcommands, one process each.

Every command runs as `python -m poncelet.cli ...` from the checkout's
sources, one at a time, so interpreter start-up, the numpy import and cold
per-process caches are paid on every operation.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

TIMEOUT_S = 120
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import poncelet; "
                 "print(time.perf_counter() - t)")


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def commands(spec, out_dir):
    """(name, argv, svg path or None) for every command of the mix."""
    pencil_file = os.path.join(out_dir, "pencil.json")
    lam, ell = _floats(spec.lam), f"{spec.ell.numerator}/{spec.ell.denominator}"
    svg_invert = os.path.join(out_dir, "invert.svg")
    svg_render = os.path.join(out_dir, "render.svg")
    grid = f"{spec.sweep_grid}x{spec.sweep_grid}"
    return pencil_file, [
        ("rotation_lambda", ["rotation", "--lambda", lam], None),
        ("rotation_confocal", ["rotation", "--confocal", _floats(spec.confocal)], None),
        ("rotation_pencil", ["rotation", "--pencil", pencil_file], None),
        ("rotation_steps", ["rotation", "--lambda", _floats(spec.steps_lam),
                            "--steps", str(spec.estimate_steps)], None),
        ("invert", ["invert", "--lambda", lam, "--ell", ell, "--svg", svg_invert], svg_invert),
        ("polygon", ["polygon", "--lambda", lam, "--ell", ell], None),
        ("render", ["render", "--pencil", pencil_file, "--ell", ell, "--svg", svg_render],
         svg_render),
        ("sweep", ["sweep", "--grid", grid, "--steps", str(spec.sweep_steps)], None),
        ("verify", ["verify", "--suite", "all"], None),
    ]


def _run(argv, env):
    return subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def _export(result):
    """Exit code, stdout and the SVG the command wrote, which is removed so
    that the next round cannot read a stale one."""
    proc, svg_path = result
    out = {"returncode": proc.returncode, "stdout": proc.stdout}
    if svg_path is not None and os.path.exists(svg_path):
        with open(svg_path) as fh:
            out["svg"] = fh.read()
        os.remove(svg_path)
    return out


def build(spec, out_dir, tracer, src_dir):
    """Set-up: (inputs, ops, extras). `extras` run after the timed
    operations of each traced round: the same commands through cli.main in
    this process, the five verify suites, and start-up and import probes."""
    from poncelet import cli, verify

    pencil_file, mix = commands(spec, out_dir)
    keys = ("c11", "c12", "c13", "c22", "c23", "c33")
    with open(pencil_file, "w") as fh:
        json.dump({"C1": dict(zip(keys, spec.pencil.C1)), "C2": dict(zip(keys, spec.pencil.C2))},
                  fh)
    env = dict(os.environ, PYTHONPATH=src_dir)
    ops = []
    for name, argv, svg in mix:
        call = _run if tracer is None else tracer.wrap(f"cli.{name}", _run)
        ops.append((name, name,
                    lambda argv=[sys.executable, "-m", "poncelet.cli", *argv], svg=svg, call=call:
                        (call(argv, env), svg), _export))
    extras = []
    if tracer is not None:
        def inproc(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        for name, argv, svg in mix:
            if svg is not None:
                argv = argv[:-1] + [svg[:-4] + "-inproc.svg"]
            extras.append(lambda f=tracer.wrap(f"cli.{name}.inproc", inproc), a=argv: f(a))
        for suite in (s for s in verify.SUITES if s != "all"):
            extras.append(tracer.wrap(f"verify.{suite}", lambda s=suite: verify.run_suite(s)))
        startup = tracer.wrap("cli.python_startup", _run)
        extras.append(lambda: startup([sys.executable, "-c", "pass"], env))

        def import_probe():
            proc = _run([sys.executable, "-c", _IMPORT_PROBE], env)
            tracer.sample("cli.import_s", float(proc.stdout))

        extras.append(import_probe)
    return {"commands": [[name, argv] for name, argv, _ in mix]}, ops, extras
