"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json at the repository root lists the same metrics; run.py prints
exactly these, end-to-end ones untraced and per-layer ones traced.
"""

CLI_COMMANDS = ("rotation_lambda", "rotation_confocal", "rotation_pencil", "rotation_steps",
                "invert", "polygon", "render", "sweep", "verify")
VERIFY_SUITES = ("elliptic", "confocal", "pencil", "cayley", "composition")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def _busy(*spans):
    return [(f"{s}.busy_s", "s", "lower") for s in spans]


def _count(*names):
    return [(n, "count", "lower") for n in names]


PER_LAYER = tuple(
    _busy("elliptic.ellint_K", "elliptic.ellint_F", "elliptic.jacobi")
    + _count("elliptic.ellint_K.calls", "elliptic.ellint_F.calls", "elliptic.jacobi.calls")
    + [("elliptic.K_cache_hit_ratio", "ratio", "higher")]
    + _busy("pencil.build_pencil") + _count("pencil.build_pencil.calls")
    + _busy("pencil.member", "pencil.dual", "pencil.f_of_nu")
    + _busy("maps.polygon", "maps.run_composition", "maps.poncelet_step",
            "maps.estimate_rotation")
    + _count("maps.polygon.steps", "maps.run_composition.steps", "maps.poncelet_step.steps",
             "maps.estimate_rotation.steps")
    + [("maps.step_us", "us", "lower")]
    + _busy("maps.invert_rho", "maps.rho_of_nu", "maps.covering")
    + _busy("billiard.rotation_estimate") + _count("billiard.rotation_estimate.cell_steps")
    + [("billiard.cell_step_ns", "ns", "lower")]
    + _busy("billiard.rotation_confocal", "billiard.porism_f")
    + _busy("cayley.member_rebuild", "cayley.cayley_condition")
    + _count("cayley.cayley_condition.calls")
    + [("cayley.on_certified_ratio", "ratio", "higher")]
    + _busy("svg.svg_figure") + [("svg.bytes", "bytes", "lower")]
    + _busy(*(f"verify.{s}" for s in VERIFY_SUITES))
    + [("cli.python_startup_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    + [(f"cli.{c}.p50_ms", "ms", "lower") for c in CLI_COMMANDS]
    + [(f"cli.{c}.inproc_ms", "ms", "lower") for c in CLI_COMMANDS]
)
