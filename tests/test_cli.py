"""CLI surface: subcommands, exit codes, JSON/CSV/SVG output."""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poncelet.cli import main
from poncelet.conics import SymmetricConic, unit_circle
from poncelet.pencil import build_pencil

LAM = "0.2,0.125,0.111111"
ROOT = pathlib.Path(__file__).resolve().parents[1]
# child processes import this checkout's package, installed or not
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}
SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_rotation_lambda_report(capsys):
    rep = run_json(capsys, "rotation", "--lambda", LAM, "--nu", "0,1")
    assert list(rep) == ["command", "lambda", "e", "nu", "f", "rho"]
    assert rep["command"] == "rotation"
    assert rep["e"] == pytest.approx(0.918559, abs=5e-6)
    assert rep["f"] == pytest.approx(math.sqrt(3.0) / 2.0, abs=5e-6)
    assert rep["rho"] == pytest.approx(1.0 / 6.0, abs=1e-5)


def test_rotation_confocal_caption(capsys):
    rep = run_json(capsys, "rotation", "--confocal", "0.8,0.572851")
    assert rep["rho"] == pytest.approx(2.0 / 7.0, abs=5e-6)


def test_rotation_with_estimate(capsys):
    rep = run_json(capsys, "rotation", "--lambda", LAM, "--steps", "2000")
    assert rep["residual"] == abs(rep["rho_estimate"] - rep["rho"])
    assert rep["residual"] < 1e-3


def test_rotation_rejects_bad_delta_pair(capsys):
    rc, out, err = run_cli(capsys, "rotation", "--confocal", "0.5,0.6")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "not_in_delta"


def test_rotation_needs_exactly_one_source(capsys):
    rc, _, err = run_cli(capsys, "rotation")
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"
    rc, _, err = run_cli(capsys, "rotation", "--lambda", LAM, "--confocal", "0.8,0.5")
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"


def test_rotation_rejects_malformed_numbers(capsys):
    rc, _, err = run_cli(capsys, "rotation", "--lambda", "0.2,0.125")
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"
    rc, _, err = run_cli(capsys, "rotation", "--lambda", LAM, "--nu", "a,b")
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"


def _assert_orbit_shape(orbit):
    assert list(orbit) == ["points", "steps", "winding", "closure_residual", "rho"]
    assert len(orbit["points"]) == orbit["steps"] + 1


def test_invert_quadrilateral_with_sidecars(capsys, tmp_path):
    svg = tmp_path / "quad.svg"
    out = tmp_path / "quad.json"
    rc, stdout, _ = run_cli(
        capsys, "invert", "--lambda", LAM, "--ell", "1/4", "--svg", str(svg), "--out", str(out)
    )
    assert rc == 0 and stdout == ""
    rep = json.loads(out.read_text())
    assert rep["ell_exact"] == "1/4"
    assert rep["rho"] == pytest.approx(0.25, abs=1e-10)
    _assert_orbit_shape(rep["orbit"])
    assert rep["orbit"]["steps"] == 4
    assert rep["orbit"]["winding"] == 1
    assert rep["orbit"]["closure_residual"] < 1e-8

    root = ET.parse(svg).getroot()
    assert root.tag == SVG_NS + "svg"
    polylines = root.findall(f"./{SVG_NS}g/{SVG_NS}polyline")
    assert len(polylines) == 3  # outer conic, inner member, polygon

    # every polygon vertex sits on the outer conic within 0.1% of the
    # viewBox scale (svg y is flipped)
    scale = max(float(v) for v in root.get("viewBox").split()[2:])
    l1, l2, l3 = (float(v) for v in LAM.split(","))
    P = build_pencil(unit_circle(), SymmetricConic(l1, 0.0, 0.0, l2, 0.0, -l3))
    C = P.C1.matrix
    for tok in polylines[-1].get("points").split():
        x, y = (float(v) for v in tok.split(","))
        p = np.array([x, -y, 1.0])
        grad = 2.0 * (C[:2, :2] @ p[:2] + C[:2, 2])
        dist = abs(p @ C @ p) / np.hypot(*grad)
        assert dist < 1e-3 * scale


def test_invert_confocal_e_heptagon(capsys):
    rep = run_json(capsys, "invert", "--ell", "2/7", "--confocal-e", "0.8")
    assert rep["f"] == pytest.approx(0.572851, abs=5e-6)
    assert rep["orbit"]["steps"] == 7
    assert rep["orbit"]["winding"] == 2
    assert rep["orbit"]["closure_residual"] < 1e-7


def test_invert_rejects_out_of_range_ell(capsys):
    rc, _, err = run_cli(capsys, "invert", "--lambda", LAM, "--ell", "0.6")
    assert rc == 2 and json.loads(err)["error"] == "invalid_rotation"
    rc, _, err = run_cli(capsys, "invert", "--lambda", LAM, "--ell", "5/4")
    assert rc == 2 and json.loads(err)["error"] == "invalid_rotation"
    rc, _, err = run_cli(capsys, "invert", "--lambda", LAM, "--ell", "wat")
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"


def test_invert_source_conflict(capsys):
    rc, _, err = run_cli(
        capsys, "invert", "--lambda", LAM, "--confocal-e", "0.8", "--ell", "1/4"
    )
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"


def test_polygon_emits_plain_orbit_json(capsys):
    orbit = run_json(capsys, "polygon", "--lambda", LAM, "--ell", "2/7")
    _assert_orbit_shape(orbit)
    assert orbit["steps"] == 7 and orbit["winding"] == 2


def test_polygon_open_orbit(capsys):
    orbit = run_json(capsys, "polygon", "--lambda", LAM, "--nu", "0.04,1", "--steps", "50")
    _assert_orbit_shape(orbit)
    assert orbit["steps"] == 50
    assert orbit["closure_residual"] > 1e-7


def test_pencil_json_file_sources(capsys, tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"lambda": [0.2, 0.125, 1.0 / 9.0]}))
    rep = run_json(capsys, "rotation", "--pencil", str(path))
    assert rep["rho"] == pytest.approx(1.0 / 6.0, abs=1e-12)

    frag1 = {"c11": 1.0, "c12": 0.0, "c13": 0.0, "c22": 1.0, "c23": 0.0, "c33": -1.0}
    frag2 = {"c11": 0.2, "c12": 0.0, "c13": 0.0, "c22": 0.125, "c23": 0.0, "c33": -1.0 / 9.0}
    path.write_text(json.dumps({"C1": frag1, "C2": frag2}))
    rep = run_json(capsys, "rotation", "--pencil", str(path))
    assert rep["rho"] == pytest.approx(1.0 / 6.0, abs=1e-12)

    path.write_text("{not json")
    rc, _, err = run_cli(capsys, "rotation", "--pencil", str(path))
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"
    path.write_text(json.dumps({"C1": frag1}))
    rc, _, err = run_cli(capsys, "rotation", "--pencil", str(path))
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"


@pytest.mark.parametrize(
    "argv, pencil_text",
    [
        (["polygon", "--lambda", LAM, "--steps", "-3"], None),
        (["sweep", "--grid", "2x2", "--steps", "0"], None),
        (["rotation", "--lambda", "0.2,0.125,nan"], None),
        (["rotation"], '{"lambda": ["a", 1, 2]}'),
        (["rotation"], "3.5"),
    ],
    ids=["negative-steps", "zero-sweep-steps", "nan-lambda", "string-lambda", "scalar-json"],
)
def test_contract_rejects_bad_input(capsys, tmp_path, argv, pencil_text):
    if pencil_text is not None:
        path = tmp_path / "pencil.json"
        path.write_text(pencil_text)
        argv = argv + ["--pencil", str(path)]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "invalid_parameter"


def test_non_finite_report_is_an_error(capsys, monkeypatch):
    import poncelet.cli as cli

    real = cli.polygon

    def open_forever(*args, **kwargs):
        orbit = real(*args, **kwargs)
        return dataclasses.replace(orbit, closure_residual=math.inf)

    monkeypatch.setattr(cli, "polygon", open_forever)
    rc, out, err = run_cli(capsys, "polygon", "--lambda", LAM, "--ell", "1/4")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "non_finite_result"


def test_sweep_csv_shape_and_determinism(capsys):
    rc, out1, _ = run_cli(capsys, "sweep", "--grid", "4x4", "--steps", "4000")
    rc2, out2, _ = run_cli(capsys, "sweep", "--grid", "4x4", "--steps", "4000")
    assert rc == 0 and rc2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "e,f,rho_closed_form,rho_numeric,residual"
    assert len(lines) == 17
    for line in lines[1:]:
        e, f, rc_, rn, res = (float(v) for v in line.split(","))
        assert 0.0 < f < e < 1.0
        assert res == abs(rc_ - rn) < 5e-4


def test_sweep_rejects_bad_grid(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--grid", "4x0")
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"
    rc, _, err = run_cli(capsys, "sweep", "--grid", "four")
    assert rc == 2 and json.loads(err)["error"] == "invalid_parameter"


@pytest.mark.parametrize("suite", ["elliptic", "confocal", "pencil", "cayley", "composition"])
def test_verify_suites_pass(capsys, suite):
    rc, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert rc == 0
    rep = json.loads(out)
    assert rep["suite"] == suite and rep["passed"] is True
    for check in rep["checks"]:
        assert set(check) == {"name", "residual", "tol", "bound", "pass"}
        assert check["pass"] is True


def test_verify_all_aggregates(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert rc == 0
    rep = json.loads(out)
    assert rep["passed"] is True and len(rep["checks"]) >= 25


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid_parameter"


def test_usage_error_is_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polygon", "--lambda", LAM, "--steps", "abc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid_parameter"


def test_degenerate_spectrum_is_one_json_line():
    # concentric circles: the pencil cubic has a double root; run as a
    # process so that any numpy warning would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "poncelet.cli", "rotation", "--lambda", "1,1,0.25"],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "degenerate_spectrum"
    assert "(1.0, 1.0, 0.25)" in err["message"]


def test_render_svg_document(capsys, tmp_path):
    svg = tmp_path / "tri.svg"
    rep = run_json(capsys, "render", "--lambda", LAM, "--ell", "1/3", "--svg", str(svg))
    assert rep["closed"] is True and rep["steps"] == 3
    root = ET.parse(svg).getroot()
    assert root.tag == SVG_NS + "svg"
    assert len(root.findall(f"./{SVG_NS}g/{SVG_NS}polyline")) == 3


def test_svg_byte_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run_json(capsys, "render", "--lambda", LAM, "--ell", "1/4", "--svg", str(a))
    run_json(capsys, "render", "--lambda", LAM, "--ell", "1/4", "--svg", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "poncelet.cli", "verify", "--suite", "elliptic"],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


@pytest.mark.parametrize("option", ["--out", "--svg"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_path_is_one_json_line(capsys, tmp_path, option, target):
    path = tmp_path / "missing" / "o.txt" if target == "missing-directory" else tmp_path
    rc, out, err = run_cli(capsys, "invert", "--lambda", LAM, "--ell", "1/3", option, str(path))
    assert rc == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["error"] == "invalid_parameter"
    assert error["message"].startswith("cannot write output file")


def test_negative_nu_usage_error_says_to_use_equals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rotation", "--lambda", LAM, "--nu", "-0.1,1"])
    assert exc.value.code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "expected one argument" in message and "--nu=-0.1,1" in message
    rep = run_json(capsys, "rotation", "--lambda", LAM, "--nu=-0.1,1")
    assert rep["nu"][0] < 0.0


def _imports_numpy(stderr):
    """Whether a `python -X importtime` run imported numpy."""
    return any(line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"
               for line in stderr.splitlines())


def test_scalar_commands_never_import_numpy(capsys, tmp_path):
    # axis-aligned pencils, the confocal closed form and the float kernel
    # need no array: each process finishes without numpy and prints what
    # main prints in this process
    lam_file = tmp_path / "lambda.json"
    lam_file.write_text(json.dumps({"lambda": [0.2, 0.125, 0.111111]}))
    commands = [
        ["rotation", "--lambda", LAM],
        ["rotation", "--confocal", "0.8,0.572851"],
        ["rotation", "--lambda", LAM, "--steps", "2000"],
        ["rotation", "--confocal", "0.8,0.572851", "--steps", "2000"],
        ["invert", "--lambda", LAM, "--ell", "2/7", "--svg", "SVG"],
        ["polygon", "--lambda", LAM, "--ell", "2/7"],
        ["rotation", "--pencil", str(lam_file)],
    ]
    for argv in commands:
        child = [str(tmp_path / "child.svg") if a == "SVG" else a for a in argv]
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "poncelet.cli", *child],
                              env=CHILD_ENV, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert not _imports_numpy(proc.stderr), argv
        local = [str(tmp_path / "local.svg") if a == "SVG" else a for a in argv]
        rc, out, _ = run_cli(capsys, *local)
        assert rc == 0 and out == proc.stdout, argv
        if "SVG" in argv:
            assert (tmp_path / "local.svg").read_text() == (tmp_path / "child.svg").read_text()
    # a pencil of general conics takes the eigendecomposition, and numpy
    frag = {"c11": 1.0, "c12": 0.0, "c13": 0.0, "c22": 1.0, "c23": 0.0, "c33": -1.0}
    inner = {**frag, "c11": 4.0, "c12": 1.0, "c22": 5.0}
    lam_file.write_text(json.dumps({"C1": frag, "C2": inner}))
    argv = ["rotation", "--pencil", str(lam_file)]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "poncelet.cli", *argv],
                          env=CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 0 and _imports_numpy(proc.stderr)


def _reject_constant(name):
    raise AssertionError(f"JSON holds {name}")


def _check_contract(argv):
    """Run main in this process: JSON on stdout with exit 0, or one JSON
    error line on stderr with exit 2; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc == 0:
        assert err.getvalue() == ""
        if "--out" in argv:
            assert out.getvalue() == ""
        else:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        return
    assert rc == 2 and out.getvalue() == "", (rc, out.getvalue())
    (line,) = err.getvalue().splitlines()
    assert set(json.loads(line, parse_constant=_reject_constant)) == {"error", "message"}


_EDGE = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-9, 0.111111, 0.125, 0.2,
         0.5, 1.0, 1e300, 1.7976931348623157e308, -1.0, math.inf, math.nan]
_number = st.one_of(st.sampled_from(_EDGE), st.floats(-2.0, 2.0), st.floats())


def _csv(n):
    return st.lists(_number, min_size=n, max_size=n).map(lambda v: ",".join(map(repr, v)))


_rho = st.one_of(
    st.fractions(-1, 2, max_denominator=40).map(str),
    _number.map(repr),
    st.sampled_from(["1/0", "1e400/1", "1" + "0" * 400 + "/3", "0.5", "abc", ""]),
)
_steps = st.one_of(st.integers(-3, 3000).map(str), st.sampled_from(["1e20", "abc", "0"]))
_path = st.sampled_from(["file", "missing-directory", "directory"])


@st.composite
def _argv(draw):
    lam = ["--lambda", draw(_csv(3))]
    command = draw(st.sampled_from(["rotation", "rotation-confocal", "invert", "polygon"]))
    if command == "rotation":
        argv = ["rotation", *lam, f"--nu={draw(_csv(2))}"]
    elif command == "rotation-confocal":
        argv = ["rotation", "--confocal", draw(_csv(2))]
    else:
        argv = [command, *lam, "--ell", draw(_rho)]
    if draw(st.booleans()):
        argv += ["--steps", draw(_steps)]
    if command in ("invert", "polygon") and draw(st.booleans()):
        argv += ["--svg", draw(_path)]
    if draw(st.booleans()):
        argv += ["--out", draw(_path)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
@example(argv=["rotation", "--lambda", LAM, "--out", "missing-directory"])
@example(argv=["polygon", "--lambda", LAM, "--ell", "1/3", "--svg", "directory"])
@example(argv=["invert", "--lambda", LAM, "--ell", "1" + "0" * 400 + "/3"])
@example(argv=["rotation", "--confocal", "2.2250738585072014e-308,5e-324"])
def test_main_keeps_the_contract(tmp_path_factory, argv):
    base = tmp_path_factory.getbasetemp() / "contract"
    base.mkdir(exist_ok=True)
    paths = {"file": str(base / "out.txt"), "missing-directory": str(base / "missing" / "o.txt"),
             "directory": str(base)}
    _check_contract([paths.get(a, a) for a in argv])

