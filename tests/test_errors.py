"""Evaluation failures end as exit code 2 with a reason naming the point,
never as NaN in a report or as a traceback."""

import json
import os
import subprocess
import sys

import pytest

from conftest import make_scene
from obstruct import catalog, cli, report
from obstruct.geometry import SceneValidationError
from obstruct.report import CheckConfig, CheckResult, ObstructionReport, run_checks

BOX = [[-1.0, 1.0], [-1.0, 1.0]]


def scene_doc(g11: str) -> dict:
    return {"kind": "scene", "name": "steep", "coordinates": ["x", "y"],
            "params": {}, "metric": [[g11, "0"], ["0", "1"]],
            "poisson": [["0", "1"], ["-1", "0"]], "box": BOX}


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_non_finite_second_partials_fail_to_evaluate(tmp_path):
    # exp(700 x^4) is finite on the box, its Hessian overflows at |x| = 1
    path = write_doc(tmp_path, scene_doc("1 + exp(700*x^4)"))
    out = tmp_path / "report.json"
    code = cli.main(["check", path, "--grid", "9", "--format", "json",
                     "--out", str(out)])
    assert code == cli.EXIT_ERROR
    text = out.read_text()
    assert "NaN" not in text and "Infinity" not in text
    doc = json.loads(text)
    assert doc["overall"] == "error"
    for check in doc["checks"].values():
        assert check["status"] == "failed-to-evaluate"
        assert check["reason"] == ("non-finite metric or poisson field "
                                   "at point [-1.0, -1.0]")


# a non-finite Hessian, a jet domain error at x = 0, a singular metric at
# x = -0.5
@pytest.mark.parametrize("g11", ["1 + exp(700*x^4)", "exp(1/x)", "2 + 1/x"])
def test_failure_is_the_same_with_one_and_two_workers(monkeypatch, g11):
    scene = make_scene(["x", "y"], [[g11, "0"], ["0", "1"]],
                       [["0", "1"], ["-1", "0"]], BOX)
    reasons = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("OBSTRUCT_WORKERS", workers)
        rep = run_checks(scene, CheckConfig(grid=(9,)))
        assert {c.status for c in rep.checks} == {"failed-to-evaluate"}
        reasons[workers] = {c.reason for c in rep.checks}
    assert reasons["1"] == reasons["2"]
    assert len(reasons["1"]) == 1


def test_overflow_in_validation_names_the_point():
    scene = make_scene(["x", "y"], [["exp(exp(x*8))", "0"], ["0", "1"]],
                       [["0", "1"], ["-1", "0"]], BOX)
    with pytest.raises(SceneValidationError, match=r"\[1\.0, -1\.0\]"):
        scene.validate()


def test_overflow_in_validation_exits_2_without_traceback(tmp_path):
    path = write_doc(tmp_path, scene_doc("exp(exp(x*8))"))
    proc = subprocess.run([sys.executable, "-m", "obstruct", "check", path],
                          capture_output=True, env=dict(os.environ))
    assert proc.returncode == cli.EXIT_ERROR
    assert b"Traceback" not in proc.stderr
    assert b"OverflowError" in proc.stderr


def test_json_refuses_nan():
    rep = ObstructionReport(
        name="x", kind="scene", digest="sha256:0", version=report.VERSION,
        grid=None, points_evaluated=1, wall_time=0.0,
        checks=(CheckResult("curvature", "fail", 1e-6,
                            max_defect=float("nan"), argmax_point=(0.0,)),))
    with pytest.raises(ValueError):
        report.render_report(rep, "json")


def _scene_doc(**fields) -> dict:
    return {**scene_doc("1"), **fields}


def _algebra_doc(**fields) -> dict:
    doc = json.loads(json.dumps(catalog.load_example("sl2-triangular").config))
    return {**doc, **fields}


# (config document or file text, the error line)
BAD_INPUTS = {
    "deep-json": ("[" * 100_000 + "]" * 100_000,
                  "error: {path}: JSON nested too deeply"),
    "repeated-coordinate": (
        _scene_doc(coordinates=["x", "x"]),
        "error: coordinates must be one or more distinct names, got ['x', 'x']"),
    "param-shadows-coordinate": (
        _scene_doc(params={"x": 5}),
        "error: param 'x' has the name of a coordinate"),
    "number-in-metric": (
        _scene_doc(metric=[[1, "0"], ["0", "1"]]),
        "error: metric: expected an expression string, got 1"),
    "number-in-poisson": (
        _scene_doc(poisson=[["0", 1], ["-1", "0"]]),
        "error: poisson: expected an expression string, got 1"),
    "string-as-metric-row": (
        _scene_doc(metric=["x0", "0x"]),
        "error: metric must be a 2x2 array of expressions"),
    "number-in-exclude": (
        _scene_doc(exclude=5),
        "error: exclude: expected an expression string, got 5"),
    "zero-dimensional": (
        _scene_doc(coordinates=[], metric=[], poisson=[], box=[]),
        "error: coordinates must be one or more distinct names, got []"),
    "every-grid-point-excluded": (
        _scene_doc(exclude="1"),
        "error: no sample points: exclude drops every grid point"),
    "number-as-params": (
        _scene_doc(params=5), "error: params must be an object, got 5"),
    "pairs-as-params": (
        _scene_doc(params=[["a", 1]]),
        "error: params must be an object, got [['a', 1]]"),
    "number-as-box": (
        _scene_doc(box=5), "error: box bounds: expected a 2x2 array of numbers"),
    "number-as-box-row": (
        _scene_doc(box=[5, [0, 1]]),
        "error: box bounds: expected a 2x2 array of numbers"),
    "number-as-metric": (
        _scene_doc(metric=5), "error: metric must be a 2x2 array of expressions"),
    "number-as-metric-row": (
        _scene_doc(metric=[5, ["0", "1"]]),
        "error: metric must be a 2x2 array of expressions"),
    "fractional-dimension": (
        _scene_doc(dimension=2.7),
        "error: dimension must be the integer 2, the length of coordinates, "
        "got 2.7"),
    "string-dimension": (
        _scene_doc(dimension="2"),
        "error: dimension must be the integer 2, the length of coordinates, "
        "got '2'"),
    "bool-dimension": (
        _scene_doc(dimension=True),
        "error: dimension must be the integer 2, the length of coordinates, "
        "got True"),
    "infinite-dimension": (
        _scene_doc(dimension=float("inf")),
        "error: dimension must be the integer 2, the length of coordinates, "
        "got inf"),
    "fractional-orientation": (
        _scene_doc(orientation=1.5),
        "error: orientation must be +1 or -1, got 1.5"),
    "bool-orientation": (
        _scene_doc(orientation=True),
        "error: orientation must be +1 or -1, got True"),
    "object-as-name": (
        _scene_doc(name={}), "error: name must be a string, got {{}}"),
    "number-as-basis": (
        _algebra_doc(basis=5),
        "error: basis must be a list, got 5"),
    "fractional-dim": (
        _algebra_doc(dim=3.5),
        "error: dim must be the integer 3, the length of basis, got 3.5"),
    "infinite-structure-constant": (
        _algebra_doc(structure_constants=[[[0, 0, 0], [0, 0, float("inf")],
                                           [0, -1, 0]]] + [[[0] * 3] * 3] * 2),
        "error: structure_constants must be finite, got inf"),
    "misspelt-scene-field": (
        _scene_doc(exlude="1"),
        "error: scene config has unknown field 'exlude'"),
    "misspelt-algebra-field": (
        _algebra_doc(r_matirx=[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        "error: lie_algebra config has unknown field 'r_matirx'"),
    # an all-zero pairing ran both checks and exited 1
    "degenerate-algebra-metric": (
        _algebra_doc(metric=[[0] * 3] * 3),
        "error: metric must be nondegenerate, of rank 3"),
    # [a, b] = [b, a] = a is no bracket; both checks passed on it
    "symmetric-structure-constants": (
        {"kind": "lie_algebra", "name": "symmetric", "basis": ["a", "b"],
         "structure_constants": [[[0, 1], [1, 0]], [[0, 0], [0, 0]]],
         "metric": [[0, 0], [0, 0]], "r_matrix": [[0, 1], [-1, 0]]},
        "error: structure_constants must be exactly antisymmetric in their "
        "last two indices"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_scene_input_exits_2_with_one_error_line(tmp_path, case):
    text, expected = BAD_INPUTS[case]
    path = tmp_path / "scene.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    proc = subprocess.run([sys.executable, "-m", "obstruct", "check", str(path)],
                          capture_output=True, env=dict(os.environ))
    assert proc.returncode == cli.EXIT_ERROR
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode().splitlines() == [expected.format(path=path)]


# (flags, the error line)
BAD_FLAGS = {
    "nan-tolerance": (["--tol", "curvature=nan"],
                      "error: tolerance for curvature must be finite and "
                      "positive, got nan"),
    "infinite-tolerance": (["--tol", "curvature=inf"],
                           "error: tolerance for curvature must be finite and "
                           "positive, got inf"),
    "tolerance-of-unknown-check": (
        ["--tol", "bogus=1"],
        "error: unknown check 'bogus'; known: jacobi, divergence, torsion, "
        "metric_compat, curvature, gprime_flat, cybe, qg_divergence"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flag_exits_2_with_one_error_line(case):
    flags, expected = BAD_FLAGS[case]
    proc = subprocess.run([sys.executable, "-m", "obstruct", "example",
                           "podles-sphere", *flags],
                          capture_output=True, env=dict(os.environ))
    assert proc.returncode == cli.EXIT_ERROR
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode().splitlines() == [expected]


def test_explicit_points_all_excluded_are_skipped(tmp_path):
    # the benchmark's set-up run (bench/run.py) samples su2-dual at its
    # excluded centre and reads this report
    path = write_doc(tmp_path, _scene_doc(exclude="x - 0.5"))
    points = tmp_path / "points.txt"
    points.write_text("0.9 0.9\n0.7 -0.2\n")
    out = tmp_path / "report.json"
    code = cli.main(["check", path, "--points", str(points), "--format",
                     "json", "--out", str(out)])
    assert code == cli.EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["points_evaluated"] == 0
    assert {c["reason"] for c in doc["checks"].values()} == {"no-sample-points"}
