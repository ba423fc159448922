"""Evaluation failures end as exit code 2 with a reason naming the point,
never as NaN in a report or as a traceback."""

import json
import os
import subprocess
import sys

import pytest

from conftest import make_scene
from obstruct import cli, report
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
