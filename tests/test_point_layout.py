"""Block arrays keep the point axis innermost in memory, and a single point
is evaluated as the padded block ``[p, p]``, so the per-point API returns
the sweep's numbers bit for bit."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from test_blocks import LAYERS, SCENES
from obstruct import cli, contravariant, poisson, report
from obstruct.contravariant import Frame
from obstruct.report import render_report, run_checks


def block_layers(frame):
    arrays = {name: getattr(frame, name) for name in LAYERS}
    arrays["gamma"] = frame.christoffels.gamma
    arrays["dgamma"] = frame.christoffels.d1
    return arrays


@pytest.mark.parametrize("name", sorted(SCENES))
@pytest.mark.parametrize("size", [2, 16])
def test_every_layer_of_a_block_has_the_points_innermost(name, size):
    scene = SCENES[name]()
    frame = Frame(scene, np.array(scene.grid((4,))[:size]))
    for layer, arr in block_layers(frame).items():
        assert arr.shape[0] == size, layer
        assert arr.strides[0] == arr.itemsize, layer


def test_one_point_tail_block_gives_the_same_csv(monkeypatch):
    scene = SCENES["random-3d"]()
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
    rep = run_checks(scene, report.CheckConfig(grid=(4,)))
    assert rep.points_evaluated == 64
    whole = render_report(rep, "csv-points")
    monkeypatch.setattr(report, "BLOCK", 63)
    assert render_report(run_checks(scene, report.CheckConfig(grid=(4,))),
                         "csv-points") == whole


@pytest.mark.parametrize("name", sorted(SCENES))
def test_per_point_defects_equal_block_rows_bitwise(name):
    scene = SCENES[name]()
    points = np.array(scene.grid((4,)))
    block = Frame(scene, points)
    rows = {
        poisson.jacobi_defect: poisson.jacobi_from(block.pi, block.dpi),
        poisson.divergence_defect: poisson.divergence_from(block.nabla_pi),
        contravariant.torsion_defect:
            contravariant.torsion_defect(scene, points, frame=block),
        contravariant.metric_compat_defect:
            contravariant.metric_compat_defect(scene, points, frame=block),
    }
    for i, point in enumerate(points):
        for defect, values in rows.items():
            assert np.array_equal(defect(scene, point), values[i]), defect.__name__


def test_exclude_overflow_exits_2_naming_the_point(tmp_path):
    doc = {"kind": "scene", "name": "steep-exclude", "coordinates": ["x", "y"],
           "params": {}, "metric": [["1", "0"], ["0", "1"]],
           "poisson": [["0", "1"], ["-1", "0"]],
           "box": [[-1.0, 1.0], [-1.0, 1.0]],
           "exclude": "exp(exp(x*8)) - 1"}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "obstruct", "check", str(path)],
                          capture_output=True, env=dict(os.environ))
    assert proc.returncode == cli.EXIT_ERROR
    assert b"Traceback" not in proc.stderr
    assert b"OverflowError" in proc.stderr
    assert b"[1.0, -1.0]" in proc.stderr
