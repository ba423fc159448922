"""The single-process sweep takes the grid as one ``(P, n)`` array, sizes its
blocks by the dimension and keeps each check's defects as one array.  Big
blocks never fall back to evaluating their points one by one: a block with
mixed pi degeneracy evaluates g' on a sub-block, and a failing block finds
its first failing point by bisection."""

import gc
import math
import os
import subprocess
import sys
import weakref

import numpy as np

from conftest import flat_scene, make_scene
from obstruct import catalog, contravariant, report
from obstruct.report import SCENE_CHECKS, CheckConfig, render_report, run_checks

BOX = [(-1.0, 1.0), (-1.0, 1.0)]
# pi = x dx^dy is degenerate on the line x = 0 only
MIXED = make_scene(["x", "y"], [["1", "0"], ["0", "1"]],
                   [["0", "x"], ["-x", "0"]], BOX, name="mixed")
# the metric has a pole at x = 0.875, the 31st of 33 grid columns
LATE_FAIL = make_scene(["x", "y"], [["1 + 1/(x - 0.875)^2", "0"], ["0", "1"]],
                       [["0", "1"], ["-1", "0"]], BOX, name="late-fail")


def counting(monkeypatch, name):
    """Replace ``report.<name>`` by a wrapper that records each call's
    point count."""
    sizes = []
    real = getattr(report, name)

    def wrapper(scene, *args):
        sizes.append(len(np.atleast_2d(args[-1])))
        return real(scene, *args)

    monkeypatch.setattr(report, name, wrapper)
    return sizes


def test_importing_the_cli_leaves_the_process_pool_out():
    code = ("import sys, obstruct.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr


def test_a_dropped_block_frame_dies_without_the_cyclic_gc():
    scene = catalog.load_example("podles-sphere").scene()
    frames = [contravariant.Frame(scene, scene.grid((4,))),
              contravariant.Frame.at(scene, [0.5, 0.5])]
    refs = [weakref.ref(frames[0]), weakref.ref(frames[1]),
            weakref.ref(frames[1].block)]
    gc.disable()
    try:
        del frames
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_grid_is_one_array():
    scene = catalog.load_example("su2-dual").scene()
    points = scene.grid((5,))
    assert isinstance(points, np.ndarray)
    assert points.shape == (124, 3) and points.dtype == np.float64
    assert points.flags.c_contiguous


def test_a_2d_grid_of_33_squared_is_one_block(monkeypatch):
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
    sizes = counting(monkeypatch, "_block_defects")
    rep = run_checks(catalog.load_example("podles-sphere").scene(),
                     CheckConfig(grid=(33,)))
    assert rep.points_evaluated == 1089
    assert sizes == [1089]


def test_4d_blocks_hold_at_most_256_points(monkeypatch):
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
    assert [report.block_size(n) for n in (2, 3, 4)] == [2048, 606, 256]
    sizes = counting(monkeypatch, "_block_defects")
    rep = run_checks(flat_scene(4), CheckConfig(grid=(5,)))
    assert rep.points_evaluated == 625
    assert sizes == [256, 256, 113]


def test_a_2048_point_block_matches_padded_single_points_bitwise():
    scene = catalog.load_example("podles-sphere").scene()
    points = scene.grid((46,))[:2048]
    defects, failure = report._evaluate_block(scene, SCENE_CHECKS, points)
    assert failure is None
    rows = np.random.default_rng(7).choice(len(points), size=12, replace=False)
    for i in sorted(rows) + [0, len(points) - 1]:
        alone = report._evaluate_point(scene, SCENE_CHECKS, points[i])
        for check in SCENE_CHECKS:
            assert (np.float64(alone[check]).tobytes()
                    == defects[check][i].tobytes()), (check, i)


def sweep_json(monkeypatch, scene, workers):
    monkeypatch.setenv("OBSTRUCT_WORKERS", workers)
    return render_report(run_checks(scene, CheckConfig(grid=(33,))), "json")


def test_mixed_degeneracy_evaluates_no_single_point(monkeypatch):
    pooled = sweep_json(monkeypatch, MIXED, "2")
    calls = counting(monkeypatch, "_evaluate_point")
    assert sweep_json(monkeypatch, MIXED, "1") == pooled
    assert calls == []
    rep = run_checks(MIXED, CheckConfig(checks=("gprime_flat",), grid=(33,)))
    assert rep.checks[0].reason == "pi-degenerate-at [0.0, -1.0]"


def test_a_late_failure_is_found_by_bisection(monkeypatch):
    pooled = sweep_json(monkeypatch, LATE_FAIL, "2")
    singles = counting(monkeypatch, "_evaluate_point")
    blocks = counting(monkeypatch, "_block_defects")
    assert sweep_json(monkeypatch, LATE_FAIL, "1") == pooled
    bound = 2 * math.log2(1089) + 2
    assert 1 <= len(singles) <= bound
    assert len(blocks) <= bound
    assert b"division by zero at point [0.875, -1.0]" in pooled
