"""The single-process sweep evaluates the grid in blocks of points through
the same kernel as the per-point API.  A point's numbers must not depend on
the block it falls in, on the worker count, or on which layers a block
builds."""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_scene, random_smooth_expr
from obstruct import catalog, contravariant, exprlang, geometry, poisson, report
from obstruct.contravariant import Frame
from obstruct.report import SCENE_CHECKS, CheckConfig, render_report, run_checks

LAYERS = ("g", "dg", "d2g", "pi", "dpi", "d2pi", "ginv", "dginv", "riemann",
          "nabla_pi", "dnabla_pi", "a", "da", "nabla_a")


def random_scene():
    """A 3-D scene with random smooth entries: metric 3 + 0.2 e on the
    diagonal and 0.2 e off it, pi with 1 + 0.2 e and 0.2 e entries."""
    rng = np.random.default_rng(5150)
    coords = ["x1", "x2", "x3"]

    def small():
        return f"0.2 * ({exprlang.pretty(random_smooth_expr(rng, coords, depth=2))})"

    metric = [["0"] * 3 for _ in range(3)]
    poisson_rows = [["0"] * 3 for _ in range(3)]
    for i in range(3):
        metric[i][i] = f"3 + {small()}"
        for j in range(i + 1, 3):
            metric[i][j] = metric[j][i] = small()
            entry = f"1 + {small()}" if (i + j) % 2 else small()
            poisson_rows[i][j] = entry
            poisson_rows[j][i] = f"-({entry})"
    return make_scene(coords, metric, poisson_rows, [(-1.0, 1.0)] * 3,
                      name="random-3d")


SCENES = {name: (lambda name=name: catalog.load_example(name).scene())
          for name in ("flat-torus", "fuzzy-sphere", "podles-sphere", "su2-dual")}
SCENES["random-3d"] = random_scene


@pytest.mark.parametrize("name", sorted(SCENES))
def test_blocks_match_single_points_bitwise(name):
    scene = SCENES[name]()
    points = np.array(scene.grid((4,)))
    block = Frame(scene, points)
    for i, point in enumerate(points):
        alone = Frame.at(scene, point)
        for layer in LAYERS:
            assert np.array_equal(getattr(block, layer)[i], getattr(alone, layer)), layer
    defects, failure = report._evaluate_block(scene, SCENE_CHECKS, points)
    assert failure is None
    alone = [report._evaluate_point(scene, SCENE_CHECKS, p) for p in points]
    for check in SCENE_CHECKS:
        row = np.array([outcome[check] for outcome in alone])
        assert row.tobytes() == defects[check].tobytes(), check
        public = np.array([public_defect(check, scene, p) for p in points])
        assert public.tobytes() == defects[check].tobytes(), check


# each scene check's public per-point function, called without a frame
PUBLIC = {
    "jacobi": poisson.jacobi_defect,
    "divergence": poisson.divergence_defect,
    "torsion": contravariant.torsion_defect,
    "metric_compat": contravariant.metric_compat_defect,
    "curvature": lambda scene, p: contravariant.curvature_explicit(scene, p).components,
    "gprime_flat": contravariant.gprime_riemann,
}


def public_defect(check, scene, point) -> float:
    """Max-abs of ``check``'s defect at one point, NaN where pi is
    degenerate."""
    try:
        return np.abs(PUBLIC[check](scene, point)).max()
    except poisson.DegeneratePoissonError:
        return np.nan


def test_block_size_does_not_change_the_report(monkeypatch):
    scene = catalog.load_example("podles-sphere").scene()
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
    whole = render_report(run_checks(scene), "json")
    monkeypatch.setattr(report, "BLOCK", 7)
    assert render_report(run_checks(scene), "json") == whole


def test_dual_subset_csv_identical_across_worker_counts(tmp_path):
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"dual-{workers}.csv"
        env = dict(os.environ, OBSTRUCT_WORKERS=workers)
        proc = subprocess.run(
            [sys.executable, "-m", "obstruct", "example", "su2-dual",
             "--grid", "15", "--check", "jacobi", "--check", "divergence",
             "--format", "csv-points", "--out", str(out)],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = out.read_bytes()
    assert outputs["1"] == outputs["2"]
    assert outputs["1"].count(b"\n") > 2 * 3000


def test_first_order_sweep_builds_no_riemann_or_a(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("layer built for a first-order sweep")

    monkeypatch.setattr(geometry, "riemann_from_christoffels", forbidden)
    monkeypatch.setattr(contravariant, "_a_with_partials", forbidden)
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
    rep = run_checks(catalog.load_example("su2-dual").scene(),
                     CheckConfig(checks=("jacobi", "divergence"), grid=(7,)))
    assert rep.overall == "pass"
    with pytest.raises(AssertionError):
        Frame.at(catalog.load_example("su2-dual").scene(), [0.5, 0.5, 0.5]).riemann


def test_torsion_without_a_frame_builds_no_riemann_or_nabla_a(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("layer built for torsion")

    real = geometry.covariant_derivative

    def no_nabla_a(field, christoffels, kind):
        if kind == "uud":
            forbidden()
        return real(field, christoffels, kind)

    monkeypatch.setattr(geometry, "riemann_from_christoffels", forbidden)
    monkeypatch.setattr(geometry, "covariant_derivative", no_nabla_a)
    scene = catalog.load_example("podles-sphere").scene()
    point = np.array([0.7, -0.2])
    assert np.abs(contravariant.torsion_defect(scene, point)).max() < 1e-8
    with pytest.raises(AssertionError):
        contravariant.curvature_explicit(scene, point)


def test_mixed_degeneracy_falls_back_to_single_points():
    # pi = x (dx ^ dy) is degenerate on the line x = 0 only
    scene = make_scene(["x", "y"], [["1", "0"], ["0", "1"]],
                       [["0", "x"], ["-x", "0"]], [(-1.0, 1.0), (-1.0, 1.0)])
    points = np.array(scene.grid((3,)))
    defects, failure = report._evaluate_block(scene, ("gprime_flat",), points)
    assert failure is None
    alone = [report._evaluate_point(scene, ("gprime_flat",), p)["gprime_flat"]
             for p in points]
    assert np.array(alone).tobytes() == defects["gprime_flat"].tobytes()
    assert np.isnan(alone).tolist() == [x == 0.0 for x, _ in points]
    rep = run_checks(scene, CheckConfig(checks=("gprime_flat",), grid=(3,)))
    assert rep.checks[0].status == "skipped"
    assert rep.checks[0].reason == "pi-degenerate-at [0.0, -1.0]"


def test_pi_rank_per_point_and_per_block():
    pis = np.array([np.zeros((2, 2)), [[0.0, 1.0], [-1.0, 0.0]]])
    assert poisson.pi_rank_from(pis).tolist() == [0, 2]
    assert [poisson.pi_rank_from(p) for p in pis] == [0, 2]


@pytest.mark.parametrize("name", sorted(SCENES))
def test_one_row_block_frame_matches_the_point_bitwise(name):
    scene = SCENES[name]()
    for point in scene.grid((3,)):
        row = Frame.at(scene, point[None])
        alone = Frame.at(scene, point)
        for layer in LAYERS:
            found = getattr(row, layer)
            assert found.shape == (1,) + getattr(alone, layer).shape, layer
            assert found[0].tobytes() == getattr(alone, layer).tobytes(), layer


@pytest.mark.parametrize("name", sorted(SCENES))
def test_one_row_block_defects_equal_the_point(name):
    scene = SCENES[name]()
    points = scene.grid((3,))
    block, failure = report._evaluate_block(scene, SCENE_CHECKS, points)
    assert failure is None
    for i, point in enumerate(points):
        found = report._block_defects(scene, SCENE_CHECKS, point[None])
        alone = report._evaluate_point(scene, SCENE_CHECKS, point)
        assert set(found) == set(alone) == set(SCENE_CHECKS)
        for check, val in found.items():
            assert val.shape == (1,), check
            assert val.tobytes() == np.float64(alone[check]).tobytes(), check
            assert val.tobytes() == block[check][i:i + 1].tobytes(), check
