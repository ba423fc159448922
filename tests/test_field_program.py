"""Each scene evaluates its metric and pi as one compiled jet program whose
jets carry the point axes last; pi's full rank is certified without an SVD
where its condition number allows; per-point rows are built only for CSV;
non-finite inputs and grids too large for memory are input errors."""

import json

import numpy as np
import pytest

from conftest import make_scene, random_smooth_expr
from obstruct import catalog, cli, exprlang, jets, poisson, report
from obstruct.contravariant import Frame
from obstruct.exprlang import BinOp, Coord, Num
from obstruct.jets import JetDomainError
from obstruct.report import CheckConfig, render_report, run_checks

BOX = [(-1.0, 1.0), (-1.0, 1.0)]


def mentions_a_coordinate(e) -> bool:
    if isinstance(e, Coord):
        return True
    return any(mentions_a_coordinate(child) for child in vars(e).values()
               if not isinstance(child, (str, float, int)))


def test_block_jets_are_point_last_and_match_single_points_bitwise():
    rng = np.random.default_rng(2024)
    coords = ["x1", "x2", "x3"]
    checked = 0
    for _ in range(40):
        tree = random_smooth_expr(rng, coords, depth=3)
        if not mentions_a_coordinate(tree):
            continue
        points = rng.uniform(-1.0, 1.0, (17, 3))
        block = exprlang.eval_jet(tree, points)
        assert block.value.shape == (17,)
        assert block.gradient.shape == (3, 17)
        assert block.hessian.shape == (3, 3, 17)
        for k, point in enumerate(points):
            alone = exprlang.eval_jet(tree, point)
            assert alone.gradient.shape == (3,) and alone.hessian.shape == (3, 3)
            assert np.float64(alone.value).tobytes() == block.value[k].tobytes()
            assert alone.gradient.tobytes() == block.gradient[:, k].tobytes()
            assert alone.hessian.tobytes() == block.hessian[:, :, k].tobytes()
        checked += 1
    assert checked >= 30


def test_podles_sphere_evaluates_its_conformal_factor_once_per_block(monkeypatch):
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")  # counted in this process
    scene = catalog.load_example("podles-sphere").scene()
    code = scene.program("fields").code
    # 4 / (u*u + v*v + 1)^2 in g11 and g22, and c/2 in pi: two divisions
    assert [op for op, *_ in code].count("/") == 2
    assert [op for op, *_ in code].count("^") == 1
    numerators = []
    real = jets.OPERATIONS["/"]

    def divide(a, b):
        numerators.append(a.value)
        return real(a, b)

    monkeypatch.setitem(jets.OPERATIONS, "/", divide)
    rep = run_checks(scene, CheckConfig(grid=(33,)))
    assert rep.points_evaluated == 33 * 33
    assert sorted(numerators, key=repr) == [2.0, 4.0]  # c and 4, once each


def test_signed_zero_literals_are_never_merged():
    # dataclass equality would merge them: 0.0 == -0.0
    assert Num(0.0) == Num(-0.0)
    x = Coord("x", 0)
    trees = [BinOp("*", x, Num(0.0)), BinOp("*", x, Num(-0.0)), Num(0.0), Num(-0.0)]
    program = exprlang.compile_jets(trees)
    assert len(set(program.outputs)) == 4
    found = program.run(np.array([[1.0], [2.0]]), {})
    signs = [bool(np.signbit(j.value).all()) for j in found]
    assert signs == [False, True, False, True]


def test_a_shared_subtree_is_one_slot():
    x, y = Coord("x", 0), Coord("y", 1)
    xy = BinOp("*", x, y)
    program = exprlang.compile_jets([BinOp("+", xy, Num(1.0)),
                                     BinOp("-", BinOp("*", x, y), Num(1.0))])
    assert [op for op, *_ in program.code].count("*") == 1
    left, right = program.run(np.array([[0.5, 2.0], [3.0, -1.0]]), {})
    assert left.value.tolist() == [2.0, -2.0]
    assert right.value.tolist() == [0.0, -4.0]


POWERS_OF_ZERO = ["2^0", "h0^0*x", "x*2^0", "x + 2^0", "2^0 - y",
                  "1 + q^m*x*x", "x^0*y", "(x*y)^0 + x"]


@pytest.mark.parametrize("text", POWERS_OF_ZERO)
def test_a_constant_raised_to_zero_keeps_the_block_axes(text):
    params = {"h0": 0.5, "q": 2.0, "m": 0.0}
    tree = exprlang.parse(text, ["x", "y"], list(params))
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (5, 2))
    block = exprlang.eval_jet(tree, points, params)
    gradient = np.broadcast_to(block.gradient, (2, 5))
    hessian = np.broadcast_to(block.hessian, (2, 2, 5))
    value = np.broadcast_to(block.value, (5,))
    for k, point in enumerate(points):
        alone = exprlang.eval_jet(tree, point, params)
        assert alone.gradient.shape == (2,) and alone.hessian.shape == (2, 2)
        assert np.float64(alone.value).tobytes() == value[k].tobytes()
        assert alone.gradient.tobytes() == gradient[:, k].tobytes()
        assert alone.hessian.tobytes() == hessian[:, :, k].tobytes()


def test_a_number_next_to_a_block_constant_keeps_its_unit_axis():
    block = jets.constant(2.0, 3, 1)
    for jet in (block * 2.0, 2.0 + block, 1.0 - block, 1.0 / block):
        assert jet.gradient.shape == (3, 1) and jet.hessian.shape == (3, 3, 1)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_metric_with_a_power_of_zero_sweeps_as_its_points(monkeypatch,
                                                            workers):
    monkeypatch.setenv("OBSTRUCT_WORKERS", workers)
    scene = make_scene(["x", "y"], [["1 + h0^0*x*x", "0"], ["0", "2^0 + y*y"]],
                       [["0", "1 + q^m*x*x"], ["-(1 + q^m*x*x)", "0"]], BOX,
                       params={"h0": 0.5, "q": 2.0, "m": 0.0}, name="pow0")
    rep = run_checks(scene, CheckConfig(grid=(5,)))
    assert all(c.reason is None for c in rep.checks)
    for check in rep.checks:
        points, values = check.table
        alone = [report._evaluate_point(scene, (check.name,), p)[check.name]
                 for p in points]
        assert np.array(alone).tobytes() == values.tobytes(), check.name


BOTH_FAIL = make_scene(["x", "y"], [["1 + 1/(x*x)", "0"], ["0", "1"]],
                       [["0", "log(x*x)"], ["-log(x*x)", "0"]], BOX,
                       name="both-fail")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_point_where_metric_and_pi_both_fail_reports_the_metric(monkeypatch,
                                                                   workers):
    monkeypatch.setenv("OBSTRUCT_WORKERS", workers)
    rep = run_checks(BOTH_FAIL, CheckConfig(grid=(5,)))
    reasons = {c.reason for c in rep.checks}
    assert reasons == {"JetDomainError: division by zero at point [0.0, -1.0]"}
    with pytest.raises(JetDomainError, match="division by zero"):
        Frame.at(BOTH_FAIL, [0.0, -1.0])
    # pi alone still evaluates where only it is asked for
    with pytest.raises(JetDomainError, match="log of non-positive value 0.0"):
        poisson.jacobi_defect(BOTH_FAIL, [0.0, -1.0])


def split_4d(ratio: float):
    coords = ["x1", "x2", "x3", "x4"]
    metric = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    pi = [["0"] * 4 for _ in range(4)]
    pi[0][1], pi[1][0] = "1", "-1"
    pi[2][3], pi[3][2] = repr(ratio), repr(-ratio)
    return make_scene(coords, metric, pi, [(-1.0, 1.0)] * 4,
                      name=f"split-{ratio}")


@pytest.mark.parametrize("ratio, status, svd_runs", [
    (1e-3, "pass", False),     # certified
    (2e-9, "pass", True),      # full rank, but only the SVD can tell
    (5e-10, "skipped", True),  # rank 2
])
def test_certified_rank_decides_as_the_svd_does(monkeypatch, ratio, status,
                                                svd_runs):
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")  # counted in this process
    scene = split_4d(ratio)
    cfg = CheckConfig(checks=("gprime_flat",), grid=(2,))
    svd_calls = []
    real_svd = np.linalg.svd

    def svd(*args, **kwargs):
        svd_calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    found = run_checks(scene, cfg).checks[0]
    assert bool(svd_calls) == svd_runs
    monkeypatch.setattr(poisson, "_CERTIFIED", 0.0)  # pi_rank_from decides alone
    alone = run_checks(scene, cfg).checks[0]
    assert (found.status, found.reason, found.max_defect) == \
        (alone.status, alone.reason, alone.max_defect)
    assert found.status == status
    if status == "skipped":
        assert found.reason == "pi-degenerate-everywhere"


def test_the_podles_sphere_sweep_runs_no_svd(monkeypatch):
    monkeypatch.setenv("OBSTRUCT_WORKERS", "1")
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    rep = run_checks(catalog.load_example("podles-sphere").scene(),
                     CheckConfig(grid=(33,)))
    assert {c.name: c.status for c in rep.checks}["gprime_flat"] == "pass"


def test_the_check_table_keeps_the_sweep_arrays():
    scene = catalog.load_example("podles-sphere").scene()
    rep = run_checks(scene, CheckConfig(checks=("divergence",), grid=(4,)))
    points, values = rep.checks[0].table
    assert points.shape == (16, 2) and values.shape == (16,)
    rows = render_report(rep, "csv-points").decode().splitlines()
    assert rows[0] == "x0,x1,defect"
    assert rows[1:] == [f"{p[0]!r},{p[1]!r},{v!r}"
                        for p, v in zip(points.tolist(), values.tolist())]


# -- input errors ------------------------------------------------------------


def scene_doc(**changes) -> dict:
    doc = {"kind": "scene", "name": "flat", "coordinates": ["x", "y"],
           "params": {"h0": 1.0}, "metric": [["1", "0"], ["0", "1"]],
           "poisson": [["0", "h0"], ["-h0", "0"]], "box": [[-1, 1], [-2, 2]]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("changes, message", [
    ({"box": [[float("-inf"), 1.0], [-2.0, 2.0]]}, "box bounds must be finite"),
    ({"box": [[-1.0, 1.0], [-2.0, float("nan")]]}, "box bounds must be finite"),
    ({"params": {"h0": float("inf")}}, "param 'h0' must be finite"),
])
def test_non_finite_config_values_are_input_errors(tmp_path, capsys, changes,
                                                   message):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_doc(**changes)))
    with np.errstate(all="raise"):
        assert cli.main(["check", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("line", ["nan 0", "0.5 inf"])
def test_non_finite_sample_points_are_input_errors(tmp_path, capsys, line):
    path = tmp_path / "points.txt"
    path.write_text(line + "\n")
    code = cli.main(["example", "podles-sphere", "--points", str(path)])
    assert code == cli.EXIT_ERROR
    assert "is not finite" in capsys.readouterr().err


def test_a_grid_too_large_for_memory_is_an_input_error(monkeypatch, capsys):
    real = np.meshgrid

    def meshgrid(*axes, **kwargs):
        # the validation grid is small; the sweep's would need 74.5 GiB
        if len(axes[0]) > 1000:
            raise MemoryError("cannot allocate")
        return real(*axes, **kwargs)

    monkeypatch.setattr(np, "meshgrid", meshgrid)
    code = cli.main(["example", "podles-sphere", "--grid", "100000"])
    assert code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "grid 100000x100000" in err and "does not fit in memory" in err
