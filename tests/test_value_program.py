"""Plain values, static constness and the power rule all come from the one
compiled program; trees too deep for the tree walks and numbers too large
for a float are input errors."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scene, random_smooth_expr
from obstruct import catalog, cli, config, exprlang
from obstruct.contravariant import lie_perturbation_field
from obstruct.exprlang import (BinOp, Call, Coord, ExprSyntaxError, Neg, Num,
                               Param, differentiate, eval_jet, eval_real,
                               parse, pretty)
from obstruct.jets import JetDomainError
from obstruct.poisson import OneFormField
from obstruct.report import CheckConfig, run_checks
from test_exprlang import _trees

BOX = [(-1.0, 1.0), (-1.0, 1.0)]


# -- the recursive walker the value run replaced, kept as a reference --------

_REFERENCE_FN = {"exp": math.exp, "log": math.log, "sin": math.sin,
                 "cos": math.cos, "sqrt": math.sqrt}


def reference_real(e, point, params):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Coord):
        return float(point[e.index])
    if isinstance(e, Param):
        return float(params[e.name])
    if isinstance(e, Neg):
        return -reference_real(e.operand, point, params)
    if isinstance(e, BinOp):
        a = reference_real(e.left, point, params)
        b = reference_real(e.right, point, params)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        return a ** b
    if isinstance(e, Call):
        return _REFERENCE_FN[e.fn](reference_real(e.arg, point, params))
    raise TypeError(f"not an expression node: {e!r}")


def outcome(fn, *args):
    """The value's repr (exact for floats and complex numbers, and apart
    for 0.0 and -0.0) or the exception's type and message."""
    try:
        return repr(fn(*args))
    except Exception as err:  # the type is what is compared
        return type(err), str(err)


_coordinates = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(_trees, _coordinates, _coordinates, st.floats(-3.0, 3.0))
@settings(max_examples=400)
def test_value_run_equals_the_recursive_walker_on_hypothesis_trees(tree, x, y, c):
    point, params = [x, y], {"c": c}
    assert (outcome(eval_real, tree, point, params)
            == outcome(reference_real, tree, point, params))


def test_value_run_equals_the_recursive_walker_on_random_trees():
    rng = np.random.default_rng(606)
    coords = ["x", "y", "z"]
    for _ in range(150):
        tree = random_smooth_expr(rng, coords, depth=4, params=["c"])
        point = rng.uniform(-3.0, 3.0, 3)
        params = {"c": float(rng.uniform(-2.0, 2.0))}
        assert (outcome(eval_real, tree, point, params)
                == outcome(reference_real, tree, point, params))


def test_one_program_gives_each_tree_the_walker_value():
    rng = np.random.default_rng(607)
    coords = ["x", "y"]
    for _ in range(30):
        trees = [random_smooth_expr(rng, coords, depth=3) for _ in range(6)]
        trees.append(trees[2])  # a repeated tree shares its slots
        point = rng.uniform(-1.0, 1.0, 2)
        found = exprlang.compile_jets(trees).values(point, {})
        assert [repr(v) for v in found] == [
            repr(reference_real(t, point, {})) for t in trees]


def test_value_run_keeps_complex_powers_and_their_errors():
    # Python's ** gives a complex number for a negative base and a
    # fractional exponent; math.sqrt then refuses it, as in the walker
    for text in ("(0 - 8)^(1/3)", "sqrt((0 - 8)^(1/3))", "1/(x - x)",
                 "log(x - 1)", "exp(1000*x)", "(x*x)^0.5", "-(0.0*x)"):
        tree = parse(text, ["x"])
        assert (outcome(eval_real, tree, [1.0], {})
                == outcome(reference_real, tree, [1.0], {}))


# -- constness and the power rule ----------------------------------------------


def test_constant_slots_are_the_ones_that_read_no_coordinate():
    trees = [parse(t, ["x", "y"], ["c"])
             for t in ("c*2 + 1", "x - x", "sin(c)^y", "-(2^c)")]
    program = exprlang.compile_jets(trees)
    assert [program.constant[k] for k in program.outputs] == [
        True, False, False, True]


def test_a_cancelling_exponent_fails_at_a_point_as_in_its_block():
    tree = parse("y^(x-x)", ["x", "y"])
    with pytest.raises(JetDomainError) as block:
        eval_jet(tree, [[0.5, -1.0], [0.2, -0.5]])
    with pytest.raises(JetDomainError) as alone:
        eval_jet(tree, [0.5, -1.0])
    assert str(alone.value) == str(block.value) == "log of non-positive value -1.0"


def test_a_point_equals_its_block_row_for_coordinate_exponents():
    tree = parse("y^(x*x*x)", ["x", "y"])
    points = np.array([[0.0, 2.0], [0.5, 3.0]])
    block = eval_jet(tree, points)
    for k, point in enumerate(points):
        alone = eval_jet(tree, point)
        assert alone.value.tobytes() == block.value[k].tobytes()
        assert alone.gradient.tobytes() == block.gradient[:, k].tobytes()
        assert alone.hessian.tobytes() == block.hessian[:, :, k].tobytes()


def test_a_parameter_exponent_is_a_real_power_of_a_negative_base():
    tree = parse("(-2)^(c*2)", ["x"], ["c"])
    jet = eval_jet(tree, [0.3], {"c": 1.5})
    assert jet.value == -8.0
    assert not jet.gradient.any() and not jet.hessian.any()
    block = eval_jet(tree, [[0.3], [0.4]], {"c": 1.5})
    assert block.value == -8.0
    assert eval_real(tree, [0.3], {"c": 1.5}) == -8.0


def test_lie_perturbation_field_rejects_a_varying_entry_below_the_diagonal():
    scene = make_scene(["x", "y"], [["1", "0"], ["x - x", "1"]],
                       [["0", "1"], ["-1", "0"]], BOX)
    alpha = OneFormField.from_components([parse("x*y", ["x", "y"]),
                                          parse("y", ["x", "y"])])
    with pytest.raises(ValueError, match="constant metric"):
        lie_perturbation_field(scene, alpha)


# -- one program per scene -------------------------------------------------------


def test_validate_compiles_once_not_per_sample_point(monkeypatch):
    scene = make_scene(["x", "y"], [["1 + x*x", "0"], ["0", "1"]],
                       [["0", "y"], ["-y", "0"]], BOX, exclude="x*y - 0.9")
    compiled = []
    real = exprlang.compile_jets

    def counting(trees):
        compiled.append(len(trees))
        return real(trees)

    monkeypatch.setattr(exprlang, "compile_jets", counting)
    scene.validate(samples_per_axis=5)
    assert sorted(compiled) == [1, 8]  # exclude, and the 2 n^2 entries
    scene.validate(samples_per_axis=5)
    assert len(compiled) == 2


def test_entry_values_and_exclusion_match_the_walker():
    rng = np.random.default_rng(608)
    coords = ["x", "y"]
    base = make_scene(coords, [["1", "0"], ["0", "1"]],
                      [["0", "1"], ["-1", "0"]], BOX)
    for _ in range(20):
        g, p = [[[random_smooth_expr(rng, coords, depth=2) for _ in range(2)]
                 for _ in range(2)] for _ in range(2)]
        scene = replace(base, metric=tuple(map(tuple, g)),
                        poisson=tuple(map(tuple, p)), exclude=g[0][1])
        point = rng.uniform(-1.0, 1.0, 2)
        for found, rows in zip(scene.entry_values(point), (g, p)):
            want = [[reference_real(e, point, {}) for e in row] for row in rows]
            assert found.tobytes() == np.array(want).tobytes()
        assert scene.is_excluded(point) == (
            reference_real(g[0][1], point, {}) > 0.0)


def test_the_report_digest_does_not_parse_the_scene_again(monkeypatch):
    scene = catalog.load_example("fuzzy-sphere").scene()
    doc = config.scene_to_config(scene)
    assert config.hash_canonical(doc) == config.canonical_digest(doc)
    parsed = []
    real = exprlang.parse
    monkeypatch.setattr(exprlang, "parse",
                        lambda *args: parsed.append(args) or real(*args))
    rep = run_checks(scene, CheckConfig(grid=(3,), points=[[0.1, 0.2]]))
    assert parsed == []
    assert rep.digest == config.canonical_digest(doc)


# -- depth limit -----------------------------------------------------------------


DEEPEST = {
    # the shapes whose walks recurse the most per level
    "left power": "(" * (exprlang.MAX_DEPTH - 1) + "x" + ")^y" * (exprlang.MAX_DEPTH - 1),
    "right power": "x^" * (exprlang.MAX_DEPTH - 1) + "y",
    "quotient": "x/(" * (exprlang.MAX_DEPTH - 1) + "y" + ")" * (exprlang.MAX_DEPTH - 1),
    "sum": "+".join(["x"] * exprlang.MAX_DEPTH),
}


@pytest.mark.parametrize("shape", sorted(DEEPEST))
def test_the_deepest_accepted_tree_goes_through_every_walk(shape):
    text = DEEPEST[shape]
    tree = parse(text, ["x", "y"])
    assert parse(pretty(tree), ["x", "y"]) == tree
    program = exprlang.compile_jets([tree])
    program.run([[1.0, 1.0], [1.0, 0.5]], {})
    program.values([1.0, 0.5], {})
    for k in range(2):
        differentiate(differentiate(tree, k), 1 - k)
    with pytest.raises(ExprSyntaxError, match="nested deeper than"):
        parse(f"-({text})", ["x", "y"])


def test_a_tree_one_level_too_deep_names_the_position():
    depth = exprlang.MAX_DEPTH
    with pytest.raises(ExprSyntaxError) as err:
        parse("+".join(["x"] * (depth + 1)), ["x"])
    # the operator that would make the tree one level too deep
    assert err.value.position == 2 * depth - 1
    parse("(" * 2 * depth + "x" + ")" * 2 * depth, ["x"])
    with pytest.raises(ExprSyntaxError) as err:
        parse("(" * (2 * depth + 1) + "x" + ")" * (2 * depth + 1), ["x"])
    assert err.value.position == 2 * depth + 1


# -- input errors at the CLI ---------------------------------------------------------


def _scene_doc(**changes) -> dict:
    doc = {"kind": "scene", "name": "t", "coordinates": ["x", "y"],
           "params": {"c": 1.0}, "metric": [["1", "0"], ["0", "1"]],
           "poisson": [["0", "c"], ["-c", "0"]],
           "box": [[-1.0, 1.0], [-1.0, 1.0]]}
    doc.update(changes)
    return doc


def _algebra_doc(**changes) -> dict:
    doc = catalog.load_example("sl2-drinfeld-jimbo").config
    doc = json.loads(json.dumps(doc))
    doc.update(changes)
    return doc


_HUGE = "1" + "0" * 400  # 10**400 written as a JSON integer


def _with_huge(doc: dict, key: str) -> str:
    """The JSON text of ``doc`` with the first number in ``key`` replaced
    by 10**400."""
    text = json.dumps(doc)
    start = text.index(f'"{key}": ') + len(key) + 4
    while text[start] not in "-0123456789":
        start += 1
    end = start + 1
    while text[end] in "0123456789.e-":
        end += 1
    return text[:start] + _HUGE + text[end:]


_TOO_LARGE = "int too large to convert to float"

CLI_INPUTS = {
    "nested parentheses": (json.dumps(_scene_doc(metric=[
        ["(" * 3000 + "1" + ")" * 3000, "0"], ["0", "1"]])), "nested deeper than"),
    "long sum": (json.dumps(_scene_doc(metric=[
        ["+".join(["x"] * 20000) + " + 2", "0"], ["0", "1"]])), "nested deeper than"),
    "param": (_with_huge(_scene_doc(), "params"), f"param 'c': {_TOO_LARGE}"),
    "box bound": (_with_huge(_scene_doc(), "box"), f"box bound: {_TOO_LARGE}"),
    "structure constant": (_with_huge(_algebra_doc(), "structure_constants"),
                           f"structure_constants: {_TOO_LARGE}"),
    "algebra metric": (_with_huge(_algebra_doc(), "metric"),
                       f"metric: {_TOO_LARGE}"),
    "r-matrix": (_with_huge(_algebra_doc(), "r_matrix"),
                 f"r_matrix: {_TOO_LARGE}"),
    "null param": (json.dumps(_scene_doc(params={"c": None})), "param 'c': "),
    "null box bound": (json.dumps(_scene_doc(box=[[-1.0, None], [-1.0, 1.0]])),
                       "box bound: "),
    "ragged structure constants": (json.dumps(_algebra_doc(
        structure_constants=[[[0.0]], [0.0, 1.0]])), "structure_constants: "),
    "complex exclude": (json.dumps(_scene_doc(exclude="(x - 2)^0.5")),
                        "cannot evaluate exclude at [-1.0, -1.0]: TypeError"),
    "string param": (json.dumps(_scene_doc(params={"c": "2"})),
                     "param 'c': expected a number, got '2'"),
    "bool box bound": (json.dumps(_scene_doc(box=[[-1.0, True], [-1.0, 1.0]])),
                       "box bound: expected a number, got True"),
    "string structure constant": (json.dumps(_algebra_doc(
        structure_constants=[[["0"] * 3] * 3] * 3)),
        "structure_constants: expected a number, got '0'"),
    "infinite algebra metric": (json.dumps(_algebra_doc(
        metric=[[float("-inf"), 0, 0], [0, 0, 1], [0, 1, 0]])),
        "metric must be finite, got -inf"),
    "NaN r-matrix": (json.dumps(_algebra_doc(
        r_matrix=[[float("nan"), 0, 0], [0, 0, 1], [0, -1, 0]])),
        "r_matrix must be finite, got nan"),
    "ragged algebra metric": (json.dumps(_algebra_doc(metric=[[2, 0, 0], [0, 1]])),
                              "metric: expected a 3x3 array of numbers"),
    "repeated basis name": (json.dumps(_algebra_doc(basis=["H", "E", "E"])),
                            "basis must be one or more distinct names"),
}


@pytest.mark.parametrize("name", sorted(CLI_INPUTS))
def test_bad_input_exits_2_with_a_reason(tmp_path, name):
    text, reason = CLI_INPUTS[name]
    path = tmp_path / "config.json"
    path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "obstruct", "check", str(path)],
                          capture_output=True, env=dict(os.environ))
    assert proc.returncode == cli.EXIT_ERROR
    assert b"Traceback" not in proc.stderr
    assert reason in proc.stderr.decode()
