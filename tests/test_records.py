"""The value classes are immutable records (``obstruct.record.Record``) that
behave as the frozen dataclasses they replace: construction, defaults,
argument errors, immutability, value equality and hashing, ``repr``,
``__post_init__``, pickling and field order."""

import pickle

import numpy as np
import pytest

from obstruct import contravariant, exprlang, jets
from obstruct.catalog import CatalogEntry
from obstruct.contravariant import ATensor, CurvatureK
from obstruct.exprlang import BinOp, Call, Coord, Neg, Num, Param, _Token
from obstruct.geometry import Christoffels, PointEvaluation
from obstruct.jets import Jet2
from obstruct.liealg import LieAlgebraPresentation, RMatrix, ValidationReport
from obstruct.poisson import OneFormField
from obstruct.record import Record
from obstruct.report import CheckConfig, CheckResult, ObstructionReport

# every record class, with arguments for each of its fields in order
SAMPLES = {
    Jet2: (1.0, (2.0,), ((3.0,),)),
    Num: (1.5,),
    Coord: ("x", 0),
    Param: ("a",),
    Neg: (Num(1.0),),
    BinOp: ("+", Num(1.0), Coord("x", 0)),
    Call: ("sin", Coord("x", 0)),
    _Token: ("num", "1", 0),
    PointEvaluation: ((1.0,), (0.0,), (0.0,)),
    Christoffels: ((0.0,), (0.0,)),
    OneFormField: ((Num(1.0), Num(0.0)),),
    ATensor: ((1.0,), (2.0,)),
    CurvatureK: ((0.0,),),
    LieAlgebraPresentation: (2, (0.0,), (1.0,), ("a", "b")),
    RMatrix: (((0.0, 1.0), (-1.0, 0.0)),),
    ValidationReport: (0.0, 0.0, 0.0),
    CatalogEntry: ("e", {"kind": "scene"}, (("jacobi", "pass", "why"),)),
    CheckConfig: (("jacobi",), (5,), {"jacobi": 1e-3}, ((0.0,),)),
    CheckResult: ("jacobi", "pass", 1e-6, 0.0, (0.0,), None, None),
    ObstructionReport: ("s", "scene", "sha256:0", "0.1.0", (5,), 5, (), 0.0),
}

# the defaults the dataclasses declared
DEFAULTS = {
    PointEvaluation: {"d1": None, "d2": None},
    CheckConfig: {"checks": None, "grid": (9,), "tolerances": {}, "points": None},
    CheckResult: {"max_defect": None, "argmax_point": None, "reason": None,
                  "table": None},
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__qualname__)


def _fields(cls):
    return list(cls.__annotations__)


def _required(cls):
    return [f for f in _fields(cls) if f not in DEFAULTS.get(cls, {})]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_samples_cover_every_record_class():
    # importing obstruct imports every module that defines a record
    assert {c for c in _all_subclasses(Record)
            if c.__module__.startswith("obstruct.")} == set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_positional_and_keyword_construction_agree(cls):
    args = SAMPLES[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(_fields(cls), args)))
    assert list(vars(by_position)) == _fields(cls)
    assert repr(by_position) == repr(by_keyword)
    for name, value in zip(_fields(cls), args):
        if cls is not RMatrix:  # RMatrix stores an array
            assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_defaults_fill_the_missing_trailing_fields(cls):
    # positional arguments alone, defaults for the rest (a fast path), agree
    # with the defaults spelled out by keyword
    args, fields = SAMPLES[cls], _fields(cls)
    for count in range(len(_required(cls)), len(fields) + 1):
        short = cls(*args[:count])
        spelled = cls(*args[:count],
                      **{f: DEFAULTS[cls][f] for f in fields[count:]})
        assert list(vars(short)) == fields
        assert repr(short) == repr(spelled)
        for name in fields[count:]:
            assert getattr(short, name) == DEFAULTS[cls][name]


def test_a_field_without_a_default_blocks_the_fast_path():
    class Gap(Record):
        a: int = 0
        b: int
        c: int = 2

    assert vars(Gap(1, 5)) == {"a": 1, "b": 5, "c": 2}
    for args in [(), (1,)]:
        with pytest.raises(TypeError, match=r"missing \['b'\]"):
            Gap(*args)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_bad_arguments_are_type_errors(cls):
    args, fields = SAMPLES[cls], _fields(cls)
    required = _required(cls)
    if required:
        with pytest.raises(TypeError, match=rf"missing \['{required[-1]}'\]"):
            cls(*args[:len(required) - 1])
    with pytest.raises(TypeError, match=r"unexpected or repeated \[None\]"):
        cls(*args, None)
    with pytest.raises(TypeError, match=r"unexpected or repeated \['bogus'\]"):
        cls(*args, bogus=1)
    with pytest.raises(TypeError, match=rf"repeated \['{fields[0]}'\]"):
        cls(*args, **{fields[0]: args[0]})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    made = cls(*SAMPLES[cls])
    before = repr(made)
    for name in [*_fields(cls), "extra"]:
        with pytest.raises(AttributeError, match="cannot assign to or delete"):
            setattr(made, name, None)
        with pytest.raises(AttributeError, match="cannot assign to or delete"):
            delattr(made, name)
    assert repr(made) == before


def test_tolerances_are_a_fresh_dict_per_config():
    given = {"jacobi": 1e-3}
    config = CheckConfig(tolerances=given)
    given["jacobi"] = 1.0
    assert config.tolerance("jacobi") == 1e-3
    assert CheckConfig().tolerances is not CheckConfig().tolerances


def test_equal_expression_nodes_compare_and_hash_equal():
    text = "sin(x) * (1 - y) ^ 2 + a"
    one, two = (exprlang.parse(text, ["x", "y"], ["a"]) for _ in range(2))
    assert one is not two
    assert one == two and hash(one) == hash(two)
    assert one != exprlang.parse("sin(x) * (1 - y) ^ 3 + a", ["x", "y"], ["a"])
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert Num(1.0) != Coord("x", 1) and Num(1.0) != 1.0
    assert Param("x") != Coord("x", 0)
    assert {Coord("x", 0), Coord("x", 0), Coord("x", 1)} == {
        Coord("x", 0), Coord("x", 1)}


def test_check_result_equality_ignores_the_table():
    bare = CheckResult("jacobi", "fail", 1e-6, 0.5, (0.0, 1.0))
    table = (np.zeros((2, 2)), np.array([0.5, 0.25]))
    with_table = CheckResult("jacobi", "fail", 1e-6, 0.5, (0.0, 1.0),
                             table=table)
    assert bare == with_table and hash(bare) == hash(with_table)
    assert bare != CheckResult("jacobi", "fail", 1e-6, 0.25, (0.0, 1.0))


def test_repr_is_the_dataclass_repr():
    assert repr(Num(1.0)) == "Num(value=1.0)"
    assert repr(Coord("x", 0)) == "Coord(name='x', index=0)"
    assert repr(BinOp("+", Num(1.0), Neg(Param("a")))) == (
        "BinOp(op='+', left=Num(value=1.0), right=Neg(operand=Param(name='a')))")
    assert repr(_Token("num", "1", 0)) == "_Token(kind='num', text='1', pos=0)"
    assert repr(CheckConfig()) == (
        "CheckConfig(checks=None, grid=(9,), tolerances={}, points=None)")
    assert repr(CheckResult("cybe", "skipped", 1e-6, reason="no-r-matrix")) == (
        "CheckResult(name='cybe', status='skipped', tolerance=1e-06, "
        "max_defect=None, argmax_point=None, reason='no-r-matrix', table=None)")


def test_post_init_runs():
    with pytest.raises(ValueError, match="exactly antisymmetric"):
        RMatrix([[0.0, 1.0], [1.0, 0.0]])
    r = RMatrix([[0, 1], [-1, 0]])
    assert r.components.dtype == float
    config = CheckConfig(checks=("cybe", "jacobi", "cybe", "jacobi"))
    assert config.checks == ("cybe", "jacobi")
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        CheckConfig(checks=("bogus",))
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        CheckConfig(("bogus",))  # positional, defaults for the rest


def test_pickle_round_trip():
    table = (np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 2.0]))
    result = CheckResult("divergence", "fail", 1e-6, 2.0, (4.0, 5.0),
                         table=table)
    back = pickle.loads(pickle.dumps(result))
    assert back == result and repr(back) == repr(result)
    for got, want in zip(back.table, table):
        np.testing.assert_array_equal(got, want)

    jet = jets.coordinate(np.array([0.5, 1.5]), 1, 2) * 2.0
    back = pickle.loads(pickle.dumps(jet))
    assert type(back) is Jet2
    for name in ("value", "gradient", "hessian"):
        np.testing.assert_array_equal(getattr(back, name), getattr(jet, name))


def test_rows_keep_the_field_order():
    a = ATensor(np.arange(8.0).reshape(4, 2), -np.arange(8.0).reshape(4, 2))
    rows = contravariant._rows(a, slice(1, 3))
    assert type(rows) is ATensor
    np.testing.assert_array_equal(rows.components, a.components[1:3])
    np.testing.assert_array_equal(rows.derivative, a.derivative[1:3])
