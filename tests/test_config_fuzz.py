"""Seeded fuzzing of the config readers through the CLI: one field, or one
nested element, of a valid document replaced by junk must end in exit code
0, 1 or 2, never in an escaped exception, and an exit 2 without a report is
exactly one ``error:`` line.  A value of a JSON type that the field never
accepts must exit 2, and so must a top-level field that the kind does not
have."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_scene
from obstruct import catalog, cli, config

DOCS = ([catalog.load_example(name).config for name in catalog.example_names()]
        + [config.scene_to_config(flat_scene(2))])

# the JSON types each field accepts: a set of type names, a one-element list
# for an array of that schema, a one-element tuple for an object of it
NUMBER = {"int", "float"}
SCHEMAS = {
    "scene": {"kind": {"str"}, "name": {"str"}, "dimension": {"int"},
              "coordinates": [{"str"}], "params": (NUMBER,),
              "metric": [[{"str"}]], "poisson": [[{"str"}]],
              "box": [[NUMBER]], "exclude": {"str"}, "orientation": {"int"}},
    "lie_algebra": {"kind": {"str"}, "name": {"str"}, "dim": {"int"},
                    "basis": [{"str"}], "structure_constants": [[[NUMBER]]],
                    "metric": [[NUMBER]], "r_matrix": [[NUMBER]]},
}
OPTIONAL = {"exclude", "r_matrix"}  # null means absent


def json_type(value) -> str:
    for name, types in (("null", type(None)), ("bool", bool), ("int", int),
                        ("float", float), ("str", str), ("list", list)):
        if isinstance(value, types):
            return name
    return "dict"


def accepted(kind: str, path: tuple) -> set[str]:
    """The JSON types that the value at ``path`` of a ``kind`` document may
    have."""
    schema = SCHEMAS[kind]
    for key in path:
        schema = schema[0] if isinstance(schema, (list, tuple)) else schema[key]
    if isinstance(schema, (list, tuple)):
        schema = {"list" if isinstance(schema, list) else "dict"}
    return schema | ({"null"} if path[0] in OPTIONAL and len(path) == 1 else set())


STRINGS = st.sampled_from(["", "2", "-1", "x", "u", "nan", "1e999", "scene",
                           "lie_algebra"]) | st.text(max_size=3)
LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.just(10 ** 400)
          | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
          | STRINGS)
JUNK = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(STRINGS, inner, max_size=2), max_leaves=6)


@st.composite
def mutations(draw):
    """A copy of a valid document with one field or nested element replaced
    by junk, its kind, the path of the replaced value, and the junk."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    kind = doc["kind"]
    path = [draw(st.sampled_from(sorted(doc)))]
    parent = doc
    while (isinstance(parent[path[-1]], (list, dict)) and parent[path[-1]]
           and draw(st.booleans())):
        parent = parent[path[-1]]
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        path.append(draw(st.sampled_from(keys)))
    junk = draw(JUNK)
    parent[path[-1]] = junk
    return doc, kind, tuple(path), junk


def run_cli(doc) -> tuple[int, bytes, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        stdout = io.TextIOWrapper(io.BytesIO())
        stderr = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["check", path, "--grid", "3"])
        return code, stdout.buffer.getvalue(), stderr.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutations())
def test_one_junk_field_exits_cleanly(mutation):
    doc, kind, path, junk = mutation
    code, out, err = run_cli(doc)
    assert code in (cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_ERROR)
    # a report whose checks failed to evaluate also exits 2
    if code == cli.EXIT_ERROR and not out.endswith(b"overall: ERROR\n"):
        assert out == b""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    if json_type(junk) not in accepted(kind, path):
        assert code == cli.EXIT_ERROR


@st.composite
def extra_fields(draw):
    """A copy of a valid document with one top-level field added that its
    kind does not have, and that field's name."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    key = draw(STRINGS.filter(lambda key: key not in SCHEMAS[doc["kind"]]))
    doc[key] = draw(JUNK)
    return doc, key


@settings(derandomize=True, max_examples=100, deadline=None)
@given(extra_fields())
def test_an_unknown_top_level_field_exits_2(mutation):
    doc, key = mutation
    code, out, err = run_cli(doc)
    assert code == cli.EXIT_ERROR
    assert out == b""
    assert err.splitlines() == [
        f"error: {doc['kind']} config has unknown field {key!r}"]
