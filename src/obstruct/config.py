"""Config-document ingestion and canonical digests.

A config is a single JSON object with top-level ``"kind"`` of ``"scene"``
or ``"lie_algebra"``; the remaining fields mirror the corresponding domain
type, with all component functions written as expression strings; a
field the type does not have is an error.  The digest hashes the document
read and written again in canonical form (expressions re-rendered from
their parse trees, numbers as floats, keys sorted, the cosmetic ``name``
dropped), so it is insensitive to whitespace but changes with any
semantically meaningful field.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import exprlang
from .geometry import Scene
from .liealg import LieAlgebraPresentation, RMatrix

__all__ = [
    "ConfigError", "load_config", "scene_from_config", "scene_to_config",
    "presentation_from_config", "presentation_to_config", "canonical_digest",
    "hash_canonical",
]


class ConfigError(ValueError):
    """Malformed or inconsistent config document."""


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err})") from err
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{path}: config must be a JSON object with a 'kind'")
    return doc


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}

# each kind's top-level fields, as its canonical writer emits them
_FIELDS = {
    "scene": ("kind", "name", "dimension", "coordinates", "params", "metric",
              "poisson", "box", "exclude", "orientation"),
    "lie_algebra": ("kind", "name", "dim", "basis", "structure_constants",
                    "metric", "r_matrix"),
}


def _check_fields(doc: dict, kind: str) -> None:
    """``doc`` is of ``kind`` and has no field that its writer does not
    emit: a misspelt field is an error, not an absent one."""
    if doc.get("kind") != kind:
        raise ConfigError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    for key in doc:
        if key not in _FIELDS[kind]:
            raise ConfigError(f"{kind} config has unknown field {key!r}")


def _field(doc: dict, key: str, kind: str, default=..., of: type = object):
    """``doc[key]``, of JSON type ``of``; an absent key gives ``default``,
    or a :class:`ConfigError` where there is none."""
    if key not in doc and default is ...:
        raise ConfigError(f"{kind} config is missing field {key!r}")
    value = doc.get(key, default)
    if not isinstance(value, of):
        raise ConfigError(f"{key} must be {_JSON_TYPES[of]}, got {value!r}")
    return value


def _names(doc: dict, key: str, size: str, kind: str) -> tuple[str, ...]:
    """The non-empty list of distinct names at ``key``; the optional count
    at ``size`` must be the JSON integer that is its length."""
    names = _field(doc, key, kind, of=list)
    if (not names or not all(isinstance(name, str) for name in names)
            or len(set(names)) < len(names)):
        raise ConfigError(
            f"{key} must be one or more distinct names, got {names!r}")
    count = doc.get(size, len(names))
    if type(count) is not int or count != len(names):
        raise ConfigError(f"{size} must be the integer {len(names)}, the "
                          f"length of {key}, got {count!r}")
    return tuple(names)


def _array(value, shape: tuple[int, ...], leaf, error: str):
    """``value``, nested JSON lists of exactly ``shape``, as nested tuples of
    ``leaf`` of each element; any other shape is ``ConfigError(error)``."""
    if not shape:
        return leaf(value)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ConfigError(error)
    return tuple(_array(part, shape[1:], leaf, error) for part in value)


def _numbers(value, field: str, shape: tuple[int, ...] = (), item: str = ""):
    """``value`` as a finite float, or as nested tuples of them of exactly
    ``shape``.  A string, bool, null, ragged array, ``10**400``, ``NaN`` or
    ``Infinity`` is a :class:`ConfigError`, which names ``item`` (default
    ``field``) where one number is not a float."""
    item = item or field

    def number(part) -> float:
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            raise ConfigError(f"{item}: expected a number, got {part!r}")
        try:
            part = float(part)
        except OverflowError as err:
            raise ConfigError(f"{item}: {err}") from None
        if not math.isfinite(part):
            raise ConfigError(f"{field} must be finite, got {part}")
        return part

    dims = "x".join(map(str, shape))
    return _array(value, shape, number,
                  f"{field}: expected a {dims} array of numbers")


def scene_from_config(doc: dict) -> Scene:
    _check_fields(doc, "scene")
    coords = _names(doc, "coordinates", "dimension", "scene")
    n = len(coords)
    params = _field(doc, "params", "scene", {}, dict)
    params = {key: _numbers(value, f"param {key!r}")
              for key, value in params.items()}
    for key in params:
        if key in coords:
            raise ConfigError(f"param {key!r} has the name of a coordinate")

    def parse(text, field: str):
        if not isinstance(text, str):
            raise ConfigError(f"{field}: expected an expression string, "
                              f"got {text!r}")
        try:
            return exprlang.parse(text, coords, list(params))
        except exprlang.ExprError as err:
            raise ConfigError(f"in {field}: {err}") from err

    def parse_matrix(key: str):
        return _array(_field(doc, key, "scene"), (n, n),
                      lambda text: parse(text, key),
                      f"{key} must be a {n}x{n} array of expressions")

    metric = parse_matrix("metric")
    poisson = parse_matrix("poisson")
    box = _numbers(_field(doc, "box", "scene"), "box bounds", (n, 2),
                   item="box bound")
    if any(hi <= lo for lo, hi in box):
        raise ConfigError("box bounds must satisfy lo < hi")
    exclude = None
    if doc.get("exclude") is not None:
        exclude = parse(doc["exclude"], "exclude")
    orientation = doc.get("orientation", 1)
    if type(orientation) is not int or orientation not in (1, -1):
        raise ConfigError(f"orientation must be +1 or -1, got {orientation!r}")
    return Scene(coords=coords, params=params, metric=metric, poisson=poisson,
                 box=box, exclude=exclude,
                 orientation=orientation,
                 name=_field(doc, "name", "scene", "", str))


def scene_to_config(scene: Scene) -> dict:
    doc = {
        "kind": "scene",
        "name": scene.name,
        "dimension": scene.dimension,
        "coordinates": list(scene.coords),
        "params": dict(scene.params),
        "metric": [[exprlang.pretty(e) for e in row] for row in scene.metric],
        "poisson": [[exprlang.pretty(e) for e in row] for row in scene.poisson],
        "box": [[lo, hi] for lo, hi in scene.box],
        "exclude": None if scene.exclude is None else exprlang.pretty(scene.exclude),
        "orientation": scene.orientation,
    }
    return doc


def presentation_from_config(doc: dict) -> tuple[LieAlgebraPresentation, RMatrix | None]:
    kind = "lie_algebra"
    _check_fields(doc, kind)
    _field(doc, "name", kind, "", str)  # cosmetic; the caller reads it
    basis = _names(doc, "basis", "dim", kind)
    n = len(basis)
    c = np.array(_numbers(_field(doc, "structure_constants", kind),
                          "structure_constants", (n, n, n)))
    if np.any(c + c.swapaxes(1, 2)):  # exactly, as RMatrix checks r
        raise ConfigError("structure_constants must be exactly antisymmetric "
                          "in their last two indices")
    b = np.array(_numbers(_field(doc, "metric", kind), "metric", (n, n)))
    if np.linalg.matrix_rank(b) < n:  # a cutoff relative to b's scale
        raise ConfigError(f"metric must be nondegenerate, of rank {n}")
    pres = LieAlgebraPresentation(n, c, b, basis)
    r = None
    if doc.get("r_matrix") is not None:  # RMatrix checks antisymmetry
        r = RMatrix(_numbers(doc["r_matrix"], "r_matrix", (n, n)))
    return pres, r


def presentation_to_config(pres: LieAlgebraPresentation,
                           r: RMatrix | None = None, name: str = "") -> dict:
    doc = {
        "kind": "lie_algebra",
        "name": name,
        "dim": pres.dim,
        "basis": list(pres.basis),
        "structure_constants": pres.structure_constants.tolist(),
        "metric": pres.metric.tolist(),
        "r_matrix": None if r is None else r.components.tolist(),
    }
    return doc


def canonical_digest(doc: dict) -> str:
    """sha256 of the canonicalized config: the document read and written
    again, so whitespace in the expressions, how a number is written, the
    cosmetic name and key order do not change it."""
    if doc.get("kind") == "scene":
        return hash_canonical(scene_to_config(scene_from_config(doc)))
    return hash_canonical(presentation_to_config(*presentation_from_config(doc)))


def hash_canonical(doc: dict) -> str:
    """:func:`canonical_digest` of a document already in canonical form,
    as :func:`scene_to_config` and :func:`presentation_to_config` give
    it, without parsing it again."""
    canon = {key: value for key, value in doc.items() if key != "name"}
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()
