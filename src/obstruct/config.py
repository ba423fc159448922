"""Config-document ingestion and canonical digests.

A config is a single JSON object with top-level ``"kind"`` of ``"scene"``
or ``"lie_algebra"``; the remaining fields mirror the corresponding domain
type, with all component functions written as expression strings.  The
scene digest hashes a canonicalized form of the document (expressions
re-rendered from their parse trees, keys sorted, the cosmetic ``name``
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


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise ConfigError(f"{kind} config is missing field {key!r}")
    return doc[key]


def _float(value, field: str, array: bool = False):
    """``value`` as a float, or as a float array; a value that is not a
    number, or is too large for a float (a JSON integer such as
    ``10**400``), is a :class:`ConfigError` naming ``field``."""
    try:
        return np.asarray(value, dtype=float) if array else float(value)
    except (OverflowError, TypeError, ValueError) as err:
        raise ConfigError(f"{field}: {err}") from None


def scene_from_config(doc: dict) -> Scene:
    if doc.get("kind") != "scene":
        raise ConfigError(f"expected kind 'scene', got {doc.get('kind')!r}")
    coords = _require(doc, "coordinates", "scene")
    if (not isinstance(coords, (list, tuple)) or not coords
            or not all(isinstance(c, str) for c in coords)
            or len(set(coords)) < len(coords)):
        raise ConfigError(
            f"coordinates must be one or more distinct names, got {coords!r}")
    coords = tuple(coords)
    n = int(doc.get("dimension", len(coords)))
    if n != len(coords):
        raise ConfigError(
            f"dimension {n} does not match {len(coords)} coordinate names")
    params = {str(k): _float(v, f"param {k!r}")
              for k, v in dict(doc.get("params", {})).items()}
    for key, value in params.items():
        if key in coords:
            raise ConfigError(f"param {key!r} has the name of a coordinate")
        if not math.isfinite(value):
            raise ConfigError(f"param {key!r} must be finite, got {value}")
    names = list(params)

    def parse(text, field: str):
        if not isinstance(text, str):
            raise ConfigError(f"{field}: expected an expression string, "
                              f"got {text!r}")
        try:
            return exprlang.parse(text, coords, names)
        except exprlang.ExprError as err:
            raise ConfigError(f"in {field}: {err}") from err

    def parse_matrix(key: str):
        rows = _require(doc, key, "scene")
        if len(rows) != n or any(isinstance(r, str) or len(r) != n for r in rows):
            raise ConfigError(f"{key} must be a {n}x{n} array of expressions")
        return tuple(tuple(parse(e, key) for e in row) for row in rows)

    metric = parse_matrix("metric")
    poisson = parse_matrix("poisson")
    box_doc = _require(doc, "box", "scene")
    if len(box_doc) != n or any(len(b) != 2 for b in box_doc):
        raise ConfigError("box must give one [lo, hi] pair per axis")
    box = tuple((_float(lo, "box bound"), _float(hi, "box bound"))
                for lo, hi in box_doc)
    if not all(map(math.isfinite, sum(box, ()))):
        raise ConfigError(f"box bounds must be finite, got {[list(b) for b in box]}")
    if any(hi <= lo for lo, hi in box):
        raise ConfigError("box bounds must satisfy lo < hi")
    exclude = None
    if doc.get("exclude") is not None:
        exclude = parse(doc["exclude"], "exclude")
    orientation = int(doc.get("orientation", 1))
    if orientation not in (1, -1):
        raise ConfigError("orientation must be +1 or -1")
    return Scene(coords=coords, params=params, metric=metric, poisson=poisson,
                 box=box, exclude=exclude, orientation=orientation,
                 name=str(doc.get("name", "")))


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
    if doc.get("kind") != "lie_algebra":
        raise ConfigError(f"expected kind 'lie_algebra', got {doc.get('kind')!r}")
    basis = tuple(_require(doc, "basis", "lie_algebra"))
    n = int(doc.get("dim", len(basis)))
    if n != len(basis):
        raise ConfigError(f"dim {n} does not match {len(basis)} basis names")
    c = _float(_require(doc, "structure_constants", "lie_algebra"),
               "structure_constants", array=True)
    if c.shape != (n, n, n):
        raise ConfigError(f"structure_constants must have shape ({n},{n},{n})")
    b = _float(_require(doc, "metric", "lie_algebra"), "metric", array=True)
    if b.shape != (n, n):
        raise ConfigError(f"metric must have shape ({n},{n})")
    pres = LieAlgebraPresentation(n, c, b, basis)
    r = None
    if doc.get("r_matrix") is not None:
        rm = _float(doc["r_matrix"], "r_matrix", array=True)
        if rm.shape != (n, n):
            raise ConfigError(f"r_matrix must have shape ({n},{n})")
        try:
            r = RMatrix(rm)
        except ValueError as err:
            raise ConfigError(str(err)) from err
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
    """sha256 of the canonicalized config (whitespace-insensitive in the
    expressions, independent of the cosmetic name and of key order)."""
    if doc.get("kind") == "scene":
        doc = {**doc, **scene_to_config(scene_from_config(doc))}
    return hash_canonical(doc)


def hash_canonical(doc: dict) -> str:
    """:func:`canonical_digest` of a document already in canonical form,
    as :func:`scene_to_config` and :func:`presentation_to_config` give
    it, without parsing it again."""
    canon = {key: value for key, value in doc.items() if key != "name"}
    payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()
