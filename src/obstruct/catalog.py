"""Built-in example scenes and presentations with known outcomes.

Each entry is stored as the exact config document a user would write, so
exports are bit-identical to hand-written files and every entry exercises
the same ingestion path as external configs.

The two conformal-sphere entries share the round metric written in a real
stereographic chart (the complex chart coordinate becomes u + iv, turning
``4 (1 + |z|^2)^-2 dz dz̄`` into ``4 (1 + u^2 + v^2)^-2 (du^2 + dv^2)``).
They differ only in the bivector: the fuzzy-sphere one is fixed by asking
the interior contraction with the volume form to be the constant h0 (so
the divergence condition passes while no flat metric can exist), the
standard-Podles one by the conformal factor h = 2c/(1 + u^2 + v^2) (so the
companion metric g' = h^-2 g is exactly flat while the divergence
obstruction fails).  Either sign of c gives the same outcomes: every
obstruction below is quadratic or linear-traceless in pi.
"""

from __future__ import annotations

import numpy as np

from . import config as config_mod
from .geometry import Scene
from .liealg import LieAlgebraPresentation, RMatrix, sl2
from .record import Record

__all__ = ["CatalogEntry", "example_names", "load_example"]

_TWO_PI = 6.283185307179586


class CatalogEntry(Record):
    """A named config document plus the expected status of each check
    (with a one-line reason) used by the verification suite."""

    name: str
    config: dict
    expected: tuple[tuple[str, str, str], ...]

    @property
    def kind(self) -> str:
        return self.config["kind"]

    def scene(self) -> Scene:
        return config_mod.scene_from_config(self.config)

    def presentation(self) -> tuple[LieAlgebraPresentation, RMatrix | None]:
        return config_mod.presentation_from_config(self.config)


def _flat_torus() -> CatalogEntry:
    doc = {
        "kind": "scene",
        "name": "flat-torus",
        "dimension": 2,
        "coordinates": ["x1", "x2"],
        "params": {"theta": 1.0},
        "metric": [["1", "0"], ["0", "1"]],
        "poisson": [["0", "theta"], ["-theta", "0"]],
        "box": [[0.0, _TWO_PI], [0.0, _TWO_PI]],
        "exclude": None,
        "orientation": 1,
    }
    expected = (
        ("jacobi", "pass", "constant bivector"),
        ("divergence", "pass", "constant bivector, flat metric"),
        ("torsion", "pass", "metric contravariant connection"),
        ("metric_compat", "pass", "metric contravariant connection"),
        ("curvature", "pass", "flat torus deforms smoothly"),
        ("gprime_flat", "pass", "companion metric is constant"),
    )
    return CatalogEntry("flat-torus", doc, expected)


def _fuzzy_sphere() -> CatalogEntry:
    doc = {
        "kind": "scene",
        "name": "fuzzy-sphere",
        "dimension": 2,
        "coordinates": ["u", "v"],
        "params": {"h0": 1.0},
        "metric": [["4 / (u*u + v*v + 1)^2", "0"],
                   ["0", "4 / (u*u + v*v + 1)^2"]],
        "poisson": [["0", "(h0/4) * (u*u + v*v + 1)^2"],
                    ["-((h0/4) * (u*u + v*v + 1)^2)", "0"]],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "exclude": None,
        "orientation": 1,
    }
    expected = (
        ("jacobi", "pass", "any bivector on a surface is Poisson"),
        ("divergence", "pass", "pi hooked into the volume form is constant"),
        ("torsion", "pass", "metric contravariant connection"),
        ("metric_compat", "pass", "metric contravariant connection"),
        ("curvature", "fail", "the sphere admits no flat metric"),
        ("gprime_flat", "fail", "g' is the round metric up to scale"),
    )
    return CatalogEntry("fuzzy-sphere", doc, expected)


def _podles_sphere() -> CatalogEntry:
    doc = {
        "kind": "scene",
        "name": "podles-sphere",
        "dimension": 2,
        "coordinates": ["u", "v"],
        "params": {"c": 2.0},
        "metric": [["4 / (u*u + v*v + 1)^2", "0"],
                   ["0", "4 / (u*u + v*v + 1)^2"]],
        "poisson": [["0", "(c/2) * (u*u + v*v + 1)"],
                    ["-((c/2) * (u*u + v*v + 1))", "0"]],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "exclude": None,
        "orientation": 1,
    }
    expected = (
        ("jacobi", "pass", "any bivector on a surface is Poisson"),
        ("divergence", "fail", "conformal factor h is non-constant"),
        ("torsion", "pass", "metric contravariant connection"),
        ("metric_compat", "pass", "metric contravariant connection"),
        ("curvature", "pass", "g' = h^-2 g is exactly flat"),
        ("gprime_flat", "pass", "g' is constant in this chart"),
    )
    return CatalogEntry("podles-sphere", doc, expected)


def _su2_dual() -> CatalogEntry:
    doc = {
        "kind": "scene",
        "name": "su2-dual",
        "dimension": 3,
        "coordinates": ["x1", "x2", "x3"],
        "params": {},
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "poisson": [["0", "x3", "-x2"],
                    ["-x3", "0", "x1"],
                    ["x2", "-x1", "0"]],
        "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        "exclude": "0.01 - (x1*x1 + x2*x2 + x3*x3)",
        "orientation": 1,
    }
    expected = (
        ("jacobi", "pass", "structure constants satisfy the Jacobi identity"),
        ("divergence", "pass", "structure constants are trace-free"),
        ("torsion", "pass", "metric contravariant connection"),
        ("metric_compat", "pass", "metric contravariant connection"),
        ("curvature", "fail", "K contracts to -(1/4)[[a,b],c], nonzero"),
        ("gprime_flat", "skipped", "linear bivector has rank 2 < 3"),
    )
    return CatalogEntry("su2-dual", doc, expected)


def _sl2_entry(name: str, r_rows, expected) -> CatalogEntry:
    pres = sl2()
    doc = config_mod.presentation_to_config(pres, RMatrix(r_rows), name=name)
    return CatalogEntry(name, doc, expected)


def _sl2_drinfeld_jimbo() -> CatalogEntry:
    r = np.zeros((3, 3))
    r[1, 2], r[2, 1] = 1.0, -1.0  # E wedge F
    return _sl2_entry(
        "sl2-drinfeld-jimbo", r,
        (
            ("cybe", "fail", "E wedge F does not solve the Yang-Baxter equation"),
            ("qg_divergence", "fail", "divergence is -[E, F] = -H"),
        ))


def _sl2_triangular() -> CatalogEntry:
    r = np.zeros((3, 3))
    r[0, 1], r[1, 0] = 1.0, -1.0  # H wedge E
    return _sl2_entry(
        "sl2-triangular", r,
        (
            ("cybe", "pass", "H wedge E is a triangular solution"),
            ("qg_divergence", "fail", "divergence is -[H, E] = -2E"),
        ))


_BUILDERS = {
    "flat-torus": _flat_torus,
    "fuzzy-sphere": _fuzzy_sphere,
    "podles-sphere": _podles_sphere,
    "su2-dual": _su2_dual,
    "sl2-drinfeld-jimbo": _sl2_drinfeld_jimbo,
    "sl2-triangular": _sl2_triangular,
}


def example_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def load_example(name: str) -> CatalogEntry:
    """Look up a built-in entry; raises KeyError listing valid names."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown example {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
