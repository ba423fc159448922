"""The benchmark's workloads and the seeded generic-4d scene.

Each workload is one fixed CLI command.  ``sphere-full`` and ``dual-subset``
run catalog entries, so their inputs do not depend on the seed (it only picks
the points the correctness gate spot-checks).  ``generic-4d`` runs a scene
generated here from the seed.  The generator re-implements the grammar of the
test suite's random smooth expressions instead of importing it, so that
editing the tests cannot change the workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    catalog: str | None       # catalog entry run by `obstruct example`, else a generated scene
    grid: int                 # per-axis sample count of the full sweep
    checks: tuple[str, ...]   # requested with --check; empty means all
    fmt: str                  # json (to stdout) or csv-points (to --out)
    workers: int              # OBSTRUCT_WORKERS
    exit_code: int            # expected exit code of the full sweep

    def cli_args(self, scene_path: str, out_path: str,
                 points_path: str | None = None) -> list[str]:
        """Arguments after `python -m obstruct`.  With ``points_path`` the
        grid is replaced by the points in that file (the set-up run)."""
        args = (["example", self.catalog] if self.catalog
                else ["check", scene_path])
        args += (["--points", points_path] if points_path
                 else ["--grid", str(self.grid)])
        for check in self.checks:
            args += ["--check", check]
        args += ["--format", self.fmt]
        if self.fmt == "csv-points":
            args += ["--out", out_path]
        return args


# Why each workload was chosen, and which layers it stresses and bypasses,
# is in README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("sphere-full", "podles-sphere", 33, (), "json", 1, 1),
        Workload("dual-subset", "su2-dual", 15, ("jacobi", "divergence"),
                 "csv-points", 2, 0),
        Workload("generic-4d", None, 4, (), "json", 1, 1),
    )
}


# -- generic-4d -------------------------------------------------------------

COORDS = ("x1", "x2", "x3", "x4")
BOX = [[-1.0, 1.0]] * len(COORDS)
TREE_DEPTH = 3
# Every random subexpression has exactly this many operations.
OPS_PER_TREE = 10
# Seed of the trees' shapes.  Every --seed gets the same operations in the
# same nesting, so the cost of a sweep does not depend on it; --seed draws
# the coordinates and the literals.
SHAPE_SEED = 0


def _random_tree(shape: np.random.Generator, rng: np.random.Generator,
                 coords) -> tuple[str, int]:
    """One tree of the random-smooth-expression grammar over ``coords``, with
    the number of jet operations it costs (unary minus of a literal
    included).  ``shape`` draws the operations, the kind of each leaf and
    the sign of each literal; ``rng`` draws the coordinates and the
    literals' magnitudes.  Every log and sqrt sees 1 + t^2 or 2 + t^2, and
    exp a sine."""

    def atom() -> tuple[str, int]:
        kind = shape.integers(0, 3)
        if kind == 0:
            negative = bool(shape.integers(0, 2))
            value = float(rng.uniform(0, 1))
            return repr(-value if negative else value), int(negative)
        name = coords[rng.integers(0, len(coords))]
        if kind == 1:
            return name, 0
        other = coords[rng.integers(0, len(coords))]
        return f"({name} * {other})", 1

    def build(depth: int) -> tuple[str, int]:
        if depth <= 0:
            return atom()
        kind = shape.integers(0, 10)
        (a, na), (b, nb) = build(depth - 1), build(depth - 1)
        if kind == 0:
            return f"({a} + {b})", na + nb + 1
        if kind == 1:
            return f"({a} - {b})", na + nb + 1
        if kind == 2:
            return f"({a} * {b})", na + nb + 1
        if kind == 3:
            return f"({a} / (2 + {b}^2))", na + nb + 3
        if kind == 4:
            return f"sin({a})", na + 1
        if kind == 5:
            return f"cos({a})", na + 1
        if kind == 6:
            return f"exp(sin({a}))", na + 2
        if kind == 7:
            return f"log(2 + {a}^2)", na + 3
        if kind == 8:
            return f"(1 + {a}^2)^1.5", na + 3
        return f"sqrt(1 + {a}^2)", na + 3

    return build(TREE_DEPTH)


def generic_scene(seed: int) -> dict:
    """A well-conditioned random 4-D scene config.

    g = diag(2 + e^2) + 0.25 sin(e) off the diagonal is strictly diagonally
    dominant (diagonal >= 2, off-diagonal row sum <= 0.75).  pi is the
    standard symplectic form with its two entries scaled by 1 + 0.2 sin(e),
    where the first e depends on x1, x2 only and the second on x3, x4 only.
    That keeps pi Poisson, which the two curvature routes the gate compares
    need: with 0.2 sin(e) added to every entry they differ by about 1% of
    |K|.  Its Pfaffian is at least 0.8^2 = 0.64.
    """
    shape = np.random.default_rng(SHAPE_SEED)
    rng = np.random.default_rng(seed)

    def tree(coords=COORDS) -> str:
        while True:
            text, ops = _random_tree(shape, rng, coords)
            if ops == OPS_PER_TREE:
                return text

    n = len(COORDS)
    metric = [[""] * n for _ in range(n)]
    poisson = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = tree()
            metric[i][j] = metric[j][i] = (f"2 + ({e})^2" if i == j
                                           else f"0.25 * sin({e})")
    for i, j in ((0, 1), (2, 3)):
        poisson[i][j] = f"1 + 0.2 * sin({tree(COORDS[i:j + 1])})"
        poisson[j][i] = f"-({poisson[i][j]})"
    return {
        "kind": "scene",
        "name": f"generic-4d-seed{seed}",
        "dimension": n,
        "coordinates": list(COORDS),
        "params": {},
        "metric": metric,
        "poisson": poisson,
        "box": BOX,
        "exclude": None,
        "orientation": 1,
    }


def write_generic_scene(seed: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(generic_scene(seed), handle, indent=1)
        handle.write("\n")
