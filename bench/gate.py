"""Correctness gate: each CLI output is checked against the catalog's frozen
statuses and against defects recomputed through the per-point public API.

The recomputation is the program's own per-point code, so values are compared
to a tight tolerance: far below every check's pass threshold, yet loose enough
that a change of summation order does not count as a wrong answer.  Argmax
points are compared by value, because a defect at rounding level has many
near-ties.
"""

from __future__ import annotations

import json
import math

import numpy as np

from obstruct import catalog, contravariant, poisson

REL_TOL = 1e-9
ABS_TOL = 1e-12
# a curvature route gap below this share of max(1, |K|) is rounding
ROUTE_TOL = 1e-7
# pass thresholds the CLI documents for checks run without --tol
SELF_TEST_TOL = 1e-8
OBSTRUCTION_TOL = 1e-6


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def expected_statuses(workload) -> dict[str, str]:
    """Statuses the sweep must report: the catalog's frozen outcomes, or for
    the generated scene the two self-tests, which hold on every scene, and
    jacobi, which holds because the generator builds a Poisson pi."""
    if workload.catalog is None:
        return {"jacobi": "pass", "torsion": "pass", "metric_compat": "pass"}
    frozen = {name: status
              for name, status, _ in catalog.load_example(workload.catalog).expected}
    wanted = workload.checks or tuple(frozen)
    return {name: frozen[name] for name in wanted}


def read_report(data: bytes, fmt: str, requested: tuple[str, ...]) -> dict:
    """Points evaluated and, per check, status, max_defect, argmax point and
    (CSV only) the per-point rows, parsed from the CLI's output bytes."""
    if fmt == "json":
        doc = json.loads(data)
        checks = {}
        for name, c in doc["checks"].items():
            argmax = c["argmax_point"]
            checks[name] = {"status": c["status"], "max_defect": c["max_defect"],
                            "argmax": None if argmax is None else tuple(argmax),
                            "rows": None}
        return {"points": doc["points_evaluated"], "checks": checks}
    tables: dict[str, list] = {}
    name = requested[0] if len(requested) == 1 else None
    for line in data.decode("utf-8").splitlines():
        if line.startswith("# check: "):
            name = line[len("# check: "):]
        elif line.startswith("x0,"):
            tables[name] = []
        elif line:
            *coords, defect = line.split(",")
            tables[name].append((tuple(float(x) for x in coords), float(defect)))
    checks = {}
    for name, rows in tables.items():
        point, worst = max(rows, key=lambda row: row[1])
        tol = SELF_TEST_TOL if name in ("torsion", "metric_compat") else OBSTRUCTION_TOL
        checks[name] = {"status": "pass" if worst <= tol else "fail",
                        "max_defect": worst, "argmax": point, "rows": rows}
    points = len(next(iter(tables.values()))) if tables else 0
    return {"points": points, "checks": checks}


def defects_at(scene, point, checks) -> dict[str, float | None]:
    """Max-abs of each check's defect tensor at one point, through the
    per-point public API (None where pi is degenerate for gprime_flat)."""
    point = np.asarray(point, dtype=float)
    out: dict[str, float | None] = {}
    frame = None
    for check in checks:
        if check == "jacobi":
            val = poisson.jacobi_defect(scene, point)
        elif check == "divergence":
            val = poisson.divergence_defect(scene, point)
        else:
            frame = frame or contravariant.Frame.at(scene, point)
            if check == "torsion":
                val = contravariant.torsion_defect(scene, point, frame=frame)
            elif check == "metric_compat":
                val = contravariant.metric_compat_defect(scene, point, frame=frame)
            elif check == "curvature":
                val = contravariant.curvature_explicit(scene, point,
                                                       frame=frame).components
            else:
                try:
                    val = contravariant.gprime_riemann(scene, point, frame=frame)
                except poisson.DegeneratePoissonError:
                    out[check] = None
                    continue
        out[check] = float(np.max(np.abs(val)))
    return out


def route_gap(scene, point) -> float:
    """Explicit against definitional curvature at a point, as a share of
    max(1, |K|)."""
    frame = contravariant.Frame.at(scene, np.asarray(point, dtype=float))
    ke = contravariant.curvature_explicit(scene, point, frame=frame).components
    kd = contravariant.curvature_definitional(scene, point, frame=frame).components
    return float(np.max(np.abs(ke - kd))) / max(1.0, float(np.max(np.abs(ke))))


def problems(workload, scene, grid, report: dict, sample: list[int] | None) -> list[str]:
    """Everything wrong with one parsed report; empty when it is correct.

    ``grid`` is the sweep's point list in CLI order.  With ``sample=None``
    every point is recomputed, otherwise only the listed grid indices and
    the reported argmax points.
    """
    found = []
    for name, status in expected_statuses(workload).items():
        got = report["checks"].get(name, {}).get("status")
        if got != status:
            found.append(f"{name}: status {got}, expected {status}")
    if report["points"] != len(grid):
        found.append(f"{report['points']} points evaluated, grid has {len(grid)}")
        return found
    names = [n for n, c in report["checks"].items() if c["max_defect"] is not None]
    indices = range(len(grid)) if sample is None else sample
    recomputed = {i: defects_at(scene, grid[i], names) for i in indices}
    for name in names:
        c = report["checks"][name]
        at_argmax = defects_at(scene, c["argmax"], [name])[name]
        if at_argmax is None or not close(at_argmax, c["max_defect"]):
            found.append(f"{name}: max_defect {c['max_defect']!r} but the "
                         f"defect at its argmax point is {at_argmax!r}")
        values = [recomputed[i][name] for i in indices]
        if sample is None and not close(max(values), c["max_defect"]):
            found.append(f"{name}: max_defect {c['max_defect']!r}, "
                         f"recomputed {max(values)!r}")
        if any(v > c["max_defect"] and not close(v, c["max_defect"]) for v in values):
            found.append(f"{name}: a point exceeds max_defect")
        if c["rows"] is not None:
            for i in indices:
                point, value = c["rows"][i]
                if point != tuple(grid[i].tolist()) or not close(value, recomputed[i][name]):
                    found.append(f"{name}: CSV row {i} is {point} {value!r}, "
                                 f"recomputed {recomputed[i][name]!r}")
                    break
    if workload.catalog is None:
        for i in (sample if sample is not None else range(0, len(grid), 25)):
            gap = route_gap(scene, grid[i])
            if gap > ROUTE_TOL:
                found.append(f"curvature routes differ by {gap:.3g} at {grid[i].tolist()}")
    return found
