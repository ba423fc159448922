"""Check orchestration, tolerance policy, and report rendering.

:func:`run_checks` samples a scene on a fixed lexicographic grid (or an
explicit point list), evaluates the requested defect tensors at every
point, and aggregates the max-abs norm over components and points into an
:class:`ObstructionReport`.

One process (``OBSTRUCT_WORKERS=1``, the default) sweeps the ``(P, n)``
grid array in blocks of :func:`block_size` points (at most :data:`BLOCK`,
and fewer as the dimension grows: a 33 x 33 grid is one block): each block
is one :meth:`~obstruct.contravariant.Frame.at` whose arrays carry a
leading point axis (innermost in memory), it builds only the layers its
checks need, and each check, run through its public per-point defect
function, reduces to one float64 array with a value per point, NaN for
gprime_flat where pi is degenerate.  With more workers
(``OBSTRUCT_WORKERS``, 0 = auto) every point is a job of its own in a
process pool, and the jobs' outcomes are gathered into the same arrays.
Both run the same functions, elementwise in the point axis, and a lone point
(a pool job, a 1-point block) runs as the padded block ``[p, p]``, so a
point's numbers are bitwise the same in any block and with any worker
count.  No block falls back to its single points: where pi is degenerate
at some points of a block only, g' is evaluated on a sub-block of the
others, and a block that fails is bisected into sub-blocks until its
first failing point is found, whose message is then the one a pool job
reports.  Results are reduced in grid order (:func:`numpy.argmax` takes
the first maximum) and the JSON rendering contains no volatile fields, so
reports are byte-identical across runs, block sizes and worker counts.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from functools import partial

import numpy as np

from . import __version__
from . import config as config_mod
from . import contravariant, poisson
from .geometry import Scene, SceneValidationError
from .liealg import LieAlgebraPresentation, RMatrix, cybe_defect, qg_divergence
from .poisson import DegeneratePoissonError
from .record import Record

__all__ = [
    "SCENE_CHECKS", "ALGEBRA_CHECKS", "SELF_TEST_CHECKS",
    "CheckConfig", "CheckResult", "ObstructionReport",
    "run_checks", "render_report",
]

VERSION = __version__

SCENE_CHECKS = ("jacobi", "divergence", "torsion", "metric_compat",
                "curvature", "gprime_flat")
ALGEBRA_CHECKS = ("cybe", "qg_divergence")
SELF_TEST_CHECKS = ("torsion", "metric_compat")

SELF_TEST_TOL = 1e-8
OBSTRUCTION_TOL = 1e-6


class CheckConfig(Record):
    """Which checks to run, on what grid, against what thresholds.

    ``checks=None`` means every check applicable to the subject kind, and
    a repeated check counts once.  ``points`` (explicit sample points)
    overrides the grid.  A check name that is not known, or a tolerance
    that is not finite and positive, is a :class:`ValueError` here.
    """

    checks: tuple[str, ...] | None = None
    grid: tuple[int, ...] = (9,)
    tolerances: dict[str, float] = {}  # copied per instance
    points: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "tolerances", dict(self.tolerances))
        if self.checks is not None:  # the first of each name, in order
            object.__setattr__(self, "checks", tuple(dict.fromkeys(self.checks)))
        known = SCENE_CHECKS + ALGEBRA_CHECKS
        for check in (*(self.checks or ()), *self.tolerances):
            if check not in known:
                raise ValueError(
                    f"unknown check {check!r}; known: {', '.join(known)}")
        for check, tol in self.tolerances.items():
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"tolerance for {check} must be finite "
                                 f"and positive, got {tol}")

    def tolerance(self, check: str) -> float:
        default = SELF_TEST_TOL if check in SELF_TEST_CHECKS else OBSTRUCTION_TOL
        return self.tolerances.get(check, default)


class CheckResult(Record, uncompared=("table",)):
    name: str
    status: str                      # pass | fail | skipped | failed-to-evaluate
    tolerance: float
    max_defect: float | None = None
    argmax_point: tuple[float, ...] | None = None
    reason: str | None = None
    # the sweep's (P, n) points and its (P,) defect magnitudes, kept as
    # arrays; only the csv-points rendering turns them into rows
    table: tuple[np.ndarray, np.ndarray] | None = None


class ObstructionReport(Record):
    name: str
    kind: str
    digest: str
    version: str
    grid: tuple[int, ...] | None
    points_evaluated: int
    checks: tuple[CheckResult, ...]
    wall_time: float

    @property
    def overall(self) -> str:
        statuses = {c.status for c in self.checks}
        if "failed-to-evaluate" in statuses:
            return "error"
        if "fail" in statuses:
            return "fail"
        return "pass"


# -- point evaluation -----------------------------------------------------------

# points per block of the single-process sweep: enough to share NumPy's
# per-call overhead among many points, few enough to keep the arrays small.
# A block holds at most _BLOCK_BUDGET // n**3 points, so its largest arrays
# (n**4 entries per point) stay near the same size in every dimension: the
# whole 33 x 33 grid of a 2-D scene is one block, a 3-D block holds 606
# points and a 4-D block 256.
BLOCK = 2048
_BLOCK_BUDGET = 2 ** 14

# what evaluating a point may raise: jet domain errors, overflow in
# constant arithmetic, a singular metric
_EVAL_ERRORS = (ArithmeticError, np.linalg.LinAlgError)


def block_size(dimension: int) -> int:
    """Points per block of the single-process sweep in ``dimension``."""
    return max(1, min(BLOCK, _BLOCK_BUDGET // dimension ** 3))


def _max_abs(val: np.ndarray) -> np.ndarray:
    """Max-abs over the tensor indices, one value per point of a block;
    inf where a component is not finite, so that NaN is free to mark a
    point where a check does not apply."""
    top = np.abs(val).reshape(len(val), -1).max(axis=-1)
    top[np.isnan(top)] = np.inf
    return top


# each scene check's public per-point defect function, called with the
# block's frame and looked up on its module at call time
_DEFECTS = {
    "jacobi": lambda f: poisson.jacobi_defect(f.scene, f.point, frame=f),
    "divergence": lambda f: poisson.divergence_defect(f.scene, f.point, frame=f),
    "torsion": lambda f: contravariant.torsion_defect(f.scene, f.point, frame=f),
    "metric_compat": lambda f: contravariant.metric_compat_defect(
        f.scene, f.point, frame=f),
    "curvature": lambda f: contravariant.curvature_explicit(
        f.scene, f.point, frame=f).components,
    "gprime_flat": lambda f: contravariant.gprime_riemann(f.scene, f.point, frame=f),
}


def _defect(check: str, frame: contravariant.Frame) -> np.ndarray:
    """Per-point max-abs of ``check``'s defect on ``frame``'s points, NaN
    where pi is degenerate.  Where pi is degenerate at some points of the
    block only, the others are evaluated on a fresh frame of their own,
    which rounds each of them as the whole block would."""
    try:
        return _max_abs(_DEFECTS[check](frame))
    except DegeneratePoissonError as err:
        keep = frame.rows(err.full)  # err.full marks the rows of frame.block
    out = np.full(len(frame.point), np.nan)
    if keep.any():
        sub = frame.point[keep]
        out[keep] = _max_abs(_DEFECTS[check](contravariant.Frame(frame.scene, sub)))
    return out


def _block_defects(scene: Scene, checks: tuple[str, ...], points: np.ndarray):
    """The defects of ``checks`` on a block of points, or the message of its
    first failure: an evaluation error, then a non-finite field or partial
    derivative, then a non-finite defect."""
    with np.errstate(all="ignore"):
        try:
            frame = contravariant.Frame.at(scene, points)
            defects = {check: _defect(check, frame) for check in checks}
        except (*_EVAL_ERRORS, DegeneratePoissonError) as err:
            return f"{type(err).__name__}: {err}"
    block = frame.block
    fields = (block.g, block.dg, block.d2g, block.pi, block.dpi, block.d2pi)
    if not all(np.isfinite(arr).all() for arr in fields):
        return "non-finite metric or poisson field"
    for check, val in defects.items():
        if np.isinf(val).any():
            return f"non-finite {check} defect"
    return defects


def _evaluate_point(scene: Scene, checks: tuple[str, ...], point):
    """The pool's job: defect magnitude per check at one point (NaN for
    gprime_flat where pi is degenerate), or the message of its failure."""
    found = _block_defects(scene, checks, np.asarray(point)[None])
    if isinstance(found, str):
        return found
    return {check: float(val[0]) for check, val in found.items()}


def _evaluate_block(scene: Scene, checks: tuple[str, ...], points: np.ndarray):
    """``(defects, None)`` for a block of points, or ``(None, (index,
    message))`` naming its first point that fails alone.  That point is
    found by bisection over sub-blocks, each of which fails exactly when
    one of its points does, and its message is the one a pool worker
    reports for it."""
    found = _block_defects(scene, checks, points)
    if not isinstance(found, str):
        return found, None
    lo, hi = 0, len(points)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if isinstance(_block_defects(scene, checks, points[lo:mid]), str):
            hi = mid
        else:
            lo = mid
    return None, (lo, _evaluate_point(scene, checks, points[lo]))


def _worker_count() -> int:
    raw = os.environ.get("OBSTRUCT_WORKERS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"OBSTRUCT_WORKERS must be an integer, got {raw!r}")
    if count == 0:
        return os.cpu_count() or 1
    if count < 0:
        raise ValueError("OBSTRUCT_WORKERS must be >= 0")
    return count


def _map_points(scene: Scene, checks: tuple[str, ...], points: np.ndarray):
    """``(defects, None)`` with one array per check over ``points`` (a
    ``(P, n)`` array in grid order), or ``(None, (index, message))`` for
    the first point that fails.  One process sweeps blocks of
    :func:`block_size` points; more workers evaluate every point as a job
    of its own, and their outcomes are gathered into the same arrays."""
    workers = _worker_count()
    if workers <= 1 or len(points) <= 1:
        size = block_size(scene.dimension)
        defects = {check: np.empty(len(points)) for check in checks}
        for start in range(0, len(points), size):
            found, failure = _evaluate_block(scene, checks,
                                             points[start:start + size])
            if failure is not None:
                return None, (start + failure[0], failure[1])
            for check in checks:
                defects[check][start:start + size] = found[check]
        return defects, None
    # imported here: the pool's modules add about 20 ms to every start
    from concurrent.futures import ProcessPoolExecutor

    job = partial(_evaluate_point, scene, checks)
    chunk = max(1, len(points) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(job, points, chunksize=chunk))
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            return None, (index, outcome)
    return {check: np.array([outcome[check] for outcome in outcomes])
            for check in checks}, None


# -- orchestration --------------------------------------------------------------


def run_checks(subject, check_config: CheckConfig | None = None, *,
               r: RMatrix | None = None,
               name: str | None = None) -> ObstructionReport:
    """Run the configured checks on a :class:`Scene` or a
    :class:`LieAlgebraPresentation` and aggregate a report.

    Scene subjects are validated first (:class:`SceneValidationError`
    propagates with the violated invariant, and also where ``exclude``
    drops every grid point).  The report is a pure
    function of subject and config: point order is the lexicographic grid
    order and worker scheduling cannot change any number in it.
    """
    cfg = check_config or CheckConfig()
    started = time.perf_counter()
    if isinstance(subject, Scene):
        kind, applicable = "scene", SCENE_CHECKS
        results = partial(_scene_results, subject, cfg)
    elif isinstance(subject, LieAlgebraPresentation):
        kind, applicable = "lie_algebra", ALGEBRA_CHECKS
        results = partial(_algebra_results, subject, r)
    else:
        raise TypeError(f"cannot run checks on {type(subject).__name__}")
    asked = applicable if cfg.checks is None else cfg.checks
    run = tuple(c for c in asked if c in applicable)
    outcomes, grid, points_evaluated, doc = results(run)
    label = kind.replace("_", "-")
    rows = []
    for check in (*run, *(c for c in asked if c not in applicable)):
        row = outcomes.get(check, {"status": "skipped",
                                   "reason": f"not-applicable-to-{label}"})
        tol = cfg.tolerance(check)
        if "status" not in row:
            row = {**row, "status": "pass" if row["max_defect"] <= tol else "fail"}
        rows.append(CheckResult(check, tolerance=tol, **row))
    return ObstructionReport(
        name=name or doc["name"] or label,
        kind=kind,
        digest=config_mod.hash_canonical(doc),
        version=VERSION,
        grid=grid,
        points_evaluated=points_evaluated,
        checks=tuple(rows),
        wall_time=time.perf_counter() - started,
    )


def _scene_results(scene: Scene, cfg: CheckConfig, run: tuple[str, ...]):
    """Each ``run`` check's :class:`CheckResult` fields on ``scene`` but its
    name, tolerance and (if measured) status; the grid; the number of
    points evaluated; and the scene's canonical document."""
    scene.validate()
    if cfg.points is not None:
        points = [np.asarray(p, dtype=float) for p in cfg.points]
        for p in points:
            if p.shape != (scene.dimension,):
                raise ValueError(
                    f"sample point {p.tolist()} does not match scene "
                    f"dimension {scene.dimension}")
            if not np.isfinite(p).all():
                raise ValueError(f"sample point {p.tolist()} is not finite")
        points = np.array([p for p in points if not scene.is_excluded(p)],
                          dtype=float).reshape(-1, scene.dimension)
        grid = None
    else:
        points = scene.grid(cfg.grid)
        grid = tuple(cfg.grid) if len(cfg.grid) > 1 else (cfg.grid[0],) * scene.dimension
        if not len(points):
            raise SceneValidationError(
                "no sample points: exclude drops every grid point")
    doc = config_mod.scene_to_config(scene)
    defects, failure = _map_points(scene, run, points)
    if failure is not None:
        index, msg = failure
        failed = {"status": "failed-to-evaluate",
                  "reason": f"{msg} at point {points[index].tolist()}"}
        return dict.fromkeys(run, failed), grid, len(points), doc
    outcomes = {}
    for check, values in defects.items():
        missing = np.isnan(values)
        if not len(values):  # every explicit point excluded
            outcomes[check] = {"status": "skipped", "reason": "no-sample-points"}
        elif missing.any():  # gprime_flat where pi is degenerate
            outcomes[check] = {"status": "skipped", "reason": (
                "pi-degenerate-everywhere" if missing.all()
                else f"pi-degenerate-at {points[np.argmax(missing)].tolist()}")}
        else:
            top = int(np.argmax(values))  # the first maximum
            outcomes[check] = {"max_defect": float(values[top]),
                               "argmax_point": tuple(points[top].tolist()),
                               "table": (points, values)}
    return outcomes, grid, len(points), doc


def _algebra_results(pres: LieAlgebraPresentation, r: RMatrix | None,
                     run: tuple[str, ...]):
    """:func:`_scene_results` for a presentation and its r-matrix."""
    outcomes = {}
    for check in run:
        if r is None:
            outcomes[check] = {"status": "skipped", "reason": "no-r-matrix"}
        else:
            val = cybe_defect(pres, r) if check == "cybe" else qg_divergence(pres, r)
            outcomes[check] = {"max_defect": float(np.max(np.abs(val)))}
    return outcomes, None, 0, config_mod.presentation_to_config(pres, r)


# -- rendering -------------------------------------------------------------------


def render_report(report: ObstructionReport, fmt: str = "json") -> bytes:
    """Serialize a report: ``json`` (canonical, deterministic bytes),
    ``text`` (human summary), or ``csv-points`` (per-point defect
    magnitudes for plotting)."""
    if fmt == "json":
        return _render_json(report)
    if fmt == "text":
        return _render_text(report)
    if fmt == "csv-points":
        return _render_csv(report)
    raise ValueError(f"unknown format {fmt!r}")


def _render_json(report: ObstructionReport) -> bytes:
    # wall time is deliberately not serialized: json bytes are part of the
    # determinism contract
    checks = {}
    for c in report.checks:
        checks[c.name] = {
            "status": c.status,
            "max_defect": c.max_defect,
            "argmax_point": None if c.argmax_point is None else list(c.argmax_point),
            "tolerance": c.tolerance,
            "reason": c.reason,
        }
    doc = {
        "name": report.name,
        "kind": report.kind,
        "digest": report.digest,
        "version": report.version,
        "grid": None if report.grid is None else list(report.grid),
        "points_evaluated": report.points_evaluated,
        "checks": checks,
        "overall": report.overall,
    }
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode("utf-8")


def _render_text(report: ObstructionReport) -> bytes:
    out = io.StringIO()
    out.write(f"{report.kind}: {report.name}\n")
    out.write(f"digest: {report.digest}\n")
    out.write(f"version: {report.version}")
    if report.grid is not None:
        out.write(f"  grid: {'x'.join(str(g) for g in report.grid)}")
    out.write(f"  points: {report.points_evaluated}")
    out.write(f"  wall: {report.wall_time:.3f}s\n\n")
    for c in report.checks:
        if c.status in ("pass", "fail"):
            where = ""
            if c.argmax_point is not None:
                coords = ", ".join(f"{x:.6g}" for x in c.argmax_point)
                where = f" at ({coords})"
            out.write(f"{c.name:<14} max {c.max_defect:.3e}{where}"
                      f"  tol {c.tolerance:.1e}  {c.status.upper()}\n")
        else:
            out.write(f"{c.name:<14} {c.status.upper()} ({c.reason})\n")
    out.write(f"\noverall: {report.overall.upper()}\n")
    return out.getvalue().encode("utf-8")


def _render_csv(report: ObstructionReport) -> bytes:
    tables = [(c.name, c.table) for c in report.checks if c.table is not None]
    out = io.StringIO()
    for idx, (name, (points, values)) in enumerate(tables):
        if len(tables) > 1:
            if idx:
                out.write("\n")
            out.write(f"# check: {name}\n")
        out.write("".join(f"x{i}," for i in range(points.shape[1])) + "defect\n")
        for point, defect in zip(points.tolist(), values.tolist()):
            out.write(",".join(map(repr, point + [defect])) + "\n")
    return out.getvalue().encode("utf-8")
