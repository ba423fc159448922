"""Check orchestration, tolerance policy, and report rendering.

:func:`run_checks` samples a scene on a fixed lexicographic grid (or an
explicit point list), evaluates the requested defect tensors at every
point, and aggregates the max-abs norm over components and points into an
:class:`ObstructionReport`.

One process (``OBSTRUCT_WORKERS=1``, the default) sweeps the points in
blocks of :data:`BLOCK`: each block is one :class:`~obstruct.contravariant.Frame`
whose arrays carry a leading point axis (innermost in memory), it builds
only the layers its checks need, and each check reduces to one maximum per
point.  With more workers (``OBSTRUCT_WORKERS``, 0 = auto) every point is a
job of its own in a process pool.  Both run the same kernel, elementwise in
the point axis, and a lone point (a pool job, a 1-point tail block) runs as
the padded block ``[p, p]``, so a point's numbers are bitwise the same in
any block and with any worker count; a block in which some point fails is
evaluated again point by point, so the failing point and its message are
the same too.  Results are reduced in grid order and the JSON rendering
contains no volatile fields, so reports are byte-identical across runs,
block sizes and worker counts.
"""

from __future__ import annotations

import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from . import config as config_mod
from . import contravariant, poisson
from .geometry import Scene, SceneValidationError
from .liealg import LieAlgebraPresentation, RMatrix, cybe_defect, qg_divergence
from .poisson import DegeneratePoissonError

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


def default_tolerance(check: str) -> float:
    return SELF_TEST_TOL if check in SELF_TEST_CHECKS else OBSTRUCTION_TOL


@dataclass(frozen=True)
class CheckConfig:
    """Which checks to run, on what grid, against what thresholds.

    ``checks=None`` means every check applicable to the subject kind.
    ``points`` (explicit sample points) overrides the grid.
    """

    checks: tuple[str, ...] | None = None
    grid: tuple[int, ...] = (9,)
    tolerances: dict[str, float] = field(default_factory=dict)
    points: tuple[tuple[float, ...], ...] | None = None

    def tolerance(self, check: str) -> float:
        tol = self.tolerances.get(check, default_tolerance(check))
        if tol <= 0:
            raise ValueError(f"tolerance for {check} must be positive")
        return tol


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str                      # pass | fail | skipped | failed-to-evaluate
    tolerance: float
    max_defect: float | None = None
    argmax_point: tuple[float, ...] | None = None
    reason: str | None = None
    table: tuple[tuple[tuple[float, ...], float], ...] | None = None


@dataclass(frozen=True)
class ObstructionReport:
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
# On su2-dual at grid 15 (3,374 points, every check; 2-vCPU x86-64 host)
# the CLI peaked at 42.8 MB RSS with these blocks and at 65.1 MB with the
# whole grid as one block.
BLOCK = 256

# what evaluating a point may raise: jet domain errors, overflow in
# constant arithmetic, a singular metric
_EVAL_ERRORS = (ArithmeticError, np.linalg.LinAlgError)


def _max_abs(val: np.ndarray, lead: int) -> np.ndarray:
    """Max-abs over the tensor indices, one value per point."""
    return np.abs(val).reshape(val.shape[:lead] + (-1,)).max(axis=-1)


def _defects(frame: contravariant.Frame, checks: tuple[str, ...]) -> dict:
    """Per-point defect magnitudes of each check on a frame of one point
    or a block; None for gprime_flat where pi is degenerate at every
    point.  Raises DegeneratePoissonError if pi is degenerate at some
    points of a block but not at all of them."""
    scene, point = frame.scene, frame.point
    out: dict[str, np.ndarray | None] = {}
    for check in checks:
        if check == "jacobi":
            val = poisson.jacobi_from(frame.pi, frame.dpi)
        elif check == "divergence":
            val = poisson.divergence_from(frame.nabla_pi)
        elif check == "torsion":
            val = contravariant.torsion_defect(scene, point, frame=frame)
        elif check == "metric_compat":
            val = contravariant.metric_compat_defect(scene, point, frame=frame)
        elif check == "curvature":
            val = contravariant.curvature_explicit(scene, point,
                                                   frame=frame).components
        elif check == "gprime_flat":
            try:
                val = contravariant.gprime_riemann(scene, point, frame=frame)
            except DegeneratePoissonError:
                if np.all(poisson.pi_rank_from(frame.pi) < scene.dimension):
                    out[check] = None  # degenerate here; check gets skipped
                    continue
                raise
        else:
            raise ValueError(f"unknown scene check {check!r}")
        out[check] = _max_abs(val, point.ndim - 1)
    return out


def _checked_defects(build, checks: tuple[str, ...]):
    """The defects of ``checks`` on the frame ``build()`` returns, or the
    message of the first failure: an evaluation error, then a non-finite
    field or partial derivative, then a non-finite defect."""
    with np.errstate(all="ignore"):
        try:
            frame = build()
            defects = _defects(frame, checks)
        except (*_EVAL_ERRORS, DegeneratePoissonError) as err:
            return f"{type(err).__name__}: {err}"
    fields = (frame.g, frame.dg, frame.d2g, frame.pi, frame.dpi, frame.d2pi)
    if not all(np.isfinite(arr).all() for arr in fields):
        return "non-finite metric or poisson field"
    for check, val in defects.items():
        if val is not None and not np.isfinite(val).all():
            return f"non-finite {check} defect"
    return defects


def _evaluate_point(scene: Scene, checks: tuple[str, ...], point):
    """Defect magnitudes for one point, row 0 of the padded block
    ``[p, p]`` (a 1-point block would round differently); returns
    ('error', message) on a failure so reductions stay deterministic."""
    pair = np.array([point, point])
    found = _checked_defects(partial(_block_frame, scene, pair), checks)
    if isinstance(found, str):
        return ("error", found)
    return ("ok", {check: None if val is None else float(val[0])
                   for check, val in found.items()})


def _block_frame(scene: Scene, points: np.ndarray) -> contravariant.Frame:
    """A frame of a block with both fields and the metric inverse built,
    the layers :meth:`Frame.at` can fail in, so that the block fails
    wherever one of its points fails alone; the other layers are built
    only if a check needs them."""
    frame = contravariant.Frame(scene, points)
    for layer in ("metric_eval", "pi_eval", "inverse"):
        getattr(frame, layer)
    return frame


def _evaluate_block(scene: Scene, checks: tuple[str, ...], points: np.ndarray):
    """Outcomes of a block of points through the batched kernel, or None
    when the block must be evaluated point by point: some point fails, or
    pi is degenerate at some of its points but not all."""
    found = _checked_defects(partial(_block_frame, scene, points), checks)
    if isinstance(found, str):
        return None
    rows = {check: None if val is None else val.tolist()
            for check, val in found.items()}
    return [("ok", {check: None if vals is None else vals[i]
                    for check, vals in rows.items()})
            for i in range(len(points))]


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


def _map_points(scene: Scene, checks: tuple[str, ...], points):
    """One outcome per point in grid order, up to the first failing point
    at least.  One process sweeps blocks of :data:`BLOCK` points; a block
    that fails is evaluated again point by point, so the failing point and
    its message are those that a worker reports for it."""
    workers = _worker_count()
    if workers <= 1 or len(points) <= 1:
        outcomes = []
        for start in range(0, len(points), BLOCK):
            block = points[start:start + BLOCK]
            found = (_evaluate_block(scene, checks, np.array(block))
                     if len(block) > 1 else None)  # [p] rounds unlike [p, p]
            if found is None:
                found = [_evaluate_point(scene, checks, p) for p in block]
            outcomes.extend(found)
            if any(status == "error" for status, _ in found):
                break
        return outcomes
    job = partial(_evaluate_point, scene, checks)
    chunk = max(1, len(points) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, points, chunksize=chunk))


# -- orchestration --------------------------------------------------------------


def run_checks(subject, check_config: CheckConfig | None = None, *,
               r: RMatrix | None = None, name: str | None = None,
               digest: str | None = None) -> ObstructionReport:
    """Run the configured checks on a :class:`Scene` or a
    :class:`LieAlgebraPresentation` and aggregate a report.

    Scene subjects are validated first (:class:`SceneValidationError`
    propagates with the violated invariant).  The report is a pure
    function of subject and config: point order is the lexicographic grid
    order and worker scheduling cannot change any number in it.
    """
    cfg = check_config or CheckConfig()
    started = time.perf_counter()
    if isinstance(subject, Scene):
        return _run_scene(subject, cfg, name=name, digest=digest,
                          started=started)
    if isinstance(subject, LieAlgebraPresentation):
        return _run_algebra(subject, cfg, r=r, name=name, digest=digest,
                            started=started)
    raise TypeError(f"cannot run checks on {type(subject).__name__}")


def _resolve_checks(cfg: CheckConfig, applicable: tuple[str, ...]):
    if cfg.checks is None:
        return applicable, ()
    known = SCENE_CHECKS + ALGEBRA_CHECKS
    for c in cfg.checks:
        if c not in known:
            raise ValueError(f"unknown check {c!r}; known: {', '.join(known)}")
    run = tuple(c for c in cfg.checks if c in applicable)
    off = tuple(c for c in cfg.checks if c not in applicable)
    return run, off


def _run_scene(scene: Scene, cfg: CheckConfig, *, name, digest, started):
    scene.validate()
    run, not_applicable = _resolve_checks(cfg, SCENE_CHECKS)
    if cfg.points is not None:
        points = [np.asarray(p, dtype=float) for p in cfg.points]
        for p in points:
            if p.shape != (scene.dimension,):
                raise ValueError(
                    f"sample point {p.tolist()} does not match scene "
                    f"dimension {scene.dimension}")
        points = [p for p in points if not scene.is_excluded(p)]
        grid = None
    else:
        points = scene.grid(cfg.grid)
        grid = tuple(cfg.grid) if len(cfg.grid) > 1 else (cfg.grid[0],) * scene.dimension
    outcomes = _map_points(scene, run, points)

    results = []
    failure = next(((p, msg) for p, (status, msg) in zip(points, outcomes)
                    if status == "error"), None)
    coords = [tuple(p.tolist()) for p in points]
    for check in run:
        tol = cfg.tolerance(check)
        if failure is not None:
            pt, msg = failure
            results.append(CheckResult(
                check, "failed-to-evaluate", tol,
                reason=f"{msg} at point {pt.tolist()}"))
            continue
        values = [payload[check] for _, payload in outcomes]
        if not values:
            results.append(CheckResult(check, "skipped", tol,
                                       reason="no-sample-points"))
            continue
        missing = values.count(None)
        if check == "gprime_flat" and missing:
            reason = ("pi-degenerate-everywhere" if missing == len(values)
                      else f"pi-degenerate-at {list(coords[values.index(None)])}")
            results.append(CheckResult(check, "skipped", tol, reason=reason))
            continue
        best = max(values)
        status = "pass" if best <= tol else "fail"
        results.append(CheckResult(check, status, tol, max_defect=best,
                                   argmax_point=coords[values.index(best)],
                                   table=tuple(zip(coords, values))))
    for check in not_applicable:
        results.append(CheckResult(check, "skipped", cfg.tolerance(check),
                                   reason="not-applicable-to-scene"))
    doc = config_mod.scene_to_config(scene)
    return ObstructionReport(
        name=name or scene.name or "scene",
        kind="scene",
        digest=digest or config_mod.canonical_digest(doc),
        version=VERSION,
        grid=grid,
        points_evaluated=len(points),
        checks=tuple(results),
        wall_time=time.perf_counter() - started,
    )


def _run_algebra(pres: LieAlgebraPresentation, cfg: CheckConfig, *,
                 r: RMatrix | None, name, digest, started):
    run, not_applicable = _resolve_checks(cfg, ALGEBRA_CHECKS)
    results = []
    for check in run:
        tol = cfg.tolerance(check)
        if r is None:
            results.append(CheckResult(check, "skipped", tol,
                                       reason="no-r-matrix"))
            continue
        val = cybe_defect(pres, r) if check == "cybe" else qg_divergence(pres, r)
        mx = float(np.max(np.abs(val)))
        results.append(CheckResult(check, "pass" if mx <= tol else "fail",
                                   tol, max_defect=mx))
    for check in not_applicable:
        results.append(CheckResult(check, "skipped", cfg.tolerance(check),
                                   reason="not-applicable-to-lie-algebra"))
    doc = config_mod.presentation_to_config(pres, r)
    return ObstructionReport(
        name=name or "lie-algebra",
        kind="lie_algebra",
        digest=digest or config_mod.canonical_digest(doc),
        version=VERSION,
        grid=None,
        points_evaluated=0,
        checks=tuple(results),
        wall_time=time.perf_counter() - started,
    )


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
    tables = [(c.name, c.table) for c in report.checks if c.table]
    out = io.StringIO()
    for idx, (name, table) in enumerate(tables):
        if len(tables) > 1:
            if idx:
                out.write("\n")
            out.write(f"# check: {name}\n")
        dim = len(table[0][0]) if table else 0
        out.write(",".join(f"x{i}" for i in range(dim)) + ",defect\n")
        for point, defect in table:
            cells = [repr(float(x)) for x in point] + [repr(float(defect))]
            out.write(",".join(cells) + "\n")
    return out.getvalue().encode("utf-8")
