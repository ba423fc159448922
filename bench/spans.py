"""Layer spans and exact call counts for the traced replay.

The library has no tracing of its own yet, so the benchmark wraps each
layer's public functions from outside: a span around each call, and counters
on ``numpy.einsum``, ``exprlang.eval_jet`` and ``jets.apply`` that credit every
call to the innermost open span.  Spans stay in memory and are written out
when the run ends.  Worker processes forked by the library's process pool
inherit the wrappers; each writes its spans to a file when it exits, and the
parent merges them.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import pickle
import time
from collections import defaultdict

# (module or module:class, attribute, span name).  A layer whose function
# is gone is skipped and reported under "missing" in the run record.
SPANNED = (
    ("obstruct.config", "load_config", "config.parse"),
    ("obstruct.config", "scene_from_config", "config.parse"),
    ("obstruct.config", "scene_to_config", "config.digest"),
    ("obstruct.config", "canonical_digest", "config.digest"),
    ("obstruct.geometry:Scene", "validate", "geometry.validate"),
    ("obstruct.geometry:Scene", "grid", "geometry.grid"),
    ("obstruct.geometry", "eval_field", "geometry.eval_field"),
    ("obstruct.geometry", "inverse_with_partials", "geometry.inverse"),
    ("obstruct.geometry", "christoffels", "geometry.christoffels"),
    ("obstruct.geometry", "riemann_from_christoffels", "geometry.riemann"),
    ("obstruct.geometry", "covariant_derivative", "geometry.covariant_derivative"),
    ("obstruct.contravariant:Frame", "at", "contravariant.frame"),
    ("obstruct.contravariant", "torsion_defect", "contravariant.torsion"),
    ("obstruct.contravariant", "metric_compat_defect", "contravariant.metric_compat"),
    ("obstruct.contravariant", "curvature_explicit", "contravariant.curvature"),
    ("obstruct.contravariant", "gprime_riemann", "contravariant.gprime"),
    ("obstruct.poisson", "jacobi_from", "poisson.jacobi"),
    ("obstruct.poisson", "divergence_from", "poisson.divergence"),
    ("obstruct.poisson", "pi_rank_from", "poisson.pi_rank"),
    ("obstruct.report", "run_checks", "report.run_checks"),
    ("obstruct.report", "render_report", "report.render"),
)
COUNTED = (
    ("numpy", "einsum", "einsum"),
    ("obstruct.exprlang", "eval_jet", "eval_jet"),
    ("obstruct.jets", "apply", "apply"),
)
_now = time.perf_counter


def _resolve(path: str):
    """The module or class named by ``module`` or ``module:Class``."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Spans of one traced run.  A span is ``[id, parent, name, start, end,
    counts]``; ids are unique across processes (pid in the high bits)."""

    def __init__(self, run_id: str, spill_dir: str):
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.seq = 0
        self.stack: list[list] = []
        self.done: list[list] = []
        self.loose: dict[str, int] = defaultdict(int)  # counted outside any span
        self.inherited: list[list] = []
        self.patched: list[tuple] = []
        self.missing: list[str] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> None:
        self.seq += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([(self.pid << 32) | self.seq, parent, name,
                           _now(), 0.0, {}])

    def _close(self) -> None:
        span = self.stack.pop()
        span[4] = _now()
        self.done.append(span)

    def _count(self, key: str) -> None:
        counts = self.stack[-1][5] if self.stack else self.loose
        counts[key] = counts.get(key, 0) + 1

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)
        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for owner_path, attr, name in table:
                owner = _resolve(owner_path)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(make(name, raw.__func__))
                else:
                    new = make(name, raw)
                setattr(owner, attr, new)
                self.patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self.patched):
            setattr(owner, attr, raw)
        self.patched.clear()

    # -- worker processes ------------------------------------------------------

    def _after_fork(self) -> None:
        # The open spans stay as parents of the worker's spans; calls counted
        # against them here are sent back separately.
        self.pid = os.getpid()
        self.seq = 0
        self.done = []
        self.loose = defaultdict(int)
        for span in self.stack:
            span[5] = {}
        self.inherited = list(self.stack)
        multiprocessing.util.Finalize(None, self._spill, exitpriority=0)

    def _spill(self) -> None:
        doc = {"spans": self.done, "loose": self.loose,
               "inherited": [[span[0], span[5]] for span in self.inherited]}
        with open(os.path.join(self.spill_dir, f"{self.pid}.pickle"), "wb") as out:
            pickle.dump(doc, out, protocol=pickle.HIGHEST_PROTOCOL)

    def merge_workers(self) -> None:
        """Fold in the spans written by exited worker processes (files this
        run's own workers wrote, so unpickling them is safe)."""
        by_id = {span[0]: span for span in self.done}
        for entry in sorted(os.listdir(self.spill_dir)):
            with open(os.path.join(self.spill_dir, entry), "rb") as handle:
                doc = pickle.load(handle)
            self.done.extend(doc["spans"])
            for key, value in doc["loose"].items():
                self.loose[key] += value
            for span_id, counts in doc["inherited"]:
                target = by_id[span_id][5]
                for key, value in counts.items():
                    target[key] = target.get(key, 0) + value

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, counts in self.done:
                out.write(json.dumps({"run": self.run_id, "id": sid,
                                      "parent": parent, "name": name,
                                      "start": start, "end": end,
                                      "counts": counts}) + "\n")


# -- per-layer metrics -------------------------------------------------------

def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer: Tracer, points: int, traced_s: float,
                  untraced_s: float, useful_applies_per_frame: int) -> dict:
    """Per-layer metrics from the merged spans of one traced replay.

    A name's time is the sum of its spans, leaving out spans nested in a
    span of the same name.  Self time is a span's duration minus the part of
    it that its child spans cover.
    """
    spans = tracer.done
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))

    def nested_in_same(s) -> bool:
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2] == s[2]:
                return True
            parent = by_id.get(parent[1])
        return False

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int, tracer.loose)
    layer_counts = defaultdict(int)
    for s in spans:
        if not nested_in_same(s):
            total[s[2]] += s[4] - s[3]
        self_time[s[2]] += s[4] - s[3] - _union(children[s[0]])
        calls[s[2]] += 1
        for key, value in s[5].items():
            counts[key] += value
            layer_counts[(s[2].split(".")[0], key)] += value

    per_pt = 1.0 / max(points, 1)
    us, ms = 1e6 * per_pt, 1e3
    frames = calls["contravariant.frame"]
    applies_in_fields = sum(s[5].get("apply", 0) for s in spans
                            if s[2] == "geometry.eval_field")
    covered = _union((s[3], s[4]) for s in spans
                     if s[1] is None and s[0] >> 32 == tracer.pid)
    m = {
        "config.parse_ms": (total["config.parse"] * ms, "ms"),
        "config.digest_ms": (total["config.digest"] * ms, "ms"),
        "geometry.validate_ms": (total["geometry.validate"] * ms, "ms"),
        "geometry.grid_ms": (total["geometry.grid"] * ms, "ms"),
        "geometry.eval_field_us": (total["geometry.eval_field"] * us, "us"),
        "exprlang.eval_jet_calls": (counts["eval_jet"] * per_pt, "count"),
        "jets.apply_calls": (counts["apply"] * per_pt, "count"),
        "exprlang.useful_jet_ratio": (
            frames * useful_applies_per_frame / applies_in_fields
            if applies_in_fields else 0.0, "ratio"),
        "geometry.inverse_us": (total["geometry.inverse"] * us, "us"),
        "geometry.christoffels_us": (total["geometry.christoffels"] * us, "us"),
        "geometry.riemann_us": (total["geometry.riemann"] * us, "us"),
        "geometry.covariant_derivative_us": (
            total["geometry.covariant_derivative"] * us, "us"),
        "geometry.einsum_calls": (layer_counts[("geometry", "einsum")] * per_pt, "count"),
        "contravariant.frame_us": (total["contravariant.frame"] * us, "us"),
        "contravariant.frame_self_us": (self_time["contravariant.frame"] * us, "us"),
        "contravariant.torsion_us": (total["contravariant.torsion"] * us, "us"),
        "contravariant.metric_compat_us": (total["contravariant.metric_compat"] * us, "us"),
        "contravariant.curvature_us": (total["contravariant.curvature"] * us, "us"),
        "contravariant.gprime_us": (total["contravariant.gprime"] * us, "us"),
        "contravariant.einsum_calls": (
            layer_counts[("contravariant", "einsum")] * per_pt, "count"),
        "poisson.jacobi_us": (total["poisson.jacobi"] * us, "us"),
        "poisson.divergence_us": (total["poisson.divergence"] * us, "us"),
        "poisson.pi_rank_us": (total["poisson.pi_rank"] * us, "us"),
        "report.run_checks_s": (total["report.run_checks"], "s"),
        "report.self_s": (self_time["report.run_checks"], "s"),
        "report.render_ms": (total["report.render"] * ms, "ms"),
        "trace.coverage_frac": (covered / traced_s, "ratio"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def useful_applies(scene) -> int:
    """jets.apply calls one frame needs: each metric entry on or above the
    diagonal and each Poisson entry above it, evaluated once.  Evaluating an
    expression applies one jet operation per operator node."""
    from obstruct import exprlang

    def ops(e) -> int:
        if isinstance(e, exprlang.Neg):
            return 1 + ops(e.operand)
        if isinstance(e, exprlang.BinOp):
            return 1 + ops(e.left) + ops(e.right)
        if isinstance(e, exprlang.Call):
            return 1 + ops(e.arg)
        return 0

    n = scene.dimension
    return sum(ops(scene.metric[i][j]) for i in range(n) for j in range(i, n)) + \
        sum(ops(scene.poisson[i][j]) for i in range(n) for j in range(i + 1, n))
