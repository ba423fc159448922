"""End-to-end and per-layer benchmark of the obstruct CLI.

Run from the repository root:

    python3 bench/run.py --workload sphere-full --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` times the real CLI (``python -m obstruct ...``), each call in a
fresh process, and reports wall_s, setup_s, points_per_s and peak_rss_mb.
``--trace 1`` replays the same command in-process with spans around each
layer's public functions and reports the per-layer metrics.  Every CLI output
passes through the correctness gate in gate.py.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Program
outputs, the run record and the spans go to .bench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass

import numpy as np

from workloads import WORKLOADS, write_generic_scene

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_PAIRS = 5         # set-up and full run pairs per timed run, even past --seconds
STARTUP_REPS = 5      # `obstruct list-examples` runs per traced run
SAMPLE_POINTS = 8     # grid points the gate recomputes in a timed run
CLI_TIMEOUT_S = 120


@dataclass
class Execution:
    seconds: float
    code: int | None
    stderr: str
    data: bytes


def cli_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["OBSTRUCT_WORKERS"] = str(workers)
    return env


def run_cli(args: list[str], env: dict, stdout_path: str,
            out_path: str | None = None) -> Execution:
    """One CLI call in a fresh interpreter, timed from start to exit.  The
    output is standard output, or ``out_path`` when the command writes one."""
    started = time.perf_counter()
    try:
        with open(stdout_path, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-m", "obstruct", *args],
                                  stdout=stdout, stderr=subprocess.PIPE,
                                  env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Execution(time.perf_counter() - started, None, "timeout", b"")
    seconds = time.perf_counter() - started
    with open(out_path or stdout_path, "rb") as handle:
        data = handle.read()
    return Execution(seconds, proc.returncode,
                     proc.stderr.decode("utf-8", "replace"), data)


def execution_problems(ex: Execution, codes, reference: bytes) -> list[str]:
    found = []
    if ex.code not in codes:
        found.append(f"exit code {ex.code}, expected {' or '.join(map(str, codes))}")
    if "Traceback" in ex.stderr:
        found.append("traceback: " + ex.stderr.strip().splitlines()[-1])
    if ex.data != reference:
        found.append("output bytes differ from the first run's")
    return found


# -- run record ---------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a note on host speed.  Nothing
    is normalised by it."""
    started = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - started


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the library's sources; identifies the measured code where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "obstruct")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def stored_digest_problems(name: str, seed: int, data: bytes, key: str) -> list[str]:
    """Output bytes must match earlier runs of this workload and seed on the
    same code and inputs (``key``)."""
    path = os.path.join(OUT, f"digest-{name}-{seed}-{key[:16]}.txt")
    digest = hashlib.sha256(data).hexdigest()
    if os.path.exists(path):
        with open(path) as handle:
            if handle.read().strip() != digest:
                return ["output bytes differ from an earlier run with this seed"]
        return []
    with open(path, "w") as handle:
        handle.write(digest + "\n")
    return []


# -- one workload -------------------------------------------------------------


class Bench:
    """Inputs, files and gate state of one workload run."""

    def __init__(self, workload, seed: int):
        from obstruct import catalog, config

        self.w = workload
        self.seed = seed
        self.source = src_digest()
        prefix = os.path.join(OUT, f"{workload.name}-{seed}")
        self.scene_path = prefix + "-scene.json"
        self.stdout_path = prefix + "-stdout"
        self.out_path = prefix + "-out.csv"
        self.points_path = prefix + "-centre.txt"
        if workload.catalog:
            self.scene = catalog.load_example(workload.catalog).scene()
        else:
            write_generic_scene(seed, self.scene_path)
            self.scene = config.scene_from_config(config.load_config(self.scene_path))
        with open(self.points_path, "w") as handle:
            handle.write(" ".join(repr((lo + hi) / 2) for lo, hi in self.scene.box) + "\n")
        key = hashlib.sha256((self.source + json.dumps(self.args())).encode())
        if not workload.catalog:
            with open(self.scene_path, "rb") as handle:
                key.update(handle.read())
        self.input_key = key.hexdigest()
        self.grid = self.scene.grid((workload.grid,))
        rng = np.random.default_rng(seed)
        self.sample = sorted(int(i) for i in rng.choice(
            len(self.grid), size=min(SAMPLE_POINTS, len(self.grid)), replace=False))
        self.env = cli_env(workload.workers)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.points = 0
        self.missing: list[str] = []
        self.samples: dict = {}

    def args(self, setup: bool = False) -> list[str]:
        return self.w.cli_args(self.scene_path, self.out_path,
                               self.points_path if setup else None)

    def cli(self, args: list[str]) -> Execution:
        out = self.out_path if "--out" in args else None
        return run_cli(args, self.env, self.stdout_path, out)

    def judge(self, label: str, found: list[str]) -> None:
        self.attempted += 1
        self.failures += [f"{label}: {p}" for p in found]
        self.failed += bool(found)

    def content_problems(self, data: bytes, full: bool) -> list[str]:
        import gate

        try:
            report = gate.read_report(data, self.w.fmt, self.w.checks)
        except (ValueError, KeyError, TypeError, IndexError) as err:
            return [f"unreadable output: {err!r}"]
        found = gate.problems(self.w, self.scene, self.grid, report,
                              None if full else self.sample)
        found += stored_digest_problems(self.w.name, self.seed, data, self.input_key)
        self.points = report["points"]
        return found

    # -- --trace 0 ---------------------------------------------------------------

    def timed(self, seconds: float) -> dict:
        """Set-up runs and full runs alternate, one pair after another, until
        ``seconds`` is used up.  wall_s and setup_s are means over the whole
        run: the host's speed switches between phases that last seconds, and
        a median over the run's samples jumps from one phase to the other
        where a mean moves with the share of time spent in each."""
        self.cli(["list-examples"])  # untimed warm-up: fills the bytecode cache
        self.cli(self.args(setup=True))
        started = time.perf_counter()
        setups: list[Execution] = []
        sweeps: list[Execution] = []
        while (len(sweeps) < MIN_PAIRS or time.perf_counter() - started
               + max(a.seconds + b.seconds for a, b in zip(setups, sweeps)) <= seconds):
            setups.append(self.cli(self.args(setup=True)))
            sweeps.append(self.cli(self.args()))
        for i, ex in enumerate(setups):
            self.judge(f"setup {i}", execution_problems(
                ex, (setups[0].code,) if setups[0].code in (0, 1) else (0, 1),
                setups[0].data))
        content = self.content_problems(sweeps[0].data, full=False)
        for i, ex in enumerate(sweeps):
            self.judge(f"sweep {i}", content + execution_problems(
                ex, (self.w.exit_code,), sweeps[0].data))
        wall = statistics.mean(s.seconds for s in sweeps)
        setup = statistics.mean(s.seconds for s in setups)
        self.samples = {"setup_s": [s.seconds for s in setups],
                        "wall_s": [s.seconds for s in sweeps]}
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "points_per_s": {"value": self.points / (wall - setup), "unit": "1/s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }

    # -- --trace 1 ---------------------------------------------------------------

    def replay(self) -> Execution:
        """The workload's CLI command run in this process through cli.main."""
        from obstruct import cli

        argv = self.args()
        if "--out" in argv:
            argv[-1] = self.out_path + ".replay"
            with contextlib.suppress(FileNotFoundError):
                os.remove(argv[-1])
        stdout = io.TextIOWrapper(io.BytesIO())
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code, error = cli.main(argv), ""
        except Exception as err:  # an escaping error fails the gate
            code, error = None, f"Traceback (in-process): {err!r}"
        seconds = time.perf_counter() - started
        stdout.flush()
        data = stdout.buffer.getvalue()
        if "--out" in argv and os.path.exists(argv[-1]):
            with open(argv[-1], "rb") as handle:
                data = handle.read()
        return Execution(seconds, code, error, data)

    def traced(self) -> dict:
        import spans

        self.cli(["list-examples"])
        startups = [self.cli(["list-examples"]) for _ in range(STARTUP_REPS)]
        for i, ex in enumerate(startups):
            self.judge(f"startup {i}", execution_problems(ex, (0,), startups[0].data))
        reference = self.cli(self.args())
        self.judge("sweep", self.content_problems(reference.data, full=True)
                   + execution_problems(reference, (self.w.exit_code,), reference.data))

        os.environ["OBSTRUCT_WORKERS"] = str(self.w.workers)
        untraced = self.replay()
        self.judge("untraced replay", execution_problems(
            untraced, (self.w.exit_code,), reference.data))
        spill = os.path.join(OUT, f"spill-{self.w.name}-{self.seed}")
        shutil.rmtree(spill, ignore_errors=True)
        os.makedirs(spill)
        tracer = spans.Tracer(uuid.uuid4().hex, spill)
        tracer.install()
        try:
            traced = self.replay()
        finally:
            tracer.uninstall()
        self.judge("traced replay", execution_problems(
            traced, (self.w.exit_code,), reference.data))
        tracer.merge_workers()
        shutil.rmtree(spill, ignore_errors=True)
        tracer.write(os.path.join(OUT, f"trace-{self.w.name}-{self.seed}.jsonl"))
        self.missing = tracer.missing
        self.samples = {"cli.startup_s": [s.seconds for s in startups],
                        "untraced_replay_s": untraced.seconds,
                        "traced_replay_s": traced.seconds}
        metrics = {"cli.startup_s": {
            "value": statistics.median(s.seconds for s in startups), "unit": "s"}}
        metrics.update(spans.layer_metrics(tracer, self.points, traced.seconds,
                                           untraced.seconds,
                                           spans.useful_applies(self.scene)))
        return metrics


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    calibration_s = calibrate()
    bench = Bench(WORKLOADS[name], seed)
    metrics = bench.traced() if trace else bench.timed(seconds)
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "obstruct_workers": bench.w.workers,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": commit(), "src_sha256": bench.source,
        "calibration_s": calibration_s,
        "samples": bench.samples,
        "failed_frac": bench.failed / bench.attempted,
        "failures": bench.failures,
        "missing_layers": bench.missing,
    }
    with open(os.path.join(OUT, f"record-{name}-{seed}-trace{trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    for metric, m in metrics.items():
        print(f"# {name} {metric} = {m['value']:.6g} {m['unit']}")
    print(f"# {name} failed_frac = {record['failed_frac']:.6g} "
          f"({bench.failed} of {bench.attempted} runs)")
    for failure in bench.failures:
        print(f"# {name} FAILED {failure}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own process so peak RSS stays separate.
    The last line joins them, with each metric named workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-1] if line.startswith("#")))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "obstruct", "__main__.py")):
        print(f"bench: no obstruct sources under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
