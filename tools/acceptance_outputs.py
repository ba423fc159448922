"""Write a fixed set of CLI outputs of one source tree, for byte comparison.

    python3 tools/acceptance_outputs.py TREE OUTDIR

``TREE`` is a checkout of this repository (its ``src/`` is run, and its
``bench/workloads.py`` writes the generic-4d scene).  Every command runs
once at ``OBSTRUCT_WORKERS=1`` and once at ``2``, into ``OUTDIR/workers-1``
and ``OUTDIR/workers-2``; each output file is the report, with the text
header's ``wall:`` time removed, and ``NAME.exit`` holds the exit code and
standard error.  Then

    diff -r OUTDIR/workers-1 OUTDIR/workers-2     # worker-count independence
    diff -r OUT_A OUT_B                           # two trees, same bytes

are the byte checks.  Commands run one at a time.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

EXAMPLES = ("flat-torus", "fuzzy-sphere", "podles-sphere", "su2-dual",
            "sl2-drinfeld-jimbo", "sl2-triangular")
GENERIC_SEED = 1


def commands(scene: str) -> dict[str, list[str]]:
    """Output file name -> CLI arguments (after ``python -m obstruct``);
    ``scene`` is the generic-4d scene file."""
    out: dict[str, list[str]] = {}
    for name in EXAMPLES:
        for fmt in ("json", "text"):
            out[f"{name}.{fmt}"] = ["example", name, "--format", fmt]
    for name in ("podles-sphere", "fuzzy-sphere"):
        out[f"{name}-grid33.json"] = ["example", name, "--grid", "33",
                                      "--format", "json"]
    su2 = ["example", "su2-dual", "--grid", "15", "--format", "csv-points"]
    out["su2-dual-grid15.csv"] = su2
    out["su2-dual-grid15-first-order.csv"] = su2 + [
        "--check", "jacobi", "--check", "divergence"]
    generic = ["check", scene]
    out["generic-4d-grid6.json"] = generic + ["--grid", "6", "--format", "json"]
    out["generic-4d-grid5.csv"] = generic + ["--grid", "5",
                                             "--format", "csv-points"]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: acceptance_outputs.py TREE OUTDIR", file=sys.stderr)
        return 2
    tree, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    scene = outdir / f"generic-4d-seed{GENERIC_SEED}.json"
    sys.path.insert(0, str(tree / "bench"))
    sys.dont_write_bytecode = True  # leave the tree's bench/ as it is
    import workloads
    workloads.write_generic_scene(GENERIC_SEED, str(scene))
    for workers in ("1", "2"):
        target = outdir / f"workers-{workers}"
        target.mkdir(exist_ok=True)
        env = dict(os.environ, OBSTRUCT_WORKERS=workers,
                   PYTHONPATH=str(tree / "src"))
        # the scene by its name in OUTDIR, so no message names OUTDIR itself
        for name, args in commands(scene.name).items():
            path = target / name
            proc = subprocess.run(
                [sys.executable, "-m", "obstruct", *args, "--out", str(path)],
                capture_output=True, env=env, cwd=outdir)
            if path.suffix == ".text" and path.exists():
                path.write_bytes(re.sub(rb"  wall: [0-9.]+s", b"",
                                        path.read_bytes()))
            (target / f"{name}.exit").write_bytes(
                f"{proc.returncode}\n".encode() + proc.stderr)
            print(f"workers={workers} {name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
