"""Command-line interface.

    obstruct check CONFIG.json [flags]    run checks on a config file
    obstruct example NAME [flags]         run a built-in catalog entry
    obstruct list-examples                list catalog entries

Flags: ``--grid N[,N...]``, ``--tol CHECK=VALUE`` (repeatable),
``--check NAME`` (repeatable, default all applicable), ``--format
json|text|csv-points``, ``--out PATH``, ``--points PATH`` (one sample
point per line, numbers separated by whitespace).

Exit codes: 0 all requested checks pass (or are skipped), 1 at least one
obstruction fails, 2 configuration or evaluation error.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import catalog, config as config_mod, report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
    if not counts or any(c < 2 for c in counts):
        raise argparse.ArgumentTypeError("grid counts must be >= 2 per axis")
    return counts


def _parse_tol(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected CHECK=VALUE, got {text!r}")
    name, _, value = text.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance value in {text!r}")


def _read_points(path: str) -> tuple[tuple[float, ...], ...]:
    points = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                points.append(tuple(float(tok) for tok in body.split()))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad point line {line!r}")
    if not points:
        raise ValueError(f"{path}: no points found")
    return tuple(points)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", type=_parse_grid, default=(9,),
                     help="per-axis sample counts, e.g. 9 or 9,17")
    sub.add_argument("--tol", type=_parse_tol, action="append", default=[],
                     metavar="CHECK=VALUE", help="override a pass threshold")
    sub.add_argument("--check", action="append", default=None, metavar="NAME",
                     help="run only this check (repeatable)")
    sub.add_argument("--format", choices=("json", "text", "csv-points"),
                     default="text")
    sub.add_argument("--out", default=None, help="write the report here")
    sub.add_argument("--points", default=None,
                     help="file of explicit sample points (overrides --grid)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstruct",
        description="Evaluate the geometric obstructions to smoothly "
                    "deforming a (pseudo-)Riemannian Poisson manifold into "
                    "a noncommutative geometry.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run checks on a config file")
    check.add_argument("config", help="path to a JSON config document")
    _add_run_flags(check)
    example = sub.add_parser("example", help="run a built-in catalog entry")
    example.add_argument("name", help="catalog entry name")
    _add_run_flags(example)
    sub.add_parser("list-examples", help="list catalog entries")
    return parser


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _run_subject(doc: dict, args) -> int:
    cfg = report.CheckConfig(
        checks=args.check, grid=args.grid, tolerances=dict(args.tol),
        points=_read_points(args.points) if args.points else None)
    kind = doc.get("kind")
    if kind == "scene":
        subject = config_mod.scene_from_config(doc)
        rep = report.run_checks(subject, cfg)
    elif kind == "lie_algebra":
        pres, r = config_mod.presentation_from_config(doc)
        rep = report.run_checks(pres, cfg, r=r, name=doc.get("name"))
    else:
        raise config_mod.ConfigError(f"unknown config kind {kind!r}")
    _emit(report.render_report(rep, args.format), args.out)
    if rep.overall == "error":
        return EXIT_ERROR
    return EXIT_PASS if rep.overall == "pass" else EXIT_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-examples":
            for name in catalog.example_names():
                print(name)
            return EXIT_PASS
        if args.command == "example":
            entry = catalog.load_example(args.name)
            return _run_subject(entry.config, args)
        doc = config_mod.load_config(args.config)
        return _run_subject(doc, args)
    except (KeyError, OSError, ValueError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    """The process entry (console script, ``python -m obstruct``): run
    ``main()``, freeze everything left alive (also when argparse exits), then
    exit with main's code.  The interpreter's exit-time collections skip
    frozen objects, which the OS is about to reclaim; flushing, ``atexit``
    and the pool's shutdown still run.  ``main()``, the embedding entry,
    leaves the collector alone."""
    try:
        code = main()
    finally:
        gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
