"""Start-up and exit guards, checked in a fresh interpreter: what ``import
obstruct.cli`` loads and builds, not how long it takes, so they cost no
timing noise; and the one process entry, ``cli.run``, which freezes the
garbage collector before exit while ``cli.main`` leaves it alone."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from obstruct import cli

PROBE = """
import dataclasses, importlib, json, pkgutil, sys
import obstruct.cli
pool = sorted(m for m in sys.modules
              if m.split(".")[0] in ("concurrent", "multiprocessing"))
import obstruct
modules = [importlib.import_module(f"obstruct.{m.name}")
           for m in pkgutil.iter_modules(obstruct.__path__)
           if not m.name.startswith("_")]
made = sorted(f"{mod.__name__}.{name}" for mod in modules
              for name, obj in vars(mod).items()
              if isinstance(obj, type) and obj.__module__ == mod.__name__
              and dataclasses.is_dataclass(obj))
print(json.dumps({"pool": pool, "dataclasses": made}))
"""


def _probe() -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          env=dict(os.environ), check=True)
    return json.loads(proc.stdout)


def test_scene_is_the_only_dataclass_and_the_cli_imports_no_pool():
    # a dataclass compiles its methods at import, and the process pool is
    # imported only when more than one worker is asked for
    found = _probe()
    assert found["dataclasses"] == ["obstruct.geometry.Scene"]
    assert found["pool"] == []


# the three process entries, which all run obstruct.cli.run
ENTRIES = {
    "python -m obstruct": ["-m", "obstruct"],
    "python -m obstruct.cli": ["-m", "obstruct.cli"],
    "run()": ["-c", "from obstruct.cli import run; run()"],
}

# (CLI arguments, exit code)
ENTRY_CASES = {
    "pass": (["example", "flat-torus", "--format", "json"], 0),
    "fail": (["example", "podles-sphere", "--grid", "5", "--format", "json"],
             1),
    "tolerance-without-value": (["example", "flat-torus", "--tol", "jacobi"],
                                2),
    "tolerance-not-finite": (["example", "flat-torus", "--tol",
                              "jacobi=nan"], 2),
}


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_every_process_entry_gives_the_same_bytes_and_exit_code(case):
    args, code = ENTRY_CASES[case]
    outcomes = {}
    for entry, launch in ENTRIES.items():
        proc = subprocess.run([sys.executable, *launch, *args],
                              capture_output=True, env=dict(os.environ))
        outcomes[entry] = (proc.returncode, proc.stdout, proc.stderr)
    first = outcomes["python -m obstruct"]
    assert first[0] == code
    assert b"Traceback" not in first[2]
    assert all(outcome == first for outcome in outcomes.values())


def test_main_leaves_the_garbage_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["example", "flat-torus", "--format", "json"]) == 0
    assert cli.main(["list-examples"]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [(["list-examples"], 0),
                                        (["--bogus"], 2)])
def test_run_freezes_then_exits_with_the_code(monkeypatch, capsys, argv,
                                              code):
    # argparse's own SystemExit (the bad flag) freezes too
    monkeypatch.setattr(sys, "argv", ["obstruct", *argv])
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_console_script_is_run():
    # plain text: tomllib is missing on Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'obstruct = "obstruct.cli:run"'
