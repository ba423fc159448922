"""Start-up guards, checked in a fresh interpreter: what ``import
obstruct.cli`` loads and builds, not how long it takes, so they cost no
timing noise."""

import json
import os
import subprocess
import sys

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
