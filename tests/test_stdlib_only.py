"""The package runs on the standard library alone.

Every CLI call, spawned worker and served job pays the package's
import time, and numpy alone costs about 170 ms of it.  These guards
keep third-party imports out of the package and its declared runtime
dependencies empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_import_api_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import repro.api, sys; assert 'numpy' not in sys.modules",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_runtime_dependencies_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
