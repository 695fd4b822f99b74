"""Fixtures shared by the test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_python(tmp_path):
    """Run code in a fresh interpreter on ``src/``; its last stdout line, read as JSON.

    ``tracemalloc`` does not count objects that CPython reuses from its
    free lists, so a measurement taken in the test process moves with
    whatever earlier tests freed. One taken here does not.
    """

    def run(code):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run
