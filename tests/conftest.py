"""Fixtures and helpers shared by the test modules."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from partition_atlas.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


class Invocation(NamedTuple):
    exit_code: int
    output: str
    exception: Exception | None


def invoke(args: list[str]) -> Invocation:
    """Run the CLI on ``args`` in this process, stdout and stderr captured together.

    ``main`` always ends in ``SystemExit``; any other exception it lets
    through is returned, with exit code 1, as the interpreter would give.
    """
    out = io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            main(args, prog_name="partition-atlas")
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code, exception = 1, exc
    return Invocation(code, out.getvalue(), exception)


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
