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

# the paper's reference values over n = 1..30: the first n at which each
# order r >= 2 occurs and, at each such n from r = 3 on, tau_max, the size
# of the maximal locus and two of its members
PAPER_FIRST_OCCURRENCES = {2: 4, 3: 7, 4: 11, 5: 16, 6: 22, 7: 29}
PAPER_MAX_LOCUS = {
    7: (3, 4, ("4,2,1", "3,3,1")),
    11: (4, 5, ("5,3,2,1", "4,4,2,1")),
    16: (5, 6, ("6,4,3,2,1", "5,5,3,2,1")),
    22: (6, 7, ("7,5,4,3,2,1", "6,6,4,3,2,1")),
    29: (7, 8, ("8,6,5,4,3,2,1", "7,7,5,4,3,2,1")),
}


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
