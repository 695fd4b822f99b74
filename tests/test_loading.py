"""What importing the package and running a CLI command load.

The package resolves its public names on first access, and each command
imports only the layers it runs. The footprint tests start a fresh
interpreter per case, so modules loaded by other tests do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partition_atlas

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the CLI with the given arguments, then prints, as the last line of
# stdout, the modules loaded since the interpreter started (a site hook may
# load some before any program runs). Every probe sees two CPUs, so
# verify runs its pool on any machine.
PROBE = """
import json, os, sys
started = set(sys.modules)
os.sched_getaffinity = lambda pid: {0, 1}
from partition_atlas.cli import main
try:
    main(sys.argv[1:], prog_name="partition-atlas")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(set(sys.modules) - started)]))
"""


# what an executor-based pool loads; the fork pool, and a run in one
# process, load none of them
POOL_MODULES = {"multiprocessing", "concurrent.futures", "threading"}


def _run(code, *args, cwd):
    """Stdout of ``python -c code *args`` in a fresh interpreter on ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def _loaded(*args, cwd):
    code, modules = json.loads(_run(PROBE, *args, cwd=cwd).splitlines()[-1])
    assert code in (0, None)
    # the parser is the standard library's: no case loads click
    assert not [m for m in modules if m.split(".")[0] == "click"]
    return set(modules)


def test_help_loads_only_the_cli(tmp_path):
    loaded = _loaded("--help", cwd=tmp_path)
    assert {m for m in loaded if m.startswith("partition_atlas")} == {
        "partition_atlas",
        "partition_atlas.cli",
    }
    assert not loaded & POOL_MODULES
    # click loaded inspect, as the layers' dataclasses do; a run that
    # loads no layer now skips both
    assert not loaded & {"inspect", "dataclasses"}


@pytest.mark.parametrize(
    "args, absent",
    [
        (["compute", "--n-max", "3", "--jobs", "1", "--out", "a"], ["verify", "atlas"]),
        (["graph-dump", "--n", "4"], ["thickness", "zones", "atlas", "verify"]),
        (["verify", "--n-min", "3", "--n-max", "3"], []),
        (["compute", "--n-max", "3", "--jobs", "2", "--out", "a"], ["verify", "atlas"]),
        (["verify", "--n-max", "3"], []),
    ],
    ids=["compute", "graph-dump", "verify-one-n", "compute-pooled", "verify-pooled"],
)
def test_command_loads_only_its_layers(tmp_path, args, absent):
    loaded = _loaded(*args, cwd=tmp_path)
    assert "partition_atlas.cli" in loaded
    assert not loaded & {f"partition_atlas.{name}" for name in absent}
    assert not loaded & POOL_MODULES


def test_package_import_loads_no_submodule(tmp_path):
    probe = "import sys, partition_atlas; print([m for m in sys.modules if 'partition_atlas' in m])"
    assert _run(probe, cwd=tmp_path).strip() == "['partition_atlas']"


def test_exports_are_their_home_objects():
    assert sorted(partition_atlas._HOME) == sorted(partition_atlas.__all__)
    for name in partition_atlas.__all__:
        obj = getattr(partition_atlas, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from partition_atlas import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(partition_atlas.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partition_atlas.no_such_name
    # a helper of a submodule is not a package export
    assert not hasattr(partition_atlas, "compute_artifacts_for_n")
