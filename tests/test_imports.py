"""Every imported name is read somewhere in its module, and every export in the package.

No linter ships with the project, so these scans stand in for an
unused-import check over ``src/`` and ``tests/``, and for a dead-code
check over the package's public names. The last test holds the names the
benchmark's tracer looks up to the package.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import partition_atlas
from partition_atlas.transfer_graph import TransferGraph

ROOT = Path(__file__).resolve().parent.parent

# exports that no pipeline step reads: perfbench/traced_step.py looks each
# one up by name to span it, so every --trace 1 benchmark pass needs them
TRACER_BOUND = ("render_atlas",)


def _exported(tree):
    """Names listed in a module-level ``__all__``; re-exports count as used."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    # the base of an attribute chain such as a.b.c is itself an ast.Name
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = set(imported) - read - _exported(tree)
    return sorted((imported[name], name) for name in unused)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in _unused_imports(path)
    ]
    assert not found, "imported but never read:\n" + "\n".join(found)


def _reads_outside_own_definition(path):
    """Names read in ``path`` as plain names, each outside any def or class of that name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            spans.setdefault(node.name, []).append((node.lineno, node.end_lineno))
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and not any(a <= node.lineno <= b for a, b in spans.get(node.id, ()))
    }


def test_every_export_has_a_reader():
    read = set().union(*map(_reads_outside_own_definition, (ROOT / "src").rglob("*.py")))
    exports = set(partition_atlas._HOME)
    unread = sorted(exports - read - set(TRACER_BOUND))
    assert not unread, "exported but never read in src/:\n" + "\n".join(unread)
    # an exemption that is no longer exported, or has gained a reader, goes
    assert set(TRACER_BOUND) <= exports - read


def _tracer():
    """``perfbench/traced_step.py``, loaded by path; it imports the standard library only."""
    spec = importlib.util.spec_from_file_location(
        "traced_step", ROOT / "perfbench" / "traced_step.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_spans_resolves():
    # the tracer wraps each layer function it finds by name, so a renamed or
    # re-homed one would otherwise fail only in a traced benchmark pass
    tracer = _tracer()
    for module_name, names in tracer.SPANNED.items():
        home = f"partition_atlas.{module_name}"
        module = importlib.import_module(home)
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn) and fn.__module__ == home, f"{home}.{name}"
    for name in tracer.SPANNED_METHODS:
        # a plain function: the tracer replaces it with a wrapper taking self
        assert inspect.isfunction(TransferGraph.__dict__.get(name)), f"TransferGraph.{name}"
