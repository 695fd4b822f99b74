"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_prints_its_comments():
    code = _library_block()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints), prints
    expected = [line.split("  # ", 1)[1] for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
