"""Every ```python block of README.md runs as written, so the docs cannot name a
function or attribute the package no longer has."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert printed.getvalue()
