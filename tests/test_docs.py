"""The README's Library examples run as written against the package.

Each python block of the "Library" section is executed in a fresh
namespace from a temporary directory. A line of the form
`name = ...  # (a, b, c)` documents a shape, and the test checks it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
SHAPE_COMMENT = re.compile(r"^(\w+) = .*#\s*(\([\d, ]*\))\s*$")


def library_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_has_library_examples():
    assert len(library_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(library_blocks())))
def test_readme_library_block_runs(tmp_path, monkeypatch, index):
    code = library_blocks()[index]
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, f"README.md Library block {index}", "exec"), namespace)
    for line in code.splitlines():
        match = SHAPE_COMMENT.match(line)
        if match:
            name, shape = match.groups()
            assert np.shape(namespace[name]) == ast.literal_eval(shape), line
    if "result" in namespace:
        assert namespace["result"].records and not namespace["result"].aborts
