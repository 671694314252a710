"""The README's library example runs as documented."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    pytest.importorskip("numpy")
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == (
        "non-stabilizable (Fraction(12, 1), Fraction(-6, 1), Fraction(4, 1), Fraction(-3, 1))")
