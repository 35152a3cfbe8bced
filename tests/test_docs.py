"""README's "Library use" block runs as written and prints what its
comments say."""
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_prints_its_documented_values():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    relaxation, cut = (float(line) for line in out.getvalue().split())
    assert relaxation == pytest.approx(2.25, rel=1e-3)
    assert cut == 2.0
