"""README's "Library use" block runs as written and prints what its
comments say, and its state-file section matches the header layout."""
import contextlib
import io
import re
from pathlib import Path

import pytest

from specbundle import bundle

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


def test_state_header_field_count_matches_the_layout():
    section = README.read_text()
    section = section[section.index("## Warm-start state files"):]
    version = re.search(r"format version (\d+)\.", section).group(1)
    count = re.search(r"with these\s+(\d+) fields in order", section).group(1)
    header = bundle._HEADER
    assert int(version) == bundle._VERSION
    assert int(count) == len(header.unpack(bytes(header.size)))
