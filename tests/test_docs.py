"""README's "Library use" block runs as written and prints what its
comments say, its state-file section matches the header layout, and its
CLI defaults match the library's."""
import contextlib
import io
import re
from pathlib import Path

import pytest

from specbundle import bundle, cli

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


def test_documented_cli_defaults_match_the_cli():
    """The CLI starts from ``bundle.default_config``, so README's CLI
    defaults are the library's."""
    text = " ".join(README.read_text().split())
    sentence = re.search(
        r"per-problem defaults \(MaxCut: `([^`]*)`; QAP: `([^`]*)`; both: `([^`]*)`\)", text
    )

    def pairs(listed):
        return {
            key.replace("-", "_"): value
            for key, value in (pair.split("=") for pair in listed.split(", "))
        }

    maxcut, qap, both = (pairs(group) for group in sentence.groups())
    for kind, own in (("maxcut", maxcut), ("qap", qap)):
        settings = vars(bundle.default_config(kind, 7))
        # every numeric setting is documented; max_time (None, no limit)
        # need not be
        numbers = {key for key, value in settings.items() if type(value) in (int, float)}
        documented = {cli._ALIASES.get(key, key): value for key, value in {**both, **own}.items()}
        assert numbers <= documented.keys() <= settings.keys()
        for key, value in documented.items():
            if getattr(bundle.default_config(kind, 8), key) != settings[key]:
                assert value == "n" and settings[key] == 7, key  # follows the instance
            else:
                assert float(value) == settings[key], key
