"""Fuzz the instance and state readers.

On malformed input ``parse_graph_mm``, ``parse_qaplib`` and ``load_state``
may raise only ``ParseError`` or ``ValueError``, and the CLI reading the
same file must exit with code 1 and a message, never a traceback.
An instance the parsers accept carries only finite numbers, and either
builds a problem with a finite, nonzero cost scale and a finite cost or is
rejected by the builder with ``ValueError``, which the CLI reports the same
way.  Examples are derandomized so every run sees the same cases.
"""
import functools
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specbundle.bundle import SolverConfig, load_state, save_state, solve
from specbundle.cli import main
from specbundle.problem import build_maxcut, build_qap, parse_graph_mm, parse_qaplib
from conftest import make_k3

FUZZ = settings(
    max_examples=300,
    deadline=5000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

K3_MTX = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"

# numbers of every kind, including the spellings float() turns into
# non-finite values, and short junk
NUMBER = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["nan", "-inf", "inf", "1e999", "-1e999", "1e308", "-1e308", "1_0", "0x1", "+2"]
    ),
)
TOKENS = st.one_of(NUMBER, st.integers().map(str), st.text(max_size=4))
SPACE = st.sampled_from([" ", "  ", "\t", "\n", " \n", "\r\n", "\n\n"])


def _line(tokens):
    return st.lists(tokens, min_size=0, max_size=4).map(" ".join)


def _mostly(good, bad):
    """``good`` seven times in eight, else ``bad``."""
    return st.integers(0, 7).flatmap(lambda k: good if k else bad)


MM_HEADER = _mostly(
    st.sampled_from(
        [
            "%%MatrixMarket matrix coordinate pattern symmetric",
            "%%MatrixMarket matrix coordinate real symmetric",
            "%%MatrixMarket matrix coordinate integer general",
            "%%MatrixMarket matrix coordinate real general",
            "%%MatrixMarket matrix array real symmetric",
            "%%MatrixMarket matrix coordinate complex hermitian",
        ]
    ),
    _line(TOKENS),
)


@st.composite
def mm_text(draw):
    """A MatrixMarket file that is close to well formed: small sizes, entry
    lines of any number, optional mirror entries and counts, and a few lines
    of junk inserted anywhere."""
    n = draw(st.integers(-1, 5))
    ncols = draw(_mostly(st.just(n), st.integers(-1, 5)))
    index = _mostly(st.integers(1, max(n, 1)), st.integers(-1, 7))
    entries = draw(st.lists(st.tuples(index, index, NUMBER), max_size=8))
    if draw(st.booleans()):
        entries += [(j, i, w) for i, j, w in entries]
    nnz = draw(_mostly(st.just(len(entries)), st.integers(-1, 20)))
    lines = [draw(MM_HEADER), f"{n} {ncols} {nnz}"] + [f"{i} {j} {w}" for i, j, w in entries]
    junk = st.lists(st.tuples(st.integers(0, len(lines)), _line(TOKENS)), max_size=2)
    for pos, text in draw(_mostly(st.just([]), junk)):
        lines.insert(pos, text)
    return "\n".join(lines) + "\n"


MM_TEXT = _mostly(mm_text(), st.one_of(st.tuples(MM_HEADER, st.text()).map("\n".join), st.text()))


@st.composite
def qaplib_text(draw):
    """A QAPLIB file that is close to well formed: a small size, about
    2 n^2 entries, often symmetric, in any whitespace layout."""
    n = draw(_mostly(st.integers(1, 3), st.integers()))
    full = 2 * max(0, min(n, 3)) ** 2
    count = draw(_mostly(st.just(full), st.integers(0, full + 2)))
    vals = draw(st.lists(_mostly(NUMBER, TOKENS), min_size=count, max_size=count))
    if draw(st.booleans()) and 1 <= n <= 3 and count >= full:
        mats = np.array(vals[:full], dtype=object).reshape(2, n, n)
        for a in mats:
            low = np.tril_indices(n, -1)
            a.T[low] = a[low]
        vals = list(mats.ravel()) + vals[full:]
    seps = draw(st.lists(SPACE, min_size=count + 1, max_size=count + 1))
    return "".join(s + t for s, t in zip(seps, [str(n), *vals])) + "\n"


QAP_TEXT = _mostly(qaplib_text(), st.text())


def _write(path, data):
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8", errors="surrogatepass")


def _cli_rejects(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


def _builds_or_rejects(build, instance, argv, capsys):
    """``build(instance)`` gives a finite, nonzero cost scale and a finite
    cost, or raises ValueError and the CLI exits 1 with a message."""
    try:
        prob = build(instance)
    except ValueError:
        _cli_rejects(argv, capsys)
        return
    assert np.isfinite(prob.scale_c) and prob.scale_c != 0
    assert np.all(np.isfinite(prob.cost.data))


@FUZZ
@given(data=_mostly(MM_TEXT, st.binary()))
def test_parse_graph_mm_fuzz(tmp_path, capsys, data):
    path = tmp_path / "g.mtx"
    _write(path, data)
    try:
        g = parse_graph_mm(path)
    except ValueError:  # ParseError is a ValueError
        argv = ["round", "--problem", "maxcut", "--input", str(path), "--state", "unused.bin"]
        _cli_rejects(argv, capsys)
        return
    assert np.all(np.isfinite(g.edges_w))
    assert np.all((0 <= g.edges_u) & (g.edges_u < g.edges_v) & (g.edges_v < g.n))
    argv = ["round", "--problem", "maxcut", "--input", str(path), "--state", "unused.bin"]
    _builds_or_rejects(build_maxcut, g, argv, capsys)


@FUZZ
@given(data=_mostly(QAP_TEXT, st.binary()))
def test_parse_qaplib_fuzz(tmp_path, capsys, data):
    path = tmp_path / "q.dat"
    _write(path, data)
    try:
        q = parse_qaplib(path)
    except ValueError:
        argv = ["round", "--problem", "qap", "--input", str(path), "--state", "unused.bin"]
        _cli_rejects(argv, capsys)
        return
    assert np.all(np.isfinite(q.weights)) and np.all(np.isfinite(q.distances))
    argv = ["round", "--problem", "qap", "--input", str(path), "--state", "unused.bin"]
    _builds_or_rejects(build_qap, q, argv, capsys)


_HEAD_FMT = "<4sI QQQQ II B II dd dd QQ dd"


@functools.cache
def _state_bases():
    """Converged K3 states with an explicit and with a sketched store."""
    prob = build_maxcut(make_k3())
    out = []
    for rank in (0, 2):
        state, _ = solve(prob, SolverConfig(k_c=2, k_p=0, sketch_rank=rank))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.bin"
            save_state(path, state, prob)
            out.append(path.read_bytes())
    return out


def _header_value(fmt_char):
    if fmt_char == "d":
        return st.floats()
    if fmt_char == "4s":
        return st.binary(min_size=4, max_size=4)
    bits = {"I": 32, "Q": 64, "B": 8}[fmt_char]
    return st.one_of(st.integers(0, 12), st.integers(0, 2**bits - 1))


_FIELD_CHARS = re.findall(r"\d*[A-Za-z]", _HEAD_FMT)  # "4s", "I", "Q", ...


@st.composite
def mutated_state(draw):
    raw = bytearray(draw(st.sampled_from(_state_bases())))
    head_size = struct.calcsize(_HEAD_FMT)
    if draw(st.booleans()):
        fields = list(struct.unpack(_HEAD_FMT, bytes(raw[:head_size])))
        for i in draw(st.lists(st.integers(0, len(fields) - 1), min_size=1, max_size=3)):
            fields[i] = draw(_header_value(_FIELD_CHARS[i]))
        raw[:head_size] = struct.pack(_HEAD_FMT, *fields)
    flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
    for pos, byte in draw(st.lists(flips, max_size=4)):
        raw[pos] = byte
    cut = draw(st.one_of(st.none(), st.integers(0, len(raw))))
    if cut is not None:
        raw = raw[:cut]
    return bytes(raw) + draw(st.binary(max_size=16))


STATE_BYTES = st.one_of(
    mutated_state(),
    st.binary(max_size=256).map(lambda b: b"USBS\x01\0\0\0" + b),
    st.binary(),
)


@FUZZ
@given(data=STATE_BYTES)
def test_load_state_fuzz(tmp_path, capsys, data):
    (tmp_path / "k3.mtx").write_text(K3_MTX)
    path = tmp_path / "s.bin"
    path.write_bytes(data)
    try:
        load_state(path)
    except ValueError:
        mtx = str(tmp_path / "k3.mtx")
        _cli_rejects(["round", "--problem", "maxcut", "--input", mtx, "--state", str(path)], capsys)
