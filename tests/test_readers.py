"""The vectorized instance readers against their per-line frozen copies.

``parse_graph_mm`` reads the entry block in one ``np.loadtxt`` pass and
``parse_qaplib`` converts its matrix tokens in one array conversion.  On
every file the frozen per-line readers in ``_oracles`` accept, they must
return the same instance bit for bit; on every file the frozen readers
reject with ``ParseError``, they must raise ``ParseError`` on the same line.

The one allowed disagreement: an entry field that Python's ``int()`` or
``float()`` accepts but the documented grammar does not (digit separators
such as ``1_0``, non-ASCII digits, an index past int64).  The frozen reader
takes it; the vectorized reader raises ``ParseError`` on its line.  A QAPLIB
file must be ASCII without ``_`` throughout, whitespace included.
"""
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import parse_graph_mm_frozen, parse_qaplib_frozen, write_graph_mm_frozen
from specbundle.problem import (
    GraphInstance,
    ParseError,
    parse_graph_mm,
    parse_qaplib,
    write_graph_mm,
)

DIFF = settings(
    max_examples=400,
    deadline=5000,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# the grammar the README states for entry fields
INDEX = re.compile(r"[+-]?[0-9]+", re.ASCII)
REAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.ASCII | re.IGNORECASE,
)
PYTHON_ONLY = ["1_0", "\u0663", "0_1", "1_0.5", "9223372036854775808", "-9223372036854775809"]


def _outcome(reader, path):
    try:
        return "ok", reader(path)
    except ParseError as exc:
        return "parse", exc.line
    except ValueError as exc:
        return "value", str(exc)


def _same_graph(g, h):
    assert g.n == h.n
    for name in ("edges_u", "edges_v", "edges_w"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def _same_qap(q, p):
    for a, b in ((q.weights, p.weights), (q.distances, p.distances)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _python_only_line(path):
    """The first entry line whose fields Python accepts but the grammar
    does not, provided no earlier line already fails the per-line checks;
    else None."""
    with open(path) as fh:
        lines = fh.readlines()
    header = [t.lower() for t in lines[0].strip().split()] if lines else []
    if len(header) < 5 or not lines[0].strip().startswith("%%MatrixMarket"):
        return None
    if header[1:3] != ["matrix", "coordinate"] or header[4] not in ("symmetric", "general"):
        return None
    if header[3] not in ("pattern", "real", "integer"):
        return None
    want = 2 if header[3] == "pattern" else 3
    body = [(ln, line.strip()) for ln, line in enumerate(lines, start=1) if ln > 1]
    body = [(ln, text) for ln, text in body if text and not text.startswith("%")]
    if not body:
        return None
    try:
        nrows, ncols, _ = (int(t) for t in body[0][1].split())
    except ValueError:  # not three integers
        return None
    if nrows != ncols:
        return None
    for ln, text in body[1:]:
        fields = text.split()[:want]
        if len(fields) < want:
            return None
        try:
            i, j = int(fields[0]), int(fields[1])
            if want == 3:
                float(fields[2])
        except ValueError:
            return None
        strict = all(
            INDEX.fullmatch(f) and -(2**63) <= int(f) < 2**63 for f in fields[:2]
        ) and (want == 2 or REAL.fullmatch(fields[2]))
        if not strict:
            return ln
        if not (0 <= i - 1 < nrows and 0 <= j - 1 < nrows):
            return None
    return None


def _check_graph_reader(path):
    frozen = _outcome(parse_graph_mm_frozen, path)
    new = _outcome(parse_graph_mm, path)
    python_only = _python_only_line(path)
    if python_only is not None:
        assert new == ("parse", python_only), (frozen, new)
    elif frozen[0] == "ok":
        assert new[0] == "ok", new
        _same_graph(new[1], frozen[1])
    else:
        assert new == frozen


# ---------------------------------------------------------------------------
# MatrixMarket: mixed layouts

NUMBER = st.one_of(
    st.integers(-3, 9).map(str),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "1e308", "-1e308", ".5", "5.", "+2",
                     "1e-400", "0x1", "1.0", "2%", "1,5"] + PYTHON_ONLY),
)
BLANK = st.sampled_from(["", " ", "\t", "  \t ", "\x0c", "\u00a0", "\u3000"])
SEP = st.sampled_from([" ", "  ", "\t", " \t", "\u00a0", "\u2003"])
EOL = st.sampled_from(["\n", "\r\n", "\r"])
COMMENT = st.sampled_from(["%", "% note", "%%", " % indented", "%% 50% done", "%1 2 3"])
EXTRA = st.sampled_from(["", " 7", " x", " 1 2", " %c", " 9%", "%", "% c"])


@st.composite
def mm_file(draw):
    field = draw(st.sampled_from(["pattern", "real", "integer"]))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    header = draw(st.sampled_from(["%%MatrixMarket", "%%matrixmarket", "%%MatrixMarket"]))
    n = draw(st.one_of(st.integers(1, 5), st.sampled_from([0, 4_000_000_000])))
    index = st.one_of(st.integers(1, max(1, min(n, 5))), st.integers(-1, 7))
    if n > 5:
        index = st.one_of(index, st.sampled_from([3_999_999_999, 4_000_000_000]).map(int))
    weight = NUMBER if field != "pattern" else st.just("")
    entries = draw(st.lists(st.tuples(index, index, weight), max_size=8))
    if symmetry == "general" and draw(st.booleans()):
        mirrored = [(j, i, w) for i, j, w in entries]
        if mirrored and draw(st.booleans()):
            k = draw(st.integers(0, len(mirrored) - 1))
            i, j, _ = mirrored[k]
            mirrored[k] = (i, j, draw(weight))
        entries += draw(st.permutations(mirrored))
    if entries and draw(st.booleans()):  # a repeated entry
        entries.append(draw(st.sampled_from(entries)))
    nnz = draw(st.one_of(st.just(len(entries)), st.integers(0, 10)))
    sep = draw(SEP)
    rows = [f"{i}{sep}{j}" + (f"{sep}{w}" if w else "") + draw(EXTRA) for i, j, w in entries]
    lines = [f"{header} matrix coordinate {field} {symmetry}", f"{n} {n} {nnz}"]
    for row in rows:
        lines += draw(st.lists(st.one_of(COMMENT, BLANK), max_size=2))
        pad = draw(st.sampled_from(["", " ", "\t", "\u00a0"]))
        lines.append(pad + row + pad)
    lines += draw(st.lists(st.one_of(COMMENT, BLANK), max_size=2))
    eol = draw(EOL)
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


# near-well-formed text of any kind, as the fuzz test draws it, minus the
# undecodable bytes whose UnicodeDecodeError the frozen reader raises before
# it reads a line
JUNK_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=60)


@DIFF
@given(text=st.one_of(mm_file(), st.tuples(mm_file(), JUNK_TEXT).map("".join)))
def test_graph_reader_matches_frozen(tmp_path, text):
    path = tmp_path / "g.mtx"
    path.write_bytes(text.encode("utf-8"))
    _check_graph_reader(path)


@pytest.mark.parametrize("layout", ["\n", "\r\n", "\r"])
def test_graph_reader_large_general_matches_frozen(tmp_path, layout):
    rng = np.random.default_rng(5)
    n, m = 300, 2000
    pairs = rng.choice(n * n, m, replace=False)
    pairs = pairs[pairs // n <= pairs % n]
    u, v = (pairs // n + 1).tolist(), (pairs % n + 1).tolist()
    w = rng.standard_normal(pairs.size).tolist()
    rows = [f"{a} {b} {x!r}" for a, b, x in zip(u, v, w)]
    rows += [f"{b} {a} {x!r}" for a, b, x in zip(u, v, w) if a != b]
    order = rng.permutation(len(rows))
    body = layout.join(rows[k] for k in order)
    path = tmp_path / "g.mtx"
    path.write_bytes(
        f"%%MatrixMarket matrix coordinate real general{layout}% c{layout}{n} {n} {len(rows)}"
        f"{layout}{body}{layout}".encode()
    )
    _check_graph_reader(path)
    assert parse_graph_mm(path).num_edges > 900


# ---------------------------------------------------------------------------
# malformed files and the lines they name

PAT = "%%MatrixMarket matrix coordinate pattern symmetric\n"
REALSYM = "%%MatrixMarket matrix coordinate real symmetric\n"
REALGEN = "%%MatrixMarket matrix coordinate real general\n"

MALFORMED = [
    ("too few fields", REALSYM + "3 3 2\n2 1 1.0\n% c\n3 1\n", 5),
    ("too few fields, pattern", PAT + "3 3 2\n\n2\n3 1\n", 4),
    ("bad token", REALSYM + "3 3 2\n2 1 1.0\n3 1 x\n", 4),
    ("bad index token", PAT + "3 3 2\n2 1\n3 1.0\n", 4),
    ("comment glued to a field", REALSYM + "3 3 2\n2 1 1.0\n3 1 2.0%c\n", 4),
    ("comment glued to an index", PAT + "3 3 2\n2 1%\n3 1\n", 3),
    ("out of range", REALSYM + "3 3 2\n% c\n2 1 1.0\n4 1 1.0\n", 5),
    ("out of range before a bad token", REALSYM + "3 3 2\n0 1 1.0\n3 1 x\n", 3),
    ("index past int64", PAT + "3 3 1\n9223372036854775808 1\n", 3),
    # np.loadtxt's integer parser reads U+01FE as the digit 462 and crashes
    # on U+10FFFF, so neither may reach it
    ("non-ASCII index", PAT + "3 3 1\n\u01fe 1\n", 3),
    ("non-ASCII in an index", PAT + "3 3 2\n2 1\n1\U0010ffff 1\n", 4),
    ("count mismatch", PAT + "3 3 3\n2 1\n3 1\n\n% end\n", 6),
    ("count mismatch, no newline at the end", PAT + "3 3 1\n2 1\n3 1", 4),
    ("missing mirror", REALGEN + "3 3 3\n2 1 1.0\n1 2 1.0\n3 1 2.0\n", 5),
    ("missing mirror, last repeat", REALGEN + "3 3 4\n3 1 2.0\n2 1 1.0\n1 2 1.0\n3 1 2.0\n", 6),
    ("mirror mismatch", REALGEN + "3 3 2\n% c\n2 1 1.0\n1 2 1.5\n", 4),
    ("mirror mismatch, last weight wins", REALGEN + "3 3 4\n2 1 1.5\n1 2 1.0\n2 1 1.0\n1 2 1.5\n", 5),
    ("missing mirror, huge indices", REALGEN + "5000000000 5000000000 1\n4000000000 1 1.0\n", 3),
    ("header", "%%MatrixMarket matrix array real general\n", 1),
    ("missing size line", PAT + "% c\n\n", 3),
    ("size line", PAT + "3 3\n", 2),
]


@pytest.mark.parametrize("text, line", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_malformed_graph_names_line(tmp_path, text, line, eol):
    path = tmp_path / "bad.mtx"
    path.write_bytes(text.replace("\n", eol).encode())
    with pytest.raises(ParseError) as err:
        parse_graph_mm(path)
    assert err.value.line == line
    assert _outcome(parse_graph_mm_frozen, path) == ("parse", line)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "1_0.5", "\u0663.5", "1e1_0"])
def test_python_only_weight_is_the_allowed_disagreement(tmp_path, token):
    path = tmp_path / "g.mtx"
    path.write_text(REALSYM + f"3 3 2\n2 1 1.0\n% c\n3 1 {token}\n")
    assert _outcome(parse_graph_mm_frozen, path)[0] == "ok"
    assert _outcome(parse_graph_mm, path) == ("parse", 5)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "0_1", "9223372036854775808", "-9223372036854775809"])
def test_python_only_index_is_the_allowed_disagreement(tmp_path, token):
    """Python takes these indices; past int64 they are out of range for the
    frozen reader too, on the same line."""
    path = tmp_path / "g.mtx"
    path.write_text(PAT + f"20 20 2\n2 1\n% c\n{token} 1\n")
    frozen = _outcome(parse_graph_mm_frozen, path)
    assert frozen[0] == "ok" or frozen == ("parse", 5)
    assert _outcome(parse_graph_mm, path) == ("parse", 5)


def test_trailing_fields_may_hold_anything(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(REALSYM + "3 3 3\n2 1 1.0 %\n3 1 2.0 x%y\n3 2 3.0 7 % c\n")
    g = parse_graph_mm(path)
    _same_graph(g, parse_graph_mm_frozen(path))
    np.testing.assert_array_equal(g.edges_w, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# QAPLIB

QAP_NUMBER = st.one_of(
    st.integers(0, 9).map(str),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6).map(repr),
    st.sampled_from(["1_0", "\u0663", "nan", "x", "1e999", "+2"]),
)
QAP_SPACE = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\r", " \n ", "\n\n", "\u00a0"])


@st.composite
def qap_file(draw):
    n = draw(st.one_of(st.integers(1, 3), st.sampled_from(["0", "-1", "x", "2.0"])))
    size = n if isinstance(n, int) else 1
    full = 2 * size * size
    count = draw(st.one_of(st.just(full), st.integers(0, full + 2)))
    vals = draw(st.lists(QAP_NUMBER, min_size=count, max_size=count))
    if draw(st.booleans()) and count >= full:
        mats = np.array(vals[:full], dtype=object).reshape(2, size, size)
        for a in mats:
            low = np.tril_indices(size, -1)
            a.T[low] = a[low]
        vals = list(mats.ravel()) + vals[full:]
    seps = draw(st.lists(QAP_SPACE, min_size=count + 2, max_size=count + 2))
    return "".join(s + t for s, t in zip(seps, [str(n), *vals, ""]))


def _first_non_grammar_line(text: str):
    """The line, as the readers count lines, of the first ``_`` or non-ASCII
    character after a leading byte-order mark, or None."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    at = next((k for k, ch in enumerate(text) if ch == "_" or ord(ch) > 127), None)
    return None if at is None else text[:at].count("\n") + 1


@DIFF
@given(text=st.one_of(qap_file(), JUNK_TEXT))
def test_qap_reader_matches_frozen(tmp_path, text):
    path = tmp_path / "q.dat"
    path.write_bytes(text.encode("utf-8"))
    frozen = _outcome(parse_qaplib_frozen, path)
    new = _outcome(parse_qaplib, path)
    line = _first_non_grammar_line(text)
    if line is not None:  # the frozen reader may take it
        assert new == ("parse", line)
    elif frozen[0] == "ok":
        assert new[0] == "ok", new
        _same_qap(new[1], frozen[1])
    else:
        assert new == frozen


@pytest.mark.parametrize(
    "text, line",
    [
        ("\n\nx\n", 3),
        ("\n0\n", 2),
        ("2\n0 1\n1 0\n\n0 2\n", 5),
        ("1\n0\n0\n% c\n", 4),
        ("2\n0 1\n1 0\n0 y\n2 0\n", 4),
    ],
    ids=["size token", "size value", "too few", "trailing", "bad entry"],
)
def test_malformed_qap_names_line(tmp_path, text, line):
    path = tmp_path / "q.dat"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        parse_qaplib(path)
    assert err.value.line == line
    assert _outcome(parse_qaplib_frozen, path) == ("parse", line)


@pytest.mark.parametrize(
    "text, line",
    [
        ("2\n0 1_0\n1_0 0\n0 5\n5 0\n", 2),
        ("2\n0 3\n3 0\n\n0 \u0665\n\u0665 0\n", 5),
        ("\u0662\n0 3\n3 0\n0 5\n5 0\n", 1),
        ("2\n0 3\n3 0\n0\u00a05\n5 0\n", 4),
    ],
    ids=["separator", "arabic-indic digit", "non-ASCII size", "non-ASCII space"],
)
def test_qap_tokens_are_ascii_without_separators(tmp_path, text, line):
    """Python's ``float()`` and ``int()`` read ``1_0`` as 10 and U+0665 as
    5; the frozen reader takes both, the reader names the line."""
    path = tmp_path / "q.dat"
    path.write_text(text, encoding="utf-8")
    assert _outcome(parse_qaplib_frozen, path)[0] == "ok"
    assert _outcome(parse_qaplib, path) == ("parse", line)


# ---------------------------------------------------------------------------
# a leading UTF-8 byte-order mark


@pytest.mark.parametrize(
    "reader, text",
    [
        (parse_graph_mm, REALSYM + "% c\n3 3 2\n2 1 1.5\n3 2 -2.0\n"),
        (parse_graph_mm, "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 3\n2 1 3\n"),
        (parse_qaplib, "2\n\n0 1\n1 0\n\n0 2\n2 0\n"),
    ],
    ids=["mm symmetric", "mm general", "qaplib"],
)
def test_byte_order_mark_is_ignored(tmp_path, reader, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    same = _same_graph if reader is parse_graph_mm else _same_qap
    same(reader(marked), reader(plain))


@pytest.mark.parametrize(
    "reader, text, line",
    [
        (parse_graph_mm, PAT + "3 3 2\n2 1\n4 1\n", 4),
        (parse_graph_mm, "%%MatrixMarket matrix array real general\n", 1),
        (parse_qaplib, "2\n0 1\n1 0\n0 y\n2 0\n", 4),
        (parse_qaplib, "x\n", 1),
        (parse_graph_mm, "\ufeff" + PAT + "2 2 1\n2 1\n", 1),
        (parse_qaplib, "\ufeff1\n0\n0\n", 1),
    ],
    ids=["mm range", "mm header", "qaplib entry", "qaplib size", "mm second mark", "qaplib second mark"],
)
def test_byte_order_mark_keeps_error_lines(tmp_path, reader, text, line):
    path = tmp_path / "marked"
    path.write_text(text, encoding="utf-8-sig")
    assert _outcome(reader, path) == ("parse", line)



# ---------------------------------------------------------------------------
# the one-pass MatrixMarket writer against its per-edge frozen copy


@pytest.mark.parametrize("seed", range(6))
def test_graph_writer_matches_frozen(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    pairs = rng.choice(n * n, int(rng.integers(0, 3 * n)), replace=False)
    pairs = pairs[pairs // n < pairs % n]  # each edge once, no self loops
    m = pairs.size
    # negative, integral, subnormal and extreme weights, 1e-300 to 1e300
    w = rng.choice([1.0, -1.0], m) * 10.0 ** rng.uniform(-300, 300, m)
    w[::5] = rng.standard_normal(w[::5].size)
    w[1::7] = rng.integers(-9, 10, w[1::7].size)
    specials = [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.1]
    w[2::11] = rng.choice(specials, w[2::11].size)
    g = GraphInstance.from_arrays(n, pairs // n, pairs % n, w)
    write_graph_mm(g, tmp_path / "one-pass.mtx")
    write_graph_mm_frozen(g, tmp_path / "per-edge.mtx")
    assert (tmp_path / "one-pass.mtx").read_bytes() == (tmp_path / "per-edge.mtx").read_bytes()
    _same_graph(parse_graph_mm(tmp_path / "one-pass.mtx"), g)
