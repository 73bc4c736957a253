import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplane.core import DrawingError, ValidationError
from oneplane.interchange import ParseError, dump, load, parse, serialize, to_dot
from oneplane.generators import (
    gen_HH,
    gen_M,
    gen_XH,
    gen_XM,
    gen_YH,
    gen_random_seed,
)


@pytest.mark.parametrize("g", [gen_XH(1), gen_YH(1), gen_XM(1), gen_XM(3),
                               gen_M(2), gen_HH(2)])
def test_round_trip_identity(g):
    text = serialize(g)
    g2 = parse(text)
    assert g2 == g
    assert serialize(g2) == text


def test_file_round_trip(tmp_path):
    g = gen_XH(2)
    path = tmp_path / "xh2.1pg"
    dump(g, path)
    assert load(path) == g


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 12), st.integers(0, 10 ** 6))
def test_round_trip_on_random_drawings(n, seed):
    g = gen_random_seed(n, seed)
    assert parse(serialize(g)) == g


def test_header_required():
    with pytest.raises(ParseError):
        parse("nonsense 9\n")


XM2 = serialize(gen_XM(2))


def _retoken(u: str, v: str) -> str:
    """XM(2)'s document with the halves of edge 15 (crossed at vertex 16)
    written ``u`` and ``v``: each names the same segments as before."""
    assert "e 15 8 3 x 16" in XM2
    return re.sub(r"\b15\.([uv])\b", lambda m: u if m[1] == "u" else v, XM2)


@pytest.mark.parametrize("doc", [
    "# no header follows\n" + XM2.split("\n", 1)[1],
    XM2 + "rot 999 0\n",
    XM2 + next(ln for ln in XM2.splitlines(keepends=True) if ln.startswith("rot 0 ")),
    _retoken("15.v", "15.u"),
    _retoken("15.a", "15.b"),
    _retoken("015.u", "15.v"),
    _retoken("15", "15.v"),
], ids=["comment-then-no-header", "rot-unknown-vertex", "duplicate-rot",
        "halves-swapped", "halves-misnamed", "leading-zero", "bare-edge-for-a-half"])
def test_malformed_document_rejected(doc):
    assert doc != XM2
    with pytest.raises(ParseError):
        parse(doc)


XM2_LINES = XM2.splitlines()
XM2_CROSSED = next(ln for ln in XM2_LINES if ln.startswith("e ") and " x " in ln)
XM2_VERTICES = next(ln for ln in XM2_LINES if ln.startswith("vertices "))
XM2_EDGES = next(ln for ln in XM2_LINES if ln.startswith("edges "))


@pytest.mark.parametrize("old,new", [
    (XM2_CROSSED, [XM2_CROSSED + " junk"]),
    (XM2_VERTICES, [XM2_VERTICES + " 7"]),
    (XM2_EDGES, [XM2_EDGES + " 7"]),
    (XM2_VERTICES, [XM2_VERTICES, XM2_VERTICES]),
    (XM2_EDGES, [XM2_EDGES, XM2_EDGES]),
], ids=["crossed-edge-trailing-token", "vertices-trailing-token",
        "edges-trailing-token", "second-vertices", "second-edges"])
def test_record_arity(old, new):
    """A record with tokens past its arity, or a second count record, is a
    ParseError naming the line of the last record in ``new``."""
    i = XM2_LINES.index(old)
    doc = "\n".join(XM2_LINES[:i] + new + XM2_LINES[i + 1:]) + "\n"
    with pytest.raises(ParseError, match=rf"\(line {i + len(new)}\)$"):
        parse(doc)


@pytest.mark.parametrize("old,new", [
    ("e 15 8 3 x 16", "e 1_5 +8 03 x \u0661\u0666"),
    ("e 15 8 3 x 16", "e 1_5 8 3 x 16"),
    ("e 15 8 3 x 16", "e 15 +8 3 x 16"),
    ("e 15 8 3 x 16", "e 15 8 03 x 16"),
    ("e 15 8 3 x 16", "e 15 8 3 x \u0661\u0666"),
    ("rot 8 ", "rot 0_8 "),
    ("v 3 true", "v +3 true"),
    ("v 0 true", "v 00 true"),
    ("vertices 20", "vertices +20"),
    ("edges 42", "edges 042"),
], ids=["edge-all", "edge-id-underscore", "edge-end-sign", "edge-end-leading-zero",
        "edge-crossing-arabic-indic", "rot-id-underscore", "vertex-id-sign",
        "vertex-id-zeros", "vertices-sign", "edges-leading-zero"])
def test_numbers_are_plain_decimals(old, new):
    """``int`` reads a sign, ``_``, leading zeros and non-ASCII digits,
    none of which ``serialize`` writes: each is a ParseError naming its
    line, and the same characters in a comment are skipped."""
    i = next(i for i, ln in enumerate(XM2_LINES) if ln.startswith(old))
    line = XM2_LINES[i].replace(old, new, 1)
    doc = "\n".join(XM2_LINES[:i] + [line] + XM2_LINES[i + 1:]) + "\n"
    with pytest.raises(ParseError, match=rf"\(line {i + 1}\)$"):
        parse(doc)
    commented = "\n".join(XM2_LINES[:i + 1] + ["# " + line] + XM2_LINES[i + 1:]) + "\n"
    assert parse(commented) == gen_XM(2)


# blank, whitespace-only and comment lines put after every record
SKIPPED = ["", "   ", "# note", "  #indented note", "#"]
XM2_SPACED = XM2_LINES[:1] + [x for ln in XM2_LINES[1:] for x in [ln, *SKIPPED]]


def test_edge_count_must_match_the_edge_records():
    i = XM2_LINES.index(XM2_EDGES)
    count = int(XM2_EDGES.split()[1])
    doc = "\n".join(XM2_LINES[:i] + [f"edges {count + 1}"] + XM2_LINES[i + 1:]) + "\n"
    with pytest.raises(ParseError, match="^PARSE_ERROR: edge count mismatch$"):
        parse(doc)


def test_blank_and_comment_lines_in_the_body_are_skipped():
    assert parse("\n".join(XM2_SPACED) + "\n") == gen_XM(2)


@pytest.mark.parametrize("record,message", [
    ("bogus 1", "unknown record 'bogus'"),
    ("e x 0 1", "malformed record 'e x 0 1'"),
], ids=["unknown", "malformed"])
def test_bad_record_after_skipped_lines_names_its_line(record, message):
    at = len(XM2_SPACED) - len(SKIPPED)         # just after the last record
    doc = "\n".join(XM2_SPACED[:at] + [record] + XM2_SPACED[at:]) + "\n"
    with pytest.raises(ParseError, match=rf"^PARSE_ERROR: {message}.*\(line {at + 1}\)$"):
        parse(doc)


def test_vertex_label_is_the_rest_of_the_line():
    text = serialize(gen_M(1))
    for v, label in ((0, "outer corner"), (2, "x")):
        text = text.replace(f"\nv {v} true\n", f"\nv {v} true {label}\n", 1)
    assert "v 0 true outer corner\n" in text and "v 2 true x\n" in text
    assert parse(text) == gen_M(1)

XM2_TOKENS = sorted({tok for ln in XM2_LINES for tok in ln.split()})


def test_edge_at_fake_vertex_is_one_violation():
    # edge 0 moved onto a crossing: reported once, not again as a bad segment
    fake = next(ln.split()[1] for ln in XM2_LINES if ln.endswith(" fake"))
    doc = XM2.replace("\ne 0 0 ", f"\ne 0 {fake} ", 1)
    assert doc != XM2
    with pytest.raises(ValidationError) as exc:
        parse(doc)
    about_edge0 = [v for v in exc.value.violations if re.search(r"\bedge 0\b", v.detail)]
    assert [v.code for v in about_edge0] == ["BAD_EDGE_TABLE"]


@st.composite
def xm2_mutants(draw):
    """XM(2)'s document with one line deleted, duplicated or swapped with
    another, or one token replaced."""
    lines = list(XM2_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "duplicate", "swap", "token"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif op == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        toks = lines[i].split()
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.one_of(
            st.sampled_from(XM2_TOKENS),
            st.integers(-3, 60).map(str),
            st.text("0123456789.uvx-#", max_size=4)))
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(xm2_mutants())
def test_mutated_document_round_trips_or_raises_drawing_error(doc):
    """A mutant either fails with a DrawingError, or parses to a drawing
    whose serialization round-trips byte for byte."""
    try:
        g = parse(doc)
    except DrawingError:
        return
    text = serialize(g)
    assert parse(text) == g
    assert serialize(parse(text)) == text
    # an accepted document names each dart as serialize does
    assert _rot_tokens(doc) == _rot_tokens(text)


def _rot_tokens(doc: str) -> dict[int, list[str]]:
    """The tokens of each vertex's rot record, for the vertices with one."""
    out = {}
    for ln in doc.splitlines():
        parts = ln.split()
        if parts and parts[0] == "rot" and parts[2:]:
            out[int(parts[1])] = parts[2:]
    return out


def test_labels_accepted():
    g = gen_M(1)
    text = serialize(g).replace("\nv 0 true\n", "\nv 0 true origin\n", 1)
    assert "v 0 true origin" in text
    assert parse(text) == g


def test_segment_multiplicity_error():
    g = gen_M(1)
    lines = serialize(g).splitlines()
    # duplicate one rotation token: that segment then appears three times
    idx = next(i for i, l in enumerate(lines) if l.startswith("rot "))
    lines[idx] = lines[idx] + " " + lines[idx].split()[-1]
    with pytest.raises(ParseError):
        parse("\n".join(lines) + "\n")


def test_validation_failure_surfaces():
    # structurally parseable but not a valid drawing (loop)
    text = "\n".join([
        "1pg 1",
        "vertices 1",
        "v 0 true",
        "edges 1",
        "e 0 0 0",
        "rot 0 0 0",
        "",
    ])
    with pytest.raises(ValidationError):
        parse(text)


def test_dot_counts():
    dot = to_dot(gen_XH(1))
    nodes = len(re.findall(r"^\s*n\d+ \[", dot, re.M))
    edges = len(re.findall(r"--", dot))
    assert (nodes, edges) == (18, 48)
    assert "color=red" in dot               # fake vertices styled distinctly
    assert re.search(r'label="e\d+xe\d+"', dot)   # crossing pair annotation

    dot = to_dot(gen_M(1))
    nodes = len(re.findall(r"^\s*n\d+ \[", dot, re.M))
    edges = len(re.findall(r"--", dot))
    assert (nodes, edges) == (4, 4)
