"""Plain-text interchange format (`.1pg`) and DOT export.

The format is versioned, line-oriented and diffable; field order is fixed
so serialization is byte-stable.  A dart is written as its edge id for a
whole (uncrossed) edge, or as ``<edge>.u`` / ``<edge>.v`` for the half
between the crossing and that endpoint::

    1pg 1
    vertices 5
    v 0 true
    v 4 fake
    ...
    edges 6
    e 0 0 1
    e 5 0 2 x 4
    ...
    rot 0 0 5.u 2
    ...
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from operator import add, eq, sub
from pathlib import Path

from .core import (
    EdgeRec,
    OnePlaneGraph,
    OperationError,
    VertexKind,
    edge_rec,
    validate,
)

FORMAT_HEADER = "1pg 1"
_KINDS = {kind.value: kind for kind in VertexKind}
_KIND_NAMES = {kind: kind.value for kind in VertexKind}


class ParseError(OperationError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__("PARSE_ERROR", message + where)


class _Decimals(dict):
    """Token -> int for the tokens ``serialize`` writes as numbers: ASCII
    digits without a leading zero.  Any other token (a sign, ``_``, a
    leading zero or a non-ASCII digit, all of which ``int`` reads) is a
    ValueError.  Each distinct token is checked once; a repeat is a dict
    hit, which costs less than ``int``, and yields the same int object."""

    def __missing__(self, tok: str) -> int:
        if not (tok.isdecimal() and tok.isascii() and (tok[0] != "0" or tok == "0")):
            raise ValueError(f"{tok!r} is not a plain decimal number")
        self[tok] = value = int(tok)
        return value


def serialize(g: OnePlaneGraph) -> str:
    out = [FORMAT_HEADER, f"vertices {g.map.n_vertices}"]
    out += [f"v {v} {_KIND_NAMES[kind]}" for v, kind in enumerate(g.map.kinds)]
    out.append(f"edges {len(g.edges)}")
    for e, rec in enumerate(g.edges):
        line = f"e {e} {rec.u} {rec.v}"
        if rec.crossing is not None:
            line += f" x {rec.crossing}"
        out.append(line)
    token = _dart_tokens(g, *_edge_tokens(g.edges)).__getitem__
    for v, rot in enumerate(g.map.rotations):
        out.append(f"rot {v} {' '.join(map(token, rot))}".rstrip())
    return "\n".join(out) + "\n"


def _edge_tokens(edges) -> tuple[list[str], list[str]]:
    """The token of each edge's segment at its ``u`` end and at its ``v``
    end: the edge id for both ends of a whole edge, ``<edge>.u`` and
    ``<edge>.v`` for the halves of a crossed edge."""
    at_u = list(map(str, range(len(edges))))
    at_v = at_u.copy()
    for e, rec in enumerate(edges):
        if rec.crossing is not None:
            at_v[e] = at_u[e] + ".v"
            at_u[e] += ".u"
    return at_u, at_v


def _dart_tokens(g: OnePlaneGraph, at_u: list[str], at_v: list[str]) -> list[str]:
    """Each dart's token from ``_edge_tokens``: both darts of a segment
    share the token of the end of its edge that the segment holds."""
    pmap, edges, dart_edge = g.map, g.edges, g.dart_edge
    tokens = list(map(at_u.__getitem__, dart_edge))
    tail, opposite = pmap.dart_vertex, pmap.opposite
    for c in pmap.fake_vertices:
        for d in pmap.rotations[c]:
            e, o = dart_edge[d], opposite[d]
            if edges[e].u != tail[o]:
                tokens[d] = tokens[o] = at_v[e]
    return tokens


def parse(text: str) -> OnePlaneGraph:
    """Parse and validate an interchange document."""
    kinds: list[VertexKind] = []
    edges: list[EdgeRec] = []
    rot_tokens: dict[int, list[str]] = {}
    counts: dict[str, int] = {}           # the "vertices" and "edges" records
    num = _Decimals()                     # every id and count is read through it

    lines = text.splitlines()
    # the first line that is neither blank nor a comment is the header
    body = next((i for i, raw in enumerate(lines)
                 if raw.strip() and not raw.strip().startswith("#")), len(lines))
    if body < len(lines) and lines[body].strip() != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}, "
                         f"got {lines[body].strip()!r}", body + 1)
    lineno = body + 1
    try:
        for lineno, raw in enumerate(lines[body + 1:], start=body + 2):
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "e":
                eid = num[parts[1]]
                if eid != len(edges):
                    raise ParseError(f"edge ids must be dense, got {eid}", lineno)
                crossing = None
                if len(parts) > 4:
                    if parts[4] != "x":
                        raise ParseError(f"bad edge record {raw.strip()!r}", lineno)
                    crossing = num[parts[5]]
                edges.append(edge_rec((num[parts[2]], num[parts[3]], crossing)))
                if len(parts) > 6:
                    raise ParseError(f"trailing tokens in edge record {raw.strip()!r}",
                                     lineno)
            elif tag == "rot":
                vid = num[parts[1]]
                if vid in rot_tokens:
                    raise ParseError(f"second rot record for vertex {vid}", lineno)
                rot_tokens[vid] = parts[2:]
            elif tag == "v":
                vid = num[parts[1]]
                if vid != len(kinds):
                    raise ParseError(f"vertex ids must be dense, got {vid}", lineno)
                kinds.append(_KINDS.get(parts[2]) or VertexKind(parts[2]))
            elif tag[0] == "#":
                continue
            elif tag == "vertices" or tag == "edges":
                count = num[parts[1]]
                if len(parts) > 2:
                    raise ParseError(f"trailing tokens in count record {raw.strip()!r}",
                                     lineno)
                if tag in counts:
                    raise ParseError(f"second {tag} record", lineno)
                counts[tag] = count
            else:
                raise ParseError(f"unknown record {tag!r}", lineno)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed record {lines[lineno - 1].strip()!r}: {exc}", lineno)
    del lines, num  # read: not held through validation, a parse's peak

    if counts.get("vertices") != len(kinds):
        raise ParseError("vertex count mismatch")
    if counts.get("edges") != len(edges):
        raise ParseError("edge count mismatch")
    for v in rot_tokens:
        if not 0 <= v < len(kinds):
            raise ParseError(f"rot record for unknown vertex {v}")
    rotations = [rot_tokens.get(v, ()) for v in range(len(kinds))]
    at_u, at_v = _edge_tokens(edges)
    tokens, dart_edge, opposite = _segments(rotations, at_u, at_v)
    # dart ids run through the rotations in vertex order; the rotations are
    # slices of one tuple of ids, and ``opposite`` and ``dart_edge`` are
    # mapped through it, so the drawing holds one int object per id
    ids = tuple(range(max(len(opposite), len(edges))))
    ends = list(accumulate(map(len, rotations)))
    g = validate(kinds, [ids[a:b] for a, b in zip([0] + ends[:-1], ends)],
                 [ids[o] for o in opposite], edges, [ids[e] for e in dart_edge])
    # every token names a segment of its edge; it must also name the end
    # of the edge that the segment holds, so one drawing has one document
    want = _dart_tokens(g, at_u, at_v)
    if want != tokens:
        d = next(d for d, (w, tok) in enumerate(zip(want, tokens)) if w != tok)
        raise ParseError(f"dart token {tokens[d]!r} at vertex "
                         f"{g.map.dart_vertex[d]} should be {want[d]!r}")
    return g


def _segments(rotations, at_u: list[str], at_v: list[str]):
    """(tokens, dart_edge, opposite) for the rot tokens of each vertex, one
    dart per token in order.  Each token is one that ``_edge_tokens`` gives
    an edge, and the two darts that carry it are one segment: whole edges
    pair endpoint with endpoint, halves the true endpoint with the
    crossing."""
    tokens = list(chain.from_iterable(rotations))
    n = len(tokens)
    edge_of = dict(zip(at_v, range(len(at_v))))
    edge_of.update(zip(at_u, range(len(at_u))))
    try:
        dart_edge = list(map(edge_of.__getitem__, tokens))
    except KeyError:    # name the first bad token in rotation order
        v, tok = next((v, tok) for v, toks in enumerate(rotations)
                      for tok in toks if tok not in edge_of)
        raise ParseError(f"bad dart token {tok!r} at vertex {v}")
    first = dict(zip(reversed(tokens), range(n - 1, -1, -1)))
    last = dict(zip(tokens, range(n)))
    at_first = list(map(first.__getitem__, tokens))
    at_last = list(map(last.__getitem__, tokens))
    if 2 * len(last) != n or any(map(eq, at_first, at_last)):
        tok, times = next((tok, k) for tok, k in Counter(tokens).items() if k != 2)
        raise ParseError(f"segment {tok!r} appears {times} times, expected 2")
    # each token occurs at its first and last position: the other one is
    # the opposite dart
    opposite = list(map(sub, map(add, at_first, at_last), range(n)))
    return tokens, dart_edge, opposite


def dump(g: OnePlaneGraph, path) -> None:
    Path(path).write_text(serialize(g), encoding="utf-8")


def load(path) -> OnePlaneGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse(text)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(g: OnePlaneGraph) -> str:
    """The planarization as a DOT graph: one node per vertex (fake vertices
    drawn as red points, annotated with their crossing pair), one edge per
    segment."""
    lines = [
        "graph planarization {",
        "  node [shape=circle];",
    ]
    for v, kind in enumerate(g.map.kinds):
        if kind is VertexKind.TRUE:
            lines.append(f'  n{v} [label="{v}"];')
        else:
            a, b = g.edges_at_crossing(v)
            lines.append(
                f'  n{v} [label="e{a}xe{b}" shape=point color=red width=0.08];')
    tail = g.map.dart_vertex
    lines += [f'  n{tail[d]} -- n{tail[o]} [label="e{e}"];'
              for d, (o, e) in enumerate(zip(g.map.opposite, g.dart_edge)) if d < o]
    lines.append("}")
    return "\n".join(lines) + "\n"
