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

from pathlib import Path

from .core import (
    EdgeRec,
    OnePlaneGraph,
    OperationError,
    VertexKind,
    validate,
)

FORMAT_HEADER = "1pg 1"


class ParseError(OperationError):
    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__("PARSE_ERROR", message + where)


def serialize(g: OnePlaneGraph, labels: dict[int, str] | None = None) -> str:
    labels = labels or {}
    out = [FORMAT_HEADER, f"vertices {g.map.n_vertices}"]
    for v, kind in enumerate(g.map.kinds):
        line = f"v {v} {kind.value}"
        if v in labels:
            line += f" {labels[v]}"
        out.append(line)
    out.append(f"edges {len(g.edges)}")
    for e, rec in enumerate(g.edges):
        line = f"e {e} {rec.u} {rec.v}"
        if rec.crossing is not None:
            line += f" x {rec.crossing}"
        out.append(line)
    for v in range(g.map.n_vertices):
        toks = " ".join(_dart_token(g, d) for d in g.map.rotations[v])
        out.append(f"rot {v} {toks}".rstrip())
    return "\n".join(out) + "\n"


def _dart_token(g: OnePlaneGraph, d: int) -> str:
    e = g.dart_edge[d]
    half = g.segment_half(d)
    return str(e) if half == "whole" else f"{e}.{half}"


def parse(text: str) -> OnePlaneGraph:
    """Parse and validate an interchange document."""
    kinds: list[VertexKind] = []
    edges: list[EdgeRec] = []
    rot_tokens: dict[int, list[str]] = {}
    n_vertices = n_edges = None
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if line != FORMAT_HEADER:
                raise ParseError(f"expected header {FORMAT_HEADER!r}, got {line!r}",
                                 lineno)
            header_seen = True
            continue
        try:
            if parts[0] == "vertices":
                n_vertices = int(parts[1])
            elif parts[0] == "v":
                vid = int(parts[1])
                if vid != len(kinds):
                    raise ParseError(f"vertex ids must be dense, got {vid}", lineno)
                kinds.append(VertexKind(parts[2]))
            elif parts[0] == "edges":
                n_edges = int(parts[1])
            elif parts[0] == "e":
                eid = int(parts[1])
                if eid != len(edges):
                    raise ParseError(f"edge ids must be dense, got {eid}", lineno)
                crossing = None
                if len(parts) > 4:
                    if parts[4] != "x":
                        raise ParseError(f"bad edge record {line!r}", lineno)
                    crossing = int(parts[5])
                edges.append(EdgeRec(int(parts[2]), int(parts[3]), crossing))
            elif parts[0] == "rot":
                vid = int(parts[1])
                if vid in rot_tokens:
                    raise ParseError(f"second rot record for vertex {vid}", lineno)
                rot_tokens[vid] = parts[2:]
            else:
                raise ParseError(f"unknown record {parts[0]!r}", lineno)
        except (ValueError, IndexError) as exc:
            raise ParseError(f"malformed record {line!r}: {exc}", lineno)

    if n_vertices is None or n_vertices != len(kinds):
        raise ParseError("vertex count mismatch")
    if n_edges is None or n_edges != len(edges):
        raise ParseError("edge count mismatch")
    for v in rot_tokens:
        if not 0 <= v < len(kinds):
            raise ParseError(f"rot record for unknown vertex {v}")

    # Allocate one dart per rotation slot; pair the two slots that carry the
    # same segment token (whole edges pair endpoint-endpoint, halves pair
    # the true endpoint with the crossing).
    rotations: list[list[int]] = []
    dart_edge: list[int] = []
    slot_of: dict[tuple[str, int], list[int]] = {}
    for v in range(len(kinds)):
        toks = rot_tokens.get(v, [])
        rot = []
        for tok in toks:
            d = len(dart_edge)
            name, _, half = tok.partition(".")
            try:
                e = int(name)
            except ValueError:
                raise ParseError(f"bad dart token {tok!r} at vertex {v}")
            if not 0 <= e < len(edges):
                raise ParseError(f"dart token {tok!r} names unknown edge")
            dart_edge.append(e)
            rot.append(d)
            slot_of.setdefault((tok, e), []).append(d)
        rotations.append(rot)

    opposite = [-1] * len(dart_edge)
    for (tok, e), ds in slot_of.items():
        if len(ds) != 2:
            raise ParseError(f"segment {tok!r} appears {len(ds)} times, expected 2")
        opposite[ds[0]], opposite[ds[1]] = ds[1], ds[0]

    return validate(kinds, rotations, opposite, edges, dart_edge)


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
    for d in range(g.map.n_darts):
        o = g.map.opposite[d]
        if d < o:
            u, w = g.map.dart_vertex[d], g.map.dart_vertex[o]
            lines.append(f"  n{u} -- n{w} [label=\"e{g.dart_edge[d]}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
