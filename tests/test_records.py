"""Value semantics of the library's records, which are NamedTuples: read-only
fields, equality and hash over the fields, and ``_replace`` copies that
start with no cached facts."""

import importlib
import inspect
from pathlib import Path

import pytest

import oneplane
from oneplane import build, core
from oneplane.analyze import (
    degree_profile,
    regularity_checks,
    verify_bounds,
)
from oneplane.build import DrawingBuilder, delete_edges
from oneplane.core import check, underlying
from oneplane.generators import gen_XH
from oneplane.interchange import parse, serialize
from oneplane.maximality import (
    insertion_candidates,
    is_immovable,
    is_maximal,
    min_redraw_crossings,
)
from oneplane.transform import dual, skeleton


def _records():
    g = gen_XH(1)
    m, sg = g.map, underlying(g)
    crossed = g.crossing_pairs[0][1]
    bounds = verify_bounds(g)
    return {
        "Violation": check(m.kinds, m.rotations, m.opposite, g.edges[:-1], g.dart_edge)[0],
        "PlanarMap": m,
        "EdgeRec": g.edges[crossed],
        "OnePlaneGraph": g,
        "SimpleGraph": sg,
        "ConeResult": DrawingBuilder.from_graph(g).cone(list(m.face_walks[0])),
        "Subdrawing": delete_edges(g, (crossed,)),
        "InsertionCandidate": insertion_candidates(delete_edges(g, (crossed,)).graph)[0],
        "MaximalityResult": is_maximal(g),
        "RedrawResult": min_redraw_crossings(g, crossed),
        "ImmovabilityResult": is_immovable(g),
        "DegreeProfile": degree_profile(sg),
        "RegularityReport": regularity_checks(m),
        "BoundEntry": bounds.entries[0],
        "BoundReport": bounds,
        "DualMap": dual(skeleton(g)),
    }


RECORDS = _records()


def test_every_library_record_is_covered():
    modules = [importlib.import_module(f"oneplane.{path.stem}")
               for path in Path(oneplane.__file__).parent.glob("[!_]*.py")]
    defined = {name for mod in modules for name, cls in vars(mod).items()
               if inspect.isclass(cls) and issubclass(cls, tuple)
               and cls.__module__ == mod.__name__ and not name.startswith("_")}
    assert defined == set(RECORDS)
    assert {name: type(rec).__name__ for name, rec in RECORDS.items()} == \
        {name: name for name in RECORDS}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_are_read_only(name):
    rec = RECORDS[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)


def test_two_parses_give_equal_drawings_with_equal_hashes():
    text = serialize(gen_XH(1))
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.map == b.map and hash(a.map) == hash(b.map)
    # a record is a tuple of its fields: equal to one, and unpacked like one
    u, v, crossing = a.edges[0]
    assert a.edges[0] == (u, v, crossing) == core.EdgeRec(u, v, crossing)
    assert repr(core.EdgeRec(0, 1)) == "EdgeRec(u=0, v=1, crossing=None)"


def test_replace_copies_a_drawing_without_its_caches():
    g = gen_XH(1)
    sg, walks = underlying(g), g.map.face_walks
    pairs = g.crossing_pairs
    h = g._replace()
    assert type(h) is core.OnePlaneGraph and h is not g and h == g and hash(h) == hash(g)
    assert "crossing_pairs" not in h.__dict__
    assert h.crossing_pairs == pairs and h.crossing_pairs is not pairs
    assert underlying(h) == sg and underlying(h) is not sg
    # the fields themselves are shared, with the caches they keep
    assert h.map is g.map and h.map.face_walks is walks
    m = g.map._replace(opposite=tuple(g.map.opposite))
    assert m == g.map and "_derived" not in m.__dict__
    sub = delete_edges(g, (0,))
    assert type(sub._replace()) is build.Subdrawing
