"""The fixture tool still regenerates the bundled fixtures byte for byte."""

import importlib.util
from pathlib import Path

from oneplane.generators import fixture_path
from oneplane.interchange import serialize

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"


def test_make_fixtures_reproduces_bundled_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name, make in (("t1", tool.make_t1), ("t2", tool.make_t2)):
        assert serialize(make()) == fixture_path(name).read_text(encoding="utf-8")
