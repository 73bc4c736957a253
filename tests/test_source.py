"""Rules the library source keeps."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import oneplane


TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_library_has_no_assert():
    # python -O strips asserts, so no invariant of the library or of the
    # tools that write its fixtures may rest on one
    found = []
    paths = sorted(Path(oneplane.__file__).parent.glob("*.py")) + sorted(TOOLS.glob("*.py"))
    assert len(paths) > len(list(Path(oneplane.__file__).parent.glob("*.py")))
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_keeps_no_per_edge_dart_index():
    # each edge's darts are read off dart_edge or the validated map;
    # tests/oracles.py keeps the index as a function
    found = [f"{path.name}:{i}"
             for path in sorted(Path(oneplane.__file__).parent.glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "edge_darts" in line]
    assert found == []


def test_a_candidate_names_its_route_once():
    # a one-face route is one with no crossed edge; no second field says so
    found = [f"{path.name}:{i}"
             for path in sorted(Path(oneplane.__file__).parent.glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "RouteKind" in line]
    assert found == []
    assert oneplane.InsertionCandidate._fields == ("u", "v", "faces", "cross_edge")


def test_library_does_not_import_dataclasses():
    # records are NamedTuples: a dataclass decorator compiles its methods
    # at import, and the module pulls in inspect, ast, dis and tokenize
    found = []
    for path in sorted(Path(oneplane.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name and name.split(".")[0] == "dataclasses"]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter, which preloads neither
    src = str(Path(oneplane.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys; import oneplane.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_generators_import_only_build_and_core():
    # every family is built on a DrawingBuilder, never by insertion candidates
    path = Path(oneplane.__file__).parent / "generators.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"build", "core"}


def test_one_call_site_creates_a_fake_vertex():
    # every crossing is made by one insertion path, in build.py
    calls = []
    for path in sorted(Path(oneplane.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [(path.name, ast.unparse(node.args[0])) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "new_vertex"]
    assert [c for c in calls if c[1] != "VertexKind.TRUE"] == [("build.py", "VertexKind.FAKE")]



def _callers(tree, callee: str) -> list:
    """The innermost function around each call to ``callee``, None for a
    call outside every function."""
    out = []

    def visit(node, fn):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == callee:
            out.append(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            fn = getattr(node, "name", "<lambda>")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)
    visit(tree, None)
    return out


def test_only_the_candidate_table_builds_candidates():
    # every insertion candidate is built by _in_face or _across, which only
    # maximality._Closure calls
    calls = set()
    for path in sorted(Path(oneplane.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= {(path.name, fn) for fn in _callers(tree, "InsertionCandidate")}
    assert calls == {("maximality.py", "_in_face"), ("maximality.py", "_across")}


def test_one_deletion_path():
    # faces are the map's walks with one class table, and edges leave a
    # drawing only through build.delete_edges
    defined, deleting, builder_deletes = set(), set(), []
    for path in sorted(Path(oneplane.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {(path.name, node.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)}
        deleting |= {(path.name, fn) for fn in _callers(tree, "delete_edges")}
        builder_deletes += _callers(tree, "delete_edge")
    assert not {name for _, name in defined} & {"Face", "FaceSet", "FaceMerge"}
    assert builder_deletes == []
    assert deleting == {("transform.py", "skeleton"), ("analyze.py", "check_near_optimal"),
                        ("maximality.py", "min_redraw_crossings")}
    assert not hasattr(oneplane.DrawingBuilder, "delete_edge")


def test_one_compaction():
    # drawings are compacted and validated in build._compact (parse keeps
    # its own path), and a drawing's graph has one adjacency: underlying(g)
    calls = set()
    for path in sorted(Path(oneplane.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= {(path.name, fn) for fn in _callers(tree, "validate")}
    assert calls == {("build.py", "_compact"), ("interchange.py", "parse")}
    assert not {"adjacency", "has_edge"} & set(dir(oneplane.OnePlaneGraph))


def test_one_ring_table_and_one_segment_link():
    # the ring families' rotations are written by one loop nest,
    # generators._ring_table, and DrawingBuilder._link alone pairs darts
    src = Path(oneplane.__file__).parent
    tree = ast.parse((src / "generators.py").read_text(encoding="utf-8"))
    nested = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for loop in ast.walk(fn) if isinstance(loop, ast.For)
              if any(isinstance(inner, ast.For) for inner in ast.walk(loop) if inner is not loop)}
    assert nested == {"_ring_table"}
    assert set(_callers(tree, "_ring_table")) == {"_h_table", "_m"}

    tree = ast.parse((src / "build.py").read_text(encoding="utf-8"))
    linking = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Assign)
               for target in node.targets for item in ast.walk(target)
               if isinstance(item, ast.Subscript) and isinstance(item.value, ast.Attribute)
               and item.value.attr == "opposite"}
    assert linking == {"_link"}


def test_one_record_for_a_drawing_minus_some_edges():
    # a skeleton is the Subdrawing of its deletion, and finish() returns
    # the drawing: no record or knob wraps either
    defined = set()
    for path in sorted(Path(oneplane.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert not defined & {"Skeleton", "BuildResult", "RemovalStrategy"}
    assert not hasattr(oneplane.DrawingBuilder, "graph")
    assert list(inspect.signature(oneplane.skeleton).parameters) == ["g", "removed"]


def test_one_verdict_shape_for_the_structural_checks():
    # every structural check returns its list of violations, and G_k
    # membership is decided by one predicate of the facts verify_bounds
    # holds, which it and property_suite call
    path = Path(oneplane.__file__).parent / "analyze.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not defined & {"CheckResult", "CheckStatus", "_g_k_applicability"}
    assert set(_callers(tree, "_in_g_k")) == {"verify_bounds", "property_suite"}
    checks = {node.name: ast.unparse(node.returns) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")}
    assert len(checks) == 7 and set(checks.values()) == {"list[str]"}
