import argparse
from functools import cached_property

import pytest

from oneplane.cli import main
from oneplane.generators import FAMILIES, fixture_path, gen_random_seed, generate
from oneplane import analyze, cli, flow, interchange, maximality
from oneplane.core import PlanarMap, underlying


def write(tmp_path, family, k):
    path = tmp_path / f"{family}{k}.1pg"
    interchange.dump(generate(family, k), path)
    return str(path)


def test_generate_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "xh1.1pg"
    assert main(["generate", "xh", "--k", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "n=12 cr=6 E=36" in captured.out
    assert interchange.load(out).n == 12


def test_generate_stdout(capsys):
    assert main(["generate", "m", "--k", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("1pg 1\n")
    assert "cr=0" in captured.err


def test_generate_bad_parameter(capsys):
    for family in FAMILIES:
        assert main(["generate", family, "--k", "0"]) == 2
        assert capsys.readouterr() == ("", "error: BAD_PARAMETER: k must be >= 1, got 0\n")


def test_generate_random(tmp_path, capsys):
    out = tmp_path / "r.1pg"
    assert main(["generate", "random", "--n", "9", "--seed", "4", "--out", str(out)]) == 0
    g = gen_random_seed(9, 4)
    assert interchange.load(out) == g
    assert capsys.readouterr().out == f"n=9 cr={g.crossing_count} E={g.size} -> {out}\n"


def test_generate_fixture(tmp_path, capsys):
    src = write(tmp_path, "xm", 2)
    assert main(["generate", "fixture", "--path", src]) == 0
    assert main(["generate", "fixture"]) == 2


def test_check_pass_and_fail(tmp_path, capsys):
    yh1 = write(tmp_path, "yh", 1)
    assert main(["check", yh1, "--maximal", "--immovable", "--bounds"]) == 0
    out = capsys.readouterr().out
    assert "maximal PASS" in out
    assert "immovable PASS" in out
    assert "cr-k3 6 >= 6 PASS" in out

    hh1 = write(tmp_path, "hh", 1)
    assert main(["check", hh1, "--maximal"]) == 1
    out = capsys.readouterr().out
    assert "maximal FAIL" in out
    assert "insertable:" in out


def test_check_prints_both_route_labels(tmp_path, capsys):
    # the witness's route is named from its crossed edge: none is one-face
    m2 = write(tmp_path, "m", 2)
    rnd = tmp_path / "r5.1pg"
    interchange.dump(gen_random_seed(5, 1), rnd)
    for path, line in [
            (m2, "  insertable: 0-2 via one-face faces=(2,) crossing-edge=None\n"),
            (str(rnd), "  insertable: 2-4 via two-faces faces=(2, 1) crossing-edge=3\n")]:
        assert main(["check", path, "--maximal"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("maximal FAIL\n" + line)


@pytest.mark.parametrize("flag,line", [
    ("--immovable", "immovable FAIL (drawing is not maximal)"),
    ("--bounds", "bounds FAIL (drawing is not maximal)"),
])
def test_check_needs_a_maximal_drawing(tmp_path, capsys, flag, line):
    m2 = write(tmp_path, "m", 2)
    assert main(["check", m2, flag]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "maximal FAIL" in out and out[-1] == line


@pytest.mark.parametrize("seed", [300, 380, 1460])
def test_check_bounds_on_non_triangulated_maximal_drawing(tmp_path, capsys, seed):
    m = maximality.saturate(gen_random_seed(5, seed),
                            maximality.SaturationPolicy.SEEDED, seed)
    path = tmp_path / "m.1pg"
    interchange.dump(m, path)
    assert main(["check", str(path), "--bounds"]) == 0
    assert "cr-max-slack 2 <= 5/3 NOT_APPLICABLE" in capsys.readouterr().out


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.1pg"
    bad.write_text("garbage\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2


def test_check_validation_error(tmp_path, capsys):
    bad = tmp_path / "loop.1pg"
    bad.write_text(
        "1pg 1\nvertices 1\nv 0 true\nedges 1\ne 0 0 0\nrot 0 0 0\n",
        encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_check_near_optimal(tmp_path, capsys):
    xh1 = write(tmp_path, "xh", 1)
    capsys.readouterr()
    assert main(["check", xh1, "--near-optimal"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "near-optimal PASS"
    hh1 = write(tmp_path, "hh", 1)
    capsys.readouterr()
    assert main(["check", hh1, "--near-optimal"]) == 1
    out = capsys.readouterr().out.splitlines()
    at = out.index("near-optimal FAIL")
    assert out[at + 1] == "  quadrangular face (0, 8, 4, 11) holds 0 crossings"


def test_check_enumerates_candidates_only_when_asked(monkeypatch, capsys):
    def enumerated(g):
        raise AssertionError("insertion candidates enumerated")
    monkeypatch.setattr(maximality, "insertion_candidates", enumerated)
    t1 = str(fixture_path("t1"))
    assert main(["check", t1]) == 0
    assert main(["check", t1, "--near-optimal"]) == 0


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_check_computes_each_fact_once(monkeypatch, capsys):
    # on t1, whose κ still needs searches once they start seeded
    t1 = str(fixture_path("t1"))
    cands = _count_calls(monkeypatch, maximality, "insertion_candidates")
    searches = _count_calls(monkeypatch, flow, "augment")   # fans and flows
    assert main(["check", t1, "--maximal", "--immovable", "--bounds"]) == 0
    assert len(cands) == 1
    in_check = len(searches)
    searches.clear()
    assert analyze.vertex_connectivity(underlying(interchange.load(t1))) == 7
    assert in_check == len(searches) > 0


def _count_computed(monkeypatch, cls, name):
    """The objects whose cached property ``cls.name`` is computed from now
    on, one item per computation: a read after the first finds it kept."""
    computed = []
    compute = getattr(cls, name).func

    def counted(x):
        computed.append(x)
        return compute(x)
    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return computed


@pytest.mark.parametrize("family", ["yh2", "t1"])
def test_check_walks_the_faces_once(tmp_path, monkeypatch, capsys, family):
    # validation keeps the walks it computed, and every later reader uses them
    path = write(tmp_path, "yh", 2) if family == "yh2" else str(fixture_path("t1"))
    walked = _count_computed(monkeypatch, PlanarMap, "_derived")
    assert main(["check", path, "--maximal", "--immovable", "--bounds"]) == 0
    assert len(walked) == 1


def test_check_searches_only_for_missing_paths(tmp_path, monkeypatch, capsys):
    """κ's fans and flows start from the paths of one or two steps that the
    neighbor tables list, and search only for those still missing: the
    certify check's ``flow.augment`` calls, which were 29, 149 and 58 on
    YH(4), XH(4) and t2 when fans started from direct edges alone and
    flows from nothing."""
    searches = _count_calls(monkeypatch, flow, "augment")
    for path, most in [(write(tmp_path, "yh", 2), 0), (write(tmp_path, "yh", 4), 0),
                       (write(tmp_path, "xh", 4), 105), (str(fixture_path("t2")), 46)]:
        searches.clear()
        assert main(["check", path, "--maximal", "--immovable", "--bounds"]) == 0
        assert len(searches) <= most


def test_fuzz_walks_each_drawing_once(monkeypatch, capsys):
    # one walk each for the random drawing, its saturation and the skeleton
    walked = _count_computed(monkeypatch, PlanarMap, "_derived")
    assert main(["fuzz", "--count", "1", "--n", "70..70", "--seed", "3"]) == 0
    assert len(walked) == len({id(m) for m in walked}) == 3


def test_main_builds_one_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        yh1 = write(tmp_path, "yh", 1)
        assert main(["stats", yh1]) == 0
        assert main(["stats", yh1]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("oneplane") == 1


def test_export_dot(tmp_path, capsys):
    xh1 = write(tmp_path, "xh", 1)
    out = tmp_path / "xh1.dot"
    assert main(["export-dot", xh1, "--out", str(out)]) == 0
    assert out.read_text().count("--") == 48


def test_stats(tmp_path, capsys):
    yh1 = write(tmp_path, "yh", 1)
    assert main(["stats", yh1]) == 0
    out = capsys.readouterr().out
    assert "n 20" in out and "crossings 6" in out and "kappa 3" in out


def test_fuzz_clean(capsys):
    assert main(["fuzz", "--count", "6", "--n", "6..9", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_fuzz_bad_range(capsys):
    assert main(["fuzz", "--count", "1", "--n", "oops"]) == 2


@pytest.mark.parametrize("argv", [["--count", "0"], ["--n", "3..5"]])
def test_fuzz_rejects_an_empty_batch_or_small_order(capsys, argv):
    assert main(["fuzz", *argv]) == 2
    assert capsys.readouterr().err == "error: need count >= 1 and 4 <= lo <= hi\n"


def test_fuzz_deterministic_output(capsys):
    assert main(["fuzz", "--count", "4", "--n", "6..8", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "--count", "4", "--n", "6..8", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [["check"], ["stats"], ["export-dot"],
                                  ["generate", "fixture", "--path"]])
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "bom.1pg"
    path.write_bytes(b"\xff\xfe")
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: PARSE_ERROR: cannot read {path}: ")


@pytest.mark.parametrize("command", ["generate", "export-dot"])
def test_out_into_missing_directory(tmp_path, capsys, command):
    args = ["xm", "--k", "2"] if command == "generate" else [write(tmp_path, "xm", 2)]
    out = tmp_path / "missing" / "out.txt"
    assert main([command, *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()
