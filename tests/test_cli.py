import argparse

import pytest

from oneplane.cli import main
from oneplane.generators import fixture_path, gen_random_seed, generate
from oneplane import analyze, cli, interchange, maximality
from oneplane.core import underlying


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
    assert main(["generate", "xh", "--k", "0"]) == 2


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
    assert main(["check", xh1, "--near-optimal"]) == 0
    hh1 = write(tmp_path, "hh", 1)
    assert main(["check", hh1, "--near-optimal"]) == 1


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


def test_check_computes_each_fact_once(tmp_path, monkeypatch, capsys):
    yh2 = write(tmp_path, "yh", 2)
    cands = _count_calls(monkeypatch, maximality, "insertion_candidates")
    flows = _count_calls(monkeypatch, analyze, "_augment")
    assert main(["check", yh2, "--maximal", "--immovable", "--bounds"]) == 0
    assert len(cands) == 1
    in_check = len(flows)
    flows.clear()
    assert analyze.vertex_connectivity(underlying(generate("yh", 2))) == 3
    assert in_check == len(flows) > 0


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


def test_fuzz_deterministic_output(capsys):
    assert main(["fuzz", "--count", "4", "--n", "6..8", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "--count", "4", "--n", "6..8", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
