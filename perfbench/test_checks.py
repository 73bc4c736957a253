"""Self-tests of the benchmark: every checker accepts a correct output and
rejects a deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import malformed_documents  # noqa: E402
from oneplane import cli, generators, interchange, maximality  # noqa: E402
from oneplane.core import DrawingError  # noqa: E402


@pytest.fixture(scope="module")
def t1():
    path = str(generators.fixture_path("t1"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["check", path, "--maximal", "--immovable", "--bounds"])
    with open(path, encoding="utf-8") as fh:
        expect = checks.certify_expectation("t", 1, fh.read())
    return expect, rc, buf.getvalue()


def test_certify_accepts_correct_output(t1):
    assert checks.check_certify(*t1) == []


@pytest.mark.parametrize("old, new", [
    ("kappa=7", "kappa=6"),
    ("faces=80", "faces=81"),
    ("immovable PASS", "immovable FAIL"),
    ("cr-k7 18 >= 18 PASS", "cr-k7 18 >= 17 PASS"),
    ("cr-max-slack 18 <= 18 PASS", "cr-max-slack 18 <= 19 PASS"),
    ("size-min 84 >= 53 PASS\n", ""),
])
def test_certify_rejects_wrong_output(t1, old, new):
    expect, rc, out = t1
    assert old in out
    assert checks.check_certify(expect, rc, out.replace(old, new))


def test_certify_rejects_exit_code_and_untight_row(t1):
    expect, rc, out = t1
    assert checks.check_certify(expect, 1, out)
    assert checks.check_certify(dict(expect, tight=("cr-k3",)), rc, out)


def test_fuzz_output_checker():
    assert checks.check_fuzz_output(0, "fuzz: 1 instances, 0 violations\n", 1) == []
    assert checks.check_fuzz_output(1, "fuzz: 1 instances, 0 violations\n", 1)
    assert checks.check_fuzz_output(0, "fuzz: 1 instances, 2 violations\n", 1)
    assert checks.check_fuzz_output(0, "fuzz: 2 instances, 0 violations\n", 1)
    assert checks.check_fuzz_output(0, "", 1)


def test_saturated_checker():
    base = generators.gen_random_seed(12, 3)
    sat = maximality.saturate(base, maximality.SaturationPolicy.SEEDED, seed=3)
    assert checks.check_saturated(sat, 12) == []
    assert checks.check_saturated(sat, 13)
    assert any("not maximal" in p for p in checks.check_saturated(base, 12))


@pytest.mark.parametrize("seed", range(6))
def test_brute_force_agrees_with_library(seed):
    g = generators.gen_random_seed(7 + seed, seed)
    for _ in range(4):
        assert (checks.brute_force_insertable(g) is None) == maximality.is_maximal(g).is_maximal
        cands = maximality.insertion_candidates(g)
        if not cands:
            break
        g = maximality.apply_insertion(g, cands[-1])


def _roundtrip(g):
    text = interchange.serialize(g)
    h = interchange.parse(text)
    out = interchange.serialize(h)
    return h, out, interchange.to_dot(h)


def test_roundtrip_checker():
    g = generators.gen_XM(2)
    counts = checks.family_counts("xm", 2)
    h, text, dot = _roundtrip(g)
    ok = (counts, g, h, text, dot, interchange.parse(text), text)
    assert checks.check_roundtrip(*ok) == []
    other = generators.gen_XM(3)
    wrong = [
        (checks.family_counts("xm", 3),) + ok[1:],
        (counts, other) + ok[2:],
        ok[:5] + (other, text),
        ok[:6] + (text + "\n",),
        ok[:4] + (dot.replace("  n0 [", "  x0 [", 1),) + ok[5:],
        ok[:4] + ("".join(dot.splitlines(keepends=True)[:-2]) + "}\n",) + ok[5:],
    ]
    for args in wrong:
        assert checks.check_roundtrip(*args)


def test_malformed_documents_are_malformed():
    docs = dict(malformed_documents(interchange.serialize(generators.gen_XM(2))))
    assert len(docs) == 7
    for name in ("bad-header", "count-mismatch", "unknown-edge-token", "edge-at-fake-vertex"):
        with pytest.raises(DrawingError):
            interchange.parse(docs[name])


def test_recorder_counts_and_self_time():
    rec = spans.Recorder()
    rec.install()
    try:
        rec.label = "xm2"
        g = interchange.parse(interchange.serialize(generators.gen_XM(2)))
        maximality.is_maximal(g)
    finally:
        rec.uninstall()
    totals = rec.totals()
    assert totals[("interchange.parse", "xm2")][0] == 1
    assert totals[("maximality.is_maximal", "xm2")][0] == 1
    # the copy of validate that interchange imported by name is wrapped too
    parse_span = rec.names.index("interchange.parse")
    assert any(name == "core.validate" and parent == parse_span
               for name, parent in zip(rec.names, rec.parent))
    for (calls, incl, self_s) in totals.values():
        assert 0 <= self_s <= incl
    # uninstall restored every original
    assert interchange.parse.__module__ == "oneplane.interchange"
    assert not hasattr(interchange.parse, "__wrapped__")


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    for name, t0, t1, parent in (("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0),
                                 ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)):
        rec.names.append(name)
        rec.labels.append("")
        rec.start.append(t0)
        rec.end.append(t1)
        rec.parent.append(parent)
    assert rec.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert rec.totals()[("b", "")] == [2, 4.0, 3.0]
