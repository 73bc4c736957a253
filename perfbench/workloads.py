"""The three workloads: their inputs, one timed pass, and its checks.

A workload is built in two steps.  ``setup`` imports oneplane and builds the
inputs; it is what ``setup_s`` times, so it does nothing else.  ``expect``
then computes the independent expectations, untimed.  ``run_pass`` runs
every operation of the instance set once and returns the raw outputs and
each operation's time; ``check`` judges the outputs after the pass.  Every
pass runs the same operations, so the share of failed operations is the
same in every run.

oneplane is imported inside ``setup`` only, so that the import is timed.
"""

from __future__ import annotations

import contextlib
import io
import random
from time import perf_counter

import checks

# check --maximal --immovable --bounds on these (family, k); t1/t2 are the
# bundled 7-connected fixtures.
CERTIFY_SET = (("yh", 3), ("yh", 4), ("xh", 3), ("xh", 4),
               ("xm", 4), ("xm", 5), ("xm", 6), ("t", 1), ("t", 2))
# `fuzz --count 1 --n N..N --seed S` on these fixed (N, S).
FUZZ_SET = ((60, 1), (65, 2), (70, 3), (75, 4), (80, 5))
# roundtrip: every family member below, t1, t2, saturated random drawings of
# these orders (their seeds come from --seed), and the malformed documents.
ROUNDTRIP_FAMILIES = tuple(("xh", k) for k in range(1, 6)) + \
    tuple(("yh", k) for k in range(1, 6)) + tuple(("xm", k) for k in range(1, 7))
ROUNDTRIP_FUZZ_N = (16, 24, 32, 40)


def _quiet(fn, *args):
    """fn(*args) with its standard output captured: (result, output).  An
    exception escaping fn is returned as the result: the operation failed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            result = fn(*args)
        except Exception as exc:      # reported as a failed operation
            result = exc
    return result, buf.getvalue()


class Certify:
    """`oneplane check --maximal --immovable --bounds` on extremal drawings."""

    def setup(self, seed: int, work, after_import) -> None:
        from oneplane import cli, generators, interchange
        after_import()
        self.cli = cli
        self.instances = []
        for family, k in CERTIFY_SET:
            if family == "t":
                path = str(generators.fixture_path(f"t{k}"))
            else:
                path = str(work / f"{family}{k}.1pg")
                interchange.dump(generators.generate(family, k), path)
            self.instances.append((f"{family}{k}", family, k, path))
        random.Random(seed).shuffle(self.instances)
        self.ops = len(self.instances)

    def expect(self) -> None:
        self.expected = []
        for _, family, k, path in self.instances:
            with open(path, encoding="utf-8") as fh:
                self.expected.append(checks.certify_expectation(family, k, fh.read()))

    def run_pass(self, mark) -> tuple[list, list[float]]:
        out, times = [], []
        for name, _, _, path in self.instances:
            mark(name)
            t0 = perf_counter()
            out.append(_quiet(self.cli.main,
                              ["check", path, "--maximal", "--immovable", "--bounds"]))
            times.append(perf_counter() - t0)
        return out, times

    def check(self, outputs, first: bool) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for (name, *_), expect, (rc, text) in zip(self.instances, self.expected, outputs):
            if isinstance(rc, Exception) or rc != 0:
                failed += 1
                continue
            problems += [f"{name}: {p}" for p in checks.check_certify(expect, rc, text)]
        return failed, problems


class FuzzLarge:
    """`oneplane fuzz` (gen_random_seed -> saturate -> property_suite) at n 60..80."""

    def setup(self, seed: int, work, after_import) -> None:
        from oneplane import cli, maximality
        after_import()
        self.cli = cli
        self.instances = list(FUZZ_SET)
        random.Random(seed).shuffle(self.instances)
        self.ops = len(self.instances)
        self.maximality = maximality

    def expect(self) -> None:
        # Keep each saturated drawing `fuzz` builds, to check it afterwards.
        self.saturated = []
        saturate = self.maximality.saturate

        def keep(*args, **kwargs):
            g = saturate(*args, **kwargs)
            self.saturated.append(g)
            return g
        self.maximality.saturate = keep
        self.first_saturated = None

    def run_pass(self, mark) -> tuple[list, list[float]]:
        self.saturated.clear()
        out, times = [], []
        for n, s in self.instances:
            mark(f"n{n}")
            t0 = perf_counter()
            out.append(_quiet(self.cli.main,
                              ["fuzz", "--count", "1", "--n", f"{n}..{n}", "--seed", str(s)]))
            times.append(perf_counter() - t0)
        return out, times

    def check(self, outputs, first: bool) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for (n, s), (rc, text) in zip(self.instances, outputs):
            if isinstance(rc, Exception):
                failed += 1
                continue
            problems += [f"n={n} seed={s}: {p}"
                         for p in checks.check_fuzz_output(rc, text, 1)]
        if len(self.saturated) != self.ops - failed:
            problems.append(f"{len(self.saturated)} saturated drawings for {self.ops} instances")
        elif first:
            self.first_saturated = list(self.saturated)
            for (n, s), g in zip(self.instances, self.saturated):
                problems += [f"n={n} seed={s}: {p}" for p in checks.check_saturated(g, n)]
        elif self.saturated != self.first_saturated:
            problems.append("saturated drawings differ from the first pass")
        return failed, problems


def malformed_documents(text: str) -> list[tuple[str, str]]:
    """Malformed variants of one serialized drawing; parse must reject each
    with a DrawingError.  The last three are accepted by the parser today."""
    lines = text.splitlines(keepends=True)
    rot0 = next(i for i, ln in enumerate(lines) if ln.startswith("rot 0 "))
    edge0 = next(i for i, ln in enumerate(lines) if ln.startswith("e 0 "))
    fake = next(ln.split()[1] for ln in lines if ln.startswith("v ") and ln.split()[2] == "fake")
    header, count = lines[0], lines[1]
    toks = lines[rot0].split()
    return [
        ("bad-header", "1pg 2\n" + "".join(lines[1:])),
        ("count-mismatch", header + f"vertices {int(count.split()[1]) + 1}\n"
         + "".join(lines[2:])),
        ("unknown-edge-token", "".join(lines[:rot0])
         + " ".join(toks[:2] + ["999"] + toks[3:]) + "\n" + "".join(lines[rot0 + 1:])),
        ("edge-at-fake-vertex", "".join(lines[:edge0])
         + lines[edge0].replace("e 0 0 ", f"e 0 {fake} ", 1) + "".join(lines[edge0 + 1:])),
        ("comment-then-no-header", "# no header follows\n" + "".join(lines[1:])),
        ("rot-unknown-vertex", text + "rot 999 0\n"),
        ("duplicate-rot", text + lines[rot0]),
    ]


class Roundtrip:
    """parse -> serialize -> to_dot on every family member, the fixtures,
    saturated random drawings, and malformed documents."""

    def setup(self, seed: int, work, after_import) -> None:
        from oneplane import generators, interchange, maximality
        from oneplane.core import DrawingError
        after_import()
        self.interchange = interchange
        self.drawing_error = DrawingError
        docs = []      # (name, text, source drawing or None, counts or None)
        for family, k in ROUNDTRIP_FAMILIES:
            g = generators.generate(family, k)
            docs.append((f"{family}{k}", interchange.serialize(g), g,
                         checks.family_counts(family, k)))
        for k in (1, 2):
            with open(generators.fixture_path(f"t{k}"), encoding="utf-8") as fh:
                docs.append((f"t{k}", fh.read(), None, checks.family_counts("t", k)))
        for i, n in enumerate(ROUNDTRIP_FUZZ_N):
            s = seed * len(ROUNDTRIP_FUZZ_N) + i
            g = maximality.saturate(generators.gen_random_seed(n, s),
                                    maximality.SaturationPolicy.SEEDED, seed=s)
            docs.append((f"fuzz{n}", interchange.serialize(g), g,
                         (g.n, g.crossing_count, g.size)))
        random.Random(seed).shuffle(docs)
        xm2 = next(text for name, text, _, _ in docs if name == "xm2")
        docs += [(name, text, None, None) for name, text in malformed_documents(xm2)]
        self.docs = docs
        self.ops = len(docs)

    def expect(self) -> None:
        self.first = None

    def run_pass(self, mark) -> tuple[list, list[float]]:
        ic = self.interchange
        out, times = [], []
        for name, text, _, counts in self.docs:
            mark(name)
            t0 = perf_counter()
            try:
                g = ic.parse(text)
                out.append(g if counts is None else (g, ic.serialize(g), ic.to_dot(g)))
            except Exception as exc:      # judged by check()
                out.append(exc)
            times.append(perf_counter() - t0)
        return out, times

    def check(self, outputs, first: bool) -> tuple[int, list[str]]:
        failed, problems = 0, []
        ic = self.interchange
        for (name, _, source, counts), result in zip(self.docs, outputs):
            if counts is None:      # malformed: only a DrawingError is correct
                failed += not isinstance(result, self.drawing_error)
            elif isinstance(result, Exception):
                failed += 1
            elif first:
                g, text, dot = result
                reparsed = ic.parse(text)
                problems += [f"{name}: {p}" for p in checks.check_roundtrip(
                    counts, source, g, text, dot, reparsed, ic.serialize(reparsed))]
        if first:
            self.first = outputs
        elif [r for r in outputs if isinstance(r, tuple)] != \
                [r for r in self.first if isinstance(r, tuple)]:
            problems.append("outputs differ from the first pass")
        return failed, problems


WORKLOADS = {"certify": Certify, "fuzz-large": FuzzLarge, "roundtrip": Roundtrip}
