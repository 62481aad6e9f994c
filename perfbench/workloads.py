"""The four seeded workloads.

Each workload builds its inputs from the seed in ``prepare`` (outside any
timed region), then runs one fixed block of operations per ``block`` call.
Every operation is timed on its own, around the call into the package only;
its answer is then checked by ``referee`` outside that timing.  A block
always holds the same mix of operations, so the figures of a run do not
depend on where the run's time limit happens to fall.

Calls go through module attributes (``hermitia.verify_suite``,
``hermitia.cli.main``) looked up at call time, so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import hermitia
import hermitia.cli
import hermitia.suites

import referee


@dataclass
class Tally:
    """What a run did: items completed, the ``perf_counter`` start and end of
    every timed operation (flat), and operations attempted and failed."""

    items: int = 0
    spans: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# -- laws ----------------------------------------------------------------------


class Laws:
    """``verify_suite`` over the enumerated-corpus suites, in seeded order."""

    item = "suite instances checked"
    latency_of = "one verify_suite call"
    FULL = (
        ("pendant", None),
        ("cutvertex", None),
        ("p1", None),
        ("twin_rank3", None),
        ("thm11", None),
        ("thm12", None),
        ("twins", 4),
        ("interlacing", 4),
        ("cor39", None),
        ("oracle_agreement", 5),
    )
    TINY = (
        ("pendant", 3),
        ("cutvertex", 4),
        ("p1", 3),
        ("twin_rank3", 3),
        ("thm11", 4),
        ("thm12", 5),
        ("twins", 3),
        ("interlacing", 3),
    )

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.suites = self.TINY if tiny else self.FULL
        self.setup_order = 5 if tiny else 6

    def prepare(self) -> None:
        hermitia.connected_underlying(self.setup_order)

    def block(self, tally: Tally) -> None:
        order = list(self.suites)
        self.rng.shuffle(order)
        for suite, n in order:
            # cor39's random instances grow and shrink with its seed, which
            # would make a block's cost depend on the seed; it keeps the
            # package default.
            seed = hermitia.suites.DEFAULT_SEED if suite == "cor39" else self.seed
            start = time.perf_counter()
            try:
                report = hermitia.verify_suite(suite, n=n, seed=seed)
            except Exception as exc:  # a crash is a failed operation
                tally.record(False, f"{suite}: {exc!r}")
                continue
            tally.spans.extend((start, time.perf_counter()))
            tally.items += report.checked
            expected = referee.expected_checked(suite, n, seed)
            tally.record(
                not report.failures and report.checked == expected,
                f"{suite}: checked {report.checked} (expected {expected}), "
                f"{len(report.failures)} failures",
            )


# -- enumerate -----------------------------------------------------------------


class Enumerate:
    """Streams ``enumerate_switching_classes`` for four specs, in seeded
    order.  The streams are exhaustive and deterministic, so the seed only
    orders them; fixed limits keep every block's mix of classes the same."""

    item = "classes emitted"
    BATCH = 100
    latency_of = f"a batch of {BATCH} consecutive classes"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.rng = random.Random(seed)
        # Tiny runs take every spec at order 5, where no stream is too short
        # for its limit.
        n, m = (5, 5) if tiny else (7, 6)
        plain_limit, mixed_limit = (400, 200) if tiny else (20000, 6000)
        spec = hermitia.EnumSpec
        self.specs = [
            (spec(n=n, has_cut_vertex=True, no_pendant=True, mixed_only=True), None),
            (spec(n=m, has_pendant=True, mixed_only=True), None),
            (spec(n=m, limit=plain_limit), plain_limit),
            (spec(n=m, mixed_only=True, limit=mixed_limit), mixed_limit),
        ]
        self.setup_order = n

    def prepare(self) -> None:
        hermitia.connected_underlying(self.setup_order)

    def block(self, tally: Tally) -> None:
        specs = list(self.specs)
        self.rng.shuffle(specs)
        for spec, limit in specs:
            if limit is None:
                key = (spec.n, spec.has_cut_vertex, spec.no_pendant, spec.has_pendant, spec.mixed_only)
                expected = referee.EXPECTED_CLASSES[key]
            else:
                expected = limit
            count = wrong = 0
            stream = hermitia.enumerate_switching_classes(spec)
            while True:
                start = time.perf_counter()
                batch = list(itertools.islice(stream, self.BATCH))
                tally.spans.extend((start, time.perf_counter()))
                count += len(batch)
                wrong += sum(g.n != spec.n or (spec.mixed_only and not g.is_mixed) for g in batch)
                if len(batch) < self.BATCH:
                    break
            tally.items += count
            tally.record(
                count == expected and not wrong,
                f"{spec}: {count} classes (expected {expected}), {wrong} malformed",
            )


# -- queries -------------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, density: float) -> dict:
    return {
        (u, v): rng.randrange(4)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }


class _Queries:
    """A closed loop of ``hermitia.cli.main`` calls, one client, on ``.qgg``
    files written before timing starts."""

    item = "queries answered"
    latency_of = "one CLI call"
    setup_order = 0  # the CLI fills no lazy cache

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.workdir = workdir
        self.queries: list = []  # (argv, check(rc, out) -> bool)
        self._files = 0

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.build()
        self.rng.shuffle(self.queries)

    def block(self, tally: Tally) -> None:
        for argv, check in self.queries:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    rc = hermitia.cli.main(argv)
                except (Exception, SystemExit) as exc:  # a crash is a failed query
                    rc = repr(exc)
                tally.spans.extend((start, time.perf_counter()))
            tally.items += 1
            try:
                ok = check(rc, out.getvalue())
            except (ValueError, KeyError, IndexError):
                ok = False
            tally.record(ok, f"{' '.join(argv)} -> {rc}: {out.getvalue()[:200]!r}")

    # -- inputs -----------------------------------------------------------------

    def _write(self, n: int, edges: dict) -> str:
        path = self.workdir / f"g{self._files}.qgg"
        self._files += 1
        path.write_text(referee.write_qgg(n, edges), encoding="ascii")
        return str(path)

    def _generate(self, spec: str) -> tuple[str, int, dict]:
        """A family instance written by ``hermitia generate``, untimed."""
        path = self.workdir / f"g{self._files}.qgg"
        self._files += 1
        with contextlib.redirect_stdout(io.StringIO()):
            rc = hermitia.cli.main(["generate", spec, "-o", str(path)])
        if rc != 0:
            raise RuntimeError(f"generate {spec} exited {rc}")
        n, edges = referee.read_qgg(path.read_text(encoding="ascii"))
        return str(path), n, edges

    def add_inertia(self, path: str, n: int, edges: dict, closed_form=None) -> None:
        expected = referee.numpy_inertia(n, edges)

        def check(rc, out) -> bool:
            got = referee.parse_inertia_line(out)
            return rc == 0 and got == expected and closed_form in (None, got)

        self.queries.append((["inertia", path], check))

    def add_classify(self, path: str, n: int, edges: dict, required_tag=None) -> None:
        p = referee.numpy_inertia(n, edges)[0]
        facts = referee.shape(n, edges)

        def check(rc, out) -> bool:
            lines = out.strip().splitlines()
            tags = [] if lines == ["no case matched"] else [line.split()[0] for line in lines]
            if rc != (0 if tags else 1) or (required_tag and required_tag not in tags):
                return False
            p1 = any(t.startswith("p1_") for t in tags)
            thm11 = "thm11" in tags
            thm12 = any(t.startswith("thm12_") for t in tags)
            if (p1 and p != 1) or ((thm11 or thm12) and p != 2):
                return False
            # Within the characterizations' scope a miss is also wrong.
            if not facts["mixed"]:
                return True
            if p == 1 and not p1:
                return False
            if facts["connected"] and facts["pendant"] and p == 2 and not thm11:
                return False
            in_thm12 = facts["connected"] and not facts["pendant"] and facts["cut_vertex"]
            return not (in_thm12 and p == 2 and not thm12)

        self.queries.append((["classify", path], check))

    def add_canon(self, path: str, n: int, edges: dict) -> None:
        def check(rc, out) -> bool:
            out_n, out_edges = referee.read_qgg(out)
            return rc == 0 and out_n == n and referee.switching_to(n, edges, out_edges)

        self.queries.append((["canon", path], check))

    def add_twin_reduce(self, path: str, n: int, edges: dict) -> None:
        p, neg, _ = referee.numpy_inertia(n, edges)

        def check(rc, out) -> bool:
            out_n, out_edges = referee.read_qgg(out)
            got = referee.numpy_inertia(out_n, out_edges)
            return rc == 0 and out_n <= n and got[:2] == (p, neg)

        self.queries.append((["twin-reduce", path], check))

    def add_equiv(self, path: str, n: int, edges: dict, other: dict, equivalent: bool) -> None:
        second = self._write(n, other)
        want = (0, "equivalent") if equivalent else (1, "not equivalent")
        self.queries.append(
            (["equiv", path, second], lambda rc, out: (rc, out.strip()) == want)
        )

    def add_iso(self, n: int, edges: dict, other: dict, equivalent: bool) -> None:
        first, second = self._write(n, edges), self._write(n, other)

        def check(rc, out) -> bool:
            if not equivalent:
                return rc == 1 and out.startswith("not equivalent")
            return rc == 0 and referee.replays(edges, other, json.loads(out))

        self.queries.append((["equiv", "--iso", first, second], check))

    def partner(self, n: int, edges: dict, equivalent: bool, relabel: bool = False):
        """A graph equivalent to ``edges`` (by a random switch, optionally a
        random relabeling first, and a converse half of the time), or one
        that differs in one gain and in spectrum, which makes it inequivalent
        under every relabeling, switch and converse.  None when no single
        gain change moves the spectrum, as on a forest."""
        rng = self.rng
        if equivalent:
            perm = list(range(n))
            if relabel:
                rng.shuffle(perm)
            other = referee.switch(referee.relabel(edges, perm), [rng.randrange(4) for _ in range(n)])
            return referee.converse(other) if rng.random() < 0.5 else other
        keys = sorted(edges)
        rng.shuffle(keys)
        for key in keys:
            for delta in (1, 2, 3):
                other = dict(edges)
                other[key] = (edges[key] + delta) % 4
                if referee.spectra_differ(n, edges, other):
                    return other
        return None


class QueriesRandom(_Queries):
    """Random gain graphs of order 8-24, nearly twin-free."""

    # Orders and densities are stratified, so every block has the same
    # spread of matrix sizes and only the edges and gains are random.
    ORDERS = range(8, 25)
    DENSITIES = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
    MIX = {"inertia": 600, "classify": 100, "canon": 100, "twin-reduce": 100, "equiv": 100}

    def build(self) -> None:
        scale = 25 if self.tiny else 1
        serial = 0
        for kind, count in self.MIX.items():
            for i in range(count // scale):
                n = self.ORDERS[serial % len(self.ORDERS)] // (2 if self.tiny else 1)
                density = self.DENSITIES[serial % len(self.DENSITIES)]
                serial += 1
                equivalent = i % 2 == 0
                while True:
                    edges = _random_graph(self.rng, n, density)
                    other = self.partner(n, edges, equivalent) if kind == "equiv" else None
                    if edges and (kind != "equiv" or other is not None):
                        break
                path = self._write(n, edges)
                if kind == "inertia":
                    self.add_inertia(path, n, edges)
                elif kind == "classify":
                    self.add_classify(path, n, edges)
                elif kind == "canon":
                    self.add_canon(path, n, edges)
                elif kind == "twin-reduce":
                    self.add_twin_reduce(path, n, edges)
                else:
                    self.add_equiv(path, n, edges, other, equivalent)


class QueriesFamilies(_Queries):
    """Blown-up family instances built with ``generate``: twin-rich inputs
    that hit the classifiers, plus ``equiv --iso`` on complete graphs."""

    KINDS = ("c3t", "multipartite", "k_plain", "k_gain", "coalesce")
    MIX = {"inertia": 550, "classify": 200, "canon": 80, "twin-reduce": 80, "equiv": 60}
    # equiv --iso: inequivalent complete graphs K6 and K7, and equivalent
    # pairs of small family instances whose witnesses are replayed.
    ISO = {6: 20, 7: 2, "small": 8}

    def build(self) -> None:
        scale = 25 if self.tiny else 1
        serial = 0
        for kind, count in self.MIX.items():
            for i in range(count // scale):
                family = self.KINDS[serial % len(self.KINDS)]
                serial += 1
                equivalent = i % 2 == 0
                while True:
                    spec, closed_form, tag = self._spec(family)
                    path, n, edges = self._generate(spec)
                    other = self.partner(n, edges, equivalent) if kind == "equiv" else None
                    if kind != "equiv" or other is not None:
                        break
                if kind == "inertia":
                    self.add_inertia(path, n, edges, closed_form)
                elif kind == "classify":
                    self.add_classify(path, n, edges, tag)
                elif kind == "canon":
                    self.add_canon(path, n, edges)
                elif kind == "twin-reduce":
                    self.add_twin_reduce(path, n, edges)
                else:
                    self.add_equiv(path, n, edges, other, equivalent)
        complete_orders = (4, 5) if self.tiny else (6, 7)
        for order, count in zip(complete_orders, (self.ISO[6], self.ISO[7])):
            for _ in range(max(1, count // scale)):
                other = None
                while other is None:
                    edges = _random_graph(self.rng, order, 1.0)
                    other = self.partner(order, edges, False)
                self.add_iso(order, edges, other, False)
        for _ in range(max(1, self.ISO["small"] // scale)):
            _, n, edges = self._generate(self._small_spec())
            self.add_iso(n, edges, self.partner(n, edges, True, relabel=True), True)

    def _spec(self, family: str) -> tuple[str, object, object]:
        """A family spec, its closed-form inertia if it has one, and the
        classifier tag it must receive if there is one."""
        rng = self.rng
        top = 8 if self.tiny else 24
        if family == "c3t":
            while True:
                sizes = [rng.randint(1, 12) for _ in range(3)]
                if sum(sizes) <= top:
                    break
            n = sum(sizes)
            return "c3t:" + _csv(sizes), (1, 1, n - 2), "p1_c3t"
        if family == "multipartite":
            while True:
                sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
                if sum(sizes) <= top - 4:
                    break
            k, n = len(sizes), sum(sizes)
            return "multipartite:" + _csv(sizes), (1, k - 1, n - k), "p1_multipartite"
        q = [rng.randint(1, 3) for _ in range(rng.randint(2, 3 if self.tiny else 4))]
        parts = [rng.randint(1, 3) for _ in range(rng.randint(2, 3 if self.tiny else 5))]
        k = len(parts)
        if family == "k_plain":
            return f"K:q={_csv(q)};n={_csv(parts)};p={rng.randint(1, k)}", None, None
        if family == "k_gain":
            counts = [0, 0, 0]
            for _ in range(rng.randint(1, k)):
                counts[rng.randrange(3)] += 1
            a, b, c = counts
            return f"K:q={_csv(q)};n={_csv(parts)};a={a},b={b},c={c},d=0", None, None
        return (
            f"coalesce:({self._small_spec()})@0+({self._small_spec()})@{rng.randint(0, 1)}",
            None,
            None,
        )

    def _small_spec(self) -> str:
        rng = self.rng
        if rng.random() < 0.5:
            return "c3t:" + _csv([rng.randint(1, 3) for _ in range(3)])
        return "multipartite:" + _csv([rng.randint(1, 3) for _ in range(rng.randint(2, 3))])


def _csv(values) -> str:
    return ",".join(map(str, values))


WORKLOADS = {
    "laws": Laws,
    "enumerate": Enumerate,
    "queries-random": QueriesRandom,
    "queries-families": QueriesFamilies,
}
