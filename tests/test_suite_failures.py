"""Every failure report of the law suites fires when its law is broken.

On correct code no ``report.record`` call in ``suites`` runs, so a suite
whose comparison could never fail would still pass.  Here the inertia
functions the suites call return (p + 1, n, eta - 1) on a third of their
inputs, picked by a CRC-32 of the input's content so that every run picks
the same ones; cycle signatures are bent the same way, and
``lem311_check``, which reads no inertia through ``suites``, reports a
failed conclusion.  Every suite must then report failures, and a line
trace of ``suites`` must show every ``report.record`` call run.
"""

from __future__ import annotations

import ast
import sys
import zlib
from pathlib import Path

import pytest

from hermitia import SUITE_NAMES, InertiaTriple, suites, verify_suite
from hermitia.suites import DEFAULT_SEED

# Small orders whose corpora reach every record call.  thm12 has no
# pendant-free class with a cut vertex below order 5.  At order 4 the bends
# fail only the (rank+2) check of cutvertex; at order 5 few classes reach
# its (rank+0) check, and the picked third bends some of them.
SMALL_N = {
    "sylvester": 4,
    "pendant": 4,
    "interlacing": 4,
    "cutvertex": 5,
    "cycle_nullity": 6,
    "p1": 4,
    "twins": 4,
    "twin_rank3": 4,
    "thm11": 4,
    "thm12": 5,
    "oracle_agreement": 4,
}


def _picked(key: object) -> bool:
    return zlib.crc32(repr(key).encode()) % 3 == 0


def _bend(triple: InertiaTriple) -> InertiaTriple:
    return InertiaTriple(triple.p + 1, triple.n_neg, triple.eta - 1)


def record_lines() -> set[int]:
    """Line of each ``report.record(...)`` call in ``suites``."""
    tree = ast.parse(Path(suites.__file__).read_text())
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "record"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "report"
    }


@pytest.fixture(scope="module")
def broken_run():
    """Each suite's report with the laws bent, and the lines of ``suites``
    that ran."""
    inertia, inertia_exact, cycle_signature = (
        suites.inertia,
        suites.inertia_exact,
        suites.cycle_signature,
    )

    def bent_inertia(graph):
        got = inertia(graph)
        return _bend(got) if _picked(graph.edges) else got

    def bent_inertia_exact(matrix):
        got = inertia_exact(matrix)
        return _bend(got) if _picked((matrix.re, matrix.im)) else got

    def bent_cycle_signature(graph, cycle):
        got = cycle_signature(graph, cycle)
        return got + 1 if _picked((graph.edges, cycle)) else got

    source = suites.__file__
    ran: set[int] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename == source else None

    reports = {}
    previous = sys.gettrace()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "inertia", bent_inertia)
        patch.setattr(suites, "inertia_exact", bent_inertia_exact)
        patch.setattr(suites, "cycle_signature", bent_cycle_signature)
        patch.setattr(suites, "lem311_check", lambda f1, f2, v: False)
        sys.settrace(trace_calls)
        try:
            for name in SUITE_NAMES:
                reports[name] = verify_suite(name, n=SMALL_N.get(name), seed=DEFAULT_SEED)
        finally:
            sys.settrace(previous)
    return reports, ran


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_reports_a_broken_law(broken_run, name):
    reports, _ = broken_run
    assert reports[name].failures


def test_every_record_call_runs(broken_run):
    _, ran = broken_run
    lines = record_lines()
    assert len(lines) == Path(suites.__file__).read_text().count("report.record(")
    assert sorted(lines - ran) == []

