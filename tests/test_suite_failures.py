"""Every check of the law suites fails when its law is broken.

On correct code every check a suite yields passes, so a suite whose
comparison could never fail would still pass.  Here the inertia functions
the suites call return (p + 1, n, eta - 1) on a third of their inputs,
picked by a CRC-32 of the input's content so that every run picks the same
ones; cycle signatures are bent the same way, and ``lem311_check``, which
reads no inertia through ``suites``, reports a failed conclusion.  Every
suite must then report failures, every line of ``suites`` that yields a
check must yield a failing one, and ``verify_suite`` must count every check
and record exactly the failing ones.
"""

from __future__ import annotations

import ast
import zlib
from pathlib import Path

import pytest

from hermitia import SUITE_NAMES, InertiaTriple, suites, verify_suite
from hermitia.suites import DEFAULT_SEED

# Small orders whose corpora reach every check site.  thm12 has no
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


# Lines that yield a check, per function of ``suites``, so that a check
# site deleted from a suite fails the test as one that can never fail does.
CHECK_SITES = {
    "_suite_sylvester": 1,
    "_suite_pendant": 1,
    "_suite_interlacing": 1,
    "_suite_cutvertex": 3,
    "_suite_cycle_nullity": 2,
    "_suite_p1": 1,
    "_suite_twins": 2,
    "_suite_twin_rank3": 1,
    "_suite_c3t_rank": 1,
    "_suite_coalescence_bounds": 2,
    "_suite_cor39": 1,
    "_suite_lem38": 1,
    "_suite_lem310": 1,
    "_suite_lem311": 0,  # yields from _check_lem311_instance
    "_check_lem311_instance": 1,
    "_suite_thm11": 1,
    "_suite_thm12": 1,
    "_suite_oracle_agreement": 1,
}


def check_lines() -> dict[str, set[int]]:
    """Lines holding a ``yield`` in each function of ``suites`` that returns
    ``Iterator[Check]``; the others, such as ``_apex_instances``, yield
    instances, not checks."""
    tree = ast.parse(Path(suites.__file__).read_text())
    return {
        func.name: {node.lineno for node in ast.walk(func) if isinstance(node, ast.Yield)}
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        and func.returns is not None
        and ast.unparse(func.returns) == "Iterator[Check]"
    }


def _failing_lines(checks) -> tuple[int, list[int]]:
    """The number of checks ``checks`` yields, and the ``suites`` line that
    yielded each failing one: that of the innermost suspended generator."""
    count, lines = 0, []
    for ok, *_ in checks:
        count += 1
        if not ok:
            inner = checks
            while inner.gi_yieldfrom is not None:
                inner = inner.gi_yieldfrom
            lines.append(inner.gi_frame.f_lineno)
    return count, lines


@pytest.fixture(scope="module")
def broken_run():
    """With the laws bent, each suite's report from ``verify_suite`` and,
    from iterating the suite itself, its number of checks and the line of
    each failing one."""
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

    reports, runs = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "inertia", bent_inertia)
        patch.setattr(suites, "inertia_exact", bent_inertia_exact)
        patch.setattr(suites, "cycle_signature", bent_cycle_signature)
        patch.setattr(suites, "lem311_check", lambda f1, f2, v: False)
        for name in SUITE_NAMES:
            n = SMALL_N.get(name)
            reports[name] = verify_suite(name, n=n, seed=DEFAULT_SEED)
            runs[name] = _failing_lines(suites._SUITES[name].run(n, DEFAULT_SEED))
    return reports, runs


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_reports_a_broken_law(broken_run, name):
    reports, _ = broken_run
    assert reports[name].failures


def test_every_check_site_fails(broken_run):
    reports, runs = broken_run
    for name, (count, failing) in runs.items():
        assert (reports[name].checked, len(reports[name].failures)) == (count, len(failing)), name
    sites = check_lines()
    assert {name: len(lines) for name, lines in sites.items()} == CHECK_SITES
    every_site = set().union(*sites.values())
    failed = {line for _, failing in runs.values() for line in failing}
    assert failed <= every_site
    assert sorted(every_site - failed) == []

