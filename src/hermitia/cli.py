"""Command-line interface.

Exit codes: 0 on success or an affirmative query, 1 on suite failure or a
negative equiv/classify query, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .classify import ClassificationResult, p1_characterize, thm11_classify, thm12_classify
from .enumeration import EnumSpec, count_switching_classes, enumerate_switching_classes
from .families import parse_family_spec, realize
from .graph_core import (
    QuartGainGraph,
    cut_vertices,
    is_connected,
    parse_graph,
    pendant_vertices,
    serialize_graph,
)
from .spectra import inertia
from .suites import SUITE_NAMES, verify_all, verify_suite
from .switching_twins import (
    switching_equivalent,
    switching_equivalent_up_to_iso,
    tree_normalize,
    twin_reduction,
)


def _load(path: str) -> QuartGainGraph:
    with open(path, "r", encoding="ascii") as handle:
        return parse_graph(handle.read())


def _cmd_inertia(args) -> int:
    triple = inertia(_load(args.file))
    print(f"p={triple.p} n={triple.n_neg} eta={triple.eta}")
    return 0


def _aggregate_classification(graph: QuartGainGraph) -> ClassificationResult:
    """Every characterization that applies to the graph, merged."""
    cases: list[str] = []
    params: dict = {}
    witnesses: dict = {}
    tag = p1_characterize(graph)
    if tag is not None:
        cases.append(f"p1_{tag}")
        params[f"p1_{tag}"] = {}
    result = None
    if is_connected(graph):
        if pendant_vertices(graph):
            result = thm11_classify(graph)
        elif cut_vertices(graph):
            result = thm12_classify(graph)
    if result is not None:
        cases.extend(result.cases)
        params.update(result.params)
        witnesses.update(result.witnesses)
    return ClassificationResult(tuple(cases), params, witnesses)


def _cmd_classify(args) -> int:
    graph = _load(args.file)
    result = _aggregate_classification(graph)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    elif result.cases:
        for tag in result.cases:
            detail = result.params.get(tag) or {}
            suffix = f" {detail}" if detail else ""
            print(f"{tag}{suffix}")
    else:
        print("no case matched")
    return 0 if result.cases else 1


def _cmd_generate(args) -> int:
    spec = parse_family_spec(args.spec)
    text = serialize_graph(realize(spec))
    if args.output:
        with open(args.output, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_canon(args) -> int:
    normal = tree_normalize(_load(args.file)).graph
    sys.stdout.write(serialize_graph(normal))
    return 0


def _cmd_twin_reduce(args) -> int:
    sys.stdout.write(serialize_graph(twin_reduction(_load(args.file))))
    return 0


def _cmd_equiv(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    if args.iso:
        witness = switching_equivalent_up_to_iso(a, b)
        if witness is None:
            print("not equivalent (up to isomorphism)")
            return 1
        print(
            json.dumps(
                {
                    "perm": list(witness.perm),
                    "theta": list(witness.theta),
                    "converse": witness.took_converse,
                }
            )
        )
        return 0
    if switching_equivalent(a, b):
        print("equivalent")
        return 0
    print("not equivalent")
    return 1


def _cmd_enumerate(args) -> int:
    spec = EnumSpec(
        n=args.n,
        has_cut_vertex=args.cut_vertex,
        no_pendant=args.no_pendant,
        has_pendant=args.pendant,
        mixed_only=args.mixed_only,
        limit=args.limit,
    )
    if args.count_only:
        print(count_switching_classes(spec))
        return 0
    for graph in enumerate_switching_classes(spec):
        sys.stdout.write(serialize_graph(graph))
        sys.stdout.write("\n")
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        reports = verify_all(n=args.n, seed=args.seed)
    elif args.suite:
        reports = [verify_suite(args.suite, n=args.n, seed=args.seed)]
    else:
        print("verify needs --suite <name> or --all", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(
                f"{report.suite}: {status} "
                f"(checked={report.checked}, failures={len(report.failures)}, "
                f"millis={report.millis})"
            )
            for graph, expected, got in report.failures[:10]:
                print(f"  expected {expected}, got {got}: {graph}")
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="hermitia",
        description="Exact spectral toolkit for mixed graphs and fourth-root gain graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inertia", help="print p/n/eta of a .qgg graph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_inertia)

    p = sub.add_parser("classify", help="match a graph against the characterizations")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="build a family instance, e.g. c3t:2,1,1")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("canon", help="print the tree-normalized form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("twin-reduce", help="print the twin reduction")
    p.add_argument("file")
    p.set_defaults(func=_cmd_twin_reduce)

    p = sub.add_parser("equiv", help="test switching equivalence of two graphs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--iso", action="store_true", help="search up to isomorphism")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("enumerate", help="stream switching classes of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cut-vertex", action="store_true")
    p.add_argument("--no-pendant", action="store_true")
    p.add_argument("--pendant", action="store_true")
    p.add_argument("--mixed-only", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the law verification suites")
    p.add_argument("--suite", choices=SUITE_NAMES)
    p.add_argument("--all", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
