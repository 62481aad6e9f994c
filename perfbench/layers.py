"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds public functions of the ``hermitia.*`` modules to
timing wrappers, in every ``hermitia`` module namespace that holds them, so
calls between modules are seen as well as calls from the benchmark.  Each
call is a span: its duration, the part of it that no child span covers (self
time), and a call count, aggregated in memory as each span closes and read
out once at the end by ``metrics``.  ``uninstall`` restores the originals.
Span times are raw seconds, less the time the clock's reference runs took
inside them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) -> span key.  Keys sharing a group also add up into
# the group's time, counted once when spans of the group nest.
TARGETS = {
    ("spectra", "inertia"): "spectra.inertia",
    ("spectra", "inertia_exact"): "spectra.inertia_exact",
    ("spectra", "inertia_float"): "spectra.inertia_float",
    ("spectra", "hermitian_matrix"): "spectra.hermitian_matrix",
    ("spectra", "congruence"): "spectra.congruence",
    ("enumeration", "mixed_representative"): "enumeration.mixed_representative",
    ("enumeration", "connected_underlying"): "enumeration.connected_underlying",
    ("switching_twins", "twin_reduction"): "switching_twins.twin_reduction",
    ("switching_twins", "tree_normalize"): "switching_twins.tree_normalize",
    ("switching_twins", "switching_equivalent_up_to_iso"): "switching_twins.up_to_iso",
    ("classify", "p1_characterize"): "classify.p1_characterize",
    ("classify", "thm11_classify"): "classify.thm11_classify",
    ("classify", "thm12_classify"): "classify.thm12_classify",
    ("classify", "cor39_condition"): "classify.cor39_condition",
    ("classify", "lem38_condition"): "classify.lem38_condition",
    ("classify", "lem310_condition"): "classify.lem310_condition",
    ("classify", "lem311_check"): "classify.lem311_check",
    ("classify", "complete_multipartite_parts"): "classify.complete_multipartite_parts",
    ("graph_core", "parse_graph"): "graph_core.parse_graph",
    ("graph_core", "serialize_graph"): "graph_core.serialize_graph",
    ("graph_core", "induced_subgraph"): "graph_core.induced_subgraph",
    ("graph_core", "components"): "graph_core.components",
    ("graph_core", "cut_vertices"): "graph_core.cut_vertices",
    ("graph_core", "pendant_vertices"): "graph_core.pendant_vertices",
    ("families", "realize"): "families.realize",
    ("families", "gen_c3t"): "families.gen_c3t",
    ("families", "gen_complete_multipartite"): "families.gen_complete_multipartite",
    ("families", "gen_cycle"): "families.gen_cycle",
    ("families", "gen_K_plain"): "families.gen_K_plain",
    ("families", "gen_K_gain"): "families.gen_K_gain",
}

GROUPS = {
    "classify.predicates": (
        "classify.cor39_condition",
        "classify.lem38_condition",
        "classify.lem310_condition",
        "classify.lem311_check",
        "classify.complete_multipartite_parts",
    ),
    "graph_core.structure": (
        "graph_core.components",
        "graph_core.cut_vertices",
        "graph_core.pendant_vertices",
    ),
    "families.constructors": tuple(k for k in TARGETS.values() if k.startswith("families.")),
}

LAYERS = (
    "spectra",
    "enumeration",
    "switching_twins",
    "classify",
    "graph_core",
    "families",
    "suites",
    "cli",
)

LAW_SUITES = (
    "pendant",
    "cutvertex",
    "p1",
    "twin_rank3",
    "thm11",
    "thm12",
    "twins",
    "interlacing",
    "cor39",
    "oracle_agreement",
)

CLI_COMMANDS = ("inertia", "classify", "canon", "twin-reduce", "equiv", "generate")


class Tracer:
    def __init__(self, clock) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [key, start, reference seconds, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)  # outermost spans only
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._group_of = {k: g for g, keys in GROUPS.items() for k in keys}

    # -- spans ----------------------------------------------------------------

    def enter(self, key: str) -> None:
        self.calls[key] += 1
        self._open[key] += 1
        group = self._group_of.get(key)
        if group is not None:
            self._open[group] += 1
        self._stack.append([key, time.perf_counter(), self._clock.stolen, 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        key, start, stolen, child = self._stack.pop()
        duration = end - start - (self._clock.stolen - stolen)
        self.self_time[key] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self._open[key] -= 1
        if not self._open[key]:
            self.total[key] += duration
        group = self._group_of.get(key)
        if group is not None:
            self._open[group] -= 1
            if not self._open[group]:
                self.total[group] += duration
        return duration

    def _wrap(self, key: str, fn):
        tracer = self
        observe = _OBSERVERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def _wrap_stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                tracer.enter("enumeration.stream")
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counts["enumeration.classes"] += 1
                yield item

        return traced

    def _wrap_suite(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(name, *args, **kwargs):
            key = f"suites.{name}"
            tracer.enter(key)
            try:
                report = fn(name, *args, **kwargs)
            finally:
                tracer.exit()
            tracer.counts[f"{key}.checked"] += report.checked
            return report

        return traced

    def _wrap_main(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(argv=None):
            tracer.enter("cli.main")
            try:
                return fn(argv)
            finally:
                duration = tracer.exit()
                if argv:
                    tracer.total[f"cli.{argv[0]}"] += duration

        return traced

    # -- rebinding --------------------------------------------------------------

    def install(self) -> None:
        import hermitia.cli
        import hermitia.enumeration
        import hermitia.suites

        by_id = {}
        for (mod, name), key in TARGETS.items():
            original = getattr(sys.modules[f"hermitia.{mod}"], name)
            by_id[id(original)] = self._wrap(key, original)
        for original, wrap in (
            (hermitia.enumeration.enumerate_switching_classes, self._wrap_stream),
            (hermitia.suites.verify_suite, self._wrap_suite),
            (hermitia.cli.main, self._wrap_main),
        ):
            by_id[id(original)] = wrap(original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hermitia" and not mod_name.startswith("hermitia."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- read-out ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls, total, self_time, counts = self.calls, self.total, self.self_time, self.counts
        out: dict[str, tuple[float, str]] = {}

        def ms(key: str) -> float:
            return total[key] * 1000.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def put(name: str, value: float, unit: str) -> None:
            out[name] = (float(value), unit)

        put("spectra.inertia.calls", calls["spectra.inertia"], "count")
        put("spectra.inertia.self_ms", self_time["spectra.inertia"] * 1000.0, "ms")
        put("spectra.inertia_exact.calls", calls["spectra.inertia_exact"], "count")
        put("spectra.inertia_exact.ms", ms("spectra.inertia_exact"), "ms")
        put(
            "spectra.inertia_exact.mean_order",
            ratio(counts["spectra.inertia_exact.order"], calls["spectra.inertia_exact"]),
            "vertices",
        )
        put("spectra.inertia_float.calls", calls["spectra.inertia_float"], "count")
        put("spectra.inertia_float.ms", ms("spectra.inertia_float"), "ms")
        put("spectra.hermitian_matrix.ms", ms("spectra.hermitian_matrix"), "ms")
        put("spectra.congruence.ms", ms("spectra.congruence"), "ms")

        put("enumeration.classes", counts["enumeration.classes"], "count")
        put("enumeration.stream_ms", ms("enumeration.stream"), "ms")
        mixed = "enumeration.mixed_representative"
        put(f"{mixed}.calls", calls[mixed], "count")
        put(f"{mixed}.ms", ms(mixed), "ms")
        put(f"{mixed}.hit_ratio", ratio(counts[f"{mixed}.hits"], calls[mixed]), "ratio")
        put("enumeration.connected_underlying.ms", ms("enumeration.connected_underlying"), "ms")

        twin = "switching_twins.twin_reduction"
        put(f"{twin}.calls", calls[twin], "count")
        put(f"{twin}.ms", ms(twin), "ms")
        put(f"{twin}.vertex_ratio", ratio(counts[f"{twin}.out"], counts[f"{twin}.in"]), "ratio")
        for key in ("switching_twins.tree_normalize", "switching_twins.up_to_iso"):
            put(f"{key}.calls", calls[key], "count")
            put(f"{key}.ms", ms(key), "ms")

        for name in ("p1_characterize", "thm11_classify", "thm12_classify"):
            key = f"classify.{name}"
            put(f"{key}.calls", calls[key], "count")
            put(f"{key}.ms", ms(key), "ms")
            put(f"{key}.match_ratio", ratio(counts[f"{key}.matches"], calls[key]), "ratio")
        put("classify.predicates.ms", ms("classify.predicates"), "ms")

        put("graph_core.parse_graph.ms", ms("graph_core.parse_graph"), "ms")
        put("graph_core.serialize_graph.ms", ms("graph_core.serialize_graph"), "ms")
        put("graph_core.induced_subgraph.calls", calls["graph_core.induced_subgraph"], "count")
        put("graph_core.induced_subgraph.ms", ms("graph_core.induced_subgraph"), "ms")
        put("graph_core.structure.ms", ms("graph_core.structure"), "ms")

        put("families.realize.ms", ms("families.constructors"), "ms")

        for suite in LAW_SUITES:
            put(f"suites.{suite}.ms", ms(f"suites.{suite}"), "ms")
            put(f"suites.{suite}.checked", counts[f"suites.{suite}.checked"], "count")

        put("cli.main.self_ms", self_time["cli.main"] * 1000.0, "ms")
        for command in CLI_COMMANDS:
            put(f"cli.{command}.ms", ms(f"cli.{command}"), "ms")

        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".")[0] == layer]
            put(f"{layer}.self_ms", sum(self_time[k] for k in keys) * 1000.0, "ms")
            put(f"{layer}.calls", sum(calls[k] for k in keys), "count")
        return out


def _observe_exact(counts, args, result) -> None:
    counts["spectra.inertia_exact.order"] += args[0].n


def _observe_mixed(counts, args, result) -> None:
    if result is not None:
        counts["enumeration.mixed_representative.hits"] += 1


def _observe_twin(counts, args, result) -> None:
    counts["switching_twins.twin_reduction.in"] += args[0].n
    counts["switching_twins.twin_reduction.out"] += result.n


def _observe_match(key: str):
    def observe(counts, args, result) -> None:
        if result is not None and getattr(result, "cases", True):
            counts[f"{key}.matches"] += 1

    return observe


_OBSERVERS = {
    "spectra.inertia_exact": _observe_exact,
    "enumeration.mixed_representative": _observe_mixed,
    "switching_twins.twin_reduction": _observe_twin,
    "classify.p1_characterize": _observe_match("classify.p1_characterize"),
    "classify.thm11_classify": _observe_match("classify.thm11_classify"),
    "classify.thm12_classify": _observe_match("classify.thm12_classify"),
}
