import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hermitia import UNITS, QuartGainGraph, serialize_graph
from hermitia.cli import build_parser, main
from hermitia.families import MAX_COALESCE_DEPTH

from conftest import timed_under_alarm

BOWTIE = "n 5\nU 0 1\nU 0 2\nU 1 2\nU 0 3\nU 0 4\nU 3 4\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_inertia_command(tmp_path, capsys):
    path = _write(tmp_path, "bowtie.qgg", BOWTIE)
    assert main(["inertia", path]) == 0
    assert capsys.readouterr().out.strip() == "p=2 n=3 eta=0"


def test_shared_parser_leaks_nothing_between_calls(tmp_path, capsys):
    # One parser serves every main call; a flag such as --json must not carry
    # over into the next call's namespace.
    path = _write(tmp_path, "bowtie.qgg", BOWTIE)
    calls = [["classify", path, "--json"], ["inertia", path], ["classify", path]]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    single = []
    for argv in calls:
        build_parser.cache_clear()
        single.append(run(argv))
    assert build_parser() is build_parser()
    assert [run(argv) for argv in calls] == single
    assert single[1] == (0, "p=2 n=3 eta=0\n")
    assert json.loads(single[0][1])["cases"] and not single[2][1].startswith("{")


def test_equiv_command(tmp_path, capsys):
    arc = _write(tmp_path, "arc.qgg", "n 2\nA 0 1\n")
    edge = _write(tmp_path, "edge.qgg", "n 2\nU 0 1\n")
    assert main(["equiv", arc, edge]) == 0
    odd = _write(tmp_path, "odd.qgg", "n 3\nA 0 1\nU 1 2\nU 0 2\n")
    k3 = _write(tmp_path, "k3.qgg", "n 3\nU 0 1\nU 0 2\nU 1 2\n")
    assert main(["equiv", odd, k3]) == 1
    # Up to isomorphism: arc placed elsewhere.
    arc2 = _write(tmp_path, "arc2.qgg", "n 2\nA 1 0\n")
    assert main(["equiv", arc2, edge, "--iso"]) == 0
    capsys.readouterr()


def test_generate_and_classify(tmp_path, capsys):
    out = str(tmp_path / "fig3.qgg")
    assert main(["generate", "K:q=3,2;n=3,1;a=1,b=1,c=0,d=0", "-o", out]) == 0
    assert main(["classify", out, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cases"] == ["thm12_iii"]
    assert data["witness"] is not None


@pytest.mark.parametrize(
    "text, printed",
    [
        ("n 3\nA 0 1\nA 1 2\nA 2 0\n", "p1_c3t"),
        ("n 3\nU 0 2\nU 1 2\n", "p1_multipartite"),  # hermitia generate multipartite:2,1
        (
            "n 4\nU 0 1\nU 1 2\nU 2 3\n",
            "thm11 {'pendant': 0, 'star_center': 1, 'core_vertices': [2, 3], 'core_tag': 'multipartite'}",
        ),
    ],
    ids=["directed-triangle", "multipartite-2-1", "path-4"],
)
def test_classify_p1_and_pendant_paths(tmp_path, capsys, text, printed):
    path = _write(tmp_path, "g.qgg", text)
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out == printed + "\n"
    assert main(["classify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cases"] == [printed.split()[0]]
    assert data["witness"] is None


def test_classify_negative_exit_code(tmp_path, capsys):
    # p = 3 instance: no characterization matches.
    path = _write(
        tmp_path,
        "cube.qgg",
        "n 8\nU 0 1\nU 1 2\nU 2 3\nU 0 3\nU 4 5\nU 5 6\nU 6 7\nU 4 7\nU 0 4\nU 1 5\nU 2 6\nU 3 7\n",
    )
    assert main(["classify", path]) == 1
    capsys.readouterr()


def test_generate_to_stdout(capsys):
    assert main(["generate", "c3t:1,1,1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n 3\n")


def test_canon_and_twin_reduce(tmp_path, capsys):
    arc = _write(tmp_path, "arc.qgg", "n 2\nA 0 1\n")
    assert main(["canon", arc]) == 0
    assert capsys.readouterr().out == "n 2\nU 0 1\n"
    c3t = _write(tmp_path, "c3t.qgg", "n 4\nA 0 2\nA 1 2\nA 2 3\nA 3 0\nA 3 1\n")
    assert main(["twin-reduce", c3t]) == 0
    reduced = capsys.readouterr().out
    assert reduced.startswith("n 3\n")


def test_enumerate_command(capsys):
    assert main(["enumerate", "--n", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    # The counts the installed-script CI step pins.
    assert main(["enumerate", "--n", "4", "--count-only"]) == 0
    assert capsys.readouterr().out == "90\n"
    assert main(["enumerate", "--n", "5", "--mixed-only", "--count-only"]) == 0
    assert capsys.readouterr().out == "5990\n"
    assert main(["enumerate", "--n", "2"]) == 0
    assert "U 0 1" in capsys.readouterr().out


def test_enumerate_limit_zero_and_negative(capsys):
    assert main(["enumerate", "--n", "3", "--limit", "0", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["enumerate", "--n", "3", "--limit", "0"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["enumerate", "--n", "3", "--limit", "-5", "--count-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: limit must be >= 0, got -5\n"


@pytest.mark.parametrize(
    "filters, searches", [([], 1611636134), (["--no-pendant"], 1609531005)], ids=["all", "no-pendant"]
)
def test_enumerate_mixed_count_only_rejects_order_7_before_searching(filters, searches, capsys):
    # Order 7 would hand over 1.6e9 gain lists to the least-switch search,
    # about two hours at the order-6 rate.
    args = ["enumerate", "--n", "7", "--mixed-only", *filters, "--count-only"]
    code, _ = timed_under_alarm(lambda: main(args), " ".join(args))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: counting mixed classes needs {searches} switch searches, above the bound of 10000000\n"
    )


def test_enumerate_mixed_count_only_at_order_7_with_a_limit(capsys):
    # The first classes' 3^k mixed gain lists reach the limit, so the bound
    # counts only the searches before them.
    args = ["enumerate", "--n", "7", "--mixed-only", "--count-only", "--limit", "5"]
    code, _ = timed_under_alarm(lambda: main(args), " ".join(args))
    assert code == 0
    assert capsys.readouterr().out == "5\n"


def test_verify_command(capsys):
    assert main(["verify", "--suite", "c3t_rank"]) == 0
    out = capsys.readouterr().out
    assert "c3t_rank: PASS" in out


def test_verify_json(capsys):
    assert main(["verify", "--suite", "cycle_nullity", "--n", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["suite"] == "cycle_nullity"
    assert payload[0]["failures"] == []
    assert payload[0]["checked"] > 0


def test_usage_errors(tmp_path, capsys):
    bad = _write(tmp_path, "bad.qgg", "n 2\nU 0 5\n")
    assert main(["inertia", bad]) == 2
    assert main(["generate", "c3t:1,1"]) == 2
    assert main(["inertia", str(tmp_path / "missing.qgg")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_oversized_header_exits_2_fast(tmp_path, capsys):
    # A ten-byte file must not make the parser allocate a billion vertices.
    huge = _write(tmp_path, "huge.qgg", "n 1000000000\n")
    start = time.perf_counter()
    assert main(["inertia", huge]) == 2
    assert time.perf_counter() - start < 1.0
    assert "maximum order" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["star:1025", "multipartite:513,513"])
def test_generate_above_max_order_exits_2(spec, capsys):
    assert main(["generate", spec]) == 2
    assert "maximum order" in capsys.readouterr().err


def test_generate_at_max_order(capsys):
    assert main(["generate", "star:1024"]) == 0
    assert capsys.readouterr().out.startswith("n 1024\n")


def _nested_coalesce(depth: int) -> str:
    spec = "star:2"
    for _ in range(depth):
        spec = f"coalesce:({spec})@0+(star:2)@1"
    return spec


def test_generate_deep_coalesce_exits_2(capsys):
    # Depth 400 is a 9.6 kB spec of order 402; past about 330 levels the
    # recursive parser used to end in RecursionError, a traceback and exit 1.
    assert main(["generate", _nested_coalesce(400)]) == 2
    assert capsys.readouterr().err.startswith("error: coalesce specs nest at most")


def test_generate_at_max_coalesce_depth(capsys):
    assert main(["generate", _nested_coalesce(MAX_COALESCE_DEPTH)]) == 0
    assert capsys.readouterr().out.startswith(f"n {MAX_COALESCE_DEPTH + 2}\n")


def test_verify_requires_suite_or_all(capsys):
    assert main(["verify"]) == 2
    capsys.readouterr()


def test_seed_environment_override(monkeypatch, capsys):
    from hermitia import verify_suite

    monkeypatch.setenv("HERMITIA_SEED", "31337")
    report = verify_suite("sylvester", n=4)
    assert report.passed
    # Explicit argument beats the environment.
    report = verify_suite("sylvester", n=4, seed=1)
    assert report.passed


def test_p1_suite_streams_its_corpus():
    # The p1 suite walks its 6,989 instances at n = 5 without holding them.
    # Holding every class in a list peaks at 13.9 MB; the stream stays near
    # 0.1 MB (free lists and the enumerator's cache of underlying graphs).
    from hermitia import verify_suite

    gc.collect()
    tracemalloc.start()
    try:
        report = verify_suite("p1", n=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 6989
    assert peak < 500_000


@pytest.mark.parametrize(
    "suite, predicate, checked",
    [("cor39", "cor39_condition", 133), ("lem38", "lem38_condition", 269), ("lem310", "lem310_condition", 269)],
)
def test_apex_sweep_calls_its_predicate_through_the_module(monkeypatch, suite, predicate, checked):
    # A tracing wrapper rebinds the module attribute; each sweep must look
    # its predicate up at call time, so every call goes through the wrapper.
    import hermitia.suites as suites_module
    from hermitia import verify_suite

    original, calls = getattr(suites_module, predicate), []
    monkeypatch.setattr(suites_module, predicate, lambda *args: calls.append(args) or original(*args))
    report = verify_suite(suite)
    assert report.passed and report.checked == checked
    assert len(calls) == checked


def test_import_limits_blas_threads_unless_already_set():
    # numpy reads these when first imported; hermitia sets them first, and a
    # value the caller already set wins.
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    probe = f"import os, hermitia; print(*(os.environ[name] for name in {names!r}))"
    env = {key: value for key, value in os.environ.items() if key not in names}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    def thread_counts(env):
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        return done.stdout.split()

    assert thread_counts(env) == ["1", "1", "1"]
    assert thread_counts({**env, "OPENBLAS_NUM_THREADS": "2"}) == ["2", "1", "1"]


# Imports the package and the CLI, then runs ``cli.main`` on each argument
# list of argv[1], each of which must exit 0 or 1; the last line printed
# says, after the imports and after each call, whether numpy was loaded.
_NUMPY_PROBE = """
import json, sys
import hermitia, hermitia.cli
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert hermitia.cli.main(argv) in (0, 1), argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def _numpy_loaded_after(cwd, *commands):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_numpy_loads_only_on_a_float_path(tmp_path):
    # numpy serves only the float side: the certificate for components of
    # order CERT_ORDER and up with more edges than vertices, equiv --iso's
    # walk values and the float suites.  Every other call starts without it.
    rng = random.Random(20)
    for n in (15, 20):
        edges = [(u, v, rng.choice(UNITS)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        _write(tmp_path, f"dense{n}.qgg", serialize_graph(QuartGainGraph(n, edges)))
    without = [
        ["generate", "cycle:1024", "-o", "cycle.qgg"],
        ["generate", "K:q=2,1;n=1,2;a=1,b=1,c=0,d=0", "-o", "k.qgg"],
        ["inertia", "dense15.qgg"],
        ["inertia", "cycle.qgg"],
        ["classify", "k.qgg"],
        ["canon", "dense15.qgg"],
        ["twin-reduce", "k.qgg"],
        ["equiv", "dense15.qgg", "k.qgg"],
        ["enumerate", "--n", "4"],
    ]
    assert _numpy_loaded_after(tmp_path, *without) == [False] * (len(without) + 1)
    for argv in (
        ["inertia", "dense20.qgg"],
        ["equiv", "--iso", "k.qgg", "k.qgg"],
        ["verify", "--suite", "oracle_agreement", "--n", "3"],
    ):
        assert _numpy_loaded_after(tmp_path, argv) == [False, True], argv


def test_equiv_iso_negative(tmp_path, capsys):
    odd = _write(tmp_path, "odd2.qgg", "n 3\nA 0 1\nU 1 2\nU 0 2\n")
    even = _write(tmp_path, "even2.qgg", "n 3\nA 0 1\nA 2 1\nU 0 2\n")
    assert main(["equiv", odd, even, "--iso"]) == 1
    capsys.readouterr()


def test_unknown_suite_rejected():
    import pytest as _pytest

    from hermitia import verify_suite

    with _pytest.raises(ValueError, match="unknown suite"):
        verify_suite("does_not_exist")


def test_verify_reports_failures(monkeypatch, capsys):
    import hermitia.suites as suites_module

    def broken(n, seed):
        yield False, "n 1", "expected-thing", "got-thing"

    suite = suites_module._SUITES["c3t_rank"]._replace(run=broken)
    monkeypatch.setitem(suites_module._SUITES, "c3t_rank", suite)
    assert main(["verify", "--suite", "c3t_rank"]) == 1
    out = capsys.readouterr().out
    assert "c3t_rank: FAIL" in out
    assert "expected expected-thing, got got-thing" in out


def test_verify_suite_rejects_a_non_integer_n():
    from hermitia import verify_all, verify_suite

    for n in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            verify_suite("p1", n=n)
        with pytest.raises(ValueError, match="n must be an integer"):
            verify_all(n=n)


@pytest.mark.parametrize(
    "suite, n, message",
    [
        ("p1", -1, "n must be >= 1, got -1"),
        ("pendant", -2, "n must be >= 1, got -2"),
        ("thm12", 0, "n must be >= 1, got 0"),
        ("sylvester", 13, "suite 'sylvester' needs n <= 12, got 13"),
        ("cycle_nullity", 13, "suite 'cycle_nullity' needs n <= 12, got 13"),
        ("oracle_agreement", 12, "suite 'oracle_agreement' needs n <= 10, got 12"),
    ],
)
def test_verify_out_of_range_n(suite, n, message, capsys):
    from hermitia import verify_suite

    with pytest.raises(ValueError, match=message):
        verify_suite(suite, n=n)
    assert main(["verify", "--suite", suite, "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_all_rejects_oversized_n_before_running(capsys):
    # Without the bound, --all would go on to enumerate every class up to
    # order 7 before the order-13 corpus failed.
    code, elapsed = timed_under_alarm(lambda: main(["verify", "--all", "--n", "13"]), "verify --all --n 13")
    assert code == 2
    assert elapsed < 1.0
    assert "needs n <= 12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--suite", "pendant"], "suite 'pendant' needs n <= 6, got 8"),
        (["--suite", "thm11"], "suite 'thm11' needs n <= 7, got 8"),
        (["--all"], "suite 'pendant' needs n <= 6, got 8"),
    ],
    ids=["pendant", "thm11", "all"],
)
def test_verify_rejects_order_past_enumeration_cap_before_running(args, message, capsys):
    # The enumerated corpora stream every order up to n, and the stream only
    # rejects order 8 after all of order 7; thm11 would run for minutes first.
    code, elapsed = timed_under_alarm(
        lambda: main(["verify", *args, "--n", "8"]), f"verify {args[0]} --n 8"
    )
    assert code == 2
    assert elapsed < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, suite", [(["--suite", "twins"], "twins"), (["--all"], "pendant")], ids=["twins", "all"]
)
def test_verify_rejects_order_7_for_suites_capped_at_6(args, suite, capsys):
    # Order 7 holds about 1,000 times the classes of order 6, where the
    # slowest of these suites already runs for minutes.
    code, elapsed = timed_under_alarm(
        lambda: main(["verify", *args, "--n", "7"]), f"verify {args[0]} --n 7"
    )
    assert code == 2
    assert elapsed < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: suite '{suite}' needs n <= 6, got 7\n"


@pytest.mark.parametrize(
    "suite, cap",
    [
        ("pendant", 6), ("interlacing", 6), ("cutvertex", 6), ("p1", 6),
        ("twins", 6), ("twin_rank3", 6), ("thm11", 7), ("thm12", 7),
    ],
)
def test_verify_suite_rejects_order_past_enumeration_cap(suite, cap):
    from hermitia import verify_suite

    with pytest.raises(ValueError, match=rf"^suite '{suite}' needs n <= {cap}, got 9$"):
        timed_under_alarm(lambda: verify_suite(suite, n=9), f"verify_suite {suite} n=9")


def test_verify_sized_suite_at_its_cap(capsys):
    assert main(["verify", "--suite", "cycle_nullity", "--n", "12"]) == 0
    assert "cycle_nullity: PASS (checked=85," in capsys.readouterr().out


# The default checked counts of the suites that
# test_certified_inertia.LAW_SUITE_COUNTS and the cycle_nullity test above
# leave out, the same as ``hermitia verify --all``.
@pytest.mark.parametrize(
    "suite, checked",
    [
        ("sylvester", 120), ("c3t_rank", 64), ("coalescence_bounds", 210), ("lem38", 269),
        ("cor39", 133), ("lem310", 269), ("lem311", 470), ("oracle_agreement", 10000),
    ],
)
def test_verify_default_checked_count(suite, checked, capsys):
    assert main(["verify", "--suite", suite]) == 0
    assert f"{suite}: PASS (checked={checked}, failures=0," in capsys.readouterr().out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_cycle_nullity_checks_lengths_3_to_n_only(n, capsys):
    # A cycle needs 3 vertices, so n < 3 checks nothing; length 3 has 4 arc counts.
    assert main(["verify", "--suite", "cycle_nullity", "--n", str(n), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["checked"] == (4 if n == 3 else 0)


def test_verify_all_at_order_2(capsys):
    assert main(["verify", "--all", "--n", "2", "--json"]) == 0
    reports = {r["suite"]: r for r in json.loads(capsys.readouterr().out)}
    assert len(reports) == 17 and not any(r["failures"] for r in reports.values())
    assert reports["cycle_nullity"]["checked"] == 0


@pytest.mark.parametrize("spec", ["star:--5", "star:²", "c3t:1,¹,1", "cycle:-+3"])
def test_generate_malformed_digit_token_exits_2(spec, capsys):
    assert main(["generate", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: expected an integer, got ")
