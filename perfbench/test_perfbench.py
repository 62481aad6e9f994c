"""Self-test of the benchmark: every workload at tiny size, in both modes,
reports every declared metric with its unit; a corrupted expected answer
makes the command fail; a checkout without the source tree gives no result.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]


def run(cmd: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Exit code and the JSON object on the last line of output, if any."""
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def bench(args: list[str]) -> tuple[int, dict | None]:
    return run([sys.executable, str(HERE / "run.py"), *args])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    rc, result = bench(tiny_args(workload, trace))
    assert rc == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


# Each snippet breaks one expected answer before the run starts.
CORRUPTIONS = {
    "laws": "referee.EXPECTED_CHECKED[('pendant', 3)] += 1",
    "enumerate": "referee.EXPECTED_CLASSES[(5, False, False, True, True)] -= 1",
    "queries-random": (
        "true = referee.numpy_inertia\n"
        "referee.numpy_inertia = lambda n, e: (lambda p, m, z: (p + 1, m, z))(*true(n, e))"
    ),
    "queries-families": "referee.ZERO_TOL = 10.0",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expectation_fails_the_run(workload):
    code = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(HERE)!r})",
            "import referee",
            CORRUPTIONS[workload],
            "import run",
            f"sys.exit(run.main({tiny_args(workload, 0)!r}))",
        ]
    )
    rc, result = run([sys.executable, "-c", code])
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_source_tree_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    script = tmp_path / HERE.name / "run.py"
    rc, result = run([sys.executable, str(script), *tiny_args("laws", 0)], cwd=tmp_path)
    assert rc != 0 and result is None
