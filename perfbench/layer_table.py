"""Per-layer table of the traced runs, with the tracing overhead.

Usage, from the repository root:

    python3 perfbench/layer_table.py [--seed N] [--seconds S]

Runs every workload once untraced and once traced with the same seed and
prints, as Markdown, each layer's self time and call count per workload,
then the tracing overhead (traced items_per_s against untraced).  It exits
nonzero if any spectra call shows on ``enumerate``, or if the twin reduction's
vertex ratio does not separate ``queries-random`` (nearly twin-free) from
``queries-families`` (twin-rich).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    return {k: m["value"] for k, m in json.loads(done.stdout.splitlines()[-1])["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    plain = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}

    print("| layer | " + " | ".join(f"{w} self ms | {w} calls" for w in WORKLOADS) + " |")
    print("|---|" + "---:|---:|" * len(WORKLOADS))
    for layer in LAYERS:
        cells = [f"{traced[w][f'{layer}.self_ms']:.0f} | {traced[w][f'{layer}.calls']:.0f}" for w in WORKLOADS]
        print(f"| {layer} | " + " | ".join(cells) + " |")
    overhead = [1 - traced[w]["trace.items_per_s"] / plain[w]["items_per_s"] for w in WORKLOADS]
    print("\n| | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---:|" * len(WORKLOADS))
    print("| items_per_s untraced | " + " | ".join(f"{plain[w]['items_per_s']:.4g}" for w in WORKLOADS) + " |")
    print("| items_per_s traced | " + " | ".join(f"{traced[w]['trace.items_per_s']:.4g}" for w in WORKLOADS) + " |")
    print("| tracing overhead | " + " | ".join(f"{o:.1%}" for o in overhead) + " |")
    print("| twin_reduction.vertex_ratio | "
          + " | ".join(f"{traced[w]['switching_twins.twin_reduction.vertex_ratio']:.3f}" for w in WORKLOADS) + " |")

    spectra_on_enumerate = sum(v for k, v in traced["enumerate"].items() if k.startswith("spectra.") and k.endswith(".calls"))
    random_ratio = traced["queries-random"]["switching_twins.twin_reduction.vertex_ratio"]
    family_ratio = traced["queries-families"]["switching_twins.twin_reduction.vertex_ratio"]
    print(f"\nspectra calls on enumerate: {spectra_on_enumerate:.0f}")
    print(f"twin_reduction.vertex_ratio: queries-random {random_ratio:.3f}, queries-families {family_ratio:.3f}")
    return 0 if spectra_on_enumerate == 0 and random_ratio > family_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
