"""Smoke test of the benchmark: every workload, traced and untraced, at the
shortest length (one cycle per phase).

    python3 perfbench/smoke.py

Run from the root of the checkout.  Checks that each run exits 0, reports
correct outputs, and prints exactly the metric names and units listed in
BENCHMARK.json.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", "0",
                                      "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{tag}: metrics {sorted(units)} differ from "
                                f"BENCHMARK.json {sorted(expected[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            print(f"{tag}: {result['attempted']} ops, "
                  f"{len(units)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
