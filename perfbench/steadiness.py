#!/usr/bin/env python3
"""Steadiness report: repeated runs of one commit against the bounds.

Runs ``run.py --trace 0`` for seeds 1-10, in two sets, one run at a
time and ``run_seconds`` from BENCHMARK.json each.  For every
end-to-end metric and workload it prints each set's median and
quartiles, the quartile spread as a share of the median, the shift of
the second set's median from the first, and the bound from
BENCHMARK.json.  A spread or shift above its bound is flagged.  The
spread of ``setup_s`` is shown but not judged, because set-up is
bounded only by how far its median may shift.

The spread across seeds mixes two things: host noise, and work that
differs from seed to seed.  The ``noise`` column, on the second set's
row, removes the second: it is the spread of each seed's second-set
value over its first-set value, divided by sqrt(2) because that ratio
carries the noise of two runs.

Usage (from the repository root)::

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --workloads chaos_campaign

Raw results go to ``.perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def report(results: dict) -> bool:
    """Print the table; True when every judged figure is in bound."""
    steady = True
    print(f"{'workload':20} {'metric':15} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'shift':>7} {'noise':>6} "
          f"{'bound':>6}")
    for workload, sets in results.items():
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["metrics"][name]["value"] for run in runs]
                      for runs in sets]
            medians = []
            for index, these in enumerate(values):
                median, q1, q3, share = spread(these)
                medians.append(median)
                shift = noise = ""
                worse = False
                if index:
                    change = (median - medians[0]) / medians[0]
                    if metric["better"] == "higher":
                        change = -change
                    worse = change > bound
                    shift = f"{change:+.3f}"
                    ratios = [b / a for a, b in zip(values[0], these)]
                    noise = f"{spread(ratios)[3] / 2 ** 0.5:.3f}"
                judged = share > bound and name != "setup_s"
                flag = " !" if judged or worse else ""
                steady = steady and not flag
                print(f"{workload:20} {name:15} {index + 1:>3} "
                      f"{median:12.6g} {q1:12.6g} {q3:12.6g} {share:7.3f} "
                      f"{shift:>7} {noise:>6} {bound:6.3f}{flag}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCH["workloads"]))
    args = parser.parse_args(argv)

    results: dict = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for index in range(SETS):
            runs = []
            for seed in SEEDS:
                start = time.perf_counter()
                run = run_once(workload, seed)
                runs.append(run)
                print(f"set {index + 1} {workload} seed {seed}: "
                      f"correct={run['correct']} "
                      f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
            results[workload].append(runs)
    out = ROOT / ".perfbench" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))
    first = next(iter(results.values()))[0][0]["info"]["host"]
    print(f"host: {json.dumps(first)}")
    return 0 if report(results) else 1


if __name__ == "__main__":
    sys.exit(main())
