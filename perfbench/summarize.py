"""Summarise benchmark result files over runs.

    python3 perfbench/summarize.py [DIR ...]

Reads the untraced result records (``*-trace0.json``) in each directory
(default ``.perfbench-out``) and prints, per workload and end-to-end metric,
the median, the quartiles, the quartile spread as a share of the median
next to the metric's bound, the highest percentile with at least ten
samples beyond it (``-`` when there are too few runs), and the run count.
Given two directories it also prints how far the second set's median moved
from the first's, as a share of the first.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with >= 10 samples above it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            best = (p, cuts[int(p * 10) - 1])
    return best


def load(directory: Path) -> dict:
    runs: dict[tuple[str, str], list[float]] = defaultdict(list)
    fails: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for path in sorted(directory.glob("*-trace0.json")):
        res = json.loads(path.read_text())
        for name, m in res["metrics"].items():
            runs[res["workload"], name].append(m["value"])
        fails[res["workload"]][0] += res["failed"]
        fails[res["workload"]][1] += res["attempted"]
    return runs, fails


def main(argv=None) -> int:
    dirs = [Path(a) for a in (argv if argv is not None else sys.argv[1:])] or [ROOT / ".perfbench-out"]
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sets = [load(d) for d in dirs]
    for d, (runs, fails) in zip(dirs, sets):
        print(f"== {d}")
        for wl, (failed, attempted) in sorted(fails.items()):
            print(f"{wl}: fail_frac {failed}/{attempted}")
        for (wl, name), vals in sorted(runs.items()):
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            tail = tail_percentile(vals)
            tail_s = f"p{tail[0]:g} {tail[1]:.5g}" if tail else "-"
            print(f"{wl:<13} {name:<12} median {med:<11.5g} q1 {q1:<11.5g} q3 {q3:<11.5g} "
                  f"spread {spread:6.3f} (bound {bounds.get(name, float('nan')):.2f})  "
                  f"{tail_s}  n={len(vals)}")
    if len(sets) == 2:
        print("== median drift, second set vs first")
        first, second = sets[0][0], sets[1][0]
        for key in sorted(first.keys() & second.keys()):
            a, b = statistics.median(first[key]), statistics.median(second[key])
            print(f"{key[0]:<13} {key[1]:<12} {(b - a) / a if a else 0.0:+.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
