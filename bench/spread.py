"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload hostile --seeds 1-10 --out a.jsonl
    python3 bench/spread.py --workload hostile --seeds 1-10 --against a.jsonl

For every metric: median, first and third quartile (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the bound in
BENCHMARK.json.  With --against, also the shift of each median from a
previous set of runs, as a share of that set's median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(results: list[dict]) -> dict[str, tuple[float, float, float]]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = (median, q1, q3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, help="append each run's result line here")
    parser.add_argument("--against", type=Path, help="result lines of an earlier set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=ROOT)
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        results.append(result)
        if args.out:
            with args.out.open("a") as fh:
                fh.write(line + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    earlier = None
    if args.against:
        earlier = summarize([json.loads(l) for l in args.against.read_text().splitlines()])
    for name, (median, q1, q3) in summarize(results).items():
        spread = (q3 - q1) / median if median else 0.0
        row = (f"{name:34} median={median:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
               f"spread={spread:.3f} bound={bounds[name]}")
        if earlier and name in earlier and earlier[name][0]:
            row += f" shift={(median - earlier[name][0]) / earlier[name][0]:+.3f}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
