"""chainsim benchmark: one workload, end-to-end or per-layer figures.

    python3 bench/run.py --workload desk --seed 7 --seconds 30 --trace 0

Run from the root of a chainsim checkout.  Every simulation runs in a
fresh single-threaded process (bench/simrun.py), one at a time.

--trace 0 repeats untraced runs of one (workload, seed), at least twice,
as long as each next run should end within --seconds.  Every run is
checked, the CSV digests must repeat, and the end-to-end timings are taken
over all the runs.

--trace 1 makes one untraced and one traced run, requires their CSV
digests to be equal, and reports the per-layer metrics of the traced run
and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_RUNS = 2
# whole-invocation wall budget; a run still going at this point is killed and fails
BUDGET_S = 165

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PER_TX = ("tx_finality_p50_ms", "tx_finality_p99_ms", "tx_confirm_p50_ms",
          "tx_confirm_p99_ms", "msgs_per_tx", "bytes_per_tx")


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One simulation in a fresh process; a crash or timeout is a failed run."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)   # the output checks rely on assert
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "simrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"ran past the {timeout:.0f} s budget"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "problems": [f"exited with {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def require_equal_digests(runs: list[dict]) -> None:
    """Fail every checked run whose CSV digest differs from the first one's."""
    digests = [r["digest"] for r in runs if r["ok"]]
    for r in runs:
        if r["ok"] and r["digest"] != digests[0]:
            r["ok"] = False
            r["problems"].append(f"CSV digest {r['digest'][:12]} != {digests[0][:12]}")


def describe(index: int, run: dict) -> str:
    if not run["ok"]:
        return f"run {index}: FAILED: {'; '.join(run['problems'])}"
    return (f"run {index}: run_s={run['run_s']:.3f} events={run['events']} "
            f"peak_rss_mb={run['peak_rss_mb']:.1f} csv_sha256={run['digest'][:16]}")


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    """Metrics over the checked runs, and the sample count behind each."""
    good = [r for r in runs if r["ok"]]
    metrics = {"ok_ratio": len(good) / len(runs)}
    samples = {"ok_ratio": f"{len(runs)} runs"}
    if not good:
        return metrics, samples
    windows = [w for r in good for w in r["setup_s"]]
    metrics["setup_s"] = statistics.fmean(statistics.median(w) for w in windows)
    samples["setup_s"] = (f"mean of the medians of {len(windows)} windows, "
                          f"{sum(map(len, windows))} set-ups")
    # Host speed drifts by up to 20% over tens of seconds, without outliers,
    # so the mean of a few runs is steadier than their median.
    metrics["run_s"] = statistics.fmean(r["run_s"] for r in good)
    samples["run_s"] = f"mean of {len(good)} runs"
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good)
    samples["peak_rss_mb"] = f"median of {len(good)} runs"
    first = good[0]
    for name in PER_TX:
        metrics[name] = first[name]   # equal digests: every checked run gives the same
        samples[name] = f"{first['tx_samples']} tx"
        if name.endswith("_ms"):
            samples[name] += (f", p{first['tail_percentile']} is the highest percentile "
                              f"with >= 10 beyond it")
    return metrics, samples


def untraced(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict]:
    start = time.perf_counter()
    runs = []
    longest = 0.0   # wall time of the longest child so far
    while True:
        elapsed = time.perf_counter() - start
        # start a run only if it should end within --seconds (the budget for the first two)
        if elapsed + longest > (seconds if len(runs) >= MIN_RUNS else BUDGET_S):
            break
        runs.append(run_child(workload, seed, False, BUDGET_S - elapsed))
        longest = max(longest, time.perf_counter() - start - elapsed)
        print(describe(len(runs), runs[-1]), flush=True)
    require_equal_digests(runs)
    metrics, samples = end_to_end(runs)
    for name, unit in END_TO_END_UNITS.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit} ({samples[name]})")
    return runs, metrics


def traced(workload: str, seed: int) -> tuple[list[dict], dict]:
    start = time.perf_counter()
    reference = run_child(workload, seed, False, BUDGET_S)
    print(describe(1, reference), flush=True)
    traced_run = run_child(workload, seed, True, BUDGET_S - (time.perf_counter() - start))
    print(describe(2, traced_run) + " (traced)", flush=True)
    runs = [reference, traced_run]
    require_equal_digests(runs)
    if not all(r["ok"] for r in runs):
        return runs, {}
    metrics = dict(traced_run["layers"])
    metrics["engine.us_per_event"] = reference["run_s"] / reference["events"] * 1e6
    metrics["trace.overhead"] = traced_run["run_s"] / reference["run_s"]
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {LAYER_UNITS[name]}")
    print(f"CSV digest of the traced run equals the untraced one: {reference['digest'][:16]}")
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chainsim" / "__init__.py").is_file():
        print(f"no chainsim sources under {ROOT / 'src'}; run from a chainsim checkout",
              file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}", flush=True)
    if args.trace:
        runs, metrics = traced(args.workload, args.seed)
        units = LAYER_UNITS
    else:
        runs, metrics = untraced(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    failed = sum(1 for r in runs if not r["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
