"""Command-line entry point."""
from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys

from .config import ConfigError, SimulationConfig, parse_config
from .engine import Simulation, StalledSimulation
from .simnet import BadSampleFile, load_latency_samples

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_STALLED = 4


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def read_config(path: str) -> SimulationConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_config(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsim",
        description="Deterministic single-process DHT-blockchain simulator.",
    )
    parser.add_argument("--config", required=True, help="simulation.config file")
    parser.add_argument("--out", default="run.csv", help="output CSV path")
    parser.add_argument("--seed", type=int, default=42, help="run seed")
    parser.add_argument("--latency-samples", metavar="FILE",
                        help="pairwise latency samples, one ms value per line")
    parser.add_argument("--summary-only", action="store_true",
                        help="print the summary but do not write the CSV")
    parser.add_argument("--check-invariants", type=non_negative_int, default=0, metavar="N",
                        help="run structural invariant checks every N events and once at the end")
    parser.add_argument("--dump-overlay", action="store_true",
                        help="print one line per overlay vertex after the run")
    return parser


def print_summary(report) -> None:
    print("simulation summary")
    print(f"  finalized transactions : {report.finalized_tx_count}")
    print(f"  finalized blocks       : {report.finalized_block_count}"
          f" (chain: {report.chain_block_count})")
    print(f"  fork waste             : {report.fork_waste:.1%}")
    print(f"  tx / block retries     : {report.tx_retries} / {report.block_retries}")
    print(f"  block rounds           : {report.block_rounds}")
    print(f"  repeated chain txs     : {report.repeated_chain_txs}")
    print(f"  avg tx time            : {report.avg_tx_time_ms:.1f} ms")
    print(f"  avg block time         : {report.avg_block_time_ms:.1f} ms")
    print(f"  avg block size         : {report.avg_block_size:.2f}")
    print(f"  total messages         : {report.total_messages}")
    print(f"  total bytes            : {report.total_bytes}")
    print(f"  minted total           : {report.total_minted}")
    print(f"  negative balance events: {report.negative_balance_events}")
    print(f"  max per-node stored    : {max(report.per_node_stored)}")
    print("  traffic by tag         : messages / bytes")
    for tag, messages in report.messages_by_tag.items():
        print(f"    {tag:<21}: {messages} / {report.bytes_by_tag[tag]}")
    print(f"  wall clock             : {report.wall_clock_s:.2f} s")


def output_error(exc: OSError) -> int:
    print(f"cannot write output: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def discard_output(out) -> None:
    """Close and delete an output a stalled run never wrote; a path that
    is not a regular file, such as /dev/stdout, is left in place."""
    out.close()
    if stat.S_ISREG(os.lstat(out.name).st_mode):
        os.remove(out.name)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = read_config(args.config)
        samples = None
        if args.latency_samples:
            samples = load_latency_samples(args.latency_samples)
    except (OSError, ConfigError, BadSampleFile) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    sim = Simulation(cfg, seed=args.seed, latency_samples=samples,
                     check_invariants_every=args.check_invariants)
    with contextlib.ExitStack() as stack:
        # open the output before the run, so an unwritable path costs no run
        try:
            out = None if args.summary_only else stack.enter_context(
                open(args.out, "w", encoding="utf-8", newline=""))
        except OSError as exc:
            return output_error(exc)
        try:
            report = sim.run()
        except StalledSimulation as exc:
            if out is not None:
                discard_output(out)
            print(f"stalled simulation: {exc}", file=sys.stderr)
            return EXIT_STALLED
        if out is not None:
            try:
                out.write(sim.csv_text())
                out.close()
            except OSError as exc:
                return output_error(exc)
    print_summary(report)
    if args.dump_overlay:
        for line in sim.overlay.dump_lines():
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
