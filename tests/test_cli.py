"""Command-line interface behavior and exit codes."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainsim
from chainsim import cli
from conftest import SAMPLE_CONFIG_TEXT

SMALL_CONFIG = (
    "NODES = 6\n"
    "TRANSACTIONS = 3\n"
    "DELAY = 1\n"
    "BLK_SIZE = 3\n"
    "INIT_BALANCE = 20\n"
    "MALICIOUS = 0.0\n"
    "VALID_THR = 4\n"
    "SIG_THR = 3\n"
    "VALID_FEE = 2\n"
    "ROUTE_FEE = 1\n"
    "REWARD = 3\n"
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "simulation.config"
    path.write_text(SMALL_CONFIG)
    return path


def test_happy_path_writes_csv(config_file, tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main(["--config", str(config_file), "--out", str(out), "--seed", "7"])
    assert code == cli.EXIT_OK
    text = out.read_text()
    assert text.startswith("event_type,entity_id,owner,")
    assert "simulation summary" in capsys.readouterr().out


def test_missing_config_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--config" in capsys.readouterr().err


def test_unreadable_config_is_config_error(tmp_path, capsys):
    code = cli.main(["--config", str(tmp_path / "missing.config")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.config"
    path.write_text(SAMPLE_CONFIG_TEXT.replace("NODES = 120", "NODES = 1"))
    code = cli.main(["--config", str(path)])
    assert code == cli.EXIT_CONFIG


def test_bad_latency_samples_is_config_error(config_file, tmp_path, capsys):
    samples = tmp_path / "latency.txt"
    samples.write_text("not-a-number\n")
    code = cli.main(["--config", str(config_file),
                     "--latency-samples", str(samples)])
    assert code == cli.EXIT_CONFIG


def test_non_finite_latency_sample_is_config_error(config_file, tmp_path, capsys):
    samples = tmp_path / "latency.txt"
    samples.write_text("10\nnan\n")
    code = cli.main(["--config", str(config_file), "--summary-only",
                     "--latency-samples", str(samples)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_repeat_invocations_identical(config_file, tmp_path, capsys):
    digests = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["--config", str(config_file), "--out", str(out),
                         "--seed", "11"]) == cli.EXIT_OK
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_summary_only_skips_csv(config_file, tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = cli.main(["--config", str(config_file), "--out", str(out),
                     "--summary-only"])
    assert code == cli.EXIT_OK
    assert not out.exists()


def test_dump_overlay_prints_vertices(config_file, tmp_path, capsys):
    code = cli.main(["--config", str(config_file), "--out",
                     str(tmp_path / "run.csv"), "--dump-overlay",
                     "--check-invariants", "500"])
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    vertex_lines = [l for l in lines if l.count(",") == 4]
    assert len(vertex_lines) >= 6   # at least one vertex per node


@pytest.mark.parametrize("flag, value", [
    ("--latency-median", "0"),
    ("--latency-median", "-5"),
    ("--latency-median", "nan"),
    ("--latency-median", "inf"),
    ("--latency-median", "fast"),
    ("--latency-sigma", "-0.1"),
    ("--latency-sigma", "nan"),
    ("--latency-sigma", "inf"),
    ("--check-invariants", "-1"),
    ("--check-invariants", "2.5"),
])
def test_bad_flag_value_is_usage_error(config_file, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(config_file), "--summary-only", f"{flag}={value}"])
    assert exc.value.code == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_zero_sigma_and_invariant_interval_accepted(config_file, capsys):
    code = cli.main(["--config", str(config_file), "--summary-only",
                     "--latency-sigma", "0", "--check-invariants", "0"])
    assert code == cli.EXIT_OK


# The honest node's only validator is the malicious node, which rejects every
# valid transaction, so the honest node retries forever.
LIVELOCKED_CONFIG = (
    "NODES = 2\n"
    "TRANSACTIONS = 3\n"
    "DELAY = 1\n"
    "BLK_SIZE = 1\n"
    "INIT_BALANCE = 20\n"
    "MALICIOUS = 0.3\n"
    "VALID_THR = 1\n"
    "SIG_THR = 1\n"
    "VALID_FEE = 2\n"
    "ROUTE_FEE = 1\n"
    "REWARD = 3\n"
)


def test_livelocked_run_exits_stalled(tmp_path):
    # a subprocess with a timeout, so a hang fails the test instead of hanging it
    path = tmp_path / "livelock.config"
    path.write_text(LIVELOCKED_CONFIG)
    src = str(Path(chainsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "chainsim.cli", "--config", str(path), "--seed", "3",
         "--out", str(tmp_path / "run.csv")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == cli.EXIT_STALLED, proc.stderr
    assert "stalled simulation" in proc.stderr


def test_livelocked_run_stalls_at_a_pinned_point():
    sim = chainsim.Simulation(chainsim.parse_config(LIVELOCKED_CONFIG), seed=3)
    message = "nothing generated or finalized since t=4227 (now t=1065243)"
    with pytest.raises(chainsim.StalledSimulation) as exc:
        sim.run()
    assert str(exc.value) == message
    assert sim.events_processed == 24686
