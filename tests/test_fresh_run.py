"""tools/fresh_run.py runs one mrcner command in a fresh process and prints
its exit status and resource use as one JSON line; with `--rounds N` it
runs it N times and adds a line of medians."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from mrcner.cli import main

from helpers import MELOXICAM_CONLL

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fresh_run.py"


def fresh_run(cwd, *argv):
    done = subprocess.run([sys.executable, str(TOOL), *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    *_, last = done.stdout.splitlines()
    return done, json.loads(last)


CONVERT = ("convert", "--input", "mini.conll", "--entity-type", "CHEMICAL", "--out", "t.jsonl")


def test_a_fresh_convert_writes_what_an_in_process_one_does_and_reports_its_cost(tmp_path, capsys):
    (tmp_path / "mini.conll").write_text(MELOXICAM_CONLL)
    args = ("convert", "--input", "mini.conll", "--entity-type", "CHEMICAL")
    done, result = fresh_run(tmp_path, *args, "--out", "fresh.jsonl")
    assert done.returncode == 0 and done.stdout.count("\n") == 1
    assert json.loads(done.stderr)["triples"] == 1  # the command's own summary
    assert set(result) == {"command", "exit", "wall_s", "user_s", "sys_s", "minor_faults",
                           "peak_rss_mib"}
    assert result["command"] == "convert" and result["exit"] == 0
    assert result["wall_s"] > 0 and result["user_s"] > 0 and result["minor_faults"] > 0
    assert 1 < result["peak_rss_mib"] < 4096
    assert main([*args[:2], str(tmp_path / "mini.conll"), *args[3:],
                 "--out", str(tmp_path / "here.jsonl")]) == 0
    assert (tmp_path / "fresh.jsonl").read_bytes() == (tmp_path / "here.jsonl").read_bytes()


def test_a_failing_command_passes_its_exit_status_on(tmp_path):
    done, result = fresh_run(tmp_path, "convert", "--input", "missing.conll",
                             "--entity-type", "CHEMICAL", "--out", "t.jsonl")
    assert done.returncode == 1 and result["exit"] == 1
    assert json.loads(done.stderr.splitlines()[-1])["error"] == "FileNotFoundError"


def test_rounds_print_each_run_then_their_medians(tmp_path):
    (tmp_path / "mini.conll").write_text(MELOXICAM_CONLL)
    done, medians = fresh_run(tmp_path, "--rounds", "3", *CONVERT)
    assert done.returncode == 0
    *rounds, _ = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(rounds) == 3 and all(r["exit"] == 0 for r in rounds)
    assert set(medians) == {"command", "rounds", "wall_s", "minor_faults", "peak_rss_mib"}
    assert medians["command"] == "convert" and medians["rounds"] == 3
    for key in ("wall_s", "minor_faults", "peak_rss_mib"):
        assert medians[key] == statistics.median(r[key] for r in rounds)


def test_a_failing_round_ends_the_rounds_with_its_exit_status(tmp_path):
    done, result = fresh_run(tmp_path, "--rounds", "3", *CONVERT)  # no mini.conll
    assert done.returncode == 1 and result["exit"] == 1
    assert done.stdout.count("\n") == 1


@pytest.mark.parametrize("rounds", [[], ["0"], ["-2"], ["x"]])
def test_rounds_needs_a_positive_count(tmp_path, rounds):
    done = subprocess.run([sys.executable, str(TOOL), "--rounds", *rounds, *CONVERT],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert "--rounds takes a positive integer" in done.stderr
    assert not (tmp_path / "t.jsonl").exists()
