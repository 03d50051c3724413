"""tools/fresh_run.py runs one mrcner command in a fresh process and prints
its exit status and resource use as one JSON line."""

import json
import subprocess
import sys
from pathlib import Path

from mrcner.cli import main

from helpers import MELOXICAM_CONLL

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fresh_run.py"


def fresh_run(cwd, *argv):
    done = subprocess.run([sys.executable, str(TOOL), *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    *_, last = done.stdout.splitlines()
    return done, json.loads(last)


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
