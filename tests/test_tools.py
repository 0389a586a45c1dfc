"""tools/cli_parity.py end to end: this checkout compared with itself.

The tool reads the cli-cold argvs from perfbench/workloads.py and the
TestBadValuesExit2 and fuzz_argv names from tests/test_cli.py, so a rename
on either side breaks it; this run makes that break show.
"""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_parity_against_own_checkout():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cli_parity.py"), ROOT, "--fuzz", "10"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # no caches in perfbench/
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = re.search(r"^(\d+) of (\d+) runs differ", proc.stdout, re.M)
    assert summary and summary.group(1) == "0" and int(summary.group(2)) > 0, proc.stdout
