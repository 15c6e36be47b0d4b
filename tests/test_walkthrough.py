"""README's CLI walkthrough, `walkthrough.sh`, run against the source tree."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

from no_numpy import CMT

SCRIPT = Path(__file__).with_name("walkthrough.sh")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_walkthrough(tmp_path, cmt_body):
    """Run the script in an empty directory with a `cmt` on PATH whose sh
    body is `cmt_body` and with TMPDIR an empty directory of its own."""
    bin_dir, run_dir, tmp_dir = (tmp_path / name for name in ("bin", "run", "tmp"))
    for folder in (bin_dir, run_dir, tmp_dir):
        folder.mkdir()
    cmt = bin_dir / "cmt"
    cmt.write_text(f"#!/bin/sh\n{cmt_body}\n")
    cmt.chmod(0o755)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=pythonpath, TMPDIR=str(tmp_dir))
    result = subprocess.run(["bash", str(SCRIPT)], cwd=run_dir, env=env,
                            capture_output=True, text=True, timeout=120)
    return result, tmp_dir


def test_the_walkthrough_passes_and_leaves_nothing_in_tmpdir(tmp_path):
    result, tmp_dir = run_walkthrough(tmp_path, f'exec {shlex.quote(sys.executable)} -m cmt.cli "$@"')
    assert result.returncode == 0, result.stderr
    assert list(tmp_dir.iterdir()) == []


def test_the_walkthrough_passes_without_numpy(tmp_path):
    # the same steps with a `cmt` that cannot import numpy
    body = f'exec {shlex.quote(sys.executable)} -c {shlex.quote(CMT)} "$@"'
    result, tmp_dir = run_walkthrough(tmp_path, body)
    assert result.returncode == 0, result.stderr
    assert list(tmp_dir.iterdir()) == []


def test_the_walkthrough_stops_at_the_first_step_that_differs(tmp_path):
    # a cmt that prints nothing and exits 0 fails the insert's "1"; only
    # `set -e` stops the script there, at the second call
    calls = tmp_path / "calls"
    result, _ = run_walkthrough(tmp_path, f'echo "$*" >> {shlex.quote(str(calls))}')
    assert result.returncode != 0
    assert 1 <= len(calls.read_text().splitlines()) <= 2
