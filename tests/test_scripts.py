"""Smoke test for the scripts shipped next to the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import riordan

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_tables_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(riordan.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), "--order", "32"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert ["47", "967294", "447998", "136436", "30792", "5054", "558", "36", "1"] in rows
    assert "Z: 3, 5/2, 25/8, " in done.stdout


def test_bench_layers_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(riordan.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_layers.py"), "--orders", "16"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seconds = json.loads(done.stdout)["seconds"]
    assert list(seconds) == ["16"]
    assert sorted(seconds["16"]) == sorted([
        "f.compose(-f)", "f.reverse()", "pseudo_from_g(lucas)", "p.inverse()",
        "p.pseudo_involution_failure()", "az_from_production(p, n-1)",
        "az_from_series(p, n-1)", "p.expand(n)", "q.expand(n)", "cli show"])
    assert all(s > 0 for s in seconds["16"].values())
