"""Smoke tests: every example script runs to completion and prints its
headline content.  These are the living documentation — they must not rot.
"""

import runpy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

EXAMPLES = {
    "chaos_week": ("examples/chaos_week.py",
                   ("Recorded totals", "wrote chaos_week_trace.json")),
    "quickstart": ("examples/quickstart.py",
                   ("Inventory", "layer", "client scaling")),
    "checkpoint_campaign": ("examples/checkpoint_campaign.py",
                            ("Checkpoint design point", "write fraction")),
    "day_in_the_life": ("examples/day_in_the_life.py",
                        ("Per-class outcomes", "Lesson 1 tradeoff",
                         "p99 inflation")),
    "operations_day": ("examples/operations_day.py",
                       ("cable diagnosis", "purge")),
    "procure_a_filesystem": ("examples/procure_a_filesystem.py",
                             ("Winner", "Acceptance")),
    "tiny_files_day": ("examples/tiny_files_day.py",
                       ("Small-file metadata tier", "throughput gain",
                        "f4-ec")),
}

#: the libPIO example builds the full client set and solves large flow
#: problems twice; keep it in the slow bucket
SLOW_EXAMPLES = {
    "noisy_neighbor_libpio": ("examples/noisy_neighbor_libpio.py",
                              ("libPIO", "improvement")),
    "full_lifecycle": ("examples/full_lifecycle.py",
                       ("PHASE 6", "Lifecycle complete")),
}


#: files an example writes into its working directory
ARTIFACTS = {"chaos_week": ("chaos_week_trace.json",)}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_runs(name, capsys, monkeypatch, tmp_path):
    path, expectations = EXAMPLES[name]
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(REPO / path), run_name="__main__")
    out = capsys.readouterr().out
    for needle in expectations:
        assert needle in out, f"{path} output lacks {needle!r}"
    for artifact in ARTIFACTS.get(name, ()):
        assert (tmp_path / artifact).is_file(), f"{path} wrote no {artifact}"


@pytest.mark.parametrize("name", sorted(SLOW_EXAMPLES))
def test_slow_example_runs(name, capsys):
    path, expectations = SLOW_EXAMPLES[name]
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    for needle in expectations:
        assert needle in out, f"{path} output lacks {needle!r}"
