"""Golden test: every table, figure and ablation must regenerate
``results_full.txt`` exactly, apart from trailing whitespace.

The regeneration goes through the same path as
``python -m repro experiment all`` followed by ``ablation all``, so any
change to the models, the harness or the sweep executor that moves a
single printed digit fails here.
"""

from pathlib import Path

from repro.cli import main

RESULTS = Path(__file__).resolve().parents[2] / "results_full.txt"


def _normalise(text: str) -> list:
    return [line.rstrip() for line in text.splitlines()]


def test_full_regeneration_matches_results_full(capsys):
    assert main(["experiment", "all"]) == 0
    assert main(["ablation", "all"]) == 0
    regenerated = _normalise(capsys.readouterr().out)
    assert regenerated == _normalise(RESULTS.read_text())
