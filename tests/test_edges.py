"""The edge corpus: every instance in tests/data/edges replays through cli.main.

Each manifest entry names the command line to run from the corpus directory,
the exit code it must give and a line of output it must print.
"""

import json
import os
from pathlib import Path

import pytest

from ncstat import cli

EDGES = Path(__file__).resolve().parent / "data" / "edges"
MANIFEST = json.loads((EDGES / "manifest.json").read_text())


def test_corpus_files_are_small_and_each_is_replayed():
    files = {p.name: p.stat().st_size for p in EDGES.iterdir()}
    assert all(size < 4096 for size in files.values())
    assert sum(files.values()) < 200 * 1024
    named = {arg for entry in MANIFEST for arg in entry["argv"] if arg in files}
    assert named == set(files) - {"manifest.json"}


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda entry: entry["name"])
def test_edge_replays_with_its_exit_code(entry, monkeypatch, capsys):
    monkeypatch.chdir(EDGES)
    assert cli.main(entry["argv"]) == entry["exit"]
    out, err = capsys.readouterr()
    assert entry["output"] in out + err


class _LooseEnvironment(dict):
    """An environment in which every variable, set or not, reads 1e3."""

    def get(self, key, default=None):
        return "1e3"

    def __getitem__(self, key):
        return "1e3"


def test_a_loose_environment_does_not_loosen_a_verdict(monkeypatch, capsys):
    monkeypatch.chdir(EDGES)
    monkeypatch.setattr(os, "environ", _LooseEnvironment(os.environ))
    assert cli.main(["validate", "non-psd-state.json"]) == 1
    assert "positivity at block 0: residual 2.000e-01" in capsys.readouterr().out
