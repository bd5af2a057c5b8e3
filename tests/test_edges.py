"""The edge corpus: every instance in tests/data/edges replays through cli.main.

Each manifest entry names the command line to run from the corpus directory,
the exit code it must give and a line of output it must print.
"""

import json
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
    monkeypatch.delenv("NCSTAT_TOL", raising=False)
    assert cli.main(entry["argv"]) == entry["exit"]
    out, err = capsys.readouterr()
    assert entry["output"] in out + err
