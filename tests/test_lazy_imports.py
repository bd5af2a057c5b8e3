"""The command line loads only what a command runs, and the lazy exports work.

Each check runs in a fresh interpreter, since the test session itself has
imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ncstat.generators import GeneratorConfig, gen_morphism, rng_for
from ncstat.serialize import morphism_to_json, write_json

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAZY = {"ncstat.entropy", "ncstat.generators", "ncstat.laws"}


def _fresh(code: str, *args: str):
    """Run code in a new interpreter with src on the path; return its JSON output."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_and_validate_skip_the_lazy_modules(tmp_path):
    cfg = GeneratorConfig(seed=31, trials=4)
    m_path = str(tmp_path / "m.json")
    write_json(m_path, morphism_to_json(gen_morphism(cfg, rng_for(cfg, 0), faithful=True)))
    loaded = _fresh(
        "import json, sys\n"
        "import ncstat.cli\n"
        "mods = lambda: sorted(m for m in sys.modules if m.startswith('ncstat'))\n"
        "after_import = mods()\n"
        "code = ncstat.cli.main(['validate', sys.argv[1]])\n"
        "print(json.dumps([after_import, code, mods()]))\n",
        m_path,
    )
    after_import, code, after_validate = loaded
    assert after_import == [
        "ncstat",
        "ncstat.algebra",
        "ncstat.cli",
        "ncstat.errors",
        "ncstat.hypotheses",
        "ncstat.maps",
        "ncstat.serialize",
    ]
    assert code == 0
    assert not LAZY & set(after_validate)


def test_lazy_exports_resolve():
    report = _fresh(
        "import importlib, json, sys\n"
        "import ncstat\n"
        "before = sorted(m for m in sys.modules if m.startswith('ncstat'))\n"
        "from ncstat import laws  # not an export: falls back to the submodule\n"
        "for name in ncstat.__all__:\n"
        "    value = getattr(ncstat, name)\n"
        "    if name in ncstat._LAZY:\n"
        "        owner = importlib.import_module('ncstat.' + ncstat._LAZY[name])\n"
        "        assert value is getattr(owner, name), name\n"
        "        assert ncstat.__dict__[name] is value, name  # cached\n"
        "namespace = {}\n"
        "exec('from ncstat import *', namespace)\n"
        "star = sorted(k for k in namespace if k != '__builtins__')\n"
        "try:\n"
        "    ncstat.nonexistent\n"
        "    missing = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'before': before, 'star': star, 'missing': missing,\n"
        "                  'laws': laws.__name__, 'all': sorted(ncstat.__all__)}))\n"
    )
    assert not LAZY & set(report["before"])
    assert report["star"] == report["all"]
    assert report["missing"] == "module 'ncstat' has no attribute 'nonexistent'"
    assert report["laws"] == "ncstat.laws"
