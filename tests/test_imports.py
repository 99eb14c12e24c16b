"""``import repro`` stays light: scipy loads only when a function needs it,
and the package loads no post-generation analytics."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_loads_no_scipy():
    code = (
        "import json, sys, repro; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


def test_import_repro_loads_only_the_run_path_packages():
    code = (
        "import json, sys, repro; "
        "print(json.dumps([sorted({m.split('.')[1] for m in sys.modules "
        "if m.startswith('repro.')}), hasattr(repro, 'DistributedGraph')]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    packages, has_graph_class = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(packages) <= {"_version", "core", "graph", "mpsim", "rng", "seq", "telemetry"}
    assert not has_graph_class
