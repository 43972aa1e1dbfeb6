"""The library runs on numpy alone: importing every hdmrfit module, fitting a
surrogate with a CP mode and running ``hdmrfit fit`` load no scipy module.

The check runs in a fresh interpreter, since the test process itself may
have imported scipy (the oracles use it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import importlib
import pkgutil
import sys

import numpy as np

import hdmrfit
from hdmrfit.basis import BasisConfig
from hdmrfit.cli import main
from hdmrfit.data import SampleSet
from hdmrfit.fitting import FitConfig, fit_hdmr

for info in pkgutil.iter_modules(hdmrfit.__path__):
    importlib.import_module("hdmrfit." + info.name)

g = np.random.default_rng(0)
xi = g.uniform(-1.0, 1.0, (200, 3))
u = 1.0 + xi[:, 0] + xi[:, 0] * xi[:, 1] * xi[:, 2]
model, _ = fit_hdmr(SampleSet(np.empty((200, 0)), xi, u), None, [(1,), (1, 2, 3)],
                    FitConfig(no=3, npc=2, ninter=3, nr=2),
                    BasisConfig(lo=-1.0, hi=1.0, max_order=4))
assert [m.dims for m in model.cp] == [(1, 2, 3)]

assert main(["gen-diffusion", "--out", "diff.csv", "--nq", "200", "--nd-nu", "2",
             "--nd-f", "2", "--mx", "32", "--mk", "48", "--seed", "3"]) == 0
assert main(["fit", "diff.csv", "--out", "model.json", "--no", "3", "--nolars", "2",
             "--ninter", "2", "--npc", "2", "--seed", "1",
             "--manifest", "fit.manifest.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_library_and_cli_fit_load_no_scipy(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    res = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
    doc = json.loads((tmp_path / "fit.manifest.json").read_text())
    assert doc["command"] == "fit" and "scipy" not in doc["versions"]
