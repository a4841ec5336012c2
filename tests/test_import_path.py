"""qcorr needs numpy alone: with every import of scipy refused, the
functions that exponentiate a generator, the quench-discord oracle that
evolves through them, and every README CLI verb run, and none of them even
tries to import scipy. Files are the CLI's alone: ``import qcorr`` loads no
``json``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorr
from qcorr import (
    QuenchParams,
    quench_hamiltonian_matrix,
    random_covariance,
    symplectic_evolution,
    symplectic_propagator,
)

from .conftest import bell_density
from .quench_oracle import quench_discord

# A meta-path finder first in line refuses scipy and records every attempt;
# the script then calls the library's expm users and the quench-discord
# oracle, runs every README verb in the same interpreter (their stdout goes
# to a buffer) and prints the results.
_SCRIPT = """
import contextlib, io, json, sys

attempts = []

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            attempts.append(name)
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())

from qcorr import QuenchParams, quench_hamiltonian_matrix, random_covariance, symplectic_evolution, symplectic_propagator
from qcorr.cli import main
from tests.quench_oracle import quench_discord

ham = quench_hamiltonian_matrix(1.0, 0.5)
library = {
    "random_covariance": random_covariance(3).sigma.tolist(),
    "symplectic_propagator": symplectic_propagator(ham, 0.7).tolist(),
    "symplectic_evolution": symplectic_evolution(random_covariance(3), ham, 0.7).sigma.tolist(),
    "quench_discord": quench_discord(QuenchParams(lambda0=2.0), 1.3),
}
bell, cov, out = sys.argv[1:4]
verbs = [
    ["entropy", "--dist", "0.5,0.5"],
    ["mutual-info", "--joint", "0.4,0.1;0.2,0.3"],
    ["qstate", "--state", bell],
    ["discord", "--state", bell],
    ["gaussian", "--cov", cov, "--measured-mode", "1"],
    ["everett", "--alpha", "0.6", "--beta", "0.8", "--points", "5", "--out", out + "/everett.csv"],
    ["quench", "point", "--beta", "1", "--lambda0", "1", "--omega", "1"],
    ["quench", "sweep", "--lambda0", "1", "--omega", "1", "--t-min", "0.1", "--t-max", "5",
     "--points", "5", "--out", out + "/sweep.csv"],
]
codes = []
for argv in verbs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"library": library, "codes": codes, "attempts": attempts,
                  "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def _env() -> dict:
    src = str(Path(qcorr.__file__).resolve().parents[1])  # import the qcorr under test
    root = str(Path(__file__).resolve().parents[1])  # and the oracle beside this test
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, root, os.environ.get("PYTHONPATH")]))}


def test_no_cli_verb_imports_scipy(tmp_path):
    bell = tmp_path / "bell.json"
    bell.write_text(json.dumps({"dims": [2, 2], "matrix": [[z.real, z.imag] for z in bell_density().elements.ravel().tolist()]}))
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps(random_covariance(3).sigma.tolist()))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(bell), str(cov), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env=_env(),
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 8
    assert report["attempts"] == [] and report["scipy"] == []
    # the same numbers as in this process, where scipy is importable
    ham = quench_hamiltonian_matrix(1.0, 0.5)
    library = report["library"]
    assert np.array_equal(library["random_covariance"], random_covariance(3).sigma)
    assert np.array_equal(library["symplectic_propagator"], symplectic_propagator(ham, 0.7))
    assert np.array_equal(
        library["symplectic_evolution"], symplectic_evolution(random_covariance(3), ham, 0.7).sigma
    )
    assert library["quench_discord"] == quench_discord(QuenchParams(lambda0=2.0), 1.3)


@pytest.mark.parametrize("module, loads_json", [("qcorr", False), ("qcorr.cli", True)])
def test_only_the_cli_loads_json(module, loads_json):
    """A fresh interpreter that imports the library has no ``json`` module;
    one that imports the CLI, which reads the two file formats, has."""
    script = f"import sys, {module}; print(any(m == 'json' or m.startswith('json.') for m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=_env())
    assert done.stdout == f"{loads_json}\n"
