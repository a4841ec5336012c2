"""scipy stays off the import path: no CLI verb imports it, and the two
oracles that need ``expm`` import it when called, with unchanged values."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import qcorr
from qcorr import (
    covariance_to_json,
    density_matrix_to_json,
    quench_hamiltonian_matrix,
    random_covariance,
    symplectic_form,
    symplectic_propagator,
)

from .conftest import bell_density

# Runs every README verb in one interpreter and prints the scipy modules
# loaded afterwards; stdout of the verbs goes to a buffer.
_SCRIPT = """
import contextlib, io, json, sys
from qcorr.cli import main

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
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_no_cli_verb_imports_scipy(tmp_path):
    bell = tmp_path / "bell.json"
    bell.write_text(density_matrix_to_json(bell_density()))
    cov = tmp_path / "cov.json"
    cov.write_text(covariance_to_json(random_covariance(3)))
    src = str(Path(qcorr.__file__).resolve().parents[1])  # import the qcorr under test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(bell), str(cov), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 8
    assert report["scipy"] == []


def test_lazy_expm_keeps_the_propagator():
    ham = quench_hamiltonian_matrix(1.0, 0.5)
    s = symplectic_propagator(ham, 0.7)
    assert np.array_equal(s, expm(symplectic_form(2) @ ham.matrix * 0.7))
    assert s[0].tolist() == [0.7096536309919889, 0.6307822054968972, 0.055188556292499635, 0.01343548174079378]


def test_lazy_expm_keeps_random_covariance():
    assert random_covariance(11).sigma[0].tolist() == [
        3.889997191432157,
        -0.3132319853089316,
        -0.32238450470634694,
        -1.2589194504793413,
    ]
    assert random_covariance(11).sigma[3, 3] == 3.1572809064813745
