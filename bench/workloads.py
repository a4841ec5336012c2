"""The three benchmark workloads.

Each workload is built from a seed in set-up, then served as rounds of
calls by one caller in a closed loop. A round has a fixed composition, so
the share of each input kind, and of inputs in known-defect regions, is the
same in every run and for every seed. ``call`` is the only timed code; it
reaches the library through the ``qcorr`` package namespace at call time,
as a user would, so the traced run's rebound names take effect.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent


class Workload:
    name = ""
    trace_rounds = 1
    in_process = True  # False: each call is a child process
    defect_region = None  # text of checks.DEFECT_REGIONS that this workload's inputs reach
    calibration_reps = 8  # calibrate() runs after each measured round
    calibration_reference_s = None  # median calibrate() time on the reference host

    def round(self, k: int) -> list:
        """The call specs of round ``k``; rounds repeat after ``len(self.rounds)``."""
        return self.rounds[k % len(self.rounds)]

    def items(self, spec) -> int:
        return 1

    def kinds(self, spec) -> dict:
        """Items of ``spec`` by the kind per-item counts are quoted for."""
        return {}

    def fingerprint(self, output):
        """What must repeat exactly when the same spec is called again."""
        return repr(output)

    def calibrate(self):
        """A fixed kernel of the same kind of work as the calls that runs no
        qcorr code; its time tracks the speed of the host."""
        raise NotImplementedError


# The host this benchmark was built on (a 2-core Xeon VM, Python 3.11.7,
# numpy 2.4.6) runs the same code up to a third slower for tens of seconds
# at a time. Measured runs time calibrate() between rounds and scale call
# times by calibration_reference_s over the run's median calibrate() time;
# the unscaled values are reported alongside.
_CAL = np.random.default_rng(12345)
CAL_STATE = _CAL.standard_normal((4, 4)) + 1j * _CAL.standard_normal((4, 4))
CAL_STATE = CAL_STATE @ CAL_STATE.conj().T / np.trace(CAL_STATE @ CAL_STATE.conj().T).real
CAL_GENERATOR = _CAL.standard_normal((4, 4))
CAL_GENERATOR = (CAL_GENERATOR - CAL_GENERATOR.T) * 0.3


# -- discord_search ------------------------------------------------------

TETRAHEDRON = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]])  # Bell states


def _ket(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _gram(rng, dim: int, rank: int) -> np.ndarray:
    """Hilbert-Schmidt random state of the given rank."""
    x = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    g = x @ x.conj().T
    return g / np.trace(g).real


def _x_state(rng) -> np.ndarray:
    a, b, c, d = rng.dirichlet(np.ones(4))
    m = np.diag([a, b, c, d]).astype(complex)
    m[0, 3] = math.sqrt(a * d) * rng.random() * np.exp(2j * math.pi * rng.random())
    m[1, 2] = math.sqrt(b * c) * rng.random() * np.exp(2j * math.pi * rng.random())
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    return m


def _classical_quantum(rng) -> np.ndarray:
    """sum_i p_i |e_i><e_i| (x) rho_i with {e_i} a random basis of A."""
    e0 = _ket(rng)
    e1 = np.array([-np.conj(e0[1]), np.conj(e0[0])])
    p = rng.random()
    return sum(
        w * np.kron(np.outer(e, e.conj()), _gram(rng, 2, 2)) for w, e in ((p, e0), (1 - p, e1))
    )


def _product_pure(rng) -> np.ndarray:
    a, b = _ket(rng), _ket(rng)
    return np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))


def _qubit_round(rng) -> list:
    """24 two-qubit states; 6 of them go to discord_swapped."""
    specs = []
    for rank in (1, 2, 3, 4):
        for swapped in (True, False, False):
            specs.append({"kind": f"hs{rank}", "raw": _gram(rng, 4, rank), "swapped": swapped})
    for swapped in (True, False, False):
        specs.append({"kind": "x", "raw": _x_state(rng), "swapped": swapped})
    for swapped in (True, False, False):
        c = rng.dirichlet(np.ones(4)) @ TETRAHEDRON
        specs.append({"kind": "bell", "raw": checks.bell_diagonal(c), "swapped": swapped, "bell": c})
    for _ in range(2):
        c = (-rng.random(),) * 3
        specs.append({"kind": "werner", "raw": checks.bell_diagonal(c), "swapped": False, "bell": c})
    for _ in range(2):
        specs.append({"kind": "cq", "raw": _classical_quantum(rng), "swapped": False, "zero_discord": True})
    for _ in range(2):
        specs.append({"kind": "product", "raw": _product_pure(rng), "swapped": False, "zero_discord": True})
    return specs


def _gaussian_round(qcorr, rng) -> list:
    """8 two-mode covariance matrices: random, thermal post-quench, TMSV."""
    specs = []
    for _ in range(4):
        cov = qcorr.random_covariance(int(rng.integers(2**31)))
        specs.append({"kind": "random", "raw": np.array(cov.sigma)})
    for _ in range(2):
        temperature, lam, t = rng.uniform(0.1, 5.0), rng.uniform(0.5, 3.0), rng.uniform(0.2, 3.0)
        mode = qcorr.thermal_covariance(1.0 / temperature, 1.0)
        evolved = qcorr.symplectic_evolution(
            qcorr.direct_sum(mode, mode), qcorr.quench_hamiltonian_matrix(1.0, lam), t
        )
        specs.append({"kind": "thermal", "raw": np.array(evolved.sigma)})
    # one squeezing below and one above TMSV_R_MAX, so the defect share is fixed
    for r in (rng.uniform(0.0, checks.TMSV_R_MAX), rng.uniform(checks.TMSV_R_MAX, 10.0)):
        specs.append({"kind": "tmsv", "raw": checks.tmsv(r), "r": r})
    return specs


class DiscordSearch(Workload):
    """An item is one state; a call builds the state object from a raw
    array, as loading a file would, and runs one search."""

    name = "discord_search"
    trace_rounds = 2
    calibration_reference_s = 0.0016
    defect_region = checks.DEFECT_REGIONS["tmsv"]
    distinct_rounds = 24

    def __init__(self, qcorr, seed: int, workdir: Path):
        self.qcorr = qcorr
        rng = np.random.default_rng([seed, 1])
        self.rounds = [
            _qubit_round(rng) + _gaussian_round(qcorr, rng) for _ in range(self.distinct_rounds)
        ]
        for spec in self.rounds[0][:24:4] + self.rounds[0][24:25]:  # both searches, both roles
            self.call(spec)

    def call(self, spec, call_id=None, traced=False):
        qcorr = self.qcorr
        if "swapped" in spec:
            rho = qcorr.DensityMatrix(spec["raw"], (2, 2))
            return (qcorr.discord_swapped if spec["swapped"] else qcorr.discord)(rho)
        cov = qcorr.CovarianceMatrix(spec["raw"])
        return cov, [
            (qcorr.gaussian_discord(cov, m), qcorr.minimize_gaussian_measurement(cov, m))
            for m in (1, 2)
        ]

    def kinds(self, spec) -> dict:
        return {"qubit_state": 1} if "swapped" in spec else {"gaussian_item": 1}

    def calibrate(self):
        """Eigen-decompositions, a partial trace and an entropy, as in one
        refinement step of the discord search."""
        for _ in range(40):
            _, vecs = np.linalg.eigh(CAL_STATE)
            for k in range(4):
                int(np.argmax(np.abs(vecs[:, k])))
            reduced = np.einsum("abad->bd", CAL_STATE.reshape(2, 2, 2, 2))
            vals = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
            float(-np.sum(vals * np.log(vals)))

    def check(self, spec, output) -> tuple:
        if "swapped" in spec:
            return checks.check_qubit(self.qcorr, spec, output)
        return checks.check_gaussian(self.qcorr, spec, output)

    def fingerprint(self, output):
        if isinstance(output, tuple):
            return repr(output[1])
        return repr(output)


# -- quench_sweep ----------------------------------------------------------

class QuenchSweep(Workload):
    """An item is one temperature point; a call is one sweep_temperature
    followed by reports_to_csv."""

    name = "quench_sweep"
    trace_rounds = 2
    calibration_reference_s = 0.0008
    defect_region = checks.DEFECT_REGIONS["quench"]

    def __init__(self, qcorr, seed: int, workdir: Path):
        self.qcorr = qcorr
        rng = np.random.default_rng([seed, 2])
        lam = np.array([0.5, 1.0, 2.0, 3.0]) * rng.uniform(0.95, 1.05, 4)
        paper, hot, hotter = (0.1, 5.0), (0.1, 1e3), (1e3, 1e7)
        # (points, temperature range, lambda0). Above T = 5 excess_dissipated_work
        # drifts: the 1000-point hot sweep at lambda0 ~ 0.5 returns wrong values,
        # while in the two 50-point hot sweeps its two routes disagree and the
        # sweep raises (the hotter one before reaching beta = 1e-7).
        plan = [
            (50, paper, lam[0]), (50, paper, lam[1]), (50, paper, lam[2]), (50, paper, lam[3]),
            (1000, paper, lam[1]), (1000, paper, lam[2]),
            (50, hot, lam[3]), (1000, hot, lam[0]), (50, hotter, lam[1]),
        ]
        self.rounds = [[
            {"points": n, "t_min": lo, "t_max": hi, "lambda0": float(lam0)}
            for n, (lo, hi), lam0 in plan
        ]]
        self.reference = checks.ExcessReference()
        self.call({"points": 50, "t_min": 0.1, "t_max": 5.0, "lambda0": 1.0})

    def items(self, spec) -> int:
        return spec["points"]

    def kinds(self, spec) -> dict:
        return {"gaussian_item": spec["points"]}

    def calibrate(self):
        """A 4x4 matrix exponential, a congruence and its eigenvalues, and
        scalar hyperbolic functions, as at one sweep point."""
        from scipy.linalg import expm  # imported here so set-up pays only for qcorr's imports

        for i in range(20):
            s = expm(CAL_GENERATOR)
            vals = np.linalg.eigvals(s @ s.T)
            sorted(np.abs(vals.imag))
            math.log(math.sinh(1.0 + i)) - 0.5 / math.tanh(0.5 + i)

    def call(self, spec, call_id=None, traced=False):
        qcorr = self.qcorr
        reports = qcorr.sweep_temperature(
            qcorr.QuenchParams(lambda0=spec["lambda0"]), spec["t_min"], spec["t_max"], spec["points"]
        )
        return reports, qcorr.reports_to_csv(reports)

    def check(self, spec, output) -> tuple:
        return checks.check_sweep(self.reference, spec, output)

    def fingerprint(self, output):
        return output[1] if isinstance(output, tuple) else repr(output)


# -- cli_cold --------------------------------------------------------------

CONSOLE_SCRIPT = "import sys; from qcorr.cli import main; sys.exit(main())"


def _numbers(text: str) -> list:
    """Numbers of a JSON document in document order, or of a CSV body."""
    text = text.strip()
    if text.startswith(("{", "[")):
        out = []

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            else:
                out.append(node)

        walk(json.loads(text))
        return out
    rows = text.splitlines()
    start = 1 if rows and rows[0][:1].isalpha() else 0
    return [float(x) for row in rows[start:] for x in row.split(",")]


def _fmt(x: float) -> str:
    return repr(float(x))


class CliCold(Workload):
    """An item and a call are both one fresh interpreter running one CLI
    verb, one after another; the round is the README's command list."""

    name = "cli_cold"
    trace_rounds = 1
    in_process = False
    calibration_reps = 6
    calibration_reference_s = 0.165

    def __init__(self, qcorr, seed: int, workdir: Path):
        self.qcorr = qcorr
        self.workdir = workdir
        rng = np.random.default_rng([seed, 3])
        dist = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        state = _gram(rng, 4, int(rng.integers(1, 5)))
        bell = checks.bell_diagonal(rng.dirichlet(np.ones(4)) @ TETRAHEDRON)
        cov = np.array(qcorr.random_covariance(int(rng.integers(2**31))).sigma)
        angle = rng.uniform(0.1, 1.4)
        beta, lam_point, lam_sweep = rng.uniform(0.2, 10.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        self.inputs = {"dist": dist, "joint": joint, "state": state, "bell": bell, "cov": cov,
                       "alpha": math.cos(angle), "beta": math.sin(angle),
                       "beta_point": beta, "lambda_point": lam_point, "lambda_sweep": lam_sweep}
        for name, mat in (("state", state), ("bell", bell)):
            payload = {"dims": [2, 2], "matrix": [[z.real, z.imag] for z in mat.ravel()]}
            (workdir / f"{name}.json").write_text(json.dumps(payload))
        (workdir / "covariance.json").write_text(json.dumps(cov.tolist()))
        self.rounds = [[
            {"verb": "entropy", "argv": ["entropy", "--dist", ",".join(map(_fmt, dist))]},
            {"verb": "mutual-info",
             "argv": ["mutual-info", "--joint", ";".join(",".join(map(_fmt, row)) for row in joint)]},
            {"verb": "qstate", "argv": ["qstate", "--state", str(workdir / "state.json")]},
            {"verb": "discord", "argv": ["discord", "--state", str(workdir / "bell.json")]},
            {"verb": "gaussian", "argv": ["gaussian", "--cov", str(workdir / "covariance.json"),
                                          "--measured-mode", "1"]},
            {"verb": "everett", "argv": ["everett", "--alpha", _fmt(self.inputs["alpha"]),
                                         "--beta", _fmt(self.inputs["beta"]), "--points", "11", "--out"]},
            {"verb": "quench point", "argv": ["quench", "point", "--beta", _fmt(beta),
                                              "--lambda0", _fmt(lam_point), "--omega", "1"]},
            {"verb": "quench sweep", "argv": ["quench", "sweep", "--lambda0", _fmt(lam_sweep),
                                              "--omega", "1", "--t-min", "0.1", "--t-max", "5",
                                              "--points", "50", "--out"]},
        ]]
        self.reference = checks.ExcessReference()
        self.call(self.rounds[0][0], "warmup")

    def call(self, spec, call_id=None, traced=False):
        argv = list(spec["argv"])
        out = None
        if argv[-1] == "--out":
            out = self.workdir / f"out-{call_id}.csv"
            argv.append(str(out))
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_launch.py"), str(self.spans_path(call_id)), *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, out

    def kinds(self, spec) -> dict:
        return {"cli_call": 1}

    def calibrate(self):
        """A fresh interpreter importing numpy and nothing else."""
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)

    def spans_path(self, call_id) -> Path:
        return self.workdir / f"spans-{call_id}.json"

    def fingerprint(self, output):
        if isinstance(output, Exception):
            return repr(output)
        code, stdout, out = output
        return code, stdout, out.read_text() if out is not None else None

    def expected(self, verb: str):
        """In-process library results for one verb, plus the verdict of the
        independent reference where one exists."""
        q, inp = self.qcorr, self.inputs
        if verb == "entropy":
            return [q.shannon_entropy(q.Distribution(inp["dist"]))], True
        if verb == "mutual-info":
            return [q.mutual_information(q.JointDistribution(inp["joint"]))], True
        if verb == "qstate":
            rho = q.DensityMatrix(inp["state"], (2, 2))
            halves = [q.von_neumann_entropy(q.partial_trace(rho, side)) for side in "AB"]
            values = [2, 2, q.von_neumann_entropy(rho), *halves,
                      q.quantum_mutual_information(rho), *q.araki_lieb_check(rho)]
            return values, abs(values[5] - checks.reference_mutual_info(inp["state"])) <= checks.QUBIT_TOL
        if verb == "discord":
            r = q.discord(q.DensityMatrix(inp["bell"], (2, 2)))
            values = [r.mutual_info, r.classical_corr, r.discord, r.optimal_basis.theta,
                      r.optimal_basis.phi, r.trace.evaluations, r.trace.converged]
            c = np.real([np.trace(inp["bell"] @ np.kron(p, p)) for p in checks.PAULI])
            spec = {"raw": inp["bell"], "swapped": False, "bell": c}
            return values, checks.check_qubit(q, spec, r)[0] == 1
        if verb == "gaussian":
            cov = q.CovarianceMatrix(inp["cov"])
            closed = q.gaussian_discord(cov, 1)
            values = [*q.symplectic_eigenvalues(cov), q.gaussian_entropy(cov), closed]
            return values, abs(closed - q.minimize_gaussian_measurement(cov, 1)) <= checks.GAUSSIAN_TOL
        if verb == "everett":
            obs = q.computational_basis_observable(2)
            values = []
            for eps in np.linspace(0.0, 1.0, 11):
                psi = q.everett_state(complex(inp["alpha"]), complex(inp["beta"]), float(eps))
                rho = q.density_from_pure(psi)
                values += [float(eps), q.measurement_mutual_information(rho, obs, obs),
                           q.quantum_mutual_information(rho)]
            return values, True
        if verb == "quench point":
            lam = inp["lambda_point"]
            reports = [q.report_at(q.QuenchParams(lambda0=lam, beta=inp["beta_point"]))]
        else:
            lam = inp["lambda_sweep"]
            reports = q.sweep_temperature(q.QuenchParams(lambda0=lam), 0.1, 5.0, 50)
        values = [getattr(r, f) for r in reports for f in q.quench.CSV_FIELDS]
        return values, all(checks.excess_ok(self.reference, lam, r) for r in reports)

    def check(self, spec, output) -> tuple:
        if isinstance(output, Exception):
            return 0, 0, 1
        code, stdout, out = output
        if code != 0:
            return 0, 0, 1
        got = _numbers(out.read_text() if out is not None else stdout)
        values, reference_ok = self.expected(spec["verb"])
        return (1, 0, 0) if reference_ok and got == values else (0, 0, 1)


WORKLOADS = {w.name: w for w in (DiscordSearch, QuenchSweep, CliCold)}
