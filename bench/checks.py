"""Independent references and the correctness verdict of each item.

Every check returns ``(ok, defect, failed)`` item counts. ``defect`` counts
wrong or raising items that lie in a known-defect region recorded in
ROADMAP item 4 (listed in ``DEFECT_REGIONS``); ``failed`` counts wrong or
raising items anywhere else and makes the run incorrect. Both count
towards the reported ``fail_frac``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

QUBIT_TOL = 1e-9          # two-qubit invariants and closed forms, nats
GAUSSIAN_TOL = 1e-6       # closed form vs. measurement search (the suite's gate)
EXCESS_REL_TOL = 1e-8     # omega_excess vs. mpmath, relative
PAPER_T_MAX = 5.0         # top of the paper's figure range (hbar = omega = kB = 1)
TMSV_R_MAX = 4.0          # squeezing above which TMSV values are known to drift;
                          # the first failure on a 0.0025 grid is at r = 4.18

DEFECT_REGIONS = {
    "quench": f"temperature > {PAPER_T_MAX:g}: cancellation in excess_dissipated_work "
    "gives wrong values, or its two routes disagree and the sweep raises",
    "tmsv": f"two-mode squeezed vacuum with r > {TMSV_R_MAX:g}: symplectic spectrum "
    "loses accuracy, construction rejects or mis-states the state",
}

REFERENCE_DIGITS = 40


def _verdict(good: bool, in_defect_region: bool, items: int = 1):
    if good:
        return items, 0, 0
    return (0, items, 0) if in_defect_region else (0, 0, items)


# -- two-qubit discord ---------------------------------------------------

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
SWAP = [0, 2, 1, 3]


def swap_parties(raw: np.ndarray) -> np.ndarray:
    return raw[np.ix_(SWAP, SWAP)]


def _entropy(vals) -> float:
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log(vals)))


def reference_mutual_info(raw: np.ndarray) -> float:
    """S(A) + S(B) - S(AB) from plain eigenvalues, in nats."""
    four = raw.reshape(2, 2, 2, 2)
    rho_a = np.einsum("abcb->ac", four)
    rho_b = np.einsum("abad->bd", four)
    return sum(
        sign * _entropy(np.linalg.eigvalsh(m))
        for sign, m in ((1, rho_a), (1, rho_b), (-1, raw))
    )


def luo_bell_diagonal(c) -> tuple:
    """Mutual information and discord of the Bell-diagonal state
    (1 + sum_i c_i sigma_i (x) sigma_i) / 4, in nats (Luo, PRA 77, 042303, 2008)."""
    c1, c2, c3 = c
    lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
    info = 2 * math.log(2) - _entropy(lam)
    top = max(abs(x) for x in c)
    classical = sum((1 + s * top) / 2 * math.log(1 + s * top) for s in (1, -1) if 1 + s * top > 0)
    return info, info - classical


def bell_diagonal(c) -> np.ndarray:
    return (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, PAULI))) / 4


def check_qubit(qcorr, spec: dict, output) -> tuple:
    """``output`` is the ``DiscordResult`` of ``discord`` (or ``discord_swapped``)
    or the exception the call raised."""
    if isinstance(output, Exception):
        return _verdict(False, False)
    raw = swap_parties(spec["raw"]) if spec["swapped"] else spec["raw"]
    info, classical, disc = output.mutual_info, output.classical_corr, output.discord
    good = (
        info + QUBIT_TOL >= classical >= -QUBIT_TOL
        and abs(disc - (info - classical)) <= QUBIT_TOL
        and abs(info - reference_mutual_info(raw)) <= QUBIT_TOL
    )
    if good:
        rho = qcorr.DensityMatrix(raw, (2, 2))
        povm_route = qcorr.classical_correlations_at(rho, output.optimal_basis)
        good = abs(classical - povm_route) <= QUBIT_TOL
    if good and "bell" in spec:
        ref_info, ref_disc = luo_bell_diagonal(spec["bell"])
        good = abs(info - ref_info) <= QUBIT_TOL and abs(disc - ref_disc) <= QUBIT_TOL
    if good and spec.get("zero_discord"):
        good = abs(disc) <= QUBIT_TOL
    return _verdict(good, False)


# -- two-mode Gaussian discord -------------------------------------------

def tmsv(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum, vacuum variance 1/2, order (x1, p1, x2, p2)."""
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])


def tmsv_discord(r: float) -> float:
    """cosh^2 r ln cosh^2 r - sinh^2 r ln sinh^2 r."""
    ch, sh = math.cosh(r) ** 2, math.sinh(r) ** 2
    return ch * math.log(ch) - (sh * math.log(sh) if sh > 0 else 0.0)


def check_gaussian(qcorr, spec: dict, output) -> tuple:
    """``output`` is ``(cov, [(closed, searched) for measured modes 1, 2])``
    or the exception the call raised."""
    in_region = spec.get("r", 0.0) > TMSV_R_MAX
    if isinstance(output, Exception):
        return _verdict(False, in_region)
    cov, pairs = output
    good = all(abs(closed - searched) <= GAUSSIAN_TOL for closed, searched in pairs)
    if good and "r" in spec:
        nus = qcorr.symplectic_eigenvalues(cov)
        expected = tmsv_discord(spec["r"])
        good = all(abs(nu - 0.5) <= GAUSSIAN_TOL for nu in nus) and all(
            abs(value - expected) <= GAUSSIAN_TOL for pair in pairs for value in pair
        )
    return _verdict(good, in_region)


# -- quench thermodynamics -----------------------------------------------

def reference_excess(lambda0: float, beta: float) -> float:
    """Quantum minus classical irreversible work at omega = hbar = m = 1,
    evaluated in 40-digit arithmetic."""
    with mpmath.workdps(REFERENCE_DIGITS):
        b, lam = mpmath.mpf(beta), mpmath.mpf(lambda0)
        w2 = mpmath.sqrt(1 + 2 * lam**2)
        quantum = lam**2 / 2 * mpmath.coth(b / 2) - mpmath.log(mpmath.sinh(b * w2 / 2) / mpmath.sinh(b / 2)) / b
        classical = lam**2 / b - mpmath.log(1 + 2 * lam**2) / (2 * b)
        return float(quantum - classical)


class ExcessReference:
    """Memoized mpmath references, so repeated sweeps cost one evaluation."""

    def __init__(self):
        self._cache = {}

    def __call__(self, lambda0: float, temperature: float) -> float:
        key = (lambda0, temperature)
        if key not in self._cache:
            self._cache[key] = reference_excess(lambda0, 1.0 / temperature)
        return self._cache[key]


def excess_ok(reference: ExcessReference, lambda0: float, report) -> bool:
    ref = reference(lambda0, report.temperature)
    return abs(report.omega_excess - ref) <= EXCESS_REL_TOL * abs(ref)


def check_sweep(reference: ExcessReference, spec: dict, output) -> tuple:
    """``output`` is ``(reports, csv_text)`` or the exception raised.
    One item per temperature point. A sweep that raises fails every point;
    they are known defects when its range reaches above ``PAPER_T_MAX``."""
    temps = np.linspace(spec["t_min"], spec["t_max"], spec["points"])
    hot = temps > PAPER_T_MAX
    if isinstance(output, Exception):
        return _verdict(False, bool(hot.any()), spec["points"])
    reports, text = output
    lines = text.splitlines()
    fields = lines[0].split(",")
    good_csv = len(lines) == len(reports) + 1 == spec["points"] + 1
    ok = defect = failed = 0
    for i, report in enumerate(reports):
        row = [float(x) for x in lines[i + 1].split(",")] if good_csv else []
        good = (
            good_csv
            and math.isclose(report.temperature, temps[i], rel_tol=1e-14)
            and row == [getattr(report, f) for f in fields]
            and math.isfinite(report.gaussian_discord)
            and report.gaussian_discord >= 0.0
            and excess_ok(reference, spec["lambda0"], report)
        )
        o, d, f = _verdict(good, bool(hot[i]))
        ok, defect, failed = ok + o, defect + d, failed + f
    return ok, defect, failed
