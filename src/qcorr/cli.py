"""Command-line front end.

Every subcommand is a thin wrapper over a library call: the CLI parses,
dispatches, and serializes, adding no arithmetic of its own. It alone knows
the two file formats: :func:`_read_density_matrix` and :func:`_read_covariance`
read a JSON file into the validated object; the library takes arrays. Each verb
handler returns its data (a float, a dict, or CSV text); :func:`main` is
the one renderer: text as it is, anything else one line of JSON whose
floats carry 17 significant digits, so output round-trips 64-bit floats
exactly. Output files are written only after the computation has fully
succeeded.

Exit codes: 0 on success, 2 on usage errors (unknown verbs or flags,
malformed values), 1 on data errors (unreadable files, violated state
invariants).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gaussian as gaussian_mod
from . import measurement, probability, quench, states
from .discord import discord as discord_of_state
from .errors import ConsistencyError, ValidationError


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _dumps(obj) -> str:
    """JSON with every float rendered at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return '"inf"' if math.isinf(obj) else _fmt(obj)
    return json.dumps(obj)


def _parse_distribution(text: str) -> probability.Distribution:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse --dist value {text!r}: {exc}")
    return probability.Distribution(values)


def _parse_joint(text: str) -> probability.JointDistribution:
    try:
        rows = [[float(tok) for tok in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ValidationError(f"could not parse --joint value {text!r}: {exc}")
    return probability.JointDistribution(rows)


def _read_density_matrix(path: str) -> states.DensityMatrix:
    """``{"dims": [d_a, d_b], "matrix": [[re, im], ...]}``, the matrix flattened row-major."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"density matrix file is not valid JSON: {exc}") from None
    if not (isinstance(payload, dict) and "dims" in payload and "matrix" in payload):
        raise ValidationError(f"density matrix must be a JSON object with 'dims' and 'matrix'; got {type(payload).__name__}")
    try:
        flat = np.array([complex(re, im) for re, im in payload["matrix"]])
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond the float range
        raise ValidationError(f"matrix must be a list of [re, im] number pairs: {exc}") from None
    dim = math.isqrt(flat.size)
    if dim * dim != flat.size:
        raise ValidationError(f"matrix length {flat.size} is not a perfect square")
    return states.DensityMatrix(flat.reshape(dim, dim), payload["dims"])


def _read_covariance(path: str) -> gaussian_mod.CovarianceMatrix:
    """The covariance matrix as a JSON array of its rows of numbers."""
    text = Path(path).read_text(encoding="utf-8")
    try:  # bad JSON, ragged rows, non-numbers and integers beyond the float range
        mat = np.asarray(json.loads(text), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"covariance matrix must be a JSON array of rows of numbers: {exc}") from None
    return gaussian_mod.CovarianceMatrix(mat)


def everett_demo(alpha: complex, beta: complex, eps_values):
    """Rows (eps, measurement mutual information, quantum mutual
    information of the global state) over a grid of pointer overlaps.

    Puts the observable-level correlations next to the state-level ones:
    the first is capped at ln 2 while the second reaches 2 ln 2.
    """
    observable = measurement.computational_basis_observable(2)
    rows = []
    for eps in eps_values:
        psi = measurement.everett_state(alpha, beta, float(eps))
        rho = states.density_from_pure(psi)
        meas_info = measurement.measurement_mutual_information(rho, observable, observable)
        rows.append((float(eps), meas_info, states.quantum_mutual_information(rho)))
    return rows


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValidationError(f"could not parse complex amplitude {text!r}: {exc}")


# -- verb handlers -------------------------------------------------------

def _cmd_entropy(args) -> float:
    value = probability.shannon_entropy(_parse_distribution(args.dist))
    return value / math.log(2.0) if args.bits else value


def _cmd_mutual_info(args) -> float:
    value = probability.mutual_information(_parse_joint(args.joint))
    return value / math.log(2.0) if args.bits else value


def _cmd_qstate(args) -> dict:
    rho = _read_density_matrix(args.state)
    report = {"dims": rho.dims, "entropy": states.von_neumann_entropy(rho)}
    if rho.is_bipartite:
        report.update(
            entropy_a=states.von_neumann_entropy(states.partial_trace(rho, "A")),
            entropy_b=states.von_neumann_entropy(states.partial_trace(rho, "B")),
            mutual_information=states.quantum_mutual_information(rho),
            araki_lieb=states.araki_lieb_check(rho),
        )
    return report


def _cmd_discord(args) -> dict:
    rho = _read_density_matrix(args.state)
    result = discord_of_state(rho)
    return {
        "mutual_info": result.mutual_info,
        "classical_corr": result.classical_corr,
        "discord": result.discord,
        "theta": result.optimal_basis.theta,
        "phi": result.optimal_basis.phi,
        "evaluations": result.trace.evaluations,
        "converged": result.trace.converged,
    }


def _cmd_gaussian(args) -> dict:
    sigma = _read_covariance(args.cov)
    discord = gaussian_mod.gaussian_discord(sigma, args.measured_mode)  # rejects all but two modes
    nu_minus, nu_plus = gaussian_mod.symplectic_eigenvalues(sigma)
    return {
        "nu_minus": nu_minus,
        "nu_plus": nu_plus,
        "entropy": gaussian_mod.gaussian_entropy(sigma),
        "discord": discord,
    }


def _cmd_everett(args) -> str:
    if args.points < 2:
        raise ValidationError(f"--points must be at least 2; got {args.points}")
    rows = everett_demo(_parse_complex(args.alpha), _parse_complex(args.beta),
                        np.linspace(0.0, 1.0, args.points))
    lines = ["epsilon,measurement_mutual_information,quantum_mutual_information"]
    for eps, meas_info, q_info in rows:
        lines.append(f"{_fmt(eps)},{_fmt(meas_info)},{_fmt(q_info)}")
    return "\n".join(lines) + "\n"


def _cmd_quench(args):
    """Both quench verbs. The library works at hbar = k_B = 1, so the units are
    converted here, once: omega -> hbar omega, lambda0 -> hbar lambda0,
    t -> t / hbar, T -> k_B T, and the temperature column back by 1 / k_B."""
    hbar, kb, sweep = args.hbar, args.kb, args.quench_verb == "sweep"
    for name, value in (("hbar", hbar), ("kb", kb)):
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{name} must be {'strictly positive' if math.isfinite(value) else 'finite'}; got {value}")
    scaled = {"omega": args.omega * hbar, "lambda0": args.lambda0 * hbar, "time": args.time / hbar}
    if sweep:
        quench._require_temperature_range(args.t_min, args.t_max)  # as given, so that its message quotes them
        scaled.update(t_min=kb * args.t_min, t_max=kb * args.t_max)
    for name, value in scaled.items():
        if math.isfinite(getattr(args, name)) and not math.isfinite(value):
            unit = "kb" if name.startswith("t_") else "hbar"
            raise ValidationError(f"--{name.replace('_', '-')} {getattr(args, name)!r} with --{unit} {getattr(args, unit)!r} overflows at hbar = k_B = 1; got {value}")
    params = quench.QuenchParams(omega=scaled["omega"], lambda0=scaled["lambda0"], beta=getattr(args, "beta", 1.0))
    reports = (quench.sweep_temperature(params, scaled["t_min"], scaled["t_max"], args.points, scaled["time"])
               if sweep else [quench.report_at(params, scaled["time"])])
    reports = [report._replace(temperature=report.temperature / kb) for report in reports]
    return quench.reports_to_csv(reports) if sweep else reports[0]._asdict()


# -- parser --------------------------------------------------------------

def _add_quench_physics_flags(parser):
    parser.add_argument("--lambda0", type=float, default=1.0, help="quench amplitude")
    parser.add_argument("--omega", type=float, default=1.0, help="oscillator frequency")
    parser.add_argument("--hbar", type=float, default=1.0, help="reduced Planck constant")
    parser.add_argument("--kb", type=float, default=1.0, help="Boltzmann constant")
    parser.add_argument("--time", type=float, default=1.0, help="evolution time for the discord")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Classical and quantum correlation measures and quench thermodynamics",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("entropy", help="Shannon entropy of a distribution")
    p.add_argument("--dist", required=True, help="comma-separated probabilities")
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    p.set_defaults(handler=_cmd_entropy)

    p = verbs.add_parser("mutual-info", help="Shannon mutual information of a joint table")
    p.add_argument("--joint", required=True, help="semicolon-separated rows of comma-separated probabilities")
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    p.set_defaults(handler=_cmd_mutual_info)

    p = verbs.add_parser("qstate", help="entropic report on a density-matrix file")
    p.add_argument("--state", required=True, help="path to a state JSON file")
    p.set_defaults(handler=_cmd_qstate)

    p = verbs.add_parser("discord", help="two-qubit discord of a density-matrix file")
    p.add_argument("--state", required=True, help="path to a state JSON file")
    p.set_defaults(handler=_cmd_discord)

    p = verbs.add_parser("gaussian", help="symplectic report and discord of a covariance file")
    p.add_argument("--cov", required=True, help="path to a covariance JSON file")
    p.add_argument("--measured-mode", type=int, default=1, choices=(1, 2))
    p.set_defaults(handler=_cmd_gaussian)

    p = verbs.add_parser("everett", help="pointer-overlap sweep of measurement correlations")
    p.add_argument("--alpha", required=True, help="amplitude of |0>, e.g. 0.7071 or 0.5+0.5j")
    p.add_argument("--beta", required=True, help="amplitude of |1>")
    p.add_argument("--points", type=int, default=11, help="overlap grid size")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(handler=_cmd_everett)

    p = verbs.add_parser("quench", help="sudden-quench thermodynamics")
    quench_verbs = p.add_subparsers(dest="quench_verb", required=True)

    sweep = quench_verbs.add_parser("sweep", help="temperature sweep as CSV")
    _add_quench_physics_flags(sweep)
    sweep.add_argument("--t-min", type=float, default=0.1, help="lowest temperature")
    sweep.add_argument("--t-max", type=float, default=5.0, help="highest temperature")
    sweep.add_argument("--points", type=int, default=50, help="grid size")
    sweep.add_argument("--out", help="CSV output path (stdout when omitted)")
    sweep.set_defaults(handler=_cmd_quench)

    point = quench_verbs.add_parser("point", help="single-temperature report as JSON")
    _add_quench_physics_flags(point)
    point.add_argument("--beta", type=float, required=True, help="inverse temperature")
    point.set_defaults(handler=_cmd_quench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # None reads sys.argv[1:]
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.handler(args)
        text = out if isinstance(out, str) else _dumps(out) + "\n"
        if getattr(args, "out", None) is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="ascii")
    except (ValidationError, ConsistencyError, OSError, UnicodeDecodeError) as exc:
        print(f"qcorr: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
