import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import random_covariance, random_density_matrix
from qcorr.cli import _read_covariance, _read_density_matrix, everett_demo, main

from .conftest import bell_density

LN2 = 0.6931471805599453


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def density_json(rho) -> str:
    """The density matrix file format: dims, and the elements row-major as [re, im] pairs."""
    return json.dumps({"dims": list(rho.dims), "matrix": [[z.real, z.imag] for z in rho.elements.ravel().tolist()]})


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(density_json(bell_density()))
    return str(path)


@pytest.fixture
def vacuum_cov_file(tmp_path):
    path = tmp_path / "vacuum.json"
    path.write_text(json.dumps((0.5 * np.eye(4)).tolist()))
    return str(path)


class TestEntropyVerb:
    def test_half_half_prints_17_digits(self, capsys):
        code, out, _ = run(capsys, "entropy", "--dist", "0.5,0.5")
        assert code == 0
        assert out == "0.69314718055994529\n"

    def test_point_mass_prints_zero(self, capsys):
        """Not -0: the entropy of a point mass is +0.0."""
        for argv in (("entropy", "--dist", "1,0"), ("entropy", "--dist", "1,0", "--bits")):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, "0\n")

    def test_bits_flag(self, capsys):
        code, out, _ = run(capsys, "entropy", "--dist", "0.5,0.5", "--bits")
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_distribution_is_data_error(self, capsys):
        code, _, err = run(capsys, "entropy", "--dist", "0.5,0.6")
        assert code == 1
        assert "sum" in err

    @pytest.mark.parametrize("dist", ["0.5,nan", "nan", "0.5,inf"])
    def test_non_finite_distribution_is_data_error(self, capsys, dist):
        code, out, err = run(capsys, "entropy", "--dist", dist)
        assert code == 1
        assert out == ""
        assert err == "qcorr: error: distribution must be finite; got a NaN or infinite entry\n"


class TestMutualInfoVerb:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "mutual-info", "--joint", "0.4,0.1;0.2,0.3")
        assert code == 0
        assert float(out) == pytest.approx(0.08630462173553428, abs=1e-12)

    def test_non_finite_table_is_data_error(self, capsys):
        code, out, err = run(capsys, "mutual-info", "--joint", "nan,0;0,0.5")
        assert code == 1
        assert out == ""
        assert err == "qcorr: error: joint table must be finite; got a NaN or infinite entry\n"


class TestUsageErrors:
    def test_unknown_verb_exits_2(self, capsys):
        code, _, err = run(capsys, "not-a-verb")
        assert code == 2

    def test_unknown_flag_exits_2_and_names_flag(self, capsys):
        code, _, err = run(capsys, "entropy", "--dist", "0.5,0.5", "--frobnicate")
        assert code == 2
        assert "--frobnicate" in err

    def test_missing_required_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "entropy")
        assert code == 2
        assert "--dist" in err

    def test_bad_float_exits_2(self, capsys):
        code, _, err = run(capsys, "quench", "point", "--beta", "warm")
        assert code == 2
        assert "--beta" in err


def assert_data_error(code, out, err, *words):
    """Exit 1, nothing on stdout, one diagnostic line naming ``words``."""
    assert code == 1
    assert out == ""
    assert err.startswith("qcorr: error: ") and err.count("\n") == 1
    for word in words:
        assert word in err


class TestLoadState:
    """Each verb reads the one file format it needs; the malformed files of
    ``ERROR_BYTES`` below are pinned there, line for line."""

    def test_gaussian_needs_two_modes(self, capsys, tmp_path):
        path = tmp_path / "one_mode.json"
        path.write_text(json.dumps((0.5 * np.eye(2)).tolist()))
        code, out, err = run(capsys, "gaussian", "--cov", str(path))
        assert_data_error(code, out, err, "two-mode", "1 mode")

    @pytest.mark.parametrize("verb, flag", [("qstate", "--state"), ("gaussian", "--cov")])
    def test_non_utf8_file_is_data_error(self, capsys, tmp_path, verb, flag):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe[[0.5")
        code, out, err = run(capsys, verb, flag, str(path))
        assert_data_error(code, out, err, "utf-8")

    def test_trace_violation_named(self, tmp_path, capsys):
        payload = {
            "dims": [2, 1],
            "matrix": [[0.49, 0.0], [0.0, 0.0], [0.0, 0.0], [0.49, 0.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "qstate", "--state", str(path))
        assert code == 1
        assert "trace" in err and "0.98" in err

    def test_unphysical_covariance_named(self, tmp_path, capsys):
        path = tmp_path / "bad_cov.json"
        path.write_text(json.dumps([[0.4 if i == j else 0.0 for j in range(4)] for i in range(4)]))
        code, _, err = run(capsys, "gaussian", "--cov", str(path))
        assert code == 1
        assert "uncertainty" in err and "0.4" in err

    def test_indefinite_covariance_is_data_error(self, tmp_path, capsys):
        """Symmetric, eigenvalues -1.48 twice, and |Im eig(Omega sigma)| = (1, 1)."""
        path = tmp_path / "indefinite_cov.json"
        path.write_text(json.dumps([[4, 0, 6.4, 0], [0, 4, 0, -6.4], [6.4, 0, 6, 0], [0, -6.4, 0, 6]]))
        code, out, err = run(capsys, "gaussian", "--cov", str(path))
        assert_data_error(code, out, err, "not positive definite")

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "qstate", "--state", "/nonexistent.json")
        assert code == 1

    def test_files_of_64_bit_floats_read_bit_for_bit(self, tmp_path):
        """A file of a matrix's floats, as ``json.dumps`` writes them, reads
        back as bit-identical elements through each reader."""
        rho, sigma = random_density_matrix((2, 2), 3, seed=9), random_covariance(2)
        (tmp_path / "rho.json").write_text(density_json(rho))
        (tmp_path / "cov.json").write_text(json.dumps(sigma.sigma.tolist()))
        recovered = _read_density_matrix(str(tmp_path / "rho.json"))
        assert np.array_equal(recovered.elements, rho.elements) and recovered.dims == rho.dims
        assert np.array_equal(_read_covariance(str(tmp_path / "cov.json")).sigma, sigma.sigma)


class TestQstateVerb:
    def test_bell_report(self, capsys, bell_file):
        code, out, _ = run(capsys, "qstate", "--state", bell_file)
        assert code == 0
        report = json.loads(out)
        assert report["dims"] == [2, 2]
        assert report["entropy"] == pytest.approx(0.0, abs=1e-10)
        assert report["mutual_information"] == pytest.approx(2 * LN2, abs=1e-10)
        lower, middle, upper = report["araki_lieb"]
        assert lower <= middle + 1e-12 <= upper + 1e-12


class TestDiscordVerb:
    def test_bell_discord(self, capsys, bell_file):
        code, out, _ = run(capsys, "discord", "--state", bell_file)
        assert code == 0
        report = json.loads(out)
        assert abs(report["classical_corr"] - LN2) <= 1e-15
        assert report["discord"] == pytest.approx(LN2, abs=1e-6)
        assert report["mutual_info"] == pytest.approx(2 * LN2, abs=1e-9)
        # C is constant on the Bell pair; the search then returns the pole (0, 0)
        assert (report["theta"], report["phi"]) == (0.0, 0.0)
        assert report["converged"] is True


class TestGaussianVerb:
    def test_vacuum_report(self, capsys, vacuum_cov_file):
        code, out, _ = run(capsys, "gaussian", "--cov", vacuum_cov_file)
        assert code == 0
        report = json.loads(out)
        assert report["nu_minus"] == pytest.approx(0.5, abs=1e-12)
        assert report["entropy"] == pytest.approx(0.0, abs=1e-12)
        assert report["discord"] == pytest.approx(0.0, abs=1e-9)


class TestEverettVerb:
    def test_demo_rows(self):
        rows = everett_demo(1 / math.sqrt(2), 1 / math.sqrt(2), [0.0, 1.0])
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(LN2, abs=1e-10)
        assert rows[0][2] == pytest.approx(2 * LN2, abs=1e-10)
        assert rows[1][1] == pytest.approx(0.0, abs=1e-10)
        assert rows[1][2] == pytest.approx(0.0, abs=1e-10)

    def test_csv_columns_monotone(self, capsys, tmp_path):
        out_path = tmp_path / "everett.csv"
        code, _, _ = run(
            capsys,
            "everett",
            "--alpha", "0.7071067811865476",
            "--beta", "0.7071067811865476",
            "--points", "11",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "epsilon,measurement_mutual_information,quantum_mutual_information"
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        assert len(rows) == 11
        for earlier, later in zip(rows, rows[1:]):
            assert later[1] <= earlier[1] + 1e-9
            assert later[2] <= earlier[2] + 1e-9

    @pytest.mark.parametrize("points", ["-3", "0", "1"])
    def test_fewer_than_two_points_is_data_error(self, capsys, tmp_path, points):
        out_path = tmp_path / "never.csv"
        code, out, err = run(
            capsys, "everett", "--alpha", "1", "--beta", "0", "--points", points, "--out", str(out_path)
        )
        assert_data_error(code, out, err, "--points must be at least 2")
        assert not out_path.exists()

    def test_two_points_are_the_endpoints(self, capsys):
        code, out, _ = run(capsys, "everett", "--alpha", "1", "--beta", "0", "--points", "2")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["0", "1"]


class TestQuenchVerbs:
    def test_point_report(self, capsys):
        code, out, _ = run(
            capsys, "quench", "point", "--beta", "1", "--lambda0", "1", "--omega", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["w_c_avg"] == pytest.approx(1.0, abs=1e-12)
        assert report["omega_excess"] == pytest.approx(0.0012856453300760637, abs=1e-9)

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "quench", "sweep",
            "--lambda0", "1", "--omega", "1",
            "--t-min", "0.1", "--t-max", "5", "--points", "50",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 51
        assert lines[0].startswith("temperature,")

    def test_sweep_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "quench", "sweep",
                "--lambda0", "1", "--omega", "1",
                "--t-min", "0.5", "--t-max", "2.0", "--points", "7",
                "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_usage_error_writes_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "never.csv"
        code, _, _ = run(
            capsys,
            "quench", "sweep",
            "--points", "not-a-number",
            "--out", str(out_path),
        )
        assert code == 2
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--lambda0", "nan", "lambda0"),
            ("--omega", "inf", "omega"),
            ("--hbar", "inf", "hbar"),
            ("--hbar", "nan", "hbar"),
            ("--kb", "nan", "kb"),
            ("--kb", "inf", "kb"),
            ("--time", "nan", "evolution_time"),
            ("--time", "inf", "evolution_time"),
        ],
    )
    @pytest.mark.parametrize("verb", ["point", "sweep"])
    def test_non_finite_input_is_a_data_error(self, capsys, verb, flag, value, name):
        argv = ["quench", verb, flag, value] + (["--beta", "1"] if verb == "point" else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"qcorr: error: {name} must be finite")

    @pytest.mark.parametrize("flag, value", [("--hbar", "0"), ("--hbar", "-1"), ("--kb", "0"), ("--kb", "-2")])
    @pytest.mark.parametrize("verb", ["point", "sweep"])
    def test_non_positive_unit_is_a_data_error(self, capsys, verb, flag, value):
        argv = ["quench", verb, flag, value] + (["--beta", "1"] if verb == "point" else [])
        code, out, err = run(capsys, *argv)
        assert_data_error(code, out, err, f"{flag[2:]} must be strictly positive; got {float(value)}")

    @pytest.mark.parametrize(
        "verb, argv, flag, unit",
        [
            ("point", ("--omega", "1e300", "--hbar", "1e10"), "--omega", "--hbar"),
            ("sweep", ("--lambda0", "1e200", "--hbar", "1e200"), "--lambda0", "--hbar"),
            ("point", ("--time", "1e300", "--hbar", "1e-10"), "--time", "--hbar"),
            ("sweep", ("--t-min", "1e300", "--t-max", "1e301", "--kb", "1e10"), "--t-min", "--kb"),
            ("sweep", ("--t-max", "1e300", "--kb", "1e10"), "--t-max", "--kb"),
        ],
    )
    def test_overflowing_conversion_names_both_flags(self, capsys, verb, argv, flag, unit):
        # each input is finite, but hbar omega, hbar lambda0, t / hbar or k_B T is not
        code, out, err = run(capsys, "quench", verb, *argv, *(["--beta", "1"] if verb == "point" else []))
        assert_data_error(code, out, err, f"{flag} ", f" with {unit} ", "overflows at hbar = k_B = 1")

    @pytest.mark.parametrize(
        "flag, value",
        [("--lambda0", "1e300"), ("--omega", "1e200"), ("--omega", "1e-200"), ("--lambda0", "1e154")],
    )
    def test_overflowing_input_is_a_data_error(self, capsys, flag, value):
        # each squares to inf or 0 inside the closed forms
        code, out, err = run(capsys, "quench", "point", "--beta", "1", flag, value)
        assert_data_error(code, out, err, "omega", "lambda0")

    @pytest.mark.parametrize("verb", ["point", "sweep"])
    def test_mass_flag_is_gone(self, capsys, verb):
        # the mass cancels in every quench output, so there is no --mass flag
        argv = ["quench", verb, "--mass", "nan"] + (["--beta", "1"] if verb == "point" else [])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --mass" in err

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_non_finite_beta_is_a_data_error(self, capsys, beta):
        code, out, err = run(capsys, "quench", "point", "--beta", beta)
        assert code == 1
        assert out == ""
        assert "qcorr: error: beta must be finite" in err

    def test_data_error_writes_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "never.csv"
        code, _, _ = run(
            capsys,
            "quench", "sweep",
            "--t-min", "5", "--t-max", "1",
            "--out", str(out_path),
        )
        assert code == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("kb", ["1", "0.5", "2"])
    def test_range_error_quotes_the_given_temperatures(self, capsys, kb):
        # the library sees k_B T, but the message quotes --t-min and --t-max as typed
        code, out, err = run(capsys, "quench", "sweep", "--kb", kb, "--t-min", "5", "--t-max", "1")
        assert (code, out, err) == (1, "", "qcorr: error: need 0 < t_min < t_max < inf; got 5.0, 1.0\n")



# -- output bytes ----------------------------------------------------------

def run_on_fixed_files(capsys, tmp_path, argv):
    """:func:`run` on ``argv`` with its .json and .csv names in a directory holding ``FIXED_FILES``."""
    for name, text in FIXED_FILES.items():
        (tmp_path / name).write_text(text)
    return run(capsys, *(str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv))


FIXED_FILES = {
    "rho.json": '{"dims": [2, 2], "matrix": [[0.05565701592143772, 0.0], [0.07863302488181285, 0.03383062811164195], [0.08484795760461257, -0.07175669580000116], [0.06378545095709888, -0.004183425434479645], [0.07863302488181285, -0.03383062811164195], [0.23942178989472182, 0.0], [0.05765069510491669, -0.3012313254968068], [0.07434671556889237, -0.09452036138262547], [0.08484795760461257, 0.07175669580000116], [0.05765069510491669, 0.3012313254968068], [0.5720686521840355, 0.0], [0.10816393326658923, 0.0927674237751674], [0.06378545095709888, 0.004183425434479645], [0.07434671556889237, 0.09452036138262547], [0.10816393326658923, -0.0927674237751674], [0.13285254199980484, 0.0]]}',
    "qubit.json": '{"dims": [2, 1], "matrix": [[0.7, 0.0], [0.2, 0.1], [0.2, -0.1], [0.3, 0.0]]}',
    "huge_rho.json": '{"dims": [2, 1], "matrix": [[10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000, 0], [0, 0], [0, 0], [0, 0]]}',
    "huge_cov.json": '[[10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000, 0], [0, 0.5]]',
    "broken.json": '{not json',
    "truncated.json": '[[0.5, 0]',
    "no_matrix.json": '{"dims": [2, 1]}',
    "three_element_pair.json": '{"dims": [2, 1], "matrix": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]}',
    "string_pair.json": '{"dims": [2, 1], "matrix": [["1", 0], [0, 0], [0, 0], [0, 0]]}',
    "string_dims.json": '{"dims": ["a", 1], "matrix": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
    "non_square.json": '{"dims": [2, 1], "matrix": [[1, 0], [0, 0], [0, 0]]}',
    "ragged_cov.json": '[[0.5, 0], [0.5]]',
    "string_cov.json": '[["half", 0], [0, 0.5]]',
    "cov.json": '[[0.8735585532377617, -1.3286297707438848, 0.13006914957775026, 0.013306898559156805], [-1.3286297707438848, 7.7407348146137664, -0.5612053906652568, -1.104932883528828], [0.13006914957775026, -0.5612053906652568, 0.8257057914794199, -0.19255553032386086], [0.013306898559156805, -1.104932883528828, -0.19255553032386086, 2.240755091544804]]',
}

# each verb's stdout, or its --out file, on the fixed files above: text pinned byte for byte
OUTPUT_BYTES = [
    (('entropy', '--dist', '0.2,0.3,0.5'),
     '1.0296530140645737\n'),
    (('entropy', '--dist', '0.2,0.3,0.5', '--bits'),
     '1.4854752972273346\n'),
    (('mutual-info', '--joint', '0.4,0.1;0.2,0.3'),
     '0.086304621735533882\n'),
    (('mutual-info', '--joint', '0.4,0.1;0.2,0.3', '--bits'),
     '0.12451124978365258\n'),
    (('qstate', '--state', 'rho.json'),
     '{"dims": [2, 2], "entropy": 0.55420432978675516, "entropy_a": 0.48883074354140876, "entropy_b": 0.5518909406848268, "mutual_information": 0.48651735443948052, "araki_lieb": [0.06306019714341804, 0.55420432978675516, 1.0407216842262357]}\n'),
    (('qstate', '--state', 'qubit.json'),
     '{"dims": [2, 1], "entropy": 0.50040242353818787}\n'),
    (('discord', '--state', 'rho.json'),
     '{"mutual_info": 0.48651735443948074, "classical_corr": 0.25351238622096978, "discord": 0.23300496821851097, "theta": 0.96484019174792046, "phi": 0.93233074962546503, "evaluations": 53, "converged": true}\n'),
    (('gaussian', '--cov', 'cov.json'),
     '{"nu_minus": 1.2318018725312183, "nu_plus": 2.2405399916753881, "entropy": 2.9778320799230613, "discord": 0.0071737656791206472}\n'),
    (('gaussian', '--cov', 'cov.json', '--measured-mode', '2'),
     '{"nu_minus": 1.2318018725312183, "nu_plus": 2.2405399916753881, "entropy": 2.9778320799230613, "discord": 0.010406642627390772}\n'),
    (('everett', '--alpha', '0.6', '--beta', '0.8j', '--points', '3'),
     'epsilon,measurement_mutual_information,quantum_mutual_information\n0,0.65341819479370167,1.3068363895874033\n0.5,0.33245247453392412,1.0592342209301453\n1,0,0\n'),
    (('everett', '--alpha', '0.6', '--beta', '0.8j', '--points', '3', '--out', 'out.csv'),
     'epsilon,measurement_mutual_information,quantum_mutual_information\n0,0.65341819479370167,1.3068363895874033\n0.5,0.33245247453392412,1.0592342209301453\n1,0,0\n'),
    (('quench', 'point', '--beta', '0.3', '--lambda0', '0.7', '--omega', '1.3', '--hbar', '2', '--kb', '0.5', '--time', '2.5'),
     '{"temperature": 6.666666666666667, "w_c_avg": 0.96646942800788938, "df_c": 0.76224990579529328, "w_c_irr": 0.20421952221259609, "w_q_avg": 1.0149796575642425, "df_q": 0.81062092170964828, "w_q_irr": 0.20435873585459419, "omega_excess": 0.00013921364199809272, "gaussian_discord": 0.0097299406924011844}\n'),
    (('quench', 'sweep', '--hbar', '2', '--kb', '0.5', '--lambda0', '0.7', '--omega', '1.3', '--t-min', '0.5', '--t-max', '2', '--points', '3', '--time', '2.5'),
     'temperature,w_c_avg,df_c,w_c_irr,w_q_avg,df_q,w_q_irr,omega_excess,gaussian_discord\n0.5,0.072485207100591698,0.057168742934646993,0.015316464165944704,0.37694601903153008,0.33402054630283473,0.042925472728695346,0.027609008562750642,0.049545967793813123\n1.25,0.18121301775147922,0.14292185733661747,0.038291160414861747,0.38887531975424822,0.34048627688709643,0.048389042867151788,0.010097882452290041,0.034426576605950512\n2,0.28994082840236679,0.22867497173858797,0.061265856663778817,0.43740622826412251,0.37236445126185758,0.065041777002264933,0.0037759203384861162,0.023602515082616404\n'),
    (('quench', 'sweep', '--lambda0', '0.5', '--t-min', '0.5', '--t-max', '2', '--points', '3', '--time', '3'),
     'temperature,w_c_avg,df_c,w_c_irr,w_q_avg,df_q,w_q_irr,omega_excess,gaussian_discord\n0.5,0.125,0.1013662770270411,0.023633722972958904,0.16412941068741643,0.13993207780520026,0.024197332882216177,0.00056360990925727328,0.0060514785066960175\n1.25,0.3125,0.25341569256760271,0.059084307432397287,0.32899155522902351,0.26986434002045478,0.059127215208568729,4.290777617144137e-05,0.0030959206980953891\n2,0.5,0.40546510810816438,0.094534891891835615,0.51037352063419961,0.41582792710339778,0.09454559353080183,1.0701638966215121e-05,0.0021453614864812565\n'),
    (('quench', 'sweep', '--lambda0', '0.5', '--t-min', '0.5', '--t-max', '2', '--points', '3', '--time', '3', '--out', 'out.csv'),
     'temperature,w_c_avg,df_c,w_c_irr,w_q_avg,df_q,w_q_irr,omega_excess,gaussian_discord\n0.5,0.125,0.1013662770270411,0.023633722972958904,0.16412941068741643,0.13993207780520026,0.024197332882216177,0.00056360990925727328,0.0060514785066960175\n1.25,0.3125,0.25341569256760271,0.059084307432397287,0.32899155522902351,0.26986434002045478,0.059127215208568729,4.290777617144137e-05,0.0030959206980953891\n2,0.5,0.40546510810816438,0.094534891891835615,0.51037352063419961,0.41582792710339778,0.09454559353080183,1.0701638966215121e-05,0.0021453614864812565\n'),
]


@pytest.mark.parametrize(
    "argv, expected",
    OUTPUT_BYTES,
    ids=["entropy", "entropy_bits", "mutual_info", "mutual_info_bits", "qstate_bipartite", "qstate_qubit",
         "discord", "gaussian", "gaussian_mode_2", "everett", "everett_out", "quench_point", "quench_sweep_units", "quench_sweep",
         "quench_sweep_out"],
)
def test_output_bytes(capsys, tmp_path, argv, expected):
    code, out, err = run_on_fixed_files(capsys, tmp_path, argv)
    assert (code, err) == (0, "")
    if "--out" in argv:
        assert out == "" and (tmp_path / "out.csv").read_bytes() == expected.encode("ascii")
    else:
        assert out == expected


# each data error on the fixed files above: exit 1, nothing on stdout and this one stderr line
ERROR_BYTES = [
    (('qstate', '--state', 'huge_rho.json'),
     'qcorr: error: matrix must be a list of [re, im] number pairs: int too large to convert to float'),
    (('discord', '--state', 'huge_rho.json'),
     'qcorr: error: matrix must be a list of [re, im] number pairs: int too large to convert to float'),
    (('gaussian', '--cov', 'huge_cov.json'),
     'qcorr: error: covariance matrix must be a JSON array of rows of numbers: int too large to convert to float'),
    (('qstate', '--state', 'broken.json'),
     'qcorr: error: density matrix file is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (('gaussian', '--cov', 'broken.json'),
     'qcorr: error: covariance matrix must be a JSON array of rows of numbers: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (('gaussian', '--cov', 'truncated.json'),
     "qcorr: error: covariance matrix must be a JSON array of rows of numbers: Expecting ',' delimiter: line 1 column 10 (char 9)"),
    (('qstate', '--state', 'cov.json'),
     "qcorr: error: density matrix must be a JSON object with 'dims' and 'matrix'; got list"),
    (('discord', '--state', 'cov.json'),
     "qcorr: error: density matrix must be a JSON object with 'dims' and 'matrix'; got list"),
    (('gaussian', '--cov', 'rho.json'),
     "qcorr: error: covariance matrix must be a JSON array of rows of numbers: float() argument must be a string or a real number, not 'dict'"),
    (('qstate', '--state', 'no_matrix.json'),
     "qcorr: error: density matrix must be a JSON object with 'dims' and 'matrix'; got dict"),
    (('qstate', '--state', 'three_element_pair.json'),
     'qcorr: error: matrix must be a list of [re, im] number pairs: too many values to unpack (expected 2)'),
    (('qstate', '--state', 'string_pair.json'),
     "qcorr: error: matrix must be a list of [re, im] number pairs: complex() can't take second arg if first is a string"),
    (('qstate', '--state', 'string_dims.json'),
     "qcorr: error: dims must be a pair of integers; got ['a', 1]"),
    (('qstate', '--state', 'non_square.json'),
     'qcorr: error: matrix length 3 is not a perfect square'),
    (('gaussian', '--cov', 'ragged_cov.json'),
     'qcorr: error: covariance matrix must be a JSON array of rows of numbers: setting an array element with a sequence. The requested array has an inhomogeneous shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part.'),
    (('gaussian', '--cov', 'string_cov.json'),
     "qcorr: error: covariance matrix must be a JSON array of rows of numbers: could not convert string to float: 'half'"),
]


@pytest.mark.parametrize("argv, line", ERROR_BYTES, ids=[" ".join(argv) for argv, _ in ERROR_BYTES])
def test_error_bytes(capsys, tmp_path, argv, line):
    assert run_on_fixed_files(capsys, tmp_path, argv) == (1, "", line + "\n")


# -- units -----------------------------------------------------------------

def quench_outputs(*argv):
    """Exit code, stderr and every printed number of one quench invocation, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if argv[1] == "point":
        return code, err.getvalue(), [list(json.loads(text).values())] if text else []
    return code, err.getvalue(), [[float(x) for x in row.split(",")] for row in text.splitlines()[1:]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    i=st.integers(-8, 8),
    j=st.integers(-8, 8),
    omega=st.floats(0.01, 100.0),
    lambda0=st.floats(0.0, 10.0),
    beta=st.floats(0.01, 100.0),
    t=st.floats(0.0, 100.0),
    t_min=st.floats(0.01, 10.0),
    stretch=st.floats(1.01, 100.0),
    points=st.integers(2, 6),
)
def test_units_convert_bit_for_bit(i, j, omega, lambda0, beta, t, t_min, stretch, points):
    """At (hbar, k_B) = (2^i, 2^j) the quench verbs print, bit for bit, what
    they print at (1, 1) on omega -> hbar omega, lambda0 -> hbar lambda0,
    t -> t / hbar and T -> k_B T, with the temperature column scaled by k_B."""
    hbar, kb = 2.0**i, 2.0**j
    t_max = t_min * stretch
    for verb, temperatures, scaled in (
        ("point", ("--beta", repr(beta)), ("--beta", repr(beta))),
        ("sweep", ("--t-min", repr(t_min), "--t-max", repr(t_max), "--points", str(points)),
         ("--t-min", repr(kb * t_min), "--t-max", repr(kb * t_max), "--points", str(points))),
    ):
        code, err, rows = quench_outputs(
            "quench", verb, *temperatures, "--omega", repr(omega), "--lambda0", repr(lambda0),
            "--time", repr(t), "--hbar", repr(hbar), "--kb", repr(kb),
        )
        unit_code, unit_err, unit_rows = quench_outputs(
            "quench", verb, *scaled, "--omega", repr(hbar * omega), "--lambda0", repr(hbar * lambda0),
            "--time", repr(t / hbar),
        )
        assert (code, err) == (unit_code, unit_err)
        assert [[kb * row[0], *row[1:]] for row in rows] == unit_rows
