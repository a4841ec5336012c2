import json
import math

import numpy as np
import pytest

from qcorr import CovarianceMatrix, covariance_to_json, density_matrix_to_json
from qcorr.cli import everett_demo, main

from .conftest import bell_density

LN2 = 0.6931471805599453


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(density_matrix_to_json(bell_density()))
    return str(path)


@pytest.fixture
def vacuum_cov_file(tmp_path):
    path = tmp_path / "vacuum.json"
    path.write_text(covariance_to_json(CovarianceMatrix(0.5 * np.eye(4))))
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
    """Each verb decodes the one file type it needs, and says so when the
    file holds something else."""

    @pytest.mark.parametrize("verb", ["qstate", "discord"])
    def test_density_verbs_reject_covariance_file(self, capsys, vacuum_cov_file, verb):
        code, out, err = run(capsys, verb, "--state", vacuum_cov_file)
        assert_data_error(code, out, err, "density matrix must be a JSON object with 'dims' and 'matrix'")

    def test_gaussian_rejects_density_file(self, capsys, bell_file):
        code, out, err = run(capsys, "gaussian", "--cov", bell_file)
        assert_data_error(code, out, err, "covariance matrix must be a JSON array of rows of numbers")

    def test_gaussian_needs_two_modes(self, capsys, tmp_path):
        path = tmp_path / "one_mode.json"
        path.write_text(covariance_to_json(CovarianceMatrix(0.5 * np.eye(2))))
        code, out, err = run(capsys, "gaussian", "--cov", str(path))
        assert_data_error(code, out, err, "two-mode", "1 mode")

    @pytest.mark.parametrize(
        "verb, payload, words",
        [
            (
                "qstate",
                {"dims": [2, 1], "matrix": [[1.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                ["[re, im] number pairs"],
            ),
            (
                "qstate",
                {"dims": ["a", 2], "matrix": [[0.25 * (k % 5 == 0), 0.0] for k in range(16)]},
                ["dims must be a pair of integers", "'a'"],
            ),
            ("gaussian", [[0.5, 0.0], [0.5]], ["covariance matrix must be a JSON array of rows of numbers"]),
        ],
        ids=["three-element-pair", "string-dims", "ragged-covariance"],
    )
    def test_malformed_file_is_data_error(self, capsys, tmp_path, verb, payload, words):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        flag = "--cov" if verb == "gaussian" else "--state"
        code, out, err = run(capsys, verb, flag, str(path))
        assert_data_error(code, out, err, *words)

    @pytest.mark.parametrize("verb, flag", [("qstate", "--state"), ("gaussian", "--cov")])
    def test_invalid_json_is_data_error(self, capsys, tmp_path, verb, flag):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run(capsys, verb, flag, str(path))
        assert_data_error(code, out, err, "JSON")

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
            ("--kb", "nan", "kb"),
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

