import json
import math

import numpy as np
import pytest

from qcorr import CovarianceMatrix, covariance_to_json, density_matrix_to_json
from qcorr.cli import everett_demo, load_state, main

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

    def test_bits_flag(self, capsys):
        code, out, _ = run(capsys, "entropy", "--dist", "0.5,0.5", "--bits")
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_distribution_is_data_error(self, capsys):
        code, _, err = run(capsys, "entropy", "--dist", "0.5,0.6")
        assert code == 1
        assert "sum" in err


class TestMutualInfoVerb:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "mutual-info", "--joint", "0.4,0.1;0.2,0.3")
        assert code == 0
        assert float(out) == pytest.approx(0.08630462173553428, abs=1e-12)


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


class TestLoadState:
    def test_density_matrix_detected(self, bell_file):
        rho = load_state(bell_file)
        assert rho.dims == (2, 2)

    def test_covariance_detected(self, vacuum_cov_file):
        sigma = load_state(vacuum_cov_file)
        assert sigma.n_modes == 2

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
        assert report["discord"] == pytest.approx(LN2, abs=1e-6)
        assert report["mutual_info"] == pytest.approx(2 * LN2, abs=1e-9)
        assert 0.0 <= report["theta"] <= math.pi
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
            ("--mass", "nan", "mass"),
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

