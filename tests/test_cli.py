"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from wignerlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngle:
    def test_all_methods_agree(self, capsys):
        code, out, _ = _run(
            capsys, "angle", "--u", "0.5", "--v", "0.5", "--phi", "1.5707963",
            "--method", "all",
        )
        assert code == EXIT_OK
        values = [float(line.split()[3]) for line in out.splitlines() if "delta =" in line]
        assert len(values) == 3
        assert max(values) - min(values) < 1e-10
        assert "max pairwise deviation" in out

    def test_degenerate_speed_gives_zero(self, capsys):
        code, out, _ = _run(
            capsys, "angle", "--u", "0", "--v", "0.9", "--phi", "1.0", "--method", "tan"
        )
        assert code == EXIT_OK
        assert float(out.split()[3]) == 0.0

    def test_superluminal_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "angle", "--u", "1.0", "--v", "0.5", "--phi", "1.0")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_degrees_flag(self, capsys):
        code, out, _ = _run(
            capsys, "angle", "--u", "0.5", "--v", "0.5", "--phi", "90",
            "--degrees", "--method", "tan",
        )
        assert code == EXIT_OK
        assert float(out.split()[3]) == pytest.approx(0.14334756890536537, abs=1e-10)

    def test_bad_phi_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "angle", "--u", "0.5", "--v", "0.5", "--phi", "4.0")
        assert code == EXIT_USAGE and "boosting angle" in err

    @pytest.mark.parametrize("method", ["all", "cos", "tan", "matrix"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_speed_is_usage_error(self, capsys, method, bad):
        code, out, err = _run(
            capsys, "angle", "--u", bad, "--v", "0.5", "--phi", "1", "--method", method
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "u must satisfy 0 <= u < 1" in err

    def test_non_finite_phi_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "angle", "--u", "0.5", "--v", "0.5", "--phi", "nan")
        assert code == EXIT_USAGE and "boosting angle" in err


class TestBoost:
    def test_equal_helicity_disentangles(self, capsys):
        code, out, _ = _run(
            capsys, "boost", "--class", "psi",
            "--eta", "0.7853981633974483", "--delta", "1.5707963267948966",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["entropy_rest_bits"] == pytest.approx(1.0, abs=1e-12)
        assert payload["entropy_boosted_bits"] == pytest.approx(0.0, abs=1e-12)
        assert payload["state"]["frame"] == "boosted"
        assert len(payload["state"]["amplitudes"]) == 4

    def test_unequal_helicity_maximally_mixed(self, capsys):
        code, out, _ = _run(
            capsys, "boost", "--class", "xi",
            "--eta", "0.7853981633974483", "--delta", "1.5707963267948966",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["entropy_rest_bits"] == 0.0
        assert payload["entropy_boosted_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_product_input_stays_product(self, capsys):
        code, out, _ = _run(
            capsys, "boost", "--class", "psi", "--eta", "0", "--delta", "0.9"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["entropy_boosted_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_delta_from_geometry(self, capsys):
        code, out, _ = _run(
            capsys, "boost", "--class", "psi", "--eta", "0.6",
            "--u", "0.95", "--v", "0.95", "--phi", "2.1224542672159568",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["state"]["delta"] == pytest.approx(1.1033158808421198, abs=1e-10)

    def test_conflicting_flags_rejected(self, capsys):
        code, _, err = _run(
            capsys, "boost", "--class", "psi", "--eta", "0.6",
            "--delta", "0.3", "--u", "0.5",
        )
        assert code == EXIT_USAGE and "not both" in err

    def test_incomplete_geometry_rejected(self, capsys):
        code, _, err = _run(
            capsys, "boost", "--class", "psi", "--eta", "0.6", "--u", "0.5"
        )
        assert code == EXIT_USAGE

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "state.json"
        code, out, _ = _run(
            capsys, "boost", "--class", "psi", "--eta", "0.6", "--delta", "0.3",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert json.loads(out_path.read_text()) == json.loads(out)


class TestSweepCommand:
    def test_writes_deterministic_csv(self, capsys, tmp_path):
        args = (
            "sweep", "--u", "0.95", "--v", "0.95", "--eta", "0.6", "--class", "psi",
            "--samples", "301",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(capsys, *args, "--out", str(a))[0] == EXIT_OK
        assert _run(capsys, *args, "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "phi,delta,entropy_bits"
        assert len(lines) == 302

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, _ = _run(
            capsys, "sweep", "--u", "0.5", "--v", "0.5", "--eta", "0.6",
            "--class", "xi", "--samples", "11", "--out", str(out), "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["metadata"]["class"] == "xi"
        assert len(payload["rows"]) == 11

    def test_single_sample_is_usage_error(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "sweep", "--u", "0.5", "--v", "0.5", "--eta", "0.6",
            "--class", "psi", "--samples", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE and "samples" in err

    def test_no_file_left_on_error(self, capsys, tmp_path):
        target = tmp_path / "never.csv"
        code, _, _ = _run(
            capsys, "sweep", "--u", "2.0", "--v", "0.5", "--eta", "0.6",
            "--class", "psi", "--out", str(target),
        )
        assert code == EXIT_USAGE
        assert not target.exists()

    def test_threads_env(self, capsys, tmp_path, monkeypatch):
        args = (
            "sweep", "--u", "0.95", "--v", "0.95", "--eta", "0.6", "--class", "psi",
            "--samples", "301",
        )
        base = tmp_path / "base.csv"
        assert _run(capsys, *args, "--out", str(base))[0] == EXIT_OK
        monkeypatch.setenv("WIGNERLAB_THREADS", "4")
        threaded = tmp_path / "threaded.csv"
        assert _run(capsys, *args, "--out", str(threaded))[0] == EXIT_OK
        assert base.read_bytes() == threaded.read_bytes()

    def test_invalid_threads_env(self, capsys, monkeypatch, tmp_path):
        # The variable is ignored, so even a non-integer value changes nothing.
        args = (
            "sweep", "--u", "0.5", "--v", "0.5", "--eta", "0.6", "--class", "psi",
        )
        base = tmp_path / "base.csv"
        assert _run(capsys, *args, "--out", str(base))[0] == EXIT_OK
        monkeypatch.setenv("WIGNERLAB_THREADS", "many")
        ignored = tmp_path / "ignored.csv"
        assert _run(capsys, *args, "--out", str(ignored))[0] == EXIT_OK
        assert base.read_bytes() == ignored.read_bytes()


class TestFigureCommand:
    @pytest.mark.parametrize("figure_id", ["1a", "1b", "1c", "3a", "3b", "3c"])
    def test_each_figure_writes(self, capsys, tmp_path, figure_id):
        out = tmp_path / f"{figure_id}.csv"
        code, _, _ = _run(
            capsys, "figure", "--id", figure_id, "--out", str(out), "--samples", "41"
        )
        assert code == EXIT_OK
        assert out.exists() and out.read_text().count("\n") > 1

    def test_unknown_id_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--id", "bogus", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == EXIT_USAGE

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, "figure", "--id", "3b", "--out", str(a), "--samples", "101")
        _run(capsys, "figure", "--id", "3b", "--out", str(b), "--samples", "101")
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--grid", "8")
        assert code == EXIT_OK
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_tolerance_override_can_fail(self, capsys):
        # an impossible tolerance must flip the exit code to 2
        code, out, _ = _run(
            capsys, "verify", "--grid", "8", "--tol", "angle_forms_agree=1e-300"
        )
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    def test_unknown_tolerance_rejected(self, capsys):
        code, _, err = _run(capsys, "verify", "--grid", "8", "--tol", "nope=1")
        assert code == EXIT_USAGE and "unknown tolerance" in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_negative_or_nan_tolerance_rejected(self, capsys, value):
        code, out, err = _run(
            capsys, "verify", "--grid", "8", "--tol", f"angle_forms_agree={value}"
        )
        assert code == EXIT_USAGE and out == ""
        assert "angle_forms_agree must be >= 0" in err

    def test_malformed_tolerance_rejected(self, capsys):
        code, _, err = _run(capsys, "verify", "--grid", "8", "--tol", "oops")
        assert code == EXIT_USAGE and "NAME=VALUE" in err


class TestEntryPoint:
    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wignerlab.cli", "angle", "--u", "0.5", "--v", "0.5",
             "--phi", "0.7", "--method", "cos"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "delta =" in proc.stdout

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
