"""Tests for the command-line interface: outputs, exit codes, determinism."""

import errno
import gc
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wignerlab.sweep as sweep_module
from wignerlab.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    _write_table,
    entry_point,
    main,
)
from wignerlab.states import HelicityClass, state_from_json_dict
from wignerlab.sweep import (
    _CSV_CHUNK_ROWS,
    FIGURE_IDS,
    SweepRequest,
    emit_figure,
    sweep_entanglement,
)
from wignerlab.verify import DEFAULT_TOLERANCES


def _run(capsys, *argv):
    """(exit code, stdout, stderr) of ``main(argv)``; a SystemExit gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse(name):
    raise ValueError(f"{name} is not strict JSON")


def _assert_contract(argv, code, stdout, stderr, expected=(EXIT_OK,)):
    """The CLI contract for one call of ``argv`` that exited with ``code``.

    The exit code is one of ``expected``; stderr holds no traceback, and an
    error is its one line; stdout holds no negative zero.  After a success
    the ``--out`` file is strict JSON (``.json``) or ``%.17g`` CSV fields
    (``.csv``).  No temp file is left beside ``--out`` or in the working
    directory.
    """
    assert code in expected, stderr
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    if code == EXIT_USAGE:
        assert len(lines) == 1 and lines[0].startswith("wignerlab: error: ")
    else:
        assert lines == []
    assert not re.search(r"-0 |=-0\.", stdout)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if code == EXIT_OK and out is not None:
        if out.suffix == ".json":
            json.loads(out.read_text(), parse_constant=_refuse)
        else:
            _, *rows, last = out.read_text().split("\n")  # the header, rows, "" after the last LF
            assert rows and last == ""
            for row in rows:
                for field in row.split(","):
                    assert field == format(float(field), ".17g"), f"{out}: {row}"
    for directory in {Path.cwd(), *([out.absolute().parent] if out else [])}:
        assert not list(directory.glob(".wignerlab-*.tmp"))


_SWEEP = "sweep --u 0.995 --v 0.995 --eta 0.6 --class"

# (exit code, argv) of calls that cover every command, each figure and a sweep of each
# class in both formats, also at 200,001 rows; --out paths are relative.
_CONTRACT = [
    (EXIT_OK, "--version"),
    (EXIT_USAGE, "figure --id 3b --out /nonexistent-dir/x.csv"),
    (EXIT_USAGE, "figure --id 3b --out="),
    (EXIT_USAGE, "sweep --u 0.95 --v 0.95 --eta 0.6 --class psi --out="),
    (EXIT_USAGE, "boost --class psi --eta 0.6 --delta 0.3 --out="),
    (EXIT_OK, "angle --u -0 --v 0.5 --phi 1"),
    (EXIT_OK, "angle --u 0.999999 --v 0.9 --phi 2.5"),
    (EXIT_OK, "angle --u 0.5 --v 0.5 --phi 180 --degrees"),
    (EXIT_OK, "boost --class xi --eta 0.7 --u 0.9 --v 0.99 --phi 2.5"),
    (EXIT_OK, "verify --grid 50"),
    (EXIT_VERIFY_FAILED, "verify --grid 50" + "".join(f" --tol {n}=0" for n in DEFAULT_TOLERANCES)),
    *(
        (EXIT_OK, f"figure --id {figure_id} --format {fmt} --out fig{figure_id}.{fmt}")
        for figure_id in FIGURE_IDS
        for fmt in ("csv", "json")
    ),
    *(
        (EXIT_OK, f"{_SWEEP} {c.value} --format {fmt}{samples} --out sweep-{c.value}{name}.{fmt}")
        for c in HelicityClass
        for fmt in ("csv", "json")
        for samples, name in (("", ""), (" --samples 200001", "-200001"))
    ),
]


@pytest.mark.parametrize("expected, command", _CONTRACT, ids=[command for _, command in _CONTRACT])
def test_contract(capsys, tmp_path, monkeypatch, expected, command):
    """Each call, run in an empty working directory, keeps the contract and exits as listed."""
    monkeypatch.chdir(tmp_path)
    argv = command.split()
    _assert_contract(argv, *_run(capsys, *argv), expected=(expected,))


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

    def test_negative_zero_speed_prints_positive_zero(self, capsys):
        code, out, _ = _run(capsys, "angle", "--u", "-0", "--v", "0.5", "--phi", "1")
        assert code == EXIT_OK
        assert [line.split()[3] for line in out.splitlines()[:3]] == ["0", "0", "0"]
        assert "-0 " not in out

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

    @pytest.mark.parametrize("cls", ["psi", "psitilde", "xi"])
    @pytest.mark.parametrize(
        "angle",
        [("--delta", "1.1"), ("--u", "0.95", "--v", "0.9", "--phi", "2.0")],
        ids=["delta", "geometry"],
    )
    def test_out_file_round_trips_as_a_state(self, capsys, tmp_path, cls, angle):
        """The state the --out JSON holds reads back through state_from_json_dict."""
        out_path = tmp_path / "state.json"
        code, _, _ = _run(
            capsys, "boost", "--class", cls, "--eta", "0.6", *angle, "--out", str(out_path)
        )
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())["state"]
        state = state_from_json_dict(payload)
        assert state.helicity_class is HelicityClass(cls)
        assert state.to_json_dict() == payload


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

    # The variable is ignored, so even a non-integer value changes nothing.
    @pytest.mark.parametrize("threads", ["4", "many"])
    def test_threads_env(self, capsys, tmp_path, monkeypatch, threads):
        args = (
            "sweep", "--u", "0.95", "--v", "0.95", "--eta", "0.6", "--class", "psi",
            "--samples", "301",
        )
        base = tmp_path / "base.csv"
        assert _run(capsys, *args, "--out", str(base))[0] == EXIT_OK
        monkeypatch.setenv("WIGNERLAB_THREADS", threads)
        threaded = tmp_path / "threaded.csv"
        assert _run(capsys, *args, "--out", str(threaded))[0] == EXIT_OK
        assert base.read_bytes() == threaded.read_bytes()


class TestStreamedCsvWrite:
    """CSV goes to the temp file a chunk at a time, with ``to_csv_text``'s bytes."""

    SWEEP = ("sweep", "--u", "0.995", "--v", "0.995", "--eta", "0.6", "--class", "psi")

    @staticmethod
    def _series(samples):
        return sweep_entanglement(
            SweepRequest(
                u=0.995, v=0.995, eta=0.6, helicity_class=HelicityClass.EQUAL_PLUS,
                samples=samples,
            )
        )

    @pytest.mark.parametrize(
        "samples",
        [2, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 1],
    )
    def test_sweep_writes_csv_text(self, capsys, tmp_path, samples):
        out = tmp_path / "s.csv"
        code, _, _ = _run(capsys, *self.SWEEP, "--samples", str(samples), "--out", str(out))
        assert code == EXIT_OK
        assert out.read_bytes() == self._series(samples).to_csv_text().encode()

    def test_figure_writes_csv_text(self, capsys, tmp_path):
        out = tmp_path / "1c.csv"
        code, _, _ = _run(capsys, "figure", "--id", "1c", "--samples", "41", "--out", str(out))
        assert code == EXIT_OK
        assert out.read_bytes() == emit_figure("1c", samples=41).to_csv_text().encode()

    def test_failure_after_first_chunk_keeps_target(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "s.csv"
        target.write_bytes(b"old bytes\n")
        real_fields = sweep_module._csv_fields
        calls, temp_sizes = [], []

        def fields_then_disk_full(*args):
            calls.append(args)
            if len(calls) == 2:
                temp_sizes.extend(p.stat().st_size for p in tmp_path.glob(".wignerlab-*.tmp"))
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_fields(*args)

        monkeypatch.setattr(sweep_module, "_csv_fields", fields_then_disk_full)
        code, _, err = _run(
            capsys, *self.SWEEP, "--samples", str(2 * _CSV_CHUNK_ROWS + 1), "--out", str(target)
        )
        assert code == EXIT_USAGE and len(calls) == 2
        assert "No space left on device" in err
        # The header and the first chunk had reached the temp file when the second failed.
        assert len(temp_sizes) == 1 and temp_sizes[0] > _CSV_CHUNK_ROWS
        assert target.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_write_memory_is_below_half_the_file(self, tmp_path):
        series = self._series(200_001)
        out = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            _write_table(series, "csv", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size / 2


def _tree(root):
    """{relative path: bytes, or None for a directory} of everything under ``root``."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


class TestWriteErrors:
    """An --out that cannot be written exits 1 with one line naming it, and changes no file."""

    COMMANDS = {
        "sweep": ("sweep", "--u", "0.95", "--v", "0.95", "--eta", "0.6", "--class", "psi"),
        "figure": ("figure", "--id", "3b", "--samples", "41"),
        "boost": ("boost", "--class", "psi", "--eta", "0.6", "--delta", "0.3"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "target, reason",
        [
            (os.path.join("missing", "out.csv"), os.strerror(errno.ENOENT)),
            ("folder", os.strerror(errno.EISDIR)),
        ],
        ids=["missing-directory", "names-a-directory"],
    )
    def test_unwritable_out(self, capsys, tmp_path, command, target, reason):
        (tmp_path / "folder").mkdir()
        (tmp_path / "folder" / "old.csv").write_bytes(b"old bytes\n")
        (tmp_path / "old.csv").write_bytes(b"old bytes\n")
        before = _tree(tmp_path)
        out = str(tmp_path / target)
        code, stdout, err = _run(capsys, *self.COMMANDS[command], "--out", out)
        assert code == EXIT_USAGE
        assert err.splitlines() == [f"wignerlab: error: cannot write '{out}': {reason}"]
        assert stdout == ""
        # No temp file is left, and the files already there keep their bytes.
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_empty_out_makes_no_temp_file(self, capsys, tmp_path, monkeypatch, command):
        # "" names no file: no temp file may be made, in the working directory or its parent.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        made = []
        mkstemp = tempfile.mkstemp

        def spy(*args, **kwargs):
            made.append(kwargs)
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", spy)
        before = _tree(tmp_path)
        code, stdout, err = _run(capsys, *self.COMMANDS[command], "--out", "")
        assert code == EXIT_USAGE
        reason = os.strerror(errno.ENOENT)
        assert err.splitlines() == [f"wignerlab: error: cannot write '': {reason}"]
        assert stdout == ""
        assert made == []
        assert _tree(tmp_path) == before


# Floats for every numeric option: NaN, +-inf, +-0, subnormals and huge
# values, plus draws from the valid ranges so that some calls succeed.
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, math.inf, -math.inf]),
)


@st.composite
def _cli_argv(draw):
    """argv of one angle, boost, sweep or figure call; sweep and figure still need --out."""

    def options(*names):
        # "--name=value" keeps argparse from reading "-inf" or "-1e-300" as an option.
        return [f"--{name}={draw(_ANY_FLOAT)!r}" for name in names]

    helicity_class = ["--class", draw(st.sampled_from([c.value for c in HelicityClass]))]
    samples = ["--samples", str(draw(st.integers(2, 50)))]
    degrees = draw(st.sampled_from([[], ["--degrees"]]))
    fmt = draw(st.sampled_from([[], ["--format", "json"]]))
    command = draw(st.sampled_from(["angle", "boost", "boost-geometry", "sweep", "figure"]))
    if command == "angle":
        method = draw(st.sampled_from(["cos", "tan", "matrix", "all"]))
        return ["angle", *options("u", "v", "phi"), "--method", method, *degrees]
    if command == "boost":
        return ["boost", *helicity_class, *options("eta", "delta"), *degrees]
    if command == "boost-geometry":
        return ["boost", *helicity_class, *options("eta", "u", "v", "phi"), *degrees]
    if command == "sweep":
        geometry = options("u", "v", "eta", "phi-min", "phi-max")
        return ["sweep", *helicity_class, *geometry, *samples, *degrees, *fmt]
    return ["figure", "--id", draw(st.sampled_from(FIGURE_IDS)), *samples, *fmt]


class TestCliProperty:
    @given(_cli_argv())
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_exits_zero_or_one_and_never_raises(self, capsys, tmp_path, argv):
        """Under warnings-as-errors every call keeps the contract and exits 0 or 1."""
        if argv[0] in ("sweep", "figure"):
            name = "out.json" if "json" in argv else "out.csv"
            argv = [*argv, "--out", str(tmp_path / name)]
        _assert_contract(argv, *_run(capsys, *argv), expected=(EXIT_OK, EXIT_USAGE))


class TestFigureCommand:
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

    def test_zero_argmax_tolerance_is_applied(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--grid", "8", "--tol", "argmax_matches_grid_search=0"
        )
        assert code == EXIT_VERIFY_FAILED
        (line,) = [x for x in out.splitlines() if "argmax_matches_grid_search" in x]
        assert line.startswith("FAIL") and "tol=0.000e+00" in line

    def test_grid_below_three_is_usage_error(self, capsys):
        code, out, err = _run(capsys, "verify", "--grid", "2")
        assert code == EXIT_USAGE and out == ""
        assert "grid must be an integer >= 3, got 2" in err

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

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_numeric_tolerance_names_the_option(self, capsys, value):
        code, out, err = _run(
            capsys, "verify", "--grid", "8", "--tol", f"angle_forms_agree={value}"
        )
        assert code == EXIT_USAGE and out == ""
        message = f"--tol angle_forms_agree expects a number, got {value!r}"
        assert err == f"wignerlab: error: {message}\n"


class TestEntryPoint:
    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_only_the_entry_point_freezes_the_collector(self, capsys, monkeypatch):
        freezes = []
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(None))
        argv = ["angle", "--u", "0.5", "--v", "0.5", "--phi", "0.7"]
        monkeypatch.setattr(sys, "argv", ["wignerlab", *argv])
        with pytest.raises(SystemExit) as exc:
            entry_point()
        assert exc.value.code == EXIT_OK and len(freezes) == 1
        assert main(argv) == EXIT_OK and main(["verify", "--grid", "3"]) == EXIT_OK
        assert len(freezes) == 1
        assert "delta =" in capsys.readouterr().out


def _child(code: str, **env) -> str:
    """Stdout of a fresh interpreter running ``code``, with ``env`` and no other BLAS setting."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_BLAS_SETTING = "print(os.environ.get('OPENBLAS_NUM_THREADS'))"


_NUMPY_RANDOM = "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))"


class TestProcessSetUp:
    """The CLI starts numpy with one BLAS thread unless the caller chose a count,
    and loads no more of numpy than ``import numpy`` does."""

    def test_package_import_loads_no_numpy(self):
        assert _child("import sys, wignerlab; print('numpy' in sys.modules)") == "False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_first_runs_numpy_on_one_thread(self):
        out = _child(
            f"import os, wignerlab.cli; {_BLAS_SETTING}; print(len(os.listdir('/proc/self/task')))"
        )
        assert out.split() == ["1", "1"]

    def test_a_chosen_thread_count_is_kept(self):
        assert _child(f"import os, wignerlab.cli; {_BLAS_SETTING}", OPENBLAS_NUM_THREADS="2") == "2"

    def test_numpy_first_leaves_the_environment_alone(self):
        assert _child(f"import os, numpy, wignerlab.cli; {_BLAS_SETTING}") == "None"

    def test_verify_loads_no_numpy_random(self):
        """Compared with ``import numpy`` alone, which loads numpy.random eagerly on numpy 1.24."""
        numpy_alone = _child(f"import sys, numpy; {_NUMPY_RANDOM}")
        out = _child(
            "import sys; from wignerlab import cli; "
            f"code = cli.main(['verify', '--grid', '3']); {_NUMPY_RANDOM}; print(code)"
        )
        assert out.splitlines()[-2:] == [numpy_alone, str(EXIT_OK)]

    def test_verify_loads_no_mpmath(self):
        """mpmath is the test suite's oracle, not a dependency of the library."""
        out = _child(
            "import sys; from wignerlab import cli; code = cli.main(['verify', '--grid', '3']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath')); print(code)"
        )
        assert out.splitlines()[-2:] == ["[]", str(EXIT_OK)]
