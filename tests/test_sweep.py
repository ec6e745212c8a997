"""Tests for sweeps, extremum search, figure datasets and serialization."""

import json
import math
import re

import numpy as np
import pytest

import wignerlab
import wignerlab.kinematics as kin
from wignerlab.entanglement import boosted_entropy_closed_form, rest_frame_entropy
from wignerlab.states import HelicityClass
from wignerlab.sweep import (
    _CSV_CHUNK_ROWS,
    _PLATEAU_TOL,
    Dataset,
    ExtremumKind,
    Regime,
    SweepRequest,
    SweepSeries,
    emit_figure,
    find_local_extrema,
    sweep_entanglement,
    threshold_speed_region,
    _csv_significands,
    _interior_extremum_runs,
)

# frozen solves: arccos(-1/D) and the delta = pi/2 crossing interval
PHI_STAR_095 = 2.1224542672159568
PHI_STAR_0995 = 2.5293976228203254
CROSS_LO = 1.82860523174277
CROSS_HI = 2.8837837486419198
REST_E_06 = 0.903094862481601  # h(cos^2 0.6)


def _request(u=0.95, cls=HelicityClass.EQUAL_PLUS, **kw):
    return SweepRequest(u=u, v=u, eta=0.6, helicity_class=cls, **kw)


# Floats are refused even when integral: np.linspace takes only integer counts.
_BAD_SAMPLES = (1, 0, -3, 2.5, 11.0, math.inf, math.nan, "11")


def _csv_reference(columns, rows) -> str:
    """The per-row f-string serializer that the bulk formatter replaced."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{float(x):.17g}" for x in row))
    return "\n".join(lines) + "\n"


def _strict_csv_text(columns, rows) -> str:
    """Dataset CSV text (the suite raises every warning as an error)."""
    return Dataset(columns=columns, rows=rows, metadata={}).to_csv_text()


def _assert_same_text(got: str, expected: str) -> None:
    """Equal texts; a mismatch reports the first differing line, not a full diff."""
    if got == expected:
        return
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    first = next(
        (i for i, (a, b) in enumerate(zip(got_lines, expected_lines)) if a != b),
        min(len(got_lines), len(expected_lines)),
    )
    pytest.fail(
        f"line {first} differs: {got_lines[first:first + 1]} != "
        f"{expected_lines[first:first + 1]} ({len(got_lines)} vs "
        f"{len(expected_lines)} lines)"
    )


def _extremum_runs_reference(entropy) -> list:
    """The per-sample run-detection loop that find_local_extrema replaced."""
    n = entropy.size
    runs = []
    start = 0
    for i in range(1, n):
        if abs(entropy[i] - entropy[i - 1]) > _PLATEAU_TOL:
            runs.append((start, i - 1))
            start = i
    runs.append((start, n - 1))
    found = []
    for k, (lo, hi) in enumerate(runs):
        if k == 0 or k == len(runs) - 1:
            continue
        value = entropy[lo]
        prev_value = entropy[runs[k - 1][1]]
        next_value = entropy[runs[k + 1][0]]
        if value > prev_value and value > next_value:
            found.append((lo, hi, ExtremumKind.MAXIMUM))
        elif value < prev_value and value < next_value:
            found.append((lo, hi, ExtremumKind.MINIMUM))
    return found


# float64 values at the edges of %.17g text: signed zeros, the smallest
# subnormals, non-finite values, the switch between fixed and exponent
# notation (1e-5, 1e16, 1e17) and integers above 2**53.
_SPECIAL_FLOATS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan,
     1e-5, 1e16, 1e17, -1e17, 1e300, 2.0**53 + 2.0, 0.1, 1.0 / 3.0]
)


def _fixed_notation_value(exponent, zeros, rng):
    """A positive double whose "%.17g" digits end in ``zeros`` zeros, at decimal ``exponent``.

    Drawn from random significands with no zero digit, and kept only if
    the double's correctly rounded 17-digit significand has that shape.
    """
    for _ in range(1000):
        digits = "".join(map(str, rng.integers(1, 10, 17 - zeros)))
        x = float(f"{digits[0]}.{digits[1:]}e{exponent}")
        significand, e = f"{x:.16e}".split("e")
        if int(e) == exponent and len(significand) - len(significand.rstrip("0")) == zeros:
            return x
    raise AssertionError(f"no double with exponent {exponent} and {zeros} trailing zeros")


def _random_bit_rows(rng, nrows, ncols):
    """Rows of uniformly random float64 bit patterns with the special values mixed in."""
    bits = rng.integers(0, 2**64, size=(nrows, ncols), dtype=np.uint64)
    rows = bits.view(np.float64).copy()
    if nrows:
        flat = rows.reshape(-1)
        count = min(flat.size, _SPECIAL_FLOATS.size)
        where = rng.choice(flat.size, size=count, replace=False)
        flat[where] = _SPECIAL_FLOATS[:count]
    return rows


class TestRequestValidation:
    def test_rejects_bad_samples(self):
        for samples in _BAD_SAMPLES:
            with pytest.raises(ValueError, match="samples must be an integer >= 2"):
                _request(samples=samples)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            _request(phi_min=1.0, phi_max=0.5)
        with pytest.raises(ValueError):
            _request(phi_max=3.5)

    def test_rejects_bad_speed_and_eta(self):
        with pytest.raises(ValueError):
            SweepRequest(u=1.0, v=0.5, eta=0.6, helicity_class=HelicityClass.UNEQUAL)
        with pytest.raises(ValueError):
            SweepRequest(u=0.5, v=0.5, eta=-0.2, helicity_class=HelicityClass.UNEQUAL)

    @pytest.mark.parametrize("field", ["u", "v", "eta", "phi_min", "phi_max"])
    @pytest.mark.parametrize(
        "bad", [[0.5], np.array([0.5, 0.6]), 0.5 + 0j, "0.5", None], ids=repr
    )
    def test_non_real_scalar_gets_the_range_message(self, field, bad):
        message = {
            "u": r"u must satisfy 0 <= u < 1, got ",
            "v": r"v must satisfy 0 <= v < 1, got ",
            "eta": r"eta must lie in \[0, 2\*pi\), got ",
            "phi_min": r"need 0 <= phi_min < phi_max <= pi, got \[",
            "phi_max": r"need 0 <= phi_min < phi_max <= pi, got \[",
        }[field]
        kwargs = {"u": 0.5, "v": 0.5, "eta": 0.6, "helicity_class": HelicityClass.EQUAL_PLUS}
        kwargs[field] = bad
        with pytest.raises(ValueError, match="^" + message):
            SweepRequest(**kwargs)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float16(0.5), np.array(0.5)], ids=repr)
    def test_real_zero_d_inputs_accepted(self, value):
        request = SweepRequest(
            u=value, v=value, eta=value, helicity_class=HelicityClass.UNEQUAL,
            phi_min=value, phi_max=np.array(3.0), samples=5,
        )
        series = sweep_entanglement(request)
        assert series.phi.shape == (5,)
        meta = json.loads(json.dumps(series.to_json_dict()))["metadata"]
        assert meta["u"] == meta["eta"] == meta["phi_min"] == 0.5 and meta["phi_max"] == 3.0

    @pytest.mark.parametrize("bad", ["psi", None, 0], ids=repr)
    def test_rejects_unknown_class(self, bad):
        with pytest.raises(ValueError, match=rf"^unknown helicity class: {re.escape(repr(bad))}$"):
            SweepRequest(u=0.5, v=0.5, eta=0.6, helicity_class=bad)


class TestSweep:
    def test_two_sample_endpoints_are_collinear(self):
        series = sweep_entanglement(_request(samples=2))
        assert np.array_equal(series.phi, [0.0, math.pi])
        assert np.array_equal(series.delta, [0.0, 0.0])
        assert np.abs(series.entropy - REST_E_06).max() < 1e-12

    def test_rows_match_closed_forms(self):
        series = sweep_entanglement(_request(samples=501))
        delta_ref = kin.wigner_angle_tan_form(0.95, 0.95, series.phi)
        entropy_ref = boosted_entropy_closed_form(
            0.6, series.delta, HelicityClass.EQUAL_PLUS
        )
        assert np.abs(series.delta - delta_ref).max() < 1e-15
        assert np.abs(series.entropy - entropy_ref).max() < 1e-15

    def test_sorted_and_sized(self):
        series = sweep_entanglement(_request(samples=101))
        assert series.phi.size == 101
        assert np.all(np.diff(series.phi) > 0)

    def test_equal_helicity_never_exceeds_rest(self):
        series = sweep_entanglement(_request(u=0.995))
        assert series.entropy.max() <= rest_frame_entropy(0.6, HelicityClass.EQUAL_PLUS) + 1e-12

    def test_unequal_helicity_never_below_rest(self):
        series = sweep_entanglement(_request(cls=HelicityClass.UNEQUAL))
        assert series.entropy.min() >= -1e-15


class TestExtrema:
    def test_mid_relativistic_equal_single_minimum(self):
        series = sweep_entanglement(_request(u=0.95))
        extrema = find_local_extrema(series)
        assert len(extrema) == 1
        (ext,) = extrema
        assert ext.kind is ExtremumKind.MINIMUM
        assert ext.regime is Regime.MID
        assert not ext.plateau
        assert ext.phi == pytest.approx(PHI_STAR_095, abs=1e-6)
        assert ext.entropy == pytest.approx(0.2702086154781707, abs=1e-10)

    def test_ultra_relativistic_pattern_min_max_min(self):
        series = sweep_entanglement(_request(u=0.995))
        extrema = find_local_extrema(series)
        assert [e.kind for e in extrema] == [
            ExtremumKind.MINIMUM,
            ExtremumKind.MAXIMUM,
            ExtremumKind.MINIMUM,
        ]
        lo, top, hi = extrema
        assert lo.phi == pytest.approx(CROSS_LO, abs=1e-6)
        assert hi.phi == pytest.approx(CROSS_HI, abs=1e-6)
        assert top.phi == pytest.approx(PHI_STAR_0995, abs=1e-6)
        assert lo.entropy < 1e-10 and hi.entropy < 1e-10
        assert top.regime is Regime.ULTRA
        assert top.entropy > 0.1

    def test_unequal_mid_relativistic_single_maximum(self):
        series = sweep_entanglement(_request(u=0.95, cls=HelicityClass.UNEQUAL))
        extrema = find_local_extrema(series)
        assert len(extrema) == 1
        assert extrema[0].kind is ExtremumKind.MAXIMUM
        assert extrema[0].phi == pytest.approx(PHI_STAR_095, abs=1e-6)
        assert extrema[0].regime is Regime.MID

    def test_constant_series_has_no_extrema(self):
        series = sweep_entanglement(
            SweepRequest(u=0.95, v=0.95, eta=0.0, helicity_class=HelicityClass.EQUAL_PLUS)
        )
        assert series.entropy.max() == 0.0
        assert find_local_extrema(series) == []

    def test_synthetic_plateau_reported_once(self):
        request = _request(samples=7)
        phi = np.linspace(0.0, math.pi, 7)
        entropy = np.array([0.0, 0.2, 0.5, 0.5, 0.5, 0.2, 0.0])
        series = SweepSeries(
            request=request, phi=phi, delta=np.zeros(7), entropy=entropy
        )
        extrema = find_local_extrema(series)
        assert len(extrema) == 1
        assert extrema[0].plateau
        assert extrema[0].kind is ExtremumKind.MAXIMUM
        assert extrema[0].phi == pytest.approx((phi[2] + phi[4]) / 2, abs=1e-15)

    def test_plateau_steps_at_the_tolerance(self):
        above = np.nextafter(1e-14, 1.0)
        at_tol = np.array([0.5, 0.0, 1e-14, 0.0, 1e-14, 0.0, 0.5])
        assert _interior_extremum_runs(at_tol) == [(1, 5, ExtremumKind.MINIMUM)]
        past_tol = np.array([0.5, 0.0, above, 0.0, above, 0.0, 0.5])
        assert _interior_extremum_runs(past_tol) == [
            (1, 1, ExtremumKind.MINIMUM),
            (2, 2, ExtremumKind.MAXIMUM),
            (3, 3, ExtremumKind.MINIMUM),
            (4, 4, ExtremumKind.MAXIMUM),
            (5, 5, ExtremumKind.MINIMUM),
        ]
        for entropy in (at_tol, past_tol):
            assert _interior_extremum_runs(entropy) == _extremum_runs_reference(entropy)

    def test_extremum_runs_match_per_sample_reference(self):
        rng = np.random.default_rng(4)
        above = np.nextafter(1e-14, 1.0)
        plateaus = np.repeat(
            rng.integers(0, 4, 400).astype(float), rng.integers(1, 5, 400)
        )
        steps = np.cumsum(rng.choice([-above, -1e-14, 0.0, 1e-14, above], 3000))
        cases = [
            np.array([0.0, 0.2, 0.5, 0.5, 0.5, 0.2, 0.0]),
            np.array([1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]),
            np.full(10, 0.3),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 1.0]),
            plateaus,
            steps,
            rng.normal(size=20_001),
            np.round(rng.normal(size=20_001), 1),
            sweep_entanglement(_request(u=0.995, samples=2001)).entropy,
        ]
        for entropy in cases:
            assert _interior_extremum_runs(entropy) == _extremum_runs_reference(entropy)

    def test_requires_three_rows(self):
        series = sweep_entanglement(_request(samples=2))
        with pytest.raises(ValueError):
            find_local_extrema(series)

    def test_regime_agrees_with_ultra_condition(self):
        for u in (0.95, 0.995):
            series = sweep_entanglement(_request(u=u))
            for ext in find_local_extrema(series):
                assert (ext.regime is Regime.ULTRA) == kin.ultra_relativistic_condition(
                    u, u, ext.phi
                )

    @staticmethod
    def _candidates(u, v):
        return (kin.argmax_boost_angle(u, v), *(kin.ultra_phi_interval(u, v) or ()))

    @pytest.mark.parametrize("figure_id", ["3a", "3c"])
    def test_figure_extrema_at_closed_form_angles(self, figure_id):
        series = emit_figure(figure_id)
        req = series.request
        extrema = find_local_extrema(series)
        assert extrema and not any(e.plateau for e in extrema)
        candidates = self._candidates(req.u, req.v)
        assert all(any(e.phi == c for c in candidates) for e in extrema)

    def test_near_flat_minimum_is_exactly_phi_star(self):
        request = SweepRequest(
            0.9999712558638756, 0.7546749822842906, eta=1e-6,
            helicity_class=HelicityClass.EQUAL_MINUS, samples=11,
        )
        (ext,) = find_local_extrema(sweep_entanglement(request))
        assert ext.kind is ExtremumKind.MINIMUM and not ext.plateau
        assert ext.phi == kin.argmax_boost_angle(request.u, request.v)

    @staticmethod
    def _random_request(rng):
        def speed():
            r = rng.random()
            if r < 0.4:
                return 1.0 - 10.0 ** -rng.uniform(1, 8)
            if r < 0.5:
                return 10.0 ** -rng.uniform(0, 6)
            return rng.uniform(0.0, 1.0)

        if rng.random() < 0.5:
            eta = rng.uniform(0.0, 2.0 * math.pi)
        else:  # near a Bell point or a product state
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1, 9)
            eta = rng.integers(1, 8) * math.pi / 4 + offset
        phi_min, phi_max = 0.0, math.pi
        if rng.random() < 0.3:
            phi_min, phi_max = sorted(rng.uniform(0.0, math.pi, 2))
        return SweepRequest(
            speed(), speed(), float(eta), rng.choice(list(HelicityClass)),
            phi_min, phi_max, int(rng.integers(3, 300)),
        )

    def test_random_sweeps_report_bracketed_closed_form_angles(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(500):
            series = sweep_entanglement(self._random_request(rng))
            req = series.request
            runs = _interior_extremum_runs(series.entropy)
            extrema = find_local_extrema(series)
            assert len(extrema) == len(runs)
            for ext, (lo, hi, kind) in zip(extrema, runs):
                assert ext.kind is kind and ext.plateau == (hi > lo)
                if ext.plateau:
                    continue
                checked += 1
                assert any(ext.phi == c for c in self._candidates(req.u, req.v))
                assert series.phi[lo - 1] <= ext.phi <= series.phi[lo + 1]
                delta = kin.wigner_angle_tan_form(req.u, req.v, ext.phi)
                entropy = boosted_entropy_closed_form(req.eta, delta, req.helicity_class)
                assert ext.entropy.hex() == entropy.hex()
                ultra = kin.ultra_relativistic_condition(req.u, req.v, ext.phi)
                assert ext.regime is (Regime.ULTRA if ultra else Regime.MID)
                sign = 1.0 if kind is ExtremumKind.MINIMUM else -1.0
                bracket = series.entropy[lo - 1 : lo + 2]
                assert (sign * (ext.entropy - bracket)).max() <= 1e-15
        assert checked > 300

    def test_zero_speed_sweep_has_no_extrema(self):
        for u, v in ((0.0, 0.9), (0.9, 0.0), (0.0, 0.0)):
            request = SweepRequest(u, v, 0.6, HelicityClass.EQUAL_PLUS, samples=101)
            assert find_local_extrema(sweep_entanglement(request)) == []


class TestAngleSweepAndRegion:
    def test_angle_sweep_argmax(self):
        phis = np.linspace(0.0, math.pi, 1000)
        delta = kin.wigner_angle_tan_form(0.995, 0.995, phis)
        best = phis[np.argmax(delta)]
        assert abs(best - PHI_STAR_0995) <= phis[1] - phis[0]

    def test_angle_sweep_slow_speeds_flat(self):
        delta = kin.wigner_angle_tan_form(0.01, 0.01, np.linspace(0.0, math.pi, 500))
        assert np.abs(delta).max() < 1e-3

    def test_angle_sweep_endpoints_zero(self):
        delta = kin.wigner_angle_tan_form(0.9, 0.9, np.array([0.0, math.pi]))
        assert np.array_equal(delta, [0.0, 0.0])

    def test_threshold_region_points(self):
        speeds = np.array([0.9, 0.95, 0.99, 0.995])
        region = threshold_speed_region(3 * math.pi / 4, speeds)
        assert region.shape == (4, 4)
        assert region[3, 3]  # 0.995, 0.995
        assert not region[1, 1]  # 0.95, 0.95

    def test_threshold_region_perpendicular_always_false(self):
        speeds = np.linspace(0.0, 0.9999, 60)
        assert not threshold_speed_region(math.pi / 2, speeds).any()

    @pytest.mark.parametrize("bad", [[2.5], np.array([2.5]), np.array([[2.5]])], ids=repr)
    def test_threshold_region_refuses_sized_phi(self, bad):
        with pytest.raises(ValueError, match=r"^phi must lie in \(0, pi\), got \[+2\.5\]+$"):
            threshold_speed_region(bad, [0.9, 0.99])

    @pytest.mark.parametrize("bad", [2.5 + 0j, np.complex128(2.5 + 1j), "2.5", None], ids=repr)
    def test_threshold_region_refuses_non_real_phi(self, bad):
        message = rf"^phi must lie in \(0, pi\), got {re.escape(str(bad))}$"
        with pytest.raises(ValueError, match=message):
            threshold_speed_region(bad, [0.9, 0.99])

    @pytest.mark.parametrize(
        "u_speeds, v_speeds, name, shape",
        [
            (0.5, None, "u_speeds", "()"),
            (np.array(0.5), [0.9], "u_speeds", "()"),
            ([[0.9, 0.99]], None, "u_speeds", "(1, 2)"),
            ([0.9, 0.99], 0.5, "v_speeds", "()"),
            ([0.9, 0.99], [[0.9], [0.99]], "v_speeds", "(2, 1)"),
        ],
    )
    def test_threshold_region_refuses_speeds_that_are_not_1d(
        self, u_speeds, v_speeds, name, shape
    ):
        message = rf"^{name} must be 1-d, got shape {re.escape(shape)}$"
        with pytest.raises(ValueError, match=message):
            threshold_speed_region(3 * math.pi / 4, u_speeds, v_speeds)

    def test_threshold_region_accepts_zero_d_phi(self):
        speeds = [0.9, 0.99, 0.999]
        assert np.array_equal(
            threshold_speed_region(np.array(2.5), speeds), threshold_speed_region(2.5, speeds)
        )

    def test_threshold_region_diagonal_boundary(self):
        speeds = np.linspace(0.97, 0.999, 1000)
        diag = np.diagonal(threshold_speed_region(3 * math.pi / 4, speeds))
        first = speeds[np.argmax(diag)]
        assert first == pytest.approx(0.9851714310094161, abs=2 * (speeds[1] - speeds[0]))


# Default grid density of each Dataset figure.
_FIGURE_DEFAULT_SAMPLES = {"1a": 501, "1b": 2001, "1c": 201, "3b": 2001}


def _figure_reference_rows(figure_id, n):
    """Rows of a Dataset figure built curve by curve: one call per curve, stacked."""
    if figure_id == "1a":
        speeds = np.linspace(0.0, 0.999, n)
        curves = [
            np.column_stack(
                [speeds, np.full(n, phi), kin.wigner_angle_tan_form(speeds, speeds, phi)]
            )
            for phi in (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        ]
    elif figure_id == "1b":
        phis = np.linspace(0.0, math.pi, n)
        curves = [
            np.column_stack([np.full(n, u), phis, kin.wigner_angle_tan_form(u, u, phis)])
            for u in (0.5, 0.9, 0.99, 0.999)
        ]
    elif figure_id == "1c":
        speeds = np.linspace(0.0, 0.9999, n)
        curves = [
            np.column_stack(
                [
                    np.full(n, u),
                    speeds,
                    kin.ultra_relativistic_condition(u, speeds, 3 * math.pi / 4).astype(float),
                ]
            )
            for u in speeds
        ]
    else:  # 3b
        phis = np.linspace(0.0, math.pi, n)
        curves = [np.column_stack([phis, kin.wigner_angle_tan_form(0.995, 0.995, phis)])]
    return np.vstack(curves)


class TestFigures:
    @pytest.mark.parametrize("samples", [2, 41, None])
    @pytest.mark.parametrize("figure_id", sorted(_FIGURE_DEFAULT_SAMPLES))
    def test_dataset_rows_match_per_curve_reference(self, figure_id, samples):
        dataset = emit_figure(figure_id, samples=samples)
        n = samples or _FIGURE_DEFAULT_SAMPLES[figure_id]
        assert np.array_equal(dataset.rows, _figure_reference_rows(figure_id, n))

    @pytest.mark.parametrize("figure_id", sorted(_FIGURE_DEFAULT_SAMPLES))
    def test_dataset_metadata_runs_figure_first_version_last(self, figure_id):
        payload = json.loads(json.dumps(emit_figure(figure_id, samples=3).to_json_dict()))
        keys = list(payload["metadata"])
        assert keys[0] == "figure" and payload["metadata"]["figure"] == figure_id
        assert keys[-1] == "version" and payload["metadata"]["version"] == wignerlab.__version__

    @pytest.mark.parametrize("figure_id", ["3a", "3c"])
    def test_sweep_figure_metadata_layout(self, figure_id):
        series = emit_figure(figure_id, samples=3)
        assert series.request == _request(u=0.95 if figure_id == "3a" else 0.995, samples=3)
        request_keys = ["u", "v", "eta", "class", "phi_min", "phi_max", "samples"]
        figure_keys = ["figure", "phi_star"]
        if figure_id == "3c":
            figure_keys.append("delta_half_pi_crossings")
        assert list(series.metadata()) == request_keys + ["version"] + figure_keys
        assert series.metadata()["figure"] == figure_id

    def test_3a_minimum_location(self):
        series = emit_figure("3a")
        idx = np.argmin(series.entropy)
        assert 0 < idx < series.phi.size - 1
        assert series.phi[idx] == pytest.approx(PHI_STAR_095, abs=2 * (series.phi[1] - series.phi[0]))
        assert series.metadata()["phi_star"] == pytest.approx(PHI_STAR_095, abs=1e-12)

    def test_3b_crossings_from_rows(self):
        dataset = emit_figure("3b")
        assert dataset.columns == ("phi", "delta")
        phi = dataset.rows[:, 0]
        delta = dataset.rows[:, 1]
        sign = np.sign(delta - math.pi / 2)
        flips = np.nonzero(np.diff(sign) != 0)[0]
        assert len(flips) == 2
        crossings = []
        for i in flips:
            # linear interpolation of the delta = pi/2 crossing
            t = (math.pi / 2 - delta[i]) / (delta[i + 1] - delta[i])
            crossings.append(phi[i] + t * (phi[i + 1] - phi[i]))
        assert crossings[0] == pytest.approx(CROSS_LO, abs=1e-3)
        assert crossings[1] == pytest.approx(CROSS_HI, abs=1e-3)
        meta = dataset.metadata["delta_half_pi_crossings"]
        assert meta[0] == pytest.approx(CROSS_LO, abs=1e-12)
        assert meta[1] == pytest.approx(CROSS_HI, abs=1e-12)

    def test_3c_metadata_and_zeros(self):
        series = emit_figure("3c")
        meta = series.metadata()
        assert meta["phi_star"] == pytest.approx(PHI_STAR_0995, abs=1e-12)
        assert meta["delta_half_pi_crossings"][0] == pytest.approx(CROSS_LO, abs=1e-12)
        assert series.entropy.min() < 1e-6

    def test_1a_schema(self):
        dataset = emit_figure("1a", samples=51)
        assert dataset.columns == ("u", "phi", "delta")
        assert dataset.rows.shape == (3 * 51, 3)
        # relativistic limit visible: at the highest speed delta approaches phi
        top = dataset.rows[dataset.rows[:, 0] == dataset.rows[:, 0].max()]
        for phi in (math.pi / 4, math.pi / 2):
            row = top[np.isclose(top[:, 1], phi)]
            assert abs(row[0, 2] - phi) < 0.15

    def test_1b_schema_and_curves(self):
        dataset = emit_figure("1b", samples=201)
        assert dataset.columns == ("u", "phi", "delta")
        assert dataset.rows.shape == (4 * 201, 3)
        assert dataset.metadata["speeds"] == [0.5, 0.9, 0.99, 0.999]

    def test_1c_region_and_threshold(self):
        dataset = emit_figure("1c", samples=101)
        assert dataset.columns == ("u", "v", "ultra")
        assert dataset.rows.shape == (101 * 101, 3)
        assert set(np.unique(dataset.rows[:, 2])) <= {0.0, 1.0}
        assert dataset.metadata["equal_speed_threshold"] == pytest.approx(
            0.9851714310094161, abs=1e-12
        )
        # the corner point (max u, max v) is deep in the ultra region
        assert dataset.rows[-1, 2] == 1.0

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            emit_figure("9z")

    def test_samples_override_validation(self):
        for figure_id in ("1a", "3a"):
            for samples in _BAD_SAMPLES:
                with pytest.raises(ValueError, match="samples must be an integer >= 2"):
                    emit_figure(figure_id, samples=samples)


class TestSerialization:
    @pytest.mark.parametrize(
        "nrows",
        [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1],
    )
    def test_series_csv_matches_per_row_reference(self, nrows):
        rng = np.random.default_rng(nrows)
        phi, delta, entropy = _random_bit_rows(rng, nrows, 3).T
        series = SweepSeries(
            request=_request(), phi=phi, delta=delta, entropy=entropy
        )
        expected = _csv_reference(
            ("phi", "delta", "entropy_bits"), zip(phi, delta, entropy)
        )
        _assert_same_text(series.to_csv_text(), expected)

    def test_special_values_keep_their_text(self):
        text = Dataset(
            columns=("x",), rows=_SPECIAL_FLOATS[:, None], metadata={}
        ).to_csv_text()
        assert text.split("\n")[1:8] == ["0", "-0", "4.9406564584124654e-324",
                                          "-4.9406564584124654e-324", "inf", "-inf",
                                          "nan"]
        _assert_same_text(text, _csv_reference(("x",), _SPECIAL_FLOATS[:, None]))

    @pytest.mark.parametrize("nrows", [0, 1, _CSV_CHUNK_ROWS + 1])
    def test_dataset_csv_matches_per_row_reference(self, nrows):
        rows = _random_bit_rows(np.random.default_rng(100 + nrows), nrows, 2)
        dataset = Dataset(columns=("a", "b"), rows=rows, metadata={})
        _assert_same_text(dataset.to_csv_text(), _csv_reference(("a", "b"), rows))

    def test_in_range_corpus_matches_per_row_reference(self):
        rng = np.random.default_rng(12)
        n = 20_000  # rows; spans several chunks
        columns = (
            rng.uniform(0.0, math.pi, n),
            10.0 ** rng.uniform(-4.5, 16.5, n),
            rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4.5, 16.5, n),
        )
        rows = np.column_stack(columns)
        text = _strict_csv_text(("a", "b", "c"), rows)
        _assert_same_text(text, _csv_reference(("a", "b", "c"), rows))

    def test_fixed_notation_boundaries_and_powers_of_ten(self):
        powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
        values = np.concatenate(
            [
                [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e16, 0.0), 1e16],
                np.nextafter(powers, 0.0),
                powers,
                np.nextafter(powers, np.inf),
            ]
        )
        rows = np.concatenate([values, -values])[:, None]
        _assert_same_text(_strict_csv_text(("x",), rows), _csv_reference(("x",), rows))

    def test_every_exponent_and_trailing_zero_count_matches_format(self):
        # Each exponent of fixed notation (-4..15), each count of trailing
        # zeros of the 17-digit significand (0..16), both signs, in the first
        # and in a later column.  Exponents -4..0 reach every row of the
        # array path's prefix and keep tables, not only those that random
        # values reach; exponents 1..15 exercise the "%" fallback.
        rng = np.random.default_rng(25)
        values = np.array(
            [_fixed_notation_value(e, zeros, rng) for e in range(-4, 16) for zeros in range(17)]
        )
        column = np.concatenate([values, -values])
        rows = np.column_stack([column, column[::-1]])
        _assert_same_text(_strict_csv_text(("a", "b"), rows), _csv_reference(("a", "b"), rows))

    def test_array_path_window_is_exactly_fixed_notation_below_ten(self):
        # The array path takes 1e-4 <= |x| < 10 (exponents -4..0) and nothing
        # else: each power of ten from 1e-4 to 10 with both neighbours, random
        # values in every decade of the double range, zeros, subnormals,
        # values of 10 and above, and non-finite values, with both signs.
        rng = np.random.default_rng(37)
        powers = np.array([float(f"1e{k}") for k in range(-4, 2)])
        decades = np.arange(-324, 308)
        values = np.concatenate(
            [
                np.nextafter(powers, 0.0),
                powers,
                np.nextafter(powers, np.inf),
                10.0 ** (decades[:, None] + rng.uniform(0.0, 1.0, (decades.size, 8))).ravel(),
                [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 10.0, 1e16],
                [1e300, np.finfo(np.float64).max, math.inf, math.nan],
            ]
        )
        column = np.concatenate([values, -values])
        fixed, _, _ = _csv_significands(column)
        a = np.abs(column)
        window = (a >= 1e-4) & (a < 10.0)
        assert window.sum() == 2 * (15 + 5 * 8)  # powers and neighbours, 5 decades of draws
        np.testing.assert_array_equal(fixed, window)
        rows = column[:, None]
        _assert_same_text(_strict_csv_text(("x",), rows), _csv_reference(("x",), rows))

    @pytest.mark.parametrize(
        "speed, cls, samples",
        [
            *((u, cls, 20_001) for u in (0.99, 0.995, 0.999) for cls in HelicityClass),
            (0.995, HelicityClass.EQUAL_PLUS, 200_001),
        ],
    )
    def test_sweep_columns_match_per_row_reference(self, speed, cls, samples):
        # The values a sweep writes, not random bit patterns: the grid, the
        # rotation angle and the entropy, ultra-relativistic speeds included.
        series = sweep_entanglement(_request(u=speed, cls=cls, samples=samples))
        expected = _csv_reference(
            ("phi", "delta", "entropy_bits"), zip(series.phi, series.delta, series.entropy)
        )
        _assert_same_text(series.to_csv_text(), expected)

    def test_tie_rounds_half_to_even(self):
        tie = 1.0 + 2.0**-17  # exactly 1.00000762939453125
        assert _strict_csv_text(("x",), np.array([[tie]])) == "x\n1.0000076293945312\n"

    def test_rows_mixing_fixed_and_fallback_fields(self):
        rows = np.array(
            [[-0.0, 0.5, 1e300], [-2.5, 0.0, -1e-7], [math.nan, 123.25, -math.inf],
             [5e-324, -0.000123, 9.999999999999999e15]]
        )
        text = _strict_csv_text(("a", "b", "c"), rows)
        assert text.split("\n")[1] == "-0,0.5,1.0000000000000001e+300"
        _assert_same_text(text, _csv_reference(("a", "b", "c"), rows))

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: Dataset(columns=("a", "b"), rows=np.zeros((2, 3)), metadata={}),
                "need one column of values per name, got 3 for ('a', 'b')",
            ),
            (
                lambda: Dataset(columns=(), rows=np.zeros((2, 0)), metadata={}),
                "need one column of values per name, got 0 for ()",
            ),
            (
                lambda: Dataset(columns=("a",), rows=[[None]], metadata={}),
                "table values must be real, got [None]",
            ),
            (
                lambda: SweepSeries(
                    request=_request(), phi=np.zeros(3), delta=np.zeros(2), entropy=np.zeros(3)
                ),
                "need one column of values per name, 1-d and of one length,"
                " got shapes [(3,), (2,), (3,)]",
            ),
            (
                lambda: Dataset(columns=("a", "b"), rows=[[1, 2], [3]], metadata={}),
                "need one column of values per name, got ragged rows for ('a', 'b')",
            ),
            (
                lambda: Dataset(columns=("a,b", "c"), rows=[[1, 2]], metadata={}),
                "column names must be str without a comma or line break, got ('a,b', 'c')",
            ),
            (
                lambda: Dataset(columns=("a", "b\r\n"), rows=[[1, 2]], metadata={}),
                "column names must be str without a comma or line break, got ('a', 'b\\r\\n')",
            ),
            (
                lambda: Dataset(columns=(1, 2), rows=[[1, 2]], metadata={}),
                "column names must be str without a comma or line break, got (1, 2)",
            ),
            (
                lambda: Dataset(columns="ab", rows=[[1, 2]], metadata={}),
                "column names must be str without a comma or line break, got 'ab'",
            ),
            (
                lambda: Dataset(columns=5, rows=[[1.0]], metadata={}),
                "column names must be str without a comma or line break, got 5",
            ),
        ],
        ids=[
            "2-names-3-wide", "no-names", "none-row", "unequal-lengths",
            "ragged-rows", "comma-in-name", "line-break-in-name", "int-names", "str-header",
            "int-header",
        ],
    )
    def test_rows_must_match_the_header(self, make, message):
        # Refused at construction, before either format can read the table.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_header_is_kept_as_checked(self):
        names = ["a"]
        dataset = Dataset(columns=names, rows=[[1.0]], metadata={})
        names.append("b,c")  # the caller's list changes after the check
        assert dataset.columns == ("a",)
        assert dataset.to_csv_text() == "a\n1\n"

    def test_zero_row_table_is_the_header_alone(self):
        dataset = Dataset(columns=("u", "v", "ultra"), rows=np.empty((0, 3)), metadata={})
        assert dataset.to_csv_text() == "u,v,ultra\n"

    def test_figure_1c_csv_matches_per_row_reference(self):
        dataset = emit_figure("1c", samples=257)  # 66,049 rows of 0/1 flags
        assert dataset.rows.shape[0] > _CSV_CHUNK_ROWS
        assert set(np.unique(dataset.rows[:, 2])) == {0.0, 1.0}
        _assert_same_text(
            dataset.to_csv_text(), _csv_reference(dataset.columns, dataset.rows)
        )

    def test_csv_layout(self):
        series = sweep_entanglement(_request(samples=3))
        text = series.to_csv_text()
        lines = text.split("\n")
        assert lines[0] == "phi,delta,entropy_bits"
        assert len(lines) == 5 and lines[-1] == ""  # header + 3 rows + final LF
        assert "\r" not in text

    def test_csv_has_17_significant_digits(self):
        series = sweep_entanglement(_request(samples=3))
        mid = series.to_csv_text().split("\n")[2].split(",")
        assert mid[0] == f"{math.pi / 2:.17g}"
        assert float(mid[1]) == series.delta[1]  # round-trips exactly

    def test_csv_deterministic(self):
        a = sweep_entanglement(_request(samples=200)).to_csv_text()
        b = sweep_entanglement(_request(samples=200)).to_csv_text()
        assert a == b

    def test_json_layout(self):
        series = sweep_entanglement(_request(samples=4))
        payload = series.to_json_dict()
        assert set(payload) == {"metadata", "rows"}
        meta = payload["metadata"]
        for key in ("u", "v", "eta", "class", "phi_min", "phi_max", "samples", "version"):
            assert key in meta
        assert meta["class"] == "psi"
        assert len(payload["rows"]) == 4
        assert len(payload["rows"][0]) == 3
        json.dumps(payload)  # serializable

    def test_json_rows_match_per_row_reference(self):
        rows = _random_bit_rows(np.random.default_rng(7), 1000, 3)
        series = SweepSeries(request=_request(), phi=rows[:, 0], delta=rows[:, 1],
                             entropy=rows[:, 2])
        dataset = Dataset(columns=("a", "b", "c"), rows=rows, metadata={})
        expected = [[float(x) for x in row] for row in rows]  # the replaced per-row code
        for payload in (series.to_json_dict(), dataset.to_json_dict()):
            assert all(type(x) is float for row in payload["rows"] for x in row)
            assert json.dumps(payload["rows"], indent=2) == json.dumps(expected, indent=2)

    def test_dataset_roundtrip(self):
        dataset = emit_figure("1c", samples=11)
        payload = dataset.to_json_dict()
        assert payload["columns"] == ["u", "v", "ultra"]
        json.dumps(payload)
        text = dataset.to_csv_text()
        assert text.startswith("u,v,ultra\n")
        assert text.split("\n")[1].split(",")[2] in {"0", "1"}
