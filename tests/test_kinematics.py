"""Tests for the rotation-angle kinematics.

Expected values are frozen from independent routes: gamma against the
time-time entry of an explicitly constructed boost matrix, the D factor
against the equal-speed form (gamma+1)/(gamma-1), every closed-form
angle against the matrix composition, and every route against the
60-digit mpmath oracle (``tests/oracle.py``) up to u = v = 1 - 1e-12.
"""

import itertools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import wignerlab.kinematics as kin

# frozen: gamma = 1/sqrt(1-u^2), cross-checked below against boost_matrix
GAMMA_095 = 3.202563076101742
GAMMA_0995 = 10.0125234864352
# frozen: (gamma+1)/(gamma-1) at equal speeds
D_05 = 13.928203230275495
D_095 = 1.908033019213119
D_0995 = 1.221913430018819
# frozen: agreed value of all three angle routes at u = v = 0.5, phi = pi/2
DELTA_HALF_PERP = 0.14334756890536537
PHI_STAR_095 = 2.1224542672159568
PHI_STAR_0995 = 2.5293976228203254
DELTA_MAX_0995 = 1.9172025920508573


speeds = st.floats(min_value=0.01, max_value=0.99)
angles = st.floats(min_value=0.0, max_value=math.pi)


class TestLorentzGamma:
    def test_rest(self):
        assert kin.lorentz_gamma(0.0) == 1.0

    def test_values_match_boost_matrix_entry(self):
        # the time-time entry of a pure boost is gamma
        for u, expected in ((0.95, GAMMA_095), (0.995, GAMMA_0995)):
            assert kin.lorentz_gamma(u) == pytest.approx(expected, rel=1e-14)
            assert kin.boost_matrix([u, 0.0, 0.0])[0, 0] == pytest.approx(
                expected, rel=1e-14
            )

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                kin.lorentz_gamma(bad)

    def test_array_input(self):
        g = kin.lorentz_gamma(np.array([0.0, 0.95]))
        assert g.shape == (2,)
        assert g[1] == pytest.approx(GAMMA_095, rel=1e-14)


class TestSpeedFactor:
    def test_equal_speed_values(self):
        assert kin.speed_factor_d(0.5, 0.5) == pytest.approx(D_05, rel=1e-13)
        assert kin.speed_factor_d(0.95, 0.95) == pytest.approx(D_095, rel=1e-13)
        assert kin.speed_factor_d(0.995, 0.995) == pytest.approx(D_0995, rel=1e-13)

    def test_degenerate_is_infinite(self):
        assert kin.speed_factor_d(0.0, 0.5) == math.inf
        assert kin.speed_factor_d(0.5, 0.0) == math.inf

    def test_light_speed_limit_tends_to_one(self):
        # D - 1 = 2/(gamma - 1) ~ 9e-4 at gamma ~ 2236
        d = kin.speed_factor_d(0.9999999, 0.9999999)
        assert 1.0 < d < 1.001

    @given(speeds, speeds)
    @settings(max_examples=200, deadline=None)
    def test_at_least_one(self, u, v):
        assert kin.speed_factor_d(u, v) >= 1.0


class TestClosedForms:
    def test_collinear_is_zero(self):
        assert kin.wigner_angle_cos_form(0.5, 0.5, 0.0) == 0.0
        assert kin.wigner_angle_cos_form(0.5, 0.5, math.pi) == 0.0
        assert kin.wigner_angle_tan_form(0.5, 0.5, 0.0) == 0.0
        assert kin.wigner_angle_tan_form(0.5, 0.5, math.pi) == 0.0

    @pytest.mark.parametrize(
        "route",
        [
            kin.wigner_angle_cos_form,
            kin.wigner_angle_tan_form,
            kin.wigner_angle_matrix_form,
        ],
    )
    def test_float_pi_is_collinear_on_every_route(self, route):
        for u in (0.5, 1.0 - 1e-6):
            assert route(u, u, math.pi) == 0.0
        speeds = np.array([0.01, 0.5, 0.9, 1.0 - 1e-6])
        assert np.all(route(speeds, speeds[::-1], math.pi) == 0.0)
        assert np.all(route(0.7, 0.8, np.full(3, math.pi)) == 0.0)

    def test_degenerate_speed_is_zero(self):
        assert kin.wigner_angle_cos_form(0.0, 0.9, 1.0) == 0.0
        assert kin.wigner_angle_tan_form(0.0, 0.9, 1.0) == 0.0
        assert kin.wigner_angle_tan_form(0.9, 0.0, 2.0) == 0.0

    @pytest.mark.parametrize(
        "route",
        [kin.wigner_angle_cos_form, kin.wigner_angle_tan_form, kin.wigner_angle_matrix_form],
    )
    @pytest.mark.parametrize("phi", [0.0, 1.0, 2.5, math.pi])
    def test_negative_zero_speed_gives_positive_zero(self, route, phi):
        for u, v in ((-0.0, 0.5), (0.5, -0.0), (-0.0, -0.0)):
            delta = route(u, v, phi)
            assert delta == 0.0 and math.copysign(1.0, delta) == 1.0
            stack = route(np.array([u, 0.3]), np.array([v, 0.0]), np.full(2, phi))
            assert np.array_equal(stack, [0.0, 0.0]) and not np.signbit(stack).any()

    @pytest.mark.parametrize(
        "route",
        [kin.wigner_angle_cos_form, kin.wigner_angle_tan_form, kin.wigner_angle_matrix_form],
    )
    def test_float32_pi_is_collinear(self, route):
        # np.float32(pi) passes the range check but lies above pi in float64.
        for phi in (np.float32(math.pi), np.full(2, math.pi, dtype=np.float32)):
            delta = route(0.9, 0.99, phi)
            assert np.array_equal(delta, np.zeros(np.shape(phi)))
            assert not np.signbit(delta).any()

    def test_reference_point_all_routes(self):
        assert kin.wigner_angle_cos_form(0.5, 0.5, math.pi / 2) == pytest.approx(
            DELTA_HALF_PERP, abs=1e-12
        )
        assert kin.wigner_angle_tan_form(0.5, 0.5, math.pi / 2) == pytest.approx(
            DELTA_HALF_PERP, abs=1e-12
        )
        assert kin.wigner_angle_matrix_form(0.5, 0.5, math.pi / 2) == pytest.approx(
            DELTA_HALF_PERP, abs=1e-10
        )

    def test_tan_form_at_maximum(self):
        assert kin.wigner_angle_tan_form(
            0.995, 0.995, PHI_STAR_0995
        ) == pytest.approx(DELTA_MAX_0995, abs=1e-12)
        assert DELTA_MAX_0995 > math.pi / 2

    def test_relativistic_limit_approaches_phi(self):
        # delta -> phi as both speeds -> 1, from below and monotonically in u
        for phi in (0.5, 1.0, 2.0):
            errs = [
                abs(kin.wigner_angle_tan_form(u, u, phi) - phi)
                for u in (0.99, 0.9999, 0.999999)
            ]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 0.01

    def test_angle_range(self):
        rng = np.random.default_rng(7)
        u, v = rng.uniform(0.01, 0.999, (2, 200))
        phi = rng.uniform(0.0, math.pi, 200)
        d = kin.wigner_angle_tan_form(u, v, phi)
        assert np.all(d >= 0.0) and np.all(d <= math.pi)

    def test_phi_domain(self):
        with pytest.raises(ValueError):
            kin.wigner_angle_tan_form(0.5, 0.5, -0.1)
        with pytest.raises(ValueError):
            kin.wigner_angle_cos_form(0.5, 0.5, 3.2)

    @given(speeds, speeds, angles)
    @settings(max_examples=300, deadline=None)
    def test_forms_agree(self, u, v, phi):
        a = kin.wigner_angle_cos_form(u, v, phi)
        b = kin.wigner_angle_tan_form(u, v, phi)
        assert abs(a - b) < 1e-10

    def test_forms_agree_high_speed_grid(self):
        s = np.linspace(0.9, 0.9999, 40)
        phi = np.linspace(0.0, math.pi, 40)
        uu, vv, pp = np.meshgrid(s, s, phi, indexing="ij")
        diff = np.abs(
            kin.wigner_angle_cos_form(uu, vv, pp) - kin.wigner_angle_tan_form(uu, vv, pp)
        )
        assert diff.max() < 1e-6


class TestArgmax:
    def test_reference_values(self):
        assert kin.argmax_boost_angle(0.95, 0.95) == pytest.approx(
            PHI_STAR_095, abs=1e-12
        )
        assert kin.argmax_boost_angle(0.995, 0.995) == pytest.approx(
            PHI_STAR_0995, abs=1e-12
        )

    def test_grid_confirmation(self):
        phis = np.linspace(0.0, math.pi, 10_000)
        for u, v in ((0.95, 0.95), (0.995, 0.995), (0.3, 0.8)):
            grid_best = phis[np.argmax(kin.wigner_angle_tan_form(u, v, phis))]
            assert abs(grid_best - kin.argmax_boost_angle(u, v)) <= phis[1] - phis[0]

    def test_slow_speed_limit_is_half_pi(self):
        assert kin.argmax_boost_angle(0.01, 0.01) == pytest.approx(
            math.pi / 2, abs=1e-4
        )

    def test_always_beyond_half_pi(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u, v = rng.uniform(0.01, 0.999, 2)
            assert kin.argmax_boost_angle(u, v) > math.pi / 2

    def test_degenerate_raises(self):
        with pytest.raises(ValueError, match="no rotation"):
            kin.argmax_boost_angle(0.0, 0.5)

    @pytest.mark.parametrize(
        "u,v,message",
        [
            (1.0, 0.5, "u must satisfy 0 <= u < 1 (units of c), got 1.0"),
            (0.5, -0.1, "v must satisfy 0 <= v < 1 (units of c), got -0.1"),
            (math.nan, 0.5, "u must satisfy 0 <= u < 1 (units of c), got nan"),
            (0.5, math.nan, "v must satisfy 0 <= v < 1 (units of c), got nan"),
            (0.0, math.nan, "v must satisfy 0 <= v < 1 (units of c), got nan"),
            (0.0, 0.5, "no rotation: delta vanishes identically when u = 0 or v = 0"),
            (0.5, 0.0, "no rotation: delta vanishes identically when u = 0 or v = 0"),
            (
                np.array([0.5, 0.0]),
                0.5,
                "no rotation: delta vanishes identically when u = 0 or v = 0",
            ),
        ],
    )
    def test_error_messages(self, u, v, message):
        """Range errors name the speed and come before the zero-speed error."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            kin.argmax_boost_angle(u, v)


class TestConcavity:
    @pytest.mark.parametrize("u,v", [(0.95, 0.95), (0.995, 0.995), (0.3, 0.7)])
    def test_second_difference_nonpositive(self, u, v):
        phis = np.linspace(0.0, math.pi, 2001)
        d = np.asarray(kin.wigner_angle_tan_form(u, v, phis))
        h = phis[1] - phis[0]
        second = (d[2:] - 2 * d[1:-1] + d[:-2]) / (h * h)
        assert second.max() <= 1e-6


class TestUltraCondition:
    def test_reachable_geometry(self):
        assert kin.ultra_relativistic_condition(0.995, 0.995, 3 * math.pi / 4)

    def test_unreachable_speeds(self):
        # D ~ 1.908 > sqrt(2): no phi reaches pi/2
        for phi in np.linspace(0.01, math.pi - 0.01, 50):
            assert not kin.ultra_relativistic_condition(0.95, 0.95, phi)

    def test_perpendicular_boosts_never_ultra(self):
        for s in (0.5, 0.9, 0.99, 0.9999):
            assert not kin.ultra_relativistic_condition(s, s, math.pi / 2)

    def test_degenerate_false(self):
        assert not kin.ultra_relativistic_condition(0.0, 0.9, 2.5)

    @given(speeds, speeds, angles)
    @settings(max_examples=300, deadline=None)
    def test_matches_angle_threshold(self, u, v, phi):
        cond = kin.ultra_relativistic_condition(u, v, phi)
        assert cond == (kin.wigner_angle_tan_form(u, v, phi) >= math.pi / 2)


class TestUltraGeometrySolves:
    def test_equal_speed_threshold(self):
        s = kin.equal_speed_ultra_threshold(3 * math.pi / 4)
        assert s == pytest.approx(0.9851714310094161, abs=1e-12)
        # bidirectional: just beyond the threshold the angle straddles pi/2
        assert kin.wigner_angle_tan_form(s + 1e-4, s + 1e-4, 3 * math.pi / 4) >= math.pi / 2
        assert kin.wigner_angle_tan_form(s - 1e-4, s - 1e-4, 3 * math.pi / 4) < math.pi / 2

    def test_threshold_is_where_the_condition_turns(self):
        """On 2,001 phi the condition holds at the threshold and fails one float below it."""
        for phi in np.linspace(math.pi / 2 + 1e-3, math.pi - 1e-3, 2001).tolist():
            u = kin.equal_speed_ultra_threshold(phi)
            below = math.nextafter(u, 0.0)
            assert kin.ultra_relativistic_condition(u, u, phi), phi
            assert not kin.ultra_relativistic_condition(below, below, phi), phi

    @pytest.mark.parametrize("phi", [1.5707963577678032, 3.1415926226168867])
    def test_threshold_just_below_one(self, phi):
        """The closed form rounds to 1 here, but the condition turns at the float below 1."""
        u = kin.equal_speed_ultra_threshold(phi)
        below = math.nextafter(u, 0.0)
        assert u == math.nextafter(1.0, 0.0)
        assert kin.ultra_relativistic_condition(u, u, phi)
        assert not kin.ultra_relativistic_condition(below, below, phi)

    def test_threshold_requires_open_interval(self):
        for phi in (math.pi / 2, 0.3):
            with pytest.raises(ValueError):
                kin.equal_speed_ultra_threshold(phi)

    def test_threshold_is_a_speed_below_one(self):
        """pi counts as collinear, and a solution that rounds to 1 is refused."""
        refused = (math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-8, math.pi / 2 + 1e-9)
        for phi in refused:
            with pytest.raises(ValueError, match="not reachable sub-luminally"):
                kin.equal_speed_ultra_threshold(phi)
        with pytest.raises(ValueError) as exc:
            kin.equal_speed_ultra_threshold(math.pi)
        assert "phi <= pi/2" not in str(exc.value)
        assert f"phi = {math.pi!r}" in str(exc.value)
        offsets = (10.0 ** -np.arange(1.0, 17.0)).tolist()
        for phi in [math.pi / 2 + d for d in offsets] + [math.pi - d for d in offsets]:
            try:
                threshold = kin.equal_speed_ultra_threshold(phi)
            except ValueError as exc:
                assert "not reachable sub-luminally" in str(exc)
            else:
                assert 0.0 < threshold < 1.0, phi

    @pytest.mark.parametrize(
        "bad",
        [[2.5], np.array([2.5]), np.array([[2.5]]), 2.5 + 0j, np.complex128(2.5 + 1j), "2.5", None],
        ids=repr,
    )
    def test_threshold_refuses_non_scalar_phi(self, bad):
        message = rf"^boosting angle must lie in \[0, pi\], got {re.escape(str(bad))}$"
        with pytest.raises(ValueError, match=message):
            kin.equal_speed_ultra_threshold(bad)

    def test_phi_interval(self):
        lo, hi = kin.ultra_phi_interval(0.995, 0.995)
        assert lo == pytest.approx(1.82860523174277, abs=1e-12)
        assert hi == pytest.approx(2.8837837486419198, abs=1e-12)
        for phi in (lo, hi):
            assert kin.wigner_angle_tan_form(0.995, 0.995, phi) == pytest.approx(
                math.pi / 2, abs=1e-6
            )

    def test_phi_interval_unreachable(self):
        assert kin.ultra_phi_interval(0.95, 0.95) is None

    @pytest.mark.parametrize(
        "bad",
        [[0.995], np.array([0.99, 0.995]), np.array([[0.995]]), 0.995 + 0j, "0.995", None],
        ids=repr,
    )
    @pytest.mark.parametrize("name", ["u", "v"])
    def test_phi_interval_refuses_non_scalar_speed(self, name, bad):
        message = rf"^{name} must satisfy 0 <= {name} < 1 \(units of c\), got {re.escape(str(bad))}$"
        args = {"u": 0.99, "v": 0.99, name: bad}
        with pytest.raises(ValueError, match=message):
            kin.ultra_phi_interval(args["u"], args["v"])


class TestBoostMatrix:
    def test_zero_velocity_is_identity(self):
        assert np.array_equal(kin.boost_matrix([0.0, 0.0, 0.0]), np.eye(4))

    def test_metric_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta = rng.uniform(-0.57, 0.57, 3)  # |beta| < 1
            assert kin.lorentz_defect(kin.boost_matrix(beta)) < 1e-13

    def test_superluminal_raises(self):
        with pytest.raises(ValueError):
            kin.boost_matrix([0.8, 0.8, 0.0])


class TestComposeBoosts:
    def test_collinear_gives_identity_rotation(self):
        boost, rotation, angle = kin.compose_boosts([0, 0, 0.5], [0, 0, 0.7])
        assert angle < 1e-12
        assert np.abs(rotation - np.eye(4)).max() < 1e-12
        # the standard geometry at the float value of pi, -0.0 and np.float32(pi)
        # puts v on the z axis: its x component is exactly +0
        for phi in (math.pi, -0.0, np.float32(math.pi)):
            u_vec, v_vec = kin.standard_boost_vectors(0.5, 0.7, phi)
            assert v_vec[0] == 0.0 and not np.signbit(v_vec[0])
            _, rotation, angle = kin.compose_boosts(u_vec, v_vec)
            assert angle == 0.0
            assert np.array_equal(rotation, np.eye(4))

    def test_perpendicular_example(self):
        _, rotation, angle = kin.compose_boosts([0, 0, 0.5], [0.5, 0, 0])
        assert angle == pytest.approx(DELTA_HALF_PERP, abs=1e-10)
        assert np.abs(kin.rotation_axis(rotation) - [0, 1, 0]).max() < 1e-10

    def test_swap_reverses_axis(self):
        _, r1, a1 = kin.compose_boosts([0, 0, 0.5], [0.5, 0, 0])
        _, r2, a2 = kin.compose_boosts([0.5, 0, 0], [0, 0, 0.5])
        assert a1 == pytest.approx(a2, abs=1e-12)
        assert np.abs(kin.rotation_axis(r1) + kin.rotation_axis(r2)).max() < 1e-10

    def test_axis_perpendicular_to_boost_plane(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.uniform(-0.5, 0.5, 3)
            b = rng.uniform(-0.5, 0.5, 3)
            _, rotation, angle = kin.compose_boosts(a, b)
            if angle < 1e-8:
                continue
            axis = kin.rotation_axis(rotation)
            assert abs(axis @ a) < 1e-8 * np.linalg.norm(a)
            assert abs(axis @ b) < 1e-8 * np.linalg.norm(b)

    def test_factors_are_lorentz_and_consistent(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            u, v = rng.uniform(0.05, 0.95, 2)
            phi = rng.uniform(0.0, math.pi)
            u_vec, v_vec = kin.standard_boost_vectors(u, v, phi)
            boost, rotation, _ = kin.compose_boosts(u_vec, v_vec)
            assert kin.lorentz_defect(boost) < 1e-12
            assert kin.lorentz_defect(rotation) < 1e-12
            # factor product reproduces the composed matrix
            lam = kin.boost_matrix(v_vec) @ kin.boost_matrix(u_vec)
            assert np.abs(boost @ rotation - lam).max() < 1e-10
            # the boost factor is symmetric, the rotation orthogonal
            assert np.abs(boost - boost.T).max() < 1e-12
            assert np.abs(rotation @ rotation.T - np.eye(4)).max() < 1e-12

    def test_matrix_route_matches_closed_forms(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            u, v = rng.uniform(0.01, 0.99, 2)
            phi = rng.uniform(0.0, math.pi)
            assert kin.wigner_angle_matrix_form(u, v, phi) == pytest.approx(
                kin.wigner_angle_tan_form(u, v, phi), abs=1e-8
            )

    def test_rotation_axis_of_identity_is_zero(self):
        assert np.array_equal(kin.rotation_axis(np.eye(4)), np.zeros(3))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_speed_rejected_by_every_route(self, bad):
        for call in (
            lambda: kin.lorentz_gamma(bad),
            lambda: kin.speed_factor_d(bad, 0.5),
            lambda: kin.speed_factor_d(0.5, bad),
            lambda: kin.wigner_angle_cos_form(bad, 0.5, 1.0),
            lambda: kin.wigner_angle_tan_form(bad, 0.5, 1.0),
            lambda: kin.wigner_angle_matrix_form(0.5, bad, 1.0),
            lambda: kin.argmax_boost_angle(bad, 0.5),
            lambda: kin.ultra_relativistic_condition(bad, 0.5, 2.0),
            lambda: kin.standard_boost_vectors(bad, 0.5, 1.0),
        ):
            with pytest.raises(ValueError, match="must satisfy 0 <="):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_phi_rejected(self, bad):
        for form in (
            kin.wigner_angle_cos_form,
            kin.wigner_angle_tan_form,
            kin.wigner_angle_matrix_form,
            kin.ultra_relativistic_condition,
        ):
            with pytest.raises(ValueError, match="boosting angle"):
                form(0.5, 0.5, bad)

    def test_nan_inside_an_array_rejected(self):
        with pytest.raises(ValueError):
            kin.wigner_angle_tan_form(np.array([0.5, math.nan]), 0.5, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_boost_matrix_rejects_non_finite_velocity(self, bad):
        with pytest.raises(ValueError, match="finite"):
            kin.boost_matrix([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            kin.compose_boosts([0.0, 0.0, 0.5], [0.1, bad, 0.0])

    @pytest.mark.parametrize(
        "bad, shown",
        [
            ([0.3 + 1j, 0, 0], "[0.3+1.j 0. +0.j 0. +0.j]"),  # not read as speed 0.3
            ([None, 0, 0], "[None 0 0]"),  # not read as NaN
            ("abc", "abc"),
        ],
    )
    def test_velocity_passes_the_input_rule(self, bad, shown):
        message = "^" + re.escape(f"velocity must be finite, got {shown}") + "$"
        for call in (
            lambda: kin.boost_matrix(bad),
            lambda: kin.compose_boosts(bad, [0.0, 0.0, 0.5]),
            lambda: kin.compose_boosts([0.0, 0.0, 0.5], bad),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize(
        "call, shape",
        [
            (lambda: kin.boost_matrix([0.3, 0.0]), (2,)),
            (lambda: kin.compose_boosts([0.1, 0, 0, 0], [0, 0, 0.5]), (4,)),
            (lambda: kin.compose_boosts([0, 0, 0.5], [[0.1], [0.2]]), (2, 1)),
        ],
    )
    def test_velocity_of_wrong_length_names_its_shape(self, call, shape):
        message = f"velocity must have 3 components, got shape {shape}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()

    def test_huge_component_in_a_stack_is_sub_luminal(self):
        # |beta|^2 overflows to inf, which is a velocity error, not a warning
        huge = [[0.0, 0.0, 0.5], [1e200, 0.0, 0.0]]
        for call in (lambda: kin.boost_matrix(huge), lambda: kin.compose_boosts(huge, huge)):
            with pytest.raises(ValueError, match="sub-luminal"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [3, 4])
    def test_matrix_functions_reject_non_finite_entries(self, bad, size):
        # Unchecked, an inf entry warns, and a NaN entry gives the zero axis
        # or a NaN defect without a warning.
        rotation = np.eye(size)
        rotation[1, 2] = bad
        with pytest.raises(ValueError, match=r"^rotation must be finite, got \[\["):
            kin.rotation_axis(rotation)
        stack = np.stack([np.eye(4), np.eye(4)])
        stack[1, 0, 3] = bad
        with pytest.raises(ValueError, match=r"^matrix must be finite, got \[\[\["):
            kin.lorentz_defect(stack)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (3,), ()])
    def test_rotation_axis_names_a_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"3x3 or 4x4, got shape {shape}")):
            kin.rotation_axis(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4, 3), (4,), ()])
    def test_lorentz_defect_names_a_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"must be 4x4, got shape {shape}")):
            kin.lorentz_defect(np.zeros(shape))


class TestHugeFiniteMatrices:
    # Finite entries pass the input rule at any size: the axis comes out as
    # the true unit axis, and an overflowing Lorentz residual reads inf.
    @pytest.mark.parametrize("big", [1e300, 1.7e308, np.finfo(float).max])
    @pytest.mark.parametrize("size", [3, 4])
    def test_rotation_axis_of_huge_entries_is_the_unit_axis(self, big, size):
        off = size - 3  # the spatial block of a 4x4 starts at row and column 1
        single = np.eye(size)
        single[off + 1, off + 0], single[off + 0, off + 1] = big, -big
        assert kin.rotation_axis(single).tolist() == [0.0, 0.0, 1.0]
        full = np.eye(size)
        for i, j in ((2, 1), (0, 2), (1, 0)):
            full[off + i, off + j], full[off + j, off + i] = big, -big
        axis = kin.rotation_axis(np.stack([full, np.eye(size)]))
        assert np.abs(axis[0] - 1.0 / math.sqrt(3.0)).max() < 1e-15
        assert axis[1].tolist() == [0.0, 0.0, 0.0]

    def test_rotation_axis_of_mixed_magnitudes(self):
        rotation = np.eye(3)
        rotation[2, 1], rotation[0, 2] = 1e300, 1.7e308  # axial vector (1e300, 1.7e308, 0)
        axis = kin.rotation_axis(rotation)
        assert axis[0] == pytest.approx(1e300 / 1.7e308, rel=1e-15)
        assert axis[1] == 1.0 and axis[2] == 0.0

    @pytest.mark.parametrize("big", [1e160, 1e300, 1.7e308, np.finfo(float).max])
    def test_lorentz_defect_of_an_overflowing_residual_is_inf(self, big):
        stack = np.stack([np.eye(4), np.full((4, 4), big), np.diag([big, 1.0, 1.0, 1.0])])
        assert kin.lorentz_defect(stack).tolist() == [0.0, math.inf, math.inf]
        assert kin.lorentz_defect(np.full((4, 4), big)) == math.inf


class TestMatrixRouteRange:
    def test_low_speed_matches_tan_form(self):
        # gamma - 1 from g^2/(g + 1): no cancellation as u -> 0
        for u in np.geomspace(1e-8, 1e-2, 25):
            for phi in (0.3, 1.0, 2.0, 3.0):
                closed = kin.wigner_angle_tan_form(u, u, phi)
                assert kin.wigner_angle_matrix_form(u, u, phi) == pytest.approx(
                    closed, rel=1e-12, abs=0.0
                )

    def test_near_light_speed_never_raises_and_matches_mpmath(self):
        # The spinor composition forms no composed speed that could round
        # to 1, so no angle raises up to u = v = 1 - 1e-12.
        for k in range(8, 13):
            u = 1.0 - 10.0**-k
            for phi in np.linspace(0.05, math.pi - 0.05, 60).tolist():
                angle = kin.wigner_angle_matrix_form(u, u, phi)
                assert _relative_error(angle, u, u, phi) < 1e-9, (u, phi)

    @pytest.mark.parametrize(
        "u, bound",
        [(1e-8, 1e-14), (1e-4, 1e-14), (0.5, 1e-14), (1.0 - 1e-2, 1e-14),
         (1.0 - 1e-4, 1e-12), (1.0 - 1e-6, 1e-12),
         (1.0 - 1e-10, 1e-13), (1.0 - 1e-12, 1e-13)],
    )
    def test_relative_error_against_mpmath(self, u, bound):
        for phi in np.linspace(0.05, math.pi - 0.05, 60).tolist():
            angle = kin.wigner_angle_matrix_form(u, u, phi)
            assert _relative_error(angle, u, u, phi) < bound, phi


def _spinor_product_angle(u, v, sin_phi, cos_phi, sqrt):
    """The matrix route composed in full: the spinor product of the two boosts, then its angle.

    Boosts along (0, 0, 1) and (sin phi, 0, cos phi), each from its speed
    (``_half_rapidity`` of sigma = sqrt((1 - u)(1 + u))), their
    ``_spinor_product``, and 2 arctan(|q_y|/a0).
    """
    boosts = []
    for speed, direction in ((u, (0.0, 0.0, 1.0)), (v, (sin_phi, 0.0, cos_phi))):
        c, k = kin._half_rapidity(sqrt((1.0 - speed) * (1.0 + speed)), sqrt)
        k = k * speed
        boosts.append((c, (k * direction[0], k * direction[1], k * direction[2])))
    a0, q = kin._spinor_product(*boosts)
    return 2.0 * np.arctan(abs(q[1]) / a0)


MATRIX_EDGE_SPEEDS = (
    0.0, -0.0, 1e-300, 1e-200, 1e-160, 1e-8, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-12,
    math.nextafter(1.0, 0.0),
)
MATRIX_EDGE_ANGLES = (0.0, -0.0, 1e-8, 1.0, math.pi / 2, 2.0, math.pi - 1e-8, math.pi)


class TestMatrixRouteClosedForm:
    """The matrix route reads a0 and |q_y| of the spinor product in closed form.

    It must give the bytes of the full composition, signs of zero included,
    on scalar calls and on whole-array calls.
    """

    @staticmethod
    def _reference(u, v, phi):
        if isinstance(u, float):
            sin_phi, cos_phi = kin._direction_f(phi)
            return float(_spinor_product_angle(u, v, sin_phi, cos_phi, math.sqrt))
        u, v, (sin_phi, _, cos_phi) = kin._standard_geometry(u, v, phi)
        return _spinor_product_angle(u, v, sin_phi, cos_phi, np.sqrt)

    def _assert_same_bytes(self, u, v, phi):
        scalar = [kin.wigner_angle_matrix_form(*args) for args in zip(u, v, phi)]
        assert all(type(x) is float for x in scalar)
        assert np.array(scalar).tobytes() == np.array(
            [self._reference(*args) for args in zip(u, v, phi)]
        ).tobytes()
        u, v, phi = np.array(u), np.array(v), np.array(phi)
        whole = kin.wigner_angle_matrix_form(u, v, phi)
        assert whole.tobytes() == self._reference(u, v, phi).tobytes()
        assert whole.tobytes() == np.array(scalar).tobytes()

    def test_edge_grid(self):
        grid = itertools.product(MATRIX_EDGE_SPEEDS, MATRIX_EDGE_SPEEDS, MATRIX_EDGE_ANGLES)
        self._assert_same_bytes(*map(list, zip(*grid)))

    def test_seeded_draws_up_to_light_speed(self):
        rng = np.random.default_rng(35)
        u, v = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0, (2, 10_000))
        phi = rng.uniform(0.0, math.pi, 10_000)
        self._assert_same_bytes(u.tolist(), v.tolist(), phi.tolist())


def _relative_error(angle, u, v, phi):
    """|angle - delta| / delta against the oracle's delta at the exact float u, v and phi."""
    return oracle.relative_error(angle, oracle.rotation_angle(u, v, phi))


class TestOracleRelativeError:
    """Seeded relative errors against the 60-digit oracle over the speeds the API accepts.

    u and v lie in [1e-8, 1 - 1e-12]: 60% of draws log-uniform in u, 40%
    log-uniform in 1 - u over [1e-12, 0.1].  Angles stop at 3pi/4: in the
    phi -> pi band cos(phi) + D (tan form) and 1 + u v cos(phi) (cos form)
    still cancel, and the near-pi tests above cover that band at their
    own bounds.
    """

    N = 2000

    def _draws(self):
        rng = np.random.default_rng(31)
        low, high = math.log(1e-8), math.log(1.0 - 1e-12)
        speeds = np.exp(rng.uniform(low, high, (2, self.N)))
        near = rng.random((2, self.N)) < 0.4
        speeds[near] = 1.0 - np.exp(rng.uniform(math.log(1e-12), math.log(0.1), near.sum()))
        phi = np.where(
            rng.random(self.N) < 0.5,
            rng.uniform(1e-8, 0.75 * math.pi, self.N),
            np.exp(rng.uniform(math.log(1e-8), math.log(0.75 * math.pi), self.N)),
        )
        return speeds[0], speeds[1], phi

    def test_speed_factor(self):
        u, v, _ = self._draws()
        errors = [
            oracle.relative_error(d, oracle.speed_factor(a, b))
            for a, b, d in zip(u.tolist(), v.tolist(), kin.speed_factor_d(u, v).tolist())
        ]
        assert max(errors) <= 1e-15

    @pytest.mark.parametrize(
        "route",
        [kin.wigner_angle_tan_form, kin.wigner_angle_cos_form, kin.wigner_angle_matrix_form],
    )
    def test_angle_routes(self, route):
        u, v, phi = self._draws()
        angles = route(u, v, phi).tolist()
        errors = [
            _relative_error(angle, a, b, p)
            for a, b, p, angle in zip(u.tolist(), v.tolist(), phi.tolist(), angles)
        ]
        assert max(errors) <= 4e-15

    def test_argmax(self):
        u, v, _ = self._draws()
        errors = [
            oracle.relative_error(phi, oracle.argmax_angle(a, b))
            for a, b, phi in zip(u.tolist(), v.tolist(), kin.argmax_boost_angle(u, v).tolist())
        ]
        assert max(errors) <= 1e-13


class TestBoostMatrixAccuracy:
    @pytest.mark.parametrize("speed", [1e-8, 1e-4, 0.5, 0.99, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-8])
    def test_each_entry_within_four_eps_gamma_squared(self, speed):
        # 1 - |beta|^2 of the rounded components alone costs eps gamma^2.
        rng = np.random.default_rng(29)
        directions = rng.normal(size=(12, 3))
        velocities = speed * directions / np.linalg.norm(directions, axis=-1, keepdims=True)
        mats = kin.boost_matrix(velocities)
        for beta, mat in zip(velocities, mats):
            reference, gamma2 = _boost_reference(beta)
            bound = 4.0 * np.finfo(float).eps * gamma2
            for i in range(4):
                for j in range(4):
                    exact = reference[i][j]
                    assert abs((float(mat[i, j]) - exact) / exact) <= bound, (speed, i, j)


def _boost_reference(beta):
    """50-digit [[gamma, -gamma beta^T], [-gamma beta, I + gamma^2/(gamma+1) beta beta^T]].

    Evaluated at the exact float components; also returns gamma^2 as a float.
    """
    with mpmath.workdps(50):
        b = [mpmath.mpf(x) for x in beta.tolist()]
        gamma2 = 1 / (1 - sum(x * x for x in b))
        gamma = mpmath.sqrt(gamma2)
        scale = gamma2 / (gamma + 1)
        rows = [[gamma] + [-gamma * x for x in b]]
        rows += [[-gamma * b[i]] + [(i == j) + scale * b[i] * b[j] for j in range(3)]
                 for i in range(3)]
        return rows, float(gamma2)


class TestTinySpeed:
    # D = (1 + sigma_u)(1 + sigma_v)/(u v) is finite down to u v ~ 2.2e-308
    # (u = 1e-160, v = 0.3: D = 1.30e161); below that the true D overflows,
    # and so does a zero speed's, to +inf without a warning.
    @pytest.mark.parametrize("wrap", [float, lambda x: np.array([x])], ids=["float", "array"])
    def test_no_overflow_warning(self, wrap):
        tiny, v, phi = wrap(1e-160), wrap(0.3), wrap(1.0)
        for a, b in ((tiny, v), (v, tiny)):
            assert np.all(np.isfinite(kin.speed_factor_d(a, b)))
            tan, cos = kin.wigner_angle_tan_form(a, b, phi), kin.wigner_angle_cos_form(a, b, phi)
            assert np.all(cos > 0.0) and np.all(abs(tan - cos) <= 1e-14 * cos)
        for a, b in ((tiny, tiny), (wrap(0.0), v), (v, wrap(0.0))):
            assert np.all(kin.speed_factor_d(a, b) == math.inf)
            delta = kin.wigner_angle_tan_form(a, b, phi)
            assert np.all(delta == 0.0) and np.all(np.copysign(1.0, delta) == 1.0)
        for a, b in ((tiny, v), (v, tiny), (tiny, tiny)):
            assert np.all(kin.argmax_boost_angle(a, b) == math.pi / 2)
            assert not np.any(kin.ultra_relativistic_condition(a, b, wrap(2.0)))

    @pytest.mark.parametrize("u", [1e-160, 1e-200])
    def test_routes_agree_where_q_squared_underflows(self, u):
        v, phi = 0.3, 1.0
        tan = kin.wigner_angle_tan_form(u, v, phi)
        others = (
            kin.wigner_angle_cos_form(u, v, phi),
            kin.wigner_angle_matrix_form(u, v, phi),
            kin.wigner_angle_matrix_form(np.array([u]), v, phi)[0],
            kin.compose_boosts(*kin.standard_boost_vectors(u, v, phi)).angle,
        )
        assert tan > 0.0
        for angle in others:
            assert abs(angle - tan) <= 1e-14 * tan, angle


class TestStacks:
    SHAPE = (5, 4)

    def _stack(self):
        rng = np.random.default_rng(17)
        u, v = rng.uniform(0.01, 0.99, (2,) + self.SHAPE)
        phi = rng.uniform(0.0, math.pi, self.SHAPE)
        return u, v, phi

    def test_compose_matches_scalar_calls(self):
        u, v, phi = self._stack()
        first, second = kin.standard_boost_vectors(u, v, phi)
        assert first.shape == second.shape == self.SHAPE + (3,)
        boost, rotation, angle = kin.compose_boosts(first, second)
        assert boost.shape == rotation.shape == self.SHAPE + (4, 4)
        assert angle.shape == self.SHAPE
        defects = kin.lorentz_defect(rotation)
        axes = kin.rotation_axis(rotation)
        assert defects.shape == self.SHAPE and axes.shape == self.SHAPE + (3,)
        for idx in np.ndindex(*self.SHAPE):
            b1, r1, a1 = kin.compose_boosts(*kin.standard_boost_vectors(u[idx], v[idx], phi[idx]))
            assert np.abs(boost[idx] - b1).max() < 1e-14 * np.abs(b1).max()
            assert np.abs(rotation[idx] - r1).max() < 1e-14
            assert abs(angle[idx] - a1) < 1e-14
            assert abs(defects[idx] - kin.lorentz_defect(r1)) < 1e-14
            assert abs(kin.lorentz_defect(boost[idx]) - kin.lorentz_defect(b1)) < 1e-14
            assert np.abs(axes[idx] - kin.rotation_axis(r1)).max() < 1e-14

    def test_matrix_form_broadcasts(self):
        u, v, phi = self._stack()
        stacked = kin.wigner_angle_matrix_form(u, v[:, :1], phi)
        assert stacked.shape == self.SHAPE
        for idx in np.ndindex(*self.SHAPE):
            scalar = kin.wigner_angle_matrix_form(u[idx], v[idx[0], 0], phi[idx])
            assert abs(stacked[idx] - scalar) < 1e-14

    def test_scalar_contract(self):
        boost, rotation, angle = kin.compose_boosts([0, 0, 0.5], [0.5, 0, 0])
        assert boost.shape == rotation.shape == (4, 4)
        assert type(angle) is float
        assert type(kin.wigner_angle_matrix_form(0.5, 0.5, 1.0)) is float
        assert type(kin.lorentz_defect(boost)) is float
        assert kin.rotation_axis(rotation).shape == (3,)
        assert kin.boost_matrix([0.1, 0.2, 0.3]).shape == (4, 4)

    def test_single_velocity_equals_its_stack_element_to_the_bit(self):
        rng = np.random.default_rng(23)
        first, second = rng.uniform(-0.57, 0.57, (2, 40, 3))
        boost, rotation, angle = kin.compose_boosts(first, second)
        mats = kin.boost_matrix(first)
        for k in range(40):
            b1, r1, a1 = kin.compose_boosts(first[k], second[k])
            assert b1.tobytes() == boost[k].tobytes()
            assert r1.tobytes() == rotation[k].tobytes()
            assert type(a1) is float and a1 == angle[k]
            assert kin.boost_matrix(first[k]).tobytes() == mats[k].tobytes()

    def test_boost_matrix_stack_and_identity(self):
        betas = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [0.0, 0.9, 0.0]])
        mats = kin.boost_matrix(betas)
        assert mats.shape == (3, 4, 4)
        assert np.array_equal(mats[0], np.eye(4))
        for beta, mat in zip(betas, mats):
            assert np.array_equal(mat, kin.boost_matrix(beta))
        with pytest.raises(ValueError, match="sub-luminal"):
            kin.boost_matrix(np.vstack([betas, [[0.8, 0.8, 0.0]]]))


class TestArrayMemory:
    N = 100_001

    @pytest.mark.parametrize("route", [kin.wigner_angle_tan_form, kin.wigner_angle_cos_form])
    def test_angle_routes_write_into_their_own_arrays(self, route):
        """A long phi array costs sin phi and cos phi, the result written into cos phi.

        The expression's temporaries would hold four (tan) or seven (cos)
        float64 arrays of phi's length at once.
        """
        phi = np.linspace(0.0, math.pi, self.N)
        tracemalloc.start()
        try:
            delta = route(0.995, 0.995, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta.shape == phi.shape
        assert peak < 2.5 * phi.nbytes, peak
