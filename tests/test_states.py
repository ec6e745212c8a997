"""Tests for state preparation, the rotation matrices, boosting, and the maps."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wignerlab.states as st_mod
from wignerlab.states import (
    Frame,
    HelicityClass,
    SpinMomentumState,
    boost_state,
    controlled_u_psi_to_xi,
    local_unitary_psi_to_psitilde,
    prepare_state,
    state_from_json_dict,
    wigner_rotation_matrix,
)

etas = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
deltas = st.floats(min_value=0.0, max_value=math.pi)


def _random_state(rng) -> SpinMomentumState:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return SpinMomentumState(amplitudes=amps, frame=Frame.BOOSTED)


class TestPrepare:
    def test_equal_plus_amplitudes(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.3)
        expected = [math.cos(0.3), 0.0, 0.0, math.sin(0.3)]
        assert np.abs(s.amplitudes - expected).max() < 1e-15
        assert s.frame is Frame.REST
        assert s.eta == 0.3 and s.delta is None

    def test_equal_minus_amplitudes(self):
        s = prepare_state(HelicityClass.EQUAL_MINUS, 0.3)
        expected = [0.0, math.cos(0.3), math.sin(0.3), 0.0]
        assert np.abs(s.amplitudes - expected).max() < 1e-15

    def test_unequal_is_product(self):
        s = prepare_state(HelicityClass.UNEQUAL, 1.1)
        expected = [math.cos(1.1), 0.0, math.sin(1.1), 0.0]
        assert np.abs(s.amplitudes - expected).max() < 1e-15
        # momentum (x) spin product: the 2x2 amplitude matrix has rank 1
        assert np.linalg.svd(s.amplitudes.reshape(2, 2), compute_uv=False)[1] < 1e-15

    def test_bell_point(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, math.pi / 4)
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.abs(s.amplitudes - [inv_sqrt2, 0, 0, inv_sqrt2]).max() < 1e-15

    def test_basis_ket_at_zero(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.0)
        assert np.array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_eta_domain(self):
        for bad in (-0.1, 2 * math.pi, 7.0):
            with pytest.raises(ValueError):
                prepare_state(HelicityClass.EQUAL_PLUS, bad)

    @pytest.mark.parametrize("cls", ["psi", None], ids=repr)
    def test_unknown_class_refused(self, cls):
        with pytest.raises(ValueError, match=f"^unknown helicity class: {re.escape(repr(cls))}$"):
            prepare_state(cls, 0.3)

    @pytest.mark.parametrize(
        "eta",
        [np.float32(0.3), np.float16(0.3), 1, True, False, np.array(0.3)],
        ids=repr,
    )
    @pytest.mark.parametrize("cls", list(HelicityClass))
    def test_non_float64_eta_is_evaluated_as_float(self, cls, eta):
        s = prepare_state(cls, eta)
        assert s.amplitudes.tobytes() == prepare_state(cls, float(eta)).amplitudes.tobytes()
        assert type(s.eta) is float and s.eta == float(eta)

    @pytest.mark.parametrize("nan", [np.float32("nan"), np.float16("nan")], ids=repr)
    def test_non_float64_nan_eta_rejected_by_range(self, nan):
        with pytest.raises(ValueError, match=r"^eta must lie in \[0, 2\*pi\), got nan$"):
            prepare_state(HelicityClass.EQUAL_PLUS, nan)

    @given(etas)
    @settings(max_examples=100, deadline=None)
    def test_unit_norm(self, eta):
        for cls in HelicityClass:
            s = prepare_state(cls, eta)
            assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-12


class TestRotationMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(wigner_rotation_matrix(0.0, +1), np.eye(2))

    def test_quarter_turn_at_pi(self):
        assert np.allclose(
            wigner_rotation_matrix(math.pi, +1), [[0, 1], [-1, 0]], atol=1e-16
        )

    @given(deltas)
    @settings(max_examples=100, deadline=None)
    def test_unitary_det_one_and_transpose_relation(self, delta):
        up = wigner_rotation_matrix(delta, +1)
        down = wigner_rotation_matrix(delta, -1)
        assert np.abs(up @ up.T - np.eye(2)).max() < 1e-12
        assert np.linalg.det(up) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(down, up.T)

    @pytest.mark.parametrize(
        "delta",
        [np.float32(0.5), np.float16(0.5), 1, True, False, np.array(0.5)],
        ids=repr,
    )
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_non_float64_delta_is_evaluated_as_float(self, delta, sign):
        mat = wigner_rotation_matrix(delta, sign)
        assert mat.dtype == np.float64
        assert mat.tobytes() == wigner_rotation_matrix(float(delta), sign).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            wigner_rotation_matrix(0.5, 0)
        with pytest.raises(ValueError):
            wigner_rotation_matrix(-0.1, +1)
        with pytest.raises(ValueError):
            wigner_rotation_matrix(3.5, +1)


class TestBoost:
    def test_zero_delta_is_identity(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.77)
        b = boost_state(s, 0.0)
        assert np.array_equal(b.amplitudes, s.amplitudes)
        assert b.frame is Frame.BOOSTED and b.delta == 0.0

    def test_equal_plus_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            eta = rng.uniform(0.0, 2 * math.pi)
            delta = rng.uniform(0.0, math.pi)
            b = boost_state(prepare_state(HelicityClass.EQUAL_PLUS, eta), delta)
            c, s = math.cos(eta), math.sin(eta)
            ch, sh = math.cos(delta / 2), math.sin(delta / 2)
            expected = np.array([c * ch, -c * sh, -s * sh, s * ch])
            assert np.abs(b.amplitudes - expected).max() < 1e-12

    def test_unequal_closed_form(self):
        eta, delta = 0.6, 1.2
        b = boost_state(prepare_state(HelicityClass.UNEQUAL, eta), delta)
        c, s = math.cos(eta), math.sin(eta)
        ch, sh = math.cos(delta / 2), math.sin(delta / 2)
        expected = np.array([c * ch, -c * sh, s * ch, s * sh])
        assert np.abs(b.amplitudes - expected).max() < 1e-12

    def test_half_pi_disentangles_equal_helicity(self):
        # (cos eta |p+> - sin eta |p->) (x) (|up> - |down>)/sqrt(2)
        eta = 0.3
        b = boost_state(prepare_state(HelicityClass.EQUAL_PLUS, eta), math.pi / 2)
        c, s = math.cos(eta) / math.sqrt(2), math.sin(eta) / math.sqrt(2)
        expected = np.array([c, -c, -s, s])
        assert np.abs(b.amplitudes - expected).max() < 1e-12
        assert np.linalg.svd(b.amplitudes.reshape(2, 2), compute_uv=False)[1] < 1e-12

    def test_rejects_already_boosted(self):
        b = boost_state(prepare_state(HelicityClass.EQUAL_PLUS, 0.2), 0.4)
        with pytest.raises(ValueError, match="already boosted"):
            boost_state(b, 0.1)

    def test_delta_domain(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.2)
        with pytest.raises(ValueError):
            boost_state(s, -0.5)

    def test_amplitudes_are_the_closed_forms_exactly(self):
        """Every class, against the documented closed forms in np.cos/np.sin."""
        rng = np.random.default_rng(7)
        pairs = [(0.0, 0.0), (0.3, math.pi), (math.pi / 4, math.pi / 2)]
        pairs += zip(rng.uniform(0.0, 2 * math.pi, 200), rng.uniform(0.0, math.pi, 200))
        for eta, delta in pairs:
            c, s = np.cos(eta), np.sin(eta)
            ch, sh = np.cos(delta / 2), np.sin(delta / 2)
            expected = {
                HelicityClass.EQUAL_PLUS: [c * ch, -c * sh, -s * sh, s * ch],
                HelicityClass.EQUAL_MINUS: [c * sh, c * ch, s * ch, s * sh],
                HelicityClass.UNEQUAL: [c * ch, -c * sh, s * ch, s * sh],
            }
            for cls, amps in expected.items():
                b = boost_state(prepare_state(cls, eta), delta)
                assert np.array_equal(b.amplitudes, amps), (cls, eta, delta)

    @pytest.mark.parametrize(
        "delta",
        [np.float32(0.5), np.float16(0.5), 1, True, False, np.array(0.5)],
        ids=repr,
    )
    @pytest.mark.parametrize("cls", list(HelicityClass))
    def test_non_float64_delta_is_evaluated_as_float(self, cls, delta):
        rest = prepare_state(cls, 0.6)
        b = boost_state(rest, delta)
        assert b.amplitudes.tobytes() == boost_state(rest, float(delta)).amplitudes.tobytes()
        assert type(b.delta) is float and b.delta == float(delta)

    @pytest.mark.parametrize("nan", [np.float32("nan"), np.float16("nan")], ids=repr)
    def test_non_float64_nan_delta_rejected_by_range(self, nan):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.2)
        with pytest.raises(ValueError, match=r"^delta must lie in \[0, pi\], got nan$"):
            boost_state(s, nan)

    @given(etas, deltas)
    @settings(max_examples=100, deadline=None)
    def test_norm_preserved(self, eta, delta):
        for cls in HelicityClass:
            b = boost_state(prepare_state(cls, eta), delta)
            assert abs(np.sum(np.abs(b.amplitudes) ** 2) - 1.0) < 1e-12


# A list or a sized array is not a scalar angle, even with one in-range element.
_SIZED = [[0.5], np.array([0.5]), np.array([[0.5]])]
_NOT_REAL = [np.complex128(0.3 + 2j), 0.3 + 2j, np.array(0.3 + 0j), "0.3", None]


class TestScalarInputs:
    @pytest.mark.parametrize("bad", _SIZED, ids=repr)
    def test_sized_eta_refused(self, bad):
        with pytest.raises(ValueError, match=r"^eta must lie in \[0, 2\*pi\), got \[+0\.5\]+$"):
            prepare_state(HelicityClass.EQUAL_PLUS, bad)

    @pytest.mark.parametrize("bad", _SIZED, ids=repr)
    def test_sized_delta_refused(self, bad):
        rest = prepare_state(HelicityClass.EQUAL_PLUS, 0.2)
        for call in (lambda: boost_state(rest, bad), lambda: wigner_rotation_matrix(bad, 1)):
            with pytest.raises(ValueError, match=r"^delta must lie in \[0, pi\], got \[+0\.5\]+$"):
                call()

    @pytest.mark.parametrize("bad", _NOT_REAL, ids=repr)
    def test_non_real_eta_refused(self, bad):
        with pytest.raises(
            ValueError, match=rf"^eta must lie in \[0, 2\*pi\), got {re.escape(str(bad))}$"
        ):
            prepare_state(HelicityClass.EQUAL_PLUS, bad)

    @pytest.mark.parametrize("bad", _NOT_REAL, ids=repr)
    def test_non_real_delta_refused(self, bad):
        rest = prepare_state(HelicityClass.EQUAL_PLUS, 0.2)
        for call in (lambda: boost_state(rest, bad), lambda: wigner_rotation_matrix(bad, 1)):
            with pytest.raises(
                ValueError, match=rf"^delta must lie in \[0, pi\], got {re.escape(str(bad))}$"
            ):
                call()


class TestLocalUnitaryMap:
    def test_is_the_signed_permutation(self):
        s = _random_state(np.random.default_rng(8))
        a0, a1, a2, a3 = s.amplitudes
        out = local_unitary_psi_to_psitilde(s).amplitudes
        assert out.dtype == np.complex128
        assert np.array_equal(out, [-a1, a0, a3, -a2])

    def test_maps_boosted_psi_to_boosted_psitilde(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eta = rng.uniform(0.0, 2 * math.pi)
            delta = rng.uniform(0.0, math.pi)
            psi_b = boost_state(prepare_state(HelicityClass.EQUAL_PLUS, eta), delta)
            tilde_b = boost_state(prepare_state(HelicityClass.EQUAL_MINUS, eta), delta)
            mapped = local_unitary_psi_to_psitilde(psi_b)
            assert np.abs(mapped.amplitudes - tilde_b.amplitudes).max() < 1e-12
            assert mapped.helicity_class is HelicityClass.EQUAL_MINUS

    def test_twice_is_identity_up_to_global_phase(self):
        s = _random_state(np.random.default_rng(2))
        twice = local_unitary_psi_to_psitilde(local_unitary_psi_to_psitilde(s))
        assert np.abs(twice.amplitudes + s.amplitudes).max() < 1e-15  # phase -1

    def test_norm_preserved_on_random_state(self):
        s = _random_state(np.random.default_rng(3))
        out = local_unitary_psi_to_psitilde(s)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12


class TestControlledUMap:
    def test_is_the_signed_permutation(self):
        s = _random_state(np.random.default_rng(9))
        a0, a1, a2, a3 = s.amplitudes
        out = controlled_u_psi_to_xi(s).amplitudes
        assert out.dtype == np.complex128
        assert np.array_equal(out, [a0, a1, a3, -a2])

    def test_maps_boosted_psi_to_boosted_xi(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            eta = rng.uniform(0.0, 2 * math.pi)
            delta = rng.uniform(0.0, math.pi)
            psi_b = boost_state(prepare_state(HelicityClass.EQUAL_PLUS, eta), delta)
            xi_b = boost_state(prepare_state(HelicityClass.UNEQUAL, eta), delta)
            mapped = controlled_u_psi_to_xi(psi_b)
            assert np.abs(mapped.amplitudes - xi_b.amplitudes).max() < 1e-12
            assert mapped.helicity_class is HelicityClass.UNEQUAL

    def test_control_branch_untouched(self):
        s = _random_state(np.random.default_rng(5))
        out = controlled_u_psi_to_xi(s)
        assert np.array_equal(out.amplitudes[:2], s.amplitudes[:2])

    def test_norm_preserved(self):
        s = _random_state(np.random.default_rng(6))
        out = controlled_u_psi_to_xi(s)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12


class TestStateType:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            SpinMomentumState(amplitudes=np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_rejects_nan_amplitude(self, slot, bad):
        """A NaN norm is not within tolerance of 1, directly or from JSON."""
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        amps[slot] = bad
        with pytest.raises(ValueError, match="^state must be normalized, got .* = nan$"):
            SpinMomentumState(amplitudes=amps)
        payload = prepare_state(HelicityClass.EQUAL_PLUS, 0.4).to_json_dict()
        payload["amplitudes"][slot] = [bad.real, bad.imag]
        with pytest.raises(ValueError, match="^state must be normalized"):
            state_from_json_dict(payload)

    def test_amplitudes_read_only(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.4)
        for state in (s, boost_state(s, 0.7), SpinMomentumState(amplitudes=[0, 1, 0, 0])):
            assert state.amplitudes.dtype == np.complex128
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0

    @pytest.mark.parametrize("size", [3, 5])
    def test_rejects_wrong_number_of_amplitudes(self, size):
        message = (
            r"^state must have 4 amplitudes \('p\+ up', 'p\+ down', 'p- up', 'p- down'\), "
            f"got {size}$"
        )
        amps = np.full(size, 1 / math.sqrt(size), dtype=complex)
        with pytest.raises(ValueError, match=message):
            SpinMomentumState(amplitudes=amps)
        payload = prepare_state(HelicityClass.EQUAL_PLUS, 0.4).to_json_dict()
        payload["amplitudes"] = [[1 / math.sqrt(size), 0.0]] * size
        with pytest.raises(ValueError, match=message):
            state_from_json_dict(payload)

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (4, 1), (1, 2, 2)])
    def test_any_shape_of_four_amplitudes(self, shape):
        amps = np.array([0.6, 0.0, 0.0, 0.8j]).reshape(shape)
        s = SpinMomentumState(amplitudes=amps)
        assert s.amplitudes.shape == (4,)
        assert np.array_equal(s.amplitudes, [0.6, 0.0, 0.0, 0.8j])

    def test_json_round_trip(self):
        b = boost_state(prepare_state(HelicityClass.UNEQUAL, 0.9), 1.4)
        payload = b.to_json_dict()
        assert payload["class"] == "xi"
        assert payload["frame"] == "boosted"
        assert payload["eta"] == 0.9 and payload["delta"] == 1.4
        assert len(payload["amplitudes"]) == 4
        assert all(len(pair) == 2 for pair in payload["amplitudes"])
        restored = state_from_json_dict(payload)
        assert np.abs(restored.amplitudes - b.amplitudes).max() < 1e-15
        assert restored.helicity_class is HelicityClass.UNEQUAL
        assert restored.frame is Frame.BOOSTED

    def test_json_rest_state_has_null_delta(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.0)
        assert s.to_json_dict()["delta"] is None

    def test_amplitude_order_documented(self):
        assert st_mod.AMPLITUDE_ORDER == ("p+ up", "p+ down", "p- up", "p- down")
