"""Tests for partial trace, entropy, closed forms, derivative and bound.

The closed forms are checked against the independent pipeline
prepare -> boost -> partial trace -> eigenvalue entropy, and the
analytic derivative against central finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wignerlab.entanglement as ent
from wignerlab.states import (
    HelicityClass,
    SpinMomentumState,
    boost_state,
    prepare_state,
)

LN2 = math.log(2.0)

etas = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)
deltas = st.floats(min_value=0.0, max_value=math.pi)


def _pipeline_entropy(cls, eta, delta, keep="spin"):
    boosted = boost_state(prepare_state(cls, eta), delta)
    return ent.von_neumann_entropy(ent.reduced_density_matrix(boosted, keep))


class TestReducedDensityMatrix:
    def test_bell_state_is_maximally_mixed(self):
        bell = prepare_state(HelicityClass.EQUAL_PLUS, math.pi / 4)
        for keep in ("spin", "momentum"):
            rho = ent.reduced_density_matrix(bell, keep)
            assert np.abs(rho - np.eye(2) / 2).max() < 1e-12

    def test_boosted_unequal_at_half_pi(self):
        # the momentum-side reduced matrix is exactly diag(cos^2, sin^2);
        # the spin side shares the spectrum but is not diagonal in this basis
        eta = 0.6
        boosted = boost_state(prepare_state(HelicityClass.UNEQUAL, eta), math.pi / 2)
        rho_mom = ent.reduced_density_matrix(boosted, "momentum")
        expected = np.diag([math.cos(eta) ** 2, math.sin(eta) ** 2])
        assert np.abs(rho_mom - expected).max() < 1e-12
        rho_spin = ent.reduced_density_matrix(boosted, "spin")
        assert np.allclose(
            np.sort(ent.density_eigenvalues(rho_spin)),
            np.sort(ent.density_eigenvalues(rho_mom)),
            atol=1e-12,
        )

    def test_product_state_gives_projector(self):
        product = prepare_state(HelicityClass.UNEQUAL, 1.0)
        rho = ent.reduced_density_matrix(product, "spin")
        lam = ent.density_eigenvalues(rho)
        assert np.abs(np.sort(lam) - [0.0, 1.0]).max() < 1e-12

    def test_matches_the_matrix_products(self):
        """Spin: A^T conj(A); momentum: A A^H, for A the amplitudes as a 2x2 matrix."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = SpinMomentumState(amplitudes=amps / np.linalg.norm(amps))
            a = state.amplitudes.reshape(2, 2)
            for keep, reference in (("spin", a.T @ a.conj()), ("momentum", a @ a.conj().T)):
                rho = ent.reduced_density_matrix(state, keep)
                assert rho.dtype == np.complex128 and rho.shape == (2, 2)
                assert np.abs(rho - reference).max() < 1e-15, keep

    def test_keep_validation(self):
        s = prepare_state(HelicityClass.EQUAL_PLUS, 0.2)
        with pytest.raises(ValueError):
            ent.reduced_density_matrix(s, "both")

    @given(etas, deltas)
    @settings(max_examples=100, deadline=None)
    def test_valid_density_matrix(self, eta, delta):
        boosted = boost_state(prepare_state(HelicityClass.EQUAL_PLUS, eta), delta)
        rho = ent.reduced_density_matrix(boosted)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
        assert ent.density_eigenvalues(rho).min() >= 0.0


class TestVonNeumannEntropy:
    def test_maximally_mixed_is_one_bit(self):
        assert ent.von_neumann_entropy(np.eye(2) / 2) == 1.0

    def test_pure_projector_is_zero(self):
        assert ent.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_diagonal_matches_direct_sum(self):
        p = math.cos(0.6) ** 2
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        got = ent.von_neumann_entropy(np.diag([p, 1 - p]))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(
            ent.rest_frame_entropy(0.6, HelicityClass.EQUAL_PLUS), abs=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ent.von_neumann_entropy(np.array([[0.5, 0.1], [0.3, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            ent.von_neumann_entropy(np.eye(2))
        with pytest.raises(ValueError, match="positive"):
            ent.von_neumann_entropy(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="2x2"):
            ent.von_neumann_entropy(np.eye(3) / 3)


class TestDensityEigenvalues:
    @pytest.mark.parametrize(
        "rho",
        [np.diag([0.75, 0.25]), [[0.75, 0.25j], [-0.25j, 0.25]], [[1, 0], [0, 0]]],
        ids=["float-dtype", "nested-list", "int-list"],
    )
    def test_accepts_any_2x2_array_like(self, rho):
        as_complex = np.asarray(rho, dtype=complex)
        lam = ent.density_eigenvalues(rho)
        assert type(lam) is np.ndarray and lam.dtype == np.float64 and lam.shape == (2,)
        assert lam.tobytes() == ent.density_eigenvalues(as_complex).tobytes()
        entropy = ent.von_neumann_entropy(rho)
        assert type(entropy) is float
        assert entropy == ent.von_neumann_entropy(as_complex)

    def test_returns_float64_array_for_a_pipeline_matrix(self):
        boosted = boost_state(prepare_state(HelicityClass.EQUAL_PLUS, 0.6), 1.1)
        lam = ent.density_eigenvalues(ent.reduced_density_matrix(boosted))
        assert type(lam) is np.ndarray and lam.dtype == np.float64 and lam.shape == (2,)
        assert lam[0] >= lam[1]

    @pytest.mark.parametrize(
        "rho, message",
        [
            ([[0.5, math.nan], [0.0, 0.5]], "density matrix must be finite and Hermitian"),
            ([[0.5, 0.1], [0.3, 0.5]], "density matrix must be finite and Hermitian"),
            ([[0.5, 0.1j], [0.1j, 0.5]], "density matrix must be finite and Hermitian"),
            (np.eye(2), "density matrix must have unit trace, got 2.0"),
            (
                np.diag([1.5, -0.5]),
                "density matrix is not positive semidefinite: [ 1.5 -0.5]",
            ),
            (np.eye(3) / 3, "expected a 2x2 matrix, got shape (3, 3)"),
            ([0.5, 0.5], "expected a 2x2 matrix, got shape (2,)"),
        ],
        ids=["non-finite", "non-hermitian", "non-hermitian-imag", "trace", "psd",
             "3x3", "vector"],
    )
    @pytest.mark.parametrize("call", [ent.density_eigenvalues, ent.von_neumann_entropy])
    def test_rejection_messages(self, call, rho, message):
        with pytest.raises(ValueError) as exc:
            call(rho)
        assert str(exc.value) == message

    # At the hermiticity tolerance 1e-12: a diagonal z is tested by
    # |z - conj(z)| = 2 |Im z|, so Im z = 0.5e-12 passes and the next float
    # above it fails; an off-diagonal pair by the modulus |r01 - conj(r10)|,
    # not by its parts: 0.9e-12 (1 + i) is refused (|d| = 1.27e-12).
    _HALF_TOL = 0.5e-12
    _EDGE_CASES = {
        "diagonal-at-tol": ([[complex(0.5, _HALF_TOL), 0.0], [0.0, 0.5]], [0.5, 0.5]),
        "diagonal-above-tol": (
            [[0.5, 0.0], [0.0, complex(0.5, math.nextafter(_HALF_TOL, 1.0))]], None
        ),
        "off-diagonal-at-tol": ([[0.5, 0.25 + 1e-12j], [0.25, 0.5]], [0.75, 0.25]),
        "off-diagonal-above-tol": (
            [[0.5, complex(0.25, math.nextafter(1e-12, 1.0))], [0.25, 0.5]], None
        ),
        "off-diagonal-modulus-below-tol": ([[0.5, 0.7e-12 + 0.7e-12j], [0.0, 0.5]], [0.5, 0.5]),
        "off-diagonal-modulus-above-tol": ([[0.5, 0.9e-12 + 0.9e-12j], [0.0, 0.5]], None),
    }

    @pytest.mark.parametrize(
        "container",
        [lambda rows: rows, lambda rows: tuple(map(tuple, rows)), np.array],
        ids=["nested-list", "tuple", "ndarray"],
    )
    @pytest.mark.parametrize("case", list(_EDGE_CASES))
    def test_hermiticity_tolerance_edge(self, case, container):
        rows, expected = self._EDGE_CASES[case]
        rho = container(rows)
        if expected is None:
            for call in (ent.density_eigenvalues, ent.von_neumann_entropy):
                with pytest.raises(ValueError) as exc:
                    call(rho)
                assert str(exc.value) == "density matrix must be finite and Hermitian"
            return
        assert ent.density_eigenvalues(rho).tolist() == expected
        assert ent.von_neumann_entropy(rho) == ent.von_neumann_entropy(np.diag(expected))


class TestBinaryEntropy:
    def test_edges_and_midpoint(self):
        assert ent.binary_entropy(0.0) == 0.0
        assert ent.binary_entropy(1.0) == 0.0
        assert ent.binary_entropy(0.5) == 1.0

    def test_array(self):
        h = ent.binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(h, [0.0, 1.0, 0.0])

    def test_zero_is_positive_zero(self):
        # 0 log 0 := +0, also for p = -0.0, where x * log2(x) would give -0.0
        for p in (np.array([-0.0, 0.0, 1.0]), -0.0):
            assert not np.signbit(ent.binary_entropy(p)).any()
        assert not np.signbit(ent._xlog2x(np.array([-0.0, 0.0]))).any()

    def test_symmetry(self):
        assert ent.binary_entropy(0.3) == pytest.approx(
            ent.binary_entropy(0.7), abs=1e-15
        )


class TestRestFrameEntropy:
    def test_bell_point_is_one_bit(self):
        assert ent.rest_frame_entropy(math.pi / 4, HelicityClass.EQUAL_PLUS) == 1.0

    def test_basis_ket_is_zero(self):
        assert ent.rest_frame_entropy(0.0, HelicityClass.EQUAL_PLUS) == 0.0

    def test_unequal_always_zero(self):
        for eta in np.linspace(0.0, 2 * math.pi, 17, endpoint=False):
            assert ent.rest_frame_entropy(eta, HelicityClass.UNEQUAL) == 0.0

    def test_equal_minus_matches_equal_plus(self):
        for eta in (0.1, 0.6, 1.9):
            assert ent.rest_frame_entropy(
                eta, HelicityClass.EQUAL_MINUS
            ) == pytest.approx(
                ent.rest_frame_entropy(eta, HelicityClass.EQUAL_PLUS), abs=1e-15
            )


class TestBoostedEntropyClosedForm:
    def test_equal_helicity_half_pi_disentangles(self):
        for eta in np.linspace(0.0, 2 * math.pi, 25, endpoint=False):
            assert (
                ent.boosted_entropy_closed_form(
                    eta, math.pi / 2, HelicityClass.EQUAL_PLUS
                )
                < 1e-12
            )

    def test_unequal_half_pi_maximally_mixed_at_bell_point(self):
        assert ent.boosted_entropy_closed_form(
            math.pi / 4, math.pi / 2, HelicityClass.UNEQUAL
        ) == pytest.approx(1.0, abs=1e-12)

    def test_delta_zero_recovers_rest_frame(self):
        for cls in HelicityClass:
            for eta in (0.0, 0.37, math.pi / 4, 2.2):
                assert ent.boosted_entropy_closed_form(
                    eta, 0.0, cls
                ) == pytest.approx(ent.rest_frame_entropy(eta, cls), abs=1e-12)

    def test_matches_partial_trace_pipeline(self):
        assert ent.boosted_entropy_closed_form(
            0.6, 0.3, HelicityClass.EQUAL_PLUS
        ) == pytest.approx(
            _pipeline_entropy(HelicityClass.EQUAL_PLUS, 0.6, 0.3), abs=1e-12
        )

    @pytest.mark.parametrize(
        "eta, delta",
        [([0.5], [1.0]), ([0.5, 2.2], [1.0, 3.0]), ([0.5, 2.2], 1.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("cls", list(HelicityClass))
    def test_lists_match_arrays(self, cls, eta, delta):
        got = ent.boosted_entropy_closed_form(eta, delta, cls)
        want = ent.boosted_entropy_closed_form(np.array(eta), np.array(delta), cls)
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            eta = rng.uniform(0.0, 2 * math.pi)
            delta = rng.uniform(0.0, math.pi)
            for cls in HelicityClass:
                closed = ent.boosted_entropy_closed_form(eta, delta, cls)
                for keep in ("spin", "momentum"):
                    assert abs(closed - _pipeline_entropy(cls, eta, delta, keep)) < 1e-12

    @given(etas, deltas)
    @settings(max_examples=150, deadline=None)
    def test_reflection_symmetry(self, eta, delta):
        for cls in (HelicityClass.EQUAL_PLUS, HelicityClass.UNEQUAL):
            a = ent.boosted_entropy_closed_form(eta, delta, cls)
            b = ent.boosted_entropy_closed_form(eta, math.pi - delta, cls)
            assert abs(a - b) < 1e-12

    @given(etas, st.floats(min_value=0.0, max_value=math.pi / 2))
    @settings(max_examples=150, deadline=None)
    def test_duality_between_classes(self, eta, delta):
        equal = ent.boosted_entropy_closed_form(eta, delta, HelicityClass.EQUAL_PLUS)
        unequal = ent.boosted_entropy_closed_form(
            eta, math.pi / 2 - delta, HelicityClass.UNEQUAL
        )
        assert abs(equal - unequal) < 1e-12

    def test_monotone_regimes_strict(self):
        eta = 0.6
        lo = np.linspace(0.01, math.pi / 2 - 0.01, 200)
        hi = np.linspace(math.pi / 2 + 0.01, math.pi - 0.01, 200)
        e_lo = ent.boosted_entropy_closed_form(eta, lo, HelicityClass.EQUAL_PLUS)
        e_hi = ent.boosted_entropy_closed_form(eta, hi, HelicityClass.EQUAL_PLUS)
        assert np.all(np.diff(e_lo) < 0.0)
        assert np.all(np.diff(e_hi) > 0.0)
        # inverted for the unequal-helicity family
        x_lo = ent.boosted_entropy_closed_form(eta, lo, HelicityClass.UNEQUAL)
        x_hi = ent.boosted_entropy_closed_form(eta, hi, HelicityClass.UNEQUAL)
        assert np.all(np.diff(x_lo) > 0.0)
        assert np.all(np.diff(x_hi) < 0.0)


class TestDerivative:
    def test_sign_structure(self):
        assert ent.boosted_entropy_derivative(math.pi / 4, math.pi / 4) < 0.0
        assert ent.boosted_entropy_derivative(0.6, 2.0) > 0.0

    def test_stationary_at_half_pi(self):
        for eta in (0.2, math.pi / 4, 1.3):
            assert ent.boosted_entropy_derivative(eta, math.pi / 2) == 0.0

    def test_removable_singularities_return_zero(self):
        # gap = 0: Bell-point eta with delta = 0 (exact) or pi (float residue)
        assert ent.boosted_entropy_derivative(math.pi / 4, 0.0) == 0.0
        assert abs(ent.boosted_entropy_derivative(math.pi / 4, math.pi)) < 1e-15
        # gap = 1: degenerate eta, any delta
        assert ent.boosted_entropy_derivative(0.0, 1.3) == 0.0

    def test_matches_finite_differences(self):
        step = 1e-6
        fd = (
            ent.boosted_entropy_closed_form(0.6, 2.0 + step, HelicityClass.EQUAL_PLUS)
            - ent.boosted_entropy_closed_form(0.6, 2.0 - step, HelicityClass.EQUAL_PLUS)
        ) / (2 * step)
        assert ent.boosted_entropy_derivative(0.6, 2.0) == pytest.approx(fd, abs=1e-6)

    def test_matches_finite_differences_grid(self):
        step = 1e-6
        eta = np.linspace(0.05, 2 * math.pi - 0.05, 40)[:, None]
        delta = np.concatenate(
            [
                np.linspace(1e-3, math.pi / 2 - 1e-3, 100),
                np.linspace(math.pi / 2 + 1e-3, math.pi - 1e-3, 100),
            ]
        )[None, :]
        fd = (
            ent.boosted_entropy_closed_form(eta, delta + step, HelicityClass.EQUAL_PLUS)
            - ent.boosted_entropy_closed_form(
                eta, delta - step, HelicityClass.EQUAL_PLUS
            )
        ) / (2 * step)
        analytic = ent.boosted_entropy_derivative(eta, delta)
        assert np.abs(analytic - fd).max() < 1e-6

    def test_sign_regimes_on_grid(self):
        eta = np.linspace(0.05, 2 * math.pi - 0.05, 40)[:, None]
        lo = np.linspace(1e-3, math.pi / 2 - 1e-3, 100)[None, :]
        hi = np.linspace(math.pi / 2 + 1e-3, math.pi - 1e-3, 100)[None, :]
        assert np.all(ent.boosted_entropy_derivative(eta, lo) <= 0.0)
        assert np.all(ent.boosted_entropy_derivative(eta, hi) >= 0.0)


class TestDifferenceBound:
    def test_bell_point_half_pi(self):
        diff, bound = ent.entanglement_difference_bound(
            math.pi / 4, math.pi / 2, HelicityClass.EQUAL_PLUS
        )
        assert diff == pytest.approx(1.0, abs=1e-12)
        assert bound == pytest.approx(1.0 / (2 * LN2), abs=1e-15)
        assert diff >= bound

    def test_unequal_bell_point_half_pi(self):
        diff, bound = ent.entanglement_difference_bound(
            math.pi / 4, math.pi / 2, HelicityClass.UNEQUAL
        )
        assert diff == pytest.approx(1.0, abs=1e-12)
        assert diff >= bound

    def test_zero_rotation(self):
        # rest and boosted entropies follow different float paths, so the
        # difference at delta = 0 is zero only to rounding
        for cls in HelicityClass:
            diff, bound = ent.entanglement_difference_bound(0.8, 0.0, cls)
            assert abs(diff) < 1e-12 and bound == 0.0

    def test_bound_holds_on_grid(self):
        eta = np.linspace(0.0, 2 * math.pi, 200)[:, None]
        delta = np.linspace(0.0, math.pi, 200)[None, :]
        for cls in (HelicityClass.EQUAL_PLUS, HelicityClass.UNEQUAL):
            diff, bound = ent.entanglement_difference_bound(eta, delta, cls)
            assert float((bound - diff).max()) <= 1e-12

    def test_checks_each_argument_once(self, monkeypatch):
        """eta and delta are checked once each, not again by the two entropies."""
        calls, checked = [], ent._checked

        def counted(x, rule):
            calls.append(rule[1])
            return checked(x, rule)

        monkeypatch.setattr(ent, "_checked", counted)
        for cls in HelicityClass:
            calls.clear()
            ent.entanglement_difference_bound(0.6, 1.1, cls)
            assert calls == ["eta must be finite", "delta must be finite"]

    @pytest.mark.parametrize("cls", list(HelicityClass))
    def test_difference_is_the_public_entropies(self, cls):
        eta = np.linspace(0.0, 2 * math.pi, 37)[:, None]
        delta = np.linspace(0.0, math.pi, 29)[None, :]
        for e, d in ((0.6, 1.1), (eta, delta)):
            diff, _ = ent.entanglement_difference_bound(e, d, cls)
            rest = ent.rest_frame_entropy(e, cls)
            boosted = ent.boosted_entropy_closed_form(e, d, cls)
            expected = boosted - rest if cls is HelicityClass.UNEQUAL else rest - boosted
            assert np.asarray(diff).tobytes() == np.asarray(expected).tobytes()

    def test_boost_never_raises_equal_helicity_entanglement(self):
        eta = np.linspace(0.0, 2 * math.pi, 100)[:, None]
        delta = np.linspace(0.0, math.pi, 100)[None, :]
        diff, _ = ent.entanglement_difference_bound(
            eta, delta, HelicityClass.EQUAL_PLUS
        )
        assert float(diff.min()) >= -1e-12


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls", list(HelicityClass))
    def test_closed_forms_reject(self, bad, cls):
        for call, name in (
            (lambda: ent.boosted_entropy_closed_form(0.6, bad, cls), "delta"),
            (lambda: ent.boosted_entropy_closed_form(bad, 1.0, cls), "eta"),
            (lambda: ent.rest_frame_entropy(bad, cls), "eta"),
            (lambda: ent.entanglement_difference_bound(0.6, bad, cls), "delta"),
            (lambda: ent.entanglement_difference_bound(bad, 1.0, cls), "eta"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_derivative_rejects(self, bad):
        with pytest.raises(ValueError, match="^delta must be finite"):
            ent.boosted_entropy_derivative(0.6, bad)
        with pytest.raises(ValueError, match="^eta must be finite"):
            ent.boosted_entropy_derivative(bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1), (1, 0)])
    def test_density_matrix_rejects(self, bad, where):
        for entry in (complex(bad, 0.0), complex(0.5 * (where[0] == where[1]), bad)):
            rho = np.eye(2, dtype=complex) / 2
            rho[where] = entry
            for call in (ent.density_eigenvalues, ent.von_neumann_entropy):
                with pytest.raises(ValueError, match="finite and Hermitian"):
                    call(rho)
        with pytest.raises(ValueError, match="finite and Hermitian"):
            ent.von_neumann_entropy(np.full((2, 2), bad))

    @pytest.mark.parametrize(
        "r01, r10", [(1e308, -1e308), (1e308j, 1e308j), (1.7e308 + 1.7e308j, 0)]
    )
    def test_density_matrix_rejects_an_overflowing_difference(self, r01, r10):
        # finite entries whose hermiticity residual r01 - conj(r10) is inf
        rho = np.array([[0.5, r01], [r10, 0.5]])
        for call in (ent.density_eigenvalues, ent.von_neumann_entropy):
            with pytest.raises(ValueError, match="finite and Hermitian"):
                call(rho)

    @pytest.mark.parametrize(
        "rho, larger, smaller, entropy",
        [
            (np.array([[0.75, 0.25], [0.25, 0.25]]),
             "0x1.b504f333f9de6p-1", "0x1.2bec333018866p-3", "0x1.33a6061d1781fp-1"),
            (np.array([[0.6, -0.2], [-0.2, 0.4]]),
             "0x1.727c9716ffb77p-1", "0x1.1b06d1d200912p-2", "0x1.b373604acd5aep-1"),
            (np.array([[1, 0], [0, 0]]), "0x1.0p+0", "0x0.0p+0", "0x0.0p+0"),
            (np.array([[0, 0], [0, 1]], dtype=np.int8), "0x1.0p+0", "0x0.0p+0", "0x0.0p+0"),
            (np.array([[True, False], [False, False]]), "0x1.0p+0", "0x0.0p+0", "0x0.0p+0"),
        ],
    )
    def test_real_int_and_bool_density_matrices_accepted(self, rho, larger, smaller, entropy):
        expected = np.array([float.fromhex(larger), float.fromhex(smaller)]).tobytes()
        assert ent.density_eigenvalues(rho).tobytes() == expected
        assert ent.density_eigenvalues(rho.astype(complex)).tobytes() == expected
        assert ent.von_neumann_entropy(rho).hex() == float.fromhex(entropy).hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_binary_entropy_rejects(self, bad):
        with pytest.raises(ValueError, match="^p must be finite"):
            ent.binary_entropy(bad)
        with pytest.raises(ValueError, match="^p must be finite"):
            ent.binary_entropy(np.array([0.5, bad]))

    def test_nan_inside_an_array_rejected(self):
        delta = np.array([0.5, 1.0, math.nan])
        with pytest.raises(ValueError, match="delta must be finite"):
            ent.boosted_entropy_closed_form(0.6, delta, HelicityClass.EQUAL_PLUS)
        with pytest.raises(ValueError, match="eta must be finite"):
            ent.rest_frame_entropy(delta, HelicityClass.EQUAL_MINUS)
