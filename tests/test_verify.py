"""Tests for the invariant suite: the check table, tolerances and grid."""

import math

import numpy as np
import pytest

from wignerlab import verify
from wignerlab.verify import DEFAULT_TOLERANCES, run_all


@pytest.fixture(scope="module")
def small_run():
    return run_all(3)


class TestCheckTable:
    def test_names_are_the_tolerance_keys_once_each(self, small_run):
        names = [r.name for r in small_run]
        assert len(names) == len(set(names))
        assert set(names) == set(DEFAULT_TOLERANCES)

    def test_default_tolerances_are_finite_non_negative_floats(self):
        for name, tolerance in DEFAULT_TOLERANCES.items():
            assert isinstance(tolerance, float), name
            assert math.isfinite(tolerance) and tolerance >= 0.0, name

    def test_argmax_tolerance_is_one_search_step(self):
        phis = np.linspace(0.0, math.pi, 10_000)
        assert DEFAULT_TOLERANCES["argmax_matches_grid_search"] == phis[1] - phis[0]

    def test_results_carry_default_tolerances(self, small_run):
        for r in small_run:
            assert r.tolerance == DEFAULT_TOLERANCES[r.name], r.name

    def test_zero_overrides_reach_every_check(self):
        results = run_all(3, {name: 0.0 for name in DEFAULT_TOLERANCES})
        assert [r.tolerance for r in results] == [0.0] * len(DEFAULT_TOLERANCES)
        for r in results:
            assert r.passed == (r.max_violation == 0.0), r.name


class TestGridValidation:
    @pytest.mark.parametrize("grid", [2, 10.0, float("nan"), "50"])
    def test_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be an integer >= 3"):
            run_all(grid)


class TestSingleReduction:
    def test_rows_read_their_largest_violation_and_zero(self, monkeypatch):
        def stub(grid, rng):
            return [
                ("angle_forms_agree", "signed", np.array([-1.0, -0.0, -2.5])),
                ("lorentz_invariance", "empty", []),
                (
                    "entanglement_bound_holds",
                    "ragged",
                    [np.array([[1e-13, -1.0]]), np.array([3e-12]), -0.0, 2e-13],
                ),
                ("extremum_regime_consistent", "count", 2),
            ]

        monkeypatch.setattr(verify, "_CHECKS", (stub,))
        results = run_all(3)
        assert [(r.name, r.grid) for r in results] == [
            ("angle_forms_agree", "signed"),
            ("lorentz_invariance", "empty"),
            ("entanglement_bound_holds", "ragged"),
            ("extremum_regime_consistent", "count"),
        ]
        worst = [r.max_violation for r in results]
        assert worst == [0.0, 0.0, 3e-12, 2.0]
        for w in worst:
            assert type(w) is float and math.copysign(1.0, w) == 1.0
        assert [r.passed for r in results] == [True, True, False, False]
