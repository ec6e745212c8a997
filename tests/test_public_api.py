"""The package namespace: one declaration per public name, the README quick start, the
identity equality of the types that hold arrays, and the rule that non-real numeric input
gets the documented ValueError."""

import re
from pathlib import Path

import numpy as np
import pytest

import wignerlab as wl
from wignerlab import _version, cli, entanglement, kinematics, states, sweep, verify

PUBLIC_NAMES = [
    "AMPLITUDE_ORDER",
    "BoostComposition",
    "Dataset",
    "Extremum",
    "ExtremumKind",
    "FIGURE_IDS",
    "Frame",
    "HelicityClass",
    "MINKOWSKI_METRIC",
    "Regime",
    "SpinMomentumState",
    "SweepRequest",
    "SweepSeries",
    "__version__",
    "argmax_boost_angle",
    "binary_entropy",
    "boost_matrix",
    "boost_state",
    "boosted_entropy_closed_form",
    "boosted_entropy_derivative",
    "compose_boosts",
    "controlled_u_psi_to_xi",
    "density_eigenvalues",
    "emit_figure",
    "entanglement_difference_bound",
    "equal_speed_ultra_threshold",
    "find_local_extrema",
    "local_unitary_psi_to_psitilde",
    "lorentz_defect",
    "lorentz_gamma",
    "prepare_state",
    "reduced_density_matrix",
    "rest_frame_entropy",
    "rotation_axis",
    "speed_factor_d",
    "standard_boost_vectors",
    "state_from_json_dict",
    "sweep_entanglement",
    "threshold_speed_region",
    "ultra_phi_interval",
    "ultra_relativistic_condition",
    "von_neumann_entropy",
    "wigner_angle_cos_form",
    "wigner_angle_matrix_form",
    "wigner_angle_tan_form",
    "wigner_rotation_matrix",
]

MODULES = (entanglement, kinematics, states, sweep)


def test_all_is_the_public_list_in_order():
    assert wl.__all__ == PUBLIC_NAMES
    assert len(set(wl.__all__)) == len(wl.__all__) == 46


def test_each_name_is_its_modules_object():
    assert wl.__version__ is _version.__version__
    for name in PUBLIC_NAMES:
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == (name != "__version__"), name
        for module in owners:
            assert getattr(wl, name) is getattr(module, name), name


def test_verify_and_cli_names_are_not_reexported():
    cli_names = ["EXIT_OK", "EXIT_USAGE", "EXIT_VERIFY_FAILED", "build_parser", "entry_point", "main"]
    for module, names in ((verify, verify.__all__), (cli, cli_names)):
        for name in names:
            assert hasattr(module, name), name
            assert name not in wl.__all__ and not hasattr(wl, name), name


def test_readme_quick_start():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "import wignerlab as wl\n" in block
    namespace = {}
    exec(block, namespace)
    commented = {
        expression: float(value)
        for expression, value in re.findall(r"^(wl\..*?)\s+# ([0-9.]+)", block, re.M)
    }
    assert len(commented) == 4
    results = [eval(expression, namespace) for expression in commented]
    assert results == list(commented.values())
    # The tan form's value, correctly rounded (60 digits: 0.14334756890536535697), as the
    # cos form gives it.
    assert results == [0.14334756890536535, 2.1224542672159563, 0.9851714310094161, 0.0]


_CLS = wl.HelicityClass.EQUAL_PLUS
_U = "u must satisfy 0 <= u < 1 (units of c)"
_V = "v must satisfy 0 <= v < 1 (units of c)"
_PHI = "boosting angle must lie in [0, pi]"
_VELOCITY = "velocity must be finite"
_REST = wl.prepare_state(_CLS, 0.6)
_TABLE = "table values must be real"
_COLUMN = np.zeros(1)  # a valid one-row column of a sweep table


def _request(**field):
    return wl.SweepRequest(**{"u": 0.5, "v": 0.5, "eta": 0.6, "helicity_class": _CLS, **field})


# An array has no truth value, so a state or table compares and hashes as its identity.
@pytest.mark.parametrize(
    "make",
    [
        lambda: wl.prepare_state(_CLS, 0.6),
        lambda: wl.sweep_entanglement(_request()),
        lambda: wl.emit_figure("1a", samples=5),
    ],
    ids=["SpinMomentumState", "SweepSeries", "Dataset"],
)
def test_array_holders_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b}) == 2


# site id -> (call with the bad value in one argument, the documented message prefix)
_NUMERIC_CALL_SITES = {
    "tan-phi": (lambda x: wl.wigner_angle_tan_form(0.5, 0.5, x), _PHI),
    "cos-v": (lambda x: wl.wigner_angle_cos_form(0.5, x, 1.0), _V),
    "matrix-u": (lambda x: wl.wigner_angle_matrix_form(x, 0.5, 1.0), _U),
    "speed_factor_d": (lambda x: wl.speed_factor_d(x, 0.5), _U),
    "lorentz_gamma": (wl.lorentz_gamma, "speed must satisfy 0 <= speed < 1 (units of c)"),
    "argmax_boost_angle": (lambda x: wl.argmax_boost_angle(0.5, x), _V),
    "ultra_condition": (lambda x: wl.ultra_relativistic_condition(0.5, 0.5, x), _PHI),
    "ultra_phi_interval": (lambda x: wl.ultra_phi_interval(x, 0.5), _U),
    "closed_form": (lambda x: wl.boosted_entropy_closed_form(x, 1.0, _CLS), "eta must be finite"),
    "derivative": (lambda x: wl.boosted_entropy_derivative(0.6, x), "delta must be finite"),
    "rest_frame_entropy": (lambda x: wl.rest_frame_entropy(x, _CLS), "eta must be finite"),
    "binary_entropy": (wl.binary_entropy, "p must be finite"),
    "bound": (lambda x: wl.entanglement_difference_bound(0.6, x, _CLS), "delta must be finite"),
    "prepare_state": (lambda x: wl.prepare_state(_CLS, x), "eta must lie in [0, 2*pi)"),
    "boost_state": (lambda x: wl.boost_state(_REST, x), "delta must lie in [0, pi]"),
    "wigner_rotation_matrix": (
        lambda x: wl.wigner_rotation_matrix(x, 1), "delta must lie in [0, pi]"
    ),
    "request-u": (lambda x: _request(u=x), "u must satisfy 0 <= u < 1"),
    "request-v": (lambda x: _request(v=x), "v must satisfy 0 <= v < 1"),
    "request-eta": (lambda x: _request(eta=x), "eta must lie in [0, 2*pi)"),
    "threshold_speed_region": (
        lambda x: wl.threshold_speed_region(x, [0.5]), "phi must lie in (0, pi)"
    ),
    "threshold-u": (lambda x: wl.threshold_speed_region(2.0, x), _U),
    # v_speeds=None means v = u, so the bad value goes in as a one-element list
    "threshold-v": (lambda x: wl.threshold_speed_region(2.0, [0.5], [x]), _V),
    "equal_speed_ultra_threshold": (wl.equal_speed_ultra_threshold, _PHI),
    "rotation_axis": (wl.rotation_axis, "rotation must be finite"),
    "lorentz_defect": (wl.lorentz_defect, "matrix must be finite"),
    "boost_matrix": (wl.boost_matrix, _VELOCITY),
    "compose-first": (lambda x: wl.compose_boosts(x, [0.0, 0.0, 0.5]), _VELOCITY),
    "compose-second": (lambda x: wl.compose_boosts([0.0, 0.0, 0.5], x), _VELOCITY),
    "dataset-rows": (lambda x: wl.Dataset(("a",), x, {}), _TABLE),
    "series-phi": (lambda x: wl.SweepSeries(_request(), x, _COLUMN, _COLUMN), _TABLE),
    "series-delta": (lambda x: wl.SweepSeries(_request(), _COLUMN, x, _COLUMN), _TABLE),
    "series-entropy": (lambda x: wl.SweepSeries(_request(), _COLUMN, _COLUMN, x), _TABLE),
}

_NON_REAL = {
    "str": "a",
    "None": None,
    "complex": 0.5 + 0.5j,
    "complex-array": np.array([0.5 + 0.5j]),
    "object": object(),
    "ragged": [[0.5], [0.5, 0.6]],
}


# Every site with every input, but ragged table rows: those get ``Dataset``'s own message.
@pytest.mark.parametrize(
    "site, bad",
    [
        pytest.param(site, bad, id=f"{site}-{bad_id}")
        for site in _NUMERIC_CALL_SITES
        for bad_id, bad in _NON_REAL.items()
        if (site, bad_id) != ("dataset-rows", "ragged")
    ],
)
def test_non_real_input_gets_the_documented_value_error(site, bad):
    call, prefix = _NUMERIC_CALL_SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)}, got "):
        call(bad)
