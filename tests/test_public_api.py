"""The package namespace: one declaration per public name, and the README quick start."""

import re
from pathlib import Path

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
    # The tan form's value; the cos form gives 0.14334756890536537, one ulp above.
    assert results == [0.1433475689053654, 2.1224542672159568, 0.9851714310094161, 0.0]
