"""wignerlab: Thomas-Wigner rotation and spin-momentum entanglement of boosted spin-1/2 states.

Composing two non-collinear Lorentz boosts produces a spatial rotation;
on a massive spin-1/2 particle with two sharp momentum branches the
rotation acts on the spin conditioned on the momentum, changing the
entanglement between the two.  This package computes the rotation angle
(closed forms plus an independent matrix route), prepares and boosts the
canonical helicity-family states, quantifies the entanglement in bits,
sweeps it over the boosting geometry, and verifies its own invariants.
"""

from ._version import __version__
from .entanglement import (
    binary_entropy,
    boosted_entropy_closed_form,
    boosted_entropy_derivative,
    density_eigenvalues,
    entanglement_difference_bound,
    reduced_density_matrix,
    rest_frame_entropy,
    von_neumann_entropy,
)
from .kinematics import (
    BoostComposition,
    MINKOWSKI_METRIC,
    argmax_boost_angle,
    boost_matrix,
    compose_boosts,
    equal_speed_ultra_threshold,
    lorentz_defect,
    lorentz_gamma,
    rotation_axis,
    speed_factor_d,
    standard_boost_vectors,
    ultra_phi_interval,
    ultra_relativistic_condition,
    wigner_angle_cos_form,
    wigner_angle_matrix_form,
    wigner_angle_tan_form,
)
from .states import (
    AMPLITUDE_ORDER,
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
from .sweep import (
    Dataset,
    Extremum,
    ExtremumKind,
    FIGURE_IDS,
    Regime,
    SweepRequest,
    SweepSeries,
    emit_figure,
    find_local_extrema,
    sweep_entanglement,
    threshold_speed_region,
)

__all__ = [
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
