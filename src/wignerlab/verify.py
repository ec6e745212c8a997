"""Executable verification suite for every library invariant.

Each check evaluates one or more invariants on a grid (sized from a
single ``grid`` knob) and returns one ``(name, grid label, violations)``
row per invariant.  ``violations`` is what the check measured, signed so
that only a value above zero breaks the invariant: an array, a list of
arrays or numbers, or a mismatch count.  No check reduces its own
samples: :func:`run_all` runs the checks listed in ``_CHECKS`` and takes
each row's maximum violation as the largest of its violations and 0
(never -0.0; an empty row reads 0).  A row passes iff that maximum is
within the row's tolerance.  Checks are deterministic: random samples
come from one fixed-seed generator, drawn in ``_CHECKS`` order.

Intended use: ``wignerlab verify --grid 50`` (exit code 2 on any
failure), or :func:`run_all` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entanglement as ent
from . import kinematics as kin
from . import states as st
from . import sweep as sw
from .states import HelicityClass

__all__ = ["CheckResult", "DEFAULT_TOLERANCES", "format_report", "run_all"]

_SEED = 20240801

#: Samples of the phi grid on which ``argmax_matches_grid_search``
#: locates the maximum rotation; its tolerance is one step of that grid.
_ARGMAX_SAMPLES = 10_000

DEFAULT_TOLERANCES = {
    "angle_forms_agree": 1e-10,
    "angle_forms_agree_high_speed": 1e-6,
    "angle_zero_when_degenerate_or_collinear": 0.0,
    "matrix_oracle_agrees": 1e-8,
    "matrix_oracle_axis_is_y": 1e-8,
    "lorentz_invariance": 1e-12,
    "lorentz_invariance_scaled": 1e-14,
    "angle_concave_in_phi": 1e-6,
    "ultra_condition_matches_angle": 0.0,
    "argmax_matches_grid_search": math.pi / (_ARGMAX_SAMPLES - 1),
    "state_norms_preserved": 1e-12,
    "boost_at_zero_is_identity": 0.0,
    "boosted_equal_helicity_amplitudes": 1e-12,
    "local_unitary_maps_psi_to_psitilde": 1e-12,
    "controlled_u_maps_psi_to_xi": 1e-12,
    "equal_helicity_entropies_match": 1e-12,
    "entropy_oracle_equivalence": 1e-12,
    "subsystem_entropies_match": 1e-12,
    "entropy_monotone_regimes": 1e-12,
    "entropy_derivative_matches_fd": 1e-6,
    "entropy_duality_sin_cos": 1e-12,
    "entropy_reflection_symmetry": 1e-12,
    "entanglement_bound_holds": 1e-12,
    "sweep_rows_consistent": 1e-12,
    "sweep_entropy_within_bounds": 1e-12,
    "extremum_at_max_rotation": 1e-6,
    "extremum_regime_consistent": 0.0,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    grid: str
    max_violation: float
    tolerance: float
    passed: bool


def _angle_grid(n: int, lo: float = 0.01, hi: float = 0.99):
    speeds = np.linspace(lo, hi, n)
    phis = np.linspace(0.0, math.pi, n)
    return np.meshgrid(speeds, speeds, phis, indexing="ij")


def _check_angle_forms(n: int, rng) -> list[tuple]:
    u, v, p = _angle_grid(n)
    d_cos = kin.wigner_angle_cos_form(u, v, p)
    d_tan = kin.wigner_angle_tan_form(u, v, p)
    mism = np.count_nonzero(
        kin.ultra_relativistic_condition(u, v, p) != (d_tan >= math.pi / 2.0)
    )
    m = min(n, 30)
    uh, vh, ph = _angle_grid(m, 0.9, 0.9999)
    high = np.abs(kin.wigner_angle_cos_form(uh, vh, ph) - kin.wigner_angle_tan_form(uh, vh, ph))
    return [
        ("angle_forms_agree", f"{n}x{n}x{n}", np.abs(d_cos - d_tan)),
        ("ultra_condition_matches_angle", f"{n}x{n}x{n}", mism),
        ("angle_forms_agree_high_speed", f"{m}x{m}x{m} (u,v in [0.9, 0.9999])", high),
    ]


def _check_degenerate_zero(n: int, rng) -> list[tuple]:
    speeds = np.linspace(0.0, 0.99, n)
    phis = np.linspace(0.0, math.pi, n)
    angles = []
    for form in (
        kin.wigner_angle_cos_form,
        kin.wigner_angle_tan_form,
        kin.wigner_angle_matrix_form,
    ):
        angles += [
            np.abs(form(0.0, speeds[None, :], phis[:, None])),
            np.abs(form(speeds[None, :], 0.0, phis[:, None])),
            np.abs(form(speeds[:, None], speeds[None, :], 0.0)),
            np.abs(form(speeds[:, None], speeds[None, :], math.pi)),
        ]
    return [("angle_zero_when_degenerate_or_collinear", f"4 slices of {n}x{n}", angles)]


def _check_matrix_oracle(n: int, rng) -> list[tuple]:
    m = min(n, 20)
    u, v, phi = _angle_grid(m)
    boost, rotation, angle = kin.compose_boosts(*kin.standard_boost_vectors(u, v, phi))
    # The absolute residual floor is ~gamma^2 * eps from entry rounding
    # alone, so the 1e-12 form is only meaningful at moderate composed
    # gammas; the scaled residual covers the rest of the grid.
    moderate = (u <= 0.95) & (v <= 0.95)
    defects, scaled = [], []
    for mat in (boost, rotation):
        defect = kin.lorentz_defect(mat)
        defects.append(defect[moderate])
        scaled.append(defect / np.maximum(1.0, np.sum(mat * mat, axis=(-2, -1))))
    # The axis is undefined at the identity.
    axis_error = np.abs(kin.rotation_axis(rotation) - [0.0, 1.0, 0.0])[angle > 1e-6]
    grid = f"{m}x{m}x{m}"
    return [
        ("matrix_oracle_agrees", grid, np.abs(angle - kin.wigner_angle_tan_form(u, v, phi))),
        ("matrix_oracle_axis_is_y", grid, axis_error),
        ("lorentz_invariance", f"{grid} (u,v <= 0.95)", defects),
        ("lorentz_invariance_scaled", f"{grid} (defect/|mat|_F^2)", scaled),
    ]


def _check_concavity(n: int, rng) -> list[tuple]:
    pairs = [(0.95, 0.95), (0.995, 0.995)]
    pairs += [tuple(rng.uniform(0.05, 0.99, 2)) for _ in range(min(n, 10))]
    phis = np.linspace(0.0, math.pi, 2001)
    h = phis[1] - phis[0]
    seconds = []
    for u, v in pairs:
        d = np.asarray(kin.wigner_angle_tan_form(u, v, phis))
        seconds.append((d[2:] - 2.0 * d[1:-1] + d[:-2]) / (h * h))
    return [("angle_concave_in_phi", f"{len(pairs)} speed pairs x 2001", seconds)]


def _check_argmax(n: int, rng) -> list[tuple]:
    phis = np.linspace(0.0, math.pi, _ARGMAX_SAMPLES)
    gaps = []
    for _ in range(20):
        u, v = rng.uniform(0.1, 0.995, 2)
        grid_argmax = phis[np.argmax(kin.wigner_angle_tan_form(u, v, phis))]
        gaps.append(abs(grid_argmax - kin.argmax_boost_angle(u, v)))
    return [("argmax_matches_grid_search", f"20 speed pairs x {_ARGMAX_SAMPLES}", gaps)]


_ALL_CLASSES = tuple(HelicityClass)  # EQUAL_PLUS, EQUAL_MINUS, UNEQUAL


def _check_states(n: int, rng) -> list[tuple]:
    draws = max(100, 2 * n)
    norms, identity, regression, local, controlled, entropy = ([] for _ in range(6))
    for _ in range(draws):
        eta = rng.uniform(0.0, 2.0 * math.pi)
        delta = rng.uniform(0.0, math.pi)
        cls = _ALL_CLASSES[rng.integers(0, 3)]
        rest = st.prepare_state(cls, eta)
        boosted = st.boost_state(rest, delta)
        norms += [
            np.sum(np.abs(state.amplitudes) ** 2)
            for state in (
                rest,
                boosted,
                st.local_unitary_psi_to_psitilde(boosted),
                st.controlled_u_psi_to_xi(boosted),
            )
        ]
        identity.append(st.boost_state(rest, 0.0).amplitudes - rest.amplitudes)

        psi_b = st.boost_state(st.prepare_state(HelicityClass.EQUAL_PLUS, eta), delta)
        c, s = math.cos(eta), math.sin(eta)
        ch, sh = math.cos(delta / 2.0), math.sin(delta / 2.0)
        reference = np.array([c * ch, -c * sh, -s * sh, s * ch], dtype=complex)
        regression.append(psi_b.amplitudes - reference)

        psitilde_b = st.boost_state(
            st.prepare_state(HelicityClass.EQUAL_MINUS, eta), delta
        )
        local.append(st.local_unitary_psi_to_psitilde(psi_b).amplitudes - psitilde_b.amplitudes)
        xi_b = st.boost_state(st.prepare_state(HelicityClass.UNEQUAL, eta), delta)
        controlled.append(st.controlled_u_psi_to_xi(psi_b).amplitudes - xi_b.amplitudes)
        entropy.append(
            ent.von_neumann_entropy(ent.reduced_density_matrix(psi_b))
            - ent.von_neumann_entropy(ent.reduced_density_matrix(psitilde_b))
        )
    grid = f"{draws} random (class, eta, delta)"
    return [
        ("state_norms_preserved", grid, np.abs(np.subtract(norms, 1.0))),
        ("boost_at_zero_is_identity", grid, np.abs(identity)),
        ("boosted_equal_helicity_amplitudes", grid, np.abs(regression)),
        ("local_unitary_maps_psi_to_psitilde", grid, np.abs(local)),
        ("controlled_u_maps_psi_to_xi", grid, np.abs(controlled)),
        ("equal_helicity_entropies_match", grid, np.abs(entropy)),
    ]


def _check_entropy_oracle(n: int, rng) -> list[tuple]:
    draws = max(1000, 10 * n)
    entropies = []
    for _ in range(draws):
        eta = rng.uniform(0.0, 2.0 * math.pi)
        delta = rng.uniform(0.0, math.pi)
        cls = _ALL_CLASSES[rng.integers(0, 3)]
        boosted = st.boost_state(st.prepare_state(cls, eta), delta)
        e_spin = ent.von_neumann_entropy(ent.reduced_density_matrix(boosted, "spin"))
        e_mom = ent.von_neumann_entropy(
            ent.reduced_density_matrix(boosted, "momentum")
        )
        entropies.append((e_spin, e_mom, ent.boosted_entropy_closed_form(eta, delta, cls)))
    spin, momentum, closed = np.array(entropies).T
    grid = f"{draws} random (class, eta, delta)"
    return [
        ("entropy_oracle_equivalence", grid, np.abs(np.stack([spin, momentum]) - closed)),
        ("subsystem_entropies_match", grid, np.abs(spin - momentum)),
    ]


def _check_entropy_analytics(n: int, rng) -> list[tuple]:
    m = min(n, 50)
    etas = np.linspace(0.013, 2.0 * math.pi - 0.013, m)[:, None]
    lo = np.linspace(1e-4, math.pi / 2.0 - 1e-4, 200)[None, :]
    hi = np.linspace(math.pi / 2.0 + 1e-4, math.pi - 1e-4, 200)[None, :]

    # monotone regimes: equal helicity falls then rises, unequal inverted
    mono = []
    for cls, sign_lo in ((HelicityClass.EQUAL_PLUS, -1.0), (HelicityClass.UNEQUAL, 1.0)):
        e_lo = ent.boosted_entropy_closed_form(etas, lo, cls)
        e_hi = ent.boosted_entropy_closed_form(etas, hi, cls)
        mono += [
            sign_lo * np.diff(e_lo, axis=1) * -1.0,
            sign_lo * np.diff(e_hi, axis=1),
        ]

    # analytic derivative vs central finite differences
    deltas = np.concatenate([lo.ravel(), hi.ravel()])[None, :]
    step = 1e-6
    fd = (
        ent.boosted_entropy_closed_form(etas, deltas + step, HelicityClass.EQUAL_PLUS)
        - ent.boosted_entropy_closed_form(
            etas, deltas - step, HelicityClass.EQUAL_PLUS
        )
    ) / (2.0 * step)
    fd_gap = np.abs(ent.boosted_entropy_derivative(etas, deltas) - fd)

    # duality: equal(eta, delta) == unequal(eta, pi/2 - delta) on [0, pi/2]
    d_half = np.linspace(0.0, math.pi / 2.0, 200)[None, :]
    dual = np.abs(
        ent.boosted_entropy_closed_form(etas, d_half, HelicityClass.EQUAL_PLUS)
        - ent.boosted_entropy_closed_form(etas, math.pi / 2.0 - d_half, HelicityClass.UNEQUAL)
    )

    # reflection symmetry delta <-> pi - delta, both classes
    d_full = np.linspace(0.0, math.pi, 200)[None, :]
    reflect = [
        np.abs(
            ent.boosted_entropy_closed_form(etas, d_full, cls)
            - ent.boosted_entropy_closed_form(etas, math.pi - d_full, cls)
        )
        for cls in (HelicityClass.EQUAL_PLUS, HelicityClass.UNEQUAL)
    ]

    # lower bound on the entanglement difference, 200x200, both classes
    eta_grid = np.linspace(0.0, 2.0 * math.pi, 200)[:, None]
    bound_excess = []
    for cls in (HelicityClass.EQUAL_PLUS, HelicityClass.UNEQUAL):
        difference, bound = ent.entanglement_difference_bound(eta_grid, d_full, cls)
        bound_excess.append(bound - difference)
    return [
        ("entropy_monotone_regimes", f"{m} eta x 2x200 delta, both classes", mono),
        ("entropy_derivative_matches_fd", f"{m} eta x 400 delta", fd_gap),
        ("entropy_duality_sin_cos", f"{m} eta x 200 delta", dual),
        ("entropy_reflection_symmetry", f"{m} eta x 200 delta, both classes", reflect),
        ("entanglement_bound_holds", "200x200 (eta, delta), both classes", bound_excess),
    ]


def _check_sweeps(n: int, rng) -> list[tuple]:
    requests = [
        sw.SweepRequest(0.95, 0.95, 0.6, HelicityClass.EQUAL_PLUS),
        sw.SweepRequest(0.995, 0.995, 0.6, HelicityClass.EQUAL_PLUS),
        sw.SweepRequest(0.95, 0.95, 0.6, HelicityClass.UNEQUAL),
    ]
    row_gaps, bound_excess, extremum_gaps = [], [], []
    regime_mismatches = 0
    for req in requests:
        series = sw.sweep_entanglement(req)
        delta_ref = np.asarray(kin.wigner_angle_tan_form(req.u, req.v, series.phi))
        entropy_ref = ent.boosted_entropy_closed_form(
            req.eta, series.delta, req.helicity_class
        )
        row_gaps += [np.abs(series.delta - delta_ref), np.abs(series.entropy - entropy_ref)]
        rest = ent.rest_frame_entropy(req.eta, req.helicity_class)
        if req.helicity_class is HelicityClass.UNEQUAL:
            bound_excess.append(-series.entropy)
        else:
            bound_excess.append(series.entropy - rest)
        for extremum in sw.find_local_extrema(series):
            ultra = kin.ultra_relativistic_condition(req.u, req.v, extremum.phi)
            if (extremum.regime is sw.Regime.ULTRA) != bool(ultra):
                regime_mismatches += 1
            if extremum.regime is sw.Regime.MID:
                extremum_gaps.append(abs(extremum.phi - kin.argmax_boost_angle(req.u, req.v)))
    grid = f"{len(requests)} sweeps x {requests[0].samples}"
    return [
        ("sweep_rows_consistent", grid, row_gaps),
        ("sweep_entropy_within_bounds", grid, bound_excess),
        ("extremum_at_max_rotation", grid, extremum_gaps),
        ("extremum_regime_consistent", grid, regime_mismatches),
    ]


#: Every check, in report order.  Each takes (grid, rng); the ones that
#: draw from rng draw in this order, so reordering changes their samples.
_CHECKS = (
    _check_angle_forms,
    _check_degenerate_zero,
    _check_matrix_oracle,
    _check_concavity,
    _check_argmax,
    _check_states,
    _check_entropy_oracle,
    _check_entropy_analytics,
    _check_sweeps,
)


def run_all(grid: int = 50, tolerances: dict | None = None) -> list[CheckResult]:
    """Run every check; ``tolerances`` overrides defaults by check name."""
    sw._check_count("grid", grid, 3)
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update(tolerances)
    rng = np.random.default_rng(_SEED)
    results = []
    for check in _CHECKS:
        for name, label, violations in check(grid, rng):
            if isinstance(violations, list):
                violations = np.concatenate([np.empty(0), *map(np.ravel, violations)])
            # + 0.0: a -0.0 maximum (say of -entropy at zero entropy) reads 0.0
            worst = float(np.max(violations, initial=0.0)) + 0.0
            results.append(
                CheckResult(
                    name=name,
                    grid=label,
                    max_violation=worst,
                    tolerance=float(tols[name]),
                    passed=bool(worst <= tols[name]),
                )
            )
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<{width}}  grid={r.grid:<34}  "
            f"max_violation={r.max_violation:.3e}  tol={r.tolerance:.3e}"
        )
    failed = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
