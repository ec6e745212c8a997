"""Executable verification suite for every library invariant.

Each check evaluates one invariant on a grid (sized from a single
``grid`` knob), records the worst observed violation, and passes iff
that violation is within tolerance.  Checks are deterministic: random
samples come from a fixed-seed generator.

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
    "argmax_matches_grid_search": None,  # one grid step, set per run
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


def _result(name: str, grid: str, violation: float, tol: float) -> CheckResult:
    return CheckResult(
        name=name,
        grid=grid,
        max_violation=float(violation),
        tolerance=float(tol),
        passed=bool(violation <= tol),
    )


def _angle_grid(n: int, lo: float = 0.01, hi: float = 0.99):
    speeds = np.linspace(lo, hi, n)
    phis = np.linspace(0.0, math.pi, n)
    return np.meshgrid(speeds, speeds, phis, indexing="ij")


def _check_angle_forms(n: int, tols: dict) -> list[CheckResult]:
    u, v, p = _angle_grid(n)
    d_cos = kin.wigner_angle_cos_form(u, v, p)
    d_tan = kin.wigner_angle_tan_form(u, v, p)
    out = [
        _result(
            "angle_forms_agree",
            f"{n}x{n}x{n}",
            np.abs(d_cos - d_tan).max(),
            tols["angle_forms_agree"],
        )
    ]
    mism = np.count_nonzero(
        kin.ultra_relativistic_condition(u, v, p) != (d_tan >= math.pi / 2.0)
    )
    out.append(
        _result(
            "ultra_condition_matches_angle",
            f"{n}x{n}x{n}",
            mism,
            tols["ultra_condition_matches_angle"],
        )
    )
    m = min(n, 30)
    uh, vh, ph = _angle_grid(m, 0.9, 0.9999)
    out.append(
        _result(
            "angle_forms_agree_high_speed",
            f"{m}x{m}x{m} (u,v in [0.9, 0.9999])",
            np.abs(
                kin.wigner_angle_cos_form(uh, vh, ph)
                - kin.wigner_angle_tan_form(uh, vh, ph)
            ).max(),
            tols["angle_forms_agree_high_speed"],
        )
    )
    return out


def _check_degenerate_zero(n: int, tols: dict) -> CheckResult:
    speeds = np.linspace(0.0, 0.99, n)
    phis = np.linspace(0.0, math.pi, n)
    worst = 0.0
    for form in (kin.wigner_angle_cos_form, kin.wigner_angle_tan_form):
        worst = max(
            worst,
            np.abs(form(0.0, speeds[None, :], phis[:, None])).max(),
            np.abs(form(speeds[None, :], 0.0, phis[:, None])).max(),
            np.abs(form(speeds[:, None], speeds[None, :], 0.0)).max(),
            np.abs(form(speeds[:, None], speeds[None, :], math.pi)).max(),
        )
    return _result(
        "angle_zero_when_degenerate_or_collinear",
        f"4 slices of {n}x{n}",
        worst,
        tols["angle_zero_when_degenerate_or_collinear"],
    )


def _check_matrix_oracle(n: int, tols: dict) -> list[CheckResult]:
    m = min(n, 20)
    speeds = np.linspace(0.01, 0.99, m)
    phis = np.linspace(0.0, math.pi, m)
    u, v, phi = np.meshgrid(speeds, speeds, phis, indexing="ij")
    boost, rotation, angle = kin.compose_boosts(*kin.standard_boost_vectors(u, v, phi))
    worst_angle = np.abs(angle - kin.wigner_angle_tan_form(u, v, phi)).max()
    # The absolute residual floor is ~gamma^2 * eps from entry rounding
    # alone, so the 1e-12 form is only meaningful at moderate composed
    # gammas; the scaled residual covers the rest of the grid.
    moderate = (u <= 0.95) & (v <= 0.95)
    worst_abs = worst_scaled = 0.0
    for mat in (boost, rotation):
        defect = kin.lorentz_defect(mat)
        worst_abs = max(worst_abs, defect[moderate].max(initial=0.0))
        scale = np.maximum(1.0, np.sum(mat * mat, axis=(-2, -1)))
        worst_scaled = max(worst_scaled, (defect / scale).max())
    # The axis is undefined at the identity.
    axis_error = np.abs(kin.rotation_axis(rotation) - [0.0, 1.0, 0.0]).max(axis=-1)
    worst_axis = axis_error[angle > 1e-6].max(initial=0.0)
    grid = f"{m}x{m}x{m}"
    return [
        _result("matrix_oracle_agrees", grid, worst_angle, tols["matrix_oracle_agrees"]),
        _result(
            "matrix_oracle_axis_is_y", grid, worst_axis, tols["matrix_oracle_axis_is_y"]
        ),
        _result(
            "lorentz_invariance",
            f"{grid} (u,v <= 0.95)",
            worst_abs,
            tols["lorentz_invariance"],
        ),
        _result(
            "lorentz_invariance_scaled",
            f"{grid} (defect/|mat|_F^2)",
            worst_scaled,
            tols["lorentz_invariance_scaled"],
        ),
    ]


def _check_concavity(n: int, tols: dict, rng) -> CheckResult:
    pairs = [(0.95, 0.95), (0.995, 0.995)]
    pairs += [tuple(rng.uniform(0.05, 0.99, 2)) for _ in range(min(n, 10))]
    phis = np.linspace(0.0, math.pi, 2001)
    h = phis[1] - phis[0]
    worst = -np.inf
    for u, v in pairs:
        d = np.asarray(kin.wigner_angle_tan_form(u, v, phis))
        second = (d[2:] - 2.0 * d[1:-1] + d[:-2]) / (h * h)
        worst = max(worst, float(second.max()))
    return _result(
        "angle_concave_in_phi",
        f"{len(pairs)} speed pairs x 2001",
        max(worst, 0.0),
        tols["angle_concave_in_phi"],
    )


def _check_argmax(n: int, tols: dict, rng) -> CheckResult:
    samples = 10_000
    phis = np.linspace(0.0, math.pi, samples)
    step = phis[1] - phis[0]
    worst = 0.0
    for _ in range(20):
        u, v = rng.uniform(0.1, 0.995, 2)
        grid_argmax = phis[np.argmax(kin.wigner_angle_tan_form(u, v, phis))]
        worst = max(worst, abs(grid_argmax - kin.argmax_boost_angle(u, v)))
    return _result(
        "argmax_matches_grid_search",
        f"20 speed pairs x {samples}",
        worst,
        tols["argmax_matches_grid_search"] or step,
    )


_ALL_CLASSES = (
    HelicityClass.EQUAL_PLUS,
    HelicityClass.EQUAL_MINUS,
    HelicityClass.UNEQUAL,
)


def _check_states(n: int, tols: dict, rng) -> list[CheckResult]:
    draws = max(100, 2 * n)
    worst_norm = worst_identity = worst_regression = 0.0
    worst_local = worst_controlled = worst_equal_entropy = 0.0
    for _ in range(draws):
        eta = rng.uniform(0.0, 2.0 * math.pi)
        delta = rng.uniform(0.0, math.pi)
        cls = _ALL_CLASSES[rng.integers(0, 3)]
        rest = st.prepare_state(cls, eta)
        boosted = st.boost_state(rest, delta)
        for state in (
            rest,
            boosted,
            st.local_unitary_psi_to_psitilde(boosted),
            st.controlled_u_psi_to_xi(boosted),
        ):
            worst_norm = max(
                worst_norm, abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0)
            )
        frozen = st.boost_state(rest, 0.0)
        worst_identity = max(
            worst_identity, float(np.abs(frozen.amplitudes - rest.amplitudes).max())
        )

        psi_b = st.boost_state(st.prepare_state(HelicityClass.EQUAL_PLUS, eta), delta)
        c, s = math.cos(eta), math.sin(eta)
        ch, sh = math.cos(delta / 2.0), math.sin(delta / 2.0)
        reference = np.array([c * ch, -c * sh, -s * sh, s * ch], dtype=complex)
        worst_regression = max(
            worst_regression, float(np.abs(psi_b.amplitudes - reference).max())
        )

        psitilde_b = st.boost_state(
            st.prepare_state(HelicityClass.EQUAL_MINUS, eta), delta
        )
        worst_local = max(
            worst_local,
            float(
                np.abs(
                    st.local_unitary_psi_to_psitilde(psi_b).amplitudes
                    - psitilde_b.amplitudes
                ).max()
            ),
        )
        xi_b = st.boost_state(st.prepare_state(HelicityClass.UNEQUAL, eta), delta)
        worst_controlled = max(
            worst_controlled,
            float(
                np.abs(
                    st.controlled_u_psi_to_xi(psi_b).amplitudes - xi_b.amplitudes
                ).max()
            ),
        )
        worst_equal_entropy = max(
            worst_equal_entropy,
            abs(
                ent.von_neumann_entropy(ent.reduced_density_matrix(psi_b))
                - ent.von_neumann_entropy(ent.reduced_density_matrix(psitilde_b))
            ),
        )
    grid = f"{draws} random (class, eta, delta)"
    return [
        _result("state_norms_preserved", grid, worst_norm, tols["state_norms_preserved"]),
        _result(
            "boost_at_zero_is_identity",
            grid,
            worst_identity,
            tols["boost_at_zero_is_identity"],
        ),
        _result(
            "boosted_equal_helicity_amplitudes",
            grid,
            worst_regression,
            tols["boosted_equal_helicity_amplitudes"],
        ),
        _result(
            "local_unitary_maps_psi_to_psitilde",
            grid,
            worst_local,
            tols["local_unitary_maps_psi_to_psitilde"],
        ),
        _result(
            "controlled_u_maps_psi_to_xi",
            grid,
            worst_controlled,
            tols["controlled_u_maps_psi_to_xi"],
        ),
        _result(
            "equal_helicity_entropies_match",
            grid,
            worst_equal_entropy,
            tols["equal_helicity_entropies_match"],
        ),
    ]


def _check_entropy_oracle(n: int, tols: dict, rng) -> list[CheckResult]:
    draws = max(1000, 10 * n)
    worst_oracle = worst_subsystem = 0.0
    for _ in range(draws):
        eta = rng.uniform(0.0, 2.0 * math.pi)
        delta = rng.uniform(0.0, math.pi)
        cls = _ALL_CLASSES[rng.integers(0, 3)]
        boosted = st.boost_state(st.prepare_state(cls, eta), delta)
        e_spin = ent.von_neumann_entropy(ent.reduced_density_matrix(boosted, "spin"))
        e_mom = ent.von_neumann_entropy(
            ent.reduced_density_matrix(boosted, "momentum")
        )
        e_closed = ent.boosted_entropy_closed_form(eta, delta, cls)
        worst_oracle = max(worst_oracle, abs(e_spin - e_closed), abs(e_mom - e_closed))
        worst_subsystem = max(worst_subsystem, abs(e_spin - e_mom))
    grid = f"{draws} random (class, eta, delta)"
    return [
        _result(
            "entropy_oracle_equivalence",
            grid,
            worst_oracle,
            tols["entropy_oracle_equivalence"],
        ),
        _result(
            "subsystem_entropies_match",
            grid,
            worst_subsystem,
            tols["subsystem_entropies_match"],
        ),
    ]


def _check_entropy_analytics(n: int, tols: dict) -> list[CheckResult]:
    m = min(n, 50)
    etas = np.linspace(0.013, 2.0 * math.pi - 0.013, m)[:, None]
    lo = np.linspace(1e-4, math.pi / 2.0 - 1e-4, 200)[None, :]
    hi = np.linspace(math.pi / 2.0 + 1e-4, math.pi - 1e-4, 200)[None, :]

    # monotone regimes: equal helicity falls then rises, unequal inverted
    worst_mono = 0.0
    for cls, sign_lo in ((HelicityClass.EQUAL_PLUS, -1.0), (HelicityClass.UNEQUAL, 1.0)):
        e_lo = ent.boosted_entropy_closed_form(etas, lo, cls)
        e_hi = ent.boosted_entropy_closed_form(etas, hi, cls)
        worst_mono = max(
            worst_mono,
            float((sign_lo * np.diff(e_lo, axis=1) * -1.0).max()),
            float((sign_lo * np.diff(e_hi, axis=1)).max()),
        )
    results = [
        _result(
            "entropy_monotone_regimes",
            f"{m} eta x 2x200 delta, both classes",
            max(worst_mono, 0.0),
            tols["entropy_monotone_regimes"],
        )
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
    analytic = ent.boosted_entropy_derivative(etas, deltas)
    results.append(
        _result(
            "entropy_derivative_matches_fd",
            f"{m} eta x 400 delta",
            float(np.abs(analytic - fd).max()),
            tols["entropy_derivative_matches_fd"],
        )
    )

    # duality: equal(eta, delta) == unequal(eta, pi/2 - delta) on [0, pi/2]
    d_half = np.linspace(0.0, math.pi / 2.0, 200)[None, :]
    dual = np.abs(
        ent.boosted_entropy_closed_form(etas, d_half, HelicityClass.EQUAL_PLUS)
        - ent.boosted_entropy_closed_form(
            etas, math.pi / 2.0 - d_half, HelicityClass.UNEQUAL
        )
    )
    results.append(
        _result(
            "entropy_duality_sin_cos",
            f"{m} eta x 200 delta",
            float(dual.max()),
            tols["entropy_duality_sin_cos"],
        )
    )

    # reflection symmetry delta <-> pi - delta, both classes
    d_full = np.linspace(0.0, math.pi, 200)[None, :]
    worst_reflect = 0.0
    for cls in (HelicityClass.EQUAL_PLUS, HelicityClass.UNEQUAL):
        worst_reflect = max(
            worst_reflect,
            float(
                np.abs(
                    ent.boosted_entropy_closed_form(etas, d_full, cls)
                    - ent.boosted_entropy_closed_form(etas, math.pi - d_full, cls)
                ).max()
            ),
        )
    results.append(
        _result(
            "entropy_reflection_symmetry",
            f"{m} eta x 200 delta, both classes",
            worst_reflect,
            tols["entropy_reflection_symmetry"],
        )
    )

    # lower bound on the entanglement difference, 200x200, both classes
    eta_grid = np.linspace(0.0, 2.0 * math.pi, 200)[:, None]
    worst_bound = -np.inf
    for cls in (HelicityClass.EQUAL_PLUS, HelicityClass.UNEQUAL):
        difference, bound = ent.entanglement_difference_bound(eta_grid, d_full, cls)
        worst_bound = max(worst_bound, float((bound - difference).max()))
    results.append(
        _result(
            "entanglement_bound_holds",
            "200x200 (eta, delta), both classes",
            max(worst_bound, 0.0),
            tols["entanglement_bound_holds"],
        )
    )
    return results


def _check_sweeps(n: int, tols: dict) -> list[CheckResult]:
    requests = [
        sw.SweepRequest(0.95, 0.95, 0.6, HelicityClass.EQUAL_PLUS),
        sw.SweepRequest(0.995, 0.995, 0.6, HelicityClass.EQUAL_PLUS),
        sw.SweepRequest(0.95, 0.95, 0.6, HelicityClass.UNEQUAL),
    ]
    worst_rows = worst_bounds = 0.0
    worst_extremum = 0.0
    regime_mismatches = 0
    for req in requests:
        series = sw.sweep_entanglement(req)
        delta_ref = np.asarray(kin.wigner_angle_tan_form(req.u, req.v, series.phi))
        entropy_ref = ent.boosted_entropy_closed_form(
            req.eta, series.delta, req.helicity_class
        )
        worst_rows = max(
            worst_rows,
            float(np.abs(series.delta - delta_ref).max()),
            float(np.abs(series.entropy - entropy_ref).max()),
        )
        rest = ent.rest_frame_entropy(req.eta, req.helicity_class)
        if req.helicity_class is HelicityClass.UNEQUAL:
            worst_bounds = max(worst_bounds, float((-series.entropy).max()))
        else:
            worst_bounds = max(worst_bounds, float((series.entropy - rest).max()))
        for extremum in sw.find_local_extrema(series):
            ultra = kin.ultra_relativistic_condition(req.u, req.v, extremum.phi)
            if (extremum.regime is sw.Regime.ULTRA) != bool(ultra):
                regime_mismatches += 1
            if extremum.regime is sw.Regime.MID:
                worst_extremum = max(
                    worst_extremum,
                    abs(extremum.phi - kin.argmax_boost_angle(req.u, req.v)),
                )
    grid = f"{len(requests)} sweeps x {requests[0].samples}"
    return [
        _result("sweep_rows_consistent", grid, worst_rows, tols["sweep_rows_consistent"]),
        _result(
            "sweep_entropy_within_bounds",
            grid,
            worst_bounds,
            tols["sweep_entropy_within_bounds"],
        ),
        _result(
            "extremum_at_max_rotation",
            grid,
            worst_extremum,
            tols["extremum_at_max_rotation"],
        ),
        _result(
            "extremum_regime_consistent",
            grid,
            regime_mismatches,
            tols["extremum_regime_consistent"],
        ),
    ]


def run_all(grid: int = 50, tolerances: dict | None = None) -> list[CheckResult]:
    """Run every check; ``tolerances`` overrides defaults by check name."""
    if grid < 3:
        raise ValueError(f"grid must be >= 3, got {grid}")
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        tols.update(tolerances)
    rng = np.random.default_rng(_SEED)
    results: list[CheckResult] = []
    results += _check_angle_forms(grid, tols)
    results.append(_check_degenerate_zero(grid, tols))
    results += _check_matrix_oracle(grid, tols)
    results.append(_check_concavity(grid, tols, rng))
    results.append(_check_argmax(grid, tols, rng))
    results += _check_states(grid, tols, rng)
    results += _check_entropy_oracle(grid, tols, rng)
    results += _check_entropy_analytics(grid, tols)
    results += _check_sweeps(grid, tols)
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
