"""Acceptance suite: the numbered end-to-end criteria of the library contract.

Each test evaluates one criterion at its stated tolerance and prints a
single line ``ACCEPTANCE <nn> <name>: PASS|FAIL`` (run with ``-s`` to see
the lines for passing tests; total runtime is well under a minute).
"""

import json
import math
import subprocess
import sys

import numpy as np
from test_cli import _assert_contract

import wignerlab.entanglement as ent
import wignerlab.kinematics as kin
import wignerlab.states as st
from wignerlab import __version__
from wignerlab.states import HelicityClass
from wignerlab.sweep import ExtremumKind, emit_figure, find_local_extrema

CLASSES = (HelicityClass.EQUAL_PLUS, HelicityClass.EQUAL_MINUS, HelicityClass.UNEQUAL)


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def test_01_formula_equivalence():
    """Cosine and tangent forms agree to 1e-10 on a 50^3 grid, 1e-6 up to 0.9999."""
    s = np.linspace(0.01, 0.99, 50)
    p = np.linspace(0.0, math.pi, 50)
    uu, vv, pp = np.meshgrid(s, s, p, indexing="ij")
    worst = float(
        np.abs(
            kin.wigner_angle_cos_form(uu, vv, pp) - kin.wigner_angle_tan_form(uu, vv, pp)
        ).max()
    )
    s_hi = np.linspace(0.01, 0.9999, 50)
    uu, vv, pp = np.meshgrid(s_hi, s_hi, p, indexing="ij")
    worst_hi = float(
        np.abs(
            kin.wigner_angle_cos_form(uu, vv, pp) - kin.wigner_angle_tan_form(uu, vv, pp)
        ).max()
    )
    ok = worst < 1e-10 and worst_hi < 1e-6
    _report(1, "formula equivalence", ok, f"max={worst:.2e}, high-speed max={worst_hi:.2e}")
    assert worst < 1e-10
    assert worst_hi < 1e-6


def test_02_matrix_oracle():
    """Closed form matches the 4x4 composition to 1e-8; the axis is y to 1e-8."""
    s = np.linspace(0.01, 0.99, 20)
    p = np.linspace(0.0, math.pi, 20)
    uu, vv, pp = np.meshgrid(s, s, p, indexing="ij")
    _, rotation, angle = kin.compose_boosts(*kin.standard_boost_vectors(uu, vv, pp))
    worst_angle = float(np.abs(angle - kin.wigner_angle_tan_form(uu, vv, pp)).max())
    axis_error = np.abs(kin.rotation_axis(rotation) - [0.0, 1.0, 0.0]).max(axis=-1)
    worst_axis = float(axis_error[angle > 1e-6].max(initial=0.0))
    ok = worst_angle < 1e-8 and worst_axis < 1e-8
    _report(2, "matrix oracle", ok, f"angle max={worst_angle:.2e}, axis max={worst_axis:.2e}")
    assert worst_angle < 1e-8
    assert worst_axis < 1e-8


def test_03_relativistic_limit():
    """delta(u, u, phi) -> phi as u -> 1, pointwise in phi, to an absolute 0.01.

    For phi in {0.5, 1, 2, 3} along u_k = 1 - 10^-k (k = 3..10) the
    deviation phi - delta is positive and strictly decreasing, and it is
    below 0.01 exactly at the speeds u_k >= u_eps(phi).  u_eps is the
    least equal speed with delta = phi - 0.01, from the closed-form
    inverse D = sin(phi)/tan((phi - 0.01)/2) - cos(phi),
    gamma = (D+1)/(D-1).  At the stated speed 0.99999 this holds the
    bound for phi in {0.5, 1.0}.

    The limit is not uniform in phi: at u = v = 0.99999 no geometry
    exceeds delta* = 2 arctan(1/sqrt(D^2 - 1)) ~ 2.8745, which the
    rotation reaches at argmax_boost_angle, so phi = 3.0 stays more
    than 0.01 away whatever the program does.
    """
    tol = 0.01
    speed = 0.99999
    phis = (0.5, 1.0, 2.0, 3.0)
    speeds = [1.0 - 10.0 ** -k for k in range(3, 11)]
    ok = True
    lines = []
    for phi in phis:
        d_eps = math.sin(phi) / math.tan((phi - tol) / 2.0) - math.cos(phi)
        gamma_eps = (d_eps + 1.0) / (d_eps - 1.0)
        u_eps = math.sqrt(1.0 - 1.0 / gamma_eps**2)
        deviations = [phi - kin.wigner_angle_tan_form(u, u, phi) for u in speeds]
        from_below = all(d > 0.0 for d in deviations) and all(
            later < earlier for earlier, later in zip(deviations, deviations[1:])
        )
        reached = all((d < tol) == (u >= u_eps) for u, d in zip(speeds, deviations))
        ok = ok and from_below and reached
        at_stated = phi - kin.wigner_angle_tan_form(speed, speed, phi)
        lines.append(
            f"phi={phi}: u_eps=1-{1.0 - u_eps:.3g}, dev@{speed}={at_stated:.4f}"
            f"{'' if from_below else ' NOT-MONOTONE'}{'' if reached else ' MISSED-U_EPS'}"
        )
    gamma = 1.0 / math.sqrt((1.0 - speed) * (1.0 + speed))
    d = (gamma + 1.0) / (gamma - 1.0)
    delta_star = 2.0 * math.atan(1.0 / math.sqrt(d * d - 1.0))
    peak = kin.wigner_angle_tan_form(speed, speed, kin.argmax_boost_angle(speed, speed))
    ceiling_ok = delta_star < 3.0 - tol and abs(peak - delta_star) < 1e-12
    ok = ok and ceiling_ok
    detail = "; ".join(lines) + f"; delta*@{speed}={delta_star:.4f} (peak {peak:.4f})"
    _report(3, "relativistic limit", ok, detail)
    assert ok, detail


def test_04_argmax_and_concavity():
    """Grid argmax of delta(phi) within one grid step of arccos(-1/D); concavity."""
    rng = np.random.default_rng(101)
    phis = np.linspace(0.0, math.pi, 10_000)
    step = phis[1] - phis[0]
    worst_gap = 0.0
    worst_convexity = -np.inf
    for _ in range(20):
        u, v = rng.uniform(0.05, 0.995, 2)
        delta = np.asarray(kin.wigner_angle_tan_form(u, v, phis))
        worst_gap = max(
            worst_gap, abs(phis[np.argmax(delta)] - kin.argmax_boost_angle(u, v))
        )
        second = (delta[2:] - 2 * delta[1:-1] + delta[:-2]) / (step * step)
        worst_convexity = max(worst_convexity, float(second.max()))
    ok = worst_gap <= step and worst_convexity <= 1e-6
    _report(4, "argmax formula and concavity", ok,
            f"gap max={worst_gap:.2e} (step {step:.2e}), second-diff max={worst_convexity:.2e}")
    assert worst_gap <= step
    assert worst_convexity <= 1e-6


def test_05_ultra_boundary_speed():
    """Least equal speed with delta >= pi/2 at phi = 3pi/4 is 0.98517 +- 1e-4."""
    phi = 3 * math.pi / 4
    threshold = kin.equal_speed_ultra_threshold(phi)
    above = kin.wigner_angle_tan_form(threshold + 1e-4, threshold + 1e-4, phi)
    below = kin.wigner_angle_tan_form(threshold - 1e-4, threshold - 1e-4, phi)
    ok = (
        abs(threshold - 0.98517) < 1e-4
        and above >= math.pi / 2
        and below < math.pi / 2
    )
    _report(5, "ultra-relativistic boundary", ok, f"threshold={threshold:.6f}")
    assert abs(threshold - 0.98517) < 1e-4
    assert above >= math.pi / 2 > below


def test_06_entropy_oracle_equivalence():
    """Closed-form boosted entropy equals partial-trace entropy to 1e-12."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for cls in CLASSES:
        for _ in range(1000):
            eta = rng.uniform(0.0, 2 * math.pi)
            delta = rng.uniform(0.0, math.pi)
            boosted = st.boost_state(st.prepare_state(cls, eta), delta)
            pipeline = ent.von_neumann_entropy(ent.reduced_density_matrix(boosted))
            closed = ent.boosted_entropy_closed_form(eta, delta, cls)
            worst = max(worst, abs(pipeline - closed))
    ok = worst < 1e-12
    _report(6, "entropy oracle equivalence", ok, f"max={worst:.2e}")
    assert worst < 1e-12


def test_07_monotonicity_and_derivative():
    """Monotone regimes on 200-point grids x 50 eta; derivative matches FD to 1e-6."""
    etas = np.linspace(0.01, 2 * math.pi - 0.01, 50)[:, None]
    lo = np.linspace(1e-3, math.pi / 2 - 1e-3, 200)[None, :]
    hi = np.linspace(math.pi / 2 + 1e-3, math.pi - 1e-3, 200)[None, :]
    worst_sign = -np.inf
    for cls, falls_first in ((HelicityClass.EQUAL_PLUS, True), (HelicityClass.UNEQUAL, False)):
        e_lo = ent.boosted_entropy_closed_form(etas, lo, cls)
        e_hi = ent.boosted_entropy_closed_form(etas, hi, cls)
        first, second = (e_lo, e_hi) if falls_first else (e_hi, e_lo)
        worst_sign = max(
            worst_sign,
            float(np.diff(first, axis=1).max()),       # must be non-increasing
            float((-np.diff(second, axis=1)).max()),   # must be non-decreasing
        )
    step = 1e-6
    deltas = np.concatenate([lo.ravel(), hi.ravel()])[None, :]
    fd = (
        ent.boosted_entropy_closed_form(etas, deltas + step, HelicityClass.EQUAL_PLUS)
        - ent.boosted_entropy_closed_form(etas, deltas - step, HelicityClass.EQUAL_PLUS)
    ) / (2 * step)
    worst_fd = float(np.abs(ent.boosted_entropy_derivative(etas, deltas) - fd).max())
    ok = worst_sign <= 1e-12 and worst_fd < 1e-6
    _report(7, "monotone regimes and derivative", ok,
            f"sign violation={worst_sign:.2e}, fd mismatch={worst_fd:.2e}")
    assert worst_sign <= 1e-12
    assert worst_fd < 1e-6


def test_08_half_pi_special_cases():
    """At delta = pi/2: equal helicity disentangles; unequal at eta = pi/4 is 1 bit."""
    etas = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
    worst_equal = float(
        np.abs(
            ent.boosted_entropy_closed_form(etas, math.pi / 2, HelicityClass.EQUAL_PLUS)
        ).max()
    )
    unequal = ent.boosted_entropy_closed_form(
        math.pi / 4, math.pi / 2, HelicityClass.UNEQUAL
    )
    ok = worst_equal < 1e-12 and abs(unequal - 1.0) < 1e-12
    _report(8, "delta = pi/2 special cases", ok,
            f"equal max={worst_equal:.2e}, unequal={unequal:.15f}")
    assert worst_equal < 1e-12
    assert abs(unequal - 1.0) < 1e-12


def test_09_difference_bound():
    """difference >= sin^2(2 eta) sin^2(delta)/(2 ln 2) on a 200x200 grid."""
    etas = np.linspace(0.0, 2 * math.pi, 200)[:, None]
    deltas = np.linspace(0.0, math.pi, 200)[None, :]
    worst = -np.inf
    for cls in (HelicityClass.EQUAL_PLUS, HelicityClass.UNEQUAL):
        difference, bound = ent.entanglement_difference_bound(etas, deltas, cls)
        worst = max(worst, float((bound - difference).max()))
    diff_pt, bound_pt = ent.entanglement_difference_bound(
        math.pi / 4, math.pi / 2, HelicityClass.EQUAL_PLUS
    )
    ok = (
        worst <= 1e-12
        and abs(diff_pt - 1.0) < 1e-12
        and abs(bound_pt - 0.72134) < 1e-5
        and diff_pt >= bound_pt
    )
    _report(9, "entanglement difference bound", ok,
            f"worst slack={-worst:.2e}, point diff={diff_pt:.3f} >= bound={bound_pt:.5f}")
    assert worst <= 1e-12
    assert abs(diff_pt - 1.0) < 1e-12
    assert abs(bound_pt - 0.72134) < 1e-5
    assert diff_pt >= bound_pt


def test_10_unitary_equivalences():
    """Boosted psitilde/xi equal the mapped boosted psi to 1e-12; entropies match."""
    rng = np.random.default_rng(303)
    worst_local = worst_ctrl = worst_entropy = 0.0
    for _ in range(200):
        eta = rng.uniform(0.0, 2 * math.pi)
        delta = rng.uniform(0.0, math.pi)
        psi_b = st.boost_state(st.prepare_state(HelicityClass.EQUAL_PLUS, eta), delta)
        tilde_b = st.boost_state(st.prepare_state(HelicityClass.EQUAL_MINUS, eta), delta)
        xi_b = st.boost_state(st.prepare_state(HelicityClass.UNEQUAL, eta), delta)
        worst_local = max(
            worst_local,
            float(
                np.abs(
                    st.local_unitary_psi_to_psitilde(psi_b).amplitudes - tilde_b.amplitudes
                ).max()
            ),
        )
        worst_ctrl = max(
            worst_ctrl,
            float(
                np.abs(st.controlled_u_psi_to_xi(psi_b).amplitudes - xi_b.amplitudes).max()
            ),
        )
        worst_entropy = max(
            worst_entropy,
            abs(
                ent.von_neumann_entropy(ent.reduced_density_matrix(tilde_b))
                - ent.von_neumann_entropy(ent.reduced_density_matrix(psi_b))
            ),
        )
    ok = max(worst_local, worst_ctrl, worst_entropy) < 1e-12
    _report(10, "local-unitary and controlled-U equivalences", ok,
            f"local={worst_local:.2e}, controlled={worst_ctrl:.2e}, entropy={worst_entropy:.2e}")
    assert worst_local < 1e-12
    assert worst_ctrl < 1e-12
    assert worst_entropy < 1e-12


def test_11_figure_reproduction():
    """Default sweeps reproduce the extremum structure at the solved locations."""
    # mid-relativistic: a single interior minimum at arccos(-1/D), nonzero entropy
    series_a = emit_figure("3a")
    extrema_a = find_local_extrema(series_a)
    phi_star_a = kin.argmax_boost_angle(0.95, 0.95)
    ok_a = (
        len(extrema_a) == 1
        and extrema_a[0].kind is ExtremumKind.MINIMUM
        and abs(extrema_a[0].phi - phi_star_a) < 1e-4
        and abs(extrema_a[0].phi - 2.122) < 1e-3
        and extrema_a[0].entropy > 1e-6
    )

    # ultra-relativistic: two zero minima at the delta = pi/2 crossings and a
    # local maximum between them at arccos(-1/D)
    series_c = emit_figure("3c")
    extrema_c = find_local_extrema(series_c)
    lo, hi = kin.ultra_phi_interval(0.995, 0.995)
    phi_star_c = kin.argmax_boost_angle(0.995, 0.995)
    kinds = [e.kind for e in extrema_c]
    ok_c = (
        kinds == [ExtremumKind.MINIMUM, ExtremumKind.MAXIMUM, ExtremumKind.MINIMUM]
        and extrema_c[0].entropy < 1e-10
        and extrema_c[2].entropy < 1e-10
        and abs(extrema_c[0].phi - lo) < 1e-4
        and abs(extrema_c[2].phi - hi) < 1e-4
        and abs(extrema_c[1].phi - phi_star_c) < 1e-4
        and abs(extrema_c[0].phi - 1.829) < 1e-3
        and abs(extrema_c[2].phi - 2.884) < 1e-3
        and abs(extrema_c[1].phi - 2.530) < 1e-3
        and extrema_c[0].phi < extrema_c[1].phi < extrema_c[2].phi
    )
    _report(11, "figure reproduction", ok_a and ok_c,
            f"min at {extrema_a[0].phi:.4f}; pattern at "
            + ", ".join(f"{e.phi:.4f}" for e in extrema_c))
    assert ok_a, [(e.kind, e.phi, e.entropy) for e in extrema_a]
    assert ok_c, [(e.kind, e.phi, e.entropy) for e in extrema_c]


def test_12_cli_determinism(tmp_path):
    """Repeated sweep/figure runs are byte-identical; verify --grid 50 exits 0.

    The one place the CLI runs as ``python -W error -m wignerlab.cli``; every
    call keeps the CLI contract of ``test_cli``.
    """
    def run(*argv, expected=(0,)):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "wignerlab.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        _assert_contract(list(argv), proc.returncode, proc.stdout, proc.stderr, expected)
        return proc

    assert run("--version").stdout == f"wignerlab {__version__}\n"
    angle = run("angle", "--u", "0.5", "--v", "0.5", "--phi", "0.7", "--method", "cos")
    assert "delta =" in angle.stdout
    sweep_args = ("sweep", "--u", "0.95", "--v", "0.95", "--eta", "0.6",
                  "--class", "psi", "--samples", "501")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(*sweep_args, "--out", str(a)).returncode == 0
    assert run(*sweep_args, "--out", str(b)).returncode == 0
    sweep_identical = a.read_bytes() == b.read_bytes()

    fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
    assert run("figure", "--id", "3c", "--out", str(fa), "--format", "json").returncode == 0
    assert run("figure", "--id", "3c", "--out", str(fb), "--format", "json").returncode == 0
    figure_identical = fa.read_bytes() == fb.read_bytes()
    json.loads(fa.read_text())  # valid JSON

    verify = run("verify", "--grid", "50", expected=(0, 2))  # a failing verify is reported below
    ok = sweep_identical and figure_identical and verify.returncode == 0
    _report(12, "CLI determinism and verify", ok,
            f"verify exit={verify.returncode}")
    assert sweep_identical
    assert figure_identical
    assert verify.returncode == 0, verify.stdout + verify.stderr
