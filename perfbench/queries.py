"""Seeded scalar queries: the library used one element at a time.

Each query evaluates the rotation angle by all three routes, the
maximizing boosting angle, the ultra-relativistic condition, the
partial-trace entropy pipeline, the closed-form entropy and its
derivative.  Functions are looked up through their modules at call
time, so the traced run's wrappers see every call.

Run as a script (``PYTHONPATH=src python3 perfbench/queries.py --seed N``)
it only imports the package and builds the inputs: the set-up a user
script pays before its first query.
"""

from __future__ import annotations

import math

import numpy as np

from wignerlab import entanglement as ent
from wignerlab import kinematics as kin
from wignerlab import states as st
from wignerlab.states import HelicityClass
from wignerlab.verify import DEFAULT_TOLERANCES

QUERY_COUNT = 4000

# Speeds are drawn log-uniform in gamma between these two speeds, so the
# slow, mid and ultra-relativistic regimes all carry weight.
SPEED_MIN = 0.03
SPEED_MAX = 0.9999
# verify grids the cos/tan agreement at speeds up to 0.99 with the strict
# tolerance and above 0.9 with the high-speed one.
STRICT_SPEED_MAX = 0.99

_CLASSES = (HelicityClass.EQUAL_PLUS, HelicityClass.EQUAL_MINUS, HelicityClass.UNEQUAL)


def make_queries(seed: int, count: int = QUERY_COUNT) -> list[tuple]:
    """(u, v, phi, eta, helicity_class) tuples of Python floats, from the seed."""
    rng = np.random.default_rng(seed)
    log_gamma = np.log([1.0 / math.sqrt(1.0 - s * s) for s in (SPEED_MIN, SPEED_MAX)])
    gamma = np.exp(rng.uniform(log_gamma[0], log_gamma[1], size=(count, 2)))
    speeds = np.sqrt(1.0 - 1.0 / np.square(gamma))
    phi = rng.uniform(0.0, math.pi, count)
    eta = rng.uniform(0.0, 2.0 * math.pi, count)
    classes = rng.integers(0, len(_CLASSES), count)
    return [
        (float(u), float(v), float(p), float(e), _CLASSES[c])
        for (u, v), p, e, c in zip(speeds, phi, eta, classes)
    ]


def run_query(query: tuple) -> tuple:
    """Every scalar call of one query; returns the raw outputs."""
    u, v, phi, eta, cls = query
    delta = kin.wigner_angle_tan_form(u, v, phi)
    delta_cos = kin.wigner_angle_cos_form(u, v, phi)
    delta_matrix = kin.wigner_angle_matrix_form(u, v, phi)
    phi_star = kin.argmax_boost_angle(u, v)
    ultra = kin.ultra_relativistic_condition(u, v, phi)
    boosted = st.boost_state(st.prepare_state(cls, eta), delta)
    entropy_pipeline = ent.von_neumann_entropy(ent.reduced_density_matrix(boosted))
    entropy_closed = ent.boosted_entropy_closed_form(eta, delta, cls)
    slope = ent.boosted_entropy_derivative(eta, delta)
    return (
        delta, delta_cos, delta_matrix, phi_star, ultra,
        entropy_pipeline, entropy_closed, slope,
    )


def check_query(query: tuple, result: tuple) -> dict:
    """Deviation of each cross-check from its tolerance; {} when all hold.

    Tolerances are the ones ``verify`` applies to the same invariant in
    the query's speed regime.
    """
    u, v, phi, eta, cls = query
    delta, delta_cos, delta_matrix, phi_star, ultra, e_pipe, e_closed, slope = result
    cos_tol = (
        "angle_forms_agree"
        if max(u, v) <= STRICT_SPEED_MAX
        else "angle_forms_agree_high_speed"
    )
    deviations = {
        cos_tol: abs(delta_cos - delta),
        "matrix_oracle_agrees": abs(delta_matrix - delta),
        "ultra_condition_matches_angle": float(bool(ultra) != (delta >= math.pi / 2.0)),
        "entropy_oracle_equivalence": abs(e_pipe - e_closed),
    }
    failures = {
        name: value
        for name, value in deviations.items()
        if not value <= DEFAULT_TOLERANCES[name]
    }
    finite = (delta, delta_cos, delta_matrix, phi_star, e_pipe, e_closed, slope)
    if not all(math.isfinite(x) for x in finite):
        failures["non_finite_output"] = 1.0
    return failures


def worst_deviations(queries: list[tuple], results: list[tuple]) -> dict:
    """Largest deviation per cross-check and the query where it occurred."""
    worst = {}
    for query, result in zip(queries, results):
        delta, delta_cos, delta_matrix, _, _, e_pipe, e_closed, _ = result
        for name, value in (
            ("cos_vs_tan", abs(delta_cos - delta)),
            ("matrix_vs_tan", abs(delta_matrix - delta)),
            ("pipeline_vs_closed_entropy", abs(e_pipe - e_closed)),
        ):
            if name not in worst or value > worst[name][0]:
                worst[name] = (value, query)
    return {
        name: {"deviation": value, "u": q[0], "v": q[1], "phi": q[2], "eta": q[3],
               "class": q[4].value}
        for name, (value, q) in worst.items()
    }


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=QUERY_COUNT)
    args = parser.parse_args()
    make_queries(args.seed, args.count)
