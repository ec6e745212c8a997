"""Spin-momentum entanglement: partial trace, von Neumann entropy, closed forms.

The global state is pure, so the entanglement across the momentum/spin
split is the von Neumann entropy (base 2, bits) of either reduced
density matrix.  Alongside the generic partial-trace route this module
provides the closed forms for the boosted preparation families, the
analytic derivative of the boosted entropy in the rotation angle, and
the lower bound on the entanglement change under a boost.

The closed forms all reduce to the binary entropy h(p) of the larger
reduced eigenvalue

    p = (1 + sqrt(cos^2(2 eta) + W sin^2(2 eta))) / 2,

with W = sin^2(delta) for the equal-helicity families and
W = cos^2(delta) for the unequal-helicity family.
"""

from __future__ import annotations

import numpy as np

from .kinematics import _scalar_or_array
from .states import HelicityClass, SpinMomentumState

__all__ = [
    "binary_entropy",
    "boosted_entropy_closed_form",
    "boosted_entropy_derivative",
    "density_eigenvalues",
    "entanglement_difference_bound",
    "reduced_density_matrix",
    "rest_frame_entropy",
    "von_neumann_entropy",
]

_LN2 = np.log(2.0)
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-9


def _check_finite(name: str, x) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite, got {x}")


def reduced_density_matrix(state: SpinMomentumState, keep: str = "spin") -> np.ndarray:
    """Partial trace of a pure 4-amplitude state onto one qubit.

    ``keep`` selects the surviving subsystem, "spin" or "momentum".
    Both reduced matrices share the same spectrum (the global state is
    pure), hence the same entropy.
    """
    a = state.amplitudes.reshape(2, 2)  # rows: momentum (p+, p-); cols: spin (up, down)
    if keep == "spin":
        return a.T @ a.conj()
    if keep == "momentum":
        return a @ a.conj().T
    raise ValueError(f"keep must be 'spin' or 'momentum', got {keep!r}")


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 density matrix by the trace/determinant closed form.

    Validates hermiticity, unit trace and positivity (eigenvalues are
    allowed to dip to -1e-9 before it is treated as a broken invariant);
    the result is clamped into [0, 1] and sums to the trace.
    """
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    # Finiteness first, so that inf - inf never reaches the hermiticity test.
    if not (
        np.isfinite(rho).all() and np.abs(rho - rho.conj().T).max() <= _HERMITICITY_TOL
    ):
        raise ValueError("density matrix must be finite and Hermitian")
    tr = float(rho.trace().real)
    if not abs(tr - 1.0) <= _TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    det = float((rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real)
    disc = max(tr * tr - 4.0 * det, 0.0)
    root = np.sqrt(disc)
    lam = np.array([(tr + root) / 2.0, (tr - root) / 2.0])
    if lam.min() < _EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix is not positive semidefinite: {lam}")
    return np.clip(lam, 0.0, 1.0)


def _xlog2x(x):
    """x log2 x elementwise, with 0 log 0 := 0; log2 only ever sees positive values."""
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def binary_entropy(p):
    """h(p) = -p log2 p - (1-p) log2 (1-p) in bits, with 0 log 0 := 0.

    ``p`` is clipped into [0, 1]; non-finite ``p`` raises ValueError.
    """
    _check_finite("p", p)
    p = np.clip(p, 0.0, 1.0)
    h = -(_xlog2x(p) + _xlog2x(1.0 - p))
    return _scalar_or_array(h + 0.0)  # + 0.0 normalizes -0.0


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lambda log2 lambda) of a 2x2 density matrix, in bits."""
    return float(-np.sum(_xlog2x(density_eigenvalues(rho))) + 0.0)


def rest_frame_entropy(eta, helicity_class: HelicityClass):
    """Rest-frame entanglement of a preparation family, in bits.

    Equal-helicity families: h(cos^2 eta), i.e. 1 bit at the Bell points
    eta = odd multiples of pi/4 and 0 at multiples of pi/2.  The
    unequal-helicity family is a product state, entropy 0 for every eta.
    Non-finite ``eta`` raises ValueError.
    """
    _check_finite("eta", eta)
    if helicity_class is HelicityClass.UNEQUAL:
        return _scalar_or_array(np.zeros_like(np.asarray(eta, dtype=float)))
    return binary_entropy(np.square(np.cos(eta)))


def _xi_factor(eta, delta, helicity_class: HelicityClass):
    """``(s2, gap)``: s2 = sin^2 2eta and gap = sqrt(cos^2 2eta + W s2).

    The gap is 2p - 1, the spectral gap of the reduced matrix.
    """
    w = (
        np.square(np.cos(delta))
        if helicity_class is HelicityClass.UNEQUAL
        else np.square(np.sin(delta))
    )
    s2 = np.square(np.sin(2.0 * eta))
    gap = np.sqrt(np.square(np.cos(2.0 * eta)) + w * s2)
    return s2, np.clip(gap, 0.0, 1.0)


def boosted_entropy_closed_form(eta, delta, helicity_class: HelicityClass):
    """Boosted-frame entanglement in bits, as a closed form in (eta, delta).

    Binary entropy of p = (1 + gap)/2 with the class-dependent gap of
    :func:`_xi_factor`.  Continuously recovers the rest-frame entropy as
    delta -> 0.  Accepts scalars or broadcastable arrays; non-finite
    ``eta`` or ``delta`` raises ValueError.
    """
    _check_finite("eta", eta)
    _check_finite("delta", delta)
    _, gap = _xi_factor(eta, delta, helicity_class)
    h = -(_xlog2x(0.5 * (1.0 + gap)) + _xlog2x(0.5 * (1.0 - gap)))
    return _scalar_or_array(h + 0.0)


def boosted_entropy_derivative(eta, delta):
    """d/d(delta) of the equal-helicity boosted entropy, in bits per radian.

    With gap(delta) = sqrt(cos^2 2eta + sin^2 delta sin^2 2eta) and
    p = (1 + gap)/2 this is

        (1/ln 2) * [sin(2 delta) sin^2(2 eta) / (4 gap)] * ln((1-p)/p)
      = -(1/ln 2) * [sin(2 delta) sin^2(2 eta) / (2 gap)] * artanh(gap),

    non-positive on (0, pi/2) and non-negative on (pi/2, pi).  The
    expression is 0/0 at gap = 0 (Bell-point eta with delta a multiple
    of pi) and formally 0 * inf at gap = 1 (delta = pi/2, or degenerate
    eta); both limits equal 0 and are returned as such.  Non-finite
    ``eta`` or ``delta`` raises ValueError.
    """
    _check_finite("eta", eta)
    _check_finite("delta", delta)
    eta = np.asarray(eta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    s2, gap = _xi_factor(eta, delta, HelicityClass.EQUAL_PLUS)
    singular = (gap <= 0.0) | (gap >= 1.0)
    safe_gap = np.where(singular, 0.5, gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (
            -np.sin(2.0 * delta) * s2 * np.arctanh(safe_gap) / (2.0 * safe_gap * _LN2)
        )
    return _scalar_or_array(np.where(singular, 0.0, value) + 0.0)


def entanglement_difference_bound(eta, delta, helicity_class: HelicityClass):
    """Entanglement change under a boost and its analytic lower bound.

    Returns ``(difference, bound)`` where the difference is oriented so
    it is non-negative: rest minus boosted for the equal-helicity
    families (a boost can only drain their entanglement), boosted minus
    rest for the unequal-helicity family (a boost can only create it).
    Both satisfy

        difference >= bound = sin^2(2 eta) sin^2(delta) / (2 ln 2) >= 0.

    Non-finite ``eta`` or ``delta`` raises ValueError (checked by the two
    entropies it is built from).
    """
    rest = rest_frame_entropy(eta, helicity_class)
    boosted = boosted_entropy_closed_form(eta, delta, helicity_class)
    if helicity_class is HelicityClass.UNEQUAL:
        difference = boosted - rest
    else:
        difference = rest - boosted
    bound = np.square(np.sin(2.0 * eta)) * np.square(np.sin(delta)) / (2.0 * _LN2)
    return _scalar_or_array(difference), _scalar_or_array(bound)
