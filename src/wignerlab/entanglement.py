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

The partial trace and the 2x2 eigenvalues are computed on Python complex
numbers and floats (no BLAS call, no small-array overhead); the results
are still returned as numpy arrays.  As in ``kinematics``, a scalar entry
picks a float kernel (``_*_f``, or inline) or an array kernel once per call.
``eta``, ``delta`` and ``p`` pass the library's input rule
(``kinematics._checked``): real and finite, and computed in float64.
"""

from __future__ import annotations

import math

import numpy as np

from .kinematics import _MATRIX, _checked, _scalar_or_array
from .states import _EQUAL_PLUS, _UNEQUAL, HelicityClass, SpinMomentumState

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

_LN2 = math.log(2.0)
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-9
# Input rules for _checked, with the finiteness test of the matrix rule.
_ETA = (_MATRIX[0], "eta must be finite")
_DELTA = (_MATRIX[0], "delta must be finite")
_P = (_MATRIX[0], "p must be finite")


def reduced_density_matrix(state: SpinMomentumState, keep: str = "spin") -> np.ndarray:
    """Partial trace of a pure 4-amplitude state onto one qubit.

    ``keep`` selects the surviving subsystem, "spin" or "momentum".
    Both reduced matrices share the same spectrum (the global state is
    pure), hence the same entropy.
    """
    a0, a1, a2, a3 = state._amps
    # A = [[a0, a1], [a2, a3]] has rows p+, p- and columns up, down.  rho is the
    # Gram matrix rho[i][j] = b_i . conj(b_j) of two vectors b_0 = p, b_1 = q:
    # the columns of A for the spin (A^T conj(A)), its rows for the momentum (A A^H).
    if keep == "spin":
        (p0, p1), (q0, q1) = (a0, a2), (a1, a3)
    elif keep == "momentum":
        (p0, p1), (q0, q1) = (a0, a1), (a2, a3)
    else:
        raise ValueError(f"keep must be 'spin' or 'momentum', got {keep!r}")
    pc0, pc1, qc0, qc1 = p0.conjugate(), p1.conjugate(), q0.conjugate(), q1.conjugate()
    return np.fromiter(
        (p0 * pc0 + p1 * pc1, p0 * qc0 + p1 * qc1, q0 * pc0 + q1 * pc1, q0 * qc0 + q1 * qc1),
        complex,
        4,
    ).reshape(2, 2)


def _eigenvalue_pair(rho) -> tuple[float, float]:
    """(larger, smaller) eigenvalue of a validated 2x2 density matrix, as floats."""
    if not isinstance(rho, np.ndarray):
        rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    (r00, r01), (r10, r11) = rho.tolist()
    # One comparison chain; every link is False on NaN, and a non-finite entry
    # fails one: a diagonal real part by < inf, a diagonal imaginary part by
    # <= tol, an off-diagonal part through the difference, then inf or NaN (as is
    # a finite difference that overflows).  On the diagonal the hermiticity
    # residual |z - conj(z)| is exactly 2 |Im z|.
    if not (
        abs(r00.real) < math.inf and abs(r11.real) < math.inf
        and 2.0 * abs(r00.imag) <= _HERMITICITY_TOL and 2.0 * abs(r11.imag) <= _HERMITICITY_TOL
        and abs(r01 - r10.conjugate()) <= _HERMITICITY_TOL
    ):
        raise ValueError("density matrix must be finite and Hermitian")
    tr = float((r00 + r11).real)
    if not abs(tr - 1.0) <= _TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    det = float((r00 * r11 - r01 * r10).real)
    root = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    larger, smaller = (tr + root) / 2.0, (tr - root) / 2.0
    if smaller < _EIGENVALUE_FLOOR:
        raise ValueError(
            f"density matrix is not positive semidefinite: {np.array([larger, smaller])}"
        )
    # Clipped into [0, 1]: larger >= tr/2 > 0 and smaller <= tr/2 < 1 already.
    return min(larger, 1.0), max(smaller, 0.0)


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 density matrix by the trace/determinant closed form.

    Validates hermiticity, unit trace and positivity (eigenvalues are
    allowed to dip to -1e-9 before it is treated as a broken invariant);
    the result is clamped into [0, 1] and sums to the trace.
    """
    return np.array(_eigenvalue_pair(rho))


def _xlog2x(x):
    """x log2 x of a float64 array, with 0 log 0 := 0; log2 only ever sees positive values."""
    out = np.zeros_like(x)
    np.log2(x, out=out, where=x > 0.0)
    out *= x
    out += 0.0  # 0 * -0.0 is -0.0
    return out


def _entropy_bits(a, b):
    """-(a log2 a + b log2 b) of two float64 arrays in [0, 1]."""
    return _scalar_or_array(-(_xlog2x(a) + _xlog2x(b)) + 0.0)  # + 0.0 normalizes -0.0


def _entropy_bits_f(a, b):
    """Float kernel of :func:`_entropy_bits`: its operations, in its order."""
    ta = a * float(np.log2(a)) if a > 0.0 else 0.0
    tb = b * float(np.log2(b)) if b > 0.0 else 0.0
    return -(ta + tb) + 0.0


def binary_entropy(p):
    """h(p) = -p log2 p - (1-p) log2 (1-p) in bits, with 0 log 0 := 0.

    ``p`` is clipped into [0, 1]; non-finite ``p`` raises ValueError.
    """
    if isinstance(p, float) and abs(p) < math.inf:
        p = min(max(float(p), 0.0), 1.0)  # float(): an np.float64 result would stay one
        return _entropy_bits_f(p, 1.0 - p)
    p = np.clip(_checked(p, _P), 0.0, 1.0)
    return _entropy_bits(p, 1.0 - p)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lambda log2 lambda) of a 2x2 density matrix, in bits."""
    return _entropy_bits_f(*_eigenvalue_pair(rho))


def rest_frame_entropy(eta, helicity_class: HelicityClass):
    """Rest-frame entanglement of a preparation family, in bits.

    Equal-helicity families: h(cos^2 eta), i.e. 1 bit at the Bell points
    eta = odd multiples of pi/4 and 0 at multiples of pi/2.  The
    unequal-helicity family is a product state, entropy 0 for every eta.
    Non-finite ``eta`` raises ValueError.
    """
    if isinstance(eta, float) and abs(eta) < math.inf:
        if helicity_class is _UNEQUAL:
            return 0.0
        c = float(np.cos(eta))
        c2 = c * c
        return _entropy_bits_f(c2, 1.0 - c2)
    return _rest_frame_entropy(_checked(eta, _ETA), helicity_class)


def _rest_frame_entropy(eta, helicity_class: HelicityClass):
    """Unchecked :func:`rest_frame_entropy` of a float64-array eta."""
    if helicity_class is _UNEQUAL:
        return _scalar_or_array(np.zeros_like(eta))
    c = np.cos(eta)
    c2 = c * c  # cos^2 eta lies in [0, 1]
    return _entropy_bits(c2, 1.0 - c2)


def _xi_factor(eta, delta, helicity_class: HelicityClass):
    """``(s2, gap)`` of float64 arrays: s2 = sin^2 2eta and gap = sqrt(cos^2 2eta + W s2).

    The gap is 2p - 1, the spectral gap of the reduced matrix.
    """
    t = (np.cos if helicity_class is _UNEQUAL else np.sin)(delta)
    s, c = np.sin(2.0 * eta), np.cos(2.0 * eta)
    s2 = s * s
    return s2, np.clip(np.sqrt(c * c + t * t * s2), 0.0, 1.0)


def _xi_factor_f(eta, delta, helicity_class: HelicityClass):
    """Float kernel of :func:`_xi_factor`: its operations, in its order."""
    t = float((np.cos if helicity_class is _UNEQUAL else np.sin)(delta))
    s, c = float(np.sin(2.0 * eta)), float(np.cos(2.0 * eta))
    s2 = s * s
    return s2, min(max(math.sqrt(c * c + t * t * s2), 0.0), 1.0)


def boosted_entropy_closed_form(eta, delta, helicity_class: HelicityClass):
    """Boosted-frame entanglement in bits, as a closed form in (eta, delta).

    Binary entropy of p = (1 + gap)/2 with the class-dependent gap of
    :func:`_xi_factor`.  Continuously recovers the rest-frame entropy as
    delta -> 0.  Accepts scalars, lists or broadcastable arrays; non-finite
    ``eta`` or ``delta`` raises ValueError.
    """
    if (isinstance(eta, float) and isinstance(delta, float)
            and abs(eta) < math.inf and abs(delta) < math.inf):
        return _boosted_entropy_f(eta, delta, helicity_class)
    return _boosted_entropy(_checked(eta, _ETA), _checked(delta, _DELTA), helicity_class)


def _boosted_entropy(eta, delta, helicity_class: HelicityClass):
    """Unchecked :func:`boosted_entropy_closed_form` of float64-array inputs."""
    _, gap = _xi_factor(eta, delta, helicity_class)
    return _entropy_bits(0.5 * (1.0 + gap), 0.5 * (1.0 - gap))


def _boosted_entropy_f(eta, delta, helicity_class: HelicityClass):
    """Float kernel of :func:`boosted_entropy_closed_form` for finite float arguments."""
    _, gap = _xi_factor_f(eta, delta, helicity_class)
    return _entropy_bits_f(0.5 * (1.0 + gap), 0.5 * (1.0 - gap))


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
    if (isinstance(eta, float) and isinstance(delta, float)
            and abs(eta) < math.inf and abs(delta) < math.inf):
        s2, gap = _xi_factor_f(eta, delta, _EQUAL_PLUS)
        if not 0.0 < gap < 1.0:
            return 0.0
        return -float(np.sin(2.0 * delta)) * s2 * float(np.arctanh(gap)) / (2.0 * gap * _LN2) + 0.0
    eta, delta = _checked(eta, _ETA), _checked(delta, _DELTA)
    s2, gap = _xi_factor(eta, delta, _EQUAL_PLUS)
    singular = (gap <= 0.0) | (gap >= 1.0)
    gap = np.where(singular, 0.5, gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = -np.sin(2.0 * delta) * s2 * np.arctanh(gap) / (2.0 * gap * _LN2)
    return _scalar_or_array(np.where(singular, 0.0, value) + 0.0)


def entanglement_difference_bound(eta, delta, helicity_class: HelicityClass):
    """Entanglement change under a boost and its analytic lower bound.

    Returns ``(difference, bound)`` where the difference is oriented so
    it is non-negative: rest minus boosted for the equal-helicity
    families (a boost can only drain their entanglement), boosted minus
    rest for the unequal-helicity family (a boost can only create it).
    Both satisfy

        difference >= bound = sin^2(2 eta) sin^2(delta) / (2 ln 2) >= 0.

    Accepts scalars, lists or broadcastable arrays, like the two
    entropies it is built from; non-finite ``eta`` or ``delta`` raises
    ValueError.
    """
    eta, delta = _checked(eta, _ETA), _checked(delta, _DELTA)
    rest = _rest_frame_entropy(eta, helicity_class)
    boosted = _boosted_entropy(eta, delta, helicity_class)
    if helicity_class is _UNEQUAL:
        difference = boosted - rest
    else:
        difference = rest - boosted
    s, t = np.sin(2.0 * eta), np.sin(delta)
    bound = s * s * (t * t) / (2.0 * _LN2)
    return _scalar_or_array(difference), _scalar_or_array(bound)
