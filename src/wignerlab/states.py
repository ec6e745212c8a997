"""Spin-momentum states of a massive spin-1/2 particle and their boosts.

The particle is restricted to two sharp momentum branches p+ and p-
(opposite directions along the spin-quantization axis), so the state
space is a two-qubit system momentum (x) spin.  Amplitudes are always
ordered

    (p+ up, p+ down, p- up, p- down).

A boost of the observer acts on the spin conditioned on the momentum
branch: the rotation U(+) on the p+ amplitudes and U(-) on the p-
amplitudes, both about the +y axis by the Thomas-Wigner angle delta.
Global phases are preserved throughout, never normalized away.

Construction, preparation, boosting and the gate maps work on the four
amplitudes as Python floats and complex numbers: on a 4-element array
numpy's per-call cost is many times the arithmetic.  cos and sin stay
numpy's, because the ``math`` versions can differ from them in the last
bit, but their results become Python floats at once.  A state holds a
read-only complex128 copy of its amplitudes, so the caller's array stays
its own.  Scalar inputs (eta, delta) accept floats, ints, bools, real numpy
scalars and 0-d arrays, tested in their own dtype and evaluated in
float64; anything else is refused with the range message.

There are two ways to a state.  The public constructor
``SpinMomentumState(...)`` (and ``state_from_json_dict``) checks
everything it is given: four finite amplitudes of unit norm, a
``Frame``, a ``HelicityClass`` or None, and eta and delta None or in
range.  The library's own steps -- ``prepare_state``, ``boost_state``
and the two gate maps -- build their results with ``_state``, which
skips those checks: their amplitudes come from checked inputs by a
rotation or a signed permutation, so the checks would only repeat
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kinematics import _PHI, _checked_scalar

__all__ = [
    "AMPLITUDE_ORDER",
    "Frame",
    "HelicityClass",
    "SpinMomentumState",
    "boost_state",
    "controlled_u_psi_to_xi",
    "local_unitary_psi_to_psitilde",
    "prepare_state",
    "state_from_json_dict",
    "wigner_rotation_matrix",
]

AMPLITUDE_ORDER = ("p+ up", "p+ down", "p- up", "p- down")

_NORM_TOL = 1e-12
_ETA = (lambda x: (0.0 <= x) & (x < 2.0 * np.pi), "eta must lie in [0, 2*pi)")
_DELTA = (_PHI[0], "delta must lie in [0, pi]")


class HelicityClass(Enum):
    """Rest-frame preparation family, distinguished by helicity content."""

    EQUAL_PLUS = "psi"        # cos(eta)|p+ up> + sin(eta)|p- down>, helicity +1
    EQUAL_MINUS = "psitilde"  # cos(eta)|p+ down> + sin(eta)|p- up>, helicity -1
    UNEQUAL = "xi"            # (cos(eta)|p+> + sin(eta)|p->) (x) |up>


class Frame(Enum):
    REST = "rest"
    BOOSTED = "boosted"


@dataclass(frozen=True, eq=False)
class SpinMomentumState:
    """Unit-norm 4-amplitude state with frame and preparation metadata.

    ``helicity_class``/``eta`` record how the state was prepared and
    ``delta`` the rotation angle applied to it, when known; they are
    None for states that did not come out of :func:`prepare_state` /
    :func:`boost_state`.  ``eta`` and ``delta`` follow the rules of
    those two functions and are stored as floats.  ``==`` and ``hash`` are
    identity: the amplitudes are an array, which has no truth value.
    """

    amplitudes: np.ndarray
    frame: Frame = Frame.REST
    helicity_class: HelicityClass | None = None
    eta: float | None = None
    delta: float | None = None

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.size != 4:
            raise ValueError(
                f"state must have 4 amplitudes {AMPLITUDE_ORDER}, got {amp.size}"
            )
        if amp.ndim != 1:
            amp = amp.reshape(4)
        m0, m1, m2, m3 = map(abs, amp.tolist())
        norm_sq = m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state must be normalized, got |amplitudes|^2 = {norm_sq}")
        if not isinstance(self.frame, Frame):
            raise ValueError(f"frame must be a Frame, got {self.frame!r}")
        if self.helicity_class is not None and not isinstance(self.helicity_class, HelicityClass):
            raise ValueError(f"unknown helicity class: {self.helicity_class!r}")
        for name, rule in (("eta", _ETA), ("delta", _DELTA)):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _checked_scalar(value, rule))
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def to_json_dict(self) -> dict:
        """JSON form: {class, eta, delta, frame, amplitudes: [[re, im] x 4]}."""
        return {
            "class": self.helicity_class.value if self.helicity_class else None,
            "eta": self.eta,
            "delta": self.delta,
            "frame": self.frame.value,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


def _state(amps, frame, helicity_class, eta, delta=None) -> SpinMomentumState:
    """A state from amplitudes the library has just computed from checked inputs.

    It holds the same read-only complex128 array as the public constructor
    would, but skips the dataclass ``__init__`` and every check.
    """
    amplitudes = np.fromiter(amps, complex, 4)
    amplitudes.setflags(write=False)
    state = object.__new__(SpinMomentumState)
    state.__dict__.update(
        amplitudes=amplitudes, frame=frame, helicity_class=helicity_class, eta=eta, delta=delta
    )
    return state


def state_from_json_dict(payload: dict) -> SpinMomentumState:
    """Inverse of :meth:`SpinMomentumState.to_json_dict`."""
    amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    cls = payload.get("class")
    return SpinMomentumState(
        amplitudes=amps,
        frame=Frame(payload["frame"]),
        helicity_class=HelicityClass(cls) if cls is not None else None,
        eta=payload.get("eta"),
        delta=payload.get("delta"),
    )


def _half_angle(delta) -> tuple[float, float, float]:
    """(delta, cos(delta/2), sin(delta/2)) as floats, for a scalar delta in [0, pi]."""
    delta = _checked_scalar(delta, _DELTA)
    return delta, float(np.cos(delta / 2.0)), float(np.sin(delta / 2.0))


def prepare_state(helicity_class: HelicityClass, eta: float) -> SpinMomentumState:
    """Rest-frame state of the given preparation family.

    eta in [0, 2 pi) sets the momentum-branch weights cos(eta)/sin(eta).
    The equal-helicity families are entangled for eta not a multiple of
    pi/2 (maximally, a Bell state, at odd multiples of pi/4); the
    unequal-helicity family is a product state for every eta.
    """
    eta = _checked_scalar(eta, _ETA)  # a float32, float16 or bool eta is evaluated in float64
    c, s = float(np.cos(eta)), float(np.sin(eta))
    if helicity_class is HelicityClass.EQUAL_PLUS:
        amps = [c, 0.0, 0.0, s]
    elif helicity_class is HelicityClass.EQUAL_MINUS:
        amps = [0.0, c, s, 0.0]
    elif helicity_class is HelicityClass.UNEQUAL:
        amps = [c, 0.0, s, 0.0]
    else:
        raise ValueError(f"unknown helicity class: {helicity_class!r}")
    return _state(amps, Frame.REST, helicity_class, eta)


def wigner_rotation_matrix(delta: float, sign: int) -> np.ndarray:
    """Spin rotation U(+-) about +y by delta, for momentum branch p+ (sign=+1) or p- (sign=-1).

        U(+-) = [[cos(delta/2), +- sin(delta/2)],
                 [-+ sin(delta/2), cos(delta/2)]]

    Real, unitary, determinant 1; U(-delta) = U(+)^T = U(-).
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 (p+ branch) or -1 (p- branch), got {sign}")
    _, c, s = _half_angle(delta)
    return np.array([[c, sign * s], [-sign * s, c]])


def boost_state(state: SpinMomentumState, delta: float) -> SpinMomentumState:
    """Apply the momentum-conditioned spin rotation of a boost.

    U(+) acts on the amplitudes attached to p+, U(-) on those attached
    to p-; the momentum labels become the transformed p'+-.  Only a
    single boost is modeled, so the input must be a rest-frame state.
    """
    if state.frame is not Frame.REST:
        raise ValueError("state is already boosted; only a single boost is modeled")
    delta, c, s = _half_angle(delta)
    a0, a1, a2, a3 = state.amplitudes.tolist()
    return _state(
        [c * a0 + s * a1, -s * a0 + c * a1, c * a2 - s * a3, s * a2 + c * a3],
        Frame.BOOSTED,
        state.helicity_class,
        state.eta,
        delta,
    )


_SWAP_EQUAL = {
    HelicityClass.EQUAL_PLUS: HelicityClass.EQUAL_MINUS,
    HelicityClass.EQUAL_MINUS: HelicityClass.EQUAL_PLUS,
}


def local_unitary_psi_to_psitilde(state: SpinMomentumState) -> SpinMomentumState:
    """Apply the local unitary -i sigma_z (x) sigma_y.

    Maps the boosted equal-helicity state of one family onto the other
    family's boosted state at the same (eta, delta), exactly (the
    conventions here make the identity phase-exact).  Being local to the
    momentum/spin split, it cannot change the entanglement.  Applying it
    twice gives the identity up to a global phase of -1.

    In the fixed amplitude ordering it is the signed permutation
    (a0, a1, a2, a3) -> (-a1, a0, a3, -a2).
    """
    a0, a1, a2, a3 = state.amplitudes.tolist()
    return _state(
        [-a1, a0, a3, -a2],
        state.frame,
        _SWAP_EQUAL.get(state.helicity_class),
        state.eta,
        state.delta,
    )


def controlled_u_psi_to_xi(state: SpinMomentumState) -> SpinMomentumState:
    """Apply controlled-(i sigma_y): the spin flip-with-phase on branch p- only.

    A CNOT with an extra phase, controlled on the momentum.  Maps the
    boosted equal-helicity (+1) state onto the boosted unequal-helicity
    state at the same (eta, delta), exactly; amplitudes on the control
    branch p+ are unchanged.

    With i sigma_y = [[0, 1], [-1, 0]] it is the signed permutation
    (a0, a1, a2, a3) -> (a0, a1, a3, -a2).
    """
    a0, a1, a2, a3 = state.amplitudes.tolist()
    new_class = (
        HelicityClass.UNEQUAL
        if state.helicity_class is HelicityClass.EQUAL_PLUS
        else None
    )
    return _state([a0, a1, a3, -a2], state.frame, new_class, state.eta, state.delta)
