"""wignerlab: Thomas-Wigner rotation and spin-momentum entanglement of boosted spin-1/2 states.

Composing two non-collinear Lorentz boosts produces a spatial rotation;
on a massive spin-1/2 particle with two sharp momentum branches the
rotation acts on the spin conditioned on the momentum, changing the
entanglement between the two.  This package computes the rotation angle
(closed forms plus an independent matrix route), prepares and boosts the
canonical helicity-family states, quantifies the entanglement in bits,
sweeps it over the boosting geometry, and verifies its own invariants.

The namespace re-exports each module's ``__all__`` (``entanglement``,
``kinematics``, ``states`` and ``sweep``), so every public name is
declared once, in its own module; ``verify`` and ``cli`` stay out of it.
"""

from . import entanglement, kinematics, states, sweep
from ._version import __version__
from .entanglement import *
from .kinematics import *
from .states import *
from .sweep import *

__all__ = sorted(
    ["__version__", *entanglement.__all__, *kinematics.__all__, *states.__all__, *sweep.__all__]
)
