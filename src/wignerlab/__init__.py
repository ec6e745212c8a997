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
The four modules load on first use of any public name or of ``__all__``
(a module ``__getattr__``, PEP 562), so ``import wignerlab`` alone does
not import numpy.  That leaves ``wignerlab.cli`` room to set numpy's
BLAS thread count before numpy loads.
"""

import importlib

from ._version import __version__

_MODULES = ("entanglement", "kinematics", "states", "sweep")


def _load_namespace() -> None:
    """Bind every module's public names here, and ``__all__`` to their sorted list."""
    names = {"__version__": __version__}
    for module_name in _MODULES:
        module = importlib.import_module(f".{module_name}", __name__)
        names.update((name, getattr(module, name)) for name in module.__all__)
    globals().update(names, __all__=sorted(names))


def __getattr__(name: str):
    if "__all__" not in globals():
        _load_namespace()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    if "__all__" not in globals():
        _load_namespace()
    return sorted(globals())
