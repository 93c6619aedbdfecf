"""Painleve VI as a dynamical system.

Parameter space with its affine Weyl symmetry (params), the family of
affine cubic surfaces carrying the monodromy data (cubic), the polynomial
modular-group action on those surfaces (modular), the correspondence from
canonical coordinates to monodromy via an explicit scalar equation
(fuchsian), Hamiltonian integration with nonlinear monodromy and the
Riccati locus (flow), the birational symmetries (backlund), and a
command-line front door (cli).
"""

import importlib

from . import backlund, cubic, flow, fuchsian, modular, params, rk, serialize
from .cubic import SurfacePoint
from .fuchsian import PhasePoint
from .modular import AmbientPoint
from .params import Exponents

__all__ = [
    "AmbientPoint",
    "Exponents",
    "PhasePoint",
    "SurfacePoint",
    "backlund",
    "cli",
    "cubic",
    "flow",
    "fuchsian",
    "modular",
    "params",
    "rk",
    "serialize",
]

__version__ = "0.1.0"


def __getattr__(name):
    # pvi.cli loads on first use, so `python -m pvi.cli` finds it unloaded
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
